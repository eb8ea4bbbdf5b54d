"""Tests for the pluggable discovery engine (context / scoring / strategies).

Two pillars:

* **Validity property** — every registered strategy, on seeded random
  relations across thresholds, returns a schema that is GYO-reducible
  (acyclic), covers all attributes, and has maximal bags.
* **Bit-for-bit legacy equivalence** — the default ``recursive`` path
  reproduces the pre-refactor miner exactly: same bags, same J, same ρ,
  same accepted-split sequence.  The legacy algorithm is frozen below as
  an independent reference implementation.
"""

import gc
import math
import time
import weakref

import numpy as np
import pytest

from repro.core.analysis import analyze
from repro.core.jmeasure import j_measure
from repro.core.loss import spurious_loss
from repro.core.random_relations import random_relation
from repro.datasets.synthetic import planted_mvd_relation
from repro.discovery import (
    SearchContext,
    SerialSplitScorer,
    available_strategies,
    fit_schema_with_budget,
    get_strategy,
    mine_jointree,
    register_strategy,
)
from repro.discovery.candidates import (
    binary_partitions,
    candidate_separators,
    greedy_partition,
)
from repro.discovery.scoring import MVDSplit, prefer_split
from repro.discovery.strategies import _REGISTRY
from repro.discovery.strategies.base import DiscoveryStrategy, SearchOutcome
from repro.errors import DiscoveryError, ReproError
from repro.factorize.pipeline import decompose
from repro.info.divergence import conditional_mutual_information
from repro.info.engine import EntropyEngine
from repro.jointrees.build import jointree_from_schema
from repro.jointrees.gyo import is_acyclic

BUILTIN_STRATEGIES = ("anytime", "beam", "greedy-agglomerative", "recursive")


def _random_instances():
    """Seeded random relations of varying arity/density for property tests."""
    cases = []
    for seed, domains, n in [
        (11, {"A": 4, "B": 4, "C": 3}, 30),
        (12, {"A": 3, "B": 3, "C": 3, "D": 3}, 40),
        (13, {"A": 5, "B": 4, "C": 3, "D": 2}, 70),
        (14, {"A": 2, "B": 2, "C": 2, "D": 2, "E": 2}, 20),
    ]:
        cases.append(random_relation(domains, n, np.random.default_rng(seed)))
    return cases


# ----------------------------------------------------------------------
# Legacy reference: the pre-refactor miner, frozen verbatim in spirit.
# ----------------------------------------------------------------------
def _legacy_best_split(
    relation, attributes, *, max_separator_size=2, exact_partition_limit=10,
    engine=None,
):
    if len(attributes) < 2:
        return None
    if engine is None:
        engine = EntropyEngine.for_relation(relation)
    best = None
    for separator in candidate_separators(sorted(attributes), max_separator_size):
        rest = attributes - separator
        if len(rest) < 2:
            continue
        if len(rest) <= exact_partition_limit:
            partitions = binary_partitions(sorted(rest))
        else:
            partitions = [
                greedy_partition(relation, sorted(rest), separator, engine=engine)
            ]
        for left, right in partitions:
            cmi = conditional_mutual_information(
                relation, left, right, separator, engine=engine
            )
            candidate = MVDSplit(separator, left, right, cmi)
            if best is None or prefer_split(candidate, best):
                best = candidate
    return best


def _legacy_mine(relation, *, threshold=1e-9, max_separator_size=2):
    """The pre-refactor ``mine_jointree`` search loop, verbatim."""
    accepted = []
    engine = EntropyEngine.for_relation(relation)

    def decompose(attrs):
        split = (
            _legacy_best_split(
                relation, attrs,
                max_separator_size=max_separator_size, engine=engine,
            )
            if len(attrs) > 2
            else None
        )
        if split is None or split.cmi > threshold:
            return [attrs]
        combined = decompose(split.separator | split.left) + decompose(
            split.separator | split.right
        )
        if not is_acyclic(combined):
            return [attrs]
        accepted.append(split)
        return combined

    bags = decompose(relation.schema.name_set)
    maximal = [bag for bag in bags if not any(bag < other for other in bags)]
    seen, schema = set(), []
    for bag in maximal:
        if bag not in seen:
            seen.add(bag)
            schema.append(bag)
    tree = jointree_from_schema(schema)
    return (
        frozenset(schema),
        j_measure(relation, tree, engine=engine),
        spurious_loss(relation, tree),
        tuple(accepted),
    )


class TestRecursiveMatchesLegacy:
    @pytest.mark.parametrize("threshold", [1e-9, 0.05, 0.3])
    def test_random_relations(self, threshold):
        for relation in _random_instances():
            bags, j, rho, splits = _legacy_mine(relation, threshold=threshold)
            mined = mine_jointree(relation, threshold=threshold)
            assert mined.bags == bags
            assert mined.j_value == j
            assert mined.rho == rho
            assert mined.splits == splits

    def test_planted_mvd(self, rng):
        relation = planted_mvd_relation(8, 8, 4, rng)
        bags, j, rho, splits = _legacy_mine(relation)
        mined = mine_jointree(relation)
        assert (mined.bags, mined.j_value, mined.rho, mined.splits) == (
            bags, j, rho, splits,
        )


class TestStrategyValidityProperty:
    @pytest.mark.parametrize("name", BUILTIN_STRATEGIES)
    @pytest.mark.parametrize("threshold", [1e-9, 0.25])
    def test_valid_acyclic_covering_schema(self, name, threshold):
        assert set(BUILTIN_STRATEGIES) <= set(available_strategies())
        for relation in _random_instances():
            mined = mine_jointree(relation, strategy=name, threshold=threshold)
            bags = set(mined.bags)
            # Covers every attribute.
            assert frozenset().union(*bags) == relation.schema.name_set
            # GYO-reducible (acyclic) — the join tree also already built.
            assert is_acyclic(bags)
            assert mined.jointree.attributes() == relation.schema.name_set
            # Bags are maximal (a schema requires maximality).
            assert not any(a < b for a in bags for b in bags)
            assert mined.j_value >= 0.0
            assert mined.rho >= 0.0

    @pytest.mark.parametrize("name", ["recursive", "beam", "anytime"])
    def test_planted_mvd_recovered(self, name, rng):
        relation = planted_mvd_relation(8, 8, 4, rng)
        mined = mine_jointree(relation, strategy=name)
        assert mined.bags == frozenset(
            {frozenset({"A", "C"}), frozenset({"B", "C"})}
        )
        assert mined.j_value == pytest.approx(0.0, abs=1e-9)

    def test_agglomerative_finds_independent_blocks(self):
        # (A~B) ⟂ (C~D): the partition {A,B} | {C,D} has zero total
        # correlation, which bottom-up merging finds directly.
        from repro.relations.relation import Relation
        from repro.relations.schema import RelationSchema

        schema = RelationSchema.integer_domains({"A": 4, "B": 4, "C": 4, "D": 4})
        rows = [(i, i, j, j) for i in range(4) for j in range(4)]
        relation = Relation(schema, rows)
        mined = mine_jointree(relation, strategy="greedy-agglomerative")
        assert mined.bags == frozenset(
            {frozenset({"A", "B"}), frozenset({"C", "D"})}
        )
        assert mined.j_value == pytest.approx(0.0, abs=1e-9)

    def test_anytime_deterministic_given_seed(self):
        relation = random_relation(
            {"A": 3, "B": 3, "C": 3, "D": 3}, 40, np.random.default_rng(31)
        )
        first = mine_jointree(relation, strategy="anytime", threshold=0.3, seed=5)
        second = mine_jointree(relation, strategy="anytime", threshold=0.3, seed=5)
        assert first.bags == second.bags
        assert first.j_value == second.j_value


class TestSearchContext:
    def test_create_validates(self, rng):
        from repro.relations.relation import Relation
        from repro.relations.schema import RelationSchema

        schema = RelationSchema.integer_domains({"A": 2, "B": 2})
        with pytest.raises(DiscoveryError):
            SearchContext.create(Relation.empty(schema))
        relation = planted_mvd_relation(4, 4, 2, rng)
        with pytest.raises(DiscoveryError):
            SearchContext.create(relation, threshold=-1.0)
        with pytest.raises(DiscoveryError):
            SearchContext.create(relation, deadline_seconds=0.0)

    def test_deadline_accounting(self, rng):
        relation = planted_mvd_relation(4, 4, 2, rng)
        context = SearchContext.create(relation)
        assert not context.expired()
        assert context.remaining() == math.inf
        context = SearchContext.create(relation, deadline_seconds=60.0)
        assert not context.expired()
        assert 0.0 < context.remaining() <= 60.0
        context.deadline = time.monotonic() - 1.0
        assert context.expired()
        assert context.remaining() == 0.0

    @pytest.mark.parametrize("name", BUILTIN_STRATEGIES)
    def test_expired_deadline_still_yields_valid_schema(self, name, rng):
        relation = planted_mvd_relation(6, 6, 3, rng)
        context = SearchContext.create(relation, deadline_seconds=1e-9)
        time.sleep(0.01)  # guarantee expiry
        outcome = get_strategy(name).search(context)
        bags = set(outcome.bags)
        assert frozenset().union(*bags) == relation.schema.name_set
        assert is_acyclic(bags)

    def test_engine_shared_with_exhaustive_and_frontier(self, rng):
        from repro.discovery import mine_exhaustive, schema_frontier

        relation = planted_mvd_relation(5, 5, 3, rng)
        context = SearchContext.create(relation)
        mined = mine_exhaustive(relation, context=context)
        points = schema_frontier(relation, context=context)
        assert context.engine.cache_size() > 0
        assert any(p.bags == mined.bags for p in points)


class TestScorers:
    def test_caller_scorer_sees_every_batch(self):
        # mine_jointree(scorer=...) is the seam for observing a search:
        # a subclass scores every batch and the result is unchanged.
        class CountingScorer(SerialSplitScorer):
            scored = 0

            def score_batch(self, relation, candidates, *, engine=None):
                self.scored += len(candidates)
                return super().score_batch(relation, candidates, engine=engine)

        relation = random_relation(
            {"A": 4, "B": 4, "C": 3, "D": 3}, 80, np.random.default_rng(21)
        )
        plain = mine_jointree(relation, threshold=0.2)
        scorer = CountingScorer()
        counted = mine_jointree(relation, threshold=0.2, scorer=scorer)
        assert scorer.scored > 0
        assert (counted.bags, counted.j_value, counted.splits) == (
            plain.bags, plain.j_value, plain.splits,
        )

    def test_merge_cache_roundtrip(self, rng):
        relation = planted_mvd_relation(4, 4, 2, rng)
        source = EntropyEngine(relation)
        source.entropy(["A"])
        source.entropy(["A", "B"])
        target = EntropyEngine(relation)
        added = target.merge_cache(source.cache_snapshot())
        assert added == 2
        assert target.merge_cache(source.cache_snapshot()) == 0
        assert target.entropy(["A"]) == source.entropy(["A"])


class TestRegistry:
    def test_builtins_registered(self):
        assert available_strategies() == BUILTIN_STRATEGIES

    def test_unknown_strategy_rejected(self, rng):
        relation = planted_mvd_relation(4, 4, 2, rng)
        with pytest.raises(DiscoveryError):
            mine_jointree(relation, strategy="simulated-annealing")
        with pytest.raises(DiscoveryError):
            get_strategy("nope")

    def test_duplicate_name_rejected(self):
        with pytest.raises(DiscoveryError):

            @register_strategy
            class Impostor(DiscoveryStrategy):
                name = "recursive"

    def test_nameless_strategy_rejected(self):
        with pytest.raises(DiscoveryError):

            @register_strategy
            class Nameless(DiscoveryStrategy):
                name = ""

    def test_custom_strategy_plugs_in(self, rng):
        @register_strategy
        class TrivialStrategy(DiscoveryStrategy):
            name = "test-trivial"

            def search(self, context):
                return SearchOutcome((context.relation.schema.name_set,), ())

        try:
            relation = planted_mvd_relation(4, 4, 2, rng)
            mined = mine_jointree(relation, strategy="test-trivial")
            assert mined.bags == frozenset({relation.schema.name_set})
            assert mined.j_value == pytest.approx(0.0, abs=1e-12)
        finally:
            _REGISTRY.pop("test-trivial", None)


class TestBudgetIntegration:
    @pytest.mark.parametrize("name", BUILTIN_STRATEGIES)
    def test_any_strategy_drives_the_fit(self, name, rng):
        relation = planted_mvd_relation(6, 6, 3, rng)
        fit = fit_schema_with_budget(
            relation, 0.5, mode="greedy", strategy=name
        )
        assert fit.rho <= 0.5
        assert is_acyclic(fit.bags)


class TestRelationLifetime:
    """Mining, analysing and decomposing leave no reference cycle that
    holds the relation: once the caller drops it, reference counting
    frees it (the cyclic collector is off)."""

    @pytest.mark.parametrize("backend", [None, "sketch"])
    @pytest.mark.parametrize("name", BUILTIN_STRATEGIES)
    def test_dropped_relation_is_freed(self, name, backend):
        relation = planted_mvd_relation(6, 6, 3, np.random.default_rng(0))
        gc.collect()
        gc.disable()
        try:
            mined = mine_jointree(
                relation, strategy=name, threshold=0.05, backend=backend
            )
            analyze(relation, mined.jointree)
            decompose(relation, mined.jointree)
            ref = weakref.ref(relation)
            del relation
            assert ref() is None
        finally:
            gc.enable()

    def test_detached_engine_keeps_its_relation(self):
        def make_relation():
            return planted_mvd_relation(6, 6, 3, np.random.default_rng(0))

        detached = EntropyEngine(make_relation())
        gc.collect()
        relation = make_relation()
        expected = EntropyEngine.for_relation(relation).entropy(["A", "C"])
        assert detached.entropy(["A", "C"]) == expected

    def test_cached_engine_outliving_its_relation_raises(self):
        relation = planted_mvd_relation(6, 6, 3, np.random.default_rng(0))
        engine = EntropyEngine.for_relation(relation)
        del relation
        gc.collect()
        with pytest.raises(ReproError, match="freed"):
            engine.entropy(["A"])
