"""Equivalence suite: engine-backed evaluation vs the pinned legacy paths.

The evaluation layer (J-measure, KL form, ρ, split losses, classwise)
now runs on the columnar ``EntropyEngine``/``EvalContext`` backend; the
original row-based implementations are pinned in ``repro.core.legacy``
(and ``classwise_decomposition_legacy``).  These tests assert the two
stacks agree — bit-for-bit on integer-derived quantities (ρ, spurious
counts, split-join sizes), to float tolerance on entropy sums — on both
hand-picked and hypothesis-generated instances, and that Theorem 3.2's
``J == D_KL`` identity closes the triangle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classwise import (
    classwise_decomposition,
    classwise_decomposition_legacy,
)
from repro.core.evalcontext import EvalContext
from repro.core.jmeasure import j_measure, j_measure_kl
from repro.core.legacy import (
    acyclic_join_size_legacy,
    j_measure_kl_legacy,
    j_measure_legacy,
    legacy_loss_profile,
    split_join_size_legacy,
    split_loss_legacy,
    spurious_loss_legacy,
    support_split_losses_legacy,
)
from repro.core.loss import split_loss, spurious_count, spurious_loss, support_split_losses
from repro.core.random_relations import random_relation
from repro.jointrees.build import jointree_from_schema
from repro.relations.join import acyclic_join_size, split_join_size
from repro.relations.relation import Relation
from repro.relations.schema import RelationSchema

ATTRS = ("A", "B", "C", "D")

TREES = [
    jointree_from_schema([{"A", "B"}, {"B", "C"}, {"C", "D"}]),
    jointree_from_schema([{"A", "B", "C"}, {"B", "C", "D"}]),
    jointree_from_schema([{"A", "C"}, {"B", "C"}, {"C", "D"}]),
    jointree_from_schema([{"A"}, {"B"}, {"C"}, {"D"}]),
    jointree_from_schema([{"A", "B", "C", "D"}]),
]

relations = st.lists(
    st.tuples(*(st.integers(0, 3) for _ in ATTRS)), min_size=1, max_size=24
).map(
    lambda rows: Relation(
        RelationSchema.integer_domains({a: 4 for a in ATTRS}), rows, validate=False
    )
)


class TestJMeasureEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(relation=relations, tree_index=st.integers(0, len(TREES) - 1))
    def test_engine_matches_legacy_and_kl(self, relation, tree_index):
        """Engine entropy form == legacy entropy form == both KL forms."""
        tree = TREES[tree_index]
        j_engine = j_measure(relation, tree)
        j_legacy = j_measure_legacy(relation, tree)
        kl_engine = j_measure_kl(relation, tree)
        kl_legacy = j_measure_kl_legacy(relation, tree)
        assert j_engine == pytest.approx(j_legacy, abs=1e-9)
        assert kl_engine == pytest.approx(kl_legacy, abs=1e-9)
        # Theorem 3.2 closes the triangle: the entropy and KL forms agree.
        assert j_engine == pytest.approx(kl_engine, abs=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(relation=relations, tree_index=st.integers(0, len(TREES) - 1))
    def test_rho_bit_for_bit(self, relation, tree_index):
        """Join sizes are integer counts: engine ρ == legacy ρ exactly."""
        tree = TREES[tree_index]
        assert acyclic_join_size(relation, tree) == acyclic_join_size_legacy(
            relation, tree
        )
        assert spurious_loss(relation, tree) == spurious_loss_legacy(relation, tree)

    @settings(max_examples=60, deadline=None)
    @given(relation=relations, tree_index=st.integers(0, len(TREES) - 1))
    def test_split_losses_bit_for_bit(self, relation, tree_index):
        """Columnar per-split join counts match the Counter-based legacy."""
        tree = TREES[tree_index]
        engine_losses = support_split_losses(relation, tree)
        legacy_losses = support_split_losses_legacy(relation, tree)
        assert tuple(s.rho for s in engine_losses) == legacy_losses


class TestSplitJoinSize:
    @settings(max_examples=60, deadline=None)
    @given(relation=relations)
    def test_overlapping_sides(self, relation):
        left, right = {"A", "B", "C"}, {"B", "C", "D"}
        assert split_join_size(relation, left, right) == split_join_size_legacy(
            relation, left, right
        )
        assert split_loss(relation, left, right) == split_loss_legacy(
            relation, left, right
        )

    @settings(max_examples=60, deadline=None)
    @given(relation=relations)
    def test_disjoint_sides_are_a_product(self, relation):
        left, right = {"A", "B"}, {"C", "D"}
        expected = relation.projection_size(left) * relation.projection_size(right)
        assert split_join_size(relation, left, right) == expected
        assert split_join_size(relation, left, right) == split_join_size_legacy(
            relation, left, right
        )


class TestClasswiseEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2)),
            min_size=1,
            max_size=30,
        )
    )
    def test_vectorized_matches_legacy(self, rows):
        relation = Relation(
            RelationSchema.integer_domains({"A": 5, "B": 5, "C": 3}),
            rows,
            validate=False,
        )
        fast = classwise_decomposition(relation, "A", "B", "C")
        slow = classwise_decomposition_legacy(relation, "A", "B", "C")
        assert len(fast.classes) == len(slow.classes)
        for a, b in zip(fast.classes, slow.classes):
            assert a.value == b.value
            assert a.n == b.n
            assert a.rho == b.rho               # integer-derived: exact
            assert a.rho_ceiling == b.rho_ceiling
            assert a.weight == b.weight
            assert a.mi == pytest.approx(b.mi, abs=1e-9)
        assert fast.log_loss == pytest.approx(slow.log_loss, abs=1e-12)
        assert fast.entropy_gap == pytest.approx(slow.entropy_gap, abs=1e-9)
        assert fast.weighted_log_ceiling == pytest.approx(
            slow.weighted_log_ceiling, abs=1e-9
        )
        assert fast.weighted_log_loss == pytest.approx(
            slow.weighted_log_loss, abs=1e-9
        )
        assert fast.cmi == pytest.approx(slow.cmi, abs=1e-9)

    def test_overlapping_groups_fall_back(self):
        rng = np.random.default_rng(3)
        relation = random_relation({"A": 4, "B": 4, "C": 2}, 14, rng)
        fast = classwise_decomposition(relation, ("A", "B"), ("B",), "C")
        slow = classwise_decomposition_legacy(relation, ("A", "B"), ("B",), "C")
        assert fast.log_loss == slow.log_loss
        assert [c.rho for c in fast.classes] == [c.rho for c in slow.classes]


class TestEvalContext:
    def test_cached_on_relation(self):
        rng = np.random.default_rng(5)
        relation = random_relation({"A": 4, "B": 4, "C": 3}, 20, rng)
        assert EvalContext.for_relation(relation) is EvalContext.for_relation(relation)

    def test_join_sizes_memoized_across_consumers(self):
        from repro.jointrees.jointree import JoinTree

        rng = np.random.default_rng(6)
        relation = random_relation({"A": 5, "B": 5, "C": 3}, 30, rng)
        tree = JoinTree({0: {"A", "C"}, 1: {"B", "C"}}, [(0, 1)])
        context = EvalContext.for_relation(relation)
        first = context.join_size(tree)
        stats = context.cache_stats()
        # ρ, spurious count, and an equal tree all hit the same entry.
        assert context.spurious_count(tree) == first - len(relation)
        equal_tree = JoinTree({0: {"A", "C"}, 1: {"B", "C"}}, [(1, 0)])
        assert context.join_size(equal_tree) == first
        assert context.cache_stats()["tree_join_sizes"] == stats["tree_join_sizes"]

    def test_split_size_unordered_memo(self):
        rng = np.random.default_rng(7)
        relation = random_relation({"A": 4, "B": 4, "C": 3}, 25, rng)
        context = EvalContext.for_relation(relation)
        ab = context.split_join_size({"A", "C"}, {"B", "C"})
        ba = context.split_join_size({"B", "C"}, {"A", "C"})
        assert ab == ba
        assert context.cache_stats()["split_join_sizes"] == 1

    def test_detached_context_with_explicit_engine(self):
        from repro.info.engine import EntropyEngine

        rng = np.random.default_rng(8)
        relation = random_relation({"A": 4, "B": 4}, 10, rng)
        engine = EntropyEngine(relation)
        context = EvalContext.for_relation(relation, engine=engine)
        assert context.engine is engine
        assert context is not EvalContext.for_relation(relation)

    def test_explicit_engine_for_another_relation_is_rejected(self):
        from repro.errors import ReproError
        from repro.info.engine import EntropyEngine

        rng = np.random.default_rng(8)
        relation = random_relation({"A": 4, "B": 4}, 10, rng)
        other = random_relation({"A": 4, "B": 4}, 10, rng)
        with pytest.raises(ReproError, match="different relation"):
            EvalContext.for_relation(relation, engine=EntropyEngine(other))


class TestLegacyProfile:
    def test_profile_matches_engine_paths(self):
        rng = np.random.default_rng(9)
        relation = random_relation({a: 5 for a in ATTRS}, 80, rng)
        tree = TREES[0]
        profile = legacy_loss_profile(relation, tree)
        assert profile["j_measure"] == pytest.approx(j_measure(relation, tree), abs=1e-9)
        assert profile["j_kl"] == pytest.approx(j_measure_kl(relation, tree), abs=1e-9)
        assert profile["rho"] == spurious_loss(relation, tree)
        assert profile["split_losses"] == tuple(
            s.rho for s in support_split_losses(relation, tree)
        )

    def test_spurious_count_empty_relation(self):
        relation = Relation.empty(RelationSchema.from_names(ATTRS))
        assert spurious_count(relation, TREES[0]) == 0
