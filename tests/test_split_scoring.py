"""Mask-batch split scoring against the frozenset reference.

Discovery scores a whole candidate batch at once: attribute sets are
bitmasks, the CMIs are one numpy expression over gathered memo entries,
and the rank order is one ``np.lexsort``.  These tests pin that path to
the per-candidate reference it replaced:

* each batch CMI equals ``EntropyEngine.cmi(left, right, separator)``
  on a fresh engine, bit for bit;
* the batch's rank order equals ``sorted(splits, key=rank_key)``;
* the candidates are those of ``candidate_separators`` ×
  ``binary_partitions`` (or ``greedy_partition`` above the exact
  partition limit), in that order;
* the tuple-keyed ``cache_snapshot`` / ``merge_cache`` pair round-trips,
  and a snapshot taken while other threads fill the memo succeeds.

Relations cover column names whose lexicographic order differs from
schema order, full products (every split is an exact MVD, so every CMI
ties at 0.0 and only names break ties), and a 70-attribute schema whose
masks do not fit in an int64.
"""

import itertools
import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.random_relations import random_relation
from repro.discovery import SearchContext, SerialSplitScorer, mine_jointree
from repro.discovery.candidates import (
    binary_partitions,
    candidate_separators,
    greedy_partition,
)
from repro.discovery.scoring import MVDSplit, rank_key
from repro.discovery.strategies.base import enumerate_split_candidates
from repro.info.engine import EntropyEngine
from repro.relations.relation import Relation
from repro.relations.schema import RelationSchema

#: Name order differs from schema order: "10" < "9" < "C" < "a" < "b".
NAMES = ("b", "a", "C", "10", "9", "x")
STRATEGIES = ("recursive", "beam", "anytime", "greedy-agglomerative")


def _reference_splits(engine: EntropyEngine, candidates) -> list[MVDSplit]:
    """Each candidate scored alone through the public frozenset API."""
    splits = []
    for separator, left, right in zip(
        candidates.separators, candidates.lefts, candidates.rights
    ):
        sep = frozenset(engine.names(separator))
        y = frozenset(engine.names(left))
        z = frozenset(engine.names(right))
        splits.append(MVDSplit(sep, y, z, engine.cmi(y, z, sep)))
    return splits


def _assert_matches_reference(relation, candidates, scored) -> None:
    reference = _reference_splits(EntropyEngine(relation), candidates)
    assert len(scored) == len(candidates) == len(reference)
    assert [float(value).hex() for value in scored.cmi] == [
        split.cmi.hex() for split in reference
    ]
    assert [scored.split(i) for i in scored.ranked()] == sorted(
        reference, key=rank_key
    )


class ReferenceCheckingScorer(SerialSplitScorer):
    """The serial scorer, checking every batch against the reference."""

    def __init__(self) -> None:
        self.batches = 0

    def score_batch(self, relation, candidates, *, engine=None):
        scored = super().score_batch(relation, candidates, engine=engine)
        _assert_matches_reference(relation, candidates, scored)
        self.batches += 1
        return scored


def _legacy_candidates(context, attributes):
    """The frozenset enumeration the mask batch reproduces."""
    out = []
    for separator in candidate_separators(
        sorted(attributes), context.max_separator_size
    ):
        rest = attributes - separator
        if len(rest) <= context.exact_partition_limit:
            for left, right in binary_partitions(sorted(rest)):
                out.append((separator, left, right))
        else:
            left, right = greedy_partition(
                context.relation, sorted(rest), separator, engine=context.engine
            )
            out.append((separator, left, right))
    return out


@st.composite
def relations(draw):
    arity = draw(st.integers(min_value=3, max_value=len(NAMES)))
    names = draw(st.permutations(NAMES))[:arity]
    sizes = {
        name: draw(st.integers(min_value=1, max_value=3)) for name in names
    }
    if draw(st.booleans()):
        return Relation.full(RelationSchema.integer_domains(sizes))
    capacity = int(np.prod(list(sizes.values())))
    n = draw(st.integers(min_value=1, max_value=min(capacity, 40)))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return random_relation(sizes, n, np.random.default_rng(seed))


class TestBatchMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        relation=relations(),
        max_separator=st.integers(min_value=0, max_value=2),
        partition_limit=st.integers(min_value=2, max_value=5),
    )
    def test_root_batch(self, relation, max_separator, partition_limit):
        context = SearchContext.create(
            relation,
            max_separator_size=max_separator,
            exact_partition_limit=partition_limit,
        )
        attributes = relation.schema.name_set
        candidates = enumerate_split_candidates(context, attributes)
        engine = context.engine
        assert [
            (
                frozenset(engine.names(sep)),
                frozenset(engine.names(left)),
                frozenset(engine.names(right)),
            )
            for sep, left, right in zip(
                candidates.separators, candidates.lefts, candidates.rights
            )
        ] == _legacy_candidates(context, attributes)
        scored = SerialSplitScorer().score_batch(
            relation, candidates, engine=engine
        )
        _assert_matches_reference(relation, candidates, scored)

    @settings(max_examples=25, deadline=None)
    @given(
        relation=relations(),
        strategy=st.sampled_from(STRATEGIES),
        threshold=st.sampled_from([1e-9, 0.05, 0.5]),
    )
    def test_every_batch_a_search_scores(self, relation, strategy, threshold):
        mine_jointree(
            relation,
            threshold=threshold,
            strategy=strategy,
            scorer=ReferenceCheckingScorer(),
            exact_partition_limit=3,
        )

    def test_exact_mvds_tie_at_zero_and_break_by_name(self):
        relation = Relation.full(
            RelationSchema.integer_domains({name: 2 for name in NAMES})
        )
        context = SearchContext.create(relation)
        candidates = enumerate_split_candidates(context, relation.schema.name_set)
        scored = SerialSplitScorer().score_batch(
            relation, candidates, engine=context.engine
        )
        assert not scored.cmi.any()
        _assert_matches_reference(relation, candidates, scored)
        head = scored.split(scored.ranked()[0])
        assert head.separator == frozenset()
        assert head.left == frozenset({"10"})

    def test_masks_wider_than_int64(self):
        schema = RelationSchema.integer_domains({f"X{i:02d}": 2 for i in range(70)})
        codes = np.random.default_rng(5).integers(0, 2, size=(12, 70))
        relation = Relation(schema, [tuple(row) for row in codes.tolist()])
        engine = EntropyEngine.for_relation(relation)
        assert engine.mask(["X69"]) == 1 << 69
        # No CMI exceeds H(Ω) = log 12 < 3, so every split is taken and
        # the search recurses until the bags are pairs.
        scorer = ReferenceCheckingScorer()
        mined = mine_jointree(
            relation, threshold=3.0, max_separator_size=0, scorer=scorer
        )
        assert scorer.batches > 1
        assert any(
            "X69" in split.left | split.right for split in mined.splits
        )
        assert frozenset().union(*mined.bags) == relation.schema.name_set


class TestMemoRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(relation=relations())
    def test_snapshot_merge_round_trip(self, relation):
        source = EntropyEngine(relation)
        context = SearchContext(
            relation=relation, engine=source, scorer=SerialSplitScorer()
        )
        candidates = enumerate_split_candidates(context, relation.schema.name_set)
        cmi = SerialSplitScorer().score_batch(
            relation, candidates, engine=source
        ).cmi
        snapshot = source.cache_snapshot()
        assert len(snapshot) == source.cache_size()
        assert all(key == source.key(key) for key in snapshot)

        # Keys in any spelling land on the same entries; names outside
        # the schema are skipped.
        respelled = {tuple(reversed(key)): value for key, value in snapshot.items()}
        respelled[("not-an-attribute",)] = 0.0
        target = EntropyEngine(relation)
        assert target.merge_cache(respelled) == len(snapshot)
        assert target.merge_cache(snapshot) == 0
        assert target.cache_snapshot() == snapshot

        rescored = SerialSplitScorer().score_batch(
            relation, candidates, engine=target
        ).cmi
        assert target.cache_size() == len(snapshot)  # every entropy was merged
        assert np.array_equal(rescored, cmi)

    def test_snapshot_while_other_threads_fill_the_memo(self):
        # The service's job threads share one engine per dataset, and a
        # memo spill snapshots it while they run.
        names = [f"X{i}" for i in range(8)]
        relation = random_relation(
            {name: 3 for name in names}, 200, np.random.default_rng(9)
        )
        engine = EntropyEngine(relation)
        subsets = [
            combo
            for size in range(1, len(names) + 1)
            for combo in itertools.combinations(names, size)
        ]
        errors = []
        # Each fill thread waits after its first entropy until one
        # snapshot is taken, so the threads cannot all finish first.
        snapshot_taken = threading.Event()

        def fill(part):
            try:
                for i, subset in enumerate(subsets[part::4]):
                    engine.entropy(subset)
                    if i == 0:
                        snapshot_taken.wait(30)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            snapshots = 0
            while any(thread.is_alive() for thread in threads):
                try:
                    engine.cache_snapshot()
                except Exception as exc:
                    errors.append(exc)
                snapshots += 1
                snapshot_taken.set()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert snapshots > 0
        snapshot = engine.cache_snapshot()
        assert len(snapshot) == engine.cache_size() == len(subsets)

