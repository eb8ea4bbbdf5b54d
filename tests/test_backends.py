"""Entropy backends: exact equivalence, sketch tolerances, merge laws.

The stated sketch tolerances (exact-capacity regime):

* ``H_sketch(Y) = H_plugin(Y) + (K_Y − 1)/(2N)`` **exactly** (the
  Miller–Madow correction is the only deviation);
* ``|J_sketch − J_exact| ≤ Σ_bags MM + Σ_seps MM`` (the signed MM terms
  are all that separate the two, since ``H(Ω) = log N`` is exact);
* ``ρ_sketch`` equals the exact Proposition 5.1 product-bound value
  ``∏ᵢ(1 + ρᵢ) − 1`` (for a two-bag schema: exactly ``ρ``).

Beyond capacity the sketch spills into CountMin/KMV state; those
estimates are checked against loose-but-meaningful bounds, and merging
per-chunk states must reproduce the single-pass result.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.jmeasure import j_measure
from repro.core.loss import spurious_loss, support_split_losses
from repro.core.random_relations import random_relation
from repro.errors import DistributionError
from repro.info.backends import (
    CountMinSketch,
    EntropySketch,
    ExactEntropyBackend,
    KMVSample,
    SketchEntropyBackend,
    SketchParams,
    available_backends,
    iter_packed_key_chunks,
    make_backend,
)
from repro.info.engine import EntropyEngine
from repro.jointrees.build import jointree_from_schema
from repro.relations.relation import Relation
from repro.relations.schema import RelationSchema


def small_relation(seed: int = 5, n: int = 150) -> Relation:
    sizes = {"A": 6, "B": 5, "C": 4, "D": 3}  # 360 cells
    return random_relation(sizes, n, np.random.default_rng(seed))


TREE = jointree_from_schema([{"A", "B", "C"}, {"B", "C", "D"}])


def mm_term(relation: Relation, subset) -> float:
    """The Miller–Madow correction ``(K − 1)/(2N)`` of one subset."""
    k = len(relation.projection_count_values(subset))
    return (k - 1) / (2.0 * len(relation))


class TestBackendResolution:
    def test_available(self):
        assert available_backends() == ("exact", "sketch")

    def test_make_backend(self):
        assert isinstance(make_backend(None), ExactEntropyBackend)
        assert isinstance(make_backend("exact"), ExactEntropyBackend)
        sketch = make_backend("sketch", chunk_rows=7)
        assert isinstance(sketch, SketchEntropyBackend)
        assert sketch.chunk_rows == 7
        ready = SketchEntropyBackend()
        assert make_backend(ready) is ready
        with pytest.raises(DistributionError, match="unknown entropy backend"):
            make_backend("quantum")

    def test_for_relation_caching_semantics(self):
        r = small_relation()
        default = EntropyEngine.for_relation(r)
        assert default.backend.name == "exact"
        # None and a matching name both return the cached engine.
        assert EntropyEngine.for_relation(r) is default
        assert EntropyEngine.for_relation(r, backend="exact") is default
        # A mismatching backend gets a detached engine; the cached one
        # (and its warm memo) is untouched.
        sketchy = EntropyEngine.for_relation(r, backend="sketch")
        assert sketchy is not default
        assert sketchy.backend.name == "sketch"
        assert EntropyEngine.for_relation(r) is default

    def test_sketch_engine_is_never_cached_on_the_relation(self):
        # Even on a relation with no cached engine yet, a sketch request
        # must not poison the relation's default engine slot: a later
        # default request (e.g. decompose's exact report after a sketch
        # mine) must get exact values.
        r = small_relation(91)
        sketchy = EntropyEngine.for_relation(r, backend="sketch")
        assert sketchy.backend.name == "sketch"
        default = EntropyEngine.for_relation(r)
        assert default is not sketchy
        assert default.backend.name == "exact"
        exact_h = EntropyEngine(r).entropy(["A", "B"])
        assert default.entropy(["A", "B"]) == exact_h

    def test_decompose_report_stays_exact_after_sketch_mine(self):
        from repro.factorize.pipeline import decompose
        from repro.discovery.miner import mine_jointree

        r = small_relation(93)
        mined = mine_jointree(
            r, threshold=0.2, backend=SketchEntropyBackend(chunk_rows=32)
        )
        report = decompose(r, mined.jointree).report
        exact_j = j_measure(r, mined.jointree, engine=EntropyEngine(r))
        assert report.j_measure == pytest.approx(exact_j, abs=1e-12)

    def test_exact_backend_matches_default_engine(self):
        r = small_relation(11)
        default = EntropyEngine(r)
        explicit = EntropyEngine(r, backend=ExactEntropyBackend())
        for subset in (["A"], ["A", "B"], ["A", "B", "C", "D"]):
            assert default.entropy(subset) == explicit.entropy(subset)


class TestSketchExactRegime:
    def test_entropy_is_plugin_plus_miller_madow(self):
        r = small_relation(7)
        exact = EntropyEngine(r)
        sketch = EntropyEngine(r, backend=SketchEntropyBackend(chunk_rows=64))
        for subset in (["A"], ["B", "C"], ["A", "B", "C", "D"]):
            expected = exact.entropy(subset) + mm_term(r, subset)
            assert sketch.entropy(subset) == pytest.approx(expected, abs=1e-12)

    def test_rho_equals_exact_product_bound(self):
        r = small_relation(13)
        backend = SketchEntropyBackend(chunk_rows=64)
        product = 1.0
        for split in support_split_losses(r, TREE):
            product *= 1.0 + split.rho
        assert backend.spurious_loss(r, TREE) == pytest.approx(
            product - 1.0, abs=1e-9
        )
        # Two bags → a single split → the product *is* the exact rho.
        assert backend.spurious_loss(r, TREE) == pytest.approx(
            spurious_loss(r, TREE), abs=1e-9
        )

    def test_rho_single_bag_is_zero(self):
        r = small_relation(17)
        tree = jointree_from_schema([{"A", "B", "C", "D"}])
        assert SketchEntropyBackend().spurious_loss(r, tree) == 0.0

    def test_rho_empty_relation_raises(self):
        empty = Relation.empty(RelationSchema.from_names(["A", "B"]))
        with pytest.raises(DistributionError):
            SketchEntropyBackend().spurious_loss(empty, TREE)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=70),
        chunk_rows=st.sampled_from([1, 7, 32, 1024]),
    )
    def test_j_within_stated_mm_tolerance(self, seed, n, chunk_rows):
        """|J_sketch − J_exact| ≤ Σ MM terms of the tree's bags + seps."""
        r = random_relation(
            {"A": 4, "B": 3, "C": 3, "D": 2}, n, np.random.default_rng(seed)
        )
        j_exact = j_measure(r, TREE, engine=EntropyEngine(r))
        sketch_engine = EntropyEngine(
            r, backend=SketchEntropyBackend(chunk_rows=chunk_rows)
        )
        j_sketch = j_measure(r, TREE, engine=sketch_engine)
        tolerance = sum(
            mm_term(r, TREE.bag(node)) for node in TREE.node_ids()
        ) + sum(mm_term(r, sep) for sep in TREE.separators() if sep)
        assert abs(j_sketch - j_exact) <= tolerance + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=70),
    )
    def test_rho_estimate_matches_product_bound_property(self, seed, n):
        """ρ_sketch == ∏(1+ρᵢ_exact) − 1 while everything fits in memory."""
        tree = jointree_from_schema([{"A", "B"}, {"B", "C"}, {"C", "D"}])
        r = random_relation(
            {"A": 4, "B": 3, "C": 3, "D": 2}, n, np.random.default_rng(seed)
        )
        product = 1.0
        for split in support_split_losses(r, tree):
            product *= 1.0 + split.rho
        estimate = SketchEntropyBackend(chunk_rows=16).spurious_loss(r, tree)
        assert estimate == pytest.approx(product - 1.0, rel=1e-9, abs=1e-9)
        # (No ordering assertion vs the exact rho: the Prop 5.1 product
        # bound has a known erratum — see LossAnalysis.render — so the
        # product form is an estimate, not a guaranteed upper bound.)


class TestSketchSpillRegime:
    def test_entropy_estimate_stays_close_under_spill(self):
        rng = np.random.default_rng(23)
        stream = rng.integers(0, 2000, size=20_000).astype(np.int64)
        params = SketchParams(capacity=64, seed=9)  # heavy spilling
        sketch = EntropySketch(params)
        sketch.update(stream)
        assert not sketch.is_exact
        values, counts = np.unique(stream, return_counts=True)
        p = counts / counts.sum()
        true_h = float(-(p * np.log(p)).sum())
        assert abs(sketch.entropy_nats(stream.size) - true_h) < 0.35
        estimate = sketch.distinct_estimate()
        assert 0.5 * len(values) <= estimate <= 2.0 * len(values)

    def test_merge_equals_single_pass_exact_regime(self):
        rng = np.random.default_rng(3)
        stream = rng.integers(0, 50, size=4000).astype(np.int64)
        params = SketchParams(capacity=1 << 16, seed=1)
        one = EntropySketch(params)
        one.update(stream)
        merged = EntropySketch(params)
        for start in range(0, stream.size, 123):
            part = EntropySketch(params)
            part.update(stream[start : start + 123])
            merged.merge(part)
        assert merged.total() == one.total()
        assert merged.entropy_nats(stream.size) == pytest.approx(
            one.entropy_nats(stream.size), abs=1e-12
        )

    def test_merge_close_to_single_pass_under_spill(self):
        rng = np.random.default_rng(31)
        stream = rng.integers(0, 3000, size=30_000).astype(np.int64)
        params = SketchParams(capacity=128, seed=5)
        one = EntropySketch(params)
        one.update(stream)
        merged = EntropySketch(params)
        for start in range(0, stream.size, 1111):
            part = EntropySketch(params)
            part.update(stream[start : start + 1111])
            merged.merge(part)
        assert merged.total() == one.total()
        assert merged.entropy_nats(stream.size) == pytest.approx(
            one.entropy_nats(stream.size), rel=0.1
        )

    def test_merge_rejects_incompatible_params(self):
        a = EntropySketch(SketchParams(seed=1))
        with pytest.raises(DistributionError):
            a.merge(EntropySketch(SketchParams(seed=2)))
        # Capacity mismatches break the merge==single-pass law too: a
        # low-capacity sketch may have spilled keys the other would have
        # counted exactly.
        with pytest.raises(DistributionError):
            a.merge(EntropySketch(SketchParams(seed=1, capacity=8)))
        with pytest.raises(DistributionError):
            a.merge(EntropySketch(SketchParams(seed=1, kmv_size=16)))


class TestSketchPrimitives:
    def test_countmin_never_underestimates(self):
        rng = np.random.default_rng(41)
        keys = rng.integers(0, 500, size=5000).astype(np.int64)
        cm = CountMinSketch(depth=4, width=1 << 12, seed=2)
        uniques, counts = np.unique(keys, return_counts=True)
        cm.update(uniques, counts)
        estimates = cm.point_estimate(uniques)
        assert (estimates >= counts).all()

    def test_countmin_merge(self):
        cm1 = CountMinSketch(4, 64, seed=3)
        cm2 = CountMinSketch(4, 64, seed=3)
        keys = np.arange(10, dtype=np.int64)
        ones = np.ones(10, dtype=np.int64)
        cm1.update(keys, ones)
        cm2.update(keys, 2 * ones)
        cm1.merge(cm2)
        assert (cm1.point_estimate(keys) >= 3).all()
        with pytest.raises(DistributionError):
            cm1.merge(CountMinSketch(4, 32, seed=3))

    def test_kmv_exact_below_k(self):
        kmv = KMVSample(64)
        kmv.update(np.arange(40, dtype=np.int64))
        kmv.update(np.arange(40, dtype=np.int64))  # duplicates collapse
        assert kmv.distinct_estimate() == 40.0

    def test_kmv_estimates_above_k(self):
        kmv = KMVSample(128)
        kmv.update(np.arange(10_000, dtype=np.int64))
        assert kmv.distinct_estimate() == pytest.approx(10_000, rel=0.35)

    def test_packed_chunks_match_full_pack(self):
        r = small_relation(43)
        store = r.columns()
        positions = (0, 2, 3)
        full = store.packed_key(positions)
        chunked = np.concatenate(
            list(iter_packed_key_chunks(r, positions, chunk_rows=37))
        )
        assert (full == chunked).all()

    def test_packed_chunks_hash_mode_is_deterministic(self):
        # Astronomic radix forces the hash path; same rows → same keys.
        schema = RelationSchema.from_names([f"C{i}" for i in range(8)])
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 100_000, size=(500, 8))
        r = Relation.from_codes(schema, codes)
        positions = tuple(range(8))
        radix = 1
        for p in positions:
            radix *= r.columns().cards[p]
        assert radix >= 1 << 62  # genuinely in hash territory
        a = np.concatenate(list(iter_packed_key_chunks(r, positions, 64)))
        b = np.concatenate(list(iter_packed_key_chunks(r, positions, 499)))
        assert (a == b).all()


    def test_packed_chunks_exact_past_int32_radix(self):
        """Cards multiplying past 2^31 (but below 2^62) keep the exact
        path; int32 code columns must be widened before packing."""
        schema = RelationSchema.from_names([f"C{i}" for i in range(4)])
        rng = np.random.default_rng(8)
        r = Relation.from_codes(schema, rng.integers(0, 2000, size=(3000, 4)))
        store = r.columns()
        assert store.codes[0].dtype == np.int32
        for positions in [(0, 1, 2), (3, 2, 1, 0)]:
            radix = math.prod(store.cards[p] for p in positions)
            assert 1 << 31 < radix < 1 << 62
            chunked = np.concatenate(
                list(iter_packed_key_chunks(r, positions, chunk_rows=700))
            )
            assert chunked.dtype == np.int64
            np.testing.assert_array_equal(chunked, store.packed_key(positions))


class TestSketchMining:
    def test_sketch_mine_independent_of_code_dtype(self):
        """A sketch mine over int32 code columns whose cards multiply past
        2^31 equals the same mine over the int64 columns."""
        from repro.discovery.miner import mine_jointree

        schema = RelationSchema.from_names([f"C{i}" for i in range(4)])
        rng = np.random.default_rng(9)
        # Rows come in pairs (a, b, c, ·) and (a + 1024, b, c, ·) over
        # cards 2048: (C0, C1, C2)'s radix is 2^33, and a key wrapped to
        # 32 bits would lose C0's top bit and merge each pair.
        half = rng.integers(0, 2048, size=(1024, 4))
        half[:, 0] = np.arange(1024)
        twin = half.copy()
        twin[:, 0] += 1024
        twin[:, 3] = rng.integers(0, 2048, size=1024)
        codes = np.concatenate([half, twin])
        codes[:2, 1:] = [[0, 0, 0], [2047, 2047, 2047]]
        narrow = Relation.from_codes(schema, codes)
        wide = Relation.from_codes(schema, codes)
        wide_store = wide.columns()
        wide_store.codes = tuple(c.astype(np.int64) for c in wide_store.codes)
        results = [
            mine_jointree(
                r, threshold=0.05, backend=SketchEntropyBackend(chunk_rows=256)
            )
            for r in (narrow, wide)
        ]
        assert narrow.columns().codes[0].dtype == np.int32
        assert results[0].bags == results[1].bags
        assert results[0].j_value == results[1].j_value
        assert results[0].rho == results[1].rho
        assert results[0].splits == results[1].splits

    def test_planted_mvd_recovered_by_sketch_backend(self):
        from repro.datasets import planted_mvd_relation
        from repro.discovery.miner import mine_jointree

        r = planted_mvd_relation(8, 8, 5, np.random.default_rng(2))
        exact = mine_jointree(r, threshold=0.05)
        sketch = mine_jointree(
            r, threshold=0.05, backend=SketchEntropyBackend(chunk_rows=32)
        )
        assert sketch.bags == exact.bags
        assert sketch.rho == pytest.approx(exact.rho, abs=1e-9)

    def test_engine_cmi_clamps_sketch_estimates(self):
        r = small_relation(47)
        engine = EntropyEngine(r, backend=SketchEntropyBackend(chunk_rows=32))
        assert engine.cmi(["A"], ["B"], ["C"]) >= 0.0
        assert engine.entropy([], base=2) == 0.0
        assert math.isfinite(engine.entropy(["A", "B", "C", "D"]))
