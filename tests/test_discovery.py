"""Unit tests for repro.discovery (candidates + miner)."""

import math

import pytest

from repro.core.loss import spurious_loss
from repro.datasets.noise import perturb
from repro.datasets.synthetic import lossless_instance, planted_mvd_relation
from repro.discovery.candidates import (
    binary_partitions,
    candidate_separators,
    greedy_partition,
)
from repro.discovery.miner import best_split, mine_jointree
from repro.errors import DiscoveryError
from repro.jointrees.build import jointree_from_schema
from repro.relations.relation import Relation
from repro.relations.schema import RelationSchema


class TestCandidateSeparators:
    def test_counts(self):
        seps = list(candidate_separators(["A", "B", "C", "D"], 1))
        # empty + 4 singletons, all leaving >= 2 attributes.
        assert len(seps) == 5

    def test_size_cap_respects_remainder(self):
        # With 3 attributes, separators of size 2 leave < 2 to split.
        seps = list(candidate_separators(["A", "B", "C"], 2))
        assert max(len(s) for s in seps) == 1

    def test_negative_rejected(self):
        with pytest.raises(DiscoveryError):
            list(candidate_separators(["A", "B"], -1))


class TestBinaryPartitions:
    def test_count(self):
        parts = list(binary_partitions(["A", "B", "C", "D"]))
        assert len(parts) == 2 ** 3 - 1

    def test_blocks_partition_the_set(self):
        for left, right in binary_partitions(["A", "B", "C"]):
            assert left | right == frozenset({"A", "B", "C"})
            assert not (left & right)

    def test_too_small_rejected(self):
        with pytest.raises(DiscoveryError):
            list(binary_partitions(["A"]))


class TestGreedyPartition:
    def test_two_attributes(self, rng):
        r = planted_mvd_relation(4, 4, 2, rng)
        left, right = greedy_partition(r, ["A", "B"], frozenset({"C"}))
        assert {left, right} == {frozenset({"A"}), frozenset({"B"})}

    def test_finds_independent_blocks(self, rng):
        # Two diagonal pairs (A~B) and (C~D), mutually independent: the
        # partition {A,B} | {C,D} has CMI 0.
        schema = RelationSchema.integer_domains({"A": 4, "B": 4, "C": 4, "D": 4})
        rows = [
            (i, i, j, j)
            for i in range(4)
            for j in range(4)
        ]
        r = Relation(schema, rows)
        left, right = greedy_partition(r, ["A", "B", "C", "D"], frozenset())
        assert {left, right} == {
            frozenset({"A", "B"}),
            frozenset({"C", "D"}),
        }

    def test_too_small_rejected(self, rng):
        r = planted_mvd_relation(4, 4, 2, rng)
        with pytest.raises(DiscoveryError):
            greedy_partition(r, ["A"], frozenset())


class TestBestSplit:
    def test_planted_mvd_found(self, rng):
        r = planted_mvd_relation(6, 6, 4, rng)
        split = best_split(r, frozenset({"A", "B", "C"}))
        assert split is not None
        assert split.cmi == pytest.approx(0.0, abs=1e-9)
        assert split.separator == frozenset({"C"})

    def test_unsplittable_small_set(self, rng):
        r = planted_mvd_relation(4, 4, 2, rng)
        assert best_split(r, frozenset({"A"})) is None

    def test_deterministic(self, rng):
        r = planted_mvd_relation(6, 6, 4, rng)
        s1 = best_split(r, frozenset({"A", "B", "C"}))
        s2 = best_split(r, frozenset({"A", "B", "C"}))
        assert s1 == s2


class TestMineJointree:
    def test_recovers_planted_mvd(self, rng):
        r = planted_mvd_relation(8, 8, 4, rng)
        mined = mine_jointree(r)
        assert mined.bags == frozenset(
            {frozenset({"A", "C"}), frozenset({"B", "C"})}
        )
        assert mined.j_value == pytest.approx(0.0, abs=1e-9)
        assert mined.rho == 0.0

    def test_recovers_chain(self, rng, chain_tree):
        sizes = {"A": 3, "B": 3, "C": 3, "D": 3}
        r = lossless_instance(chain_tree, sizes, 12, rng)
        mined = mine_jointree(r)
        # The mined schema must be lossless; it may be finer or equal to
        # the planted one but never lossy.
        assert mined.j_value == pytest.approx(0.0, abs=1e-9)
        assert mined.rho == 0.0

    def test_noise_prevents_split_at_strict_threshold(self, rng):
        r = planted_mvd_relation(8, 8, 4, rng)
        noisy = perturb(r, rng, insert_rate=0.3)
        mined = mine_jointree(noisy, threshold=1e-9)
        # With strict threshold the noisy relation stays one bag.
        assert mined.bags == frozenset({frozenset({"A", "B", "C"})})
        assert mined.rho == 0.0  # single bag is trivially lossless

    def test_loose_threshold_accepts_split(self, rng):
        r = planted_mvd_relation(8, 8, 4, rng)
        noisy = perturb(r, rng, insert_rate=0.1)
        mined = mine_jointree(noisy, threshold=10.0)
        assert len(mined.bags) >= 2
        # The accepted split's J is within the threshold-sum guarantee.
        assert mined.j_value <= 10.0 * max(1, len(mined.splits))

    def test_mined_loss_bounded_by_lemma41(self, rng):
        import math

        r = planted_mvd_relation(8, 8, 4, rng)
        noisy = perturb(r, rng, insert_rate=0.15)
        mined = mine_jointree(noisy, threshold=0.5)
        assert mined.rho >= math.expm1(mined.j_value) - 1e-9

    def test_compute_loss_skippable(self, rng):
        import math

        r = planted_mvd_relation(6, 6, 3, rng)
        mined = mine_jointree(r, compute_loss=False)
        assert math.isnan(mined.rho)

    def test_empty_relation_rejected(self):
        schema = RelationSchema.integer_domains({"A": 2, "B": 2})
        with pytest.raises(DiscoveryError):
            mine_jointree(Relation.empty(schema))

    def test_negative_threshold_rejected(self, rng):
        r = planted_mvd_relation(4, 4, 2, rng)
        with pytest.raises(DiscoveryError):
            mine_jointree(r, threshold=-1.0)

    @pytest.mark.parametrize(
        "option", [{"threshold": math.nan}, {"deadline": math.nan}]
    )
    def test_nan_parameters_rejected(self, rng, option):
        # NaN fails every comparison, so a `< 0` / `<= 0` guard let it
        # through: a NaN threshold mined the one-bag schema and a NaN
        # deadline never expired.
        r = planted_mvd_relation(4, 4, 2, rng)
        with pytest.raises(DiscoveryError):
            mine_jointree(r, **option)

    def test_two_attribute_relation(self, rng):
        from repro.datasets.synthetic import diagonal_relation

        mined = mine_jointree(diagonal_relation(5))
        assert mined.bags == frozenset({frozenset({"A", "B"})})

    def test_mined_tree_covers_attributes(self, rng):
        r = planted_mvd_relation(6, 6, 3, rng)
        mined = mine_jointree(r)
        assert mined.jointree.attributes() == r.schema.name_set

    def test_independent_attributes_fully_factorized(self):
        # The full product over three attributes: every attribute is
        # independent, so the miner splits all the way down.
        schema = RelationSchema.integer_domains({"A": 2, "B": 2, "C": 2})
        r = Relation.full(schema)
        mined = mine_jointree(r)
        assert mined.j_value == pytest.approx(0.0, abs=1e-9)
        assert len(mined.bags) >= 2
