"""Unit tests for repro.info.entropy."""

import math

import numpy as np
import pytest

from repro.errors import DistributionError
from repro.info.backends import sum_c_log_c
from repro.info.entropy import (
    conditional_entropy,
    entropy_of_counts,
    entropy_of_probs,
    joint_entropy,
    max_entropy,
    relation_entropy,
)
from repro.relations.relation import Relation
from repro.relations.schema import RelationSchema


@pytest.fixture()
def uniform_relation():
    schema = RelationSchema.integer_domains({"A": 2, "B": 2})
    return Relation(schema, [(0, 0), (0, 1), (1, 0), (1, 1)])


class TestSumCLogC:
    def test_matches_an_exact_loop_sum(self):
        values = np.random.default_rng(3).integers(1, 5000, size=30_000)
        values = values.astype(np.float64)
        reference = math.fsum(v * math.log(v) for v in values.tolist())
        assert sum_c_log_c(values) == pytest.approx(reference, rel=1e-13)

    def test_leaves_its_input_alone(self):
        values = np.array([1.0, 2.0, 7.0])
        assert sum_c_log_c(values) == pytest.approx(
            2 * math.log(2) + 7 * math.log(7)
        )
        assert values.tolist() == [1.0, 2.0, 7.0]


class TestEntropyOfCounts:
    def test_uniform(self):
        assert entropy_of_counts([1, 1, 1, 1]) == pytest.approx(math.log(4))

    def test_base_conversion(self):
        assert entropy_of_counts([1, 1], base=2) == pytest.approx(1.0)

    def test_point_mass(self):
        assert entropy_of_counts([5]) == pytest.approx(0.0)

    def test_skewed_closed_form(self):
        # counts (3, 1): H = log 4 − (3 log 3)/4
        expected = math.log(4) - 3 * math.log(3) / 4
        assert entropy_of_counts([3, 1]) == pytest.approx(expected)

    def test_zero_counts_ignored(self):
        assert entropy_of_counts([2, 0, 2]) == pytest.approx(math.log(2))

    def test_empty_rejected(self):
        with pytest.raises(DistributionError):
            entropy_of_counts([])

    def test_negative_rejected(self):
        with pytest.raises(DistributionError):
            entropy_of_counts([1, -1])

    def test_bad_base_rejected(self):
        with pytest.raises(DistributionError):
            entropy_of_counts([1, 1], base=1.0)


class TestEntropyOfProbs:
    def test_uniform(self):
        assert entropy_of_probs([0.5, 0.5]) == pytest.approx(math.log(2))

    def test_must_sum_to_one(self):
        with pytest.raises(DistributionError):
            entropy_of_probs([0.5, 0.4])

    def test_empty_rejected(self):
        with pytest.raises(DistributionError):
            entropy_of_probs([])


class TestJointEntropy:
    def test_full_set_is_log_n(self, uniform_relation):
        h = joint_entropy(uniform_relation, ["A", "B"])
        assert h == pytest.approx(math.log(4))
        assert h == pytest.approx(relation_entropy(uniform_relation))

    def test_marginal(self, uniform_relation):
        assert joint_entropy(uniform_relation, ["A"]) == pytest.approx(math.log(2))

    def test_attribute_set_order_irrelevant(self, uniform_relation):
        assert joint_entropy(uniform_relation, ["B", "A"]) == pytest.approx(
            joint_entropy(uniform_relation, ["A", "B"])
        )

    def test_monotone_in_attributes(self, uniform_relation):
        assert joint_entropy(uniform_relation, ["A"]) <= joint_entropy(
            uniform_relation, ["A", "B"]
        ) + 1e-12

    def test_empty_relation_rejected(self):
        schema = RelationSchema.integer_domains({"A": 2})
        with pytest.raises(DistributionError):
            joint_entropy(Relation.empty(schema), ["A"])


class TestConditionalEntropy:
    def test_chain_rule(self, uniform_relation):
        h_ab = joint_entropy(uniform_relation, ["A", "B"])
        h_a = joint_entropy(uniform_relation, ["A"])
        assert conditional_entropy(uniform_relation, ["B"], ["A"]) == pytest.approx(
            h_ab - h_a
        )

    def test_empty_given(self, uniform_relation):
        assert conditional_entropy(uniform_relation, ["A"], []) == pytest.approx(
            joint_entropy(uniform_relation, ["A"])
        )

    def test_deterministic_dependence_is_zero(self):
        schema = RelationSchema.integer_domains({"A": 3, "B": 3})
        r = Relation(schema, [(0, 0), (1, 1), (2, 2)])
        assert conditional_entropy(r, ["B"], ["A"]) == pytest.approx(0.0)


class TestMaxEntropy:
    def test_value(self):
        assert max_entropy(8, base=2) == pytest.approx(3.0)

    def test_invalid(self):
        with pytest.raises(DistributionError):
            max_entropy(0)
