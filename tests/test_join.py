"""Unit tests for repro.relations.join."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.jmeasure import j_measure_kl
from repro.core.legacy import (
    acyclic_join_size_legacy,
    j_measure_kl_legacy,
    split_join_size_legacy,
)
from repro.core.random_relations import random_relation
from repro.errors import JoinTreeError, SchemaError
from repro.jointrees.build import chain_jointree, jointree_from_schema
from repro.jointrees.jointree import JoinTree
from repro.relations import columns, join
from repro.relations.join import (
    _acyclic_join_size_python,
    acyclic_join_size,
    cartesian_size,
    join_size,
    materialized_acyclic_join,
    natural_join,
    natural_join_all,
    split_join_size,
)
from repro.relations.relation import Relation
from repro.relations.schema import RelationSchema


def brute_force_join(left: Relation, right: Relation) -> set[tuple]:
    """Reference nested-loop natural join."""
    shared = [n for n in left.schema.names if n in right.schema.names]
    right_only = [n for n in right.schema.names if n not in shared]
    out = set()
    for lrow in left:
        lmap = dict(zip(left.schema.names, lrow))
        for rrow in right:
            rmap = dict(zip(right.schema.names, rrow))
            if all(lmap[a] == rmap[a] for a in shared):
                out.add(lrow + tuple(rmap[a] for a in right_only))
    return out


@pytest.fixture()
def pair(rng):
    r1 = random_relation({"A": 4, "B": 4}, 10, rng)
    r2 = random_relation({"B": 4, "C": 4}, 10, rng)
    return r1, r2


class TestNaturalJoin:
    def test_matches_brute_force(self, pair):
        r1, r2 = pair
        joined = natural_join(r1, r2)
        assert joined.rows() == frozenset(brute_force_join(r1, r2))

    def test_schema_layout(self, pair):
        r1, r2 = pair
        joined = natural_join(r1, r2)
        assert joined.schema.names == ("A", "B", "C")

    def test_cartesian_when_disjoint(self, rng):
        r1 = random_relation({"A": 3}, 3, rng)
        r2 = random_relation({"B": 3}, 2, rng)
        joined = natural_join(r1, r2)
        assert len(joined) == 6

    def test_empty_operand(self, rng):
        r1 = random_relation({"A": 3, "B": 3}, 5, rng)
        r2 = Relation.empty(RelationSchema.integer_domains({"B": 3, "C": 3}))
        assert natural_join(r1, r2).is_empty()

    def test_join_with_self_is_identity(self, rng):
        r = random_relation({"A": 4, "B": 4}, 8, rng)
        joined = natural_join(r, r)
        assert joined.rows() == r.rows()

    def test_build_side_swap_consistent(self, rng):
        # Result must not depend on which side is bucketed.
        small = random_relation({"A": 3, "B": 3}, 3, rng)
        large = random_relation({"B": 3, "C": 3}, 8, rng)
        j1 = natural_join(small, large)
        j2 = natural_join(large, small)
        # Same tuples up to column order.
        assert {tuple(sorted(zip(j1.schema.names, row))) for row in j1} == {
            tuple(sorted(zip(j2.schema.names, row))) for row in j2
        }


class TestNaturalJoinAll:
    def test_three_way_matches_pairwise(self, rng):
        rels = [
            random_relation({"A": 3, "B": 3}, 6, rng),
            random_relation({"B": 3, "C": 3}, 6, rng),
            random_relation({"C": 3, "D": 3}, 6, rng),
        ]
        combined = natural_join_all(rels)
        step = natural_join(natural_join(rels[0], rels[1]), rels[2])
        assert combined.rows() == step.project(combined.schema.names).rows()

    def test_connectivity_order_avoids_cartesian(self, rng):
        # Operands given in a disconnected order still join correctly.
        rels = [
            random_relation({"A": 3, "B": 3}, 5, rng),
            random_relation({"C": 3, "D": 3}, 5, rng),
            random_relation({"B": 3, "C": 3}, 5, rng),
        ]
        combined = natural_join_all(rels)
        reordered = natural_join_all([rels[0], rels[2], rels[1]])
        assert {tuple(sorted(zip(combined.schema.names, row))) for row in combined} == {
            tuple(sorted(zip(reordered.schema.names, row))) for row in reordered
        }

    def test_empty_list_rejected(self):
        with pytest.raises(SchemaError):
            natural_join_all([])

    def test_single_relation(self, rng):
        r = random_relation({"A": 3}, 2, rng)
        assert natural_join_all([r]) is r


class TestJoinSize:
    def test_matches_materialized(self, pair):
        r1, r2 = pair
        assert join_size(r1, r2) == len(natural_join(r1, r2))

    def test_disjoint_is_product(self, rng):
        r1 = random_relation({"A": 5}, 4, rng)
        r2 = random_relation({"B": 5}, 3, rng)
        assert join_size(r1, r2) == 12

    def test_multi_attribute_key_order_invariance(self, rng):
        # Shared attributes appear in different schema orders on each side.
        s1 = RelationSchema.integer_domains({"A": 3, "X": 3, "Y": 3})
        s2 = RelationSchema.integer_domains({"Y": 3, "X": 3, "B": 3})
        r1 = Relation(s1, [(0, 1, 2), (1, 1, 2), (0, 0, 0)])
        r2 = Relation(s2, [(2, 1, 0), (2, 1, 1), (0, 0, 5 % 3)])
        assert join_size(r1, r2) == len(natural_join(r1, r2))


class TestAcyclicJoinSize:
    def test_matches_materialized_mvd(self, rng, mvd_tree):
        r = random_relation({"A": 5, "B": 5, "C": 3}, 20, rng)
        expected = len(materialized_acyclic_join(r, mvd_tree))
        assert acyclic_join_size(r, mvd_tree) == expected

    def test_matches_materialized_chain(self, rng, chain_tree):
        r = random_relation({"A": 4, "B": 4, "C": 4, "D": 4}, 25, rng)
        expected = len(materialized_acyclic_join(r, chain_tree))
        assert acyclic_join_size(r, chain_tree) == expected

    def test_matches_materialized_star(self, rng):
        tree = jointree_from_schema([{"X", "A"}, {"X", "B"}, {"X", "C"}])
        r = random_relation({"X": 3, "A": 4, "B": 4, "C": 4}, 30, rng)
        expected = len(materialized_acyclic_join(r, tree))
        assert acyclic_join_size(r, tree) == expected

    def test_single_bag_tree(self, rng):
        tree = jointree_from_schema([{"A", "B"}])
        r = random_relation({"A": 4, "B": 4}, 7, rng)
        assert acyclic_join_size(r, tree) == 7

    def test_empty_relation(self, mvd_tree):
        schema = RelationSchema.integer_domains({"A": 2, "B": 2, "C": 2})
        assert acyclic_join_size(Relation.empty(schema), mvd_tree) == 0

    def test_join_contains_relation(self, rng, mvd_tree):
        r = random_relation({"A": 6, "B": 6, "C": 3}, 30, rng)
        assert acyclic_join_size(r, mvd_tree) >= len(r)

    def test_unknown_attribute_rejected(self, rng):
        r = random_relation({"A": 3, "B": 3}, 4, rng)
        tree = jointree_from_schema([{"A", "Z"}])
        with pytest.raises(JoinTreeError):
            acyclic_join_size(r, tree)

    def test_exhaustive_tiny_instances(self, mvd_tree):
        # All 3-attribute relations over 2x2x2 with exactly 3 tuples.
        schema = RelationSchema.integer_domains({"A": 2, "B": 2, "C": 2})
        cells = list(itertools.product(range(2), range(2), range(2)))
        for combo in itertools.combinations(cells, 3):
            r = Relation(schema, combo, validate=False)
            expected = len(materialized_acyclic_join(r, mvd_tree))
            assert acyclic_join_size(r, mvd_tree) == expected


class TestCartesianSize:
    def test_upper_bounds_acyclic_join(self, rng, mvd_tree):
        r = random_relation({"A": 5, "B": 5, "C": 3}, 20, rng)
        upper = cartesian_size(r, mvd_tree.bags())
        assert acyclic_join_size(r, mvd_tree) <= upper


class TestDeterminism:
    def test_count_is_deterministic(self, rng, chain_tree):
        r = random_relation({"A": 4, "B": 4, "C": 4, "D": 4}, 30, rng)
        first = acyclic_join_size(r, chain_tree)
        assert all(
            acyclic_join_size(r, chain_tree) == first for _ in range(3)
        )

    def test_root_choice_does_not_matter(self, rng):
        # topological_order root varies with node ids; counting must agree.
        r = random_relation({"A": 4, "B": 4, "C": 4, "D": 4}, 30, rng)
        t1 = chain_jointree([{"A", "B"}, {"B", "C"}, {"C", "D"}])
        t2 = chain_jointree([{"C", "D"}, {"B", "C"}, {"A", "B"}])
        assert acyclic_join_size(r, t1) == acyclic_join_size(r, t2)


# ----------------------------------------------------------------------
# One join path: the cell message pass against the exact references
# ----------------------------------------------------------------------
#: Column cardinalities.  Codes below 1000 stay identity-coded, so two
#: such columns push a separator past the dense limit (``max(4N, 1024)``)
#: on these small relations; a ``2^21`` column makes the store re-code
#: every column by its distinct values instead.
CARDS = st.sampled_from([1, 2, 3, 7, 40, 1000, 1 << 21])


@st.composite
def acyclic_cases(draw):
    """A random join tree and a relation over exactly its attributes.

    Each new node hangs off an earlier one, keeps a subset of its parent's
    bag and adds at least one fresh attribute, so every attribute's nodes
    stay connected (running intersection) and the tree covers Ω.
    """
    names = iter(f"A{i}" for i in range(16))
    bags = {0: {next(names) for _ in range(draw(st.integers(1, 2)))}}
    edges = []
    for node in range(1, draw(st.integers(1, 4))):
        parent = draw(st.integers(0, node - 1))
        kept = draw(st.sets(st.sampled_from(sorted(bags[parent]))))
        fresh = {next(names) for _ in range(draw(st.integers(1, 2)))}
        bags[node] = kept | fresh
        edges.append((node, parent))
    tree = JoinTree(bags, edges)
    attrs = sorted(tree.attributes(), key=lambda a: int(a[1:]))
    n = draw(st.integers(1, 40))
    columns_ = []
    for _ in attrs:
        card = draw(CARDS)
        pool = draw(st.lists(st.integers(0, card - 1), min_size=1, max_size=4))
        columns_.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    codes = np.array(columns_, dtype=np.int64).T
    sizes = {a: int(codes[:, j].max()) + 1 for j, a in enumerate(attrs)}
    relation = Relation.from_codes(RelationSchema.integer_domains(sizes), codes)
    return relation, tree


def assert_one_join_path(relation, tree, left, right):
    order = tree.topological_order()
    python = _acyclic_join_size_python(relation, tree, order, tree.parents())
    assert acyclic_join_size(relation, tree) == python
    assert acyclic_join_size_legacy(relation, tree) == python
    assert split_join_size(relation, left, right) == split_join_size_legacy(
        relation, left, right
    )
    assert j_measure_kl(relation, tree) == pytest.approx(
        j_measure_kl_legacy(relation, tree), abs=1e-9
    )


class TestOneJoinPath:
    @settings(max_examples=150, deadline=None)
    @given(acyclic_cases(), st.data(), st.booleans())
    def test_matches_references(self, case, data, recompress):
        relation, tree = case
        attrs = sorted(relation.schema.names)
        sides = st.sets(st.sampled_from(attrs), min_size=1)
        left, right = data.draw(sides), data.draw(sides)
        # A tiny pack ceiling forces packed_key to re-compress mid-pack.
        ceiling = 64 if recompress else columns._MAX_PACK
        with mock.patch.object(columns, "_MAX_PACK", ceiling):
            relation.columns().clear_cache()
            assert_one_join_path(relation, tree, left, right)

    def test_separator_past_the_dense_limit(self):
        rng = np.random.default_rng(8)
        n = 60
        wide = 1000  # identity-coded, and 1000² is past the limit of 1024
        codes = np.stack(
            [
                rng.choice(rng.choice(wide, 8, replace=False), size=n),
                rng.choice(rng.choice(wide, 8, replace=False), size=n),
                rng.integers(0, 3, size=n),
                rng.integers(0, 4, size=n),
            ],
            axis=1,
        )
        schema = RelationSchema.integer_domains({"A": wide, "B": wide, "C": 3, "D": 4})
        relation = Relation.from_codes(schema, codes)
        tree = jointree_from_schema([{"A", "B", "C"}, {"A", "B", "D"}])
        separator = relation.schema.indices(("A", "B"))
        assert relation.columns().dense_radix(separator) is None
        assert_one_join_path(relation, tree, {"A", "B", "C"}, {"A", "B", "D"})

    @pytest.mark.parametrize("bound", ["_FLOAT64_EXACT_BOUND", "_INT64_SAFE_BOUND"])
    def test_wide_weight_tiers(self, monkeypatch, bound):
        """``np.add.at`` messages, then the Python-bignum DP, agree too."""
        monkeypatch.setattr(join, bound, 1)
        rng = np.random.default_rng(4)
        relation = random_relation({name: 5 for name in "ABCDE"}, 80, rng)
        schema = [{"A", "B"}, {"B", "C", "D"}, {"D", "E"}]
        tree = jointree_from_schema(schema)
        assert_one_join_path(relation, tree, schema[0], schema[1])
        assert_one_join_path(relation, tree, {"A", "B"}, {"C", "D"})

    def test_forced_recompression(self, monkeypatch):
        monkeypatch.setattr(columns, "_MAX_PACK", 10_000)
        rng = np.random.default_rng(23)
        relation = random_relation({name: 30 for name in "ABCDEF"}, 200, rng)
        for schema in (
            [{"A", "B", "C", "D"}, {"B", "C", "D", "E"}, {"C", "D", "E", "F"}],
            [{"A", "B", "C"}, {"A", "B", "D", "E"}, {"A", "B", "F"}],
        ):
            tree = jointree_from_schema(schema)
            assert_one_join_path(relation, tree, schema[0], schema[1])
