"""Unit tests for repro.jointrees.enumerate (all join trees of a schema)."""

import pytest

from repro.core.jmeasure import j_measure
from repro.core.random_relations import random_relation
from repro.errors import CyclicSchemaError, JoinTreeError
from repro.jointrees.enumerate import all_jointrees, count_jointrees


class TestEnumeration:
    def test_single_bag(self):
        trees = list(all_jointrees([{"A", "B"}]))
        assert len(trees) == 1
        assert trees[0].num_nodes == 1

    def test_two_bags_unique_tree(self):
        assert count_jointrees([{"A", "B"}, {"B", "C"}]) == 1

    def test_mvd_star_all_trees_valid(self):
        # Schema {XU, XV, XW}: every tree on 3 nodes is a join tree
        # (every pairwise intersection is {X}); 3 labeled trees exist.
        assert count_jointrees([{"X", "U"}, {"X", "V"}, {"X", "W"}]) == 3

    def test_chain_unique_tree(self):
        # {AB, BC, CD}: only the path AB−BC−CD satisfies running
        # intersection.
        assert count_jointrees([{"A", "B"}, {"B", "C"}, {"C", "D"}]) == 1

    def test_cyclic_schema_raises(self):
        with pytest.raises(CyclicSchemaError):
            list(all_jointrees([{"A", "B"}, {"B", "C"}, {"A", "C"}]))

    def test_empty_schema_rejected(self):
        with pytest.raises(JoinTreeError):
            list(all_jointrees([]))

    def test_disconnected_attributes(self):
        # {A}, {B}: the single possible tree has an empty separator.
        trees = list(all_jointrees([{"A"}, {"B"}]))
        assert len(trees) == 1
        assert trees[0].separators() == (frozenset(),)

    def test_all_trees_have_schema_bags(self):
        schema = [{"X", "U"}, {"X", "V"}, {"X", "W"}]
        for tree in all_jointrees(schema):
            assert set(tree.bags()) == {frozenset(b) for b in schema}


class TestJInvariance:
    """Section 2.2: J depends only on the schema, not the tree."""

    def test_j_identical_across_all_trees(self, rng):
        schema = [{"X", "U"}, {"X", "V"}, {"X", "W"}]
        r = random_relation({"X": 3, "U": 4, "V": 4, "W": 4}, 40, rng)
        values = [j_measure(r, tree) for tree in all_jointrees(schema)]
        assert len(values) == 3
        assert max(values) - min(values) < 1e-12

    def test_j_invariance_bigger_star(self, rng):
        schema = [{"X", "A"}, {"X", "B"}, {"X", "C"}, {"X", "D"}]
        r = random_relation(
            {"X": 2, "A": 3, "B": 3, "C": 3, "D": 3}, 40, rng
        )
        values = [j_measure(r, tree) for tree in all_jointrees(schema)]
        # Cayley: 4^2 = 16 labeled trees on 4 nodes, all valid here.
        assert len(values) == 16
        assert max(values) - min(values) < 1e-12

    def test_loss_identical_across_all_trees(self, rng):
        from repro.core.loss import spurious_loss

        schema = [{"X", "U"}, {"X", "V"}, {"X", "W"}]
        r = random_relation({"X": 3, "U": 4, "V": 4, "W": 4}, 30, rng)
        losses = {
            spurious_loss(r, tree) for tree in all_jointrees(schema)
        }
        assert len(losses) == 1


SCHEMAS = [
    [{"A", "B"}],
    [{"A"}, {"B"}, {"C"}],
    [{"A", "B"}, {"B", "C"}, {"C", "D"}, {"D", "E"}],
    [{"X", "A"}, {"X", "B"}, {"X", "Y", "C"}, {"X", "Y", "D"}],
    [{"A", "B", "C"}, {"B", "C", "D"}, {"C", "E"}, {"B", "F"}, {"G"}],
]


class TestEnumerationProperties:
    @pytest.mark.parametrize("schema", SCHEMAS)
    def test_no_duplicate_trees(self, schema):
        trees = list(all_jointrees(schema))
        assert len(set(trees)) == len(trees)

    @pytest.mark.parametrize("schema", SCHEMAS)
    def test_every_tree_has_running_intersection(self, schema):
        # In a tree, the nodes holding an attribute induce a connected
        # subtree iff exactly |nodes| - 1 edges join two of them.
        for tree in all_jointrees(schema):
            assert len(tree.edges()) == tree.num_nodes - 1
            for attr in set().union(*schema):
                holders = {n for n in tree.node_ids() if attr in tree.bag(n)}
                inside = [
                    e for e in tree.edges() if holders.issuperset(e)
                ]
                assert len(inside) == len(holders) - 1

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_mvd_star_yields_cayley_count(self, m):
        # X ↠ Y₁|…|Y_m: every labeled tree on m nodes is a join tree.
        schema = [{"X", f"Y{i}"} for i in range(m)]
        assert count_jointrees(schema) == m ** (m - 2)
