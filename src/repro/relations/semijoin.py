"""Semijoins and the Yannakakis full reducer for acyclic schemas.

Yannakakis' algorithm [26 in the paper] is the reason acyclic schemas
"enable efficient query evaluation": two semijoin sweeps over a join tree
remove every *dangling* tuple (one that joins with nothing), after which
the join can be computed with output-linear cost.

When all projections come from a single universal relation — the paper's
setting — the reducer is a no-op (the projections are already globally
consistent); tests verify both that fact and genuine reduction on
independently-built relations.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.errors import JoinTreeError
from repro.jointrees.jointree import JoinTree
from repro.relations.relation import Relation

#: Below this size a plain row scan beats building/consulting columns.
_SCAN_LIMIT = 64


def semijoin(left: Relation, right: Relation) -> Relation:
    """``left ⋉ right``: the tuples of ``left`` matching some tuple of ``right``.

    Matching is on the shared attributes; with no shared attributes the
    semijoin is ``left`` itself when ``right`` is non-empty, else empty.

    Large left sides run columnar: the left rows are grouped once by the
    shared attributes (a :class:`~repro.relations.columns.GroupIndex`
    with per-row group ids), membership is decided
    per *distinct* key group rather than per row, and the surviving rows
    come from one boolean mask over the group ids.
    """
    shared = [n for n in left.schema.names if n in set(right.schema.names)]
    if not shared:
        return left if not right.is_empty() else Relation.empty(left.schema)
    left_idx = left.schema.indices(shared)
    right_idx = right.schema.indices(shared)
    keys = {tuple(row[i] for i in right_idx) for row in right}
    if len(left) >= _SCAN_LIMIT:
        store = left.columns()
        group = store.groups(left_idx)
        row_list = store.row_list
        keep = np.fromiter(
            (
                tuple(row_list[i][p] for p in left_idx) in keys
                for i in group.first_index.tolist()
            ),
            dtype=bool,
            count=len(group.counts),
        )
        kept = [row_list[i] for i in np.flatnonzero(keep[group.gids]).tolist()]
        return Relation(left.schema, kept, validate=False)
    kept = [
        row for row in left if tuple(row[i] for i in left_idx) in keys
    ]
    return Relation(left.schema, kept, validate=False)


def full_reduce(
    relations: Mapping[int, Relation], jointree: JoinTree
) -> dict[int, Relation]:
    """Yannakakis' full reducer: remove all dangling tuples.

    Parameters
    ----------
    relations:
        One relation per join-tree node, keyed by node id; each
        relation's attribute set must equal the node's bag.
    jointree:
        The acyclic schema's join tree.

    Returns
    -------
    dict
        Reduced relations (same keys); after reduction, every tuple of
        every relation participates in at least one join result.

    The classic two sweeps: leaves-to-root semijoins, then root-to-leaves.
    """
    _validate_cover(relations, jointree)
    reduced = dict(relations)
    order = jointree.dfs_order()
    parent = jointree.parents()

    # Upward sweep: each node filters its parent.
    for node in reversed(order[1:]):
        p = parent[node]
        reduced[p] = semijoin(reduced[p], reduced[node])

    # Downward sweep: each parent filters its children.
    for node in order[1:]:
        p = parent[node]
        reduced[node] = semijoin(reduced[node], reduced[p])
    return reduced


def is_globally_consistent(
    relations: Mapping[int, Relation], jointree: JoinTree
) -> bool:
    """Whether the full reducer would change nothing (no dangling tuples)."""
    reduced = full_reduce(relations, jointree)
    return all(
        len(reduced[node]) == len(relations[node]) for node in relations
    )


def projections_for_tree(
    relation: Relation, jointree: JoinTree
) -> dict[int, Relation]:
    """The paper's decomposition: ``node ↦ R[χ(node)]``.

    These are always globally consistent (they come from one instance),
    so Yannakakis applies with zero reduction work.
    """
    return {
        node: relation.project(
            relation.schema.canonical_order(jointree.bag(node))
        )
        for node in jointree.node_ids()
    }


def dangling_counts(
    relations: Mapping[int, Relation], jointree: JoinTree
) -> dict[int, int]:
    """Per-node number of dangling tuples the reducer removes."""
    reduced = full_reduce(relations, jointree)
    return {
        node: len(relations[node]) - len(reduced[node]) for node in relations
    }


def _validate_cover(
    relations: Mapping[int, Relation], jointree: JoinTree
) -> None:
    node_ids: Sequence[int] = jointree.node_ids()
    if set(relations) != set(node_ids):
        raise JoinTreeError(
            f"relations keyed by {sorted(relations)} but the tree has "
            f"nodes {list(node_ids)}"
        )
    for node in node_ids:
        have = relations[node].schema.name_set
        want = jointree.bag(node)
        if have != want:
            raise JoinTreeError(
                f"node {node}: relation has attributes {sorted(have)} but "
                f"the bag is {sorted(want)}"
            )
