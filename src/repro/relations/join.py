"""Natural joins and acyclic join-size counting.

Two families of operations:

* **Materializing joins** — :func:`natural_join` (pairwise hash join) and
  :func:`natural_join_all` (multiway fold with a connectivity-aware order).
  These produce :class:`~repro.relations.relation.Relation` objects and are
  fine for small instances and tests.

* **Counting joins** — :func:`join_size` (pairwise, no materialization) and
  :func:`acyclic_join_size` (message passing over a join tree).  The
  spurious-tuple counts studied by the paper grow like the product of
  domain sizes (``|R'| = N·(1+ρ)`` can be orders of magnitude larger than
  ``N``), so the loss computations never materialize ``R'``.

The message-passing counter exploits the key structural fact that all
projections come from the *same* instance ``R``: every separator value seen
at a join-tree node also appears in its neighbor's projection, so no
semijoin filtering is needed and a single bottom-up sweep of weighted counts
yields ``|⋈ᵢ R[Ωᵢ]|`` exactly (Yannakakis-style count aggregation).  Each
node's table lives on its bag's cached
:class:`~repro.relations.columns.CellRecord` (one entry per distinct bag
tuple), and separator values are packed from the codes of the cells'
representative rows, so a call touches ``O(Σ groups)`` entries, not ``N``
rows.  A Python-bignum dict DP takes over when an ``int64`` weight could
overflow.
"""

from __future__ import annotations

import operator
from collections import Counter, defaultdict
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import JoinTreeError, SchemaError
from repro.relations.relation import Relation
from repro.relations.schema import RelationSchema, Row

#: Cartesian-bound ceiling under which the vectorized int64 message
#: passing is provably overflow-free (every intermediate weight is at most
#: the product of all bag projection sizes).
_INT64_SAFE_BOUND = 1 << 62

#: Below this bound float64 accumulation (``numpy.bincount``) is exact, so
#: the faster bincount path replaces ``numpy.add.at``.
_FLOAT64_EXACT_BOUND = 1 << 53


def _common_attributes(left: Relation, right: Relation) -> tuple[str, ...]:
    """Shared attribute names, ordered by the left schema."""
    right_names = set(right.schema.names)
    return tuple(n for n in left.schema.names if n in right_names)


def natural_join(left: Relation, right: Relation) -> Relation:
    """Natural join ``left ⋈ right`` via a hash join on shared attributes.

    The output schema is the left schema followed by the right-only
    attributes (in right-schema order).  If the relations share no
    attributes this is the Cartesian product.
    """
    shared = _common_attributes(left, right)
    right_only = tuple(n for n in right.schema.names if n not in set(shared))

    left_idx = left.schema.indices(shared) if shared else ()
    right_shared_idx = right.schema.indices(shared) if shared else ()
    right_only_idx = right.schema.indices(right_only) if right_only else ()

    # Bucket the smaller side; iterate the larger.
    swap = len(left) > len(right)
    build, probe = (right, left) if swap else (left, right)
    build_key_idx = right_shared_idx if swap else left_idx
    probe_key_idx = left_idx if swap else right_shared_idx

    buckets: dict[Row, list[Row]] = defaultdict(list)
    for row in build:
        buckets[tuple(row[i] for i in build_key_idx)].append(row)

    out_rows: list[Row] = []
    for probe_row in probe:
        key = tuple(probe_row[i] for i in probe_key_idx)
        matches = buckets.get(key)
        if not matches:
            continue
        for build_row in matches:
            lrow, rrow = (probe_row, build_row) if swap else (build_row, probe_row)
            out_rows.append(lrow + tuple(rrow[i] for i in right_only_idx))

    out_schema_attrs = list(left.schema.attributes) + [
        right.schema.attribute(n) for n in right_only
    ]
    return Relation(RelationSchema(out_schema_attrs), out_rows, validate=False)


def natural_join_all(relations: Sequence[Relation]) -> Relation:
    """Multiway natural join ``⋈ᵢ Rᵢ``.

    Relations are folded in a connectivity-aware order: at each step the
    next operand is one sharing attributes with the accumulated result (if
    any exists), postponing Cartesian products as long as possible.
    """
    if not relations:
        raise SchemaError("natural_join_all needs at least one relation")
    remaining = list(relations)
    result = remaining.pop(0)
    while remaining:
        covered = set(result.schema.names)
        pick = next(
            (i for i, rel in enumerate(remaining)
             if covered & set(rel.schema.names)),
            0,
        )
        result = natural_join(result, remaining.pop(pick))
    return result


def join_size(left: Relation, right: Relation) -> int:
    """``|left ⋈ right|`` without materializing the join.

    Counts distinct result tuples: for each shared-attribute value ``v``,
    the join contributes ``|σ_v(left)| · |σ_v(right)|`` tuples (all
    distinct because the inputs are sets and the output concatenates
    disjoint columns around the shared key).
    """
    shared = _common_attributes(left, right)
    if not shared:
        return len(left) * len(right)
    left_counts = left.projection_counts(shared)
    right_counts = right.projection_counts(shared)
    # projection_counts is keyed by left/right canonical order, which can
    # differ; re-key on a shared canonical order (sorted names).
    order = tuple(sorted(shared))
    left_counts = _rekey(left_counts, left.schema.canonical_order(shared), order)
    right_counts = _rekey(right_counts, right.schema.canonical_order(shared), order)
    if len(left_counts) > len(right_counts):
        left_counts, right_counts = right_counts, left_counts
    return sum(
        count * right_counts[key]
        for key, count in left_counts.items()
        if key in right_counts
    )


def split_join_size(relation: Relation, left: Iterable[str], right: Iterable[str]) -> int:
    """``|R[left] ⋈ R[right]|`` when both projections come from ``relation``.

    The two-projection join sizes of Eq. 28 are the per-split loss
    workhorse: the join-tree message pass of :func:`acyclic_join_size` on
    the two bags, over their cached cells.  Nothing is materialized and no
    tuples are hashed.  With no shared attributes the join is the
    Cartesian product of the two projection sizes.
    """
    schema = relation.schema
    left_order = schema.canonical_order(left)
    right_order = schema.canonical_order(right)
    if relation.is_empty():
        return 0
    shared = schema.canonical_order(set(left_order) & set(right_order))
    size = _cell_join_size(
        relation.columns(),
        {0: schema.indices(left_order), 1: schema.indices(right_order)},
        [(0, 1, schema.indices(shared))],
    )
    if size is not None:
        return size
    from repro.jointrees.jointree import JoinTree

    tree = JoinTree({0: left_order, 1: right_order}, [(0, 1)], validate=False)
    return _acyclic_join_size_python(relation, tree, (0, 1), {0: 1})


def _rekey(counts: Counter[Row], have: tuple[str, ...], want: tuple[str, ...]) -> Counter[Row]:
    """Re-order composite keys from attribute order ``have`` to ``want``."""
    if have == want:
        return counts
    positions = tuple(have.index(name) for name in want)
    getter = operator.itemgetter(*positions)
    if len(positions) == 1:
        return Counter({(key[positions[0]],): c for key, c in counts.items()})
    return Counter({tuple(getter(key)): c for key, c in counts.items()})


def acyclic_join_size(relation: Relation, jointree) -> int:
    """``|⋈ᵢ R[Ωᵢ]|`` for the bags ``Ωᵢ`` of ``jointree``, via counting.

    Runs one bottom-up message pass over the join tree.  Each node holds a
    table ``bag-tuple → weight`` (initially 1 for each distinct projected
    tuple).  A child sends its parent the sum of weights per separator
    value; the parent multiplies each of its tuples' weights by the
    matching message entry.  The root's total weight is the join size.

    Correct for any join tree whose bags are subsets of the relation's
    attributes (running intersection guarantees the DP decomposes the
    count).  Never materializes the join, so it is safe even when the join
    result would have billions of tuples.

    Parameters
    ----------
    relation:
        The universal relation instance ``R``.
    jointree:
        A :class:`repro.jointrees.jointree.JoinTree` over (a subset of)
        the relation's attributes.
    """
    bags = jointree.bags()
    missing = set().union(*bags) - set(relation.schema.names)
    if missing:
        raise JoinTreeError(
            f"join tree mentions attributes not in the relation: {sorted(missing)}"
        )
    if relation.is_empty():
        return 0

    order = jointree.topological_order()  # leaves-first, root last
    parent_of = jointree.parents()
    bags = {node: _bag_positions(relation, jointree.bag(node)) for node in order}
    edges = []
    for node in order[:-1]:  # every non-root node sends a message up
        parent = parent_of[node]
        separator = jointree.bag(node) & jointree.bag(parent)
        edges.append((node, parent, _bag_positions(relation, separator)))
    size = _cell_join_size(relation.columns(), bags, edges)
    if size is not None:
        return size
    return _acyclic_join_size_python(relation, jointree, order, parent_of)


def _bag_positions(relation: Relation, bag) -> tuple[int, ...]:
    schema = relation.schema
    return schema.indices(schema.canonical_order(bag))


def _cell_join_size(store, bags, edges) -> int | None:
    """Vectorized message passing over the bags' cached cells.

    ``bags`` maps each node to its bag's code positions; ``edges`` lists
    ``(child, parent, separator positions)`` leaves-first, so the one node
    never named as a child is the root.  Each node's table is an ``int64``
    weight per bag cell.  A separator's id for a cell is its packed key at
    the cell's representative row — used directly as a
    :func:`numpy.bincount` index when the separator's radix is dense,
    numbered by :func:`numpy.unique` otherwise.  Returns ``None`` when the
    Cartesian bound ``∏|R[Ωᵢ]|`` could overflow int64 (the exact dict DP
    then takes over).
    """
    cells = {node: store.cells(positions) for node, positions in bags.items()}
    bound = 1
    for record in cells.values():
        bound *= len(record.counts)
    if bound >= _INT64_SAFE_BOUND:
        return None
    use_bincount = bound < _FLOAT64_EXACT_BOUND

    weights = {
        node: np.ones(len(record.counts), dtype=np.int64)
        for node, record in cells.items()
    }
    for child, parent, separator in edges:
        child_weights = weights.pop(child)
        if not separator:
            weights[parent] = weights[parent] * int(child_weights.sum())
            continue
        n_child = len(child_weights)
        rows = np.concatenate(
            (cells[child].first_index, cells[parent].first_index)
        )
        sep_ids = store.packed_key(separator, rows=rows)
        n_sep = store.dense_radix(separator)
        if n_sep is None:
            uniques, sep_ids = np.unique(sep_ids, return_inverse=True)
            n_sep = len(uniques)
        if use_bincount:
            message = np.bincount(
                sep_ids[:n_child], weights=child_weights, minlength=n_sep
            ).astype(np.int64)
        else:
            message = np.zeros(n_sep, dtype=np.int64)
            np.add.at(message, sep_ids[:n_child], child_weights)
        weights[parent] = weights[parent] * message[sep_ids[n_child:]]
    (root_weights,) = weights.values()
    return int(root_weights.sum())


def _acyclic_join_size_python(
    relation: Relation, jointree, order, parent_of
) -> int:
    """Reference dict-based DP (exact with Python bignums, any size)."""
    # weight tables: node -> {bag-tuple(canonical order) -> weight}
    tables: dict[int, dict[Row, int]] = {}
    bag_orders: dict[int, tuple[str, ...]] = {}
    for node in jointree.node_ids():
        bag = jointree.bag(node)
        bag_order = relation.schema.canonical_order(bag)
        bag_orders[node] = bag_order
        tables[node] = {
            row: 1 for row in relation.project(bag_order).rows()
        }

    for node in order[:-1]:  # every non-root node sends a message up
        parent = parent_of[node]
        separator = jointree.bag(node) & jointree.bag(parent)
        message: dict[Row, int] = defaultdict(int)
        sep_order = relation.schema.canonical_order(separator) if separator else ()
        child_positions = tuple(bag_orders[node].index(a) for a in sep_order)
        for row, weight in tables[node].items():
            key = tuple(row[i] for i in child_positions)
            message[key] += weight

        parent_positions = tuple(bag_orders[parent].index(a) for a in sep_order)
        parent_table = tables[parent]
        for row in list(parent_table):
            key = tuple(row[i] for i in parent_positions)
            hit = message.get(key)
            if hit is None:
                # Cannot happen when all bags project the same R, but keep
                # the DP correct for arbitrary inputs.
                del parent_table[row]
            else:
                parent_table[row] *= hit
        del tables[node]

    root = order[-1]
    return sum(tables[root].values())


def materialized_acyclic_join(relation: Relation, jointree) -> Relation:
    """Materialize ``⋈ᵢ R[Ωᵢ]`` for the bags of ``jointree``.

    For tests and small instances only; prefer :func:`acyclic_join_size`
    for counting.  Joins projections in a join-tree traversal order so
    intermediate results stay calibrated (no Cartesian blowup beyond the
    final result size).
    """
    order = jointree.topological_order()
    projections = [
        relation.project(relation.schema.canonical_order(jointree.bag(node)))
        for node in reversed(order)  # root first: keeps joins connected
    ]
    return natural_join_all(projections)


def cartesian_size(relation: Relation, attribute_sets: Iterable[frozenset[str]]) -> int:
    """Upper bound ``∏ᵢ |R[Ωᵢ]|`` on any join of the given projections."""
    total = 1
    for attrs in attribute_sets:
        total *= relation.projection_size(attrs)
    return total
