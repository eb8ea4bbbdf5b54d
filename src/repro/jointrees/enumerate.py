"""Enumerate every join tree of an acyclic schema.

An acyclic schema generally admits many join trees (e.g. the schema of an
MVD ``X ↠ Y₁|…|Y_m`` admits every tree on ``m`` nodes).  The classic
characterization: a tree over the bags is a join tree iff it is a
*maximum-weight* spanning tree of the bag intersection graph, with edge
weight ``|Ωᵢ ∩ Ω_j|``.  Since the schemas here are small, we simply
enumerate all spanning trees of the complete graph on the bags (every
``m − 1`` bag pairs that close no cycle) and keep those satisfying the
running intersection property.

The paper notes that ``J`` depends only on the schema, not the join tree
(Section 2.2); :func:`all_jointrees` lets tests verify that invariance
over the *entire* tree space rather than a few hand-picked shapes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import combinations

from repro.errors import CyclicSchemaError, JoinTreeError, RunningIntersectionError
from repro.jointrees.jointree import JoinTree


def _is_forest(m: int, edges: tuple[tuple[int, int], ...]) -> bool:
    """Whether ``edges`` close no cycle on nodes ``0..m−1`` (union-find)."""
    root = list(range(m))
    for u, v in edges:
        while root[u] != u:
            u = root[u]
        while root[v] != v:
            v = root[v]
        if u == v:
            return False
        root[u] = v
    return True


def all_jointrees(schema: Iterable[Iterable[str]]) -> Iterator[JoinTree]:
    """Yield every join tree whose bags are exactly the given schema.

    Raises :class:`CyclicSchemaError` if the schema admits none.
    Exponential in general (Cayley: up to ``m^{m−2}`` trees) — intended
    for small schemas such as the tests'.
    """
    bags = dict(enumerate(frozenset(b) for b in schema))
    if not bags:
        raise JoinTreeError("cannot enumerate join trees of an empty schema")
    found = False
    # m − 1 pairs that close no cycle span the m bags.  Zero-intersection
    # pairs count: disconnected-attribute schemas need them to form a tree.
    for edges in combinations(combinations(bags, 2), len(bags) - 1):
        if not _is_forest(len(bags), edges):
            continue
        try:
            candidate = JoinTree(bags, edges)
        except RunningIntersectionError:
            continue
        found = True
        yield candidate
    if not found:
        raise CyclicSchemaError("schema admits no join tree (cyclic hypergraph)")


def count_jointrees(schema: Iterable[Iterable[str]]) -> int:
    """Number of distinct join trees of the schema."""
    return sum(1 for _ in all_jointrees(schema))
