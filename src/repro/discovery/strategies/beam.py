"""Beam search over partial schemas: a width-k frontier of split plans.

The recursive strategy commits to the single best split at every node;
when several splits are nearly tied, a greedy mistake at the root can
lock the search out of finer decompositions.  Beam search keeps the
``width`` best partial schemas alive instead: each step expands one open
attribute set of each frontier state into (a) the "close as one bag"
child and (b) a child per top-ranked within-threshold split, then prunes
the frontier back to ``width`` states by accumulated CMI.

All candidate scoring is batched through the context's scorer and its
shared entropy memo, exactly like the other strategies.  Acyclicity is
enforced on the *whole* partial schema at every accepted split (stronger
than the recursive strategy's subtree-local check), so every completed
state is a valid acyclic schema.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.discovery.context import SearchContext
from repro.discovery.scoring import MVDSplit
from repro.discovery.strategies import register_strategy
from repro.discovery.strategies.base import (
    Bag,
    DiscoveryStrategy,
    SearchOutcome,
    enumerate_split_candidates,
)
from repro.jointrees.gyo import is_acyclic


@dataclass(frozen=True)
class _State:
    """A partial schema: sets still to examine, bags already fixed."""

    open: tuple[Bag, ...]
    closed: tuple[Bag, ...]
    splits: tuple[MVDSplit, ...]
    cost: float  # accumulated CMI of accepted splits

    def bags(self) -> tuple[Bag, ...]:
        return self.closed + self.open

    def order_key(self) -> tuple:
        """Deterministic frontier/pruning order: cheap and fine first."""
        return (
            self.cost,
            -len(self.bags()),
            sorted(sorted(bag) for bag in self.bags()),
        )


@register_strategy
class BeamStrategy(DiscoveryStrategy):
    """Width-``k`` frontier over partial schemas (``k`` = ``width``)."""

    name = "beam"

    def __init__(self, width: int = 4, branch_factor: int | None = None) -> None:
        if width < 1:
            raise ValueError(f"beam width must be >= 1, got {width}")
        self.width = width
        self.branch_factor = branch_factor if branch_factor is not None else width

    def search(self, context: SearchContext) -> SearchOutcome:
        root = context.relation.schema.name_set
        if len(root) > 2:
            frontier = [_State((root,), (), (), 0.0)]
            completed: list[_State] = []
        else:
            frontier = []
            completed = [_State((), (root,), (), 0.0)]

        # Sibling frontier states frequently share the same open set
        # (children of one parent inherit `rest` verbatim); memoize the
        # top-ranked admissible splits per attribute set for this search.
        admissible_cache: dict[Bag, list[MVDSplit]] = {}

        def admissible_splits(attrs: Bag) -> list[MVDSplit]:
            cached = admissible_cache.get(attrs)
            if cached is None:
                scored = context.scorer.score_batch(
                    context.relation,
                    enumerate_split_candidates(context, attrs),
                    engine=context.engine,
                )
                admissible = scored.admissible(context.threshold)
                cached = [
                    scored.split(index)
                    for index in admissible[: self.branch_factor]
                ]
                admissible_cache[attrs] = cached
            return cached

        while frontier:
            children: list[_State] = []
            for state in frontier:
                attrs, rest = state.open[0], state.open[1:]
                # Child 1: keep `attrs` as one bag.
                children.append(
                    _State(rest, state.closed + (attrs,), state.splits, state.cost)
                )
                if context.expired():
                    continue
                for split in admissible_splits(attrs):
                    sides = (
                        split.separator | split.left,
                        split.separator | split.right,
                    )
                    new_open = rest + tuple(s for s in sides if len(s) > 2)
                    new_closed = state.closed + tuple(
                        s for s in sides if len(s) <= 2
                    )
                    if not is_acyclic(new_closed + new_open):
                        continue
                    children.append(
                        _State(
                            new_open,
                            new_closed,
                            state.splits + (split,),
                            state.cost + split.cmi,
                        )
                    )
            children.sort(key=_State.order_key)
            frontier = []
            for child in children[: self.width]:
                (completed if not child.open else frontier).append(child)

        best = min(
            completed,
            key=lambda s: (-len(s.bags()), s.cost, s.order_key()),
        )
        return SearchOutcome(best.bags(), best.splits)
