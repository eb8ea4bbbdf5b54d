"""Recursive top-down splitting — the classic miner, bit-for-bit.

This is the pre-refactor ``mine_jointree`` search: at each attribute set,
find the lowest-CMI split; if it is within threshold and the glued
sub-schemas stay acyclic, recurse into both sides, otherwise keep the
set as one bag.  Candidate enumeration order, tie-breaking, and the
acyclicity guard are identical to the original, so the default discovery
path is unchanged by the engine refactor (pinned by
``tests/test_strategies.py::TestRecursiveMatchesLegacy``).

Deadline awareness: when the context carries a deadline, expiry stops
further splitting (already-accepted splits are kept), which is what the
``anytime`` strategy builds on.  Without a deadline the guard is inert.
"""

from __future__ import annotations

from repro.discovery.context import SearchContext
from repro.discovery.scoring import MVDSplit, ScoredBatch
from repro.discovery.strategies import register_strategy
from repro.discovery.strategies.base import (
    DiscoveryStrategy,
    SearchOutcome,
    topdown_decompose,
)


def _strict_best(scored: ScoredBatch, threshold: float) -> MVDSplit | None:
    """The rank-order winner, or ``None`` when it exceeds the threshold.

    ``rank_key`` is a strict total order within one batch (two distinct
    candidates always differ in separator or left side), so the ranked
    head equals the legacy miner's fold-min over enumeration order.
    """
    best = scored.ranked()[0]
    return scored.split(best) if scored.cmi[best] <= threshold else None


@register_strategy
class RecursiveStrategy(DiscoveryStrategy):
    """Top-down recursive MVD splitting (the default strategy)."""

    name = "recursive"

    def search(self, context: SearchContext) -> SearchOutcome:
        return topdown_decompose(
            context, lambda scored: _strict_best(scored, context.threshold)
        )
