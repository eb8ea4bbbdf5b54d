"""Anytime discovery: best-so-far refinement under a wall-clock deadline.

Round 0 runs the deterministic recursive search (deadline-aware: expiry
stops further splitting but keeps what was found).  Subsequent rounds
re-run the top-down search with *randomized* split selection — at each
node one of the top few within-threshold splits is chosen by the
context's RNG instead of the strict best — exploring decompositions the
greedy tie-breaking would never reach.  The best schema seen so far
(most bags, then lowest J) is returned whenever the deadline expires.

Without a deadline the strategy runs a fixed small number of randomized
rounds, so results stay deterministic for a given context seed.
"""

from __future__ import annotations

from repro.core.jmeasure import j_measure
from repro.discovery.context import SearchContext
from repro.discovery.scoring import MVDSplit, ScoredBatch
from repro.discovery.strategies import register_strategy
from repro.discovery.strategies.base import (
    DiscoveryStrategy,
    SearchOutcome,
    maximal_bags,
    topdown_decompose,
)
from repro.jointrees.build import jointree_from_schema


@register_strategy
class AnytimeStrategy(DiscoveryStrategy):
    """Deadline-bounded randomized restarts around the recursive search."""

    name = "anytime"

    #: Randomized rounds when no deadline is given (deterministic mode).
    default_rounds = 2
    #: Hard cap on rounds under a deadline (prevents unbounded spinning
    #: on tiny inputs with generous deadlines).
    max_rounds = 64
    #: A randomized node picks uniformly among this many top splits.
    top_k = 3

    def search(self, context: SearchContext) -> SearchOutcome:
        from repro.discovery.strategies.recursive import RecursiveStrategy

        best = RecursiveStrategy().search(context)
        best_score = self._score(context, best)

        rounds = (
            self.max_rounds if context.deadline is not None else self.default_rounds
        )
        for _ in range(rounds):
            if context.expired():
                break
            candidate = self._randomized_round(context)
            score = self._score(context, candidate)
            if score < best_score:
                best, best_score = candidate, score
        return best

    # ------------------------------------------------------------------
    def _score(
        self, context: SearchContext, outcome: SearchOutcome
    ) -> tuple[int, float]:
        """Objective: most bags first, then lowest J (minimized)."""
        schema = maximal_bags(list(outcome.bags))
        tree = jointree_from_schema(schema)
        return (-len(schema), j_measure(context.relation, tree, engine=context.engine))

    def _randomized_round(self, context: SearchContext) -> SearchOutcome:
        def pick(scored: ScoredBatch) -> MVDSplit | None:
            admissible = scored.admissible(context.threshold)
            if not len(admissible):
                return None
            index = int(
                context.rng.integers(0, min(self.top_k, len(admissible)))
            )
            return scored.split(admissible[index])

        return topdown_decompose(context, pick)
