"""Search context: everything one discovery run needs, in one bundle.

A :class:`SearchContext` carries the pieces every discovery strategy
consumes — the relation, its memoizing :class:`~repro.info.engine.EntropyEngine`,
the split-scoring backend, the acceptance threshold and search caps, an
optional wall-clock deadline, and a seeded RNG for randomized strategies.
Strategies (:mod:`repro.discovery.strategies`) receive a context and
return bags; they never construct engines, scorers, or clocks themselves,
so a new strategy is a one-file plug-in.

The context is deliberately dumb: it owns no search logic.  Its only
behaviours are deadline accounting (:meth:`SearchContext.expired`,
:meth:`SearchContext.remaining`) and construction defaults
(:meth:`SearchContext.create`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.discovery.scoring import SerialSplitScorer
from repro.errors import DiscoveryError
from repro.info.engine import EntropyEngine
from repro.relations.relation import Relation


@dataclass
class SearchContext:
    """Shared state for one schema-discovery run.

    Attributes
    ----------
    relation:
        The training relation being decomposed.
    engine:
        The memoizing entropy engine all scoring routes through (one
        cache per run).
    scorer:
        The split scorer (:mod:`repro.discovery.scoring`).
    threshold:
        Maximum CMI (nats) an accepted split may incur.
    max_separator_size:
        Cap on ``|X|`` in candidate MVDs ``X ↠ Y|Z``.
    exact_partition_limit:
        Remainder size up to which bipartitions are searched exhaustively.
    deadline:
        Absolute ``time.monotonic()`` timestamp after which anytime-aware
        strategies stop refining, or ``None`` for no time limit.
    rng:
        Seeded generator for randomized strategies (``anytime`` restarts).
    """

    relation: Relation
    engine: EntropyEngine
    scorer: SerialSplitScorer
    threshold: float = 1e-9
    max_separator_size: int = 2
    exact_partition_limit: int = 10
    deadline: float | None = None
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )

    @classmethod
    def create(
        cls,
        relation: Relation,
        *,
        threshold: float = 1e-9,
        max_separator_size: int = 2,
        exact_partition_limit: int = 10,
        scorer: SerialSplitScorer | None = None,
        deadline_seconds: float | None = None,
        deadline_at: float | None = None,
        seed: int = 0,
        backend: "object | None" = None,
    ) -> "SearchContext":
        """Build a context with library defaults.

        ``scorer`` defaults to a fresh :class:`SerialSplitScorer`.
        ``deadline_seconds`` is relative (converted to an absolute
        ``time.monotonic()`` deadline at creation); ``deadline_at`` is an
        absolute ``time.monotonic()`` timestamp, which long-lived callers
        (the service's job workers map each job's wall-clock budget onto
        the search this way) can pass without re-relativizing.  When both
        are given the earlier one wins.  ``backend`` selects the entropy
        backend the run's engine scores with — an
        :class:`~repro.info.backends.EntropyBackend` instance or a name
        (``"exact"``/``"sketch"``); ``None`` keeps the relation's cached
        engine whatever backend it has.
        """
        if relation.is_empty():
            raise DiscoveryError("cannot mine a schema from an empty relation")
        # Written as negated comparisons so that NaN is rejected too.
        if not threshold >= 0:
            raise DiscoveryError(
                f"threshold must be non-negative, got {threshold}"
            )
        if deadline_seconds is not None and not deadline_seconds > 0:
            raise DiscoveryError(
                f"deadline must be positive, got {deadline_seconds}"
            )
        deadlines = [
            time.monotonic() + deadline_seconds
            if deadline_seconds is not None
            else None,
            deadline_at,
        ]
        effective = [d for d in deadlines if d is not None]
        return cls(
            relation=relation,
            engine=EntropyEngine.for_relation(relation, backend=backend),
            scorer=scorer if scorer is not None else SerialSplitScorer(),
            threshold=threshold,
            max_separator_size=max_separator_size,
            exact_partition_limit=exact_partition_limit,
            deadline=min(effective) if effective else None,
            rng=np.random.default_rng(seed),
        )

    def expired(self) -> bool:
        """Whether the wall-clock deadline has passed (``False`` if none)."""
        return self.deadline is not None and time.monotonic() >= self.deadline

    def remaining(self) -> float:
        """Seconds until the deadline (``inf`` when no deadline is set)."""
        if self.deadline is None:
            return float("inf")
        return max(self.deadline - time.monotonic(), 0.0)
