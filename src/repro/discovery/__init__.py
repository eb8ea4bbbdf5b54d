"""Approximate acyclic-schema discovery (motivating application).

Layered since the engine refactor:

* :mod:`repro.discovery.context` — :class:`SearchContext` bundles one
  run's relation, entropy engine, scorer, budgets, deadline, and RNG;
* :mod:`repro.discovery.scoring` — batched split scoring through the
  run's entropy memo;
* :mod:`repro.discovery.strategies` — the pluggable search-mode registry
  (``recursive``, ``beam``, ``greedy-agglomerative``, ``anytime``);
* :mod:`repro.discovery.miner` — the ``mine_jointree`` front door.

See ``docs/architecture.md`` for the full map and how to register a new
strategy.
"""

from repro.discovery.budget import BudgetFit, fit_schema_with_budget
from repro.discovery.candidates import (
    binary_partitions,
    candidate_separators,
    greedy_partition,
)
from repro.discovery.context import SearchContext
from repro.discovery.exhaustive import (
    MAX_EXHAUSTIVE_ATTRIBUTES,
    hierarchical_schemas,
    mine_exhaustive,
)
from repro.discovery.frontier import (
    FrontierPoint,
    format_frontier,
    pareto_front,
    schema_frontier,
)
from repro.discovery.miner import MVDSplit, MinedSchema, best_split, mine_jointree
from repro.discovery.scoring import SerialSplitScorer
from repro.discovery.strategies import (
    DiscoveryStrategy,
    available_strategies,
    get_strategy,
    register_strategy,
)

__all__ = [
    "MAX_EXHAUSTIVE_ATTRIBUTES",
    "BudgetFit",
    "DiscoveryStrategy",
    "FrontierPoint",
    "MVDSplit",
    "MinedSchema",
    "SearchContext",
    "SerialSplitScorer",
    "available_strategies",
    "best_split",
    "binary_partitions",
    "candidate_separators",
    "fit_schema_with_budget",
    "format_frontier",
    "get_strategy",
    "greedy_partition",
    "hierarchical_schemas",
    "mine_exhaustive",
    "mine_jointree",
    "pareto_front",
    "register_strategy",
    "schema_frontier",
]
