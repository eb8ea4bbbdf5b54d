"""Schema fitting under a spurious-tuple budget.

The paper's stated practical consequence (§1): *"Understanding how the
J-measure relates to the loss in terms of spurious tuples will enable
finding acyclic schemas that generate a bounded number of spurious
tuples."*  This module implements exactly that workflow:

Given a loss budget ``ρ_max``, Lemma 4.1 says any schema with
``J > log(1 + ρ_max)`` *cannot* meet the budget — the J-measure (cheap:
entropies only) prunes candidates before any join size is counted.  The
fitter then verifies the realized ``ρ`` of the survivors and returns the
best-compressing schema within budget.

Two search modes:

* exhaustive (``≤ MAX_EXHAUSTIVE_ATTRIBUTES`` attributes) — globally
  optimal over hierarchical schemas;
* greedy — delegates to :func:`repro.discovery.miner.mine_jointree` with
  the J threshold implied by the budget, then verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.jmeasure import j_measure
from repro.core.loss import spurious_loss
from repro.discovery.exhaustive import (
    MAX_EXHAUSTIVE_ATTRIBUTES,
    hierarchical_schemas,
)
from repro.discovery.miner import mine_jointree
from repro.errors import DiscoveryError
from repro.jointrees.build import jointree_from_schema
from repro.jointrees.jointree import JoinTree
from repro.jointrees.metrics import compression_ratio
from repro.relations.relation import Relation


@dataclass(frozen=True)
class BudgetFit:
    """Result of :func:`fit_schema_with_budget`.

    Attributes
    ----------
    jointree:
        The chosen schema's join tree.
    bags:
        Its maximal bags.
    j_value:
        J-measure on the training relation (nats).
    rho:
        Realized spurious-tuple loss (``≤ budget``).
    compression:
        Factorized storage cells / original cells.
    pruned_by_j:
        Number of candidates eliminated by the Lemma 4.1 pre-filter
        alone (exhaustive mode; 0 in greedy mode).
    verified:
        Candidates whose realized ρ had to be counted.
    """

    jointree: JoinTree
    bags: frozenset[frozenset[str]]
    j_value: float
    rho: float
    compression: float
    pruned_by_j: int
    verified: int


def fit_schema_with_budget(
    relation: Relation,
    rho_budget: float,
    *,
    max_separator_size: int = 2,
    mode: str = "auto",
    strategy: str = "recursive",
    deadline: float | None = None,
) -> BudgetFit:
    """Find the best-compressing acyclic schema with ``ρ ≤ rho_budget``.

    Parameters
    ----------
    relation:
        Training data.
    rho_budget:
        Maximum tolerated relative number of spurious tuples (≥ 0).
    max_separator_size:
        Cap on separator size in candidate splits.
    mode:
        ``"exhaustive"``, ``"greedy"``, or ``"auto"`` (exhaustive when
        the attribute count permits).
    strategy, deadline:
        Forwarded to :func:`repro.discovery.miner.mine_jointree` in
        greedy mode: any registered discovery strategy can drive the
        budget fit, with an optional wall-clock budget (ignored in
        exhaustive mode).

    Notes
    -----
    The trivial one-bag schema always meets any budget (ρ = 0), so the
    fitter always succeeds; "failure" manifests as no decomposition.
    """
    if relation.is_empty():
        raise DiscoveryError("cannot fit a schema to an empty relation")
    if rho_budget < 0:
        raise DiscoveryError(f"loss budget must be non-negative, got {rho_budget}")
    if mode not in {"auto", "exhaustive", "greedy"}:
        raise DiscoveryError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = (
            "exhaustive"
            if relation.schema.arity <= MAX_EXHAUSTIVE_ATTRIBUTES
            else "greedy"
        )
    # Tiny slack so floating-point noise in J never prunes a genuinely
    # lossless schema at budget 0.
    j_ceiling = math.log1p(rho_budget) + 1e-9

    if mode == "greedy":
        mined = mine_jointree(
            relation,
            threshold=j_ceiling,
            max_separator_size=max_separator_size,
            strategy=strategy,
            deadline=deadline,
        )
        if mined.rho <= rho_budget:
            tree = mined.jointree
        else:
            tree = jointree_from_schema([relation.schema.name_set])
        return BudgetFit(
            jointree=tree,
            bags=frozenset(tree.schema()),
            j_value=j_measure(relation, tree),
            rho=spurious_loss(relation, tree),
            compression=compression_ratio(relation, tree),
            pruned_by_j=0,
            verified=1,
        )

    best: BudgetFit | None = None
    pruned = 0
    verified = 0
    for schema in hierarchical_schemas(
        relation.schema.name_set, max_separator_size=max_separator_size
    ):
        tree = jointree_from_schema(schema)
        j_value = j_measure(relation, tree)
        if j_value > j_ceiling:
            pruned += 1  # Lemma 4.1: rho >= e^J − 1 > budget, no join needed
            continue
        verified += 1
        rho = spurious_loss(relation, tree)
        if rho > rho_budget:
            continue
        compression = compression_ratio(relation, tree)
        candidate = BudgetFit(
            jointree=tree,
            bags=schema,
            j_value=j_value,
            rho=rho,
            compression=compression,
            pruned_by_j=0,
            verified=0,
        )
        if best is None or _prefer(candidate, best):
            best = candidate
    if best is None:
        # Unreachable: the trivial schema has J = rho = 0.
        raise DiscoveryError("no schema met the budget (internal error)")
    return BudgetFit(
        jointree=best.jointree,
        bags=best.bags,
        j_value=best.j_value,
        rho=best.rho,
        compression=best.compression,
        pruned_by_j=pruned,
        verified=verified,
    )


def _prefer(candidate: BudgetFit, incumbent: BudgetFit) -> bool:
    """Order: compression first, then fewer spurious tuples, then J."""
    return (candidate.compression, candidate.rho, candidate.j_value) < (
        incumbent.compression,
        incumbent.rho,
        incumbent.j_value,
    )
