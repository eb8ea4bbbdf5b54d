"""Approximate acyclic-schema discovery (the spirit of Kenig et al. [14]).

Given a relation, find an acyclic schema with small J-measure.  Since the
engine refactor, this module is the thin *front door* of a layered
discovery engine:

* :class:`~repro.discovery.context.SearchContext` bundles the relation,
  its memoizing entropy engine, the split scorer, budget knobs, a
  wall-clock deadline, and an RNG;
* :mod:`repro.discovery.scoring` scores batches of candidate
  ``(separator, partition)`` splits through the run's entropy memo;
* :mod:`repro.discovery.strategies` holds the pluggable search modes:
  ``recursive`` (the default; bit-for-bit the classic top-down miner),
  ``beam``, ``greedy-agglomerative``, and ``anytime``.

:func:`mine_jointree` wires the three together and finalizes the result
(maximality, join-tree construction, J and ρ).  The default call —
``mine_jointree(relation)`` — produces exactly the schemas, J-values,
and split sequences of the pre-refactor miner.

The search space is the family of *hierarchical* join trees — the same
family mined in [14]; exhaustive enumeration of all join trees is
factorial and out of scope (see DESIGN.md §4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.jmeasure import j_measure
from repro.discovery.context import SearchContext
from repro.discovery.scoring import MVDSplit, SerialSplitScorer
from repro.discovery.strategies import get_strategy
from repro.discovery.strategies.base import best_split_in_context, maximal_bags
from repro.errors import DiscoveryError
from repro.info.engine import EntropyEngine
from repro.jointrees.build import jointree_from_schema
from repro.jointrees.jointree import JoinTree
from repro.relations.relation import Relation

__all__ = ["MVDSplit", "MinedSchema", "best_split", "mine_jointree"]


@dataclass(frozen=True)
class MinedSchema:
    """Result of :func:`mine_jointree`.

    Attributes
    ----------
    jointree:
        The discovered join tree.
    bags:
        Its schema (maximal bags).
    j_value:
        ``J`` of the discovered schema on the training relation (nats).
    rho:
        Spurious-tuple loss of the discovered schema.
    splits:
        The accepted splits, in discovery order.
    """

    jointree: JoinTree
    bags: frozenset[frozenset[str]]
    j_value: float
    rho: float
    splits: tuple[MVDSplit, ...]


def best_split(
    relation: Relation,
    attributes: frozenset[str],
    *,
    max_separator_size: int = 2,
    exact_partition_limit: int = 10,
    engine: EntropyEngine | None = None,
) -> MVDSplit | None:
    """The lowest-CMI split of ``attributes``, or ``None`` if unsplittable.

    Searches every separator up to the size cap; for each, partitions the
    remainder exactly (small remainders) or greedily.  Ties break toward
    smaller separators, then lexicographically, for determinism.  All CMIs
    are served by one memoizing entropy engine (the relation's shared one
    unless ``engine`` is given), so the four-entropy expansions of
    overlapping candidate splits are each computed once.
    """
    if engine is None:
        engine = EntropyEngine.for_relation(relation)
    context = SearchContext(
        relation=relation,
        engine=engine,
        scorer=SerialSplitScorer(),
        max_separator_size=max_separator_size,
        exact_partition_limit=exact_partition_limit,
    )
    return best_split_in_context(context, attributes)


def mine_jointree(
    relation: Relation,
    *,
    threshold: float = 1e-9,
    max_separator_size: int = 2,
    exact_partition_limit: int = 10,
    compute_loss: bool = True,
    strategy: str = "recursive",
    scorer: SerialSplitScorer | None = None,
    deadline: float | None = None,
    deadline_at: float | None = None,
    seed: int = 0,
    backend: "object | None" = None,
) -> MinedSchema:
    """Discover an acyclic schema with small J-measure for ``relation``.

    Parameters
    ----------
    relation:
        Training data.
    threshold:
        Maximum CMI (nats) a split may incur to be accepted.  ``1e-9``
        mines only exact (lossless) decompositions; larger values mine
        approximate schemas, trading spurious tuples for decomposition.
    max_separator_size:
        Cap on ``|X|`` in candidate MVDs ``X ↠ Y|Z``.
    exact_partition_limit:
        Remainder size up to which bipartitions are searched exhaustively.
    compute_loss:
        Also evaluate ``ρ`` of the mined schema (skippable when only J is
        needed).
    strategy:
        Registered search mode (see
        :func:`repro.discovery.strategies.available_strategies`);
        ``"recursive"`` reproduces the classic miner bit-for-bit.
    scorer:
        Split scorer to score candidate batches with (default: a fresh
        :class:`~repro.discovery.scoring.SerialSplitScorer`); pass a
        subclass to observe the batches a search scores.
    deadline:
        Wall-clock budget in seconds; deadline-aware strategies
        (``anytime``, and all strategies' refinement loops) return their
        best-so-far schema when it expires.
    deadline_at:
        Absolute ``time.monotonic()`` deadline, for callers that already
        hold one (the service's job workers).  Combined with ``deadline``
        by taking the earlier of the two.
    seed:
        RNG seed for randomized strategies.
    backend:
        Entropy backend for the run's engine — an
        :class:`~repro.info.backends.EntropyBackend` instance or a name
        (``"exact"``/``"sketch"``).  The sketch backend scores splits
        (and evaluates the final J and ρ) from bounded-memory streaming
        estimates; ``None`` keeps the relation's cached engine.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.datasets import planted_mvd_relation
    >>> r = planted_mvd_relation(6, 6, 4, np.random.default_rng(0))
    >>> mined = mine_jointree(r)
    >>> mined.j_value <= 1e-9
    True
    """
    context = SearchContext.create(
        relation,
        threshold=threshold,
        max_separator_size=max_separator_size,
        exact_partition_limit=exact_partition_limit,
        scorer=scorer,
        deadline_seconds=deadline,
        deadline_at=deadline_at,
        seed=seed,
        backend=backend,
    )
    outcome = get_strategy(strategy).search(context)
    return finalize_outcome(context, outcome, compute_loss=compute_loss)


def finalize_outcome(
    context: SearchContext,
    outcome,
    *,
    compute_loss: bool = True,
) -> MinedSchema:
    """Turn a strategy's bags into a :class:`MinedSchema`.

    Shared post-processing for every strategy: drop non-maximal bags,
    deduplicate preserving discovery order, build the join tree, and
    evaluate J (always) and ρ (unless skipped) on the training relation.
    Both J and ρ are produced by the run's entropy backend, so a sketch
    run reports streaming estimates and an exact run the exact values
    (the exact backend routes ρ through the relation's shared
    :class:`~repro.core.evalcontext.EvalContext`, as before).
    """
    bags = list(outcome.bags)
    if not bags:
        raise DiscoveryError("strategy returned no bags")
    schema = maximal_bags(bags)
    tree = jointree_from_schema(schema)
    j_value = j_measure(context.relation, tree, engine=context.engine)
    rho = (
        context.engine.backend.spurious_loss(context.relation, tree)
        if compute_loss
        else math.nan
    )
    return MinedSchema(
        jointree=tree,
        bags=frozenset(schema),
        j_value=j_value,
        rho=rho,
        splits=tuple(outcome.splits),
    )
