"""Strategy interface and shared search helpers.

A *discovery strategy* turns a :class:`~repro.discovery.context.SearchContext`
into a set of bags forming an acyclic schema.  Strategies never talk to
entropy caches or worker pools directly — candidate enumeration lives
here and all CMI evaluation goes through ``context.scorer`` — so a new
search mode is one subclass registered with
:func:`repro.discovery.strategies.register_strategy`.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

from repro.discovery.candidates import greedy_partition
from repro.discovery.context import SearchContext
from repro.discovery.scoring import CandidateBatch, MVDSplit, ScoredBatch
from repro.errors import DiscoveryError
from repro.jointrees.gyo import is_acyclic

Bag = frozenset[str]


@dataclass(frozen=True)
class SearchOutcome:
    """What a strategy returns: bags (pre-maximality) plus accepted splits.

    ``bags`` may contain nested or duplicate sets; the miner's finalize
    step reduces them to a maximal, deduplicated schema in order.
    """

    bags: tuple[Bag, ...]
    splits: tuple[MVDSplit, ...]


class DiscoveryStrategy:
    """Base class for pluggable search strategies.

    Subclasses set :attr:`name` (the registry key and CLI value) and
    implement :meth:`search`.
    """

    #: Registry key; also the CLI ``--strategy`` value.
    name = "abstract"

    def search(self, context: SearchContext) -> SearchOutcome:
        """Run the search described by ``context`` and return its bags."""
        raise NotImplementedError


def enumerate_split_candidates(
    context: SearchContext, attributes: Bag
) -> CandidateBatch:
    """All candidate splits of ``attributes`` as one mask batch.

    The order is that of
    :func:`~repro.discovery.candidates.candidate_separators` and
    :func:`~repro.discovery.candidates.binary_partitions`, which the
    pinned legacy miner scans: separators ascending by size, then
    lexicographically by name; for each, every bipartition of the
    remainder when small enough (its first name always on the left),
    otherwise the single greedy partition.  (The greedy fallback issues
    its own CMI probes through the context's engine.)
    """
    if context.max_separator_size < 0:
        raise DiscoveryError(
            f"max separator size must be >= 0, got {context.max_separator_size}"
        )
    engine = context.engine
    bits = [engine.mask((name,)) for name in sorted(attributes)]
    separators: list[int] = []
    lefts: list[int] = []
    rights: list[int] = []
    limit = min(context.max_separator_size, len(bits) - 2)
    for size in range(limit + 1):
        for combo in itertools.combinations(bits, size):
            separator = sum(combo)
            rest = [bit for bit in bits if not bit & separator]
            if len(rest) <= context.exact_partition_limit:
                pivot, others = rest[0], rest[1:]
                whole = sum(rest)
                # Every left side holds the pivot; the one holding all of
                # `rest` would leave the right side empty.
                sides = [
                    pivot + subset
                    for k in range(len(others))
                    for subset in map(sum, itertools.combinations(others, k))
                ]
                separators.extend([separator] * len(sides))
                lefts.extend(sides)
                rights.extend([whole - left for left in sides])
            else:
                left, right = greedy_partition(
                    context.relation,
                    sorted(engine.names(sum(rest))),
                    frozenset(engine.names(separator)),
                    engine=engine,
                )
                separators.append(separator)
                lefts.append(engine.mask(left))
                rights.append(engine.mask(right))
    return CandidateBatch(separators, lefts, rights)


def best_split_in_context(
    context: SearchContext, attributes: Bag
) -> MVDSplit | None:
    """Lowest-CMI split of ``attributes``, or ``None`` if unsplittable.

    Scores the whole candidate batch through ``context.scorer`` and takes
    the head of its rank order — the same winner as the pre-refactor
    :func:`~repro.discovery.scoring.prefer_split` fold.
    """
    if len(attributes) < 2:
        return None
    candidates = enumerate_split_candidates(context, attributes)
    if not len(candidates):
        return None
    scored = context.scorer.score_batch(
        context.relation, candidates, engine=context.engine
    )
    return scored.split(scored.ranked()[0])


def topdown_decompose(
    context: SearchContext,
    pick: Callable[[ScoredBatch], MVDSplit | None],
) -> SearchOutcome:
    """The shared top-down splitting loop, parameterized by the pick rule.

    At each node the full candidate batch is scored and handed to
    ``pick``, which reads the batch's rank order
    (:meth:`~repro.discovery.scoring.ScoredBatch.ranked`) and returns the
    split to recurse on or ``None`` to keep the set as one bag.
    Recursion structure, the deadline gate, and the glued-schema
    acyclicity guard live here once, so every top-down strategy
    (strict-best ``recursive``, rng-among-top-k ``anytime`` rounds)
    shares them exactly.
    """
    accepted: list[MVDSplit] = []
    bags = _decompose(context, pick, accepted, context.relation.schema.name_set)
    return SearchOutcome(tuple(bags), tuple(accepted))


def _decompose(
    context: SearchContext,
    pick: Callable[[ScoredBatch], MVDSplit | None],
    accepted: list[MVDSplit],
    attrs: Bag,
) -> list[Bag]:
    """One node of :func:`topdown_decompose` (not a self-referencing
    closure: that cycle would keep the context's relation alive)."""
    split = None
    if len(attrs) > 2 and not context.expired():
        candidates = enumerate_split_candidates(context, attrs)
        if len(candidates):
            split = pick(
                context.scorer.score_batch(
                    context.relation, candidates, engine=context.engine
                )
            )
    if split is None:
        return [attrs]
    combined = _decompose(
        context, pick, accepted, split.separator | split.left
    ) + _decompose(context, pick, accepted, split.separator | split.right)
    # Recursive splits are not automatically closed under union: each
    # side's schema is acyclic, but gluing them can create a cycle when a
    # separator ends up scattered across bags.  Reject such splits (keep
    # the set as one bag).
    if not is_acyclic(combined):
        return [attrs]
    accepted.append(split)
    return combined


def maximal_bags(bags: list[Bag]) -> list[Bag]:
    """Drop bags strictly contained in others, then dedupe keeping order."""
    maximal = [bag for bag in bags if not any(bag < other for other in bags)]
    seen: set[Bag] = set()
    schema: list[Bag] = []
    for bag in maximal:
        if bag not in seen:
            seen.add(bag)
            schema.append(bag)
    return schema
