"""Greedy agglomerative discovery: bottom-up bag merging.

Start from the finest conceivable schema — one singleton bag per
attribute — and repeatedly merge the two most entangled bags until the
schema's J-measure drops to the threshold.  The key identity making this
cheap: for a *partition* schema ``{B₁, …, B_m}`` (pairwise-disjoint
bags), the J-measure is the total correlation ``Σ H(Bᵢ) − H(V)``, and
merging ``Bᵢ, Bⱼ`` lowers it by exactly their mutual information
``I(Bᵢ; Bⱼ)``.  So each round scores every pair ``(∅, Bᵢ, Bⱼ)`` as one
batch through the context's scorer and merges the highest-MI pair.

Because only whole bags merge, the bags always partition the attribute
set — the schema is acyclic and attribute-covering at *every* step, so
a deadline can interrupt the loop at any round and still leave a valid
(if lossier) schema.  Termination is guaranteed: the single-bag schema
has J = 0 ≤ threshold.

Compared to the top-down strategies, this one shines when the relation
decomposes into several mutually independent blocks (it finds them
directly instead of peeling binary splits) — and it never produces
overlapping bags, i.e. it searches partition schemas only.
"""

from __future__ import annotations

import numpy as np

from repro.discovery.context import SearchContext
from repro.discovery.scoring import CandidateBatch
from repro.discovery.strategies import register_strategy
from repro.discovery.strategies.base import (
    Bag,
    DiscoveryStrategy,
    SearchOutcome,
)


@register_strategy
class GreedyAgglomerativeStrategy(DiscoveryStrategy):
    """Bottom-up merging of the highest-MI bag pair until J ≤ threshold."""

    name = "greedy-agglomerative"

    def search(self, context: SearchContext) -> SearchOutcome:
        engine = context.engine
        attrs = context.relation.schema.name_set
        bags: list[Bag] = [frozenset({a}) for a in sorted(attrs)]
        h_total = engine.entropy(attrs)

        while len(bags) > 1 and not context.expired():
            j_current = sum(engine.entropy(bag) for bag in bags) - h_total
            if j_current <= context.threshold:
                break
            pairs = [
                (i, j) for i in range(len(bags)) for j in range(i + 1, len(bags))
            ]
            masks = [engine.mask(bag) for bag in bags]
            scored = context.scorer.score_batch(
                context.relation,
                CandidateBatch(
                    [0] * len(pairs),
                    [masks[i] for i, _ in pairs],
                    [masks[j] for _, j in pairs],
                ),
                engine=engine,
            )
            # Highest MI first; ties break lexicographically by (left,
            # right) names.  The bags are sorted by name, so pair order is
            # that lexicographic order and the first maximum wins.
            i, j = pairs[int(np.argmax(scored.cmi))]
            merged = bags[i] | bags[j]
            bags = [bag for k, bag in enumerate(bags) if k != i and k != j]
            bags.append(merged)
            bags.sort(key=sorted)

        return SearchOutcome(tuple(bags), ())
