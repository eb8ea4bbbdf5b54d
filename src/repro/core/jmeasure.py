"""The J-measure of an acyclic schema (Lee; Eq. 7) and its KL form.

Three equivalent views are implemented:

* :func:`j_measure` — the entropy formula
  ``J(T) = Σ_v H(χ(v)) − Σ_e H(χ(v₁)∩χ(v₂)) − H(χ(T))`` (Eq. 7);
* :func:`j_measure_kl` — ``D_KL(P ‖ P^T)`` (Theorem 3.2);
* :func:`support_cmis` — the per-split conditional mutual informations of
  Theorem 2.2, whose max/sum sandwich ``J(T)`` (Eq. 8).

``J`` depends only on the schema defined by the tree, not on the tree's
shape (the paper's ``XU − XV − XW`` example); tests verify this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import DistributionError, JoinTreeError
from repro.info.distribution import EmpiricalDistribution
from repro.info.divergence import (
    conditional_mutual_information,
    kl_divergence_to_callable,
)
from repro.info.backends import sum_c_log_c
from repro.info.engine import EntropyEngine
from repro.info.entropy import relation_entropy
from repro.info.factorization import junction_tree_factorization
from repro.jointrees.jointree import JoinTree
from repro.relations.relation import Relation


def _require_cover(relation: Relation, jointree: JoinTree) -> None:
    tree_attrs = jointree.attributes()
    rel_attrs = relation.schema.name_set
    if tree_attrs != rel_attrs:
        raise JoinTreeError(
            f"J-measure needs χ(T) = Ω; tree covers {sorted(tree_attrs)} "
            f"but the relation has {sorted(rel_attrs)}"
        )


def j_measure(
    relation: Relation,
    jointree: JoinTree,
    *,
    base: float | None = None,
    engine: EntropyEngine | None = None,
) -> float:
    """``J(T)`` by the entropy formula (Eq. 7), over the empirical distribution.

    Empty separators contribute ``H(∅) = 0``.  The result is clamped at 0
    (``J ≥ 0`` always holds; tiny negative values are floating-point
    noise).  All entropies come from the relation's memoizing
    :class:`~repro.info.engine.EntropyEngine` (or the supplied ``engine``),
    so evaluating many candidate trees over one relation — the discovery
    searches — shares one entropy cache.
    """
    _require_cover(relation, jointree)
    if engine is None:
        engine = EntropyEngine.for_relation(relation)
    total = -relation_entropy(relation)
    for node in jointree.node_ids():
        total += engine.entropy(jointree.bag(node))
    for separator in jointree.separators():
        if separator:
            total -= engine.entropy(separator)
    total = max(total, 0.0)
    if base is not None:
        total /= math.log(base)
    return total


def j_measure_kl(
    relation: Relation, jointree: JoinTree, *, base: float | None = None
) -> float:
    """``J(T) = D_KL(P ‖ P^T)`` (Theorem 3.2), computed on the columnar backend.

    For the empirical distribution, ``P^T(x)`` is a product of bag
    marginals over separator marginals, and every marginal probability of
    a support tuple is a projection multiplicity over ``N``.  Summing
    ``−log P^T(x)`` over the ``N`` rows groups by factor: a factor whose
    cells have counts ``c`` contributes ``Σ c·log c``.  So, over each
    bag's and separator's cached
    :class:`~repro.relations.columns.CellRecord`,

        ``D_KL(P‖P^T) = (k − 1)·log N − Σ_factors ±(Σ c·log c) / N``

    where ``k`` is the number of bag factors minus separator factors.
    Costs ``O(groups)`` per factor once the cells exist, with no per-row
    or per-tuple work, and never materializes the join.  The pre-engine
    dict-based path survives as
    :func:`repro.core.legacy.j_measure_kl_legacy`, pinned by the
    equivalence suite.
    """
    _require_cover(relation, jointree)
    if relation.is_empty():
        raise DistributionError(
            "the empirical distribution of an empty relation is undefined"
        )
    schema = relation.schema
    store = relation.columns()
    n = len(relation)

    def c_log_c(attributes) -> float:
        positions = schema.indices(schema.canonical_order(attributes))
        return sum_c_log_c(store.cells(positions).counts.astype(np.float64))

    weighted = 0.0
    factor_balance = 0
    for node in jointree.node_ids():
        weighted += c_log_c(jointree.bag(node))
        factor_balance += 1
    for separator in jointree.separators():
        if separator:
            weighted -= c_log_c(separator)
            factor_balance -= 1
    total = (factor_balance - 1) * math.log(n) - weighted / n
    total = max(total, 0.0)
    if base is not None:
        total /= math.log(base)
    return total


def j_measure_distribution(
    dist: EmpiricalDistribution, jointree: JoinTree, *, base: float | None = None
) -> float:
    """``J(T)`` for a general finite distribution (not necessarily uniform).

    Theorem 3.2 holds for any joint distribution ``P``; this evaluates
    ``D_KL(P‖P^T)`` directly.
    """
    tree_attrs = jointree.attributes()
    if tree_attrs != frozenset(dist.attributes):
        raise JoinTreeError(
            f"J-measure needs χ(T) = Ω; tree covers {sorted(tree_attrs)} "
            f"but the distribution has {sorted(dist.attributes)}"
        )
    p_tree = junction_tree_factorization(dist, jointree)
    return kl_divergence_to_callable(dist, p_tree.prob, base=base)


@dataclass(frozen=True)
class SupportCMI:
    """One rooted-split CMI term ``I(Ω_{1:i−1}; Ω_{i:m} | Δᵢ)``."""

    index: int
    separator: frozenset[str]
    prefix: frozenset[str]
    suffix: frozenset[str]
    cmi: float


def support_cmis(
    relation: Relation,
    jointree: JoinTree,
    *,
    root: int | None = None,
    base: float | None = None,
    engine: EntropyEngine | None = None,
) -> tuple[SupportCMI, ...]:
    """The ``m − 1`` conditional mutual informations of Theorem 2.2."""
    _require_cover(relation, jointree)
    if engine is None:
        engine = EntropyEngine.for_relation(relation)
    out = []
    for split in jointree.rooted_splits(root):
        cmi = conditional_mutual_information(
            relation,
            split.prefix,
            split.suffix,
            split.separator,
            base=base,
            engine=engine,
        )
        out.append(
            SupportCMI(
                index=split.index,
                separator=split.separator,
                prefix=split.prefix,
                suffix=split.suffix,
                cmi=cmi,
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class SandwichBounds:
    """Theorem 2.2: ``max_i Iᵢ ≤ J(T) ≤ Σ_i Iᵢ``."""

    lower: float
    j_value: float
    upper: float

    @property
    def holds(self) -> bool:
        """Whether the sandwich inequalities hold (with float slack)."""
        slack = 1e-9 + 1e-9 * max(abs(self.j_value), abs(self.upper), 1.0)
        return self.lower <= self.j_value + slack and self.j_value <= self.upper + slack


def sandwich_bounds(
    relation: Relation,
    jointree: JoinTree,
    *,
    root: int | None = None,
    base: float | None = None,
    engine: EntropyEngine | None = None,
) -> SandwichBounds:
    """Evaluate both sides of Theorem 2.2 together with ``J(T)``."""
    if engine is None:
        engine = EntropyEngine.for_relation(relation)
    cmis = [
        term.cmi
        for term in support_cmis(
            relation, jointree, root=root, base=base, engine=engine
        )
    ]
    j_value = j_measure(relation, jointree, base=base, engine=engine)
    if not cmis:  # single-node tree: J = 0 with no support terms
        return SandwichBounds(lower=0.0, j_value=j_value, upper=0.0)
    return SandwichBounds(lower=max(cmis), j_value=j_value, upper=sum(cmis))


def is_lossless(
    relation: Relation, jointree: JoinTree, *, tolerance: float = 1e-9
) -> bool:
    """Lee's criterion (Theorem 2.1): ``R ⊨ AJD(S)  ⇔  J(S) = 0``."""
    return j_measure(relation, jointree) <= tolerance
