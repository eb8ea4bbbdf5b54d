"""Per-class loss decomposition — the log-sum step of Theorem 5.1's proof.

For an MVD ``φ = C ↠ A|B``, conditioning on ``C = ℓ`` gives per-class
relations ``R_ℓ = σ_{C=ℓ}(R)`` with sizes ``N(ℓ)``, realized per-class
losses ``ρ(ℓ)``, per-class loss *ceilings* ``ρ̄(ℓ) = d_A·d_B/N(ℓ) − 1``
(Eq. 323), and mutual informations ``I(A;B | C = ℓ)``.  The proof of
Theorem 5.1 glues the per-class picture together with the log-sum
inequality (Eq. 44 / Eq. 335):

    log(1 + ρ(R, φ)) ≤ [log d_C − H(C)] + Σ_ℓ P[C=ℓ]·log(1 + ρ̄(ℓ)),

— note the *ceilings* on the right (with realized per-class losses the
inequality is false; two same-size classes, one diagonal and one
constant-B, violate it) — and the averaging identity
``I(A;B|C) = Σ_ℓ P[C=ℓ]·I(A;B|C=ℓ)`` (Eq. 336).  This module computes
all the pieces so both facts can be inspected and tested on concrete
instances.

Since the evaluation-layer refactor, the per-class quantities are
computed *without materializing any per-class relation*: one columnar
group-by per attribute group plus per-class ``bincount`` reductions
yield every class's size, distinct-projection counts, and entropy sums
in a handful of vectorized passes.  The original row-at-a-time loop
(select one class, project, join-count, per-block engine) survives as
:func:`classwise_decomposition_legacy` — the pinned reference of the
equivalence suite, and the fallback when the MVD groups overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.evalcontext import EvalContext
from repro.errors import DistributionError, UnknownAttributeError
from repro.info.divergence import (
    conditional_mutual_information,
    mutual_information,
)
from repro.relations.join import join_size
from repro.relations.relation import Relation


@dataclass(frozen=True)
class ClassProfile:
    """One conditioning class ``C = value`` of an MVD split."""

    value: tuple
    n: int
    weight: float          # P[C = value] = n / N
    rho: float             # realized per-class loss (Eq. 28 on the class)
    rho_ceiling: float     # ρ̄(ℓ) = d_A·d_B/N(ℓ) − 1 (Eq. 323)
    mi: float              # I(A; B | C = value), nats


@dataclass(frozen=True)
class ClasswiseDecomposition:
    """All per-class quantities plus the glued (Eq. 44) bound.

    Attributes
    ----------
    classes:
        Per-class profiles, sorted by class value.
    log_loss:
        ``log(1 + ρ(R, φ))`` — the global quantity being bounded.
    entropy_gap:
        ``log d_C − H(C)`` where ``d_C`` is the *active* domain of ``C``.
    weighted_log_ceiling:
        ``Σ_ℓ P[C=ℓ]·log(1 + ρ̄(ℓ))`` — the Eq. 44 sum (ceilings!).
    weighted_log_loss:
        ``Σ_ℓ P[C=ℓ]·log(1 + ρ(ℓ))`` with realized losses, for contrast.
    cmi:
        ``I(A;B|C)`` — equals the weighted average of per-class MIs.
    """

    classes: tuple[ClassProfile, ...]
    log_loss: float
    entropy_gap: float
    weighted_log_ceiling: float
    weighted_log_loss: float
    cmi: float

    @property
    def eq44_bound(self) -> float:
        """The right-hand side of Eq. 44 (entropy gap + ceiling sum)."""
        return self.entropy_gap + self.weighted_log_ceiling

    @property
    def eq44_holds(self) -> bool:
        """Whether the log-sum glue step holds on this instance.

        Always true — Eq. 44 is unconditional for the ceiling form.
        """
        return self.log_loss <= self.eq44_bound + 1e-9

    @property
    def averaging_identity_gap(self) -> float:
        """``|I(A;B|C) − Σ_ℓ P[C=ℓ]·I(A;B|C=ℓ)|`` (should be ~0, Eq. 336)."""
        weighted = sum(c.weight * c.mi for c in self.classes)
        return abs(self.cmi - weighted)


def _normalize_groups(
    relation: Relation,
    left: str | tuple[str, ...],
    right: str | tuple[str, ...],
    condition: str,
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Validate the MVD groups and return the two sides as tuples."""
    if relation.is_empty():
        raise DistributionError("classwise decomposition of an empty relation")
    left_attrs = (left,) if isinstance(left, str) else tuple(left)
    right_attrs = (right,) if isinstance(right, str) else tuple(right)
    covered = set(left_attrs) | set(right_attrs) | {condition}
    missing = relation.schema.name_set - covered
    if missing:
        raise UnknownAttributeError(
            f"MVD groups must cover the relation; missing {sorted(missing)}"
        )
    return left_attrs, right_attrs


def classwise_decomposition(
    relation: Relation,
    left: str | tuple[str, ...],
    right: str | tuple[str, ...],
    condition: str,
    *,
    context: EvalContext | None = None,
) -> ClasswiseDecomposition:
    """Decompose the loss of ``condition ↠ left | right`` per class.

    Domain sizes ``d_A, d_B`` for the ceilings use the *global active*
    domains ``|Π_left(R)|, |Π_right(R)|`` — the tightest sizes for which
    every per-class projection still fits.

    Fully vectorized on the columnar backend: for each of the groups
    ``L∪{C}`` and ``R∪{C}``, one cached group-by plus two per-class
    ``bincount`` reductions produce every class's distinct-projection
    count (for ``ρ(ℓ)``) and entropy sum ``Σ c·log c`` (for
    ``I(A;B|C=ℓ)``, since ``C`` is constant within a class).  When the
    groups overlap (the sides share attributes beyond ``C``), the
    product-of-distincts join count does not apply and the pinned
    row-based path takes over.

    Parameters
    ----------
    relation:
        The universal relation; ``left``/``right``/``condition`` must
        cover its attributes.
    left, right:
        The two MVD groups (single attribute name or tuple of names).
    condition:
        The conditioning attribute ``C`` (single attribute).
    context:
        Optional shared :class:`~repro.core.evalcontext.EvalContext`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.random_relations import random_relation
    >>> r = random_relation({"A": 4, "B": 4, "C": 2}, 12, np.random.default_rng(0))
    >>> dec = classwise_decomposition(r, "A", "B", "C")
    >>> dec.eq44_holds and dec.averaging_identity_gap < 1e-9
    True
    """
    left_attrs, right_attrs = _normalize_groups(relation, left, right, condition)
    left_set = set(left_attrs)
    right_set = set(right_attrs)
    if (
        left_set & right_set
        or condition in left_set
        or condition in right_set
    ):
        # Overlapping groups join on more than C; the vectorized
        # product-of-distincts count below would undercount.
        return classwise_decomposition_legacy(relation, left, right, condition)
    if context is None:
        context = EvalContext.for_relation(relation)
    engine = context.engine
    schema = relation.schema
    store = relation.columns()
    n_total = len(relation)
    d_a = context.projection_size(left_attrs)
    d_b = context.projection_size(right_attrs)

    condition_group = store.groups(schema.indices((condition,)))
    n_classes = len(condition_group.counts)
    class_sizes = condition_group.counts
    row_list = store.row_list
    condition_pos = schema.index(condition)
    class_values = [
        row_list[i][condition_pos] for i in condition_group.first_index.tolist()
    ]

    def class_reductions(attrs: set[str]) -> tuple[np.ndarray, np.ndarray]:
        """Per-class ``Σ c·log c`` and distinct count of ``attrs ∪ {C}``."""
        positions = schema.indices(schema.canonical_order(attrs | {condition}))
        cells = store.cells(positions)
        classes_of_group = condition_group.gids[cells.first_index]
        counts = cells.counts.astype(np.float64)
        entropy_sums = np.bincount(
            classes_of_group, weights=counts * np.log(counts), minlength=n_classes
        )
        distinct = np.bincount(classes_of_group, minlength=n_classes)
        return entropy_sums, distinct

    # C is constant within a class, so the multiplicities of L (resp. R)
    # inside class ℓ equal the multiplicities of the L∪{C} (resp. R∪{C})
    # groups that fall in ℓ; and the block projects to distinct full
    # tuples, hence H_ℓ(L∪R) = log N(ℓ) exactly.
    left_sums, left_distinct = class_reductions(left_set)
    right_sums, right_distinct = class_reductions(right_set)
    sizes = class_sizes.astype(np.float64)
    mi = np.maximum(np.log(sizes) - (left_sums + right_sums) / sizes, 0.0)
    rho = (left_distinct * right_distinct - class_sizes) / sizes
    ceilings = d_a * d_b / sizes - 1.0
    weights = sizes / n_total

    profiles = [
        ClassProfile(
            value=(class_values[g],),
            n=int(class_sizes[g]),
            weight=float(weights[g]),
            rho=float(rho[g]),
            rho_ceiling=float(ceilings[g]),
            mi=float(mi[g]),
        )
        for g in range(n_classes)
    ]
    profiles.sort(key=lambda p: repr(p.value[0]))

    global_rho = (
        context.split_join_size(left_set | {condition}, right_set | {condition})
        - n_total
    ) / n_total
    h_c = engine.entropy((condition,))
    cmi = engine.cmi(left_attrs, right_attrs, (condition,))
    return ClasswiseDecomposition(
        classes=tuple(profiles),
        log_loss=math.log1p(global_rho),
        entropy_gap=math.log(n_classes) - h_c,
        weighted_log_ceiling=float((weights * np.log1p(ceilings)).sum()),
        weighted_log_loss=float((weights * np.log1p(rho)).sum()),
        cmi=cmi,
    )


def classwise_decomposition_legacy(
    relation: Relation,
    left: str | tuple[str, ...],
    right: str | tuple[str, ...],
    condition: str,
) -> ClasswiseDecomposition:
    """The pinned row-at-a-time path (one select/project/join per class).

    Reference implementation for the equivalence suite, and the general
    path for overlapping MVD groups.
    """
    left_attrs, right_attrs = _normalize_groups(relation, left, right, condition)
    n_total = len(relation)
    d_a = relation.projection_size(left_attrs)
    d_b = relation.projection_size(right_attrs)

    values = sorted(relation.active_domain(condition), key=repr)
    d_c = len(values)
    profiles = []
    for value in values:
        block = relation.select_eq(condition, value)
        n = len(block)
        left_proj = block.project(
            block.schema.canonical_order(set(left_attrs) | {condition})
        )
        right_proj = block.project(
            block.schema.canonical_order(set(right_attrs) | {condition})
        )
        rho = (join_size(left_proj, right_proj) - n) / n
        mi = mutual_information(block, left_attrs, right_attrs)
        profiles.append(
            ClassProfile(
                value=(value,),
                n=n,
                weight=n / n_total,
                rho=rho,
                rho_ceiling=d_a * d_b / n - 1.0,
                mi=mi,
            )
        )

    from repro.core.legacy import split_loss_legacy
    from repro.info.entropy import joint_entropy

    global_rho = split_loss_legacy(
        relation,
        set(left_attrs) | {condition},
        set(right_attrs) | {condition},
    )
    h_c = joint_entropy(relation, [condition])
    cmi = conditional_mutual_information(
        relation, left_attrs, right_attrs, [condition]
    )
    return ClasswiseDecomposition(
        classes=tuple(profiles),
        log_loss=math.log1p(global_rho),
        entropy_gap=math.log(d_c) - h_c,
        weighted_log_ceiling=sum(
            p.weight * math.log1p(p.rho_ceiling) for p in profiles
        ),
        weighted_log_loss=sum(
            p.weight * math.log1p(p.rho) for p in profiles
        ),
        cmi=cmi,
    )
