"""Hypergeometric tail bounds, sampling, and Poissonization (Lemma B.4).

The random relation model (Definition 5.2) makes row counts such as
``Z_S(i)`` (tuples of the relation with ``A = i``) and ``N_S(ℓ)`` (tuples
with ``C = ℓ``) hypergeometric.  This module provides:

* the pmf/mean and a numpy-backed sampler;
* Serfling's inequality for sampling without replacement (Lemma D.7);
* the Poissonization bound ``P[Z = b] ≤ 21·d_A²·P[W = b]`` (Lemma B.4);
* the per-class sample-size guarantee of Lemma C.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import BoundConditionError


def hypergeometric_mean(population: int, successes: int, draws: int) -> float:
    """``E[Y] = draws·successes/population``."""
    _validate_hypergeometric(population, successes, draws)
    return draws * successes / population


def hypergeometric_pmf(
    k: int, population: int, successes: int, draws: int
) -> float:
    """``P[Y = k]`` for ``Y ~ Hypergeometric(population, successes, draws)``."""
    from scipy import stats

    _validate_hypergeometric(population, successes, draws)
    return float(stats.hypergeom.pmf(k, population, successes, draws))


def sample_hypergeometric(
    population: int,
    successes: int,
    draws: int,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``size`` samples of the hypergeometric distribution."""
    _validate_hypergeometric(population, successes, draws)
    return rng.hypergeometric(successes, population - successes, draws, size)


def _validate_hypergeometric(population: int, successes: int, draws: int) -> None:
    if population <= 0:
        raise BoundConditionError(f"population must be positive, got {population}")
    if not 0 <= successes <= population:
        raise BoundConditionError(
            f"successes must lie in [0, {population}], got {successes}"
        )
    if not 0 <= draws <= population:
        raise BoundConditionError(
            f"draws must lie in [0, {population}], got {draws}"
        )


def serfling_tail(
    epsilon: float, draws: int, *, population: int | None = None
) -> float:
    """Serfling's inequality (Lemma D.7, simplified form).

    ``P[Y − E[Y] ≥ ε] ≤ exp(−2ε²/ℓ)`` for ``Y`` hypergeometric with ``ℓ``
    draws.  If ``population`` is given, the sharper factor
    ``(1 − (ℓ−1)/L)`` in the denominator is used.
    """
    if epsilon < 0:
        raise BoundConditionError(f"epsilon must be non-negative, got {epsilon}")
    if draws < 1:
        raise BoundConditionError(f"draws must be >= 1, got {draws}")
    denom = float(draws)
    if population is not None:
        if population < draws:
            raise BoundConditionError("population must be >= draws")
        denom = draws * (1.0 - (draws - 1) / population)
        if denom <= 0.0:
            return 1.0
    return min(1.0, math.exp(-2.0 * epsilon * epsilon / denom))


@dataclass(frozen=True)
class PoissonizationCheck:
    """Result of :func:`poissonization_ratio` (Lemma B.4 verification).

    ``max_ratio`` is ``max_b P[Z = b] / P[W = b]`` over the support of
    ``Z``; Lemma B.4 asserts ``max_ratio ≤ 21·d_A²`` under its
    assumptions, recorded in ``bound``.
    """

    max_ratio: float
    argmax_b: int
    bound: float

    @property
    def holds(self) -> bool:
        """Whether the Poissonization bound is satisfied."""
        return self.max_ratio <= self.bound


def poissonization_ratio(d_a: int, d_b: int, eta: int) -> PoissonizationCheck:
    """Numerically verify Lemma B.4 for the given parameters.

    ``Z ~ Hypergeometric(d_A·d_B, d_B, η)`` (the count of one row of the
    random relation) versus ``W ~ Poisson(η/d_A)`` with the same mean.
    Assumes ``d_A ≥ d_B`` and ``η ∈ [d_A, d_A·d_B − d_B]`` as in the lemma.
    """
    if d_a < d_b:
        raise BoundConditionError(f"Lemma B.4 assumes d_A >= d_B ({d_a} < {d_b})")
    if not d_a <= eta <= d_a * d_b - d_b:
        raise BoundConditionError(
            f"Lemma B.4 assumes η ∈ [d_A, d_A·d_B − d_B]; got η={eta}"
        )
    from scipy import stats

    lam = eta / d_a
    max_ratio = 0.0
    argmax = 0
    for b in range(0, d_b + 1):
        pz = hypergeometric_pmf(b, d_a * d_b, d_b, eta)
        if pz <= 0.0:
            continue
        pw = float(stats.poisson.pmf(b, lam))
        ratio = math.inf if pw == 0.0 else pz / pw
        if ratio > max_ratio:
            max_ratio = ratio
            argmax = b
    return PoissonizationCheck(
        max_ratio=max_ratio, argmax_b=argmax, bound=21.0 * d_a * d_a
    )


@dataclass(frozen=True)
class ClassSizeGuarantee:
    """Lemma C.1: high-probability lower bound on ``min_ℓ N_S(ℓ)``.

    With ``N`` tuples over domains ``d_A, d_B, d_C``, each class
    ``N_S(ℓ) = |σ_{C=ℓ}(R_S)|`` is hypergeometric with mean ``N/d_C``; with
    probability ``≥ 1 − δ`` all classes exceed ``threshold = N/(2·d_C)``.
    """

    condition_holds: bool
    required_n: float
    threshold: float
    per_class_failure: float


def class_size_guarantee(
    n: int, d_a: int, d_c: int, delta: float, *, d: int | None = None
) -> ClassSizeGuarantee:
    """Evaluate Lemma C.1's condition and conclusion.

    Parameters
    ----------
    n:
        Relation size ``N``.
    d_a:
        Domain size of the larger of the two joined sides.
    d_c:
        Domain size of the conditioning attribute ``C``.
    delta:
        Failure probability budget.
    d:
        ``max(d_A, d_C)``; computed when omitted.
    """
    _validate_delta(delta)
    d = max(d_a, d_c) if d is None else d
    required = 256.0 * d_a * d * math.log(128.0 * d / delta)
    per_class = math.exp(-n / (2.0 * d_c * d_c)) if d_c > 0 else 0.0
    return ClassSizeGuarantee(
        condition_holds=n >= required,
        required_n=required,
        threshold=n / (2.0 * d_c),
        per_class_failure=min(1.0, per_class),
    )


def _validate_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise BoundConditionError(f"delta must lie in (0, 1), got {delta}")
