"""Poisson concentration tools (Lemmas D.3–D.5).

* Chernoff's bound for Poisson upper tails (Lemma D.3);
* concentration of 1-Lipschitz functions of a Poisson variable
  (Bobkov–Ledoux / Kontoyiannis–Madiman, Lemma D.4);
* the Poisson logarithmic Sobolev inequality (Lemma D.5);
* the exact series identity ``E[1/(1+W)] = (1 − e^{−λ})/λ`` (Eq. 280).
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from repro.errors import BoundConditionError

#: Lemma D.3 requires ``α > 3e``.
CHERNOFF_MIN_ALPHA = 3.0 * math.e


def poisson_chernoff_tail(alpha: float, lam: float) -> float:
    """Lemma D.3: ``P[X ≥ α·E[X]] ≤ e^{−αλ·log(α/e)} ≤ e^{−αλ}``.

    Returns the sharper middle expression; requires ``α > 3e``.
    """
    if alpha <= CHERNOFF_MIN_ALPHA:
        raise BoundConditionError(
            f"Poisson Chernoff bound needs α > 3e ≈ {CHERNOFF_MIN_ALPHA:.2f}, "
            f"got {alpha}"
        )
    if lam <= 0:
        raise BoundConditionError(f"λ must be positive, got {lam}")
    return min(1.0, math.exp(-alpha * lam * math.log(alpha / math.e)))


def poisson_lipschitz_tail(t: float, lam: float) -> float:
    """Lemma D.4: for 1-Lipschitz ``f`` and ``W ~ Poisson(λ)``,

    ``P[f(W) − E f(W) > t] ≤ exp(−(t/4)·log(1 + t/(2λ)))``.
    """
    if t <= 0:
        raise BoundConditionError(f"t must be positive, got {t}")
    if lam <= 0:
        raise BoundConditionError(f"λ must be positive, got {lam}")
    return min(1.0, math.exp(-(t / 4.0) * math.log1p(t / (2.0 * lam))))


def discrete_derivative(f: Callable[[int], float]) -> Callable[[int], float]:
    """``Df(w) = f(w+1) − f(w)`` (Eq. 347)."""

    def df(w: int) -> float:
        return f(w + 1) - f(w)

    return df


def _truncation_point(lam: float, tail: float) -> int:
    """Smallest ``k`` with ``P[W > k] ≤ tail`` for ``W ~ Poisson(λ)``."""
    from scipy import stats

    return int(stats.poisson.isf(tail, lam)) + 2


def poisson_expectation(
    f: Callable[[int], float], lam: float, *, tail: float = 1e-14
) -> float:
    """``E[f(W)]`` for ``W ~ Poisson(λ)`` by truncated summation."""
    if lam <= 0:
        raise BoundConditionError(f"λ must be positive, got {lam}")
    from scipy import stats

    upper = _truncation_point(lam, tail)
    ks = np.arange(0, upper + 1)
    pmf = stats.poisson.pmf(ks, lam)
    values = np.asarray([f(int(k)) for k in ks], dtype=np.float64)
    return float((pmf * values).sum())


def poisson_functional_entropy(
    f: Callable[[int], float], lam: float, *, tail: float = 1e-14
) -> float:
    """``Ent[f(W)] = E[f log f] − E[f]·log E[f]`` for positive ``f``."""
    mean = poisson_expectation(f, lam, tail=tail)
    if mean <= 0:
        raise BoundConditionError("Poisson LSI needs a positive function")

    def flogf(w: int) -> float:
        value = f(w)
        if value < 0:
            raise BoundConditionError("Poisson LSI needs a non-negative function")
        return 0.0 if value == 0.0 else value * math.log(value)

    return max(poisson_expectation(flogf, lam, tail=tail) - mean * math.log(mean), 0.0)


def poisson_lsi_bound(
    f: Callable[[int], float], lam: float, *, tail: float = 1e-14
) -> float:
    """Lemma D.5 right-hand side: ``λ·E[(Df(W))²/f(W)]``.

    The Poisson LSI asserts ``Ent[f(W)] ≤`` this value for positive ``f``.
    """

    def integrand(w: int) -> float:
        value = f(w)
        if value <= 0:
            raise BoundConditionError("Poisson LSI needs a strictly positive function")
        step = f(w + 1) - value
        return step * step / value

    return lam * poisson_expectation(integrand, lam, tail=tail)


def expected_inverse_one_plus_poisson(lam: float) -> float:
    """``E[1/(1+W)] = (1 − e^{−λ})/λ`` for ``W ~ Poisson(λ)`` (Eq. 280)."""
    if lam <= 0:
        raise BoundConditionError(f"λ must be positive, got {lam}")
    return (1.0 - math.exp(-lam)) / lam


def poisson_identity_entropy_bound() -> float:
    """The constant 4 from Lemma B.5: ``Ent(W) ≤ min_{ζ>2}(ζ+1+log ζ/ζ) ≤ 4``.

    Returned as a named constant so callers can reference the paper's
    bound rather than a magic number.
    """
    return 4.0
