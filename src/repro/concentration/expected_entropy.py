"""Exact expected entropy under the random relation model.

Under Definition 5.2 with ``d_C = 1``, the entropy of ``A_S`` is
``H(A_S) = Σᵢ g(Z_S(i)/η)`` with ``g(t) = −t·log t``, where the row
counts ``Z_S(i)`` are exchangeable ``Hypergeometric(d_A·d_B, d_B, η)``
variables.  By linearity of expectation,

    E[H(A_S)] = d_A · E[g(Z/η)] = d_A · Σ_b P[Z = b] · g(b/η),

a *closed form* requiring only the hypergeometric pmf — no simulation.
This turns Proposition 5.4's inequality chain and Figure 1's expected
curve into exactly computable quantities:

    E[I(A_S;B_S)] = E[H(A_S)] + E[H(B_S)] − log η

(the joint entropy is deterministically ``log η``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.concentration.inequalities import expected_entropy_deficit
from repro.errors import BoundConditionError


def exact_expected_entropy(d_a: int, d_b: int, eta: int) -> float:
    """``E[H(A_S)]`` exactly, in nats.

    Parameters
    ----------
    d_a:
        Domain size of the attribute whose entropy is measured.
    d_b:
        The other attribute's domain size.
    eta:
        Relation size ``η``; must satisfy ``0 < η ≤ d_A·d_B``.
    """
    from scipy import stats

    _validate(d_a, d_b, eta)
    # Z ~ Hypergeometric(population d_A*d_B, successes d_B, draws eta):
    # the count of sampled cells in one row of the grid.
    support_top = min(d_b, eta)
    expectation = 0.0
    for b in range(1, support_top + 1):
        p = float(stats.hypergeom.pmf(b, d_a * d_b, d_b, eta))
        if p <= 0.0:
            continue
        t = b / eta
        expectation += p * (-t * math.log(t))
    return d_a * expectation


def exact_expected_mi(d_a: int, d_b: int, eta: int) -> float:
    """``E[I(A_S;B_S)] = E[H(A_S)] + E[H(B_S)] − log η`` exactly, in nats.

    Uses ``H(A_S,B_S) = log η`` with probability 1 (the relation is a set
    of ``η`` tuples).
    """
    _validate(d_a, d_b, eta)
    return (
        exact_expected_entropy(d_a, d_b, eta)
        + exact_expected_entropy(d_b, d_a, eta)
        - math.log(eta)
    )


@dataclass(frozen=True)
class ExpectedEntropyReport:
    """Proposition 5.4 evaluated exactly.

    ``deficit = log d_A − E[H(A_S)]`` must lie in ``[0, C(d_B)]`` whenever
    the qualifying condition ``η ≥ 60·d_A`` (and ``d_A ≥ d_B``) holds.
    """

    d_a: int
    d_b: int
    eta: int
    expected_entropy: float
    deficit: float
    bound: float
    in_regime: bool

    @property
    def proposition_holds(self) -> bool:
        """Whether ``0 ≤ deficit ≤ C(d_B)`` (meaningful in regime)."""
        return -1e-9 <= self.deficit <= self.bound + 1e-9


def proposition_54_exact(d_a: int, d_b: int, eta: int) -> ExpectedEntropyReport:
    """Evaluate Proposition 5.4 with the exact expectation."""
    expected = exact_expected_entropy(d_a, d_b, eta)
    return ExpectedEntropyReport(
        d_a=d_a,
        d_b=d_b,
        eta=eta,
        expected_entropy=expected,
        deficit=math.log(d_a) - expected,
        bound=expected_entropy_deficit(d_b),
        in_regime=(eta >= 60 * d_a and d_a >= d_b),
    )


def _validate(d_a: int, d_b: int, eta: int) -> None:
    if d_a <= 0 or d_b <= 0:
        raise BoundConditionError("domain sizes must be positive")
    if not 0 < eta <= d_a * d_b:
        raise BoundConditionError(
            f"η must lie in (0, d_A·d_B] = (0, {d_a * d_b}], got {eta}"
        )
