"""Entropy estimators beyond the plug-in (maximum-likelihood) one.

The paper's Proposition 5.4 quantifies the *negative bias* of the
plug-in entropy under the random relation model:
``0 ≤ log d_A − E[H(A_S)] ≤ C(d_B)``.  This module provides the two
classic bias-corrected estimators so users analyzing sampled data can
compare:

* :func:`miller_madow` — plug-in + ``(K−1)/(2N)`` first-order bias
  correction (K = observed support size);
* :func:`jackknife` — the leave-one-out jackknife estimator.

Both reduce the deficit measured in experiment E4; an ablation bench
(`benchmarks/test_bench_estimators.py`) quantifies by how much.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import DistributionError
from repro.info.entropy import entropy_of_counts
from repro.relations.relation import Relation


def _counts_array(counts: Iterable[int]) -> np.ndarray:
    """Coerce counts to a positive int64 ndarray (zeros masked, no loop)."""
    if isinstance(counts, np.ndarray):
        arr = counts.astype(np.int64, copy=False)
    else:
        if not isinstance(counts, (list, tuple)):
            counts = list(counts)
        arr = np.asarray(counts, dtype=np.int64)
    if arr.size:
        lo = int(arr.min())
        if lo < 0:
            raise DistributionError("counts must be non-negative")
        if lo == 0:
            arr = arr[arr != 0]
    if arr.size == 0:
        raise DistributionError("entropy of an empty count vector is undefined")
    return arr


def plug_in(counts: Iterable[int], *, base: float | None = None) -> float:
    """The maximum-likelihood (plug-in) estimator — alias of the default."""
    return entropy_of_counts(counts, base=base)


def miller_madow(counts: Iterable[int], *, base: float | None = None) -> float:
    """Miller–Madow estimator: plug-in plus ``(K−1)/(2N)`` (nats).

    ``K`` is the number of observed distinct values.  First-order bias
    correction; can overshoot ``log K`` on tiny samples (not clamped —
    the estimator is reported as defined).
    """
    import math

    arr = _counts_array(counts)
    n = int(arr.sum())
    k = int(arr.size)
    value = entropy_of_counts(arr) + (k - 1) / (2.0 * n)
    if base is not None:
        value /= math.log(base)
    return value


def jackknife(counts: Iterable[int], *, base: float | None = None) -> float:
    """Leave-one-out jackknife estimator.

    ``H_JK = N·H − (N−1)/N · Σ_j c_j · H_{−j}`` where ``H_{−j}`` is the
    plug-in entropy with one observation of value ``j`` removed.
    Computed in closed form from the count vector (vectorized over the
    distinct values — no Python-level loop).
    """
    import math

    arr = _counts_array(counts).astype(np.float64)
    n = int(arr.sum())
    if n < 2:
        raise DistributionError("jackknife needs at least two observations")
    h_full = entropy_of_counts(arr)

    # Plug-in entropy of the full sample: H = log n − S/n with
    # S = Σ c log c.  Removing one observation of a value with count c
    # gives n' = n − 1 and S' = S − c log c + (c−1) log(c−1).
    c_log_c = arr * np.log(arr)
    s_full = float(c_log_c.sum())
    c_minus_1 = arr - 1.0
    s_minus = s_full - c_log_c + c_minus_1 * np.log(np.maximum(c_minus_1, 1.0))
    h_minus = math.log(n - 1) - s_minus / (n - 1)
    loo_sum = float((arr * h_minus).sum())
    value = n * h_full - (n - 1) / n * loo_sum
    value = max(value, 0.0)
    if base is not None:
        value /= math.log(base)
    return value


def estimate_joint_entropy(
    relation: Relation,
    attributes: Iterable[str],
    *,
    estimator: str = "plug_in",
    base: float | None = None,
) -> float:
    """Joint entropy of a projection under a chosen estimator.

    ``estimator`` is ``"plug_in"``, ``"miller_madow"``, or
    ``"jackknife"``.
    """
    estimators = {
        "plug_in": plug_in,
        "miller_madow": miller_madow,
        "jackknife": jackknife,
    }
    if estimator not in estimators:
        raise DistributionError(
            f"unknown estimator {estimator!r}; choose from {sorted(estimators)}"
        )
    counts = relation.projection_count_values(attributes)
    return estimators[estimator](counts, base=base)
