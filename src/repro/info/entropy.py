"""Entropy computations over relations and count vectors.

The paper's entropies are always taken over the empirical distribution of
a relation instance (Section 2.2): for a set ``Y ⊆ Ω`` of attributes,

    H(Y) = log N − (1/N) · Σ_y |R(Y=y)| · log |R(Y=y)|,

where the sum runs over the distinct values of the projection.  This module
computes that directly from multiplicity counts, avoiding the construction
of explicit probability dictionaries on hot paths.

Count/probability vectors are handled array-first: ndarray inputs are used
as-is (zeros masked with boolean indexing, no Python-level comprehension),
and relation-level entropies are answered by the relation's memoizing
:class:`~repro.info.engine.EntropyEngine` over its columnar counts, so
repeated queries for overlapping attribute subsets are computed once.

All functions return **nats** by default; pass ``base=2`` for bits.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from repro.errors import DistributionError, UnknownAttributeError
from repro.info.backends import sum_c_log_c
from repro.info.engine import EntropyEngine, _convert
from repro.relations.relation import Relation


def _as_float_array(values: Iterable[float]) -> np.ndarray:
    """Coerce counts/probs to a float64 ndarray without a Python loop."""
    if isinstance(values, np.ndarray):
        return values.astype(np.float64, copy=False)
    if not isinstance(values, (list, tuple)):
        values = list(values)
    return np.asarray(values, dtype=np.float64)


def entropy_of_counts(counts: Iterable[int], *, base: float | None = None) -> float:
    """Entropy of the empirical distribution given value multiplicities.

    ``counts`` are the multiplicities of each distinct value; they need not
    be normalized.  Zero counts are ignored.  Accepts any iterable, and
    ndarrays directly (zeros are masked with boolean indexing — no
    per-element Python comprehension).

    Examples
    --------
    >>> round(entropy_of_counts([1, 1, 1, 1], base=2), 6)
    2.0
    >>> import numpy as np
    >>> round(entropy_of_counts(np.array([2, 0, 2])), 6) == round(math.log(2), 6)
    True
    """
    arr = _as_float_array(counts)
    if arr.size:
        lo = float(arr.min())
        if lo < 0:
            raise DistributionError("counts must be non-negative")
        if lo == 0.0:
            arr = arr[arr != 0.0]
    if arr.size == 0:
        raise DistributionError("entropy of an empty count vector is undefined")
    total = float(arr.sum())
    h = math.log(total) - sum_c_log_c(arr) / total
    return _convert(max(h, 0.0), base)


def entropy_of_probs(probs: Iterable[float], *, base: float | None = None) -> float:
    """Entropy of an explicit probability vector (must sum to 1).

    Accepts ndarrays directly; non-positive entries are masked out with
    boolean indexing before the sum-to-one check, matching the historical
    behaviour of the list-comprehension implementation.
    """
    arr = _as_float_array(probs)
    arr = arr[arr > 0.0]
    if arr.size == 0:
        raise DistributionError("entropy of an empty distribution is undefined")
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-6:
        raise DistributionError(f"probabilities sum to {total}, expected 1")
    h = -sum_c_log_c(arr)
    return _convert(max(h, 0.0), base)


def joint_entropy(
    relation: Relation,
    attributes: Iterable[str],
    *,
    base: float | None = None,
    engine: EntropyEngine | None = None,
) -> float:
    """``H(attributes)`` under the empirical distribution of ``relation``.

    This is the joint entropy of the (possibly multi-attribute) projection,
    computed from columnar projection multiplicities and memoized per
    attribute subset on the relation's shared
    :class:`~repro.info.engine.EntropyEngine` (pass ``engine`` to reuse an
    explicit one).  For the full attribute set it equals ``log N`` because
    a relation instance is a set.
    """
    if relation.is_empty():
        raise DistributionError("entropy over an empty relation is undefined")
    if engine is None:
        engine = EntropyEngine.for_relation(relation)
    key = engine.key(attributes)
    if not key:
        raise UnknownAttributeError("projection onto the empty attribute set")
    return engine.entropy(key, base=base)


def relation_entropy(relation: Relation, *, base: float | None = None) -> float:
    """``H(Ω) = log N`` for a relation instance of size ``N``."""
    if relation.is_empty():
        raise DistributionError("entropy over an empty relation is undefined")
    return _convert(math.log(len(relation)), base)


def conditional_entropy(
    relation: Relation,
    targets: Iterable[str],
    given: Iterable[str],
    *,
    base: float | None = None,
    engine: EntropyEngine | None = None,
) -> float:
    """``H(targets | given) = H(targets ∪ given) − H(given)``.

    Clamped at zero to absorb floating-point noise.
    """
    targets = tuple(targets)
    given = tuple(given)
    if engine is None:
        engine = EntropyEngine.for_relation(relation)
    joint = joint_entropy(relation, set(targets) | set(given), base=base, engine=engine)
    if not given:
        return joint
    return max(joint - joint_entropy(relation, given, base=base, engine=engine), 0.0)


def max_entropy(support_size: int, *, base: float | None = None) -> float:
    """``log(support_size)`` — the uniform-distribution entropy ceiling."""
    if support_size <= 0:
        raise DistributionError("support size must be positive")
    return _convert(math.log(support_size), base)
