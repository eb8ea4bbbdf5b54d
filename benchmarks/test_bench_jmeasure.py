"""Bench — engine-backed evaluation layer vs the pinned legacy paths.

The "analyze tier" of the evaluation refactor: for N=1e4 and N=1e5
random relations over a 3-bag chain schema, time one loss-profile
evaluation (J entropy form, J KL form, ρ, per-split losses) on

* the **legacy** row-based stack (``repro.core.legacy`` —
  ``EmpiricalDistribution`` marginals, dict-based factorized KL, the
  Python-bignum join DP, Counter-rekeyed split join sizes), and
* the **engine** stack (one cold :class:`~repro.core.evalcontext.EvalContext`
  per round: memoized columnar entropies, vectorized KL, bincount join
  counting).

Both stacks are asserted equal (ρ and split losses bit-for-bit, J forms
to 1e-9) before timing.  ``make bench-jmeasure`` appends a record —
timings, speedups, machine info — to ``BENCH_jmeasure.json`` at the
repo root (see ``bench_record.py``; a plain pytest run writes nothing).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.analysis import analyze
from repro.core.evalcontext import EvalContext
from repro.core.jmeasure import j_measure, j_measure_kl
from repro.core.legacy import legacy_loss_profile
from repro.core.loss import spurious_loss, support_split_losses
from repro.core.random_relations import random_relation
from repro.jointrees.build import jointree_from_schema

from bench_record import append_record

RESULTS_NAME = "BENCH_jmeasure.json"

TREE = jointree_from_schema([{"A", "B", "C"}, {"B", "C", "D"}, {"C", "D", "E"}])

_RECORD: dict = {
    "bench": "jmeasure_eval",
    "cpu_count": os.cpu_count(),
    "tiers": {},
}


@pytest.fixture(scope="module", autouse=True)
def _append_results():
    """Accumulate this session's numbers into the bench history file."""
    yield
    append_record(RESULTS_NAME, _RECORD)


def _make_relation(n: int, seed: int):
    sizes = {name: 16 for name in "ABCDE"}  # 16^5 ≈ 1.05M cells
    return random_relation(sizes, n, np.random.default_rng(seed))


def _cold(relation):
    relation.columns().clear_cache()
    relation._engine = None
    relation._eval = None
    return relation


def _engine_profile(relation) -> dict:
    """The engine-stack counterpart of ``legacy_loss_profile``."""
    context = EvalContext.for_relation(relation)
    return {
        "j_measure": j_measure(relation, TREE, engine=context.engine),
        "j_kl": j_measure_kl(relation, TREE),
        "rho": spurious_loss(relation, TREE, context=context),
        "split_losses": tuple(
            s.rho for s in support_split_losses(relation, TREE, context=context)
        ),
    }


def _best_of(func, rounds: int) -> tuple[float, dict]:
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.parametrize(
    "label,n,seed,engine_rounds,legacy_rounds",
    [("n=1e4", 10_000, 211, 5, 3), ("n=1e5", 100_000, 223, 5, 2)],
)
def test_bench_eval_tiers(label, n, seed, engine_rounds, legacy_rounds):
    relation = _make_relation(n, seed)

    engine_s, engine_result = _best_of(
        lambda: _engine_profile(_cold(relation)), engine_rounds
    )
    legacy_s, legacy_result = _best_of(
        lambda: legacy_loss_profile(relation, TREE), legacy_rounds
    )

    # Same numbers before any speed claims.
    assert engine_result["rho"] == legacy_result["rho"]
    assert engine_result["split_losses"] == legacy_result["split_losses"]
    assert abs(engine_result["j_measure"] - legacy_result["j_measure"]) < 1e-9
    assert abs(engine_result["j_kl"] - legacy_result["j_kl"]) < 1e-9

    # The full analyze() call (every bound included) on a warm context,
    # for scale: it should cost little more than the bare profile.
    analyze_s, _ = _best_of(lambda: analyze(relation, TREE), 3)

    speedup = legacy_s / engine_s if engine_s else float("nan")
    _RECORD["tiers"][label] = {
        "n_rows": n,
        "legacy_s": legacy_s,
        "engine_s": engine_s,
        "speedup": speedup,
        "analyze_full_warm_s": analyze_s,
    }
    print(
        f"\n[{label}] legacy {legacy_s * 1e3:.1f} ms, engine (cold) "
        f"{engine_s * 1e3:.1f} ms, speedup {speedup:.1f}x; "
        f"full analyze (warm) {analyze_s * 1e3:.1f} ms"
    )
