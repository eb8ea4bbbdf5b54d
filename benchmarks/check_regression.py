#!/usr/bin/env python
"""Benchmark-regression gate: fresh smoke benches vs committed baselines.

Re-runs a small, fast subset of the repo's benchmarks ("smoke" sizes)
and compares each tracked operation against the baseline recorded in the
committed ``BENCH_*.json`` files.  The gate fails (exit 1) when any
tracked op degrades by more than ``--factor`` (default 2x).

Tracked ops are **dimensionless ratios** (speedups, memory ratios), not
absolute wall-clock times, so the gate is portable across machines: a CI
runner that is uniformly 3x slower than the laptop that recorded the
baselines produces the same ratios.  Policy details live in
``docs/ci.md``.

Usage::

    python benchmarks/check_regression.py [--factor 2.0] [--report out.json]

Exit codes: 0 ok · 1 regression detected · 2 baseline missing/unreadable.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_PATH = REPO_ROOT / "src"
sys.path.insert(0, str(SRC_PATH))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))


def _last_record(path: Path) -> dict:
    """The most recent record of an append-style bench history file."""
    if not path.exists():
        raise FileNotFoundError(f"baseline file {path.name} is missing")
    history = json.loads(path.read_text())
    if isinstance(history, list):
        if not history:
            raise ValueError(f"baseline file {path.name} is empty")
        return history[-1]
    return history


def _last_record_with_tier(path: Path, tier: str) -> dict:
    """The most recent record that carries ``tier`` in its tiers map.

    Bench modules only record the tiers their selected tests ran, so a
    partial run (``pytest -k``) appends records without, say, the
    cluster tier.  Scanning backwards keeps those from shadowing the
    last real baseline.
    """
    if not path.exists():
        raise FileNotFoundError(f"baseline file {path.name} is missing")
    history = json.loads(path.read_text())
    if not isinstance(history, list):
        history = [history]
    for record in reversed(history):
        if isinstance(record, dict) and tier in record.get("tiers", {}):
            return record
    raise KeyError(f"no record in {path.name} carries tier {tier!r}")


# ----------------------------------------------------------------------
# Fresh smoke measurements (one function per tracked op family)
# ----------------------------------------------------------------------
def fresh_jmeasure_speedup() -> float:
    """Engine-vs-legacy loss-profile speedup at the N=1e4 tier."""
    import numpy as np

    from repro.core.evalcontext import EvalContext
    from repro.core.jmeasure import j_measure, j_measure_kl
    from repro.core.legacy import legacy_loss_profile
    from repro.core.loss import spurious_loss, support_split_losses
    from repro.core.random_relations import random_relation
    from repro.jointrees.build import jointree_from_schema

    tree = jointree_from_schema(
        [{"A", "B", "C"}, {"B", "C", "D"}, {"C", "D", "E"}]
    )
    sizes = {name: 16 for name in "ABCDE"}
    relation = random_relation(sizes, 10_000, np.random.default_rng(211))

    def engine_profile():
        # Same four quantities benchmarks/test_bench_jmeasure.py times
        # when it records the baseline — the ratio is only comparable if
        # both sides run the same recipe.
        relation.columns().clear_cache()
        relation._engine = None
        relation._eval = None
        context = EvalContext.for_relation(relation)
        j_measure(relation, tree, engine=context.engine)
        j_measure_kl(relation, tree)
        spurious_loss(relation, tree, context=context)
        support_split_losses(relation, tree, context=context)

    def best_of(func, rounds):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            func()
            best = min(best, time.perf_counter() - start)
        return best

    engine_s = best_of(engine_profile, 3)
    legacy_s = best_of(lambda: legacy_loss_profile(relation, tree), 2)
    return legacy_s / engine_s if engine_s else float("inf")


def fresh_entropy_memo_speedup() -> float:
    """Warm (memoized) vs cold joint-entropy query speedup, N=1e5."""
    import numpy as np

    from repro.core.random_relations import random_relation
    from repro.info.engine import EntropyEngine

    sizes = {name: 32 for name in "ABCD"}
    relation = random_relation(sizes, 100_000, np.random.default_rng(7))
    relation.columns()  # build codes outside the timed region
    subset = ["A", "B", "C"]

    # Mean over rounds, mirroring the pytest-benchmark *means* the
    # baseline file records — a min-vs-mean mismatch would bias the
    # fresh ratio low and eat the gate's headroom.
    rounds = 7
    total = 0.0
    for _ in range(rounds):
        relation.columns().clear_cache()
        engine = EntropyEngine(relation)
        start = time.perf_counter()
        engine.entropy(subset)
        total += time.perf_counter() - start
    cold_s = total / rounds

    engine = EntropyEngine.for_relation(relation)
    engine.entropy(subset)
    rounds = 2000
    start = time.perf_counter()
    for _ in range(rounds):
        engine.entropy(subset)
    warm_s = (time.perf_counter() - start) / rounds
    return cold_s / warm_s if warm_s else float("inf")


def fresh_lattice_counts_speedup() -> float:
    """Four-output ``np.unique`` vs ``counts()`` over the subset lattice."""
    import numpy as np

    from repro.core.random_relations import random_relation
    from test_bench_entropy_engine import (
        LATTICE_ROUNDS,
        LATTICE_SIZES,
        N_ROWS,
        lattice_counts,
        lattice_unique,
    )

    rng = np.random.default_rng(17)
    store = random_relation(LATTICE_SIZES, N_ROWS, rng).columns()

    # Means over the bench's round count, like the recorded baseline.
    def mean_of(func):
        start = time.perf_counter()
        for _ in range(LATTICE_ROUNDS):
            func(store)
        return (time.perf_counter() - start) / LATTICE_ROUNDS

    counts_s = mean_of(lattice_counts)
    unique_s = mean_of(lattice_unique)
    return unique_s / counts_s if counts_s else float("inf")


_fresh_service_tier: dict | None = None


def _fresh_service_metrics() -> dict:
    """One service smoke-tier run, shared by both service tracked ops."""
    global _fresh_service_tier
    if _fresh_service_tier is None:
        import tempfile

        from test_bench_service import run_service_tier

        with tempfile.TemporaryDirectory() as tmp:
            _fresh_service_tier = run_service_tier(
                20_000, 31, Path(tmp) / "service_bench.csv"
            )
    return _fresh_service_tier


def fresh_service_warm_speedup() -> float:
    """Cold-vs-warm HTTP mine latency ratio at the service smoke tier."""
    return _fresh_service_metrics()["warm_http_speedup"]


def fresh_service_faults_idle_ratio() -> float:
    """Warm latency with faults disabled vs armed-but-idle (≈1 is free)."""
    return _fresh_service_metrics()["faults_idle_speedup"]


def fresh_service_telemetry_overhead_ratio() -> float:
    """Warm HTTP latency telemetry-on vs telemetry-off (1.0 is free)."""
    return _fresh_service_metrics()["telemetry_overhead_warm_ratio"]


def fresh_service_append_revalidate_speedup() -> float:
    """Append + cache revalidation vs from-scratch ingest + re-mine."""
    return _fresh_service_metrics()["append_revalidate_vs_remine_speedup"]


def fresh_cluster_rps_ratio() -> float:
    """worker_procs=2 vs single-process throughput on uncached load."""
    import tempfile

    from test_bench_service import run_cluster_tier

    with tempfile.TemporaryDirectory() as tmp:
        tier = run_cluster_tier(20_000, 59, Path(tmp))
    return tier["cluster_vs_single_proc_rps_ratio"]


_fresh_store_tier: dict | None = None


def _fresh_store_metrics() -> dict:
    """One store smoke-tier run, shared by both store tracked ops."""
    global _fresh_store_tier
    if _fresh_store_tier is None:
        import tempfile

        from test_bench_store import run_batch_tier, run_store_tier

        with tempfile.TemporaryDirectory() as tmp:
            _fresh_store_tier = run_store_tier(20_000, 41, Path(tmp))
            _fresh_store_tier.update(
                run_batch_tier(20_000, 141, Path(tmp) / "batch.csv")
            )
    return _fresh_store_tier


def fresh_store_snapshot_speedup() -> float:
    """Snapshot mmap reload vs CSV re-ingest at the store smoke tier."""
    return _fresh_store_metrics()["snapshot_vs_csv_reload_speedup"]


def fresh_batch_dispatch_speedup() -> float:
    """Batch-of-8 vs 8 singleton HTTP jobs at the store smoke tier."""
    return _fresh_store_metrics()["batch_vs_singleton_dispatch_speedup"]


def fresh_append_fingerprint_speedup() -> float:
    """Append-then-fingerprint vs a from-scratch fingerprint, 2e4 rows."""
    import tempfile

    from test_bench_store import run_fingerprint_tier

    with tempfile.TemporaryDirectory() as tmp:
        tier = run_fingerprint_tier(20_000, 241, Path(tmp))
    return tier["append_incremental_vs_scratch_fingerprint_speedup"]


def fresh_csv_ingest_speedup() -> float:
    """Tuple-route yardstick over ``read_csv`` ingest, 1e5 rows."""
    import tempfile

    from test_bench_streaming import (
        INGEST_ROWS,
        ingest_timings,
        write_ingest_csv,
    )

    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "ingest.csv"
        write_ingest_csv(csv_path, INGEST_ROWS, 409)
        return ingest_timings(csv_path)["speedup"]


def fresh_streaming_rss_ratio() -> float:
    """Eager-vs-stream peak-RSS ratio at the streaming smoke tier."""
    import tempfile

    from test_bench_streaming import run_probe, write_planted_csv

    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "planted.csv"
        write_planted_csv(csv_path, 100_000, 307)
        eager = run_probe(csv_path, chunk_rows=None, backend_name="exact")
        stream = run_probe(csv_path, chunk_rows=50_000, backend_name="sketch")
    return eager["peak_rss_kb"] / max(stream["peak_rss_kb"], 1)


def fresh_batch_scoring_speedup() -> float:
    """Root-batch ``score_batch`` vs per-candidate ``engine.cmi``, 12 attrs."""
    from test_bench_strategies import root_batch_scoring, width_tier_relation

    relation = width_tier_relation("planted_12attrs")
    result = root_batch_scoring(relation)
    return result["batch_scoring_vs_per_candidate_cmi_speedup"]


# ----------------------------------------------------------------------
# Baseline extraction
# ----------------------------------------------------------------------
def baseline_jmeasure_speedup() -> float:
    record = _last_record(REPO_ROOT / "BENCH_jmeasure.json")
    return float(record["tiers"]["n=1e4"]["speedup"])


def _entropy_engine_means() -> dict[str, float]:
    """Mean seconds per bench in the recorded entropy-engine baseline."""
    doc = _last_record(REPO_ROOT / "BENCH_entropy_engine.json")
    return {
        bench["name"]: bench["stats"]["mean"] for bench in doc["benchmarks"]
    }


def baseline_entropy_memo_speedup() -> float:
    means = _entropy_engine_means()
    return means["test_bench_entropy_cold"] / means["test_bench_entropy_warm"]


def baseline_lattice_counts_speedup() -> float:
    means = _entropy_engine_means()
    unique_s = means["test_bench_lattice_unique"]
    return unique_s / means["test_bench_lattice_counts"]


def baseline_streaming_rss_ratio() -> float:
    record = _last_record(REPO_ROOT / "BENCH_streaming.json")
    return float(
        record["tiers"]["n=1e5"]["peak_rss_ratio_eager_over_stream"]
    )


def baseline_csv_ingest_speedup() -> float:
    record = _last_record_with_tier(
        REPO_ROOT / "BENCH_streaming.json", "csv-ingest n=1e5"
    )
    return float(record["tiers"]["csv-ingest n=1e5"]["speedup"])


def baseline_service_warm_speedup() -> float:
    record = _last_record_with_tier(REPO_ROOT / "BENCH_service.json", "n=2e4")
    return float(record["tiers"]["n=2e4"]["warm_http_speedup"])


def baseline_service_faults_idle_ratio() -> float:
    record = _last_record_with_tier(REPO_ROOT / "BENCH_service.json", "n=2e4")
    return float(record["tiers"]["n=2e4"]["faults_idle_speedup"])


def baseline_service_append_revalidate_speedup() -> float:
    record = _last_record_with_tier(REPO_ROOT / "BENCH_service.json", "n=2e4")
    return float(
        record["tiers"]["n=2e4"]["append_revalidate_vs_remine_speedup"]
    )


def baseline_service_telemetry_overhead_ratio() -> float:
    record = _last_record_with_tier(REPO_ROOT / "BENCH_service.json", "n=2e4")
    return float(record["tiers"]["n=2e4"]["telemetry_overhead_warm_ratio"])


def baseline_cluster_rps_ratio() -> float:
    record = _last_record_with_tier(
        REPO_ROOT / "BENCH_service.json", "cluster@n=2e4"
    )
    return float(
        record["tiers"]["cluster@n=2e4"]["cluster_vs_single_proc_rps_ratio"]
    )


def baseline_batch_scoring_speedup() -> float:
    record = _last_record_with_tier(
        REPO_ROOT / "BENCH_discovery_strategies.json", "planted_12attrs"
    )
    return float(
        record["tiers"]["planted_12attrs"][
            "batch_scoring_vs_per_candidate_cmi_speedup"
        ]
    )


def baseline_store_snapshot_speedup() -> float:
    record = _last_record(REPO_ROOT / "BENCH_store.json")
    return float(record["tiers"]["n=2e4"]["snapshot_vs_csv_reload_speedup"])


def baseline_batch_dispatch_speedup() -> float:
    record = _last_record(REPO_ROOT / "BENCH_store.json")
    return float(
        record["tiers"]["n=2e4"]["batch_vs_singleton_dispatch_speedup"]
    )


def baseline_append_fingerprint_speedup() -> float:
    record = _last_record_with_tier(REPO_ROOT / "BENCH_store.json", "n=2e4")
    return float(
        record["tiers"]["n=2e4"][
            "append_incremental_vs_scratch_fingerprint_speedup"
        ]
    )


#: name → (baseline extractor, fresh measurement, slack).  All values
#: are "higher is better" ratios; the gate fails when
#: fresh < baseline / (factor · slack).  ``slack`` > 1 widens the floor
#: for ops whose fresh measurement is microbenchmark-noisy on shared
#: runners (the warm-memo op times a ~µs dict hit against a ~100µs
#: group-by, so scheduler noise moves the ratio more than real
#: regressions the other ops wouldn't also catch).
TRACKED_OPS = {
    "jmeasure/engine_vs_legacy_speedup@1e4": (
        baseline_jmeasure_speedup,
        fresh_jmeasure_speedup,
        1.0,
    ),
    "entropy_engine/warm_memo_speedup@1e5": (
        baseline_entropy_memo_speedup,
        fresh_entropy_memo_speedup,
        1.5,
    ),
    # The counting kernel against a fixed stable-sort yardstick: both
    # sides are ~0.3-3 s loops of numpy sorts on the same keys.
    "entropy_engine/lattice_counts_vs_unique_speedup@1e5": (
        baseline_lattice_counts_speedup,
        fresh_lattice_counts_speedup,
        1.0,
    ),
    "streaming/peak_rss_ratio_eager_over_stream@1e5": (
        baseline_streaming_rss_ratio,
        fresh_streaming_rss_ratio,
        1.0,
    ),
    # CSV ingest against a fixed tuple-route yardstick: both sides are
    # ~0.2-2 s of parsing the same file in one process.
    "streaming/csv_ingest_vs_tuple_reference_speedup@1e5": (
        baseline_csv_ingest_speedup,
        fresh_csv_ingest_speedup,
        1.0,
    ),
    # Split scoring: one mask gather over the ≈34k-candidate root batch
    # against a loop of public engine.cmi calls, memo warm on both
    # sides; best-of-3 loops of tens of ms each.
    "discovery/batch_scoring_vs_per_candidate_cmi_speedup@12attrs": (
        baseline_batch_scoring_speedup,
        fresh_batch_scoring_speedup,
        1.0,
    ),
    # Warm requests are ~ms HTTP round trips, so scheduler noise moves
    # this ratio like the warm-memo op; same widened floor.
    "service/warm_vs_cold_http_speedup@2e4": (
        baseline_service_warm_speedup,
        fresh_service_warm_speedup,
        1.5,
    ),
    # Resilience overhead: warm HTTP latency with the fault harness
    # disabled vs armed-but-idle.  Baseline ≈ 1.0 (the hooks are a dict
    # lookup); a real slowdown in the injection plumbing drags the
    # fresh ratio down.  Both sides are ~ms round trips → widened floor.
    "service/faults_idle_warm_ratio@2e4": (
        baseline_service_faults_idle_ratio,
        fresh_service_faults_idle_ratio,
        1.5,
    ),
    # Snapshot reloads are sub-ms mmap opens vs ~50ms CSV parses, so the
    # ratio is large but the numerator is noise-prone → widened floor.
    "store/snapshot_vs_csv_reload_speedup@2e4": (
        baseline_store_snapshot_speedup,
        fresh_store_snapshot_speedup,
        1.5,
    ),
    # Both sides are ~100ms of identical compute plus HTTP round trips;
    # the delta (what the batch saves) is ms-scale → widened floor.
    "service/batch_vs_singleton_dispatch_speedup@2e4": (
        baseline_batch_dispatch_speedup,
        fresh_batch_dispatch_speedup,
        1.5,
    ),
    # Delta ingest: append + revalidated cache hit vs from-scratch
    # register + re-mine of the concatenated CSV.  The numerator is a
    # full cold mine (~s) and the denominator mixes an O(N) append with
    # a ~ms warm hit, so scheduler noise on the small side moves the
    # ratio → widened floor.
    "service/append_revalidate_vs_remine_speedup@2e4": (
        baseline_service_append_revalidate_speedup,
        fresh_service_append_revalidate_speedup,
        1.5,
    ),
    # Cluster scale-out (or, on one core, dispatch overhead): the ratio
    # depends on the runner's core count, so the gate only guards
    # against the ratio collapsing relative to its own baseline —
    # recorded on the same class of machine.  Thread-scheduling noise on
    # both sides → widened floor.
    "service/cluster_vs_single_proc_rps_ratio@2e4": (
        baseline_cluster_rps_ratio,
        fresh_cluster_rps_ratio,
        1.5,
    ),
}

#: name → (baseline extractor, fresh measurement, ceiling).  Unlike
#: TRACKED_OPS these are **lower is better** overhead ratios gated
#: against an *absolute* ceiling, not a baseline-relative floor: the
#: observability bar is "telemetry may cost at most 15% of a warm hit"
#: on any machine, so a uniformly slower runner must not shift it.  The
#: committed baseline is still printed for context.
CEILING_OPS = {
    # Warm HTTP mine latency with per-request telemetry on vs off,
    # min-of-N interleaved (see run_telemetry_overhead_tier).
    "service/telemetry_overhead_warm_ratio@2e4": (
        baseline_service_telemetry_overhead_ratio,
        fresh_service_telemetry_overhead_ratio,
        1.15,
    ),
}

#: name → (baseline extractor, fresh measurement, floor).  **Higher is
#: better** ratios gated against an *absolute* floor, for properties
#: that hold on any machine rather than relative to a recording.
FLOOR_OPS = {
    # An append fingerprints only its delta: extended_with(64 rows) +
    # fingerprint() against a from-scratch fingerprint() of the same
    # 2e4 rows (best of 5 each).  Falling toward 1x means appends
    # re-hash the whole relation again.
    "store/append_incremental_vs_scratch_fingerprint_speedup@2e4": (
        baseline_append_fingerprint_speedup,
        fresh_append_fingerprint_speedup,
        4.0,
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="maximum tolerated degradation (fresh may not fall below "
        "baseline/factor); default 2.0",
    )
    parser.add_argument(
        "--report",
        default=None,
        help="also write the gate's verdicts to this JSON file",
    )
    args = parser.parse_args(argv)
    if args.factor <= 1.0:
        parser.error(f"--factor must be > 1, got {args.factor}")

    results = []
    failures = 0
    errors = 0
    for name, (baseline_fn, fresh_fn, slack) in TRACKED_OPS.items():
        try:
            baseline = baseline_fn()
        except (FileNotFoundError, KeyError, ValueError, json.JSONDecodeError) as exc:
            print(f"[gate] ERROR {name}: unusable baseline ({exc})")
            errors += 1
            results.append({"op": name, "error": f"baseline: {exc}"})
            continue
        try:
            fresh = fresh_fn()
        except Exception as exc:  # an unmeasurable op is infra trouble,
            # not a regression — report it distinctly and keep going so
            # the report file still covers every op.
            print(f"[gate] ERROR {name}: fresh measurement failed ({exc})")
            errors += 1
            results.append(
                {"op": name, "baseline": baseline, "error": f"fresh: {exc}"}
            )
            continue
        floor = baseline / (args.factor * slack)
        ok = fresh >= floor
        failures += 0 if ok else 1
        verdict = "ok" if ok else "REGRESSION"
        print(
            f"[gate] {verdict:>10}  {name}: fresh {fresh:.2f}x vs baseline "
            f"{baseline:.2f}x (floor {floor:.2f}x)"
        )
        results.append(
            {
                "op": name,
                "baseline": baseline,
                "fresh": fresh,
                "floor": floor,
                "slack": slack,
                "ok": ok,
            }
        )

    absolute = [
        (name, spec, "ceiling") for name, spec in CEILING_OPS.items()
    ] + [(name, spec, "floor") for name, spec in FLOOR_OPS.items()]
    for name, (baseline_fn, fresh_fn, bound), kind in absolute:
        try:
            baseline = baseline_fn()
        except (FileNotFoundError, KeyError, ValueError, json.JSONDecodeError) as exc:
            print(f"[gate] ERROR {name}: unusable baseline ({exc})")
            errors += 1
            results.append({"op": name, "error": f"baseline: {exc}"})
            continue
        try:
            fresh = fresh_fn()
        except Exception as exc:
            print(f"[gate] ERROR {name}: fresh measurement failed ({exc})")
            errors += 1
            results.append(
                {"op": name, "baseline": baseline, "error": f"fresh: {exc}"}
            )
            continue
        ok = fresh <= bound if kind == "ceiling" else fresh >= bound
        failures += 0 if ok else 1
        verdict = "ok" if ok else "REGRESSION"
        print(
            f"[gate] {verdict:>10}  {name}: fresh {fresh:.2f}x vs absolute "
            f"{kind} {bound:.2f}x (baseline {baseline:.2f}x)"
        )
        results.append(
            {
                "op": name,
                "baseline": baseline,
                "fresh": fresh,
                kind: bound,
                "ok": ok,
            }
        )

    report = {
        "factor": args.factor,
        "timestamp": time.time(),
        "ok": failures == 0 and errors == 0,
        "ops": results,
    }
    if args.report:
        Path(args.report).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
    if failures:
        print(f"[gate] FAILED: {failures} tracked op(s) regressed >{args.factor}x")
        return 1
    if errors:
        print(f"[gate] ERROR: {errors} tracked op(s) could not be evaluated")
        return 2
    print(f"[gate] all {len(results)} tracked ops within {args.factor}x of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
