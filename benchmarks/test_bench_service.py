"""Bench — the serving layer: cold vs warm latency, concurrent throughput.

The acceptance scenario of the service PR, measured end to end over
HTTP against an in-process server:

* **cold**: register a dataset and run its first `mine` job (full
  compute on a worker thread), the median over three datasets of one
  shape;
* **warm**: repeat the identical request — a result-cache hit that
  never touches a worker (asserted ≥ 10x faster than cold, both at the
  HTTP round-trip level and server-side);
* **throughput**: 8 concurrent clients hammering warm mine/analyze
  requests — both operations are cached *before* the timed phase, and
  the phase runs three times with the **median** requests/second
  reported (one descheduled round cannot skew the record);
* **append**: delta-ingest a small tail onto a mined 8-column dataset
  and answer ``mine`` on the new version from the **revalidated**
  result cache — the server-side revalidate + hit must beat the full
  re-mine job on a fresh register of the concatenated CSV
  (``append_revalidate_vs_remine_speedup``, asserted ≥ 10x — the
  delta-ingest acceptance bar);
* **cluster**: the same service with ``worker_procs`` subprocess
  shards vs single-process, on an uncached mixed-dataset workload —
  ``cluster_vs_single_proc_rps_ratio`` is the scale-out factor (or,
  below four cores, the dispatch-overhead factor).

``make bench-service`` appends a record to ``BENCH_service.json`` at
the repo root (see ``bench_record.py``).  The smoke tier (N=2·10⁴ rows) always
runs; the full tier (N=10⁵) is opt-in via ``BENCH_SERVICE_FULL=1``;
``make bench-cluster`` adds a worker-count sweep
(``BENCH_CLUSTER_SWEEP=1``).
"""

from __future__ import annotations

import itertools
import os
import statistics
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.random_relations import random_relation
from repro.factorize.report import validate_report
from repro.relations.io import write_csv
from repro.service import Service, ServiceClient, ServiceConfig

from bench_record import append_record

RESULTS_NAME = "BENCH_service.json"

_RECORD: dict = {
    "bench": "service_layer",
    "cpu_count": os.cpu_count(),
    "tiers": {},
}


@pytest.fixture(scope="module", autouse=True)
def _append_results():
    """Accumulate this session's numbers into the bench history file."""
    yield
    if _RECORD["tiers"]:
        append_record(RESULTS_NAME, _RECORD)


def _tier_params():
    tiers = [("n=2e4", 20_000, 31)]
    if os.environ.get("BENCH_SERVICE_FULL"):
        tiers.append(("n=1e5", 100_000, 37))
    return tiers


#: Warm cached round trips per tier; the warm time is their minimum.
WARM_ROUND_TRIPS = 30

#: Datasets of one shape whose first ``mine`` times the cold side; the
#: cold time is the median of their round trips.
COLD_DATASETS = 3


def run_service_tier(n_rows: int, seed: int, csv_path: Path) -> dict:
    """Measure one tier against a fresh in-process service; return metrics."""
    rng = np.random.default_rng(seed)
    cold_paths = [csv_path] + [
        csv_path.with_name(f"{csv_path.stem}-{k}.csv")
        for k in range(1, COLD_DATASETS)
    ]
    for path in cold_paths:
        relation = random_relation({name: 16 for name in "ABCDE"}, n_rows, rng)
        write_csv(relation, path)

    with Service(ServiceConfig(port=0, workers=2, max_queue=1024)) as service:
        client = ServiceClient(f"http://127.0.0.1:{service.port}")

        start = time.perf_counter()
        dataset = client.register_dataset(path=str(csv_path))
        register_s = time.perf_counter() - start
        fp = dataset["fingerprint"]

        # One cold mine is a single 7-14 ms sample at n=2e4, so one
        # scheduler stall could sink the warm/cold ratio: the cold side
        # is the median over datasets of the same shape (distinct data,
        # so distinct fingerprints and no cache hit between them).
        cold_fps = [fp] + [
            client.register_dataset(path=str(path))["fingerprint"]
            for path in cold_paths[1:]
        ]
        assert len(set(cold_fps)) == COLD_DATASETS, cold_fps
        cold_http, cold_service = [], []
        for cold_fp in cold_fps:
            start = time.perf_counter()
            cold = client.run(cold_fp, "mine", {"strategy": "beam"}, timeout=600)
            cold_http.append(time.perf_counter() - start)
            assert cold["state"] == "done" and not cold["cached"], cold
            validate_report(cold["result"])
            cold_service.append(cold["service_time_s"])
        cold_http_s = statistics.median(cold_http)
        cold_service_s = statistics.median(cold_service)

        # The warm side is a ~1-2 ms round trip, so it is the minimum
        # over many of them: one noisy stretch of a loaded host cannot
        # sink the warm/cold ratio.
        warm_http_s = float("inf")
        warm_service_s = float("inf")
        for _ in range(WARM_ROUND_TRIPS):
            start = time.perf_counter()
            warm = client.run(fp, "mine", {"strategy": "beam"})
            warm_http_s = min(warm_http_s, time.perf_counter() - start)
            warm_service_s = min(warm_service_s, warm["service_time_s"])
            assert warm["cached"] is True, warm

        # Concurrent warm traffic: 8 clients × 25 requests.  Both ops
        # are cached BEFORE the timed phase (the old recipe paid one
        # cold analyze inside the measurement), and the phase runs
        # three times with the median reported — a single descheduled
        # round cannot skew the record.
        analyze_first = client.run(
            fp, "analyze", {"schema": "A,B;B,C;C,D;D,E"}, timeout=600
        )
        assert analyze_first["state"] == "done", analyze_first
        clients, per_client = 8, 25

        def hammer(k: int, errors: list) -> None:
            try:
                own = ServiceClient(f"http://127.0.0.1:{service.port}")
                for i in range(per_client):
                    op = "mine" if (k + i) % 2 else "analyze"
                    params = (
                        {"strategy": "beam"}
                        if op == "mine"
                        else {"schema": "A,B;B,C;C,D;D,E"}
                    )
                    view = own.run(fp, op, params, timeout=600)
                    assert view["state"] == "done", view
            except Exception as exc:
                errors.append(exc)

        round_rps = []
        for _ in range(3):
            errors: list = []
            threads = [
                threading.Thread(target=hammer, args=(k, errors))
                for k in range(clients)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - start
            assert not errors, errors[:3]
            round_rps.append(clients * per_client / wall)
        concurrent_rps = statistics.median(round_rps)
        concurrent_s = clients * per_client / concurrent_rps

        stats = client.stats()
        tier = {
            "n_rows_written": n_rows,
            "n_rows_distinct": dataset["n_rows"],
            "register_s": register_s,
            "cold_http_s": cold_http_s,
            "cold_http_s_samples": cold_http,
            "cold_service_s": cold_service_s,
            "warm_http_s": warm_http_s,
            "warm_service_s": warm_service_s,
            "warm_http_speedup": cold_http_s / max(warm_http_s, 1e-9),
            "warm_service_speedup": cold_service_s / max(warm_service_s, 1e-9),
            "concurrent_clients": clients,
            "concurrent_requests": clients * per_client,
            "concurrent_s": concurrent_s,
            "concurrent_rps": concurrent_rps,
            "concurrent_rps_rounds": round_rps,
            "cache_hit_rate": stats["cache"]["hit_rate"],
        }

    # Resilience overhead: the same warm path with the fault harness
    # armed but idle (times=0 rules: hooks evaluated, nothing fires) —
    # what production pays for keeping the machinery compiled in.
    idle_plan = {
        "seed": 0,
        "rules": [
            {"site": "http.drop", "times": 0},
            {"site": "http.stall", "times": 0},
            {"site": "http.truncate", "times": 0},
            {"site": "jobs.worker_crash", "times": 0},
            {"site": "jobs.slow", "times": 0},
            {"site": "jobs.oom", "times": 0},
            {"site": "cache.spill_write_torn", "times": 0},
        ],
    }
    with Service(
        ServiceConfig(port=0, workers=2, max_queue=1024, fault_plan=idle_plan)
    ) as service:
        client = ServiceClient(f"http://127.0.0.1:{service.port}")
        fp = client.register_dataset(path=str(csv_path))["fingerprint"]
        first = client.run(fp, "mine", {"strategy": "beam"}, timeout=600)
        assert first["state"] == "done", first
        warm_http_s_faults_idle = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            warm = client.run(fp, "mine", {"strategy": "beam"})
            warm_http_s_faults_idle = min(
                warm_http_s_faults_idle, time.perf_counter() - start
            )
            assert warm["cached"] is True, warm
        stats = client.stats()
        assert stats["faults"]["enabled"] and stats["faults"]["total_fired"] == 0
    tier["warm_http_s_faults_idle"] = warm_http_s_faults_idle
    # >1 means idle faults were "faster" (noise); the gate tracks the
    # inverse, so only a genuine slowdown can trip it.
    tier["faults_idle_speedup"] = tier["warm_http_s"] / max(
        warm_http_s_faults_idle, 1e-9
    )
    tier.update(run_telemetry_overhead_tier(csv_path))
    tier.update(run_append_tier(n_rows, seed, csv_path))
    return tier


def run_telemetry_overhead_tier(csv_path: Path, reps: int = 60) -> dict:
    """What per-request telemetry costs on the warm path.

    Two otherwise-identical services — telemetry on vs off — primed
    with the same cached mine, then the same warm request timed
    ``reps`` times on each, *interleaved* so scheduler drift hits both
    sides alike.  The tracked ratio (min-on / min-off) is the
    observability acceptance bar: spans + histogram observations + the
    non-blocking log enqueue may cost at most 15% of a warm hit.
    """
    base = dict(port=0, workers=2, max_queue=1024)
    with Service(ServiceConfig(telemetry=True, **base)) as on_service, Service(
        ServiceConfig(telemetry=False, **base)
    ) as off_service:
        sides = {}
        for label, service in (("on", on_service), ("off", off_service)):
            client = ServiceClient(f"http://127.0.0.1:{service.port}")
            fp = client.register_dataset(path=str(csv_path))["fingerprint"]
            first = client.run(fp, "mine", {"strategy": "beam"}, timeout=600)
            assert first["state"] == "done", first
            warm = client.run(fp, "mine", {"strategy": "beam"})
            assert warm["cached"] is True, warm
            sides[label] = (client, fp, [])
        for _ in range(reps):
            for client, fp, samples in sides.values():
                start = time.perf_counter()
                view = client.run(fp, "mine", {"strategy": "beam"})
                samples.append(time.perf_counter() - start)
                assert view["cached"] is True, view
        warm_on = min(sides["on"][2])
        warm_off = min(sides["off"][2])
        summary = sides["on"][0].stats()["metrics"]
        assert summary["enabled"] is True, summary
        assert sides["off"][0].stats()["metrics"]["enabled"] is False
    return {
        "warm_http_s_telemetry_on": warm_on,
        "warm_http_s_telemetry_off": warm_off,
        "telemetry_overhead_warm_ratio": warm_on / max(warm_off, 1e-9),
    }


APPEND_DELTA_ROWS = 64
#: Equal-size appends chained onto one dataset; the revalidation time is
#: their minimum, as the warm side takes the minimum of its round trips.
APPEND_ROUNDS = 3


def _write_append_tier_csv(path: Path, n_rows: int, seed: int) -> None:
    """An 8-column table with a planted class column ``C``.

    Per class the (A,B), (D,E) and (F,G,H) tuples are drawn from
    independent per-class pools.  Eight attributes make a full beam
    re-mine pay a combinatorial separator search (~200 ms at 2·10⁴
    rows), while revalidating the one cached jointree is a single
    ``analyze()`` of a fixed tree (~6 ms) — the asymmetry the
    delta-ingest acceptance ratio measures.
    """
    rng = np.random.default_rng(seed)
    classes, pool = 16, 8
    ab_pool = rng.integers(0, 32, size=(classes, pool, 2))
    de_pool = rng.integers(0, 32, size=(classes, pool, 2))
    fgh_pool = rng.integers(0, 32, size=(classes, pool, 3))
    c = rng.integers(0, classes, size=n_rows)
    table = np.column_stack(
        [
            ab_pool[c, rng.integers(0, pool, size=n_rows)],
            c,
            de_pool[c, rng.integers(0, pool, size=n_rows)],
            fgh_pool[c, rng.integers(0, pool, size=n_rows)],
        ]
    )
    lines = ["A,B,C,D,E,F,G,H"]
    lines.extend(",".join(str(int(v)) for v in row) for row in table)
    path.write_text("\n".join(lines) + "\n")


def run_append_tier(n_rows: int, seed: int, csv_path: Path) -> dict:
    """Cached-jointree revalidation after a small delta vs full re-mine.

    The append side delta-ingests ``APPEND_ROUNDS`` deltas of
    ``APPEND_DELTA_ROWS`` rows each over ``POST
    /v1/datasets/{fp}/append``, one after another, and answers ``mine``
    on the last version from the **revalidated** result cache; the
    revalidation time is the minimum over the rounds, so one
    descheduled round cannot sink the ratio.  The re-mine side
    registers the concatenated CSV on a fresh server and runs the mine
    job cold.  The tracked ratio compares the *maintenance work* both
    sides pay server-side to produce that answer — revalidation
    (re-scoring the cached fixed tree) plus the cache hit, vs the full
    mine job — because the O(N) ingest (append rebuild vs register) is
    paid on both sides and would only dilute the signal.  The appended
    fingerprint must equal the concatenated-ingest fingerprint (the
    versioned-chain correctness property), so the two sides provably
    answer about the same relation.
    """
    base_path = csv_path.with_name("service_bench_append_base.csv")
    concat_path = csv_path.with_name("service_bench_append_concat.csv")
    _write_append_tier_csv(base_path, n_rows, seed + 2)
    delta_paths = []
    concat_text = base_path.read_text()
    for round_index in range(APPEND_ROUNDS):
        delta_path = csv_path.with_name(
            f"service_bench_append_delta_{round_index}.csv"
        )
        _write_append_tier_csv(
            delta_path, APPEND_DELTA_ROWS, seed + 3 + round_index
        )
        delta_paths.append(delta_path)
        concat_text += delta_path.read_text().split("\n", 1)[1]
    concat_path.write_text(concat_text)

    spill_a = csv_path.with_name("append_spill_a")
    spill_b = csv_path.with_name("append_spill_b")
    config = dict(port=0, workers=2, max_queue=1024)
    with Service(ServiceConfig(spill_dir=spill_a, **config)) as service:
        client = ServiceClient(f"http://127.0.0.1:{service.port}")
        fp = client.register_dataset(path=str(base_path))["fingerprint"]
        cold = client.run(fp, "mine", {"strategy": "beam"}, timeout=600)
        assert cold["state"] == "done", cold

        append_http_s = float("inf")
        revalidate_s = float("inf")
        new_fp = fp
        for delta_path in delta_paths:
            start = time.perf_counter()
            out = client.append_dataset(new_fp, path=str(delta_path))
            append_http_s = min(append_http_s, time.perf_counter() - start)
            assert out["changed"] is True, out
            assert out["revalidation"]["revalidated"] >= 1, out["revalidation"]
            revalidate_s = min(revalidate_s, out["revalidation"]["wall_time_s"])
            new_fp = out["fingerprint"]

        hit_http_s = float("inf")
        hit_service_s = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            warm = client.run(new_fp, "mine", {"strategy": "beam"})
            hit_http_s = min(hit_http_s, time.perf_counter() - start)
            hit_service_s = min(hit_service_s, warm["service_time_s"])
            assert warm["cached"] is True, warm
            assert warm["result"]["revalidated"] is True, warm["result"]

    with Service(ServiceConfig(spill_dir=spill_b, **config)) as service:
        client = ServiceClient(f"http://127.0.0.1:{service.port}")
        start = time.perf_counter()
        dataset = client.register_dataset(path=str(concat_path))
        remine_register_s = time.perf_counter() - start
        # Chain correctness on real data: append == concat-then-ingest.
        assert dataset["fingerprint"] == new_fp, (dataset, new_fp)
        start = time.perf_counter()
        remine = client.run(new_fp, "mine", {"strategy": "beam"}, timeout=600)
        remine_http_s = time.perf_counter() - start
        assert remine["state"] == "done" and not remine["cached"], remine

    return {
        "append_delta_rows": APPEND_DELTA_ROWS,
        "append_rounds": APPEND_ROUNDS,
        "append_http_s": append_http_s,
        "append_revalidated_entries": out["revalidation"]["revalidated"],
        "append_revalidate_s": revalidate_s,
        "append_revalidated_hit_http_s": hit_http_s,
        "append_revalidated_hit_service_s": hit_service_s,
        "remine_register_s": remine_register_s,
        "remine_http_s": remine_http_s,
        "remine_service_s": remine["service_time_s"],
        "append_revalidate_vs_remine_speedup": (
            remine["service_time_s"]
            / max(revalidate_s + hit_service_s, 1e-9)
        ),
        # End-to-end (ingest included on both sides), for context.
        "append_e2e_vs_reingest_remine_speedup": (
            (remine_register_s + remine_http_s)
            / max(append_http_s + hit_http_s, 1e-9)
        ),
    }


# ----------------------------------------------------------------------
# Cluster scale-out: worker_procs=N vs single-process
# ----------------------------------------------------------------------
CLUSTER_DATASETS = 4
CLUSTER_OPS_PER_DATASET = 6
CLUSTER_CLIENTS = 8


def _chain_schemas(count: int) -> list[str]:
    """``count`` distinct spanning-chain schemas over A..E (distinct
    bag sets, so every op is a genuine cache miss)."""
    schemas: list[str] = []
    seen = set()
    for perm in itertools.permutations("ABCDE"):
        bags = frozenset(
            frozenset((perm[i], perm[i + 1])) for i in range(4)
        )
        if bags in seen:
            continue
        seen.add(bags)
        schemas.append(";".join(f"{perm[i]},{perm[i + 1]}" for i in range(4)))
        if len(schemas) == count:
            return schemas
    raise ValueError(f"cannot build {count} distinct chains over A..E")


def _cluster_throughput(
    csv_paths: list[Path], spill_dir: Path, worker_procs: int
) -> float:
    """Uncached mixed-dataset analyze throughput at one worker count."""
    schemas = _chain_schemas(CLUSTER_OPS_PER_DATASET)
    spill_dir.mkdir(parents=True, exist_ok=True)
    config = ServiceConfig(
        port=0,
        workers=CLUSTER_CLIENTS,
        max_queue=4096,
        spill_dir=spill_dir,
        worker_procs=worker_procs,
    )
    with Service(config) as service:
        base = f"http://127.0.0.1:{service.port}"
        client = ServiceClient(base)
        fingerprints = [
            client.register_dataset(path=str(path))["fingerprint"]
            for path in csv_paths
        ]
        jobs = [
            (fp, schema) for fp in fingerprints for schema in schemas
        ]
        errors: list = []

        def hammer(chunk: list) -> None:
            try:
                own = ServiceClient(base)
                for fp, schema in chunk:
                    view = own.run(fp, "analyze", {"schema": schema}, timeout=600)
                    assert view["state"] == "done", view
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(jobs[k::CLUSTER_CLIENTS],))
            for k in range(CLUSTER_CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        assert not errors, errors[:3]
        stats = service.stats()
        if worker_procs:
            # Every op is a miss → every op was dispatched to a shard.
            assert stats["cluster"]["dispatched"] == len(jobs)
        assert stats["cache"]["misses"] >= len(jobs)
    return len(jobs) / wall


def run_cluster_tier(
    n_rows: int, seed: int, tmp_dir: Path, worker_procs: int = 2
) -> dict:
    """Cluster-vs-single throughput on an uncached mixed-dataset load."""
    tmp_dir.mkdir(parents=True, exist_ok=True)
    rng_seeds = [seed + k for k in range(CLUSTER_DATASETS)]
    csv_paths = []
    for k, dataset_seed in enumerate(rng_seeds):
        relation = random_relation(
            {name: 16 for name in "ABCDE"},
            n_rows,
            np.random.default_rng(dataset_seed),
        )
        path = tmp_dir / f"cluster_{k}.csv"
        write_csv(relation, path)
        csv_paths.append(path)
    single_rps = _cluster_throughput(csv_paths, tmp_dir / "spill0", 0)
    cluster_rps = _cluster_throughput(
        csv_paths, tmp_dir / f"spill{worker_procs}", worker_procs
    )
    return {
        "n_rows": n_rows,
        "n_datasets": CLUSTER_DATASETS,
        "n_ops": CLUSTER_DATASETS * CLUSTER_OPS_PER_DATASET,
        "clients": CLUSTER_CLIENTS,
        "worker_procs": worker_procs,
        "single_proc_rps": single_rps,
        "cluster_rps": cluster_rps,
        "cluster_vs_single_proc_rps_ratio": cluster_rps / max(single_rps, 1e-9),
    }


def test_bench_service_cluster(tmp_path):
    # Four or more cores: the shard split must actually scale.  Below
    # that, two worker processes, the front end and the client threads
    # contend for the same cores, so the bar is overhead — socket
    # dispatch + hydration may cost at most 2x.  One re-measure
    # on a fresh pair of servers absorbs scheduler noise (both sides
    # are short wall-clock windows on a contended box).
    floor = 1.5 if (os.cpu_count() or 1) >= 4 else 0.5
    for attempt in range(2):
        tier = run_cluster_tier(20_000, 59, tmp_path / f"try{attempt}")
        ratio = tier["cluster_vs_single_proc_rps_ratio"]
        if ratio >= floor:
            break
    assert ratio >= floor, tier
    _RECORD["tiers"]["cluster@n=2e4"] = tier
    if os.environ.get("BENCH_CLUSTER_SWEEP"):
        sweep = {}
        for procs in (1, 2, 4):
            if procs == tier["worker_procs"]:
                sweep[str(procs)] = tier
                continue
            sweep[str(procs)] = run_cluster_tier(
                20_000, 59, tmp_path / f"sweep{procs}", worker_procs=procs
            )
        _RECORD["tiers"]["cluster_sweep@n=2e4"] = sweep
    print(
        f"\n[cluster@n=2e4] single-proc {tier['single_proc_rps']:.1f} req/s | "
        f"{tier['worker_procs']} workers {tier['cluster_rps']:.1f} req/s "
        f"({ratio:.2f}x, {os.cpu_count()} cpu)"
    )


@pytest.mark.parametrize("label,n_rows,seed", _tier_params())
def test_bench_service_cold_warm_throughput(label, n_rows, seed, tmp_path):
    tier = run_service_tier(n_rows, seed, tmp_path / "service_bench.csv")

    # The PR's acceptance bar: the warm repeat is a cache hit >= 10x
    # faster than the cold request, over HTTP and server-side.
    assert tier["warm_http_speedup"] >= 10, tier
    assert tier["warm_service_speedup"] >= 10, tier
    assert tier["cache_hit_rate"] > 0.5, tier
    # Delta-ingest acceptance bar: answering mine on the appended
    # version via append + cache revalidation beats a from-scratch
    # register + re-mine of the concatenated CSV by >= 10x.
    assert tier["append_revalidate_vs_remine_speedup"] >= 10, tier
    # Observability acceptance bar: per-request telemetry may cost at
    # most 15% of a warm hit (min-of-N interleaved, so a descheduled
    # round cannot fake an overhead).
    assert tier["telemetry_overhead_warm_ratio"] <= 1.15, tier

    _RECORD["tiers"][label] = tier
    print(
        f"\n[{label}] register {tier['register_s'] * 1e3:.0f} ms | cold mine "
        f"{tier['cold_http_s'] * 1e3:.1f} ms | warm {tier['warm_http_s'] * 1e3:.2f} ms "
        f"({tier['warm_http_speedup']:.0f}x http, "
        f"{tier['warm_service_speedup']:.0f}x server-side) | "
        f"{tier['concurrent_requests']} warm reqs × {tier['concurrent_clients']} "
        f"clients: {tier['concurrent_rps']:.0f} req/s | faults-idle warm "
        f"{tier['warm_http_s_faults_idle'] * 1e3:.2f} ms "
        f"({tier['faults_idle_speedup']:.2f}x) | telemetry overhead "
        f"{tier['telemetry_overhead_warm_ratio']:.2f}x | revalidate+hit "
        f"{(tier['append_revalidate_s'] + tier['append_revalidated_hit_service_s']) * 1e3:.1f} ms "
        f"vs re-mine {tier['remine_service_s'] * 1e3:.0f} ms "
        f"({tier['append_revalidate_vs_remine_speedup']:.0f}x)"
    )
