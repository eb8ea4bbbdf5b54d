"""Bench — persistent columnar snapshots + batched job dispatch.

The acceptance scenarios of the persistence PR, measured two ways:

* **store**: one dataset is written as CSV and as a columnar snapshot,
  then reloaded both ways — ``read_csv`` + domain inference (the full
  re-parse/re-factorize pipeline) vs ``load_snapshot`` (memory-mapped
  ``.npy`` code arrays, zero parsing).  The snapshot reload is asserted
  ≥ 10x faster and bit-identical (same fingerprint).
* **batch**: the same 8 uncached analyze operations run against two
  fresh in-process services — as 8 singleton jobs (8 submit/poll
  round-trip pairs) vs one ``POST /jobs/batch`` (a single queue unit on
  one resident engine).  Results must be bit-identical; the batch must
  reach the server as exactly one job.

``make bench-store`` appends a record to ``BENCH_store.json`` at the
repo root (see ``bench_record.py``).  The smoke tier (N=2·10⁴ rows) always runs; the
full tier (N=10⁵) is opt-in via ``BENCH_STORE_FULL=1``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.random_relations import random_relation
from repro.relations.io import infer_integer_domains, read_csv, write_csv
from repro.relations.persist import load_snapshot, save_snapshot
from repro.service import Service, ServiceClient, ServiceConfig

from bench_record import append_record

RESULTS_NAME = "BENCH_store.json"

_RECORD: dict = {
    "bench": "columnar_store",
    "cpu_count": os.cpu_count(),
    "tiers": {},
}

#: Eight distinct (therefore uncached) analyze schemas over A..E — each a
#: spanning chain, since the J-measure needs the tree to cover Ω.
BATCH_SCHEMAS = [
    "A,B;B,C;C,D;D,E",
    "A,B;A,C;C,D;D,E",
    "A,C;A,B;B,D;D,E",
    "A,D;A,B;B,C;C,E",
    "A,E;A,B;B,C;C,D",
    "A,C;B,C;B,D;D,E",
    "A,D;B,D;B,C;C,E",
    "A,E;B,E;B,C;C,D",
]


@pytest.fixture(scope="module", autouse=True)
def _append_results():
    """Accumulate this session's numbers into the bench history file."""
    yield
    if _RECORD["tiers"]:
        append_record(RESULTS_NAME, _RECORD)


def _tier_params():
    tiers = [("n=2e4", 20_000, 41)]
    if os.environ.get("BENCH_STORE_FULL"):
        tiers.append(("n=1e5", 100_000, 43))
    return tiers


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_store_tier(n_rows: int, seed: int, tmp_dir: Path) -> dict:
    """Snapshot write/load vs CSV re-ingest for one tier; return metrics."""
    relation = random_relation(
        {name: 16 for name in "ABCDE"}, n_rows, np.random.default_rng(seed)
    )
    csv_path = tmp_dir / "data.csv"
    write_csv(relation, csv_path)

    # The canonical ingested form — what the registry snapshots.
    csv_parse_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        ingested = infer_integer_domains(read_csv(csv_path))
        csv_parse_s = min(csv_parse_s, time.perf_counter() - start)

    snap_path = tmp_dir / "data.snapshot"
    start = time.perf_counter()
    save_snapshot(ingested, snap_path, source=str(csv_path))
    snapshot_write_s = time.perf_counter() - start

    snapshot_load_s = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        reloaded = load_snapshot(snap_path)
        snapshot_load_s = min(snapshot_load_s, time.perf_counter() - start)

    # Acceptance: bit-identical reload, ≥ 10x faster than re-parsing.
    assert reloaded.fingerprint() == ingested.fingerprint()
    speedup = csv_parse_s / max(snapshot_load_s, 1e-9)
    assert speedup >= 10.0, (
        f"snapshot reload only {speedup:.1f}x faster than CSV re-ingest"
    )
    return {
        "n_rows": len(ingested),
        "csv_mb": csv_path.stat().st_size / 1e6,
        "snapshot_mb": _dir_bytes(snap_path) / 1e6,
        # v2 narrows code dtypes by cardinality (uint8/16/32); this
        # tracks the on-disk footprint so a dtype regression shows up.
        "snapshot_bytes_per_row": _dir_bytes(snap_path) / max(len(ingested), 1),
        "csv_parse_s": csv_parse_s,
        "snapshot_write_s": snapshot_write_s,
        "snapshot_load_s": snapshot_load_s,
        "snapshot_vs_csv_reload_speedup": speedup,
    }


def _run_ops(csv_path: Path, *, as_batch: bool) -> tuple[float, list, dict]:
    """Run the 8 analyze ops on a fresh service; return (wall, reports, stats)."""
    operations = [
        {"operation": "analyze", "params": {"schema": schema}}
        for schema in BATCH_SCHEMAS
    ]
    with Service(ServiceConfig(port=0, workers=2, max_queue=1024)) as service:
        client = ServiceClient(f"http://127.0.0.1:{service.port}")
        fp = client.register_dataset(path=str(csv_path))["fingerprint"]
        start = time.perf_counter()
        if as_batch:
            job = client.run_batch(fp, operations, timeout=600)
            wall = time.perf_counter() - start
            assert job["state"] == "done", job
            reports = [item["result"] for item in job["items"]]
        else:
            reports = []
            for spec in operations:
                view = client.run(
                    fp, spec["operation"], spec["params"], timeout=600
                )
                assert view["state"] == "done", view
                reports.append(view["result"])
            wall = time.perf_counter() - start
        return wall, reports, service.jobs.stats()


def run_batch_tier(n_rows: int, seed: int, csv_path: Path) -> dict:
    """Batch-of-8 vs 8 singleton jobs over HTTP; return metrics."""
    relation = random_relation(
        {name: 16 for name in "ABCDE"}, n_rows, np.random.default_rng(seed)
    )
    write_csv(relation, csv_path)

    singleton_s, singleton_reports, singleton_stats = _run_ops(
        csv_path, as_batch=False
    )
    batch_s, batch_reports, batch_stats = _run_ops(csv_path, as_batch=True)

    # Bit-identical compute either way (wall time is the one volatile
    # report field), and the batch reached the server as ONE queue unit.
    for single, batched in zip(singleton_reports, batch_reports):
        a = {k: v for k, v in single.items() if k != "wall_time_s"}
        b = {k: v for k, v in batched.items() if k != "wall_time_s"}
        assert a == b
    assert singleton_stats["jobs"] == len(BATCH_SCHEMAS)
    assert batch_stats["jobs"] == 1
    assert batch_stats["batches"] == 1
    assert batch_stats["batch_items"] == len(BATCH_SCHEMAS)

    return {
        "n_ops": len(BATCH_SCHEMAS),
        "singleton_total_s": singleton_s,
        "batch_total_s": batch_s,
        "singleton_jobs_dispatched": singleton_stats["jobs"],
        "batch_jobs_dispatched": batch_stats["jobs"],
        "batch_vs_singleton_dispatch_speedup": singleton_s
        / max(batch_s, 1e-9),
    }


@pytest.mark.parametrize("label,n_rows,seed", _tier_params())
def test_bench_store(label, n_rows, seed, tmp_path):
    store = run_store_tier(n_rows, seed, tmp_path)
    batch = run_batch_tier(n_rows, seed + 100, tmp_path / "batch.csv")
    tier = {**store, **batch}
    _RECORD["tiers"][label] = tier
    print(
        f"\n[{label}] csv {store['csv_mb']:.2f} MB parse "
        f"{store['csv_parse_s'] * 1e3:.1f}ms | snapshot "
        f"{store['snapshot_mb']:.2f} MB write "
        f"{store['snapshot_write_s'] * 1e3:.1f}ms load "
        f"{store['snapshot_load_s'] * 1e3:.2f}ms "
        f"({store['snapshot_vs_csv_reload_speedup']:.0f}x) | batch-of-8 "
        f"{batch['batch_total_s'] * 1e3:.0f}ms vs singletons "
        f"{batch['singleton_total_s'] * 1e3:.0f}ms "
        f"({batch['batch_vs_singleton_dispatch_speedup']:.2f}x)"
    )
