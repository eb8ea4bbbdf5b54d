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

* **append**: twelve 64-row deltas appended one after another to a
  CSV-ingested 8-column base, each through the service's three version
  steps — ``append_version`` (extend + fingerprint), ``spill_csv`` and
  ``write_snapshot`` — with the median of each step recorded.  Beside
  it, ``append_incremental_vs_scratch_fingerprint_speedup`` times
  ``extended_with(delta).fingerprint()`` (which digests only the new
  rows) against a from-scratch ``fingerprint()`` of the same rows.

``make bench-store`` appends a record to ``BENCH_store.json`` at the
repo root (see ``bench_record.py``).  The smoke tiers (N=2·10⁴ rows;
append onto 6,144 rows) always run; the full tiers (N=10⁵; append onto
172,032 rows) are opt-in via ``BENCH_STORE_FULL=1``.
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
from repro.relations.relation import Relation
from repro.service import Service, ServiceClient, ServiceConfig
from repro.service.registry import append_version, spill_csv, write_snapshot

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


def _append_tier_params():
    tiers = [("append n=6144", 6_144, 47)]
    if os.environ.get("BENCH_STORE_FULL"):
        tiers.append(("append n=172032", 172_032, 53))
    return tiers


#: Appends per append tier, and rows per append.
APPENDS = 12
APPEND_ROWS = 64


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


def _distinct_rows(n_rows: int, seed: int) -> np.ndarray:
    """``n_rows`` distinct random rows over 8 columns, in a seeded order."""
    rng = np.random.default_rng(seed)
    rows = np.unique(rng.integers(0, 64, size=(n_rows + 64, 8)), axis=0)
    assert len(rows) >= n_rows
    return rows[rng.permutation(len(rows))][:n_rows]


def _ingest_csv(rows: np.ndarray, csv_path: Path) -> Relation:
    """Write ``rows`` as a CSV and register-ingest it (fingerprinted)."""
    header = ",".join("ABCDEFGH")
    body = "\n".join(",".join(map(str, row)) for row in rows.tolist())
    csv_path.write_text(f"{header}\n{body}\n")
    relation = infer_integer_domains(read_csv(csv_path))
    relation.fingerprint()
    return relation


def run_append_tier(base_rows: int, seed: int, tmp_dir: Path) -> dict:
    """Twelve 64-row appends through the service's version steps."""
    table = _distinct_rows(base_rows + APPENDS * APPEND_ROWS, seed)
    relation = _ingest_csv(table[:base_rows], tmp_dir / "append-base.csv")
    chain = {"base": relation.fingerprint(), "chunks": [], "version": 1}
    spill_dir = tmp_dir / "append-spill"
    spill_dir.mkdir()
    steps: dict[str, list[float]] = {
        "append_version": [],
        "spill_csv": [],
        "write_snapshot": [],
    }
    for k in range(APPENDS):
        lo = base_rows + k * APPEND_ROWS
        delta = list(map(tuple, table[lo : lo + APPEND_ROWS].tolist()))
        start = time.perf_counter()
        relation, info = append_version(relation, delta, chain)
        chain = info["chain"]
        spilled = time.perf_counter()
        source = spill_csv(relation, spill_dir)
        snapped = time.perf_counter()
        write_snapshot(
            relation,
            spill_dir / f"snapshot-{relation.fingerprint()}",
            source=source,
            chain=chain,
        )
        done = time.perf_counter()
        steps["append_version"].append(spilled - start)
        steps["spill_csv"].append(snapped - spilled)
        steps["write_snapshot"].append(done - snapped)
    # The appended version is the concatenated table, bit for bit.
    assert len(relation) == len(table)
    assert relation.fingerprint() == Relation.from_codes(
        relation.schema, table
    ).fingerprint()
    medians = {
        f"{name}_ms": float(np.median(times)) * 1e3
        for name, times in steps.items()
    }
    return {
        "base_rows": base_rows,
        "appends": APPENDS,
        "append_rows": APPEND_ROWS,
        **medians,
        "total_ms": sum(medians.values()),
    }


def run_fingerprint_tier(n_rows: int, seed: int, tmp_dir: Path) -> dict:
    """Incremental vs from-scratch fingerprint of one appended version."""
    table = _distinct_rows(n_rows + APPEND_ROWS, seed)
    base = _ingest_csv(table[:n_rows], tmp_dir / "fingerprint-base.csv")
    delta = list(map(tuple, table[n_rows:].tolist()))
    incremental_s = scratch_s = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        appended = base.extended_with(delta)
        fingerprint = appended.fingerprint()
        incremental_s = min(incremental_s, time.perf_counter() - start)
        # The same rows in a fresh relation with nothing cached.
        fresh = Relation._from_store(appended.schema, appended.columns())
        start = time.perf_counter()
        assert fresh.fingerprint() == fingerprint
        scratch_s = min(scratch_s, time.perf_counter() - start)
    return {
        "fingerprint_incremental_ms": incremental_s * 1e3,
        "fingerprint_scratch_ms": scratch_s * 1e3,
        "append_incremental_vs_scratch_fingerprint_speedup": scratch_s
        / max(incremental_s, 1e-9),
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
    fingerprint = run_fingerprint_tier(n_rows, seed + 200, tmp_path)
    tier = {**store, **batch, **fingerprint}
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
        f"({batch['batch_vs_singleton_dispatch_speedup']:.2f}x) | "
        f"fingerprint append {fingerprint['fingerprint_incremental_ms']:.1f}ms "
        f"vs scratch {fingerprint['fingerprint_scratch_ms']:.1f}ms "
        f"({fingerprint['append_incremental_vs_scratch_fingerprint_speedup']:.1f}x)"
    )


@pytest.mark.parametrize("label,base_rows,seed", _append_tier_params())
def test_bench_store_append(label, base_rows, seed, tmp_path):
    tier = run_append_tier(base_rows, seed, tmp_path)
    _RECORD["tiers"][label] = tier
    print(
        f"\n[{label}] median of {APPENDS} appends of {APPEND_ROWS} rows: "
        f"append_version {tier['append_version_ms']:.1f}ms, spill_csv "
        f"{tier['spill_csv_ms']:.1f}ms, write_snapshot "
        f"{tier['write_snapshot_ms']:.1f}ms (total {tier['total_ms']:.1f}ms)"
    )
