"""Bench — streaming ingestion + sketch mining vs the eager in-memory path.

The "huge input" tier of the out-of-core work: a planted-MVD synthetic
CSV is generated once per tier, then two **separate subprocesses** load
and mine it —

* the **eager** probe (``read_csv`` at its default chunk size →
  ``infer_integer_domains`` → ``mine_jointree`` on the exact backend),
  and
* the **streaming** probe (``Relation.from_csv_stream`` with a smaller
  chunk budget → the same mine with the CountMin/KMV **sketch**
  backend).

Both load through the one columnar CSV route; the probes differ in
chunk size and entropy backend.

Each probe reports its own peak RSS (``ru_maxrss``) and per-phase wall
clock, so the two paths' memory high-water marks are independent (a
single process would only ever report the max of both).
``make bench-streaming`` appends a record — per-tier numbers plus
eager/stream ratios — to ``BENCH_streaming.json`` at the repo root (see
``bench_record.py``).

The smoke tier (N=1e5) always runs; the full tier (N=1e6, the
acceptance scenario) is opt-in via ``BENCH_STREAMING_FULL=1`` so plain
CI bench smoke stays fast.

A second tier times the CSV ingest layer in-process: ``read_csv`` +
``infer_integer_domains`` + ``columns()`` on 1e5 mostly distinct rows,
against a fixed tuple-route yardstick defined here (``csv.reader``,
per-cell coercion, ``Relation(schema, rows)``, ``ColumnStore``), the
route the library took before CSV ingest became columnar.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from bench_record import append_record

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_NAME = "BENCH_streaming.json"
SRC_PATH = REPO_ROOT / "src"

#: Mining threshold used by both probes: loose enough that the planted
#: separator is accepted by the exact *and* the MM-corrected sketch CMIs.
THRESHOLD = 0.01

_RECORD: dict = {
    "bench": "streaming_ingest",
    "cpu_count": os.cpu_count(),
    "tiers": {},
}


@pytest.fixture(scope="module", autouse=True)
def _append_results():
    """Accumulate this session's numbers into the bench history file."""
    yield
    if _RECORD["tiers"]:
        append_record(RESULTS_NAME, _RECORD)


def write_planted_csv(path: Path, n_rows: int, seed: int) -> None:
    """A 5-column table satisfying the MVD ``C ↠ {A,B} | {D,E}``.

    Per class ``c`` the (A,B) pair and the (D,E) pair are drawn
    independently from small per-class pools, so the planted separator
    {C} splits the table with (near-)zero CMI while every column keeps a
    non-trivial active domain.
    """
    rng = np.random.default_rng(seed)
    classes, pool = 16, 8
    ab_pool = rng.integers(0, 32, size=(classes, pool, 2))
    de_pool = rng.integers(0, 32, size=(classes, pool, 2))
    c = rng.integers(0, classes, size=n_rows)
    ab = ab_pool[c, rng.integers(0, pool, size=n_rows)]
    de = de_pool[c, rng.integers(0, pool, size=n_rows)]
    table = np.column_stack([ab, c, de])
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["A", "B", "C", "D", "E"])
        writer.writerows(table.tolist())


_PROBE_TEMPLATE = textwrap.dedent(
    """
    import json, resource, sys, time
    sys.path.insert(0, {src!r})
    from repro.discovery.miner import mine_jointree
    from repro.relations.io import infer_integer_domains, read_csv
    from repro.relations.relation import Relation

    def rss_kb():
        # /proc VmHWM: this process's own high-water mark.  (ru_maxrss is
        # inherited across fork on Linux, so a child spawned from a fat
        # parent would report the parent's peak.)
        try:
            with open("/proc/self/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import_rss = rss_kb()  # interpreter + numpy/scipy import floor
    start = time.perf_counter()
    if {chunk_rows!r} is None:
        relation = read_csv({csv_path!r})
    else:
        relation = Relation.from_csv_stream(
            {csv_path!r}, chunk_rows={chunk_rows!r}
        )
    relation = infer_integer_domains(relation)
    ingest_s = time.perf_counter() - start
    ingest_rss = rss_kb()

    backend = None
    if {backend_name!r} == "sketch":
        from repro.info.backends import SketchEntropyBackend
        backend = SketchEntropyBackend(chunk_rows={chunk_rows!r})
    start = time.perf_counter()
    mined = mine_jointree(relation, threshold={threshold!r}, backend=backend)
    mine_s = time.perf_counter() - start

    print(json.dumps({{
        "n_rows": len(relation),
        "ingest_s": ingest_s,
        "mine_s": mine_s,
        "import_rss_kb": import_rss,
        "ingest_peak_rss_kb": ingest_rss,
        "peak_rss_kb": rss_kb(),
        "bags": sorted(sorted(b) for b in mined.bags),
        "j_value": mined.j_value,
        "rho": mined.rho,
    }}))
    """
)


def run_probe(
    csv_path: Path,
    *,
    chunk_rows: int | None,
    backend_name: str,
    threshold: float = THRESHOLD,
) -> dict:
    """Load + mine ``csv_path`` in a fresh subprocess; return its metrics."""
    script = _PROBE_TEMPLATE.format(
        src=str(SRC_PATH),
        csv_path=str(csv_path),
        chunk_rows=chunk_rows,
        backend_name=backend_name,
        threshold=threshold,
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=False,
    )
    if result.returncode != 0:
        raise AssertionError(f"probe failed:\n{result.stderr}")
    return json.loads(result.stdout)


def _tier_params():
    tiers = [("n=1e5", 100_000, 50_000, 307)]
    if os.environ.get("BENCH_STREAMING_FULL"):
        tiers.append(("n=1e6", 1_000_000, 50_000, 311))
    return tiers


@pytest.mark.parametrize("label,n_rows,chunk_rows,seed", _tier_params())
def test_bench_streaming_vs_eager(label, n_rows, chunk_rows, seed, tmp_path):
    csv_path = tmp_path / "planted.csv"
    write_planted_csv(csv_path, n_rows, seed)
    csv_mb = csv_path.stat().st_size / 1e6

    eager = run_probe(csv_path, chunk_rows=None, backend_name="exact")
    stream = run_probe(csv_path, chunk_rows=chunk_rows, backend_name="sketch")

    # Same data either way: identical post-dedup row count, and both
    # paths must accept the planted separator {C}.
    assert stream["n_rows"] == eager["n_rows"]
    assert any("C" in bag and len(bag) < 5 for bag in eager["bags"]), eager
    assert any("C" in bag and len(bag) < 5 for bag in stream["bags"]), stream
    assert stream["rho"] == pytest.approx(eager["rho"], abs=1e-6)

    rss_ratio = eager["peak_rss_kb"] / max(stream["peak_rss_kb"], 1)
    # Net of the interpreter+imports floor: the part the ingestion path
    # actually controls.
    eager_data = max(eager["peak_rss_kb"] - eager["import_rss_kb"], 1)
    stream_data = max(stream["peak_rss_kb"] - stream["import_rss_kb"], 1)
    data_ratio = eager_data / stream_data
    _RECORD["tiers"][label] = {
        "n_rows_written": n_rows,
        "n_rows_distinct": eager["n_rows"],
        "csv_mb": csv_mb,
        "chunk_rows": chunk_rows,
        "eager": eager,
        "stream": stream,
        "peak_rss_ratio_eager_over_stream": rss_ratio,
        "data_rss_ratio_eager_over_stream": data_ratio,
        "ingest_ratio_eager_over_stream": (
            eager["ingest_s"] / max(stream["ingest_s"], 1e-9)
        ),
    }
    print(
        f"\n[{label}] csv {csv_mb:.1f} MB | eager: ingest "
        f"{eager['ingest_s']:.2f}s mine {eager['mine_s']:.2f}s peak "
        f"{eager['peak_rss_kb'] / 1024:.0f} MB | stream(chunk={chunk_rows}): "
        f"ingest {stream['ingest_s']:.2f}s mine {stream['mine_s']:.2f}s peak "
        f"{stream['peak_rss_kb'] / 1024:.0f} MB | peak-RSS ratio "
        f"{rss_ratio:.2f}x (net of imports {data_ratio:.1f}x)"
    )


#: Rows of the ingest tier and the rounds each side is timed (best of).
INGEST_ROWS = 100_000
INGEST_ROUNDS = 3


def write_ingest_csv(path: Path, n_rows: int, seed: int) -> None:
    """Mostly distinct rows: six int columns, a float and a string column."""
    rng = np.random.default_rng(seed)
    ints = rng.integers(0, 12, size=(n_rows, 6))
    floats = rng.integers(0, 40, size=n_rows) / 4
    labels = [f"s{k}" for k in rng.integers(0, 300, size=n_rows).tolist()]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["A", "B", "C", "D", "E", "F", "G", "H"])
        writer.writerows(
            [*row, f, label]
            for row, f, label in zip(ints.tolist(), floats.tolist(), labels)
        )


def _tuple_route_reference(path: Path):
    """The yardstick: every cell coerced, every row a tuple, then factorized."""
    from repro.relations.columns import ColumnStore
    from repro.relations.relation import Relation
    from repro.relations.schema import RelationSchema

    def coerce(text):
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return float(text)
        except ValueError:
            return text

    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [tuple(coerce(v) for v in raw) for raw in reader if raw]
    relation = Relation(RelationSchema.from_names(header), rows, validate=False)
    return ColumnStore(tuple(relation.rows()), len(header))


def _ingest(path: Path):
    from repro.relations.io import infer_integer_domains, read_csv

    return infer_integer_domains(read_csv(path)).columns()


def ingest_timings(path: Path, rounds: int = INGEST_ROUNDS) -> dict:
    """Best-of-``rounds`` seconds of the library ingest and the yardstick."""

    def best_of(func):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            func(path)
            best = min(best, time.perf_counter() - start)
        return best

    ingest_s = best_of(_ingest)
    reference_s = best_of(_tuple_route_reference)
    return {
        "ingest_s": ingest_s,
        "tuple_reference_s": reference_s,
        "speedup": reference_s / ingest_s if ingest_s else float("inf"),
    }


def test_bench_csv_ingest_vs_tuple_reference(tmp_path):
    csv_path = tmp_path / "ingest.csv"
    write_ingest_csv(csv_path, INGEST_ROWS, 409)
    store = _ingest(csv_path)
    reference = _tuple_route_reference(csv_path)
    # Same content either way: row count and per-column cardinalities.
    assert store.n_rows == reference.n_rows
    assert sorted(store.cards) == sorted(reference.cards)
    timings = ingest_timings(csv_path)
    _RECORD["tiers"]["csv-ingest n=1e5"] = {
        "n_rows_written": INGEST_ROWS,
        "n_rows_distinct": store.n_rows,
        **timings,
    }
    print(
        f"\n[csv-ingest n=1e5] read_csv+domains+columns "
        f"{timings['ingest_s'] * 1e3:.0f}ms vs tuple route "
        f"{timings['tuple_reference_s'] * 1e3:.0f}ms "
        f"({timings['speedup']:.2f}x)"
    )


def test_bench_builder_finish_decode():
    """The vectorized row decode of a built store (``ColumnStore.row_list``,
    run on first tuple-level access) vs a per-cell Python lookup loop
    (unique-heavy strings, the decode-bound regime)."""
    import numpy as np

    from repro.relations.builder import ColumnStoreBuilder
    from repro.relations.schema import RelationSchema

    rng = np.random.default_rng(97)
    n_rows, n_cols, chunk = 100_000, 5, 20_000
    pool = [f"v{i:06d}" for i in range(50_000)]
    coded = [rng.integers(0, len(pool), size=n_rows) for _ in range(n_cols)]
    rows = list(
        zip(*[[pool[c] for c in col.tolist()] for col in coded])
    )

    builder = ColumnStoreBuilder(n_cols)
    for i in range(0, n_rows, chunk):
        builder.add_rows(rows[i : i + chunk])
    start = time.perf_counter()
    relation = builder.finish(
        RelationSchema.from_names([f"C{j}" for j in range(n_cols)])
    )
    finish_s = time.perf_counter() - start

    store = relation.columns()
    codes = [np.asarray(col) for col in store.codes]
    decoders = store._decoders

    # The decode both ways, in isolation: one object-array gather per
    # column vs a per-cell loop.
    start = time.perf_counter()
    vec_columns = [
        np.fromiter(dec, dtype=object, count=len(dec))[col].tolist()
        for col, dec in zip(codes, decoders)
    ]
    vec_rows = list(zip(*vec_columns))
    vec_s = time.perf_counter() - start

    start = time.perf_counter()
    cells = np.stack(codes, axis=1).tolist()
    ref_rows = [
        tuple(decoders[j][c] for j, c in enumerate(row)) for row in cells
    ]
    ref_s = time.perf_counter() - start
    assert ref_rows == vec_rows

    speedup = ref_s / max(vec_s, 1e-9)
    _RECORD["tiers"][f"builder-finish n={n_rows}"] = {
        "n_rows_distinct": len(relation),
        "finish_s": finish_s,
        "decode_vectorized_s": vec_s,
        "decode_per_cell_s": ref_s,
        "decode_speedup": speedup,
    }
    print(
        f"\n[builder-finish n={n_rows}] finish {finish_s * 1e3:.0f}ms | "
        f"decode: vectorized {vec_s * 1e3:.0f}ms vs per-cell "
        f"{ref_s * 1e3:.0f}ms ({speedup:.1f}x)"
    )
