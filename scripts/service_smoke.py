#!/usr/bin/env python
"""Service smoke check: boot a real server, drive it over HTTP, assert.

What the CI ``service-smoke`` job (and ``make service-smoke``) runs:

1. start ``repro-ajd serve`` as a subprocess on an ephemeral port with a
   spill directory, parsing the ``{"event": "serving", ...}`` startup
   line for the port;
2. register ``examples/planted_mvd.csv`` over HTTP;
3. run mine → decompose → analyze via the Python client and validate
   every report against the shared CLI report schema; the uncached mine
   must cost the server at most one ``GET /v1/jobs/{id}`` (the client's
   long poll), read from ``/v1/metrics``; each report must equal what
   ``python -m repro.cli mine|decompose|analyze ... --json`` prints for
   the same CSV and parameters in its own process, apart from
   ``wall_time_s`` and ``cached`` (both front doors run one operation
   core, :mod:`repro.factorize.operations`);
4. repeat the identical mine request and assert it is served **from the
   cache** (``cached: true``, bit-identical report, hit-rate > 0);
5. check ``/healthz`` and ``/stats`` shapes;
6. submit one **batch** (two cached items + one fresh) via
   ``POST /jobs/batch`` and require per-item reports;
7. shut the server down cleanly, boot a **second** server on the same
   spill directory, and require the dataset to come back from its
   columnar snapshot (``created: false`` on re-register, a fresh
   analyze served with ``snapshot_reloads == 1`` and zero CSV
   re-parses);
8. boot a fresh server, **append** a delta over
   ``POST /v1/datasets/{fp}/append`` (inline CSV), require a new
   fingerprint with a version-2 chain, at least one cache entry
   **revalidated** onto the new version, and the repeated mine on the
   appended dataset served warm from that revalidated entry; a bogus
   fingerprint must come back as a typed ``unknown_dataset`` envelope
   raising ``UnknownResourceError``;
9. boot a **cluster** server (``--worker-procs 2``) under a seeded
   fault plan that kills a worker process mid-job: the in-flight mine
   must fail with ``reason: "worker_crashed"``, the supervisor must
   respawn the shard's worker, the retried mine must succeed from the
   snapshot rehydrate, the respawned worker must have written the
   dataset's entropy-memo sidecar (``snapshot-<fp>/memo.json``) before
   replying, and ``/stats`` must expose per-worker shard residency and
   dispatch counters.

Exit codes: 0 ok · 1 assertion failed · 2 infrastructure trouble.
"""

from __future__ import annotations

import json
import queue
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_PATH = REPO_ROOT / "src"
sys.path.insert(0, str(SRC_PATH))

from repro.factorize.report import validate_report  # noqa: E402
from repro.relations.persist import load_engine_memo  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402


def start_server(
    spill_dir: str, stderr_path: Path, extra_args: list[str] | None = None
) -> tuple[subprocess.Popen, int]:
    # stderr goes to a file (never a blocking pipe) and is read back on
    # failure; stdout is drained by a thread so a stalled server fails
    # this script fast instead of hanging a blocking readline().
    stderr_handle = stderr_path.open("w")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port", "0",
            "--workers", "2",
            "--spill-dir", spill_dir,
            *(extra_args or []),
        ],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(SRC_PATH), "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE,
        stderr=stderr_handle,
        text=True,
    )
    stderr_handle.close()  # the child holds its own descriptor now
    assert process.stdout is not None
    lines: queue.Queue = queue.Queue()

    def drain() -> None:
        for line in process.stdout:
            lines.put(line)
        lines.put(None)  # EOF marker

    threading.Thread(target=drain, daemon=True).start()
    deadline = time.monotonic() + 30
    while True:
        try:
            line = lines.get(timeout=max(deadline - time.monotonic(), 0.1))
        except queue.Empty:
            process.terminate()
            raise RuntimeError(
                "server never announced 'serving' within 30s; stderr:\n"
                + stderr_path.read_text()
            ) from None
        if line is None:
            raise RuntimeError(
                "server exited before announcing a port; stderr:\n"
                + stderr_path.read_text()
            )
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if event.get("event") == "serving":
            return process, int(event["port"])


def main() -> int:
    csv_path = REPO_ROOT / "examples" / "planted_mvd.csv"
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as spill_dir:
        process, port = start_server(spill_dir, Path(spill_dir) / "server-stderr.log")
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}")
            assert client.healthz()["status"] == "ok"

            dataset = client.register_dataset(path=str(csv_path))
            assert dataset["created"] is True, dataset
            fp = dataset["fingerprint"]
            print(f"[smoke] registered {csv_path.name} as {fp}")

            cold = client.run(fp, "mine", {"strategy": "beam"})
            assert cold["state"] == "done" and cold["cached"] is False, cold
            validate_report(cold["result"])
            assert cold["result"]["rho"] == 0.0, cold["result"]
            print(
                f"[smoke] cold mine ok ({cold['service_time_s'] * 1e3:.1f} ms, "
                f"bags {cold['result']['bags']})"
            )
            # The client waited on the job with one long poll at most
            # (none when the submit answered done).  A request is
            # observed just after its reply, hence the short settle.
            time.sleep(0.2)
            polls = route_requests(client, "GET", "jobs/{job_id}")
            assert polls <= 1, f"{polls} GET jobs/{{job_id}} for one cold mine"
            print(f"[smoke] cold mine waited with {polls:.0f} long poll(s)")

            decompose = client.decompose(fp, strategy="beam")
            validate_report(decompose)
            assert decompose["lossless"] is True, decompose
            print("[smoke] decompose ok (lossless)")

            analyze = client.analyze(fp, "A,C;B,C")
            validate_report(analyze)
            print("[smoke] analyze ok")

            csv_arg = str(csv_path)
            for name, service_report, argv in (
                ("mine", cold["result"],
                 ["mine", csv_arg, "--strategy", "beam", "--json"]),
                ("decompose", decompose,
                 ["decompose", csv_arg, "--strategy", "beam"]),
                ("analyze", analyze,
                 ["analyze", csv_arg, "--schema", "A,C;B,C", "--json"]),
            ):
                assert_same_report(service_report, cli_report(argv), name)
            print("[smoke] service reports equal the CLI's (mine, decompose, analyze)")

            warm = client.run(fp, "mine", {"strategy": "beam"})
            assert warm["state"] == "done" and warm["cached"] is True, warm
            clean = dict(warm["result"])
            clean.pop("cached")
            assert clean == cold["result"], "warm report diverged from cold"
            print(
                f"[smoke] warm repeat served from cache "
                f"({warm['service_time_s'] * 1e3:.2f} ms)"
            )

            stats = client.stats()
            assert stats["cache"]["hits"] >= 1, stats["cache"]
            assert stats["cache"]["hit_rate"] > 0, stats["cache"]
            assert stats["registry"]["datasets"] == 1, stats["registry"]
            assert stats["jobs"]["states"]["failed"] == 0, stats["jobs"]
            print(
                f"[smoke] stats ok (hit rate "
                f"{stats['cache']['hit_rate']:.2f}, "
                f"{stats['registry']['resident_bytes']} resident bytes)"
            )

            check_metrics_exposition(client)

            batch = client.run_batch(
                fp,
                [
                    {"operation": "mine", "params": {"strategy": "beam"}},
                    {"operation": "analyze", "params": {"schema": "A,C;B,C"}},
                    {"operation": "analyze", "params": {"schema": "A,B;B,C"}},
                ],
            )
            assert batch["state"] == "done", batch
            assert batch["n_items"] == 3 and batch["n_failed"] == 0, batch
            for item in batch["items"]:
                assert item["state"] == "done", item
                validate_report(item["result"])
            print(
                f"[smoke] batch ok ({batch['n_items']} items, "
                f"{batch['n_cached']} pre-answered from cache)"
            )
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)

        # Restart on the same spill dir: the dataset must come back from
        # its columnar snapshot, not a CSV re-parse.
        process, port = start_server(
            spill_dir, Path(spill_dir) / "server-stderr-restart.log"
        )
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}")
            dataset = client.register_dataset(path=str(csv_path))
            assert dataset["created"] is False, dataset
            assert dataset["fingerprint"] == fp, dataset

            fresh = client.analyze(fp, "A,B;A,C")  # not in the result cache
            validate_report(fresh)
            registry = client.stats()["registry"]
            assert registry["restored_from_snapshot"] >= 1, registry
            assert registry["snapshot_reloads"] == 1, registry
            assert registry["csv_reloads"] == 0, registry
            print(
                f"[smoke] restart ok (dataset restored from snapshot, "
                f"{registry['snapshot_reloads']} snapshot reload, "
                f"{registry['csv_reloads']} csv re-parses)"
            )
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)

    append_phase(csv_path)
    cluster_phase(csv_path)
    print("[smoke] service smoke ok")
    return 0


def cli_report(argv: list[str]) -> dict:
    """The JSON report ``python -m repro.cli <argv>`` prints."""
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(SRC_PATH), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, f"repro-ajd {argv} failed: {done.stderr}"
    return json.loads(done.stdout)


def assert_same_report(service: dict, cli: dict, what: str) -> None:
    """A service report equals the CLI's but for timing and cache flags."""
    ignored = ("wall_time_s", "cached")
    service = {k: v for k, v in service.items() if k not in ignored}
    cli = {k: v for k, v in cli.items() if k not in ignored}
    assert service == cli, (
        f"{what}: service report differs from the CLI's: "
        f"{service} != {cli}"
    )


def route_requests(client: ServiceClient, method: str, route: str) -> float:
    """Requests the server has observed on one route, from ``/v1/metrics``."""
    labels = f'method="{method}",route="{route}",'
    total = 0.0
    for line in client.metrics_text().splitlines():
        if line.startswith("http_request_seconds_count{") and labels in line:
            total += float(line.rsplit(" ", 1)[1])
    return total


def check_metrics_exposition(client: ServiceClient) -> None:
    """Scrape ``GET /v1/metrics`` and parse the Prometheus text format.

    Every non-empty line must be a ``# HELP``/``# TYPE`` comment or a
    ``name[{labels}] value`` sample; the migrated component counters and
    the request-latency histogram (cumulative buckets ending in +Inf)
    must be present.
    """
    text = client.metrics_text()
    types: dict[str, str] = {}
    values: dict[str, float] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            _, kind, rest = line.split(" ", 2)
            name, payload = rest.split(" ", 1)
            if kind == "TYPE":
                assert payload in ("counter", "gauge", "histogram"), line
                types[name] = payload
            continue
        assert not line.startswith("#"), f"malformed comment line: {line!r}"
        body, raw_value = line.rsplit(" ", 1)
        name = body.split("{", 1)[0]
        values[name] = values.get(name, 0.0) + float(raw_value)
    assert types.get("cache_hits_total") == "counter", types
    assert values.get("cache_hits_total", 0) >= 1, values
    assert types.get("jobs_completed_total") == "counter", types
    assert values.get("jobs_completed_total", 0) >= 1, values
    assert types.get("http_request_seconds") == "histogram", types
    assert 'le="+Inf"' in text, "histograms lack a terminal +Inf bucket"
    assert values.get("http_request_seconds_count", 0) >= 1, values
    print(
        f"[smoke] /v1/metrics ok ({len(types)} instrument families, "
        f"{values['http_request_seconds_count']:.0f} requests observed)"
    )


# Extends the planted MVD C ->> A | B (a new C-block with a full
# A x B product), so the revalidated jointree's J/rho stay at 0 and the
# cached mine entry is *kept*, not invalidated.
APPEND_DELTA_CSV = "A,B,C\n0,0,9\n0,1,9\n1,0,9\n1,1,9\n"


def append_phase(csv_path: Path) -> None:
    """Delta ingest: append rows, revalidated cache answers the repeat."""
    from repro.service.client import UnknownResourceError

    with tempfile.TemporaryDirectory(prefix="repro-smoke-append-") as spill_dir:
        process, port = start_server(
            spill_dir, Path(spill_dir) / "server-stderr-append.log"
        )
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}")
            fp = client.register_dataset(path=str(csv_path))["fingerprint"]
            cold = client.run(fp, "mine", {"strategy": "beam"})
            assert cold["state"] == "done" and cold["cached"] is False, cold

            out = client.append_dataset(fp, csv=APPEND_DELTA_CSV)
            new_fp = out["fingerprint"]
            assert out["changed"] is True and new_fp != fp, out
            assert out["version"] == 2, out
            assert out["chain"]["base"] == fp, out
            assert len(out["chain"]["chunks"]) == 1, out
            reval = out["revalidation"]
            assert reval["examined"] >= 1, reval
            assert reval["revalidated"] >= 1, reval
            print(
                f"[smoke] append ok ({out['rows_added']} rows added, "
                f"version {out['version']}, {reval['revalidated']} cache "
                f"entr{'y' if reval['revalidated'] == 1 else 'ies'} "
                f"revalidated onto {new_fp})"
            )

            warm = client.run(new_fp, "mine", {"strategy": "beam"})
            assert warm["state"] == "done" and warm["cached"] is True, warm
            assert warm["result"]["revalidated"] is True, warm["result"]
            assert warm["result"]["n_rows"] == cold["result"]["n_rows"] + 4
            validate_report(warm["result"])
            print(
                f"[smoke] revalidated warm repeat served from cache "
                f"({warm['service_time_s'] * 1e3:.2f} ms, no re-mine)"
            )

            try:
                client.append_dataset("0" * 32, csv=APPEND_DELTA_CSV)
            except UnknownResourceError as exc:
                assert exc.code == "unknown_dataset", exc.code
                assert exc.retryable is False, exc
            else:
                raise AssertionError(
                    "append to a bogus fingerprint did not raise "
                    "UnknownResourceError"
                )
            print("[smoke] typed error envelope ok (unknown_dataset -> "
                  "UnknownResourceError)")
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)


def cluster_phase(csv_path: Path) -> None:
    """``--worker-procs 2`` under a seeded worker-kill fault plan."""
    plan = json.dumps(
        {"seed": 11, "rules": [{"site": "cluster.worker_exit", "times": 1}]}
    )
    with tempfile.TemporaryDirectory(prefix="repro-smoke-cluster-") as spill_dir:
        process, port = start_server(
            spill_dir,
            Path(spill_dir) / "server-stderr-cluster.log",
            extra_args=["--worker-procs", "2", "--fault-plan", plan],
        )
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}")
            fp = client.register_dataset(path=str(csv_path))["fingerprint"]

            crashed = client.run(fp, "mine", {"strategy": "beam"})
            assert crashed["state"] == "failed", crashed
            assert crashed["reason"] == "worker_crashed", crashed
            print("[smoke] cluster: injected worker kill failed the "
                  "in-flight job with reason=worker_crashed")

            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if client.healthz().get("worker_procs_alive") == 2:
                    break
                time.sleep(0.25)
            else:
                raise AssertionError(
                    "dead worker was never respawned within 30s"
                )
            print("[smoke] cluster: shard worker respawned")

            report = client.mine(fp, strategy="beam")
            validate_report(report)
            assert report["rho"] == 0.0, report
            memo = load_engine_memo(Path(spill_dir) / f"snapshot-{fp}")
            assert memo, "the respawned worker wrote no memo sidecar"
            print(f"[smoke] cluster: worker wrote {len(memo)} memo entries")

            warm = client.run(fp, "mine", {"strategy": "beam"})
            assert warm["cached"] is True, warm

            cluster = client.stats()["cluster"]
            assert cluster["worker_procs"] == 2, cluster
            assert cluster["alive"] == 2, cluster
            assert cluster["worker_crashes"] == 1, cluster
            assert cluster["worker_respawns"] == 1, cluster
            assert cluster["dispatched"] >= 2, cluster
            assert cluster["hydrations"]["snapshot"] >= 1, cluster
            assert cluster["hydrations"]["csv"] == 0, cluster
            homes = [
                worker_id
                for worker_id, owned in cluster["shards"].items()
                if fp in owned
            ]
            assert len(homes) == 1, cluster["shards"]
            assert len(cluster["workers"]) == 2, cluster
            print(
                f"[smoke] cluster ok (retry rehydrated from snapshot, "
                f"dataset homed on worker {homes[0]}, "
                f"{cluster['dispatched']} dispatches, "
                f"{cluster['worker_crashes']} crash/"
                f"{cluster['worker_respawns']} respawn)"
            )
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except AssertionError as exc:
        print(f"[smoke] FAILED: {exc}", file=sys.stderr)
        raise SystemExit(1) from exc
    except RuntimeError as exc:
        print(f"[smoke] infrastructure error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
