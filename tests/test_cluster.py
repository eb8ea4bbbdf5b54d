"""Tests for the multi-process cluster: shard placement, framing, dispatch.

The :class:`ShardMap` property tests pin the three guarantees the
dispatcher relies on (deterministic across processes and hash seeds,
balanced, minimally disruptive).  The integration tests boot a real
``worker_procs=2`` service — worker subprocesses, socket dispatch,
snapshot hydration — and exercise the crash/respawn/rehydrate cycle
end to end.
"""

import gc
import json
import socket
import struct
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from repro.service import Service, ServiceClient, ServiceConfig
from repro.service.cluster import ShardMap
from repro.service.dispatch import (
    MAX_FRAME_BYTES,
    FrameError,
    recv_frame,
    send_frame,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def make_csv(tmp_path, name="table.csv", n_classes=2):
    """A CSV satisfying C ↠ A|B exactly (same planted table as test_service)."""
    path = tmp_path / name
    lines = ["A,B,C"]
    for c in range(n_classes):
        for a in (0, 1):
            for b in (0, 1):
                lines.append(f"{a + 2 * c},{b},{c}")
    path.write_text("\n".join(lines) + "\n")
    return path


# ----------------------------------------------------------------------
# Shard placement properties
# ----------------------------------------------------------------------
class TestShardMap:
    FINGERPRINTS = [f"fp-{i:04x}" for i in range(160)]

    def test_rejects_empty_cluster_and_bad_vnodes(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            ShardMap(0)
        with pytest.raises(ServiceError):
            ShardMap(2, vnodes=0)

    def test_owner_is_stable_within_a_process(self):
        one = ShardMap(4)
        two = ShardMap(4)
        owners = [one.owner(fp) for fp in self.FINGERPRINTS]
        assert owners == [two.owner(fp) for fp in self.FINGERPRINTS]
        assert all(0 <= owner < 4 for owner in owners)

    def test_deterministic_across_processes_and_hash_seeds(self):
        """Placement must not depend on PYTHONHASHSEED or process identity.

        A fingerprint hashed differently by a respawned worker's
        interpreter would silently rehome datasets on every boot.
        """
        local = [ShardMap(4).owner(fp) for fp in self.FINGERPRINTS]
        snippet = (
            "import json, sys\n"
            "from repro.service.cluster import ShardMap\n"
            "shards = ShardMap(4)\n"
            "fps = json.loads(sys.argv[1])\n"
            "print(json.dumps([shards.owner(fp) for fp in fps]))\n"
        )
        for hash_seed in ("0", "4242"):
            out = subprocess.run(
                [sys.executable, "-c", snippet, json.dumps(self.FINGERPRINTS)],
                env={
                    "PYTHONPATH": SRC,
                    "PYTHONHASHSEED": hash_seed,
                    "PATH": "/usr/bin:/bin",
                },
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            )
            assert json.loads(out.stdout) == local

    def test_balanced_within_tolerance(self):
        """Every worker owns a fair share of 1000 keys (vnodes smooth it)."""
        shards = ShardMap(4)
        keys = [f"dataset-{i:05d}" for i in range(1000)]
        buckets = shards.assignments(keys)
        assert sorted(buckets) == [0, 1, 2, 3]
        mean = 1000 / 4
        for worker_id, owned in buckets.items():
            assert mean * 0.5 <= len(owned) <= mean * 1.5, (
                f"worker {worker_id} owns {len(owned)}/1000"
            )

    def test_minimal_disruption_on_worker_death(self):
        """Excluding one slot moves only that slot's keys."""
        shards = ShardMap(4)
        keys = [f"dataset-{i:05d}" for i in range(500)]
        before = {fp: shards.owner(fp) for fp in keys}
        dead = 2
        for fp in keys:
            after = shards.owner(fp, exclude={dead})
            if before[fp] == dead:
                assert after != dead  # rehomed off the dead slot
            else:
                assert after == before[fp]  # everyone else stays put

    def test_every_slot_excluded_raises(self):
        from repro.errors import ServiceError

        shards = ShardMap(2)
        with pytest.raises(ServiceError):
            shards.owner("fp", exclude={0, 1})

    def test_assignments_cover_all_keys_exactly_once(self):
        shards = ShardMap(3)
        keys = [f"k{i}" for i in range(99)]
        buckets = shards.assignments(keys)
        seen = [fp for owned in buckets.values() for fp in owned]
        assert sorted(seen) == sorted(keys)


# ----------------------------------------------------------------------
# Wire framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_roundtrip(self):
        left, right = socket.socketpair()
        try:
            message = {"t": "req", "id": 7, "params": {"strategy": "beam"}}
            send_frame(left, message)
            assert recv_frame(right) == message
        finally:
            left.close()
            right.close()

    def test_eof_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_frame(right) is None
        finally:
            right.close()

    def test_oversized_frame_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(FrameError):
                recv_frame(right)
        finally:
            left.close()
            right.close()


# ----------------------------------------------------------------------
# End-to-end cluster service
# ----------------------------------------------------------------------
def _wait_for_alive(client, want, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if client.healthz().get("worker_procs_alive") == want:
            return
        time.sleep(0.2)
    raise AssertionError(f"never saw {want} live cluster workers")


def _strip_timing(report):
    return {k: v for k, v in report.items() if k != "wall_time_s"}


class TestClusterService:
    def test_cluster_reports_match_in_process(self, tmp_path):
        """worker_procs=2 must return the same reports as worker_procs=0."""
        csv = make_csv(tmp_path)
        spill0 = tmp_path / "spill0"
        spill2 = tmp_path / "spill2"
        with Service(
            ServiceConfig(port=0, spill_dir=spill0, worker_procs=0)
        ) as single:
            client = ServiceClient(f"http://127.0.0.1:{single.port}")
            fp = client.register_dataset(path=str(csv))["fingerprint"]
            expected_mine = client.mine(fp, strategy="beam")
            expected_batch = client.batch_reports(
                fp,
                [
                    {"operation": "mine", "params": {"strategy": "recursive"}},
                    {"operation": "decompose", "params": {}},
                ],
            )
        with Service(
            ServiceConfig(port=0, spill_dir=spill2, worker_procs=2)
        ) as clustered:
            client = ServiceClient(f"http://127.0.0.1:{clustered.port}")
            fp2 = client.register_dataset(path=str(csv))["fingerprint"]
            assert fp2 == fp  # fingerprint is content-addressed
            got_mine = client.mine(fp, strategy="beam")
            got_batch = client.batch_reports(
                fp,
                [
                    {"operation": "mine", "params": {"strategy": "recursive"}},
                    {"operation": "decompose", "params": {}},
                ],
            )
            stats = client.stats()["cluster"]
        assert _strip_timing(got_mine) == _strip_timing(expected_mine)
        assert len(got_batch) == len(expected_batch)
        for got, expected in zip(got_batch, expected_batch):
            assert _strip_timing(got) == _strip_timing(expected)
        # Dispatch accounting: 3 distinct (op, params) → 3 dispatches.
        assert stats["worker_procs"] == 2
        assert stats["alive"] == 2
        assert stats["dispatched"] == 3
        assert stats["dispatch_failures"] == 0
        # The dataset lives in exactly one shard.
        homes = [wid for wid, owned in stats["shards"].items() if fp in owned]
        assert len(homes) == 1
        assert len(stats["workers"]) == 2
        for worker in stats["workers"]:
            assert worker["alive"]
            assert worker["pid"] > 0

    def test_repeat_requests_hit_front_end_cache(self, tmp_path):
        csv = make_csv(tmp_path)
        config = ServiceConfig(
            port=0, spill_dir=tmp_path / "spill", worker_procs=2
        )
        with Service(config) as service:
            client = ServiceClient(f"http://127.0.0.1:{service.port}")
            fp = client.register_dataset(path=str(csv))["fingerprint"]
            first = client.mine(fp, strategy="beam")
            second = client.mine(fp, strategy="beam")
            stats = client.stats()
        assert _strip_timing(first) == {
            k: v for k, v in _strip_timing(second).items() if k != "cached"
        }
        assert stats["cache"]["hits"] == 1
        assert stats["cluster"]["dispatched"] == 1  # hit never dispatched

    def test_uncached_run_is_a_submit_plus_one_long_poll(self, tmp_path):
        from test_service_http import _settled_count

        # jobs.slow holds the job past its submit, so the client must
        # wait; the long poll makes that wait one request.
        plan = {"seed": 1, "rules": [{"site": "jobs.slow", "delay_s": 0.3, "times": 1}]}
        config = ServiceConfig(
            port=0, spill_dir=tmp_path / "spill", worker_procs=1, fault_plan=plan
        )
        with Service(config) as service:
            client = ServiceClient(f"http://127.0.0.1:{service.port}")
            fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
            view = client.run(fp, "mine", {"strategy": "beam"})
            assert view["state"] == "done" and view["cached"] is False
            assert _settled_count(service, "POST", "jobs", 1) == 1
            assert _settled_count(service, "GET", "jobs/{job_id}", 1) == 1
            assert service.telemetry.job_waits.value("finished") == 1

    def test_worker_crash_fails_inflight_then_respawns_warm(self, tmp_path):
        """The acceptance scenario: crash → reason, respawn, snapshot warm."""
        csv = make_csv(tmp_path)
        plan = {"seed": 7, "rules": [{"site": "cluster.worker_exit", "times": 1}]}
        config = ServiceConfig(
            port=0,
            spill_dir=tmp_path / "spill",
            worker_procs=2,
            fault_plan=plan,
        )
        with Service(config) as service:
            client = ServiceClient(f"http://127.0.0.1:{service.port}", retries=0)
            fp = client.register_dataset(path=str(csv))["fingerprint"]
            job = client.run(fp, "mine", {"strategy": "beam"})
            assert job["state"] == "failed"
            assert job["reason"] == "worker_crashed"
            _wait_for_alive(client, 2)
            report = client.mine(fp, strategy="beam")
            assert report["rho"] == 0.0
            stats = client.stats()["cluster"]
        assert stats["worker_crashes"] == 1
        assert stats["worker_respawns"] == 1
        # The retry rehydrated from the persistent snapshot, not CSV.
        assert stats["hydrations"]["snapshot"] >= 1
        assert stats["hydrations"]["csv"] == 0

    def test_dispatch_fault_fails_job_with_reason(self, tmp_path):
        csv = make_csv(tmp_path)
        plan = {"seed": 3, "rules": [{"site": "cluster.dispatch", "times": 1}]}
        config = ServiceConfig(
            port=0,
            spill_dir=tmp_path / "spill",
            worker_procs=1,
            fault_plan=plan,
        )
        with Service(config) as service:
            client = ServiceClient(f"http://127.0.0.1:{service.port}", retries=0)
            fp = client.register_dataset(path=str(csv))["fingerprint"]
            job = client.run(fp, "mine", {"strategy": "beam"})
            assert job["state"] == "failed"
            assert job["reason"] == "dispatch_failed"
            report = client.mine(fp, strategy="beam")  # next attempt lands
            assert report["rho"] == 0.0
            stats = client.stats()["cluster"]
        assert stats["dispatch_failures"] == 1

    def test_worker_writes_memo_sidecar_before_replying(self, tmp_path):
        """The worker that computed a job's H() values writes them beside
        the snapshot before its reply, equal to a fresh engine's."""
        from test_telemetry import parse_prometheus

        from repro.info.engine import EntropyEngine
        from repro.relations.io import read_csv
        from repro.relations.persist import load_engine_memo

        csv = make_csv(tmp_path, n_classes=3)
        spill = tmp_path / "spill"
        config = ServiceConfig(port=0, spill_dir=spill, worker_procs=1)
        with Service(config) as service:
            client = ServiceClient(f"http://127.0.0.1:{service.port}")
            fp = client.register_dataset(path=str(csv))["fingerprint"]
            client.mine(fp, strategy="beam")
            memo = load_engine_memo(spill / f"snapshot-{fp}")
            families = parse_prometheus(client.metrics_text())
        assert memo
        engine = EntropyEngine(read_csv(csv))
        for key, value in memo.items():
            assert value == engine.entropy(key)
        samples = families["worker_memo_spills_total"]["samples"]
        assert sum(v for _, _, v in samples) >= 1

    @pytest.mark.parametrize("worker_procs", [0, 1])
    def test_snapshot_with_registration_chunk_rows_restores(
        self, tmp_path, worker_procs
    ):
        """Older registries and ``repro-ajd snapshot`` wrote the ingest
        chunk size into ``meta.json``'s ``extra``; such a snapshot must
        still restore, hydrate from the snapshot, and mine exactly like
        a fresh registration of the same CSV."""
        from repro.relations.io import infer_integer_domains
        from repro.relations.persist import read_snapshot_meta, save_snapshot
        from repro.relations.relation import Relation

        csv = make_csv(tmp_path, n_classes=3)
        relation = infer_integer_domains(
            Relation.from_csv_stream(csv, chunk_rows=2)
        )
        fp = relation.fingerprint()
        spill = tmp_path / "spill"
        snapshot_dir = spill / f"snapshot-{fp}"
        save_snapshot(
            relation, snapshot_dir, source=str(csv), extra={"chunk_rows": 2}
        )
        assert read_snapshot_meta(snapshot_dir)["extra"] == {"chunk_rows": 2}

        with Service(ServiceConfig(port=0)) as fresh:
            client = ServiceClient(f"http://127.0.0.1:{fresh.port}")
            assert client.register_dataset(path=str(csv))["fingerprint"] == fp
            expected = client.mine(fp, strategy="beam")

        config = ServiceConfig(
            port=0, spill_dir=spill, worker_procs=worker_procs
        )
        with Service(config) as restarted:
            client = ServiceClient(f"http://127.0.0.1:{restarted.port}")
            assert [d["fingerprint"] for d in client.list_datasets()] == [fp]
            got = client.mine(fp, strategy="beam")
            stats = client.stats()
        assert _strip_timing(got) == _strip_timing(expected)
        assert stats["registry"]["restored_from_snapshot"] == 1
        if worker_procs:
            assert stats["cluster"]["hydrations"]["snapshot"] == 1
        else:
            assert stats["registry"]["snapshot_reloads"] == 1
            assert stats["registry"]["csv_reloads"] == 0


class TestWorkerRuntime:
    """A relation the worker stops holding is freed by reference counting
    (the cyclic collector is off), with its cached engine memo built."""

    def test_lru_drop_frees_the_relation(self, tmp_path, monkeypatch):
        from repro.info.engine import EntropyEngine
        from repro.relations.io import read_csv
        from repro.service import cluster
        from repro.service.faults import DISABLED

        monkeypatch.setattr(cluster, "WORKER_MAX_RESIDENT", 2)
        runtime = cluster._WorkerRuntime(faults=DISABLED)
        gc.collect()
        gc.disable()
        try:
            refs = []
            for i in range(3):
                relation = read_csv(make_csv(tmp_path, f"t{i}.csv", n_classes=i + 1))
                EntropyEngine.for_relation(relation).entropy(["A"])
                runtime._keep(f"fp{i}", relation)
                refs.append(weakref.ref(relation))
            del relation
            assert runtime.resident() == ["fp1", "fp2"]
            assert refs[0]() is None
            assert refs[1]() is not None and refs[2]() is not None
        finally:
            gc.enable()

    def test_append_frees_the_superseded_version(self, tmp_path):
        from repro.info.engine import EntropyEngine
        from repro.relations.io import read_csv
        from repro.service import cluster
        from repro.service.faults import DISABLED

        runtime = cluster._WorkerRuntime(faults=DISABLED)
        gc.collect()
        gc.disable()
        try:
            relation = read_csv(make_csv(tmp_path))
            fp = relation.fingerprint()
            EntropyEngine.for_relation(relation).entropy(["A"])
            runtime._keep(fp, relation)
            message = {
                "fingerprint": fp,
                "append_rows": [[9, 9, 9]],
                "chain": {"base": fp, "chunks": [], "version": 1},
                "spill_dir": str(tmp_path),
            }
            info = runtime._append(message, relation)
            superseded = weakref.ref(relation)
            del relation
            assert info["changed"]
            assert runtime.resident() == [info["fingerprint"]]
            assert superseded() is None
        finally:
            gc.enable()


# ----------------------------------------------------------------------
# Cross-process telemetry
# ----------------------------------------------------------------------
class TestClusterTelemetry:
    def test_trace_id_round_trips_through_worker_dispatch(self, tmp_path):
        """One trace, two processes: the front-end job line and the
        worker's forwarded line must share a trace_id, and the job view
        must carry the worker-side stage timings folded back."""
        csv = make_csv(tmp_path)
        log_path = tmp_path / "requests.log"
        config = ServiceConfig(
            port=0,
            spill_dir=tmp_path / "spill",
            worker_procs=1,
            request_log_path=log_path,
        )
        with Service(config) as service:
            client = ServiceClient(f"http://127.0.0.1:{service.port}")
            fp = client.register_dataset(path=str(csv))["fingerprint"]
            job_id = client.submit_job(fp, "mine", {"strategy": "beam"})["job_id"]
            view = client.wait_job(job_id)
            assert view["state"] == "done"
            trace = view["trace_id"]
            assert trace
            stages = view.get("stages", {})
            assert "run" in stages
            assert any(name.startswith("worker_") for name in stages), stages
        lines = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
            if line.strip()
        ]
        job_lines = [line for line in lines if line["kind"] == "job"]
        procs = {line["proc"]: line["trace_id"] for line in job_lines}
        assert "frontend" in procs and "w0" in procs, procs
        assert procs["frontend"] == procs["w0"] == trace

    def test_merged_worker_counters_monotonic_across_respawn(self, tmp_path):
        """worker_jobs_total must never decrease when an incarnation dies:
        the dead worker's last snapshot folds into a committed base."""
        from test_telemetry import parse_prometheus

        def worker_jobs(client):
            families = parse_prometheus(client.metrics_text())
            entry = families.get("worker_jobs_total")
            if entry is None:
                return 0
            return sum(v for _, _, v in entry["samples"])

        csv = make_csv(tmp_path)
        # skip=1: the first dispatch succeeds (counts a worker job), the
        # second one kills the worker mid-request.
        plan = {
            "seed": 11,
            "rules": [{"site": "cluster.worker_exit", "skip": 1, "times": 1}],
        }
        config = ServiceConfig(
            port=0,
            spill_dir=tmp_path / "spill",
            worker_procs=1,
            fault_plan=plan,
        )
        with Service(config) as service:
            client = ServiceClient(f"http://127.0.0.1:{service.port}", retries=0)
            fp = client.register_dataset(path=str(csv))["fingerprint"]
            client.mine(fp, strategy="beam")
            before_crash = worker_jobs(client)
            assert before_crash == 1
            job = client.run(fp, "decompose", {})
            assert job["state"] == "failed"
            assert job["reason"] == "worker_crashed"
            _wait_for_alive(client, 1)
            after_respawn = worker_jobs(client)
            assert after_respawn >= before_crash  # dead incarnation folded
            report = client.mine(fp, strategy="recursive")
            assert report["rho"] == 0.0
            final = worker_jobs(client)
            assert final >= after_respawn
            assert final == 2  # 1 (folded base) + 1 (new incarnation)
