"""Multi-process sharded workers: the front-end/worker split.

``repro-ajd serve --worker-procs N`` keeps everything client-facing in
the front-end process — HTTP, job admission (cache hits, coalescing,
idempotency, breakers, backpressure), the shared
:class:`~repro.service.cache.ResultCache` — and moves the CPU-bound
mine/analyze/decompose compute into ``N`` worker subprocesses, sidestepping
the GIL that caps the threaded pool at one core.

Placement
    Every dataset is owned by exactly one worker, chosen by
    **consistent hashing** on ``Relation.fingerprint()``
    (:class:`ShardMap`: a hash ring of ``vnodes`` blake2b points per
    worker slot — deterministic across processes and
    ``PYTHONHASHSEED``, balanced to a few percent for realistic
    dataset counts, and minimally disruptive: excluding one worker
    moves only that worker's keys).  Owning a dataset concentrates its
    hydration cost and its entropy-engine memo in one process.

Data movement
    Relations are **never pickled**.  The dispatcher ships hydration
    *references* (snapshot directory, CSV source path) and each worker
    rebuilds the dataset locally through
    :func:`repro.relations.persist.hydrate_relation` — the PR 7
    zero-parse snapshot path, memo sidecar included.  Workers return
    only the report.  A job that grew the worker's entropy memo has the
    worker rewrite the dataset's memo sidecar
    (:func:`repro.relations.persist.save_engine_memo`) before it
    replies, so a dataset rehomed after a worker death — or a whole
    restarted server — hydrates warm.

Supervision
    The PR 6 worker-thread supervision pattern, promoted to process
    level: a monitor thread heartbeats every worker
    (:meth:`~repro.service.dispatch.WorkerHandle.ping`), detects death
    by socket EOF, process exit, or missed pongs, fails the in-flight
    jobs with ``reason: "worker_crashed"``, and respawns a replacement
    into the **same shard slot** — the shard map never changes, so only
    the dead worker's datasets are touched, and they come back from
    their snapshots and memo sidecars.  The ``cluster.worker_exit`` fault
    site kills a worker process mid-job on demand;
    ``cluster.dispatch`` injects front-end send failures.

``--worker-procs 0`` (the default) never imports a socket: the job
queue computes in-process exactly as before, so single-core deployments
and CI are bit-identical to the pre-cluster service.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import itertools
import json
import os
import queue
import secrets
import socket
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from pathlib import Path

from repro.errors import (
    DatasetDegradedError,
    InjectedFaultError,
    ReproError,
    ServiceError,
    SnapshotError,
)
from repro.service.dispatch import (
    DispatchError,
    WorkerCrashedError,
    WorkerHandle,
    recv_frame,
    send_frame,
)
from repro.service.faults import DISABLED, FaultPlan, WorkerCrashInjection
from repro.service.telemetry import MetricsRegistry, StageTimings, Telemetry

#: Environment variables carrying spawn-time secrets/config to workers
#: (argv is visible in ``ps``; the token must not be).
TOKEN_ENV = "REPRO_CLUSTER_TOKEN"
FAULTS_ENV = "REPRO_CLUSTER_FAULTS"

#: Fault sites a worker process arms from the shipped plan spec.  The
#: rest fire in the front end (http.*, cache.*, registry.*, jobs.slow,
#: jobs.worker_crash) — arming them twice would double-fire.  Notably
#: ``cluster.worker_exit`` is NOT shipped: its ``times`` counter must
#: survive respawns (a fresh worker re-arming the spec would reset it),
#: so the front-end plan fires it and the directive rides the request.
WORKER_SITES = ("jobs.oom",)

#: Grace added to a job's remaining deadline before the dispatcher
#: declares a worker unresponsive for that request.
DISPATCH_GRACE_S = 30.0

#: Per-worker in-flight dispatch limit: a job bound for a worker already
#: running this many requests blocks its submitting queue thread.
WORKER_INFLIGHT = 8

#: Hydrated datasets one worker keeps resident (LRU); the oldest beyond
#: it is dropped and re-hydrates from its snapshot on next use.
WORKER_MAX_RESIDENT = 16

#: Pseudo-operation dispatched for delta ingest.  Not a member of
#: :data:`repro.service.operations.OPERATIONS`: it mutates the dataset
#: instead of computing a report, so it bypasses params
#: canonicalization, the result cache, and report validation.
APPEND_OP = "__append__"


# ----------------------------------------------------------------------
# Consistent-hash shard placement
# ----------------------------------------------------------------------
def _ring_point(label: str) -> int:
    """A 64-bit ring position from a stable keyed hash (never ``hash()``,
    which varies with ``PYTHONHASHSEED`` and would re-shard every boot)."""
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardMap:
    """Consistent hashing of fingerprints onto worker slots.

    Each of the ``worker_procs`` slots contributes ``vnodes`` virtual
    points to a 64-bit hash ring; a fingerprint is owned by the first
    point clockwise from its own hash.  Properties the cluster (and
    ``tests/test_cluster.py``) rely on:

    * **deterministic** — pure blake2b, identical in every process;
    * **balanced** — with 128 vnodes the per-worker share deviates by
      ~±10% for 100+ keys;
    * **minimally disruptive** — ``owner(fp, exclude={k})`` only moves
      keys whose owner was ``k``; every other key keeps its worker, so
      a crash-and-respawn cycle touches exactly one shard.
    """

    def __init__(self, worker_procs: int, *, vnodes: int = 128) -> None:
        if worker_procs < 1:
            raise ServiceError(
                f"a shard map needs at least one worker, got {worker_procs}"
            )
        if vnodes < 1:
            raise ServiceError(f"vnodes must be >= 1, got {vnodes}")
        self.worker_procs = worker_procs
        self.vnodes = vnodes
        points: list[tuple[int, int]] = []
        for worker_id in range(worker_procs):
            for v in range(vnodes):
                points.append((_ring_point(f"worker-{worker_id}:{v}"), worker_id))
        points.sort()
        self._points = points
        self._hashes = [point for point, _ in points]

    def owner(self, fingerprint: str, *, exclude: frozenset | set = frozenset()) -> int:
        """The worker slot owning ``fingerprint``.

        ``exclude`` skips dead slots by walking clockwise to the next
        live point — the classic consistent-hashing failover that only
        rehomes the excluded workers' keys.
        """
        position = bisect.bisect_right(
            self._hashes, _ring_point(f"key:{fingerprint}")
        )
        n = len(self._points)
        for step in range(n):
            _, worker_id = self._points[(position + step) % n]
            if worker_id not in exclude:
                return worker_id
        raise ServiceError("every worker slot is excluded; no owner exists")

    def assignments(
        self, fingerprints, *, exclude: frozenset | set = frozenset()
    ) -> dict[int, list[str]]:
        """``worker_id → sorted fingerprints`` over all live slots."""
        out: dict[int, list[str]] = {
            worker_id: []
            for worker_id in range(self.worker_procs)
            if worker_id not in exclude
        }
        for fingerprint in fingerprints:
            out[self.owner(fingerprint, exclude=exclude)].append(fingerprint)
        for bucket in out.values():
            bucket.sort()
        return out


# ----------------------------------------------------------------------
# Front end: the supervisor/dispatcher
# ----------------------------------------------------------------------
class ClusterSupervisor:
    """Spawns, heartbeats, respawns, and routes to N worker processes.

    This is the :class:`~repro.service.jobs.JobQueue`'s cluster
    executor: :meth:`execute` has the signature of
    :meth:`~repro.service.operations.InProcessExecutor.execute`, but
    routes the operation to its shard's worker over the
    :mod:`repro.service.dispatch` protocol.
    """

    def __init__(
        self,
        *,
        worker_procs: int,
        registry,
        faults: FaultPlan | None = None,
        heartbeat_interval_s: float = 1.0,
        heartbeat_timeout_s: float = 15.0,
        spawn_timeout_s: float = 60.0,
        telemetry: Telemetry | None = None,
    ) -> None:
        if worker_procs < 1:
            raise ServiceError(
                f"worker_procs must be >= 1 for a cluster, got {worker_procs}"
            )
        self._registry = registry
        self._faults = faults if faults is not None else DISABLED
        self._shards = ShardMap(worker_procs)
        self._heartbeat_interval_s = heartbeat_interval_s
        self._heartbeat_timeout_s = heartbeat_timeout_s
        self._spawn_timeout_s = spawn_timeout_s
        self._token = secrets.token_hex(16)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._closed = False
        self._handles: dict[int, WorkerHandle | None] = {
            worker_id: None for worker_id in range(worker_procs)
        }
        self._procs: dict[int, subprocess.Popen] = {}
        self._reaped: set[int] = set()  # ids of WorkerHandle objects already accounted
        # Counters live on the shared metrics registry (a private one
        # when constructed standalone); read-only properties preserve
        # the original attribute names for /stats, health, and tests.
        self._telemetry = telemetry
        metrics = telemetry.metrics if telemetry is not None else MetricsRegistry()
        self._c_dispatched = metrics.counter(
            "cluster_dispatched_total", "Jobs dispatched to worker processes"
        )
        self._c_dispatch_failures = metrics.counter(
            "cluster_dispatch_failures_total",
            "Dispatches failed: transport error, crash, malformed reply",
        )
        self._c_worker_crashes = metrics.counter(
            "cluster_worker_crashes_total", "Worker processes reaped after dying"
        )
        self._c_worker_respawns = metrics.counter(
            "cluster_worker_respawns_total",
            "Replacement worker processes spawned into a shard slot",
        )
        self._c_hydrations = metrics.counter(
            "cluster_hydrations_total",
            "Worker dataset materializations by origin",
            labelnames=("origin",),
        )
        for origin in ("snapshot", "csv", "resident"):
            self._c_hydrations.labels(origin)  # pre-touch: /stats shows zeros

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(worker_procs + 4)
        self._port = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-cluster-accept", daemon=True
        )
        self._accept_thread.start()
        try:
            for worker_id in range(worker_procs):
                self._spawn(worker_id)
            self._await_all_alive()
        except BaseException:
            self.shutdown()
            raise
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="repro-cluster-monitor", daemon=True
        )
        self._monitor_thread.start()

    @property
    def worker_procs(self) -> int:
        return self._shards.worker_procs

    @property
    def dispatched(self) -> int:
        return int(self._c_dispatched.value())

    @property
    def dispatch_failures(self) -> int:
        return int(self._c_dispatch_failures.value())

    @property
    def worker_crashes(self) -> int:
        return int(self._c_worker_crashes.value())

    @property
    def worker_respawns(self) -> int:
        return int(self._c_worker_respawns.value())

    @property
    def hydrations(self) -> dict:
        return {
            series["labels"][0]: int(series["value"])
            for series in self._c_hydrations.series()
        }

    def slot_for(self, fingerprint: str) -> int:
        """The shard slot owning ``fingerprint`` (observability hook)."""
        return self._shards.owner(fingerprint)

    # ------------------------------------------------------------------
    # Spawning + handshakes
    # ------------------------------------------------------------------
    def _child_env(self) -> dict:
        env = dict(os.environ)
        # The worker must import this very package regardless of how the
        # front end was launched (installed, PYTHONPATH, pytest).
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing
            else package_root + os.pathsep + existing
        )
        env[TOKEN_ENV] = self._token
        if self._faults.enabled:
            env[FAULTS_ENV] = json.dumps(self._faults.to_spec())
        else:
            env.pop(FAULTS_ENV, None)
        # A worker is itself a service child: it must never re-arm the
        # front end's plan through the generic env hook.
        env.pop("REPRO_FAULT_PLAN", None)
        return env

    def _spawn(self, worker_id: int) -> None:
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service.cluster",
                "--connect", f"127.0.0.1:{self._port}",
                "--worker-id", str(worker_id),
            ],
            env=self._child_env(),
            stdin=subprocess.DEVNULL,
        )
        with self._lock:
            self._procs[worker_id] = process

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed: shutdown
            try:
                conn.settimeout(10.0)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                hello = recv_frame(conn)
                if (
                    hello is None
                    or hello.get("t") != "hello"
                    or not secrets.compare_digest(
                        str(hello.get("token", "")), self._token
                    )
                ):
                    conn.close()
                    continue
                worker_id = hello.get("worker_id")
                if worker_id not in self._handles:
                    conn.close()
                    continue
                conn.settimeout(None)
            except (DispatchError, OSError):
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            with self._lock:
                process = self._procs.get(worker_id)
                if process is None or self._closed:
                    conn.close()
                    continue
            handle = WorkerHandle(
                worker_id,
                conn,
                process,
                max_inflight=WORKER_INFLIGHT,
                request_ids=self._ids,
            )
            with self._cond:
                self._handles[worker_id] = handle
                self._cond.notify_all()

    def _await_all_alive(self) -> None:
        deadline = time.monotonic() + self._spawn_timeout_s
        with self._cond:
            while True:
                missing = [
                    worker_id
                    for worker_id, handle in self._handles.items()
                    if handle is None or not handle.alive
                ]
                if not missing:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceError(
                        f"worker process(es) {missing} never connected within "
                        f"{self._spawn_timeout_s:g}s"
                    )
                self._cond.wait(min(remaining, 0.25))

    def _live_handle(self, worker_id: int) -> WorkerHandle:
        """The live handle for a shard slot, waiting out a respawn."""
        deadline = time.monotonic() + self._spawn_timeout_s
        with self._cond:
            while True:
                if self._closed:
                    raise ServiceError("cluster is shut down")
                handle = self._handles.get(worker_id)
                if handle is not None and handle.alive:
                    return handle
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DispatchError(
                        f"shard {worker_id} has no live worker (respawn did "
                        f"not complete within {self._spawn_timeout_s:g}s)"
                    )
                self._cond.wait(min(remaining, 0.25))

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                snapshot = dict(self._handles)
            for worker_id, handle in snapshot.items():
                if handle is None:
                    continue
                if handle.alive and handle.process.poll() is not None:
                    handle.mark_dead(
                        f"process exited with status {handle.process.returncode}"
                    )
                if (
                    handle.alive
                    and handle.heartbeat_age_s() > self._heartbeat_timeout_s
                ):
                    try:
                        handle.process.kill()
                    except OSError:
                        pass
                    handle.mark_dead(
                        f"missed heartbeats for {self._heartbeat_timeout_s:g}s"
                    )
                if handle.alive:
                    handle.ping()
                    tele = self._telemetry
                    snapshot = handle.worker_metrics  # ridden in on pongs
                    if tele is not None and isinstance(snapshot, dict):
                        tele.workers.update(worker_id, snapshot)
                else:
                    self._reap_and_respawn(worker_id, handle)
            time.sleep(self._heartbeat_interval_s)

    def _reap_and_respawn(self, worker_id: int, handle: WorkerHandle) -> None:
        """Account one dead worker and put a replacement in its slot."""
        with self._lock:
            if id(handle) in self._reaped:
                return
            self._reaped.add(id(handle))
            closed = self._closed
        if not closed:
            self._c_worker_crashes.inc()
        # Fold the dead worker's final metric snapshot into the
        # committed base before its slot restarts from zero — merged
        # totals stay monotonic across the respawn.
        tele = self._telemetry
        if tele is not None:
            snapshot = getattr(handle, "worker_metrics", None)
            if isinstance(snapshot, dict):
                tele.workers.update(worker_id, snapshot)
            tele.workers.retire(worker_id)
        try:
            handle.process.kill()
        except OSError:
            pass
        try:
            handle.process.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        if closed:
            return
        self._spawn(worker_id)
        self._c_worker_respawns.inc()

    # ------------------------------------------------------------------
    # Execution (the JobQueue's executor hook)
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        fingerprint: str,
        operation: str,
        fields: dict,
        *,
        timeout: float | None,
        timings: StageTimings | None = None,
    ) -> dict:
        """Send one request to the shard owner; return its response.

        The one dispatch path of :meth:`execute` and :meth:`append`:
        closed check, the ``cluster.dispatch`` (and, for operations,
        ``cluster.worker_exit``) fault sites, hydration references for
        the worker, the request, the telemetry fold, and the mapping of
        a failed reply's ``error_kind`` to the typed error the
        in-process path raises — :class:`~repro.errors.DatasetDegradedError`
        for hydrate failures (noted on the registry entry),
        :class:`~repro.errors.ReproError` for client errors.  Transport
        failures raise :class:`~repro.service.dispatch.DispatchError` and
        a death mid-request :class:`~repro.service.dispatch.WorkerCrashedError`
        (surfaced as ``reason: "worker_crashed"``).
        """
        with self._lock:
            if self._closed:
                raise ServiceError("cluster is shut down")
        self._c_dispatched.inc()
        try:
            self._faults.check("cluster.dispatch")
        except InjectedFaultError as exc:
            self._c_dispatch_failures.inc()
            raise DispatchError(str(exc)) from exc
        body = {"fingerprint": fingerprint, "operation": operation, **fields}
        if operation != APPEND_OP:
            try:
                self._faults.check("cluster.worker_exit")
            except WorkerCrashInjection:
                # Fired here (not in the worker) so one plan counts
                # crashes cluster-wide: a respawned worker re-arming the
                # spec would reset a `times` budget.  The directive rides
                # the request and the worker dies abruptly upon reading it.
                body["inject"] = "worker_exit"
        spec = self._registry.hydration_spec(fingerprint)
        body.update(
            snapshot_dir=spec["snapshot_dir"],
            source=spec["source"],
            chunk_rows=spec["chunk_rows"],
        )
        worker_id = self._shards.owner(fingerprint)
        handle = self._live_handle(worker_id)
        try:
            response = handle.request(body, timeout=timeout)
        except (WorkerCrashedError, DispatchError):
            self._c_dispatch_failures.inc()
            raise
        self._fold_worker_telemetry(worker_id, response, timings)
        if response.get("ok"):
            report = response.get("report")
            if not isinstance(report, dict):
                self._c_dispatch_failures.inc()
                raise DispatchError(
                    f"worker {worker_id} returned a malformed report "
                    f"({type(report).__name__})"
                )
            self._registry.note_remote_outcome(fingerprint, ok=True)
            return response
        message = str(response.get("error") or "worker reported failure")
        kind = response.get("error_kind")
        if kind == "degraded":
            self._registry.note_remote_outcome(
                fingerprint, ok=False, reason=message
            )
            raise DatasetDegradedError(message)
        if kind == "repro":
            raise ReproError(message)
        raise RuntimeError(f"worker {worker_id} failed {operation}: {message}")

    def execute(
        self,
        fingerprint: str,
        operation: str,
        params: dict,
        *,
        deadline_at: float | None = None,
        trace: str | None = None,
        timings: StageTimings | None = None,
    ) -> dict:
        """Run one operation on the shard's owning worker; return the report.

        Raises the same typed errors the in-process path does (see
        :meth:`_dispatch`) and counts the worker's hydration origin.
        """
        timeout = None
        fields = {"params": params, "deadline_in_s": None}
        if deadline_at is not None:
            remaining = max(deadline_at - time.monotonic(), 0.0)
            fields["deadline_in_s"] = remaining
            timeout = remaining + DISPATCH_GRACE_S
        if trace is not None:
            # Rides the req frame; old workers ignore unknown fields.
            fields["trace"] = trace
        response = self._dispatch(
            fingerprint, operation, fields, timeout=timeout, timings=timings
        )
        origin = response.get("origin")
        if origin in ("snapshot", "csv", "resident"):
            self._c_hydrations.labels(origin).inc()
        return response["report"]

    def append(
        self,
        fingerprint: str,
        rows: list,
        *,
        chain: dict,
        timeout: float | None = None,
    ) -> dict:
        """Delta ingest on the shard owner; returns the append info.

        The ``remote`` hook of
        :meth:`~repro.service.registry.DatasetRegistry.append_rows`.  The
        append is routed to the worker that owns the *current*
        fingerprint (it likely holds the relation resident), which runs
        the registry's own :func:`~repro.service.registry.append_version`
        and writes the new version's CSV spill and snapshot (chain in
        ``extra``) under the shared spill directory.  The new fingerprint
        generally hashes to a *different* shard owner, which hydrates
        from that snapshot on first use — the snapshot write is
        therefore mandatory, not advisory, and its failure fails the
        append.
        """
        spill_dir = self._registry.spill_dir
        if spill_dir is None:
            raise ServiceError("cluster append requires a spill directory")
        response = self._dispatch(
            fingerprint,
            APPEND_OP,
            {
                "append_rows": [list(row) for row in rows],
                "chain": chain,
                "spill_dir": str(spill_dir),
            },
            timeout=timeout,
        )
        return response["report"]

    def _fold_worker_telemetry(
        self,
        worker_id: int,
        response: dict,
        timings: StageTimings | None,
    ) -> None:
        """Fold the telemetry riding a ``res`` frame (all best effort).

        Three payloads, each optional: the worker's metric snapshot
        (latest per live slot, dead slots folded into a committed
        base), the worker-side stage
        timeline (merged into the job's timings under ``worker_``), and
        the worker's structured log record (forwarded to the front
        end's sink, so one log stream carries both halves of a trace).
        """
        tele = self._telemetry
        snapshot = response.get("metrics")
        if tele is not None and isinstance(snapshot, dict):
            tele.workers.update(worker_id, snapshot)
        payload = response.get("telemetry")
        if not isinstance(payload, dict):
            return
        stages = payload.get("stages")
        if timings is not None and isinstance(stages, dict):
            timings.merge(stages, prefix="worker_")
        record = payload.get("log")
        if tele is not None and tele.enabled and isinstance(record, dict):
            tele.log.emit(record)

    # ------------------------------------------------------------------
    # Introspection + lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-ready cluster summary (``/stats`` → ``cluster``)."""
        workers = []
        alive = 0
        with self._lock:
            handles = dict(self._handles)
        for worker_id in sorted(handles):
            handle = handles[worker_id]
            if handle is None:
                workers.append({"worker_id": worker_id, "alive": False})
            else:
                described = handle.describe()
                alive += bool(described["alive"])
                workers.append(described)
        shards = {
            str(worker_id): fingerprints
            for worker_id, fingerprints in self._shards.assignments(
                self._registry.fingerprints()
            ).items()
        }
        with self._lock:
            return {
                "worker_procs": self._shards.worker_procs,
                "alive": alive,
                "port": self._port,
                "dispatched": self.dispatched,
                "dispatch_failures": self.dispatch_failures,
                "worker_crashes": self.worker_crashes,
                "worker_respawns": self.worker_respawns,
                "hydrations": dict(self.hydrations),
                "max_inflight": WORKER_INFLIGHT,
                "shards": shards,
                "workers": workers,
            }

    def alive_workers(self) -> int:
        with self._lock:
            return sum(
                1
                for handle in self._handles.values()
                if handle is not None and handle.alive
            )

    def shutdown(self) -> None:
        """Stop supervision, ask workers to exit, reap the processes."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            handles = [h for h in self._handles.values() if h is not None]
            procs = list(self._procs.values())
        for handle in handles:
            handle.send_bye()
        deadline = time.monotonic() + 5.0
        for process in procs:
            try:
                process.wait(timeout=max(deadline - time.monotonic(), 0.1))
            except (OSError, subprocess.TimeoutExpired):
                try:
                    process.kill()
                    process.wait(timeout=5)
                except (OSError, subprocess.TimeoutExpired):
                    pass
        for handle in handles:
            handle.mark_dead("cluster shut down")


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
class _WorkerRuntime:
    """One worker's local state: hydrated relations and their memo spills."""

    def __init__(self, *, faults: FaultPlan, worker_id: int = 0) -> None:
        self._faults = faults
        self._relations: OrderedDict[str, object] = OrderedDict()
        self.jobs_done = 0
        self.worker_id = worker_id
        # A private registry per worker process; its snapshot rides
        # every res frame and pong, and the front end folds it under
        # the ``worker_`` prefix of /v1/metrics.
        self.metrics = MetricsRegistry()
        self._c_jobs = self.metrics.counter(
            "jobs_total", "Jobs completed by this worker process"
        )
        self._c_hydrations = self.metrics.counter(
            "hydrations_total",
            "Dataset materializations by origin",
            labelnames=("origin",),
        )
        self._h_job = self.metrics.histogram(
            "job_seconds", "Per-job wall time inside the worker"
        )
        self._c_memo_spills = self.metrics.counter(
            "memo_spills_total", "Entropy-memo sidecars written by this worker"
        )

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot()

    def _job_telemetry(
        self, message: dict, timings: StageTimings, origin, elapsed_s: float
    ) -> dict:
        """The ``telemetry`` field of a successful res frame.

        Carries the request's trace id back with the worker-side stage
        timeline and a ready-to-forward log record, so the front end's
        log stream shows both halves of the trace.
        """
        trace = message.get("trace")
        record = {
            "kind": "job",
            "proc": f"w{self.worker_id}",
            "ts": round(time.time(), 6),
            "trace_id": trace,
            "fingerprint": message.get("fingerprint"),
            "operation": message.get("operation"),
            "origin": origin,
            "elapsed_s": round(elapsed_s, 6),
            "stages": dict(timings.stages),
        }
        return {"trace": trace, "stages": dict(timings.stages), "log": record}

    def resident(self) -> list[str]:
        return list(self._relations)

    def _keep(self, fingerprint: str, relation) -> None:
        """Hold ``relation`` resident, dropping the least recently used."""
        self._relations[fingerprint] = relation
        self._relations.move_to_end(fingerprint)
        while len(self._relations) > WORKER_MAX_RESIDENT:
            self._relations.popitem(last=False)

    def _relation_for(self, message: dict):
        """Local cache, else :func:`~repro.relations.persist.hydrate_relation`;
        returns ``(relation, origin)``."""
        from repro.relations.persist import hydrate_relation

        fingerprint = message["fingerprint"]
        relation = self._relations.get(fingerprint)
        if relation is not None:
            self._relations.move_to_end(fingerprint)
            return relation, "resident"
        relation, origin = hydrate_relation(
            expected_fingerprint=fingerprint,
            snapshot_path=message.get("snapshot_dir"),
            source=message.get("source"),
            chunk_rows=message.get("chunk_rows"),
        )
        self._keep(fingerprint, relation)
        return relation, origin

    def _error_frame(self, base: dict, exc: Exception, degraded: tuple) -> dict:
        """The one failed ``res`` frame.

        ``error_kind`` tells the dispatcher which typed error to raise:
        ``degraded`` (the dataset cannot be materialized or persisted —
        exceptions of the ``degraded`` types), ``repro`` (a client error)
        or ``internal`` (anything else, with its type in the message).
        """
        if isinstance(exc, degraded):
            kind, message = "degraded", str(exc)
        elif isinstance(exc, ReproError):
            kind, message = "repro", str(exc)
        else:
            kind, message = "internal", f"{type(exc).__name__}: {exc}"
        return {
            **base,
            "ok": False,
            "error": message,
            "error_kind": kind,
            "resident": self.resident(),
        }

    def handle(self, message: dict) -> dict:
        """Run one dispatched operation; always returns a ``res`` frame."""
        from repro.factorize.report import validate_report
        from repro.info.engine import EntropyEngine
        from repro.relations.persist import save_engine_memo
        from repro.service.operations import run_operation

        base = {"t": "res", "id": message.get("id")}
        timings = StageTimings()
        started = time.perf_counter()
        try:
            with timings.span("hydrate"):
                relation, origin = self._relation_for(message)
        except Exception as exc:
            return self._error_frame(
                base, exc, (SnapshotError, DatasetDegradedError)
            )
        if message.get("operation") == APPEND_OP:
            try:
                info = self._append(message, relation)
            except Exception as exc:
                # A snapshot that cannot be written fails the append: it
                # is how the new fingerprint's shard owner materializes it.
                return self._error_frame(base, exc, (SnapshotError, OSError))
            self.jobs_done += 1
            return {
                **base,
                "ok": True,
                "report": info,
                "resident": self.resident(),
            }
        engine = EntropyEngine.for_relation(relation)
        memo_size = engine.cache_size()
        deadline_in_s = message.get("deadline_in_s")
        deadline_at = (
            time.monotonic() + float(deadline_in_s)
            if deadline_in_s is not None
            else None
        )
        try:
            report = run_operation(
                relation,
                message["operation"],
                message["params"],
                deadline_at=deadline_at,
                faults=self._faults,
                timings=timings,
            )
            validate_report(report)
        except Exception as exc:  # a WorkerCrashInjection passes through
            return self._error_frame(base, exc, ())
        snapshot_dir = message.get("snapshot_dir")
        if snapshot_dir and engine.cache_size() > memo_size:
            try:
                if save_engine_memo(snapshot_dir, engine):
                    self._c_memo_spills.inc()
            except OSError:
                pass  # advisory warm-start state: the spill is best effort
        self.jobs_done += 1
        elapsed = time.perf_counter() - started
        self._c_jobs.inc()
        if isinstance(origin, str):
            self._c_hydrations.labels(origin).inc()
        self._h_job.observe(elapsed)
        return {
            **base,
            "ok": True,
            "report": report,
            "origin": origin,
            "resident": self.resident(),
            "telemetry": self._job_telemetry(message, timings, origin, elapsed),
        }

    def _append(self, message: dict, relation) -> dict:
        """Delta ingest on the shard owner (the ``__append__`` pseudo-op).

        Runs :func:`~repro.service.registry.append_version` — the
        in-process registry's own routine — and writes the new version's
        CSV spill and snapshot into the shared spill directory, where the
        new fingerprint's owning worker (usually a different process)
        hydrates it on first use.  Files that already exist for the new
        fingerprint belong to the dataset the content coincides with and
        are left alone.  The new version replaces the old one in the
        resident LRU.
        """
        from repro.service.registry import (
            append_version,
            spill_csv,
            write_snapshot,
        )

        appended, info = append_version(
            relation, message["append_rows"], message["chain"]
        )
        if info["changed"]:
            spill_dir = Path(message["spill_dir"])
            write_snapshot(
                appended,
                spill_dir / f"snapshot-{info['fingerprint']}",
                source=spill_csv(appended, spill_dir),
                chunk_rows=message.get("chunk_rows"),
                chain=info["chain"],
            )
            self._relations.pop(message["fingerprint"], None)
            self._keep(info["fingerprint"], appended)
        return info


def _worker_plan() -> FaultPlan:
    """Build this worker's fault plan from the shipped spec (if any).

    Only the worker-side sites (:data:`WORKER_SITES`) are kept; the
    front-end sites stay with the front end so one rule never fires in
    two processes.
    """
    raw = os.environ.get(FAULTS_ENV)
    if not raw:
        return DISABLED
    try:
        spec = json.loads(raw)
    except ValueError:
        return DISABLED
    if not isinstance(spec, dict):
        return DISABLED
    rules = [
        rule
        for rule in spec.get("rules", [])
        if isinstance(rule, dict) and rule.get("site") in WORKER_SITES
    ]
    if not rules:
        return DISABLED
    try:
        return FaultPlan({"seed": spec.get("seed", 0), "rules": rules})
    except ServiceError:
        return DISABLED


def worker_main(argv: list[str] | None = None) -> int:
    """Entry point of one worker process (``python -m repro.service.cluster``).

    Connects back to the dispatcher, introduces itself with the spawn
    token, then serves requests: a reader thread answers heartbeats
    immediately (so a long mine never looks dead) and queues work; the
    main thread computes and responds.  The injected
    ``cluster.worker_exit`` fault dies via ``os._exit(1)`` — no
    goodbye, no flush — so the front end exercises its real crash path.
    """
    parser = argparse.ArgumentParser(prog="repro-cluster-worker")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--worker-id", required=True, type=int)
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    token = os.environ.get(TOKEN_ENV, "")
    plan = _worker_plan()
    try:
        sock = socket.create_connection((host, int(port)), timeout=10.0)
    except OSError as exc:
        print(
            f"[worker {args.worker_id}] cannot reach dispatcher: {exc}",
            file=sys.stderr,
        )
        return 1
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_lock = threading.Lock()
    runtime = _WorkerRuntime(faults=plan, worker_id=args.worker_id)
    with send_lock:
        send_frame(
            sock,
            {
                "t": "hello",
                "worker_id": args.worker_id,
                "pid": os.getpid(),
                "token": token,
            },
        )
    inbox: queue.Queue = queue.Queue()

    def read_loop() -> None:
        while True:
            try:
                message = recv_frame(sock)
            except (DispatchError, ServiceError):
                inbox.put(None)
                return
            if message is None or message.get("t") == "bye":
                inbox.put(None)
                return
            kind = message.get("t")
            if kind == "ping":
                try:
                    with send_lock:
                        send_frame(
                            sock,
                            {
                                "t": "pong",
                                "id": message.get("id"),
                                "resident": runtime.resident(),
                                "jobs_done": runtime.jobs_done,
                                "metrics": runtime.metrics_snapshot(),
                            },
                        )
                except DispatchError:
                    inbox.put(None)
                    return
                continue
            if kind == "req":
                inbox.put(message)

    threading.Thread(target=read_loop, daemon=True).start()
    while True:
        message = inbox.get()
        if message is None:
            return 0
        try:
            if message.get("inject") == "worker_exit":
                raise WorkerCrashInjection(
                    "dispatcher-injected worker exit (cluster.worker_exit)"
                )
            response = runtime.handle(message)
            response["metrics"] = runtime.metrics_snapshot()
        except WorkerCrashInjection:
            # Die like a real crash: no response, no cleanup, nonzero
            # status.  The dispatcher's reader sees EOF and fails the
            # in-flight job with reason "worker_crashed".
            os._exit(1)
        try:
            with send_lock:
                send_frame(sock, response)
        except DispatchError:
            return 0  # dispatcher is gone; nothing left to serve


if __name__ == "__main__":
    raise SystemExit(worker_main())
