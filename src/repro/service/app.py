"""Service assembly: registry + cache + job queue + HTTP server, one object.

:class:`Service` owns the subsystem lifecycle.  ``start()`` binds the
listening socket (``port=0`` picks an ephemeral port, read back from
``service.port``) and serves on a background thread; ``serve_forever()``
is the blocking variant the ``repro-ajd serve`` CLI uses.  ``stop()``
shuts the HTTP server and drains the worker pool.  The object is also a
context manager, which is how the tests hold a live server::

    with Service(ServiceConfig(port=0)) as service:
        client = ServiceClient(f"http://127.0.0.1:{service.port}")
        ...
"""

from __future__ import annotations

import os
import threading
import time

from repro.service.cache import ResultCache
from repro.service.config import ServiceConfig
from repro.service.faults import FaultPlan
from repro.service.http import ServiceHTTPServer, ServiceRequestHandler
from repro.service.jobs import JobQueue
from repro.service.registry import DatasetRegistry
from repro.service.telemetry import Telemetry

#: How often the background accept loop checks for ``stop()``, in
#: seconds.  ``stop()`` waits for that check before it wakes the long
#: polls, so it bounds how long a stopping server keeps them waiting.
ACCEPT_POLL_S = 0.05


class Service:
    """A running (or startable) decomposition service."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.faults = FaultPlan.from_spec(
            self.config.fault_plan
            if self.config.fault_plan is not None
            else os.environ.get("REPRO_FAULT_PLAN")
        )
        #: One telemetry plane per process: the shared metrics registry
        #: every subsystem's counters live on (so ``/stats`` and
        #: ``/v1/metrics`` can never disagree), the request log, and the
        #: fold point for worker-process metric snapshots.
        self.telemetry = Telemetry(
            enabled=self.config.telemetry,
            log_sink=self.config.request_log_path,
            log_capacity=self.config.request_log_capacity,
            faults=self.faults,
            proc="frontend",
        )
        metrics = self.telemetry.metrics
        self.registry = DatasetRegistry(
            memory_budget_bytes=self.config.memory_budget_bytes,
            spill_dir=self.config.spill_dir,
            faults=self.faults,
            metrics=metrics,
        )
        self.cache = ResultCache(
            max_entries=self.config.cache_entries,
            spill_dir=self.config.spill_dir,
            faults=self.faults,
            metrics=metrics,
        )
        #: ``worker_procs > 0`` scales compute across worker subprocesses
        #: (see :mod:`repro.service.cluster`); 0 keeps the classic
        #: in-process pool — bit-identical to the pre-cluster service,
        #: down to never importing the cluster module.
        self.cluster = None
        if self.config.worker_procs > 0:
            from repro.service.cluster import ClusterSupervisor

            self.cluster = ClusterSupervisor(
                worker_procs=self.config.worker_procs,
                registry=self.registry,
                faults=self.faults,
                telemetry=self.telemetry,
            )
        try:
            self.jobs = JobQueue(
                self.registry,
                self.cache,
                workers=self.config.workers,
                max_queue=self.config.max_queue,
                default_deadline_s=self.config.default_deadline_s,
                faults=self.faults,
                breaker_failures=self.config.breaker_failures,
                breaker_cooldown_s=self.config.breaker_cooldown_s,
                executor=self.cluster,
                telemetry=self.telemetry,
            )
        except BaseException:
            if self.cluster is not None:
                self.cluster.shutdown()
            raise
        self._server: ServiceHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_at = time.monotonic()
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _bind(self) -> ServiceHTTPServer:
        if self._server is None:
            self._server = ServiceHTTPServer(
                (self.config.host, self.config.port),
                ServiceRequestHandler,
                self,
            )
        return self._server

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` to the actual port)."""
        return self._bind().server_address[1]

    def start(self) -> "Service":
        """Bind and serve on a background thread; returns self."""
        server = self._bind()
        if self._thread is None:
            self._started_at = time.monotonic()
            self._draining = False
            self._thread = threading.Thread(
                target=server.serve_forever,
                args=(ACCEPT_POLL_S,),
                name="repro-service-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking serve (the CLI path); Ctrl-C returns cleanly."""
        server = self._bind()
        self._started_at = time.monotonic()
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Shut the HTTP server down and drain the worker pool.

        Draining answers every job long poll at once with the job's
        current view, running jobs included.
        """
        self._draining = True  # /healthz flips before the socket closes
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        self._thread = None
        self.jobs.shutdown(wait=True)
        if self.cluster is not None:
            self.cluster.shutdown()
        self.telemetry.close()

    def __enter__(self) -> "Service":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Delta ingest
    # ------------------------------------------------------------------
    def _parse_delta(self, entry, body: dict) -> list:
        """Parse + validate an append body's delta rows.

        Exactly one of ``csv`` (inline content) or ``path``
        (server-local CSV) supplies the delta; both run through the
        *ingest* parser (:func:`repro.relations.io.iter_csv_chunks`,
        same typed coercion as registration), which is what makes the
        appended fingerprint provably equal to a from-scratch ingest of
        the concatenated source.  The delta's header must match the
        dataset's attributes exactly (same names, same order).
        """
        import tempfile

        from repro.errors import ServiceError
        from repro.relations.io import iter_csv_chunks

        if ("path" in body) == ("csv" in body):
            raise ServiceError(
                "append exactly one of 'path' (server-local CSV) or "
                "'csv' (inline content)"
            )
        source = body.get("path", body.get("csv"))
        if not isinstance(source, str):
            raise ServiceError(
                f"append source must be a string, got {source!r}"
            )

        def _collect(path) -> tuple[tuple, list]:
            header = None
            rows: list = []
            for chunk in iter_csv_chunks(path):
                header = chunk.header
                rows.extend(chunk.rows)
            return header, rows

        if "path" in body:
            header, rows = _collect(source)
        else:
            with tempfile.NamedTemporaryFile(
                "w",
                encoding="utf-8",
                suffix=".csv",
                dir=(
                    str(self.registry.spill_dir)
                    if self.registry.spill_dir is not None
                    else None
                ),
                delete=False,
            ) as handle:
                handle.write(source)
                tmp_path = handle.name
            try:
                header, rows = _collect(tmp_path)
            finally:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
        if list(header or ()) != list(entry.attributes):
            raise ServiceError(
                f"delta header {list(header or ())!r} does not match "
                f"dataset attributes {list(entry.attributes)!r}"
            )
        return rows

    def append(self, fingerprint: str, body: dict) -> dict:
        """``POST /v1/datasets/{fp}/append``: delta ingest + maintenance.

        Appends the delta through the registry's one append path
        (:meth:`~repro.service.registry.DatasetRegistry.append_rows`;
        cluster mode extends the dataset on the shard owner, see
        :meth:`~repro.service.cluster.ClusterSupervisor.append`), then
        revalidates the dataset's cached results against the new
        content (:meth:`~repro.service.jobs.JobQueue.revalidate_after_append`).
        The response carries the new fingerprint, the version chain,
        and the revalidation summary.  Retry-safe: a replayed append
        whose first attempt landed resolves through the old
        fingerprint's alias and dedups to a no-op.
        """
        entry = self.registry.get(fingerprint)
        old_fingerprint = entry.fingerprint
        rows = self._parse_delta(entry, body)
        _, info = self.registry.append_rows(
            old_fingerprint,
            rows,
            remote=self.cluster.append if self.cluster is not None else None,
        )
        tolerance = self.config.revalidate_tolerance
        if info["changed"]:
            revalidation = self.jobs.revalidate_after_append(
                old_fingerprint, info["fingerprint"], tolerance=tolerance
            )
        else:
            revalidation = {
                "examined": 0,
                "revalidated": 0,
                "invalidated": 0,
                "tolerance": tolerance,
                "wall_time_s": 0.0,
            }
        view = dict(info)
        view["revalidation"] = revalidation
        view["dataset"] = self.registry.get(info["fingerprint"]).describe()
        return view

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """The ``GET /healthz`` document: ``ok`` | ``degraded`` | ``draining``.

        ``degraded`` means the service is still serving but impaired:
        an open circuit breaker, a dataset demoted to metadata-only, a
        shrunken worker pool, or a recent incident (worker crash, spill
        quarantine, dataset degradation) within
        ``health_incident_ttl_s``.  The recency window keeps a flapping
        fault visible to health checks that only sample occasionally.
        """
        now = time.monotonic()
        jobs_stats = self.jobs.stats()
        breakers = jobs_stats["breakers"]
        degraded_datasets = self.registry.degraded_count()
        reasons = []
        if any(b["state"] == "open" for b in breakers.values()):
            reasons.append("circuit breaker open")
        if degraded_datasets:
            reasons.append(f"{degraded_datasets} degraded dataset(s)")
        if jobs_stats["workers_alive"] < self.config.workers:
            reasons.append(
                f"{jobs_stats['workers_alive']}/{self.config.workers} "
                "workers alive"
            )
        if self.cluster is not None:
            cluster_alive = self.cluster.alive_workers()
            if cluster_alive < self.config.worker_procs:
                reasons.append(
                    f"{cluster_alive}/{self.config.worker_procs} "
                    "cluster workers alive"
                )
        ttl = self.config.health_incident_ttl_s
        for label, at in (
            ("worker crash", self.jobs.last_crash_at),
            ("spill quarantine", self.cache.last_quarantine_at),
            ("dataset degradation", self.registry.last_degrade_at),
        ):
            if at is not None and now - at < ttl:
                reasons.append(f"recent {label} ({now - at:.1f}s ago)")
        if self._draining:
            status = "draining"
        elif reasons:
            status = "degraded"
        else:
            status = "ok"
        view = {
            "status": status,
            "uptime_s": now - self._started_at,
            "workers": self.config.workers,
            "workers_alive": jobs_stats["workers_alive"],
            "degraded_datasets": degraded_datasets,
            "quarantined_spills": self.cache.quarantined,
            "worker_crashes": self.jobs.worker_crashes,
            "breakers": {
                operation: breaker["state"]
                for operation, breaker in breakers.items()
            },
        }
        if self.cluster is not None:
            view["worker_procs"] = self.config.worker_procs
            view["worker_procs_alive"] = self.cluster.alive_workers()
        if reasons:
            view["reasons"] = reasons
        if self.faults.enabled:
            view["faults_enabled"] = True
        return view

    def stats(self) -> dict:
        """The ``GET /stats`` document.

        The ``cluster`` section appears only when ``worker_procs > 0``,
        keeping the single-process document byte-identical to the
        pre-cluster service.
        """
        view = {
            "uptime_s": time.monotonic() - self._started_at,
            "cache": self.cache.stats(),
            # Never waits on the registry lock (see DatasetRegistry.stats).
            "registry": self.registry.stats(),
            "jobs": self.jobs.stats(),
            "faults": self.faults.stats(),
            "metrics": self.telemetry.summary(),
        }
        if self.cluster is not None:
            view["cluster"] = self.cluster.stats()
        return view
