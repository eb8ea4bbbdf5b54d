"""Service configuration: one dataclass, CLI- and test-friendly defaults.

Every tunable of the serving layer lives here so the `repro-ajd serve`
subcommand, the test harness, and embedded users construct the same
object.  All sizes are in bytes (the CLI converts from MB).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import ServiceError

#: Default TCP port of ``repro-ajd serve`` (0 = pick an ephemeral port).
DEFAULT_PORT = 8765


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one service instance.

    Attributes
    ----------
    host / port:
        Bind address.  ``port=0`` asks the OS for an ephemeral port
        (read it back from ``Service.port`` after ``start()``).
    workers:
        Job-worker threads.  Each worker runs one job at a time;
        process-level parallelism is ``worker_procs``.
    memory_budget_bytes:
        Resident-dataset budget for the registry's LRU eviction, or
        ``None`` for unbounded.  Evicted datasets keep their metadata and
        are re-ingested from their source on next use.
    max_queue:
        Backpressure bound: jobs queued (not yet running) beyond this
        are rejected with :class:`~repro.errors.QueueFullError`
        (HTTP 503).
    cache_entries:
        In-memory result-cache capacity (LRU).
    spill_dir:
        Directory for the result cache's on-disk spill, inline CSV
        uploads, and the persistent columnar snapshots that eviction
        reloads and warm restarts prefer (zero-parse mmap instead of CSV
        re-ingest); ``None`` disables all three (cache is memory-only and
        inline datasets cannot be re-ingested after eviction).
    default_deadline_s:
        Deadline applied to jobs that do not set one; ``None`` means
        jobs without a deadline run unbounded.
    fault_plan:
        Chaos harness: a :class:`~repro.service.faults.FaultPlan` spec
        (dict), inline JSON, or a path to a JSON file.  ``None`` (the
        default) falls back to the ``REPRO_FAULT_PLAN`` environment
        variable, and if that is unset too the shared disabled plan is
        used — zero injection, (near-)zero overhead.
    breaker_failures / breaker_cooldown_s:
        Per-operation circuit breaker: after ``breaker_failures``
        consecutive infrastructure failures, fresh submissions of that
        operation fast-fail (HTTP 503 + ``Retry-After``) for
        ``breaker_cooldown_s`` seconds.
    health_incident_ttl_s:
        How long after an incident (worker crash, spill quarantine,
        dataset degradation) ``/healthz`` keeps reporting ``degraded``
        even once the underlying state has healed.
    worker_procs:
        Multi-process scale-out: ``0`` (the default) computes in-process
        — bit-identical to the pre-cluster service — while ``N >= 1``
        starts N worker subprocesses, each owning a consistent-hash
        shard of the datasets, with jobs dispatched over the
        :mod:`repro.service.dispatch` socket protocol.  See
        :mod:`repro.service.cluster`.
    revalidate_tolerance:
        Delta-ingest cache revalidation: after an append, each cached
        mined jointree is re-scored (fixed tree, no search) on the
        appended relation and **kept** — re-keyed under the new content
        fingerprint — when both ``|ΔJ|`` and ``|Δρ|`` moved by at most
        this much; otherwise the entry is dropped so the next request
        re-mines.  ``0.0`` keeps only bit-stable results.
    telemetry:
        Per-request telemetry (latency histograms, stage spans,
        structured request/job log lines).  Component counters stay
        registry-backed either way, so ``/stats`` and ``/v1/metrics``
        remain truthful with telemetry off; disabling only removes the
        per-request work (the overhead bench compares the two modes).
    request_log_path:
        Sink for the structured JSON request log; ``None`` writes to
        stderr.  Lines flow through a bounded non-blocking writer —
        a slow or dead sink drops lines (counted) instead of stalling
        requests.
    request_log_capacity:
        Bound on the request-log writer queue; beyond it lines are
        dropped and counted (``telemetry_log_dropped_total``).
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    workers: int = 2
    memory_budget_bytes: int | None = 256 * 1024 * 1024
    max_queue: int = 64
    cache_entries: int = 1024
    spill_dir: str | Path | None = None
    default_deadline_s: float | None = None
    fault_plan: dict | str | None = None
    breaker_failures: int = 5
    breaker_cooldown_s: float = 5.0
    health_incident_ttl_s: float = 60.0
    worker_procs: int = 0
    revalidate_tolerance: float = 0.05
    telemetry: bool = True
    request_log_path: str | Path | None = None
    request_log_capacity: int = 1024

    def __post_init__(self) -> None:
        if self.port < 0 or self.port > 65535:
            raise ServiceError(f"port must be in [0, 65535], got {self.port}")
        if self.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {self.workers}")
        if self.max_queue < 1:
            raise ServiceError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.cache_entries < 1:
            raise ServiceError(
                f"cache_entries must be >= 1, got {self.cache_entries}"
            )
        if (
            self.memory_budget_bytes is not None
            and self.memory_budget_bytes < 1
        ):
            raise ServiceError(
                "memory_budget_bytes must be positive or None, got "
                f"{self.memory_budget_bytes}"
            )
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ServiceError(
                "default_deadline_s must be positive or None, got "
                f"{self.default_deadline_s}"
            )
        if self.breaker_failures < 1:
            raise ServiceError(
                f"breaker_failures must be >= 1, got {self.breaker_failures}"
            )
        if self.breaker_cooldown_s <= 0:
            raise ServiceError(
                f"breaker_cooldown_s must be positive, got {self.breaker_cooldown_s}"
            )
        if self.health_incident_ttl_s < 0:
            raise ServiceError(
                "health_incident_ttl_s must be >= 0, got "
                f"{self.health_incident_ttl_s}"
            )
        if self.worker_procs < 0:
            raise ServiceError(
                f"worker_procs must be >= 0, got {self.worker_procs}"
            )
        if (
            isinstance(self.revalidate_tolerance, bool)
            or not isinstance(self.revalidate_tolerance, (int, float))
            or self.revalidate_tolerance < 0
        ):
            raise ServiceError(
                "revalidate_tolerance must be a number >= 0, got "
                f"{self.revalidate_tolerance!r}"
            )
        if self.request_log_capacity < 1:
            raise ServiceError(
                "request_log_capacity must be >= 1, got "
                f"{self.request_log_capacity}"
            )
