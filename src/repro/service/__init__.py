"""Decomposition-as-a-service: long-lived, cacheable serving infrastructure.

The :mod:`repro.service` package turns the library's one-shot pipeline
(ingest → mine → analyze → decompose) into a concurrent HTTP/JSON
service that amortizes work across requests:

* :class:`~repro.service.registry.DatasetRegistry` — CSVs ingested once
  through the columnar CSV route, keyed by content fingerprint, kept resident with
  their exact entropy engines under an LRU memory budget;
* :class:`~repro.service.cache.ResultCache` — mine/analyze/decompose
  reports keyed by ``(fingerprint, operation, canonical params)``, with
  an optional on-disk spill so restarts stay warm;
* :class:`~repro.service.jobs.JobQueue` — a thread worker pool with job
  states, per-job deadlines mapped onto search budgets, request
  coalescing, and backpressure; a singleton job is a one-item batch,
  and every item computes through one executor
  (:class:`~repro.service.operations.InProcessExecutor`, or the cluster
  supervisor);
* :mod:`repro.service.http` / :class:`~repro.service.app.Service` — the
  stdlib ``ThreadingHTTPServer`` API (``repro-ajd serve``);
* :class:`~repro.service.client.ServiceClient` — the Python client,
  with capped-jittered retries and idempotent resubmission;
* :class:`~repro.service.faults.FaultPlan` — the deterministic
  fault-injection harness behind the chaos test suite;
* :mod:`repro.service.telemetry` — the observability plane: a typed
  metrics registry (Prometheus exposition at ``/v1/metrics``), latency
  histograms with exact-ish quantiles, structured JSON request logs,
  and cross-process trace propagation (``docs/observability.md``);
* :mod:`repro.service.cluster` / :mod:`repro.service.dispatch` — the
  ``--worker-procs N`` multi-process scale-out: worker subprocesses own
  consistent-hash shards of the datasets, hydrate them zero-parse from
  snapshots, and receive jobs over a length-prefixed socket protocol.

See ``docs/service.md`` for the API reference and semantics, and
``docs/robustness.md`` for the failure model.
"""

from repro.service.app import Service
from repro.service.cache import ResultCache, canonical_key
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.config import ServiceConfig
from repro.service.dispatch import DispatchError, WorkerCrashedError
from repro.service.faults import FaultPlan, WorkerCrashInjection
from repro.service.jobs import CircuitBreaker, Job, JobItem, JobQueue
from repro.service.operations import (
    InProcessExecutor,
    canonicalize_params,
    run_operation,
)
from repro.service.registry import DatasetEntry, DatasetRegistry
from repro.service.telemetry import MetricsRegistry, StageTimings, Telemetry

__all__ = [
    "CircuitBreaker",
    "ClusterSupervisor",
    "DatasetEntry",
    "DatasetRegistry",
    "DispatchError",
    "FaultPlan",
    "InProcessExecutor",
    "Job",
    "JobItem",
    "JobQueue",
    "MetricsRegistry",
    "ResultCache",
    "Service",
    "ServiceClient",
    "ServiceClientError",
    "ServiceConfig",
    "ShardMap",
    "StageTimings",
    "Telemetry",
    "WorkerCrashInjection",
    "WorkerCrashedError",
    "canonical_key",
    "canonicalize_params",
    "run_operation",
]


def __getattr__(name: str):
    # ClusterSupervisor/ShardMap resolve lazily: the cluster module pulls
    # in subprocess machinery that single-process embedders never need.
    if name in ("ClusterSupervisor", "ShardMap"):
        from repro.service import cluster

        return getattr(cluster, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
