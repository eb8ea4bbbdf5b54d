"""Job queue + worker pool: asynchronous, cached, deadline-bounded compute.

Every job is a list of operations against one dataset.  ``POST /jobs``
makes a one-item :class:`Job`; ``POST /jobs/batch`` makes one with
``batch=True``, a flag that only selects the JSON view.  Both request
shapes are parsed by their own ``submit`` method and then share one
admission path, where all the amortization happens, in order:

1. **Idempotent replay** — an optional ``idempotency_key`` maps a
   retried submit back onto the job the first attempt created, so a
   client that lost the response (dropped connection) never double-runs
   work — even for deadline jobs, which deliberately never coalesce.  A
   token belongs to one job kind: reusing a singleton's token for a
   batch, or a batch's for a singleton, is a client error.
2. **Cache pre-answer** — each item whose `(fingerprint, operation,
   canonical params)` key is already in the
   :class:`~repro.service.cache.ResultCache` takes the cached report
   (marked ``cached: true``); a job whose items are all answered is born
   ``done`` and never touches a worker.
3. **In-flight coalescing** — a deadline-free one-item job identical to
   one already queued or running returns the *same* job object, so
   concurrent identical clients share one computation and read
   bit-identical reports.
4. **Enqueue** — otherwise the job is queued for the worker pool as one
   unit, with **backpressure**: beyond ``max_queue`` waiting jobs,
   submission raises :class:`~repro.errors.QueueFullError` (HTTP 503).

Workers are threads (the compute is numpy-heavy, releasing the GIL in
the hot group-by/bincount kernels; process-level parallelism is the
cluster's job, see :mod:`repro.service.cluster`).  A worker runs a job's
items in order, each through one executor call:
:class:`~repro.service.operations.InProcessExecutor` by default, or a
:class:`~repro.service.cluster.ClusterSupervisor`.  Items after the first
re-check the cache, so an earlier identical item in the same job fills
it for its twins, and each item is cached on its own — a batch's reports
are bit-identical to the same operations submitted as singletons.  A
computed report enters the cache's memory tier before its job settles;
its spill file is written after the job is answered and counted.

Deadlines: a singleton's ``deadline`` param, else ``default_deadline_s``,
becomes an absolute timestamp at submission.  An item that *starts* past
it ends ``timeout`` without computing; one that starts in time hands the
remaining budget to the search context (via ``deadline_at``), so an
expiring search returns its best-so-far schema with ``partial: true``.
Timed-out, partial, and degraded results are **never cached** — a retry
with a larger budget must recompute.  A job ends ``done`` if any item is
done, ``timeout`` if every item timed out, and ``failed`` otherwise.

Resilience (see ``docs/robustness.md``):

* **Worker supervision** — each worker runs under a supervisor that
  catches a thread-killing escape (anything ``_run_job``'s catch-all
  does not absorb, including the injected
  :class:`~repro.service.faults.WorkerCrashInjection`), fails the
  in-flight job with a structured ``worker_crashed`` reason, and
  respawns a replacement thread, so the pool never silently shrinks.
* **Failure scope** — a client error (bad schema, bad params) fails only
  its own item.  An infrastructure error (worker process crash, dispatch
  failure, degraded dataset) fails the item and every pending item of
  the job together — they all target the same dataset, hence the same
  worker path — and sets the job's ``reason``.
* **Circuit breaker** — per operation: ``breaker_failures`` consecutive
  *infrastructure* failures (worker crashes, internal errors, degraded
  datasets — never client errors or timeouts) open the breaker, and
  submissions with a pending item of that operation fast-fail with
  :class:`~repro.errors.CircuitOpenError` (HTTP 503 + ``Retry-After``)
  until the cooldown elapses; a success closes it.  Cache hits and
  coalescing keep serving while open.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import traceback
from collections import OrderedDict, deque

from repro.errors import (
    CircuitOpenError,
    DatasetDegradedError,
    QueueFullError,
    ReproError,
    ServiceError,
    UnknownJobError,
)
from repro.factorize.report import validate_report
from repro.service.cache import ResultCache, canonical_key
from repro.service.dispatch import DispatchError, WorkerCrashedError
from repro.service.faults import DISABLED, FaultPlan
from repro.service.operations import InProcessExecutor, canonicalize_params
from repro.service.registry import DatasetRegistry
from repro.service.telemetry import MetricsRegistry, Telemetry, new_trace_id

#: Job lifecycle states (``state`` in every ``GET /jobs/{id}`` response).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
TIMEOUT = "timeout"


class CircuitBreaker:
    """Consecutive-failure trip switch for one operation's compute path.

    ``record_failure`` counts *infrastructure* failures; at
    ``threshold`` consecutive ones the breaker opens for ``cooldown_s``
    (``check`` returns the remaining cooldown to fast-fail with).  Once
    the cooldown elapses the breaker is half-open: submissions pass
    again, and the next success closes it while the next failure
    re-opens it for a fresh cooldown.  All mutation happens under the
    owning queue's lock.
    """

    __slots__ = ("threshold", "cooldown_s", "consecutive", "opened_at", "opens")

    def __init__(self, threshold: int, cooldown_s: float) -> None:
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.consecutive = 0
        self.opened_at: float | None = None  # time.monotonic()
        self.opens = 0

    def record_failure(self) -> None:
        self.consecutive += 1
        if self.consecutive >= self.threshold:
            if self.opened_at is None:
                self.opens += 1
            self.opened_at = time.monotonic()  # (re-)start the cooldown

    def record_success(self) -> None:
        self.consecutive = 0
        self.opened_at = None

    def check(self) -> float | None:
        """Remaining cooldown seconds if open (fast-fail), else ``None``."""
        if self.opened_at is None:
            return None
        remaining = self.opened_at + self.cooldown_s - time.monotonic()
        return remaining if remaining > 0 else None  # elapsed: half-open

    def describe(self) -> dict:
        retry_after = self.check()
        state = "closed"
        if self.opened_at is not None:
            state = "open" if retry_after is not None else "half-open"
        return {
            "state": state,
            "consecutive_failures": self.consecutive,
            "threshold": self.threshold,
            "opens": self.opens,
            "retry_after_s": retry_after,
        }


class JobItem:
    """One operation of a job: its own cache key, cache row, and outcome."""

    __slots__ = (
        "cache_key",
        "cached",
        "canonical_params",
        "error",
        "operation",
        "result",
        "state",
    )

    def __init__(
        self, operation: str, canonical_params: dict, cache_key: str
    ) -> None:
        self.operation = operation
        self.canonical_params = canonical_params
        self.cache_key = cache_key
        self.state = QUEUED
        self.result: dict | None = None
        self.error: str | None = None
        self.cached = False

    def answer(self, cached: dict) -> None:
        """Take a cached report as this item's result."""
        cached["cached"] = True
        self.result = cached
        self.cached = True
        self.state = DONE

    def describe(self, *, include_result: bool = True) -> dict:
        view = {
            "operation": self.operation,
            "params": dict(self.canonical_params),
            "state": self.state,
            "cached": self.cached,
            "partial": bool(self.result and self.result.get("partial")),
        }
        if self.error is not None:
            view["error"] = self.error
        if include_result and self.result is not None:
            view["result"] = self.result
        return view


class Job:
    """One unit of queued work — a list of items — and its lifecycle.

    ``batch`` only selects the JSON view: a singleton (``POST /jobs``)
    describes itself flat, and its ``operation``, ``canonical_params``
    and ``result`` read through to its one item; a batch
    (``POST /jobs/batch``) lists its items.
    """

    __slots__ = (
        "batch",
        "deadline_at",
        "deadline_s",
        "error",
        "event",
        "fingerprint",
        "finished_at",
        "id",
        "inflight_key",
        "items",
        "reason",
        "started_at",
        "state",
        "submitted_at",
        "timings",
        "trace_id",
        "wake",
        "worker_slot",
    )

    def __init__(
        self,
        job_id: str,
        fingerprint: str,
        items: list[JobItem],
        *,
        batch: bool,
        deadline_s: float | None,
        trace_id: str | None = None,
    ) -> None:
        self.id = job_id
        self.fingerprint = fingerprint
        self.items = items
        self.batch = batch
        self.inflight_key: str | None = None
        self.deadline_s = deadline_s
        self.submitted_at = time.monotonic()
        self.deadline_at = (
            self.submitted_at + deadline_s if deadline_s is not None else None
        )
        self.state = QUEUED
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.error: str | None = None
        #: Structured failure class for programmatic clients:
        #: ``worker_crashed`` | ``dispatch_failed`` | ``dataset_degraded``
        #: | ``shutdown`` | ``None`` (success, timeout, or client error).
        self.reason: str | None = None
        #: Correlates this job's spans and log lines across processes —
        #: minted at the front end, rides the cluster wire protocol.
        self.trace_id = trace_id or new_trace_id()
        #: Finished stage timeline (``{"run": 0.12, "worker_run": ...}``)
        #: when telemetry is on; rendered as a ``Server-Timing`` header.
        self.timings: dict | None = None
        #: Cluster worker slot that computed the job (None in-process).
        self.worker_slot: int | None = None
        self.event = threading.Event()
        #: Set with ``event`` or by a shutdown; made by the first long
        #: poll on the job (see :meth:`JobQueue.wait`), so jobs nobody
        #: long-polls never allocate it.
        self.wake: threading.Event | None = None

    @property
    def operation(self) -> str:
        return "batch" if self.batch else self.items[0].operation

    @property
    def canonical_params(self) -> dict:
        return self.items[0].canonical_params

    @property
    def result(self) -> dict | None:
        return None if self.batch else self.items[0].result

    @property
    def cached(self) -> bool:
        """Every item was answered from the result cache."""
        return all(item.cached for item in self.items)

    def service_time_s(self) -> float | None:
        """Submission-to-completion wall time (None while unfinished)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def pending_operations(self) -> list[str]:
        """Distinct operations of the items not yet finished."""
        return sorted(
            {
                item.operation
                for item in self.items
                if item.state in (QUEUED, RUNNING)
            }
        )

    def describe(self, *, include_result: bool = True) -> dict:
        """JSON view served by ``GET /jobs/{id}``."""
        view = {
            "job_id": self.id,
            "state": self.state,
            "operation": self.operation,
            "fingerprint": self.fingerprint,
            "cached": self.cached,
            "service_time_s": self.service_time_s(),
            "trace_id": self.trace_id,
        }
        if self.batch:
            view["n_items"] = len(self.items)
            view["n_cached"] = sum(item.cached for item in self.items)
            view["n_failed"] = sum(item.state == FAILED for item in self.items)
            view["items"] = [
                item.describe(include_result=include_result)
                for item in self.items
            ]
        else:
            view["params"] = dict(self.canonical_params)
            view["deadline_s"] = self.deadline_s
            view["partial"] = bool(self.result and self.result.get("partial"))
            if self.timings:
                view["stages"] = dict(self.timings)
        if self.error is not None:
            view["error"] = self.error
        if self.reason is not None:
            view["reason"] = self.reason
        if include_result and self.result is not None:
            view["result"] = self.result
        return view

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job finishes; ``True`` iff it did."""
        return self.event.wait(timeout)

    def _fail_pending(self, error: str) -> None:
        for item in self.items:
            if item.state in (QUEUED, RUNNING):
                item.state = FAILED
                item.error = error

    def _settle(self) -> None:
        """Finish in the state the items add up to.

        ``done`` if any item is done, ``timeout`` if every item timed
        out, ``failed`` otherwise — for one item, exactly its own state.
        """
        states = [item.state for item in self.items]
        if DONE in states:
            state = DONE
        elif all(item_state == TIMEOUT for item_state in states):
            state = TIMEOUT
        else:
            state = FAILED
        if self.error is None:
            if not self.batch:
                self.error = self.items[0].error
            else:
                unfinished = sum(item_state != DONE for item_state in states)
                if unfinished:
                    self.error = (
                        f"{unfinished} of {len(states)} operations did not "
                        "complete"
                    )
        self.state = state
        self.finished_at = time.monotonic()
        self.event.set()
        # Read after the set: a long poll that published its wake event
        # before this read is woken here, and one that publishes it
        # later sees ``event`` already set (see JobQueue.wait).
        wake = self.wake
        if wake is not None:
            wake.set()


class JobQueue:
    """Bounded queue + thread worker pool over a registry and a cache."""

    def __init__(
        self,
        registry: DatasetRegistry,
        cache: ResultCache,
        *,
        workers: int = 2,
        max_queue: int = 64,
        default_deadline_s: float | None = None,
        max_finished: int = 4096,
        faults: FaultPlan | None = None,
        breaker_failures: int = 5,
        breaker_cooldown_s: float = 5.0,
        max_batch_ops: int = 64,
        executor=None,
        metrics: MetricsRegistry | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if max_finished < 1:
            raise ServiceError(f"max_finished must be >= 1, got {max_finished}")
        if max_batch_ops < 1:
            raise ServiceError(
                f"max_batch_ops must be >= 1, got {max_batch_ops}"
            )
        if breaker_failures < 1:
            raise ServiceError(
                f"breaker_failures must be >= 1, got {breaker_failures}"
            )
        if breaker_cooldown_s <= 0:
            raise ServiceError(
                f"breaker_cooldown_s must be positive, got {breaker_cooldown_s}"
            )
        self._registry = registry
        self._cache = cache
        self._faults = faults if faults is not None else DISABLED
        #: Where every operation's compute runs: in-process by default,
        #: or a :class:`~repro.service.cluster.ClusterSupervisor` that
        #: routes it to the shard's owning worker subprocess.
        self._executor = (
            executor
            if executor is not None
            else InProcessExecutor(registry, self._faults)
        )
        self._default_deadline_s = default_deadline_s
        self._queue: queue.Queue[Job | None] = queue.Queue(maxsize=max_queue)
        self._jobs: dict[str, Job] = {}
        #: Finished job ids, oldest first: only the newest ``max_finished``
        #: finished jobs stay pollable; older ones are forgotten so a
        #: long-lived server's memory is bounded by traffic *rate*, not
        #: lifetime request count.  Queued/running jobs are never pruned.
        self._finished: deque[str] = deque()
        self._max_finished = max_finished
        self._inflight: dict[str, Job] = {}  # cache_key → live deadline-free job
        #: idempotency_key → job id, bounded like finished-job retention.
        self._idempotency: OrderedDict[str, str] = OrderedDict()
        # Reentrant: admission creates jobs under the lock.
        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        self._max_batch_ops = max_batch_ops
        #: The telemetry plane (latency histograms, job log lines).  The
        #: queue's counters live on the metrics registry either way —
        #: shared with the service so ``/stats`` and ``/v1/metrics``
        #: read the same instruments — while per-job spans and log
        #: emission are skipped when telemetry is disabled.
        self._telemetry = telemetry
        if metrics is None:
            metrics = (
                telemetry.metrics if telemetry is not None else MetricsRegistry()
            )
        self._metrics = metrics
        self._c_coalesced = metrics.counter(
            "jobs_coalesced_total",
            "Submissions coalesced onto an identical in-flight job",
        )
        self._c_idempotent = metrics.counter(
            "jobs_idempotent_replays_total",
            "Submissions replayed via their idempotency key",
        )
        self._c_revalidated = metrics.counter(
            "jobs_revalidated_total",
            "Cached results carried across an append by re-scoring",
        )
        self._c_revalidation_invalidated = metrics.counter(
            "jobs_revalidation_invalidated_total",
            "Cached results dropped by post-append revalidation",
        )
        self._c_batches = metrics.counter(
            "jobs_batches_total", "Batch submissions"
        )
        self._c_batch_items = metrics.counter(
            "jobs_batch_items_total", "Operations submitted inside batches"
        )
        self._c_batch_item_cache_hits = metrics.counter(
            "jobs_batch_item_cache_hits_total",
            "Batch items answered from the result cache",
        )
        self._c_completed = metrics.counter(
            "jobs_completed_total",
            "Jobs finished, by terminal state",
            labelnames=("state",),
        )
        for state in (DONE, FAILED, TIMEOUT):
            self._c_completed.labels(state)  # pre-touch: /stats shows zeros
        self._c_worker_crashes = metrics.counter(
            "jobs_worker_crashes_total",
            "Worker thread crashes caught by the supervisor",
        )
        self._c_worker_respawns = metrics.counter(
            "jobs_worker_respawns_total",
            "Worker threads respawned after a crash",
        )
        self._h_queue_wait = metrics.histogram(
            "job_queue_wait_seconds", "Time jobs spent queued before running"
        )
        self.last_crash_at: float | None = None  # time.monotonic()
        self._breakers = {
            operation: CircuitBreaker(breaker_failures, breaker_cooldown_s)
            for operation in ("mine", "analyze", "decompose")
        }
        self._closed = False
        self._configured_workers = workers
        self._workers: list[threading.Thread] = [None] * workers  # type: ignore[list-item]
        for index in range(workers):
            self._spawn_worker(index)

    def _spawn_worker(self, index: int) -> None:
        thread = threading.Thread(
            target=self._worker_main,
            args=(index,),
            name=f"repro-job-worker-{index}",
            daemon=True,
        )
        # Start before publishing: a concurrent shutdown() snapshots
        # self._workers to join, and joining a never-started thread is
        # a RuntimeError.
        thread.start()
        with self._lock:
            self._workers[index] = thread

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        fingerprint: str,
        operation: str,
        params: dict | None = None,
        *,
        idempotency_key: str | None = None,
        trace_id: str | None = None,
    ) -> Job:
        """Create (or coalesce into, replay, or answer from cache) one job.

        ``idempotency_key`` is a client-chosen token: a submit retried
        with the same token returns the job the first attempt created
        (whatever its state), so a client whose connection dropped after
        submission never double-runs work.
        """
        params = dict(params or {})
        deadline_s = params.pop("deadline", None)
        if deadline_s is not None:
            if isinstance(deadline_s, bool) or not isinstance(
                deadline_s, (int, float)
            ):
                raise ServiceError(
                    f"deadline must be a number of seconds, got {deadline_s!r}"
                )
            if deadline_s <= 0:
                raise ServiceError(f"deadline must be positive, got {deadline_s}")
            deadline_s = float(deadline_s)
        # Raises UnknownDatasetError early; a fingerprint superseded by
        # an append resolves to the live version, so the cache is keyed
        # (and the job runs) on current content.
        fingerprint = self._registry.get(fingerprint).fingerprint
        return self._admit(
            fingerprint,
            [self._item(fingerprint, operation, params)],
            batch=False,
            deadline_s=deadline_s,
            idempotency_key=idempotency_key,
            trace_id=trace_id,
        )

    def submit_batch(
        self,
        fingerprint: str,
        operations: list,
        *,
        idempotency_key: str | None = None,
        trace_id: str | None = None,
    ) -> Job:
        """Submit a vector of operations against one dataset as one job.

        ``operations`` is a list of ``{"operation": ..., "params": ...}``
        objects (``params`` optional).  Items may not carry their own
        ``deadline``; ``default_deadline_s`` bounds the whole batch.
        The batch enqueues as a single unit — one executor call per
        item on one worker thread — unless every item is answered from
        the cache at submission.
        """
        if not isinstance(operations, list) or not operations:
            raise ServiceError(
                "operations must be a non-empty list of "
                '{"operation": ..., "params": ...} objects'
            )
        if len(operations) > self._max_batch_ops:
            raise ServiceError(
                f"batch has {len(operations)} operations, limit is "
                f"{self._max_batch_ops}"
            )
        # Raises UnknownDatasetError early (see ``submit``).
        fingerprint = self._registry.get(fingerprint).fingerprint
        items: list[JobItem] = []
        for index, spec in enumerate(operations):
            if not isinstance(spec, dict):
                raise ServiceError(
                    f"operations[{index}] must be an object, got "
                    f"{type(spec).__name__}"
                )
            spec = dict(spec)
            operation = spec.pop("operation", None)
            params = spec.pop("params", None)
            if spec:
                raise ServiceError(
                    f"operations[{index}] has unknown keys: {sorted(spec)}"
                )
            if not isinstance(operation, str):
                raise ServiceError(
                    f"operations[{index}].operation must be a string, got "
                    f"{operation!r}"
                )
            params = dict(params) if params else {}
            if "deadline" in params:
                raise ServiceError(
                    f"operations[{index}]: 'deadline' is not supported "
                    "inside a batch; submit a singleton job"
                )
            items.append(self._item(fingerprint, operation, params))
        return self._admit(
            fingerprint,
            items,
            batch=True,
            deadline_s=None,
            idempotency_key=idempotency_key,
            trace_id=trace_id,
        )

    @staticmethod
    def _item(fingerprint: str, operation: str, params: dict) -> JobItem:
        canonical = canonicalize_params(operation, params)
        return JobItem(
            operation,
            canonical,
            canonical_key(fingerprint, operation, canonical),
        )

    def _admit(
        self,
        fingerprint: str,
        items: list[JobItem],
        *,
        batch: bool,
        deadline_s: float | None,
        idempotency_key: str | None,
        trace_id: str | None,
    ) -> Job:
        """The one admission path: replay, pre-answer, coalesce, enqueue."""
        if self._closed:
            raise ServiceError("job queue is shut down")
        if idempotency_key is not None:
            if not isinstance(idempotency_key, str) or not (
                0 < len(idempotency_key) <= 200
            ):
                raise ServiceError(
                    "idempotency_key must be a non-empty string of at most "
                    f"200 characters, got {idempotency_key!r}"
                )
            with self._lock:
                replayed = self._jobs.get(self._idempotency.get(idempotency_key))
                if replayed is not None:
                    if replayed.batch != batch:
                        raise ServiceError(
                            f"idempotency_key {idempotency_key!r} was used for "
                            f"a {'batch' if replayed.batch else 'singleton'} "
                            "submission"
                        )
                    self._c_idempotent.inc()
                    return replayed
        if deadline_s is None:
            deadline_s = self._default_deadline_s
        for item in items:
            cached = self._cache.get(item.cache_key)
            if cached is not None:
                item.answer(cached)
        # The cache key is deadline-free (cached results are complete,
        # hence valid under any budget); coalescing is stricter still:
        # only deadline-free one-item jobs coalesce.  Relative deadlines
        # become absolute at submission, so two "deadline=10" requests
        # arriving seconds apart have *different* remaining budgets —
        # sharing one outcome would hand the later caller less wall
        # clock than it asked for (or a timeout it never earned).
        inflight_key = (
            items[0].cache_key if not batch and deadline_s is None else None
        )
        with self._lock:
            inflight = self._inflight.get(inflight_key)
            if inflight is None:
                # A worker that finished one of these keys since the
                # lookup above put its result before leaving _inflight,
                # so the result is in the cache's memory tier now.  The
                # peek counts no second miss.
                for item in items:
                    if item.state == QUEUED:
                        cached = self._cache.peek(item.cache_key)
                        if cached is not None:
                            item.answer(cached)
            if batch:
                self._c_batches.inc()
                self._c_batch_items.inc(len(items))
                hits = sum(item.cached for item in items)
                if hits:
                    self._c_batch_item_cache_hits.inc(hits)
            pending = sorted(
                {item.operation for item in items if item.state == QUEUED}
            )
            if not pending:
                job = self._new_job(fingerprint, items, batch, deadline_s, trace_id)
                job._settle()
                self._c_completed.labels(DONE).inc()
                self._record_finished(job)
                self._record_idempotency(idempotency_key, job)
                return job
            if inflight is not None:
                self._c_coalesced.inc()
                self._record_idempotency(idempotency_key, inflight)
                return inflight
            # The breaker guards only fresh compute: cache hits and
            # coalescing keep serving while it is open — that is the
            # graceful part of the degradation.
            for operation in pending:
                breaker = self._breakers[operation]
                retry_after = breaker.check()
                if retry_after is not None:
                    raise CircuitOpenError(
                        f"{operation} circuit breaker is open after "
                        f"{breaker.consecutive} consecutive infrastructure "
                        f"failures; retry in {retry_after:.1f}s",
                        retry_after_s=retry_after,
                    )
            if self._closed:
                # Re-checked under the lock: shutdown sets the flag and
                # then drains, so a submit racing it either lands before
                # the drain (and is failed by it) or is rejected here —
                # never enqueued onto a dead pool.
                raise ServiceError("job queue is shut down")
            job = self._new_job(fingerprint, items, batch, deadline_s, trace_id)
            # Enqueue while still holding the lock (put_nowait cannot
            # block): nobody can coalesce onto a job that backpressure
            # is about to roll back.
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                self._jobs.pop(job.id, None)
                raise QueueFullError(
                    f"job queue is full ({self._queue.maxsize} waiting); "
                    "retry later"
                ) from None
            if inflight_key is not None:
                job.inflight_key = inflight_key
                self._inflight[inflight_key] = job
            self._record_idempotency(idempotency_key, job)
        return job

    def _new_job(
        self,
        fingerprint: str,
        items: list[JobItem],
        batch: bool,
        deadline_s: float | None,
        trace_id: str | None,
    ) -> Job:
        """Mint and register a job (caller holds the lock)."""
        job = Job(
            f"job-{next(self._ids)}",
            fingerprint,
            items,
            batch=batch,
            deadline_s=deadline_s,
            trace_id=trace_id,
        )
        self._jobs[job.id] = job
        return job

    def _record_idempotency(self, token: str | None, job: Job) -> None:
        """Remember token → job id, bounded (caller holds the lock)."""
        if token is None:
            return
        self._idempotency[token] = job.id
        self._idempotency.move_to_end(token)
        while len(self._idempotency) > self._max_finished:
            self._idempotency.popitem(last=False)

    def _record_finished(self, job: Job) -> None:
        """Bound finished-job retention (caller holds the lock)."""
        self._finished.append(job.id)
        while len(self._finished) > self._max_finished:
            self._jobs.pop(self._finished.popleft(), None)

    # ------------------------------------------------------------------
    # Lookup + stats
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"no such job: {job_id!r}")
        return job

    def wait(self, job: Job, timeout: float) -> str:
        """Block until ``job`` finishes, ``timeout`` passes, or shutdown.

        The long poll behind ``GET /v1/jobs/{id}?wait_s=``.  Returns
        ``"finished"``, ``"expired"`` or ``"shutdown"``; :meth:`shutdown`
        wakes every waiter, on running jobs too.  The queue lock is held
        only to publish the job's wake event, never while waiting.
        """
        if not job.event.is_set():
            with self._lock:
                closed = self._closed
                if not closed and job.wake is None:
                    job.wake = threading.Event()
                wake = job.wake
            # Re-checked after publishing ``wake``: a settle that read
            # ``job.wake`` before it was published set ``event`` first.
            if not closed and not job.event.is_set():
                wake.wait(timeout)
        if job.event.is_set():
            return "finished"
        return "shutdown" if self._closed else "expired"

    # ------------------------------------------------------------------
    # Delta-ingest cache revalidation
    # ------------------------------------------------------------------
    def revalidate_after_append(
        self, old_fingerprint: str, new_fingerprint: str, *, tolerance: float
    ) -> dict:
        """Carry cached jointrees across an append instead of dropping them.

        For every cached ``mine`` result of the superseded fingerprint,
        the mined tree is **re-scored on the appended relation** — a
        fixed-tree :func:`~repro.core.analysis.analyze` pass, no search —
        and, when both ``|ΔJ|`` and ``|Δρ|`` stay within ``tolerance``,
        the entry is re-keyed under the new fingerprint with the
        re-scored numbers and a ``"revalidated"`` marker; otherwise it is
        invalidated so the next request re-mines.  ``analyze`` /
        ``decompose`` entries are always invalidated (their payloads
        embed per-bag detail a fixed-tree pass cannot refresh).  Either
        way the superseded key is removed, so no request keyed on stale
        content can hit it.
        """
        from repro.core.analysis import analyze
        from repro.jointrees.build import jointree_from_schema

        start = time.perf_counter()
        examined = revalidated = invalidated = 0
        relation = None
        for key, meta, payload in self._cache.entries_for(old_fingerprint):
            operation = meta.get("operation")
            params = meta.get("params")
            examined += 1
            keep = False
            if (
                operation == "mine"
                and isinstance(params, dict)
                and isinstance(payload.get("bags"), list)
            ):
                try:
                    if relation is None:
                        relation = self._registry.relation(new_fingerprint)
                    tree = jointree_from_schema(
                        [set(bag) for bag in payload["bags"]]
                    )
                    report = analyze(relation, tree)
                    keep = (
                        abs(report.j_entropy - payload["j_measure"])
                        <= tolerance
                        and abs(report.rho - payload["rho"]) <= tolerance
                    )
                except ReproError:
                    keep = False  # unscoreable on the new content: drop
                if keep:
                    payload["j_measure"] = report.j_entropy
                    payload["rho"] = report.rho
                    payload["n_rows"] = len(relation)
                    payload["revalidated"] = True
                    payload["revalidated_from"] = old_fingerprint
                    new_key = canonical_key(
                        new_fingerprint, operation, params
                    )
                    self._cache.put(
                        new_key,
                        payload,
                        meta={
                            "fingerprint": new_fingerprint,
                            "operation": operation,
                            "params": params,
                        },
                    )
            self._cache.remove(key)
            if keep:
                revalidated += 1
            else:
                invalidated += 1
        if revalidated:
            self._c_revalidated.inc(revalidated)
        if invalidated:
            self._c_revalidation_invalidated.inc(invalidated)
        return {
            "examined": examined,
            "revalidated": revalidated,
            "invalidated": invalidated,
            "tolerance": tolerance,
            "wall_time_s": time.perf_counter() - start,
        }

    def stats(self) -> dict:
        """JSON-ready queue summary (part of ``GET /stats``)."""
        with self._lock:
            states = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0, TIMEOUT: 0}
            for job in self._jobs.values():
                states[job.state] += 1
            return {
                "jobs": len(self._jobs),
                "states": states,
                # Lifetime totals: `states` only covers the retained
                # (un-pruned) jobs, these never decrease.
                "completed_total": {
                    series["labels"][0]: int(series["value"])
                    for series in self._c_completed.series()
                },
                "waiting": self._queue.qsize(),
                "max_queue": self._queue.maxsize,
                "workers": len(self._workers),
                "workers_alive": sum(
                    1
                    for worker in self._workers
                    if worker is not None and worker.is_alive()
                ),
                "coalesced": int(self._c_coalesced.value()),
                "idempotent_replays": int(self._c_idempotent.value()),
                "revalidated": int(self._c_revalidated.value()),
                "revalidation_invalidated": int(
                    self._c_revalidation_invalidated.value()
                ),
                "batches": int(self._c_batches.value()),
                "batch_items": int(self._c_batch_items.value()),
                "batch_item_cache_hits": int(
                    self._c_batch_item_cache_hits.value()
                ),
                "worker_crashes": int(self._c_worker_crashes.value()),
                "worker_respawns": int(self._c_worker_respawns.value()),
                "breakers": {
                    operation: breaker.describe()
                    for operation, breaker in self._breakers.items()
                },
            }

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def _worker_main(self, index: int) -> None:
        """Supervisor shell: respawn the worker when its loop crashes.

        ``_worker_loop`` only escapes on a clean sentinel (return) or a
        thread-killing exception — a real one, or the chaos harness's
        :class:`WorkerCrashInjection`.  Either way the in-flight job was
        already failed with a ``worker_crashed`` reason by the loop's
        finalizer; the supervisor's job is to account for the death and
        put a replacement thread in the pool.
        """
        try:
            self._worker_loop()
        except BaseException:
            self._c_worker_crashes.inc()
            with self._lock:
                self.last_crash_at = time.monotonic()
                closed = self._closed
            if not closed:
                self._c_worker_respawns.inc()
                self._spawn_worker(index)

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:  # shutdown sentinel
                self._queue.task_done()
                return
            spills: list[dict] = []
            try:
                self._faults.check("jobs.worker_crash")
                spills = self._run_job(job)
            except BaseException as exc:
                # The thread is dying mid-job (only BaseExceptions reach
                # here; _run_job absorbs ordinary ones).  Fail the job
                # with a structured reason so its waiters see a typed
                # outcome instead of hanging, then let the supervisor
                # respawn the worker.
                if not job.event.is_set():
                    job.error = (
                        f"worker thread crashed while running the job: "
                        f"{type(exc).__name__}: {exc}"
                    )
                    job.reason = "worker_crashed"
                    self._abort(job, job.error)
                    job._settle()
                raise
            finally:
                with self._lock:
                    if job.inflight_key is not None:
                        self._inflight.pop(job.inflight_key, None)
                    self._c_completed.labels(job.state).inc()
                    self._record_finished(job)
                self._observe_finished(job)
                # The job is answered and counted; only now pay for the
                # spill files.  A crash before this costs later misses.
                for document in spills:
                    self._cache.spill(document)
                self._queue.task_done()

    def _timings(self):
        """A fresh stage timeline, or ``None`` when telemetry is off."""
        tele = self._telemetry
        return tele.timings() if tele is not None and tele.enabled else None

    def _observe_finished(self, job: Job) -> None:
        """Latency observations + one structured log line per run job."""
        tele = self._telemetry
        if tele is None or not tele.enabled:
            return
        queue_wait = None
        if job.started_at is not None:
            queue_wait = max(job.started_at - job.submitted_at, 0.0)
            self._h_queue_wait.observe(queue_wait)
        stages = job.timings or {}
        for name, seconds in stages.items():
            tele.stage_latency.labels(name).observe(seconds)
        tele.emit(
            "job",
            job_id=job.id,
            trace_id=job.trace_id,
            fingerprint=job.fingerprint,
            operation=job.operation,
            state=job.state,
            reason=job.reason,
            cached=job.cached,
            queue_wait_s=queue_wait,
            service_time_s=job.service_time_s(),
            worker_slot=job.worker_slot,
            stages=stages,
        )

    def _note_worker_slot(self, job: Job) -> None:
        """Record which cluster slot owns the job's dataset (log field)."""
        slot_for = getattr(self._executor, "slot_for", None)
        if slot_for is not None:
            try:
                job.worker_slot = slot_for(job.fingerprint)
            except ServiceError:
                pass  # purely observational; never fail the job over it

    def _abort(self, job: Job, error: str) -> None:
        """Fail every unfinished item with ``error``; charge each pending
        operation's breaker once."""
        with self._lock:
            for operation in job.pending_operations():
                self._breakers[operation].record_failure()
        job._fail_pending(error)

    def _run_job(self, job: Job) -> list[dict]:
        """Run the job's pending items in order, one executor call each.

        A client error fails only its own item; an infrastructure error
        fails it and every pending item together.  Each computed report
        enters the cache's memory tier before the job settles; the
        returned spill documents are written by the caller afterwards.
        """
        spills: list[dict] = []
        job.started_at = time.monotonic()
        job.state = RUNNING
        timings = self._timings()
        run_started = time.perf_counter()
        if timings is not None:
            self._note_worker_slot(job)
        self._faults.check("jobs.slow")
        for index, item in enumerate(job.items):
            if item.state != QUEUED:
                continue
            if index:
                # An earlier identical item of this job (or a concurrent
                # job) may have filled the cache since submission.
                cached = self._cache.get(item.cache_key)
                if cached is not None:
                    item.answer(cached)
                    self._c_batch_item_cache_hits.inc()
                    continue
            now = time.monotonic()
            if job.deadline_at is not None and now >= job.deadline_at:
                # Expired before this item started: a well-formed
                # timeout instead of burning the worker on doomed compute.
                item.state = TIMEOUT
                item.error = (
                    f"deadline of {job.deadline_s:g}s expired before the "
                    f"operation started ({now - job.submitted_at:.3f}s "
                    "after submission)"
                )
                continue
            item.state = RUNNING
            try:
                payload = self._executor.execute(
                    job.fingerprint,
                    item.operation,
                    item.canonical_params,
                    deadline_at=job.deadline_at,
                    trace=job.trace_id,
                    timings=timings,
                )
                validate_report(payload)
                if not payload.get("partial") and not payload.get("degraded"):
                    # Partial (deadline-expired) and degraded (sketch
                    # fallback) results are never cached: a retry under
                    # better conditions must recompute the exact answer.
                    document = self._cache.admit(
                        item.cache_key,
                        payload,
                        meta={
                            "fingerprint": job.fingerprint,
                            "operation": item.operation,
                            "params": item.canonical_params,
                        },
                    )
                    if document is not None:
                        spills.append(document)
                item.result = payload
                item.state = DONE
                with self._lock:
                    self._breakers[item.operation].record_success()
            except (
                WorkerCrashedError,
                DispatchError,
                DatasetDegradedError,
            ) as exc:
                # Infrastructure, not the client's fault: a dead worker
                # process, an unreachable worker, or a dataset that
                # cannot be loaded.  Every remaining item targets the
                # same dataset, hence the same worker path, so they
                # fail together instead of grinding through K
                # identical failures.
                job.reason = (
                    "worker_crashed"
                    if isinstance(exc, WorkerCrashedError)
                    else "dispatch_failed"
                    if isinstance(exc, DispatchError)
                    else "dataset_degraded"
                )
                self._abort(job, str(exc))
                break
            except ReproError as exc:
                # Client errors (bad schema, bad params): only this item
                # fails and the breaker stays untouched — one misbehaving
                # client must not trip the pool shut for everyone else.
                item.error = str(exc)
                item.state = FAILED
            except Exception as exc:  # never kill a worker thread
                item.error = f"internal error: {exc}"
                item.state = FAILED
                with self._lock:
                    self._breakers[item.operation].record_failure()
                traceback.print_exc()
        if timings is not None:
            timings.add("run", time.perf_counter() - run_started)
            job.timings = timings.to_dict()
        job._settle()
        return spills

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop accepting jobs and (optionally) drain the workers.

        Every long poll (:meth:`wait`) returns at once.
        Queued-but-unstarted jobs are failed immediately (never left
        hanging for waiters), so the shutdown sentinels reach the
        workers without blocking behind pending work; workers still
        finish the job they are currently running.  Idempotent: a
        second call returns immediately.  Safe against racing submits:
        the closed flag flips under the queue lock, so a concurrent
        submit either lands before the drain (and is failed by it) or
        is rejected with a typed error — never silently dropped.
        """
        with self._lock:
            if self._closed:
                return  # double-shutdown is a no-op
            self._closed = True
            # Answer every long poll now with its job's current view,
            # even on a job a worker is still running.
            for job in self._jobs.values():
                if job.wake is not None:
                    job.wake.set()
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is None:
                continue
            job.error = "server shut down before the job started"
            job.reason = "shutdown"
            job._fail_pending(job.error)
            with self._lock:
                if job.inflight_key is not None:
                    self._inflight.pop(job.inflight_key, None)
                job._settle()
                self._c_completed.labels(job.state).inc()
                self._record_finished(job)
            self._queue.task_done()
        with self._lock:
            workers = [w for w in self._workers if w is not None]
        for _ in workers:
            try:
                # Bounded wait: with max_queue < workers the sentinels
                # only fit as workers drain them.  Workers stuck on a
                # long-running job are daemon threads; give up rather
                # than stall the caller indefinitely.
                self._queue.put(None, timeout=2)
            except queue.Full:
                break
        if wait:
            for worker in workers:
                worker.join(timeout=10)
