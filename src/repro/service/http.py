"""HTTP/JSON API: a stdlib ``ThreadingHTTPServer`` over the service core.

The API is versioned under ``/v1/``; a path outside it is a 404
``unknown_route``.  Routing is a declarative table (:data:`ROUTES`) —
method + path pattern, with ``{placeholder}`` segments bound as handler
arguments — shared by both verbs, replacing the old per-verb if/elif
ladders.

Routes (all request/response bodies are JSON):

==================================  ==========================================
``POST /v1/datasets``               register a dataset: ``{"path": ...}``
                                    (server-local CSV) or ``{"csv": ...}``
                                    (inline content).  201 with the dataset
                                    view (``"created": false`` when the
                                    fingerprint was already registered).
``POST /v1/datasets/{fp}/append``   delta ingest: ``{"csv": ...}`` or
                                    ``{"path": ...}`` appends rows to the
                                    registered dataset, returning the new
                                    fingerprint, the version chain, and the
                                    cache-revalidation summary.  200 always
                                    (a fully deduplicated delta is a no-op
                                    with ``"changed": false``).
``GET /v1/datasets``                list registered datasets (LRU → MRU).
``GET /v1/datasets/{fp}``           one dataset's view, or 404.  Superseded
                                    fingerprints (pre-append versions) are
                                    followed to the current entry.
``POST /v1/jobs``                   submit work: ``{"fingerprint": ...,
                                    "operation": "mine"|"analyze"|
                                    "decompose", "params": {...}}``.  200
                                    with a finished job when served from
                                    cache, 202 with a queued/coalesced job
                                    otherwise, 503 when the queue is full
                                    (backpressure).
``POST /v1/jobs/batch``             submit a vector of operations against one
                                    dataset as a single queue unit:
                                    ``{"fingerprint": ..., "operations":
                                    [{"operation": ..., "params": ...},
                                    ...]}``.  200 when every item was
                                    answered from the cache, 202 otherwise.
``GET /v1/jobs/{id}``               the job's state (+ ``result`` once
                                    done), or 404.  ``?wait_s=X`` makes it
                                    a long poll: the reply waits until the
                                    job finishes or ``min(X,``
                                    :data:`MAX_JOB_WAIT_S` ``)`` seconds
                                    pass (a shutdown answers at once).  A
                                    malformed, negative or non-finite
                                    ``wait_s`` is a 400.
``GET /v1/healthz``                 liveness: ``{"status": "ok", ...}``.
``GET /v1/metrics``                 Prometheus text exposition (0.0.4) of
                                    every registered instrument, worker
                                    snapshots merged under ``worker_``.
``GET /v1/stats``                   cache hit-rates, registry residency,
                                    delta-ingest and revalidation counters,
                                    queue/worker/cluster stats.
==================================  ==========================================

Errors are a **typed envelope**, classified uniformly for both verbs by
:func:`classify_error`::

    {
      "error": {
        "code": "<machine-readable>",   # stable; see ERROR_CATALOG
        "message": "<human-readable>",
        "retryable": bool,              # whether a retry can succeed
        "retry_after_s": float | null   # hint when the server knows
      },
      "message": "<human-readable>"     # legacy-compat copy
    }

The code → status catalogue is :data:`ERROR_CATALOG`: ``bad_request``
(400), ``unknown_dataset`` / ``unknown_job`` / ``unknown_route`` (404),
``dataset_degraded`` (409, re-register to heal), ``queue_full`` /
``circuit_open`` (503, retryable, with a ``Retry-After`` header), and
``internal`` (500).  The handler threads do no compute beyond
registration/append ingest — jobs run on the worker pool, so slow
mining never starves the accept loop.

Observability: every response carries an ``X-Request-Id`` header (fresh
per exchange) and an ``X-Trace-Id`` (echoed from the request's
``X-Trace-Id`` header when it is a hex/dash token, freshly generated
otherwise).  Submits thread the trace id into the job, so the job's
log line — and the worker-process line, under cluster dispatch — share
it.  ``GET /v1/jobs/{id}`` adds a ``Server-Timing`` header with the
job's stage timeline once it has run.  Each request is observed into
the ``http_request_seconds`` histogram (labelled by method, route
*pattern*, status; a long poll's sample includes its wait) and emitted
as one structured log line, which for a long poll carries ``waited_s``.
Every long poll also counts in ``http_job_waits_total{outcome}``
(``finished`` | ``expired`` | ``shutdown``).

Chaos hooks: when a :class:`~repro.service.faults.FaultPlan` is armed,
``_send_json`` threads the ``http.drop`` (connection closed with no
response), ``http.stall`` (response delayed), and ``http.truncate``
(half the body, then close) sites — all *after* the request was
processed, which is exactly the window where client retries need
idempotency to be safe.
"""

from __future__ import annotations

import json
import math
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from repro.errors import (
    CircuitOpenError,
    DatasetDegradedError,
    QueueFullError,
    ReproError,
    ServiceError,
    UnknownDatasetError,
    UnknownJobError,
)
from repro.service.telemetry import new_request_id, new_trace_id

#: Cap on request bodies (inline CSV uploads included): 64 MiB.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: The current (only) API version segment.
API_VERSION = "v1"

#: Longest a ``GET /v1/jobs/{id}?wait_s=`` long poll holds its handler
#: thread, in seconds; a larger ``wait_s`` is clamped to it.
MAX_JOB_WAIT_S = 10.0

#: Machine-readable error code → HTTP status.  Stable: clients switch on
#: these, tests pin them, and docs/service.md documents each one.
ERROR_CATALOG = {
    "bad_request": 400,
    "unknown_dataset": 404,
    "unknown_job": 404,
    "unknown_route": 404,
    "dataset_degraded": 409,
    "queue_full": 503,
    "circuit_open": 503,
    "internal": 500,
}

#: Declarative route table: (method, path pattern, handler attribute).
#: ``{name}`` segments match any one segment and are passed to the
#: handler positionally, in pattern order.  Every pattern is served
#: under ``/v1/``.  Literal patterns must precede placeholder patterns
#: that would also match them.
ROUTES = (
    ("GET", ("healthz",), "_handle_healthz"),
    ("GET", ("stats",), "_handle_stats"),
    ("GET", ("metrics",), "_handle_metrics"),
    ("GET", ("datasets",), "_handle_list_datasets"),
    ("GET", ("datasets", "{fingerprint}"), "_handle_get_dataset"),
    ("GET", ("jobs", "{job_id}"), "_handle_get_job"),
    ("POST", ("datasets",), "_handle_register"),
    ("POST", ("datasets", "{fingerprint}", "append"), "_handle_append"),
    ("POST", ("jobs", "batch"), "_handle_submit_batch"),
    ("POST", ("jobs",), "_handle_submit"),
)


def _client_trace_id(headers) -> str | None:
    """A safe caller-supplied ``X-Trace-Id``, or ``None``.

    Anything that is not a short token of hex digits / dashes is
    discarded (it would otherwise flow verbatim into log lines and
    response headers).
    """
    raw = headers.get("X-Trace-Id")
    if not isinstance(raw, str):
        return None
    raw = raw.strip()
    if not (1 <= len(raw) <= 64):
        return None
    if all(c in "0123456789abcdefABCDEF-" for c in raw):
        return raw.lower()
    return None


def server_timing_value(stages: dict) -> str:
    """``stages`` (name → seconds) as a ``Server-Timing`` header value."""
    return ", ".join(
        f"{name};dur={float(seconds) * 1e3:.2f}"
        for name, seconds in stages.items()
        if isinstance(seconds, (int, float))
    )


def classify_error(exc: BaseException) -> tuple[int, str, bool, float | None]:
    """Map an exception to ``(status, code, retryable, retry_after_s)``.

    One ladder for every verb and endpoint — most-specific type first —
    so GET and POST can never disagree about what a degraded dataset or
    a full queue looks like on the wire.
    """
    if isinstance(exc, QueueFullError):
        return 503, "queue_full", True, None
    if isinstance(exc, CircuitOpenError):
        return 503, "circuit_open", True, exc.retry_after_s
    if isinstance(exc, UnknownJobError):
        return 404, "unknown_job", False, None
    if isinstance(exc, UnknownDatasetError):
        return 404, "unknown_dataset", False, None
    if isinstance(exc, DatasetDegradedError):
        # Retrying cannot help: the dataset's source is gone or changed.
        # 409 (not 503) so resilient clients fail fast with the typed
        # message instead of burning their retries.
        return 409, "dataset_degraded", False, None
    if isinstance(exc, ReproError):
        # Bad CSVs, bad params, bad schemas: client errors, not 500s.
        return 400, "bad_request", False, None
    return 500, "internal", False, None


def error_envelope(
    code: str,
    message: str,
    *,
    retryable: bool = False,
    retry_after_s: float | None = None,
) -> dict:
    """The typed error body (plus the legacy-compat ``message`` copy)."""
    return {
        "error": {
            "code": code,
            "message": message,
            "retryable": retryable,
            "retry_after_s": retry_after_s,
        },
        "message": message,
    }


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service instance for handlers."""

    daemon_threads = True
    # The stdlib default listen backlog (5) RSTs connection bursts well
    # below the knee the saturation probe measures; saturation must
    # degrade into latency, not into connection resets.
    request_queue_size = 128

    def __init__(self, address, handler_class, service) -> None:
        self.service = service
        super().__init__(address, handler_class)


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the service's registry/cache/job queue."""

    server_version = "repro-ajd-service/1.0"
    protocol_version = "HTTP/1.1"
    # Buffer the response so its status line, headers and body leave in
    # one send (the flush after the body), not as a headers send plus a
    # body send that the reader wakes up between.
    wbufsize = -1

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging is the operator's reverse proxy's job

    @property
    def service(self):
        return self.server.service

    def _send_json(
        self, status: int, payload: dict, *, retry_after: float | None = None
    ) -> None:
        self._status = status  # recorded even when chaos eats the response
        faults = self.service.faults
        truncate = False
        if faults.enabled:
            if faults.fire("http.drop"):
                # Chaos: the connection dies before any response byte.
                # The request WAS processed — the client's retry is what
                # the idempotency machinery must make safe.
                self.close_connection = True
                return
            stall = faults.fire("http.stall")
            if stall is not None and stall.delay_s:
                time.sleep(stall.delay_s)
            truncate = faults.fire("http.truncate") is not None
        # Compact separators keep json on its C encoder; indent=2 falls
        # back to the pure-Python one, about 3x slower per body.
        body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode(
            "utf-8"
        )
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self._send_tracing_headers()
        if status == 503:
            # Queue-full keeps the legacy fixed hint; breaker-open
            # advertises its actual remaining cooldown (rounded up —
            # Retry-After is integer seconds and "0" invites a hot loop).
            seconds = 1 if retry_after is None else max(1, math.ceil(retry_after))
            self.send_header("Retry-After", str(seconds))
        if truncate or self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        if truncate:
            # Chaos: half the promised Content-Length, then close — the
            # client sees an IncompleteRead and must retry, not parse.
            self.close_connection = True
            self.wfile.write(body[: max(len(body) // 2, 1)])
            return
        self.wfile.write(body)
        self.wfile.flush()  # reply first, then observe the request

    def _send_tracing_headers(self) -> None:
        """``X-Request-Id`` (every response) + optional ``Server-Timing``."""
        request_id = getattr(self, "_request_id", None)
        if request_id:
            self.send_header("X-Request-Id", request_id)
        trace_id = getattr(self, "_trace_id", None)
        if trace_id:
            self.send_header("X-Trace-Id", trace_id)
        server_timing = getattr(self, "_server_timing", None)
        if server_timing:
            self.send_header("Server-Timing", server_timing)

    def _send_error_json(
        self,
        status: int,
        code: str,
        message: str,
        *,
        retryable: bool = False,
        retry_after: float | None = None,
    ) -> None:
        # Error paths cannot always prove the request body was consumed
        # (unknown route, oversized/garbled body), and an unread body on
        # a kept-alive HTTP/1.1 connection desyncs it — the leftover
        # bytes get parsed as the next request line.  Closing after any
        # error response is always legal and costs one reconnect.
        self.close_connection = True
        self._send_json(
            status,
            error_envelope(
                code, message, retryable=retryable, retry_after_s=retry_after
            ),
            retry_after=retry_after,
        )

    def _send_exception(self, exc: BaseException) -> None:
        """Classify + send: the one error path for every verb/endpoint."""
        status, code, retryable, retry_after = classify_error(exc)
        message = str(exc) if status != 500 else f"internal error: {exc}"
        self._send_error_json(
            status, code, message, retryable=retryable, retry_after=retry_after
        )

    def _read_json_body(self) -> dict:
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise ServiceError(
                f"Content-Length must be an integer, got {raw_length!r}"
            ) from None
        if length <= 0:
            raise ServiceError("request body must be a JSON object")
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        return payload

    def _route(self) -> tuple[str, ...]:
        path = self.path.split("?", 1)[0]
        return tuple(part for part in path.split("/") if part)

    def _wait_s(self) -> float | None:
        """The query's ``wait_s`` (seconds, finite, >= 0), or ``None``."""
        query = parse_qs(self.path.partition("?")[2], keep_blank_values=True)
        values = query.get("wait_s")
        if values is None:
            return None
        try:
            if len(values) != 1:
                raise ValueError
            wait_s = float(values[0])
        except ValueError:
            raise ServiceError(
                f"wait_s must be one number of seconds, got {values!r}"
            ) from None
        if not (math.isfinite(wait_s) and wait_s >= 0):
            raise ServiceError(
                f"wait_s must be finite and non-negative, got {values[0]!r}"
            )
        return wait_s

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, method: str) -> None:
        parts = self._route()
        # Outside /v1/ nothing matches: the empty tuple fits no pattern.
        parts = parts[1:] if parts[:1] == (API_VERSION,) else ()
        # Per-request telemetry identity: the request id is always fresh
        # (one per HTTP exchange); the trace id is taken from the caller's
        # ``X-Trace-Id`` header when present so multi-request workflows
        # (submit, then poll) share one trace end to end.
        self._request_id = new_request_id()
        self._trace_id = _client_trace_id(self.headers) or new_trace_id()
        self._status = 0
        self._server_timing = None
        self._route_label = "unmatched"
        self._log_fields: dict = {}
        started = time.perf_counter()
        try:
            for route_method, pattern, handler_name in ROUTES:
                if route_method != method or len(pattern) != len(parts):
                    continue
                args = []
                for expected, actual in zip(pattern, parts):
                    if expected.startswith("{"):
                        args.append(actual)
                    elif expected != actual:
                        break
                else:
                    # The *pattern* (not the raw path) labels the metric,
                    # so per-job/per-dataset ids cannot explode the
                    # route label's cardinality.
                    self._route_label = "/".join(pattern)
                    getattr(self, handler_name)(*args)
                    return
            self._send_error_json(
                404, "unknown_route", f"no such route: {method} {self.path}"
            )
        except Exception as exc:
            self._send_exception(exc)
        finally:
            self._observe_request(method, time.perf_counter() - started)

    def _observe_request(self, method: str, elapsed_s: float) -> None:
        """Latency histogram sample + one structured log line per request."""
        tele = getattr(self.service, "telemetry", None)
        if tele is None or not tele.enabled:
            return
        status = str(self._status or 0)
        tele.http_latency.labels(method, self._route_label, status).observe(
            elapsed_s
        )
        tele.emit(
            "request",
            request_id=self._request_id,
            trace_id=self._trace_id,
            method=method,
            route=self._route_label,
            status=self._status,
            elapsed_s=round(elapsed_s, 6),
            **self._log_fields,
        )

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _handle_healthz(self) -> None:
        self._send_json(200, self.service.health())

    def _handle_stats(self) -> None:
        self._send_json(200, self.service.stats())

    def _handle_metrics(self) -> None:
        """Prometheus text exposition (format 0.0.4) of every instrument.

        Served even when per-request telemetry is disabled: the
        component counters live on the registry either way, and a
        scraper that 404s on a config flag is a debugging trap.
        """
        body = self.service.telemetry.render().encode("utf-8")
        self._status = 200
        self.send_response(200)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        self._send_tracing_headers()
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def _handle_list_datasets(self) -> None:
        self._send_json(
            200,
            {
                "datasets": [
                    entry.describe()
                    for entry in self.service.registry.entries()
                ]
            },
        )

    def _handle_get_dataset(self, fingerprint: str) -> None:
        self._send_json(200, self.service.registry.get(fingerprint).describe())

    def _handle_get_job(self, job_id: str) -> None:
        wait_s = self._wait_s()
        job = self.service.jobs.get(job_id)
        if wait_s is not None:
            started = time.perf_counter()
            outcome = self.service.jobs.wait(job, min(wait_s, MAX_JOB_WAIT_S))
            self._log_fields["waited_s"] = round(
                time.perf_counter() - started, 6
            )
            self.service.telemetry.job_waits.labels(outcome).inc()
            if outcome == "shutdown":
                self.close_connection = True  # the server is going away
        if job.timings:
            # Stage timeline as a standard Server-Timing header, so
            # browser devtools / curl -v show where the job's time went
            # without a second request to /v1/metrics.
            self._server_timing = server_timing_value(job.timings)
        self._log_fields["job_id"] = job.id
        self._send_json(200, job.describe())

    def _handle_register(self) -> None:
        body = self._read_json_body()
        if ("path" in body) == ("csv" in body):
            raise ServiceError(
                "register exactly one of 'path' (server-local CSV) or "
                "'csv' (inline content)"
            )
        if "path" in body:
            if not isinstance(body["path"], str):
                raise ServiceError(f"path must be a string, got {body['path']!r}")
            entry, created = self.service.registry.register_path(body["path"])
        else:
            if not isinstance(body["csv"], str):
                raise ServiceError(f"csv must be a string, got {body['csv']!r}")
            entry, created = self.service.registry.register_text(
                body["csv"], name=str(body.get("name", "inline"))
            )
        view = entry.describe()
        view["created"] = created
        self._send_json(201 if created else 200, view)

    def _handle_append(self, fingerprint: str) -> None:
        body = self._read_json_body()
        self._send_json(200, self.service.append(fingerprint, body))

    def _handle_submit(self) -> None:
        body = self._read_json_body()
        fingerprint = body.get("fingerprint")
        if not isinstance(fingerprint, str):
            raise ServiceError("job body needs a string 'fingerprint'")
        operation = body.get("operation")
        if not isinstance(operation, str):
            raise ServiceError("job body needs a string 'operation'")
        params = body.get("params") or {}
        if not isinstance(params, dict):
            raise ServiceError(f"params must be a JSON object, got {params!r}")
        job = self.service.jobs.submit(
            fingerprint,
            operation,
            params,
            idempotency_key=body.get("idempotency_key"),
            trace_id=self._trace_id,
        )
        self._log_fields.update(
            job_id=job.id, operation=operation, cached=job.cached
        )
        self._send_json(200 if job.state == "done" else 202, job.describe())

    def _handle_submit_batch(self) -> None:
        body = self._read_json_body()
        fingerprint = body.get("fingerprint")
        if not isinstance(fingerprint, str):
            raise ServiceError("batch body needs a string 'fingerprint'")
        job = self.service.jobs.submit_batch(
            fingerprint,
            body.get("operations"),
            idempotency_key=body.get("idempotency_key"),
            trace_id=self._trace_id,
        )
        self._log_fields.update(job_id=job.id, cached=job.cached)
        self._send_json(200 if job.state == "done" else 202, job.describe())
