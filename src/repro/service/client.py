"""Python client for the decomposition service (stdlib ``urllib`` only).

:class:`ServiceClient` wraps the HTTP/JSON API in typed-ish methods and
polling helpers, so scripts (the CI smoke job, the benchmarks, user
code) never hand-roll requests::

    client = ServiceClient("http://127.0.0.1:8765")
    dataset = client.register_dataset(path="examples/planted_mvd.csv")
    report = client.mine(dataset["fingerprint"], strategy="beam")
    assert report["rho"] == 0.0

Convenience methods (``mine`` / ``analyze`` / ``decompose``) submit a
job and block until it finishes, returning the report and raising
:class:`ServiceClientError` on ``failed`` / ``timeout`` jobs; an
uncached job costs two requests, the submit and one long poll.  The
lower-level ``submit_job`` / ``get_job`` / ``wait_job`` expose the
asynchronous lifecycle directly.

Resilience (see ``docs/robustness.md``): every request is retried up to
``retries`` times on transport failures (dropped/reset connections,
truncated bodies, timeouts) and on HTTP errors the server marks
``"retryable": true`` in its typed envelope (queue full, open breaker —
with a legacy fallback to "retry iff 503") — with capped exponential
backoff, full jitter, and the server's ``retry_after_s`` /
``Retry-After`` honoured as a floor.  Other HTTP errors (400/404/409/
...) are never retried: they are deterministic.  ``submit_job``
attaches an ``idempotency_key`` (an auto-generated UUID unless the
caller picks one) that is constant across the retries of one logical
submit, so a POST whose response was lost on the wire is replayed —
never re-run — by the server.

Errors surface as typed exceptions mapped from the envelope's machine
code (see ``ERROR_CATALOG`` in :mod:`repro.service.http`): 400 →
:class:`BadRequestError`, 404 → :class:`UnknownResourceError`, 409 →
:class:`DegradedDatasetError`, 503 → :class:`ServiceUnavailableError`,
500 → :class:`InternalServerError` — all subclasses of
:class:`ServiceClientError`, which carries ``.status``, ``.code``,
``.retryable``, and ``.retry_after_s``.  Requests go to the versioned
``/v1/`` paths.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.error
import urllib.request
import uuid

from repro.errors import ServiceError
from repro.service.http import MAX_JOB_WAIT_S

#: Transport-level failures worth retrying: the request may never have
#: reached the server, or the response died on the wire.  (HTTPError
#: subclasses URLError and carries a status; it is handled separately.)
_RETRYABLE_TRANSPORT = (
    urllib.error.URLError,
    http.client.HTTPException,
    ConnectionError,
    TimeoutError,
)


class ServiceClientError(ServiceError):
    """An HTTP call failed; carries the typed envelope fields.

    ``status`` is the HTTP status, ``code`` the machine-readable error
    code from the envelope (``"unknown"`` when the server sent a legacy
    string error), ``retryable`` whether the server said a retry can
    succeed, ``retry_after_s`` its backoff hint (or ``None``), and
    ``request_id`` the server's ``X-Request-Id`` header — quote it when
    reporting a failure and the operator can grep the request log for
    the exact exchange.
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        code: str | None = None,
        retryable: bool = False,
        retry_after_s: float | None = None,
        request_id: str | None = None,
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.code = code or "unknown"
        self.retryable = retryable
        self.retry_after_s = retry_after_s
        self.request_id = request_id


class BadRequestError(ServiceClientError):
    """400 ``bad_request``: malformed body, params, CSV, or schema."""


class UnknownResourceError(ServiceClientError):
    """404 ``unknown_dataset`` / ``unknown_job`` / ``unknown_route``."""


class DegradedDatasetError(ServiceClientError):
    """409 ``dataset_degraded``: source gone/changed; re-register to heal."""


class ServiceUnavailableError(ServiceClientError):
    """503 ``queue_full`` / ``circuit_open``: transient, retryable."""


class InternalServerError(ServiceClientError):
    """500 ``internal``: an unexpected server-side failure."""


#: Envelope code → typed exception class (fallback: ServiceClientError).
_CODE_EXCEPTIONS = {
    "bad_request": BadRequestError,
    "unknown_dataset": UnknownResourceError,
    "unknown_job": UnknownResourceError,
    "unknown_route": UnknownResourceError,
    "dataset_degraded": DegradedDatasetError,
    "queue_full": ServiceUnavailableError,
    "circuit_open": ServiceUnavailableError,
    "internal": InternalServerError,
}


class ServiceClient:
    """Thin JSON-over-HTTP client for one service base URL.

    ``retries`` counts *re*-attempts (0 disables retrying entirely);
    ``backoff_base_s``/``backoff_cap_s`` shape the capped exponential
    full-jitter backoff; ``seed`` makes the jitter deterministic for
    tests.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 30.0,
        retries: int = 3,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        seed: int | None = None,
    ) -> None:
        if retries < 0:
            raise ServiceError(f"retries must be >= 0, got {retries}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._rng = random.Random(seed)
        self.retried = 0  # lifetime count of re-attempted requests

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _backoff_s(self, attempt: int, *, floor: float = 0.0) -> float:
        """Full-jitter capped exponential backoff for re-attempt #attempt."""
        ceiling = min(self.backoff_cap_s, self.backoff_base_s * (2**attempt))
        return max(self._rng.uniform(0, ceiling), floor)

    @staticmethod
    def _retry_after_s(exc: urllib.error.HTTPError) -> float:
        """The server's Retry-After hint in seconds (0 when absent/garbled)."""
        raw = exc.headers.get("Retry-After") if exc.headers else None
        try:
            return max(float(raw), 0.0) if raw is not None else 0.0
        except ValueError:
            return 0.0

    @staticmethod
    def _parse_error_body(
        exc: urllib.error.HTTPError,
    ) -> tuple[str | None, str, bool, float | None]:
        """Decode an error response: ``(code, message, retryable, retry_after_s)``.

        Understands the typed envelope (``{"error": {"code": ...}}``),
        the legacy string form (``{"error": "..."}``), and unreadable /
        non-JSON bodies — the latter two fall back to "retry iff 503",
        the pre-envelope client behavior.
        """
        legacy_retryable = exc.code == 503
        try:
            document = json.loads(exc.read().decode("utf-8"))
        except (OSError, ValueError, AttributeError):
            return None, str(exc.reason), legacy_retryable, None
        error = document.get("error") if isinstance(document, dict) else None
        if isinstance(error, dict):
            code = error.get("code")
            message = (
                error.get("message")
                or document.get("message")
                or str(exc.reason)
            )
            hint = error.get("retry_after_s")
            retry_after_s = (
                float(hint)
                if isinstance(hint, (int, float)) and not isinstance(hint, bool)
                else None
            )
            return (
                code if isinstance(code, str) else None,
                str(message),
                bool(error.get("retryable", legacy_retryable)),
                retry_after_s,
            )
        if isinstance(error, str) and error:
            return None, error, legacy_retryable, None
        return None, str(exc.reason), legacy_retryable, None

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        attempt = 0
        while True:
            request = urllib.request.Request(
                self.base_url + path, data=data, headers=headers, method=method
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as response:
                    return json.loads(response.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:
                # A status line arrived, so the server is up and spoke.
                # The envelope says whether retrying can help (queue
                # full, open breaker); everything it marks permanent is
                # deterministic and retrying would just repeat the
                # failure N times slower.
                code, message, retryable, retry_after_s = (
                    self._parse_error_body(exc)
                )
                if retry_after_s is None:
                    header_hint = self._retry_after_s(exc)
                    retry_after_s = header_hint if header_hint > 0 else None
                if retryable and attempt < self.retries:
                    delay = self._backoff_s(
                        attempt, floor=retry_after_s or 0.0
                    )
                    attempt += 1
                    self.retried += 1
                    time.sleep(delay)
                    continue
                exc_class = _CODE_EXCEPTIONS.get(code, ServiceClientError)
                request_id = (
                    exc.headers.get("X-Request-Id") if exc.headers else None
                )
                raise exc_class(
                    exc.code,
                    message,
                    code=code,
                    retryable=retryable,
                    retry_after_s=retry_after_s,
                    request_id=request_id,
                ) from exc
            except _RETRYABLE_TRANSPORT as exc:
                # No (complete) response: dropped, reset, truncated, or
                # timed out.  The request may or may not have executed —
                # which is why submit_job sends an idempotency key.
                if attempt < self.retries:
                    delay = self._backoff_s(attempt)
                    attempt += 1
                    self.retried += 1
                    time.sleep(delay)
                    continue
                reason = getattr(exc, "reason", None) or exc
                raise ServiceError(
                    f"cannot reach service at {self.base_url}: {reason}"
                ) from exc

    # ------------------------------------------------------------------
    # Datasets
    # ------------------------------------------------------------------
    def register_dataset(
        self,
        *,
        path: str | None = None,
        csv: str | None = None,
        name: str | None = None,
    ) -> dict:
        """Register a dataset by server-local path or inline CSV text."""
        body: dict = {}
        if path is not None:
            body["path"] = str(path)
        if csv is not None:
            body["csv"] = csv
        if name is not None:
            body["name"] = name
        return self._request("POST", "/v1/datasets", body)

    def append_dataset(
        self,
        fingerprint: str,
        *,
        csv: str | None = None,
        path: str | None = None,
    ) -> dict:
        """Delta ingest: append rows (inline CSV or server-local path).

        The delta must carry the dataset's exact header.  Returns the
        append view: the new ``fingerprint`` (key subsequent jobs by
        it), the version ``chain``, ``rows_added`` (after set-semantics
        dedup; ``"changed": false`` when every row was already present),
        and the cache ``revalidation`` summary.
        """
        body: dict = {}
        if csv is not None:
            body["csv"] = csv
        if path is not None:
            body["path"] = str(path)
        return self._request(
            "POST", f"/v1/datasets/{fingerprint}/append", body
        )

    def get_dataset(self, fingerprint: str) -> dict:
        return self._request("GET", f"/v1/datasets/{fingerprint}")

    def list_datasets(self) -> list[dict]:
        return self._request("GET", "/v1/datasets")["datasets"]

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------
    def submit_job(
        self,
        fingerprint: str,
        operation: str,
        params: dict | None = None,
        *,
        idempotency_key: str | None = None,
    ) -> dict:
        """Submit one job, idempotently across this call's retries.

        The key (auto-generated unless given) is part of the request
        body, so every retry of this submit carries the same token and
        the server replays — not re-runs — the job when an earlier
        attempt did land but its response was lost.
        """
        if idempotency_key is None:
            idempotency_key = uuid.uuid4().hex
        return self._request(
            "POST",
            "/v1/jobs",
            {
                "fingerprint": fingerprint,
                "operation": operation,
                "params": params or {},
                "idempotency_key": idempotency_key,
            },
        )

    def submit_batch(
        self,
        fingerprint: str,
        operations: list[dict],
        *,
        idempotency_key: str | None = None,
    ) -> dict:
        """Submit a vector of operations as one batch job.

        ``operations`` is a list of ``{"operation": ..., "params": ...}``
        objects (``params`` optional).  Like :meth:`submit_job`, the
        submission is idempotent across this call's transport retries.
        """
        if idempotency_key is None:
            idempotency_key = uuid.uuid4().hex
        return self._request(
            "POST",
            "/v1/jobs/batch",
            {
                "fingerprint": fingerprint,
                "operations": operations,
                "idempotency_key": idempotency_key,
            },
        )

    def get_job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def wait_job(
        self,
        job_id: str,
        *,
        timeout: float = 60.0,
        poll_s: float = 0.02,  # noqa: ARG002 - kept for old callers
        poll_cap_s: float = 0.5,  # noqa: ARG002
    ) -> dict:
        """Long-poll until the job leaves queued/running; return its view.

        Each request is ``GET /v1/jobs/{id}?wait_s=X``, which the server
        answers as soon as the job finishes, or after ``X`` seconds.
        ``X`` is bounded by the server's cap
        (:data:`~repro.service.http.MAX_JOB_WAIT_S`), the time left of
        ``timeout`` and half the socket timeout, so a reply is due well
        before the socket gives up.  Polls go back to back with no
        sleep between them: a job that finishes within one poll costs
        one request.  ``poll_s`` and ``poll_cap_s`` are ignored; they
        remain so callers written against the earlier sleeping poll
        loop keep working.
        """
        deadline = time.monotonic() + timeout
        while True:
            wait_s = min(
                MAX_JOB_WAIT_S, deadline - time.monotonic(), self.timeout / 2
            )
            view = self._request(
                "GET", f"/v1/jobs/{job_id}?wait_s={max(wait_s, 0.0):.3f}"
            )
            if view["state"] not in ("queued", "running"):
                return view
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {view['state']} after {timeout:g}s"
                )

    def run_batch(
        self,
        fingerprint: str,
        operations: list[dict],
        *,
        timeout: float = 60.0,
    ) -> dict:
        """Submit a batch, wait, and return the finished job view."""
        job = self.submit_batch(fingerprint, operations)
        if job["state"] in ("queued", "running"):
            job = self.wait_job(job["job_id"], timeout=timeout)
        return job

    def batch_reports(
        self,
        fingerprint: str,
        operations: list[dict],
        *,
        timeout: float = 60.0,
    ) -> list[dict]:
        """Run a batch and return the per-item reports, in order.

        Raises on a failed batch or on any failed item — use
        :meth:`run_batch` for per-item error handling.
        """
        job = self.run_batch(fingerprint, operations, timeout=timeout)
        if job["state"] != "done":
            raise ServiceError(
                f"batch {job['job_id']} ended {job['state']}: "
                f"{job.get('error', 'no detail')}"
            )
        reports = []
        for index, item in enumerate(job["items"]):
            if item["state"] != "done":
                raise ServiceError(
                    f"batch {job['job_id']} item {index} "
                    f"({item['operation']}) ended {item['state']}: "
                    f"{item.get('error', 'no detail')}"
                )
            reports.append(item["result"])
        return reports

    def run(
        self,
        fingerprint: str,
        operation: str,
        params: dict | None = None,
        *,
        timeout: float = 60.0,
    ) -> dict:
        """Submit, wait, and return the finished job view (any state)."""
        job = self.submit_job(fingerprint, operation, params)
        if job["state"] in ("queued", "running"):
            job = self.wait_job(job["job_id"], timeout=timeout)
        return job

    def _report(self, job: dict) -> dict:
        if job["state"] != "done":
            raise ServiceError(
                f"job {job['job_id']} ended {job['state']}: "
                f"{job.get('error', 'no detail')}"
            )
        return job["result"]

    def mine(self, fingerprint: str, *, timeout: float = 60.0, **params) -> dict:
        """Mine a schema; returns the report (raises on failed/timeout)."""
        return self._report(self.run(fingerprint, "mine", params, timeout=timeout))

    def analyze(
        self, fingerprint: str, schema: str, *, timeout: float = 60.0, **params
    ) -> dict:
        """Analyze under an explicit schema; returns the report."""
        params["schema"] = schema
        return self._report(
            self.run(fingerprint, "analyze", params, timeout=timeout)
        )

    def decompose(
        self, fingerprint: str, *, timeout: float = 60.0, **params
    ) -> dict:
        """Decompose (mining unless ``schema=`` given); returns the report."""
        return self._report(
            self.run(fingerprint, "decompose", params, timeout=timeout)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def metrics_text(self) -> str:
        """``GET /v1/metrics``: the raw Prometheus text exposition."""
        request = urllib.request.Request(
            self.base_url + "/v1/metrics",
            headers={"Accept": "text/plain"},
        )
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            return response.read().decode("utf-8")

    def cluster_stats(self) -> dict | None:
        """The ``cluster`` section of ``/stats``.

        ``None`` when the server runs single-process
        (``--worker-procs 0``), which omits the section entirely.
        """
        return self.stats().get("cluster")
