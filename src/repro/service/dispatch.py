"""Dispatcher ↔ worker wire protocol: length-prefixed JSON over sockets.

The cluster (:mod:`repro.service.cluster`) splits the service into a
front-end process and N worker subprocesses.  This module is the
transport between them:

* **Framing** — every message is a 4-byte big-endian length followed by
  that many bytes of UTF-8 JSON (one object per frame).  Frames above
  :data:`MAX_FRAME_BYTES` are rejected on both sides, so a corrupt
  length prefix cannot make a peer allocate unbounded memory.
* **Message types** (the ``t`` field):

  ==========  =========  ==================================================
  type        direction  meaning
  ==========  =========  ==================================================
  ``hello``   w → f      worker announces ``worker_id`` + ``pid`` + the
                         shared-secret token it was spawned with
  ``req``     f → w      run one operation: ``id``, ``fingerprint``,
                         ``operation``, canonical ``params``,
                         ``deadline_in_s`` (remaining budget — absolute
                         monotonic times do not cross processes), the
                         hydration references ``snapshot_dir`` /
                         ``source``, and the optional ``trace`` id the
                         worker threads into its spans and log line
  ``res``     w → f      the answer to ``req`` with the same ``id``:
                         ``ok`` + ``report`` + ``origin`` + ``resident``
                         + ``telemetry`` (trace, stage timeline,
                         forwardable log record) + ``metrics``
                         (the worker's registry snapshot), or ``ok:
                         false`` + ``error`` + ``error_kind``
                         (``degraded`` / ``repro`` / ``internal``)
  ``ping``    f → w      heartbeat probe (answered by the worker's reader
                         thread, so a long-running mine still heartbeats)
  ``pong``    w → f      heartbeat answer; carries the worker's resident
                         fingerprints, lifetime job count, and metric
                         snapshot
  ``bye``     f → w      orderly shutdown request
  ==========  =========  ==================================================

  Unknown fields and frame types are ignored on both sides (forward
  compatibility): an older worker simply never echoes ``trace`` or
  ``metrics``, and the front end degrades to traceless dispatch.

* **Request ids** — the front end numbers requests from one shared
  counter; responses are matched back to waiters by id, so one socket
  multiplexes every in-flight job bound for that worker.
* **Per-worker in-flight limits** — each :class:`WorkerHandle` holds a
  bounded semaphore; a dispatch beyond the limit blocks the submitting
  job-queue thread until the worker drains, a natural backpressure
  complement to the queue-level ``max_queue`` bound.

Failure mapping: a worker process dying (EOF, reset, missed
heartbeats) fails every request in flight on its socket with
:class:`WorkerCrashedError`, which the job queue surfaces as the
structured ``reason: "worker_crashed"`` — the process-level twin of the
thread supervisor's handling in :mod:`repro.service.jobs`.
:class:`DispatchError` covers the front end's own send failures
(including the injected ``cluster.dispatch`` fault site).
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

from repro.errors import ServiceError

#: Hard ceiling on one frame's JSON payload (reports are at most a few
#: MB; 64 MiB matches the HTTP tier's request-body bound).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class DispatchError(ServiceError):
    """The front end could not deliver a job to its owning worker."""


class WorkerCrashedError(ServiceError):
    """A worker process died while (or before) running a dispatched job."""


class FrameError(DispatchError):
    """A peer sent bytes that do not parse as a protocol frame."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, message: dict) -> None:
    """Serialize ``message`` and write one length-prefixed frame.

    Raises :class:`DispatchError` on any socket failure (the caller
    decides whether that means the worker is dead).  Not thread-safe on
    its own — callers serialize writes per socket with a lock.
    """
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    try:
        sock.sendall(_LENGTH.pack(len(payload)) + payload)
    except OSError as exc:
        raise DispatchError(f"socket send failed: {exc}") from exc


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes, or ``None`` on a clean EOF at a frame
    boundary (mid-frame EOF raises — the peer died mid-message)."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        try:
            chunk = sock.recv(min(n - got, 1 << 20))
        except OSError as exc:
            raise DispatchError(f"socket read failed: {exc}") from exc
        if not chunk:
            if got == 0:
                return None
            raise DispatchError(
                f"peer closed the connection mid-frame ({got} of {n} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one frame; ``None`` on orderly EOF.

    Raises :class:`FrameError` for malformed frames and
    :class:`DispatchError` for transport failures.
    """
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"peer announced a {length}-byte frame (limit {MAX_FRAME_BYTES})"
        )
    payload = _recv_exact(sock, length)
    if payload is None:
        raise DispatchError("peer closed the connection after a frame header")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(message, dict) or not isinstance(message.get("t"), str):
        raise FrameError(f"frame is not a typed object: {message!r}")
    return message


# ----------------------------------------------------------------------
# Dispatcher-side worker handle
# ----------------------------------------------------------------------
class _Pending:
    """One awaited response slot."""

    __slots__ = ("event", "response", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: dict | None = None
        self.error: Exception | None = None


class WorkerHandle:
    """The front end's view of one live worker process.

    Owns the accepted socket, a reader thread that routes ``res`` and
    ``pong`` frames back to waiters, the per-worker in-flight
    semaphore, and the dispatch counters surfaced under ``/stats``.
    Death (EOF, transport error, external :meth:`mark_dead`) fails
    every pending request with :class:`WorkerCrashedError`; the
    supervisor in :mod:`repro.service.cluster` notices ``alive``
    flipping and respawns a replacement process into the same shard
    slot.
    """

    def __init__(
        self,
        worker_id: int,
        sock: socket.socket,
        process,
        *,
        max_inflight: int,
        request_ids,
    ) -> None:
        self.worker_id = worker_id
        self.sock = sock
        self.process = process
        self.pid = process.pid
        self.alive = True
        self.started_at = time.monotonic()
        self.last_pong = time.monotonic()
        self.dispatched = 0
        self.completed = 0
        self.failed = 0
        self.pings = 0
        self.resident: list[str] = []
        self.worker_jobs_done = 0
        #: Latest metric-registry snapshot the worker shipped (rides
        #: both ``pong`` and ``res`` frames); the supervisor folds it
        #: into the front end's merged worker metrics.
        self.worker_metrics: dict | None = None
        self._ids = request_ids  # shared itertools.count
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._pending: dict[int, _Pending] = {}
        self._slots = threading.BoundedSemaphore(max_inflight)
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"repro-cluster-reader-{worker_id}",
            daemon=True,
        )
        self._reader.start()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def request(self, body: dict, *, timeout: float | None = None) -> dict:
        """Send one ``req`` frame and block for its ``res``.

        Blocks first on the in-flight semaphore (the per-worker limit),
        then on the response.  Raises :class:`WorkerCrashedError` when
        the worker dies first and :class:`DispatchError` when the frame
        cannot be sent or the (deadline-derived) ``timeout`` expires.
        """
        with self._state_lock:
            if not self.alive:
                raise WorkerCrashedError(
                    f"worker {self.worker_id} (pid {self.pid}) is dead"
                )
        self._slots.acquire()
        pending = _Pending()
        request_id = next(self._ids)
        try:
            with self._state_lock:
                if not self.alive:
                    raise WorkerCrashedError(
                        f"worker {self.worker_id} (pid {self.pid}) is dead"
                    )
                self._pending[request_id] = pending
                self.dispatched += 1
            frame = dict(body)
            frame["t"] = "req"
            frame["id"] = request_id
            try:
                with self._send_lock:
                    send_frame(self.sock, frame)
            except DispatchError:
                with self._state_lock:
                    self._pending.pop(request_id, None)
                self.mark_dead("send to worker failed")
                raise WorkerCrashedError(
                    f"worker {self.worker_id} (pid {self.pid}) died before "
                    "accepting the job"
                ) from None
            if not pending.event.wait(timeout):
                with self._state_lock:
                    self._pending.pop(request_id, None)
                raise DispatchError(
                    f"worker {self.worker_id} (pid {self.pid}) did not answer "
                    f"request {request_id} within {timeout:g}s"
                )
            if pending.error is not None:
                raise pending.error
            assert pending.response is not None
            with self._state_lock:
                if pending.response.get("ok"):
                    self.completed += 1
                else:
                    self.failed += 1
                resident = pending.response.get("resident")
                if isinstance(resident, list):
                    self.resident = [str(f) for f in resident]
            return pending.response
        finally:
            self._slots.release()

    def ping(self) -> bool:
        """Send one heartbeat probe; ``False`` when the socket is gone."""
        with self._state_lock:
            if not self.alive:
                return False
            self.pings += 1
        try:
            with self._send_lock:
                send_frame(self.sock, {"t": "ping", "id": -self.pings})
            return True
        except DispatchError:
            self.mark_dead("heartbeat send failed")
            return False

    def send_bye(self) -> None:
        """Ask the worker to exit cleanly (best effort)."""
        try:
            with self._send_lock:
                send_frame(self.sock, {"t": "bye"})
        except DispatchError:
            pass

    # ------------------------------------------------------------------
    # Reader + death
    # ------------------------------------------------------------------
    def _read_loop(self) -> None:
        while True:
            try:
                message = recv_frame(self.sock)
            except (DispatchError, FrameError) as exc:
                self.mark_dead(str(exc))
                return
            if message is None:
                self.mark_dead("worker closed its connection")
                return
            kind = message.get("t")
            if kind == "pong":
                with self._state_lock:
                    self.last_pong = time.monotonic()
                    resident = message.get("resident")
                    if isinstance(resident, list):
                        self.resident = [str(f) for f in resident]
                    jobs_done = message.get("jobs_done")
                    if isinstance(jobs_done, int):
                        self.worker_jobs_done = jobs_done
                    metrics = message.get("metrics")
                    if isinstance(metrics, dict):
                        self.worker_metrics = metrics
                continue
            if kind == "res":
                with self._state_lock:
                    pending = self._pending.pop(message.get("id"), None)
                    metrics = message.get("metrics")
                    if isinstance(metrics, dict):
                        self.worker_metrics = metrics
                if pending is not None:
                    pending.response = message
                    pending.event.set()
                continue
            # Unknown frame types are ignored (forward compatibility).

    def mark_dead(self, why: str) -> None:
        """Flip to dead exactly once and fail every in-flight request."""
        with self._state_lock:
            if not self.alive:
                return
            self.alive = False
            pending = list(self._pending.values())
            self._pending.clear()
        for slot in pending:
            slot.error = WorkerCrashedError(
                f"worker {self.worker_id} (pid {self.pid}) crashed while the "
                f"job was in flight: {why}"
            )
            slot.event.set()
        try:
            self.sock.close()
        except OSError:
            pass

    def heartbeat_age_s(self) -> float:
        with self._state_lock:
            return time.monotonic() - self.last_pong

    def in_flight(self) -> int:
        with self._state_lock:
            return len(self._pending)

    def describe(self) -> dict:
        """JSON-ready per-worker stats (``/stats`` → ``cluster.workers``)."""
        with self._state_lock:
            return {
                "worker_id": self.worker_id,
                "pid": self.pid,
                "alive": self.alive,
                "uptime_s": round(time.monotonic() - self.started_at, 3),
                "dispatched": self.dispatched,
                "completed": self.completed,
                "failed": self.failed,
                "in_flight": len(self._pending),
                "heartbeat_age_s": round(
                    time.monotonic() - self.last_pong, 3
                ),
                "resident": sorted(self.resident),
                "jobs_done": self.worker_jobs_done,
            }
