"""Service telemetry: metrics registry, latency histograms, spans, logs.

Everything the service knows about itself flows through one
process-wide :class:`MetricsRegistry` of typed instruments:

* :class:`Counter` — monotonically increasing totals (cache hits,
  dispatches, evictions).  Optionally labelled
  (``counter.labels("mine").inc()``).
* :class:`Gauge` — point-in-time values (queue depth, resident bytes,
  breaker state).
* :class:`Histogram` — fixed-bucket latency distributions with
  **log-spaced** bucket bounds and exact p50/p95/p99 readout from the
  bucket counts (:meth:`Histogram.quantile`).

The registry renders to Prometheus text exposition
(:meth:`MetricsRegistry.render`, served as ``GET /v1/metrics``) and to
a JSON snapshot (:meth:`MetricsRegistry.snapshot`) that worker
subprocesses ship to the front end over the dispatch protocol, where
:class:`RemoteMetrics` folds them — monotonic across worker respawns.

Request/job **timelines** are :class:`StageTimings`: named spans
(``with timings.span("run"): ...``) accumulated in order, rendered as
a ``Server-Timing`` header and embedded in the structured request log.
Trace ids (:func:`new_trace_id`) are minted at the front end and ride
the cluster wire protocol so one job's spans are correlatable across
processes.

The **request log** (:class:`RequestLog`) writes one JSON line per
request/job through a bounded queue drained by a background thread:
``emit()`` never blocks — when the sink is slow or dead the line is
dropped and counted (``telemetry_log_dropped_total``), which the
``telemetry.log_write`` fault site exercises.

Stdlib only; zero third-party dependencies.
"""

from __future__ import annotations

import json
import os
import queue
import sys
import threading
import time
from bisect import bisect_left

from repro.errors import ServiceError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RemoteMetrics",
    "RequestLog",
    "StageTimings",
    "Telemetry",
    "default_latency_buckets",
    "merge_snapshots",
    "new_request_id",
    "new_trace_id",
    "render_snapshot",
]


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (64 random bits)."""
    return os.urandom(8).hex()


def new_request_id() -> str:
    """A fresh 16-hex-digit request id (64 random bits)."""
    return os.urandom(8).hex()


def default_latency_buckets() -> tuple[float, ...]:
    """Log-spaced latency bounds: 100 µs → 100 s, four buckets/decade.

    The warm cache hit (~1 ms), a cold mine (~100 ms), and a deadline
    timeout (~10 s) all land mid-range with ~78% bucket resolution
    (10^(1/4) ≈ 1.78x between bounds).
    """
    return tuple(10.0 ** (-4 + i / 4) for i in range(25))


def _label_key(labelnames, args, kwargs) -> tuple[str, ...]:
    if kwargs:
        if args:
            raise ServiceError("pass label values positionally or by name, not both")
        try:
            args = tuple(kwargs[name] for name in labelnames)
        except KeyError as exc:
            raise ServiceError(f"missing label {exc} (have {labelnames})") from None
    if len(args) != len(labelnames):
        raise ServiceError(
            f"expected {len(labelnames)} label value(s) {labelnames}, "
            f"got {len(args)}"
        )
    return tuple(str(value) for value in args)


class _Instrument:
    """Shared shape: name, help, label-keyed children behind one lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames=()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, *args, **kwargs):
        """The child instrument for one label-value combination."""
        key = _label_key(self.labelnames, args, kwargs)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._new_child()
            return child

    def _default_child(self):
        # The unlabeled fast path: inc()/set()/observe() directly on the
        # instrument operates on the () child.
        if self.labelnames:
            raise ServiceError(
                f"{self.name} is labelled {self.labelnames}; use .labels(...)"
            )
        return self.labels()


class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ServiceError(f"counters only go up; inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Counter(_Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def value(self, *args, **kwargs) -> float:
        if args or kwargs:
            return self.labels(*args, **kwargs).value
        return self._default_child().value

    def series(self):
        with self._lock:
            return [
                {"labels": list(key), "value": child._value}
                for key, child in self._children.items()
            ]


class _GaugeChild:
    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Instrument):
    """A point-in-time value; goes up and down."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def add(self, amount: float) -> None:
        self._default_child().add(amount)

    def value(self, *args, **kwargs) -> float:
        if args or kwargs:
            return self.labels(*args, **kwargs).value
        return self._default_child().value

    def series(self):
        with self._lock:
            return [
                {"labels": list(key), "value": child._value}
                for key, child in self._children.items()
            ]


class _HistogramChild:
    __slots__ = ("_lock", "_uppers", "counts", "sum", "count")

    def __init__(self, lock: threading.Lock, uppers: tuple[float, ...]) -> None:
        self._lock = lock
        self._uppers = uppers  # finite bounds; the +Inf bucket is implicit
        self.counts = [0] * (len(uppers) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # First bound >= value; beyond the last finite bound -> +Inf.
        index = bisect_left(self._uppers, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def quantile(self, q: float) -> float:
        """Exact readout from the bucket counts (linear within a bucket).

        Resolution is the containing bucket's width; with the default
        log-spaced bounds that is a <=1.78x band around the true value.
        The +Inf bucket clamps to the largest finite bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ServiceError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self.count
            if total == 0:
                return 0.0
            target = q * total
            cumulative = 0
            for index, bucket_count in enumerate(self.counts):
                if bucket_count == 0:
                    continue
                if cumulative + bucket_count >= target:
                    if index >= len(self._uppers):
                        return self._uppers[-1]
                    lo = self._uppers[index - 1] if index else 0.0
                    hi = self._uppers[index]
                    fraction = (target - cumulative) / bucket_count
                    return lo + (hi - lo) * min(max(fraction, 0.0), 1.0)
                cumulative += bucket_count
            return self._uppers[-1]


class Histogram(_Instrument):
    """Fixed log-spaced buckets with quantile readout."""

    kind = "histogram"

    def __init__(self, name, help="", labelnames=(), buckets=None) -> None:
        super().__init__(name, help, labelnames)
        uppers = tuple(sorted(buckets)) if buckets else default_latency_buckets()
        if not uppers:
            raise ServiceError("histogram needs at least one bucket bound")
        self.uppers = uppers

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self._lock, self.uppers)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def quantile(self, q: float) -> float:
        """Quantile over ALL children merged (one distribution)."""
        merged = self._merged()
        return merged.quantile(q)

    @property
    def count(self) -> int:
        return sum(child.count for child in self._children.values())

    def _merged(self) -> _HistogramChild:
        merged = _HistogramChild(threading.Lock(), self.uppers)
        with self._lock:
            for child in self._children.values():
                merged.counts = [
                    a + b for a, b in zip(merged.counts, child.counts)
                ]
                merged.sum += child.sum
                merged.count += child.count
        return merged

    def series(self):
        with self._lock:
            return [
                {
                    "labels": list(key),
                    "buckets": list(child.counts),
                    "sum": child.sum,
                    "count": child.count,
                }
                for key, child in self._children.items()
            ]


class MetricsRegistry:
    """Process-wide, named, typed instruments + render/snapshot/merge."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    # ------------------------------------------------------------------
    # Instrument registration (get-or-create; shape conflicts are bugs)
    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(
                    labelnames
                ):
                    raise ServiceError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.labelnames}"
                    )
                return existing
            instrument = cls(name, help, labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name, help="", labelnames=()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name, help="", labelnames=()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name, help="", labelnames=(), buckets=None) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def get(self, name: str) -> _Instrument | None:
        return self._instruments.get(name)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able dump of every instrument (the wire/merge format)."""
        with self._lock:
            instruments = list(self._instruments.values())
        out: dict = {}
        for instrument in instruments:
            entry = {
                "kind": instrument.kind,
                "help": instrument.help,
                "labelnames": list(instrument.labelnames),
                "series": instrument.series(),
            }
            if instrument.kind == "histogram":
                entry["uppers"] = list(instrument.uppers)
            out[instrument.name] = entry
        return out

    def render(self, extra_snapshots: dict | None = None) -> str:
        """Prometheus text exposition (format 0.0.4).

        ``extra_snapshots`` maps a name prefix to a snapshot dict (e.g.
        ``{"worker": merged_worker_snapshot}``) appended with that
        prefix — how the front end exposes folded worker metrics
        without name collisions.
        """
        return render_snapshot(self.snapshot()) + "".join(
            render_snapshot(snap, prefix=prefix)
            for prefix, snap in (extra_snapshots or {}).items()
        )


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_text(labelnames, labelvalues, extra=()) -> str:
    pairs = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    pairs.extend(f'{name}="{_escape_label(value)}"' for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_snapshot(snapshot: dict, prefix: str = "") -> str:
    """Render one :meth:`MetricsRegistry.snapshot` dict to Prometheus text."""
    lines: list[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        full = f"{prefix}_{name}" if prefix else name
        kind = entry.get("kind", "untyped")
        labelnames = entry.get("labelnames", [])
        if entry.get("help"):
            lines.append(f"# HELP {full} {entry['help']}")
        lines.append(f"# TYPE {full} {kind}")
        for series in entry.get("series", []):
            labelvalues = series.get("labels", [])
            if kind == "histogram":
                uppers = list(entry["uppers"]) + [float("inf")]
                cumulative = 0
                for upper, count in zip(uppers, series["buckets"]):
                    cumulative += count
                    le = _labels_text(
                        labelnames, labelvalues,
                        extra=(("le", _format_value(upper)),),
                    )
                    lines.append(f"{full}_bucket{le} {cumulative}")
                base = _labels_text(labelnames, labelvalues)
                lines.append(f"{full}_sum{base} {_format_value(series['sum'])}")
                lines.append(f"{full}_count{base} {series['count']}")
            else:
                base = _labels_text(labelnames, labelvalues)
                lines.append(f"{full}{base} {_format_value(series['value'])}")
    return "\n".join(lines) + "\n" if lines else ""


def merge_snapshots(snapshots) -> dict:
    """Sum a sequence of snapshot dicts series-wise (buckets elementwise)."""
    merged: dict = {}
    for snapshot in snapshots:
        for name, entry in snapshot.items():
            target = merged.get(name)
            if target is None:
                merged[name] = {
                    **entry,
                    "series": [dict(s) for s in entry.get("series", [])],
                }
                continue
            index = {
                tuple(s.get("labels", [])): s for s in target["series"]
            }
            for series in entry.get("series", []):
                key = tuple(series.get("labels", []))
                into = index.get(key)
                if into is None:
                    target["series"].append(dict(series))
                elif "buckets" in series:
                    into["buckets"] = [
                        a + b for a, b in zip(into["buckets"], series["buckets"])
                    ]
                    into["sum"] += series["sum"]
                    into["count"] += series["count"]
                else:
                    into["value"] += series["value"]
    return merged


def _snapshot_regressed(previous: dict, current: dict) -> bool:
    """True when any monotonic series went backwards (a process restart)."""
    for name, entry in previous.items():
        if entry.get("kind") not in ("counter", "histogram"):
            continue
        now = current.get(name)
        if now is None:
            return True
        index = {
            tuple(s.get("labels", [])): s for s in now.get("series", [])
        }
        for series in entry.get("series", []):
            other = index.get(tuple(series.get("labels", [])))
            if other is None:
                return True
            before = series.get("count", series.get("value", 0))
            after = other.get("count", other.get("value", 0))
            if after < before:
                return True
    return False


class RemoteMetrics:
    """Fold per-worker metric snapshots; monotonic across respawns.

    Each worker slot reports its live registry snapshot (counters reset
    at process birth).  ``update()`` stores the latest; ``retire()`` —
    called when the supervisor reaps a dead worker — folds the final
    observed values into a committed base so the merged totals never go
    backwards when the respawned process starts again from zero.  A
    counter regression inside ``update()`` (a restart the supervisor
    has not told us about yet) triggers the same fold defensively.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._base: list[dict] = []
        self._live: dict[object, dict] = {}

    def update(self, slot, snapshot: dict) -> None:
        with self._lock:
            previous = self._live.get(slot)
            if previous is not None and _snapshot_regressed(previous, snapshot):
                self._base.append(previous)
            self._live[slot] = snapshot

    def retire(self, slot) -> None:
        with self._lock:
            previous = self._live.pop(slot, None)
            if previous is not None:
                self._base.append(previous)

    def merged(self) -> dict:
        with self._lock:
            parts = list(self._base) + list(self._live.values())
        return merge_snapshots(parts)


class StageTimings:
    """Ordered named spans for one request/job timeline.

    Not thread-safe by design: one timeline belongs to one request (or
    one job), and its stages run sequentially on whichever thread holds
    it at the time.
    """

    __slots__ = ("stages",)

    def __init__(self) -> None:
        self.stages: dict[str, float] = {}

    def span(self, name: str):
        return _Span(self, name)

    def add(self, name: str, seconds: float) -> None:
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def merge(self, stages: dict, prefix: str = "") -> None:
        """Fold another timeline in (e.g. worker-side spans, prefixed)."""
        for name, seconds in stages.items():
            if isinstance(seconds, (int, float)):
                self.add(f"{prefix}{name}", float(seconds))

    def to_dict(self) -> dict[str, float]:
        return dict(self.stages)

    def server_timing(self) -> str:
        """The ``Server-Timing`` header value (durations in ms)."""
        return ", ".join(
            f"{name};dur={seconds * 1e3:.2f}"
            for name, seconds in self.stages.items()
        )


class _Span:
    __slots__ = ("_timings", "_name", "_start")

    def __init__(self, timings: StageTimings, name: str) -> None:
        self._timings = timings
        self._name = name

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._timings.add(self._name, time.perf_counter() - self._start)


#: Sentinel closing the request-log writer thread.
_CLOSE = object()


class RequestLog:
    """One JSON line per request/job; bounded, never blocks the caller.

    ``emit()`` enqueues the record and returns — serialization and the
    sink write happen on a dedicated writer thread.  When the queue is
    full (sink slow or dead) the record is **dropped and counted**
    rather than applying backpressure to the hot path; sink write
    errors are likewise counted and swallowed.  The
    ``telemetry.log_write`` fault site injects both failure modes.
    """

    def __init__(
        self,
        sink=None,
        *,
        capacity: int = 1024,
        metrics: MetricsRegistry | None = None,
        faults=None,
        enabled: bool = True,
    ) -> None:
        if capacity < 1:
            raise ServiceError(f"log capacity must be >= 1, got {capacity}")
        self.enabled = enabled
        self._faults = faults
        self._queue: queue.Queue = queue.Queue(maxsize=capacity)
        self._thread: threading.Thread | None = None
        self._thread_lock = threading.Lock()
        self._owns_sink = False
        if sink is None or sink == "stderr":
            self._sink = sys.stderr
        elif isinstance(sink, (str, os.PathLike)):
            self._sink = open(sink, "a", encoding="utf-8")
            self._owns_sink = True
        else:
            self._sink = sink
        metrics = metrics or MetricsRegistry()
        self.lines = metrics.counter(
            "telemetry_log_lines_total", "Structured log lines written"
        )
        self.dropped = metrics.counter(
            "telemetry_log_dropped_total",
            "Log lines dropped because the bounded writer queue was full",
        )
        self.write_errors = metrics.counter(
            "telemetry_log_write_errors_total",
            "Log sink write failures (line lost, request unaffected)",
        )

    def emit(self, record: dict) -> None:
        """Enqueue one record; never blocks, drops + counts when full."""
        if not self.enabled:
            return
        if self._thread is None:
            self._ensure_thread()
        try:
            self._queue.put_nowait(record)
        except queue.Full:
            self.dropped.inc()

    def _ensure_thread(self) -> None:
        with self._thread_lock:
            if self._thread is None:
                thread = threading.Thread(
                    target=self._drain, name="repro-telemetry-log", daemon=True
                )
                # Start before publishing: close() joins whatever thread
                # it finds, and joining a never-started one raises.
                thread.start()
                self._thread = thread

    def _drain(self) -> None:
        while True:
            record = self._queue.get()
            if record is _CLOSE:
                return
            try:
                if self._faults is not None:
                    self._faults.check("telemetry.log_write")
                self._sink.write(
                    json.dumps(record, separators=(",", ":"), sort_keys=True)
                    + "\n"
                )
                self._sink.flush()
                self.lines.inc()
            except Exception:
                # A dead sink must never take the service with it.
                self.write_errors.inc()

    def close(self, timeout: float = 2.0) -> None:
        thread = self._thread
        if thread is not None:
            try:
                self._queue.put_nowait(_CLOSE)
            except queue.Full:
                pass  # writer is wedged; the daemon thread dies with us
            thread.join(timeout=timeout)
            self._thread = None
        if self._owns_sink:
            try:
                self._sink.close()
            except OSError:
                pass


class Telemetry:
    """The service's telemetry plane: registry + request log + workers.

    One instance per front-end process (workers keep a bare
    :class:`MetricsRegistry`).  ``enabled=False``
    turns the per-request work (spans, log lines, latency observations)
    into cheap no-ops while keeping the component counters alive, so
    ``/stats`` stays truthful either way — the overhead bench compares
    the two modes.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        log_sink=None,
        log_capacity: int = 1024,
        faults=None,
    ) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.log = RequestLog(
            log_sink,
            capacity=log_capacity,
            metrics=self.metrics,
            faults=faults,
            enabled=enabled,
        )
        self.workers = RemoteMetrics()
        self.http_latency = self.metrics.histogram(
            "http_request_seconds",
            "End-to-end HTTP request latency",
            labelnames=("method", "route", "status"),
        )
        self.job_waits = self.metrics.counter(
            "http_job_waits_total",
            "Job long polls (GET /v1/jobs/<id>?wait_s=), by how the wait ended",
            labelnames=("outcome",),
        )
        for outcome in ("finished", "expired", "shutdown"):
            self.job_waits.labels(outcome)  # pre-touch: scrapes show zeros
        self.stage_latency = self.metrics.histogram(
            "stage_seconds",
            "Per-stage span durations across requests and jobs",
            labelnames=("stage",),
        )

    def timings(self) -> StageTimings:
        return StageTimings()

    def emit(self, kind: str, **fields) -> None:
        """One structured log line (adds kind/proc/ts envelope fields)."""
        if not self.enabled:
            return
        record = {"kind": kind, "proc": "frontend", "ts": round(time.time(), 6)}
        record.update(fields)
        self.log.emit(record)

    def summary(self) -> dict:
        """The ``/stats`` → ``metrics`` section: headline latencies + log."""
        http = self.http_latency
        return {
            "enabled": self.enabled,
            "request_latency": {
                "count": http.count,
                "p50_s": http.quantile(0.50),
                "p95_s": http.quantile(0.95),
                "p99_s": http.quantile(0.99),
            },
            "log": {
                "lines": self.log.lines.value(),
                "dropped": self.log.dropped.value(),
                "write_errors": self.log.write_errors.value(),
            },
        }

    def render(self) -> str:
        """Prometheus exposition: local registry + folded worker metrics."""
        merged = self.workers.merged()
        extra = {"worker": merged} if merged else None
        return self.metrics.render(extra_snapshots=extra)

    def close(self) -> None:
        self.log.close()
