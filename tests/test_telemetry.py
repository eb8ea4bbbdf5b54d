"""Unit tests for the telemetry plane: instruments, logs, traces, exposition.

Covers the correctness obligations the observability layer carries:

* histogram quantiles agree with numpy percentiles to within the bucket
  resolution (log-spaced bounds, 4 per decade → adjacent bounds differ
  by 10^(1/4) ≈ 1.78×), property-tested over random latency samples;
* the Prometheus text exposition parses under a small reference parser
  (HELP/TYPE discipline, cumulative ``le`` buckets, _sum/_count);
* merged worker totals are monotonic across a worker respawn
  (:class:`RemoteMetrics` folds the dead incarnation into a base);
* the request log never blocks its caller: a full queue drops and
  counts;
* ``DatasetRegistry.stats`` serves a monitoring poller without waiting
  on the registry-wide lock while a (simulated) mine holds it.
"""

import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.service.registry import DatasetRegistry
from repro.service.telemetry import (
    MetricsRegistry,
    RemoteMetrics,
    RequestLog,
    StageTimings,
    Telemetry,
    default_latency_buckets,
    merge_snapshots,
    new_request_id,
    new_trace_id,
)

#: Adjacent default bucket bounds are a factor 10^(1/4) apart; a
#: quantile read from the histogram can therefore be off from the exact
#: sample quantile by at most one bucket's width.
BUCKET_RATIO = 10 ** (1 / 4)


# ----------------------------------------------------------------------
# Reference Prometheus text parser (exposition format 0.0.4)
# ----------------------------------------------------------------------
def parse_prometheus(text: str) -> dict:
    """Parse an exposition into ``{metric: {"type": ..., "samples": [...]}}``.

    A deliberately small reference implementation: any line that is not
    a well-formed comment or ``name{labels} value`` sample raises.
    """
    metrics: dict = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            _, kind, rest = line.split(" ", 2)
            name, payload = rest.split(" ", 1)
            entry = metrics.setdefault(name, {"type": None, "samples": []})
            if kind == "TYPE":
                assert payload in ("counter", "gauge", "histogram", "untyped")
                entry["type"] = payload
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        body, value = line.rsplit(" ", 1)
        labels: dict = {}
        if "{" in body:
            name, raw = body[:-1].split("{", 1)
            for pair in filter(None, raw.split('",')):
                key, val = pair.split("=", 1)
                labels[key] = val.strip('"')
        else:
            name = body
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in metrics:
                base = name[: -len(suffix)]
        metrics.setdefault(base, {"type": None, "samples": []})["samples"].append(
            (name, labels, float(value))
        )
    return metrics


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_goes_up_and_never_down(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "Total requests")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5
        with pytest.raises(ServiceError):
            counter.inc(-1)

    def test_labelled_counter_series(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "jobs_total", "Jobs by state", labelnames=("state",)
        )
        counter.labels("done").inc(3)
        counter.labels("failed").inc()
        values = {
            tuple(series["labels"]): series["value"]
            for series in counter.series()
        }
        assert values == {("done",): 3, ("failed",): 1}

    def test_get_or_create_is_idempotent_but_shape_strict(self):
        registry = MetricsRegistry()
        first = registry.counter("hits_total", "Hits")
        assert registry.counter("hits_total", "Hits") is first
        with pytest.raises(ServiceError):
            registry.counter("hits_total", "Hits", labelnames=("kind",))
        with pytest.raises(ServiceError):
            registry.gauge("hits_total", "Hits")

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue_depth", "Depth")
        gauge.set(7)
        gauge.add(-2)
        assert gauge.value() == 5

    def test_default_buckets_are_log_spaced(self):
        uppers = default_latency_buckets()
        assert uppers == tuple(sorted(uppers))
        ratios = [b / a for a, b in zip(uppers, uppers[1:])]
        assert all(math.isclose(r, BUCKET_RATIO, rel_tol=1e-9) for r in ratios)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            # Stay strictly above the lowest bucket bound (1e-4): the
            # first bucket interpolates from 0, so its *relative* error
            # is unbounded even though absolute error is tiny.
            st.floats(min_value=2e-4, max_value=50.0),
            min_size=5,
            max_size=300,
        ),
        st.sampled_from([0.5, 0.9, 0.95, 0.99]),
    )
    def test_histogram_quantiles_match_numpy_within_resolution(self, xs, q):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", "Latency")
        for x in xs:
            hist.observe(x)
        got = hist.quantile(q)
        # numpy's default percentile interpolates *between* order
        # statistics and can emit a value that no observation ever had
        # (e.g. 2.0 for [1,1,1,3,3,3] @ p50) — a bucketed histogram
        # cannot.  The honest bound: the readout lies within one bucket
        # of resolution of the *bracketing* order statistics.
        lo_stat = float(np.percentile(np.asarray(xs), q * 100, method="lower"))
        hi_stat = float(np.percentile(np.asarray(xs), q * 100, method="higher"))
        assert got <= hi_stat * BUCKET_RATIO * 1.01 + 1e-9
        assert got >= lo_stat / (BUCKET_RATIO * 1.01) - 1e-9

    def test_histogram_count_and_labels(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "stage_seconds", "Stages", labelnames=("stage",)
        )
        hist.labels("mine").observe(0.01)
        hist.labels("mine").observe(0.02)
        hist.labels("analyze").observe(0.5)
        assert hist.count == 3


# ----------------------------------------------------------------------
# Exposition
# ----------------------------------------------------------------------
class TestExposition:
    def test_render_parses_under_reference_parser(self):
        tele = Telemetry(enabled=True, log_sink="stderr")
        tele.metrics.counter("cache_hits_total", "Hits").inc(2)
        tele.metrics.gauge("resident_bytes", "Bytes").set(1024)
        tele.http_latency.labels("GET", "jobs/{job_id}", "200").observe(0.012)
        tele.emit("request", request_id=new_request_id())
        parsed = parse_prometheus(tele.render())
        assert parsed["cache_hits_total"]["type"] == "counter"
        assert parsed["resident_bytes"]["type"] == "gauge"
        assert parsed["http_request_seconds"]["type"] == "histogram"
        tele.close()

    def test_histogram_buckets_are_cumulative_and_end_in_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", "H")
        for value in (0.001, 0.01, 0.01, 5.0, 1e9):
            hist.observe(value)
        parsed = parse_prometheus(registry.render())
        buckets = [
            (labels["le"], value)
            for name, labels, value in parsed["h_seconds"]["samples"]
            if name.endswith("_bucket")
        ]
        counts = [value for _, value in buckets]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert buckets[-1][0] == "+Inf"
        assert counts[-1] == 5
        count = [
            value
            for name, _, value in parsed["h_seconds"]["samples"]
            if name.endswith("_count")
        ]
        assert count == [5]

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("odd_total", "Odd", labelnames=("k",))
        counter.labels('a"b\\c\nd').inc()
        text = registry.render()
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        parse_prometheus(text)  # still well-formed

    def test_worker_prefix_merges_without_collisions(self):
        tele = Telemetry(enabled=False)
        tele.metrics.counter("jobs_total", "Frontend jobs").inc(1)
        worker = MetricsRegistry()
        worker.counter("jobs_total", "Worker jobs").inc(9)
        tele.workers.update(0, worker.snapshot())
        parsed = parse_prometheus(tele.render())
        values = {
            name: value
            for metric in ("jobs_total", "worker_jobs_total")
            for name, _, value in parsed[metric]["samples"]
        }
        assert values == {"jobs_total": 1, "worker_jobs_total": 9}


# ----------------------------------------------------------------------
# Worker snapshot folding
# ----------------------------------------------------------------------
def _snapshot(jobs: int) -> dict:
    registry = MetricsRegistry()
    registry.counter("jobs_total", "Jobs").inc(jobs)
    return registry.snapshot()


class TestRemoteMetrics:
    def _total(self, remote: RemoteMetrics) -> float:
        merged = remote.merged()
        if "jobs_total" not in merged:
            return 0.0
        return sum(s["value"] for s in merged["jobs_total"]["series"])

    def test_latest_snapshot_wins_per_slot(self):
        remote = RemoteMetrics()
        remote.update(0, _snapshot(3))
        remote.update(0, _snapshot(5))
        assert self._total(remote) == 5

    def test_retire_folds_then_respawn_restarts_from_zero(self):
        remote = RemoteMetrics()
        remote.update(0, _snapshot(7))
        remote.retire(0)
        assert self._total(remote) == 7
        remote.update(0, _snapshot(2))  # the respawned process
        assert self._total(remote) == 9

    def test_unannounced_restart_is_folded_defensively(self):
        remote = RemoteMetrics()
        remote.update(0, _snapshot(7))
        # The slot's counter went backwards: only a restart does that.
        remote.update(0, _snapshot(1))
        assert self._total(remote) == 8

    def test_merged_totals_never_decrease(self):
        remote = RemoteMetrics()
        totals = []
        for jobs in (1, 4, 9, 2, 3, 1, 6):
            remote.update(0, _snapshot(jobs))
            totals.append(self._total(remote))
        assert totals == sorted(totals)

    def test_merge_snapshots_sums_histograms(self):
        parts = []
        for values in ((0.01, 0.02), (0.5,)):
            registry = MetricsRegistry()
            hist = registry.histogram("h_seconds", "H")
            for value in values:
                hist.observe(value)
            parts.append(registry.snapshot())
        merged = merge_snapshots(parts)
        assert merged["h_seconds"]["series"][0]["count"] == 3


# ----------------------------------------------------------------------
# Stage timings + ids
# ----------------------------------------------------------------------
class TestStageTimings:
    def test_spans_accumulate_in_order(self):
        timings = StageTimings()
        with timings.span("a"):
            pass
        with timings.span("b"):
            pass
        with timings.span("a"):
            pass
        assert list(timings.stages) == ["a", "b"]

    def test_merge_prefixes_remote_stages(self):
        timings = StageTimings()
        timings.add("run", 1.0)
        timings.merge({"hydrate": 0.25, "mine": 0.5, "junk": "x"}, prefix="worker_")
        assert timings.to_dict() == {
            "run": 1.0,
            "worker_hydrate": 0.25,
            "worker_mine": 0.5,
        }

    def test_server_timing_header_format(self):
        timings = StageTimings()
        timings.add("mine", 0.01234)
        header = timings.server_timing()
        assert header == "mine;dur=12.34"

    def test_ids_are_distinct_hex(self):
        ids = {new_trace_id() for _ in range(64)} | {
            new_request_id() for _ in range(64)
        }
        assert len(ids) == 128
        assert all(int(value, 16) >= 0 for value in ids)


# ----------------------------------------------------------------------
# Request log
# ----------------------------------------------------------------------
class TestRequestLog:
    def test_writes_one_json_line_per_record(self, tmp_path):
        path = tmp_path / "req.jsonl"
        log = RequestLog(path, capacity=16)
        log.emit({"kind": "request", "status": 200})
        log.emit({"kind": "job", "state": "done"})
        log.close()
        import json

        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["kind"] for l in lines] == ["request", "job"]
        assert log.lines.value() == 2

    def test_full_queue_drops_and_counts_without_blocking(self, tmp_path):
        log = RequestLog(tmp_path / "req.jsonl", capacity=4)
        # Stall the writer thread behind a record whose sink write blocks
        # on this lock, then overfill the queue from the caller side.
        gate = threading.Event()

        class _Gate:
            def write(self, _):
                gate.wait(5.0)

            def flush(self):
                pass

        log._sink = _Gate()
        log._owns_sink = False
        started = time.perf_counter()
        for i in range(64):
            log.emit({"i": i})
        elapsed = time.perf_counter() - started
        assert elapsed < 0.5, "emit() must never block the caller"
        assert log.dropped.value() >= 64 - 4 - 1
        gate.set()
        log.close()

    def test_disabled_log_emits_nothing(self, tmp_path):
        path = tmp_path / "req.jsonl"
        log = RequestLog(path, capacity=4, enabled=False)
        log.emit({"kind": "request"})
        log.close()
        assert not path.exists() or path.read_text() == ""


# ----------------------------------------------------------------------
# /stats vs the registry lock
# ----------------------------------------------------------------------
class TestStatsWithoutLock:
    def test_stats_does_not_wait_on_a_held_registry_lock(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\n" + "\n".join(f"{i%2},{i%3}" for i in range(12)) + "\n")
        registry = DatasetRegistry()
        registry.register_path(str(path))
        fresh = registry.stats()  # primes the cached document
        assert fresh["datasets"] == 1
        held = threading.Event()
        release = threading.Event()

        def hold_lock():
            with registry._lock:  # a mine touching the registry
                held.set()
                release.wait(5.0)

        thread = threading.Thread(target=hold_lock, daemon=True)
        thread.start()
        assert held.wait(5.0)
        try:
            started = time.perf_counter()
            stale = registry.stats()
            elapsed = time.perf_counter() - started
        finally:
            release.set()
            thread.join(5.0)
        assert elapsed < 0.25, "stats() must not queue behind the lock"
        assert stale["datasets"] == 1  # the previous document, not garbage
        # Lock released: the next call rebuilds fresh again.
        assert registry.stats() is not stale or registry.stats() == stale


# ----------------------------------------------------------------------
# Telemetry facade
# ----------------------------------------------------------------------
class TestTelemetryFacade:
    def test_disabled_telemetry_skips_request_work_keeps_counters(self):
        tele = Telemetry(enabled=False)
        tele.emit("request", request_id="deadbeef")
        tele.metrics.counter("cache_hits_total", "Hits").inc()
        assert tele.log.lines.value() == 0
        assert tele.summary()["enabled"] is False
        assert "cache_hits_total 1" in tele.render()
        tele.close()

    def test_summary_reports_latency_percentiles(self):
        tele = Telemetry(enabled=True, log_sink="stderr")
        for _ in range(20):
            tele.http_latency.labels("GET", "stats", "200").observe(0.01)
        summary = tele.summary()
        assert summary["request_latency"]["count"] == 20
        p50 = summary["request_latency"]["p50_s"]
        assert 0.01 / BUCKET_RATIO <= p50 <= 0.01 * BUCKET_RATIO
        tele.close()
