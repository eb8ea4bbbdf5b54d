"""Chaos suite: deterministic fault injection across the service layer.

Exercises the resilience machinery end to end — seeded
:class:`~repro.service.faults.FaultPlan` rules firing inside the cache,
registry, job queue, and HTTP layer — and asserts the recovery
invariants: the server stays up, failures surface as typed errors (or
succeed after client retries), poisoned state is quarantined rather
than served, and a fault-free warm repeat returns bit-identical
reports.
"""

import json
import threading
import time

import pytest

from repro.errors import (
    CircuitOpenError,
    DatasetDegradedError,
    ReproError,
    ServiceError,
)
from repro.service import (
    CircuitBreaker,
    FaultPlan,
    JobQueue,
    ResultCache,
    Service,
    ServiceClient,
    ServiceConfig,
)
from repro.service.cache import canonical_key
from repro.service.faults import DISABLED, WorkerCrashInjection
from repro.service.jobs import DONE, FAILED
from repro.service.registry import DatasetRegistry


def make_csv(tmp_path, name="table.csv", n_classes=2):
    """A CSV satisfying C ↠ A|B exactly (same planted table as test_cli)."""
    path = tmp_path / name
    lines = ["A,B,C"]
    for c in range(n_classes):
        for a in (0, 1):
            for b in (0, 1):
                lines.append(f"{a + 2 * c},{b},{c}")
    path.write_text("\n".join(lines) + "\n")
    return path


def sample_report(seed=0):
    return {
        "command": "mine",
        "strategy": "recursive",
        "j_measure": float(seed),
        "rho": 0.0,
        "wall_time_s": 0.01,
        "n_rows": 8,
        "n_cols": 3,
    }


def plan(*rules, seed=0):
    return FaultPlan({"seed": seed, "rules": list(rules)})


class TestFaultPlan:
    def test_disabled_by_default_and_shared(self):
        assert FaultPlan.from_spec(None) is DISABLED
        assert FaultPlan.from_spec("") is DISABLED
        assert not DISABLED.enabled
        assert DISABLED.fire("http.drop") is None
        DISABLED.check("jobs.worker_crash")  # no-op, must not raise

    def test_from_spec_variants(self, tmp_path):
        spec = {"seed": 3, "rules": [{"site": "http.drop", "times": 1}]}
        assert FaultPlan.from_spec(spec).enabled
        assert FaultPlan.from_spec(json.dumps(spec)).enabled
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(spec))
        from_file = FaultPlan.from_spec(str(path))
        assert from_file.enabled and from_file.seed == 3
        ready = FaultPlan(spec)
        assert FaultPlan.from_spec(ready) is ready

    def test_bad_specs_rejected(self, tmp_path):
        with pytest.raises(ServiceError, match="unknown site"):
            FaultPlan({"rules": [{"site": "no.such.site"}]})
        with pytest.raises(ServiceError, match="unknown field"):
            FaultPlan({"rules": [{"site": "http.drop", "chance": 0.5}]})
        with pytest.raises(ServiceError, match="unknown field"):
            FaultPlan({"seed": 1, "rulez": []})
        with pytest.raises(ServiceError, match="probability"):
            FaultPlan({"rules": [{"site": "http.drop", "probability": 1.5}]})
        with pytest.raises(ServiceError, match="not valid JSON"):
            FaultPlan.from_spec("{broken")
        with pytest.raises(ServiceError, match="cannot read"):
            FaultPlan.from_spec(str(tmp_path / "missing.json"))

    def test_seeded_firing_is_deterministic(self):
        def pattern():
            p = plan({"site": "http.drop", "probability": 0.5}, seed=11)
            return [p.fire("http.drop") is not None for _ in range(40)]

        first, second = pattern(), pattern()
        assert first == second
        assert any(first) and not all(first)  # 0.5 actually branches

    def test_times_skip_and_stats(self):
        p = plan({"site": "jobs.slow", "skip": 2, "times": 1, "delay_s": 0.0})
        fired = [p.fire("jobs.slow") is not None for _ in range(5)]
        assert fired == [False, False, True, False, False]
        stats = p.stats()
        assert stats["enabled"] and stats["total_fired"] == 1
        assert stats["sites"]["jobs.slow"]["remaining"] == 0
        # times=0 is the armed-but-idle mode: evaluated, never fires.
        idle = plan({"site": "http.drop", "times": 0})
        assert idle.enabled
        assert all(idle.fire("http.drop") is None for _ in range(10))

    def test_check_raises_canonical_exceptions(self):
        with pytest.raises(WorkerCrashInjection):
            plan({"site": "jobs.worker_crash"}).check("jobs.worker_crash")
        with pytest.raises(MemoryError):
            plan({"site": "jobs.oom"}).check("jobs.oom")
        with pytest.raises(ServiceError, match="injected"):
            plan({"site": "registry.reingest"}).check("registry.reingest")


class TestSpillCorruption:
    def test_torn_write_is_quarantined_on_read(self, tmp_path):
        spill = tmp_path / "spill"
        writer = ResultCache(
            spill_dir=spill, faults=plan({"site": "cache.spill_write_torn"})
        )
        writer.put("k1", sample_report())
        reader = ResultCache(spill_dir=spill)  # fresh memory tier
        assert reader.get("k1") is None  # torn file: a miss, not an error
        assert reader.stats()["quarantined"] == 1
        assert reader.last_quarantine_at is not None
        assert list((spill / "quarantine").iterdir())  # moved aside
        assert not (spill / "result-k1.json").exists()
        assert reader.stats()["quarantined"] == 1
        # The poisoned entry is gone for good; a re-put heals the key.
        reader.put("k1", sample_report())
        assert ResultCache(spill_dir=spill).get("k1") == sample_report()

    def test_injected_read_corruption(self, tmp_path):
        spill = tmp_path / "spill"
        ResultCache(spill_dir=spill).put("k1", sample_report())
        reader = ResultCache(
            spill_dir=spill,
            faults=plan({"site": "cache.spill_read_corrupt", "times": 1}),
        )
        assert reader.get("k1") is None and reader.stats()["quarantined"] == 1

    def test_concurrent_spills_of_one_key_never_tear(self, tmp_path, monkeypatch):
        """Two job threads can spill one key (batch items and deadline jobs
        do not coalesce).  A writer held inside ``json.dumps`` while a
        longer document for the same key is published must not tear the
        file when it resumes."""
        from types import SimpleNamespace

        import repro.service.cache as cache_module

        spill = tmp_path / "spill"
        cache = ResultCache(spill_dir=spill)
        short = cache.admit("k1", sample_report(1))
        longer = cache.admit("k1", sample_report(2), meta={"pad": "x" * 4096})
        entered, release = threading.Event(), threading.Event()

        def held_dumps(obj, **kwargs):
            if threading.current_thread().name == "held-writer":
                entered.set()
                release.wait(10)
            return json.dumps(obj, **kwargs)

        monkeypatch.setattr(
            cache_module,
            "json",
            SimpleNamespace(dumps=held_dumps, loads=json.loads),
        )
        held = threading.Thread(
            target=cache.spill, args=(short,), name="held-writer"
        )
        held.start()
        assert entered.wait(10)
        cache.spill(longer)
        release.set()
        held.join(10)
        assert not held.is_alive()
        monkeypatch.undo()
        reader = ResultCache(spill_dir=spill)
        assert reader.get("k1") == sample_report(1)  # the last rename wins
        assert reader.stats()["quarantined"] == 0
        assert not [p for p in spill.iterdir() if ".tmp" in p.name]


class TestWorkerSupervision:
    def test_crashed_worker_fails_job_and_respawns(self, tmp_path):
        registry = DatasetRegistry()
        entry, _ = registry.register_path(make_csv(tmp_path))
        jobs = JobQueue(
            registry,
            ResultCache(),
            workers=1,
            faults=plan({"site": "jobs.worker_crash", "times": 1}),
        )
        try:
            doomed = jobs.submit(entry.fingerprint, "mine", {"seed": 1})
            assert doomed.wait(10)
            assert doomed.state == FAILED
            assert doomed.reason == "worker_crashed"
            assert "crashed" in doomed.error
            assert doomed.describe()["reason"] == "worker_crashed"
            # The pool self-heals: the respawned worker serves new jobs.
            healed = jobs.submit(entry.fingerprint, "mine", {"seed": 2})
            assert healed.wait(10) and healed.state == DONE
            stats = jobs.stats()
            assert stats["worker_crashes"] == 1
            assert stats["worker_respawns"] == 1
            assert stats["workers_alive"] == 1
        finally:
            jobs.shutdown()


class TestCircuitBreaker:
    def test_unit_state_machine(self):
        breaker = CircuitBreaker(2, 0.1)
        assert breaker.check() is None
        breaker.record_failure()
        assert breaker.check() is None  # below threshold
        breaker.record_failure()
        assert breaker.check() is not None  # open
        assert breaker.describe()["state"] == "open"
        assert breaker.opens == 1
        time.sleep(0.15)
        assert breaker.check() is None  # cooldown elapsed: half-open
        assert breaker.describe()["state"] == "half-open"
        breaker.record_success()
        assert breaker.describe()["state"] == "closed"

    def test_consecutive_crashes_open_breaker_then_recover(self, tmp_path):
        registry = DatasetRegistry()
        entry, _ = registry.register_path(make_csv(tmp_path))
        cache = ResultCache()
        jobs = JobQueue(
            registry,
            cache,
            workers=1,
            faults=plan({"site": "jobs.worker_crash", "times": 2}),
            breaker_failures=2,
            breaker_cooldown_s=0.3,
        )
        try:
            for seed in (1, 2):
                doomed = jobs.submit(entry.fingerprint, "mine", {"seed": seed})
                assert doomed.wait(10) and doomed.state == FAILED
            with pytest.raises(CircuitOpenError) as excinfo:
                jobs.submit(entry.fingerprint, "mine", {"seed": 3})
            assert excinfo.value.retry_after_s is not None
            assert excinfo.value.retry_after_s > 0
            assert jobs.stats()["breakers"]["mine"]["state"] == "open"
            # Other operations' breakers are independent.
            ok = jobs.submit(
                entry.fingerprint, "analyze", {"schema": "A,C;B,C"}
            )
            assert ok.wait(10) and ok.state == DONE
            time.sleep(0.35)  # cooldown elapses: half-open lets one through
            probe = jobs.submit(entry.fingerprint, "mine", {"seed": 3})
            assert probe.wait(10) and probe.state == DONE
            assert jobs.stats()["breakers"]["mine"]["state"] == "closed"
        finally:
            jobs.shutdown()

    def test_cache_hits_served_while_open(self, tmp_path):
        registry = DatasetRegistry()
        entry, _ = registry.register_path(make_csv(tmp_path))
        cache = ResultCache()
        jobs = JobQueue(
            registry,
            cache,
            workers=1,
            faults=plan({"site": "jobs.worker_crash", "skip": 1, "times": 1}),
            breaker_failures=1,
            breaker_cooldown_s=30.0,
        )
        try:
            warm = jobs.submit(entry.fingerprint, "mine", {"seed": 1})
            assert warm.wait(10) and warm.state == DONE  # fills the cache
            doomed = jobs.submit(entry.fingerprint, "mine", {"seed": 2})
            assert doomed.wait(10) and doomed.state == FAILED  # opens breaker
            # Fresh compute fast-fails...
            with pytest.raises(CircuitOpenError):
                jobs.submit(entry.fingerprint, "mine", {"seed": 3})
            # ...but the warm path keeps serving: that is the graceful part.
            hit = jobs.submit(entry.fingerprint, "mine", {"seed": 1})
            assert hit.state == DONE and hit.cached
        finally:
            jobs.shutdown()


class TestClientErrorsAreNotRetried:
    def test_breaker_ignores_client_errors(self, tmp_path):
        registry = DatasetRegistry()
        entry, _ = registry.register_path(make_csv(tmp_path))
        jobs = JobQueue(
            registry, ResultCache(), workers=1, breaker_failures=2
        )
        try:
            for _ in range(4):  # cyclic schema: a client error every time
                bad = jobs.submit(
                    entry.fingerprint, "analyze", {"schema": "A,B;B,C;A,C"}
                )
                assert bad.wait(10) and bad.state == FAILED
            # Four consecutive *client* failures must not open the breaker.
            assert jobs.stats()["breakers"]["analyze"]["state"] == "closed"
        finally:
            jobs.shutdown()


class TestDegradedDatasets:
    def test_vanished_source_degrades_and_heals(self, tmp_path):
        registry = DatasetRegistry(memory_budget_bytes=1)
        path = make_csv(tmp_path)
        entry, _ = registry.register_path(path)
        # Touch a second dataset so the first becomes evictable LRU prey.
        other, _ = registry.register_path(make_csv(tmp_path, "b.csv", 3))
        registry.relation(other.fingerprint)
        assert not entry.resident
        content = path.read_text()
        path.unlink()  # the source vanishes while evicted
        with pytest.raises(DatasetDegradedError, match="re-ingest"):
            registry.relation(entry.fingerprint)
        assert entry.degraded and entry.degraded_reason
        assert registry.degraded_count() == 1
        assert registry.stats()["degraded"] == 1
        assert entry.describe()["degraded"] is True
        path.write_text(content)  # restore: the next use heals it
        assert registry.relation(entry.fingerprint) is not None
        assert not entry.degraded and registry.degraded_count() == 0

    def test_injected_reingest_failure(self, tmp_path):
        registry = DatasetRegistry(
            memory_budget_bytes=1,
            faults=plan({"site": "registry.reingest", "times": 1}),
        )
        entry, _ = registry.register_path(make_csv(tmp_path))
        other, _ = registry.register_path(make_csv(tmp_path, "b.csv", 3))
        registry.relation(other.fingerprint)
        with pytest.raises(DatasetDegradedError, match="injected"):
            registry.relation(entry.fingerprint)
        assert registry.degraded_count() == 1
        # The fault was one-shot: the very next use re-ingests and heals.
        assert registry.relation(entry.fingerprint) is not None
        assert registry.degraded_count() == 0

    def test_degraded_job_has_structured_reason(self, tmp_path):
        registry = DatasetRegistry(
            memory_budget_bytes=1,
            faults=plan({"site": "registry.reingest"}),  # unlimited
        )
        entry, _ = registry.register_path(make_csv(tmp_path))
        other, _ = registry.register_path(make_csv(tmp_path, "b.csv", 3))
        registry.relation(other.fingerprint)
        jobs = JobQueue(registry, ResultCache(), workers=1)
        try:
            job = jobs.submit(entry.fingerprint, "mine", {})
            assert job.wait(10)
            assert job.state == FAILED
            assert job.reason == "dataset_degraded"
            assert jobs.stats()["breakers"]["mine"]["consecutive_failures"] == 1
        finally:
            jobs.shutdown()


class TestOOMDegradation:
    def test_exact_mine_falls_back_to_sketch(self, tmp_path):
        registry = DatasetRegistry()
        entry, _ = registry.register_path(make_csv(tmp_path))
        cache = ResultCache()
        jobs = JobQueue(
            registry,
            cache,
            workers=1,
            faults=plan({"site": "jobs.oom", "times": 1}),
        )
        try:
            job = jobs.submit(entry.fingerprint, "mine", {"seed": 1})
            assert job.wait(20)
            assert job.state == DONE
            assert job.result["degraded"] is True
            assert job.result["backend"] == "sketch"
            assert "out of memory" in job.result["degradation_reason"]
            assert len(cache) == 0  # degraded results are never cached
            # Fault exhausted: the retry computes exact and caches it.
            retry = jobs.submit(entry.fingerprint, "mine", {"seed": 1})
            assert retry.wait(20) and retry.state == DONE
            assert not retry.cached
            assert "degraded" not in retry.result
            assert retry.result["backend"] == "exact"
            assert len(cache) == 1
        finally:
            jobs.shutdown()

    def test_sketch_mine_oom_is_a_typed_error(self, tmp_path):
        registry = DatasetRegistry()
        entry, _ = registry.register_path(make_csv(tmp_path))
        jobs = JobQueue(
            registry,
            ResultCache(),
            workers=1,
            faults=plan({"site": "jobs.oom", "times": 1}),
        )
        try:
            job = jobs.submit(
                entry.fingerprint, "mine", {"backend": "sketch", "seed": 1}
            )
            assert job.wait(20)
            assert job.state == FAILED
            assert "out of memory" in job.error
        finally:
            jobs.shutdown()


def http_service(tmp_path, fault_rules=None, seed=42, **config_kwargs):
    config = ServiceConfig(
        port=0,
        fault_plan=(
            {"seed": seed, "rules": list(fault_rules)} if fault_rules else None
        ),
        **config_kwargs,
    )
    return Service(config)


class TestHTTPChaos:
    def test_dropped_response_retried_without_double_run(self, tmp_path):
        # skip=1: the register response passes, the submit response is
        # dropped — the exact window where only idempotency prevents a
        # duplicated computation.
        rules = [{"site": "http.drop", "skip": 1, "times": 1}]
        with http_service(tmp_path, rules) as service:
            client = ServiceClient(
                f"http://127.0.0.1:{service.port}", retries=4, seed=1
            )
            fp = client.register_dataset(path=str(make_csv(tmp_path)))[
                "fingerprint"
            ]
            report = client.mine(fp, seed=5)
            assert report["rho"] == 0.0
            assert client.retried >= 1  # the drop really happened
            stats = client.stats()
            assert stats["faults"]["sites"]["http.drop"]["fired"] == 1
            assert stats["jobs"]["idempotent_replays"] >= 1
            assert stats["jobs"]["jobs"] == 1  # one job object, not two
            assert stats["jobs"]["completed_total"]["done"] == 1

    def test_truncated_and_stalled_responses_recover(self, tmp_path):
        rules = [
            {"site": "http.truncate", "skip": 1, "times": 1},
            {"site": "http.stall", "delay_s": 0.05, "times": 2},
        ]
        with http_service(tmp_path, rules) as service:
            client = ServiceClient(
                f"http://127.0.0.1:{service.port}", retries=4, seed=2
            )
            fp = client.register_dataset(path=str(make_csv(tmp_path)))[
                "fingerprint"
            ]
            report = client.mine(fp, seed=3)
            assert report["rho"] == 0.0
            stats = client.stats()
            assert stats["faults"]["sites"]["http.truncate"]["fired"] == 1

    def test_healthz_degrades_on_crash_then_recovers(self, tmp_path):
        rules = [{"site": "jobs.worker_crash", "times": 1}]
        with http_service(
            tmp_path, rules, health_incident_ttl_s=0.6
        ) as service:
            client = ServiceClient(
                f"http://127.0.0.1:{service.port}", retries=2, seed=3
            )
            fp = client.register_dataset(path=str(make_csv(tmp_path)))[
                "fingerprint"
            ]
            view = client.run(fp, "mine", {"seed": 1})
            assert view["state"] == "failed"
            assert view["reason"] == "worker_crashed"
            health = client.healthz()
            assert health["status"] == "degraded"
            assert health["faults_enabled"] is True
            assert any("crash" in r for r in health["reasons"])
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                health = client.healthz()
                if health["status"] == "ok":
                    break
                time.sleep(0.1)
            assert health["status"] == "ok"  # incident TTL elapsed, pool whole
            assert health["workers_alive"] == health["workers"]

    def test_breaker_maps_to_503_with_retry_after(self, tmp_path):
        rules = [{"site": "jobs.worker_crash", "times": 1}]
        with http_service(
            tmp_path, rules, breaker_failures=1, breaker_cooldown_s=0.4
        ) as service:
            client = ServiceClient(
                f"http://127.0.0.1:{service.port}", retries=0, seed=4
            )
            fp = client.register_dataset(path=str(make_csv(tmp_path)))[
                "fingerprint"
            ]
            view = client.run(fp, "mine", {"seed": 1})
            assert view["state"] == "failed"
            from repro.service import ServiceClientError

            with pytest.raises(ServiceClientError) as excinfo:
                client.submit_job(fp, "mine", {"seed": 2})
            assert excinfo.value.status == 503
            assert "circuit breaker" in str(excinfo.value)
            # A resilient client rides out the cooldown on its own.
            patient = ServiceClient(
                f"http://127.0.0.1:{service.port}", retries=4, seed=5
            )
            report = patient.mine(fp, seed=2)
            assert report["rho"] == 0.0

    def test_chaos_storm_invariants(self, tmp_path):
        """Mixed faults under load: every call succeeds after retries or
        raises a typed error, the server stays up throughout, and a
        fault-free warm repeat is bit-identical."""
        rules = [
            {"site": "http.drop", "probability": 0.4, "times": 3},
            {"site": "http.truncate", "probability": 0.3, "times": 2},
            {"site": "jobs.worker_crash", "times": 1},
            {"site": "cache.spill_write_torn", "times": 1},
        ]
        spill = tmp_path / "spill"
        with http_service(tmp_path, rules, spill_dir=spill) as service:
            client = ServiceClient(
                f"http://127.0.0.1:{service.port}", retries=6, seed=6
            )
            fp = client.register_dataset(path=str(make_csv(tmp_path)))[
                "fingerprint"
            ]
            outcomes = []
            for seed in range(6):
                try:
                    outcomes.append(client.mine(fp, seed=seed))
                except ReproError as exc:
                    outcomes.append(exc)  # typed failure: acceptable
            assert any(isinstance(o, dict) for o in outcomes)
            # The server survived the storm and still answers.
            assert client.healthz()["status"] in ("ok", "degraded")
            # Fault-free warm phase: bit-identical repeats.
            first = client.mine(fp, seed=100)
            second = client.mine(fp, seed=100)
            second = {k: v for k, v in second.items() if k != "cached"}
            assert first == second
            stats = client.stats()
            assert stats["faults"]["total_fired"] >= 1
            # No poisoned cache: quarantine may have fired, but nothing
            # torn was ever *served* (the warm repeat above proved it).
            assert stats["cache"]["quarantined"] in (0, 1)


class TestDraining:
    def test_stop_reports_draining(self):
        service = Service(ServiceConfig(port=0))
        service.start()
        assert service.health()["status"] == "ok"
        service.stop()
        assert service.health()["status"] == "draining"


class TestOverheadWhenDisabled:
    def test_disabled_plan_fire_is_cheap_and_inert(self, tmp_path):
        registry = DatasetRegistry()
        entry, _ = registry.register_path(make_csv(tmp_path))
        cache = ResultCache()
        jobs = JobQueue(registry, cache, workers=1)  # DISABLED plan
        try:
            job = jobs.submit(entry.fingerprint, "mine", {})
            assert job.wait(10) and job.state == DONE
            assert jobs._faults is DISABLED
            assert DISABLED.stats()["total_fired"] == 0
        finally:
            jobs.shutdown()

    def test_armed_but_idle_never_fires(self, tmp_path):
        # times=0 rules: the harness is enabled (hooks active) but can
        # never fire — the mode the overhead benchmark measures.
        with http_service(
            tmp_path, [{"site": "http.drop", "times": 0}]
        ) as service:
            client = ServiceClient(
                f"http://127.0.0.1:{service.port}", retries=2, seed=7
            )
            fp = client.register_dataset(path=str(make_csv(tmp_path)))[
                "fingerprint"
            ]
            assert client.mine(fp)["rho"] == 0.0
            stats = client.stats()
            assert stats["faults"]["enabled"] is True
            assert stats["faults"]["total_fired"] == 0
            assert stats["faults"]["sites"]["http.drop"]["evaluated"] > 0


class TestTelemetryLogFaults:
    def test_dead_sink_counts_write_errors_and_loses_only_lines(self, tmp_path):
        """telemetry.log_write with no delay raises on the writer thread:
        every line is lost-and-counted, the emitting caller never sees it."""
        from repro.service.telemetry import MetricsRegistry, RequestLog

        log_path = tmp_path / "requests.log"
        log = RequestLog(
            str(log_path),
            metrics=MetricsRegistry(),
            faults=plan({"site": "telemetry.log_write"}),
        )
        try:
            for i in range(5):
                log.emit({"kind": "probe", "i": i})
        finally:
            log.close()
        assert log.write_errors.value() == 5
        assert log.lines.value() == 0
        assert log_path.read_text() == ""  # nothing ever reached the sink

    def test_slow_sink_drops_and_counts_instead_of_stalling(self, tmp_path):
        """A sink stalling 200ms/line against a capacity-2 queue must shed
        load: requests stay fast and successful, drops are counted."""
        rules = [{"site": "telemetry.log_write", "delay_s": 0.2}]
        with http_service(
            tmp_path, rules, request_log_capacity=2
        ) as service:
            client = ServiceClient(f"http://127.0.0.1:{service.port}")
            started = time.perf_counter()
            for _ in range(20):
                assert client.healthz()["status"] == "ok"
            elapsed = time.perf_counter() - started
            # 20 log lines at 200ms each would take 4s to write; the
            # request path must not absorb any of that.
            assert elapsed < 3.0
            metrics = client.stats()["metrics"]["log"]
        assert metrics["dropped"] > 0
        stats_faults = service.faults.stats()
        assert stats_faults["sites"]["telemetry.log_write"]["fired"] > 0
