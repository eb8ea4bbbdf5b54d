"""Unit tests for the service core: registry, result cache, job queue."""

import gc
import json
import threading
import time

import numpy as np
import pytest

from repro.core.analysis import analyze
from repro.core.random_relations import random_relation
from repro.errors import QueueFullError, ReproError, ServiceError, UnknownDatasetError
from repro.factorize.report import validate_report
from repro.jointrees.build import jointree_from_schema
from repro.relations.io import write_csv
from repro.relations.relation import Relation
from repro.service.cache import ResultCache, canonical_key
from repro.service.jobs import DONE, FAILED, TIMEOUT, JobQueue
from repro.service.operations import canonicalize_params, run_operation
from repro.service.registry import DatasetRegistry, resident_bytes


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


@pytest.fixture()
def table_csv(tmp_path):
    return make_csv(tmp_path)


class TestDatasetRegistry:
    def test_register_is_idempotent_by_content(self, tmp_path):
        registry = DatasetRegistry()
        first = make_csv(tmp_path, "a.csv")
        same_content = make_csv(tmp_path, "b.csv")  # identical bytes
        entry1, created1 = registry.register_path(first)
        entry2, created2 = registry.register_path(same_content)
        assert created1 and not created2
        assert entry1 is entry2
        assert len(registry) == 1

    def test_eager_and_streamed_share_a_fingerprint(self, table_csv):
        registry = DatasetRegistry()
        eager, created = registry.register_path(table_csv)
        streamed, created2 = registry.register_path(table_csv, chunk_rows=2)
        assert created and not created2
        assert eager.fingerprint == streamed.fingerprint

    def test_get_unknown_raises(self):
        with pytest.raises(UnknownDatasetError):
            DatasetRegistry().get("deadbeef")

    def test_lru_eviction_under_tiny_budget(self, tmp_path):
        paths = [make_csv(tmp_path, f"t{i}.csv", n_classes=2 + i) for i in range(3)]
        one = DatasetRegistry().register_path(paths[0])[0]
        # Budget fits roughly one dataset: registering three must evict.
        registry = DatasetRegistry(
            memory_budget_bytes=int(one.resident_bytes * 1.5)
        )
        entries = [registry.register_path(p)[0] for p in paths]
        assert registry.evictions > 0
        assert not entries[0].resident  # the least recently used fell out
        assert entries[-1].resident  # the newest always stays
        assert registry.total_resident_bytes() <= int(one.resident_bytes * 1.5) or (
            sum(e.resident for e in entries) == 1
        )
        # Metadata survives eviction; the relation is re-ingested on use.
        relation = registry.relation(entries[0].fingerprint)
        assert len(relation) == entries[0].n_rows
        assert entries[0].reloads == 1

    def test_retired_versions_are_freed_without_a_full_collection(
        self, table_csv
    ):
        """An appended-over or evicted relation drops its cached engine
        and context (which point back at it), so reference counting frees
        it; otherwise it waits for the cyclic garbage collector."""

        def alive(store):
            return any(
                isinstance(obj, Relation) and obj._store is store
                for obj in gc.get_objects()
            )

        registry = DatasetRegistry(memory_budget_bytes=1)
        entry = registry.register_path(table_csv)[0]
        tree = jointree_from_schema([{"A", "C"}, {"B", "C"}])
        gc.collect()
        gc.disable()
        try:
            relation = registry.relation(entry.fingerprint)
            analyze(relation, tree)  # caches an engine and a context
            superseded = relation.columns()
            del relation
            registry.append_rows(entry.fingerprint, [(9, 9, 9)])
            relation = registry.relation(entry.fingerprint)
            analyze(relation, tree)
            evicted = relation.columns()
            del relation
            registry.register_path(make_csv(table_csv.parent, "other.csv", 3))
            assert not entry.resident
            assert not alive(superseded)
            assert not alive(evicted)
        finally:
            gc.enable()

    def test_evicted_relation_is_freed_after_a_mine(self, table_csv):
        """The service's mine job leaves no reference cycle through its
        search either: an evicted dataset's relation is freed as soon as
        the registry drops it, with the cyclic collector off."""

        def alive(store):
            return any(
                isinstance(obj, Relation) and obj._store is store
                for obj in gc.get_objects()
            )

        registry = DatasetRegistry(memory_budget_bytes=1)
        entry = registry.register_path(table_csv)[0]
        gc.collect()
        gc.disable()
        try:
            relation = registry.relation(entry.fingerprint)
            report = run_operation(relation, "mine", canonicalize_params("mine", {}))
            assert report["rho"] == 0.0
            evicted = relation.columns()
            del relation
            registry.register_path(make_csv(table_csv.parent, "other.csv", 3))
            assert not entry.resident
            assert not alive(evicted)
        finally:
            gc.enable()

    def test_reingest_detects_mutated_source(self, tmp_path):
        path = make_csv(tmp_path)
        one = DatasetRegistry().register_path(path)[0]
        registry = DatasetRegistry(memory_budget_bytes=one.resident_bytes + 1)
        entry = registry.register_path(path)[0]
        other = make_csv(tmp_path, "other.csv", n_classes=5)
        registry.register_path(other)  # evicts the first entry
        assert not entry.resident
        path.write_text("A,B,C\n9,9,9\n")  # mutate behind the registry's back
        with pytest.raises(ServiceError, match="changed on disk"):
            registry.relation(entry.fingerprint)

    def test_path_reregistration_gives_inline_dataset_a_source(self, tmp_path):
        registry = DatasetRegistry()  # no spill dir: inline has no source
        entry, _ = registry.register_text("A,B\n1,2\n3,4\n")
        assert entry.source is None
        path = tmp_path / "same.csv"
        path.write_text("A,B\n1,2\n3,4\n")
        again, created = registry.register_path(path)
        assert again is entry and not created
        assert entry.source == str(path)  # eviction is now survivable

    def test_register_text_inline(self, tmp_path):
        registry = DatasetRegistry(spill_dir=tmp_path / "spill")
        entry, created = registry.register_text("A,B\n1,2\n3,4\n")
        assert created
        assert entry.n_rows == 2
        assert entry.source is not None  # spilled for later re-ingestion
        # Same content via a file: one entry.
        path = tmp_path / "same.csv"
        path.write_text("A,B\n1,2\n3,4\n")
        assert registry.register_path(path)[0] is entry

    def test_engine_is_shared_and_resident(self, table_csv):
        registry = DatasetRegistry()
        entry, _ = registry.register_path(table_csv)
        engine = registry.engine(entry.fingerprint)
        engine.entropy(["A"])
        assert registry.engine(entry.fingerprint) is engine
        assert engine.cache_info()["entries"] >= 1
        assert registry.stats()["engines"][entry.fingerprint]["entries"] >= 1

    def test_hits_count_request_lookups_not_plumbing(self, table_csv):
        registry = DatasetRegistry()
        entry, _ = registry.register_path(table_csv)
        registry.get(entry.fingerprint)
        registry.relation(entry.fingerprint)  # internal: no hit
        registry.engine(entry.fingerprint)  # internal: no hit
        assert entry.hits == 1

    def test_resident_bytes_monotone(self, tmp_path):
        small = DatasetRegistry().register_path(make_csv(tmp_path, "s.csv"))[0]
        big = DatasetRegistry().register_path(
            make_csv(tmp_path, "b.csv", n_classes=30)
        )[0]
        assert big.resident_bytes > small.resident_bytes > 0
        assert resident_bytes(big.relation) == big.resident_bytes


class TestResultCache:
    def payload(self, j=0.0):
        return {
            "command": "mine",
            "strategy": "recursive",
            "j_measure": j,
            "rho": 0.0,
            "wall_time_s": 0.01,
            "n_rows": 8,
            "n_cols": 3,
        }

    def test_put_get_roundtrip_counts_stats(self):
        cache = ResultCache()
        key = canonical_key("fp", "mine", {"threshold": 1e-9})
        assert cache.get(key) is None
        cache.put(key, self.payload())
        hit = cache.get(key)
        assert hit == self.payload()
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_hits_are_detached_copies(self):
        cache = ResultCache()
        key = canonical_key("fp", "mine", {})
        cache.put(key, self.payload())
        first = cache.get(key)
        first["mutated"] = True
        assert "mutated" not in cache.get(key)

    def test_rejects_malformed_reports(self):
        cache = ResultCache()
        with pytest.raises(ReproError):
            cache.put("k", {"command": "mine"})  # missing core fields

    def test_lru_capacity(self):
        cache = ResultCache(max_entries=2)
        keys = [canonical_key("fp", "mine", {"seed": i}) for i in range(3)]
        for key in keys:
            cache.put(key, self.payload())
        assert len(cache) == 2
        assert cache.get(keys[0]) is None  # oldest evicted

    def test_spill_survives_restart(self, tmp_path):
        spill = tmp_path / "spill"
        key = canonical_key("fp", "mine", {"threshold": 1e-9})
        warm = ResultCache(spill_dir=spill)
        warm.put(key, self.payload(j=0.25))
        restarted = ResultCache(spill_dir=spill)
        assert restarted.get(key) == self.payload(j=0.25)
        assert restarted.stats()["spill_loads"] == 1

    def test_admit_defers_the_spill_write(self, tmp_path):
        spill = tmp_path / "spill"
        key = canonical_key("fp", "mine", {})
        cache = ResultCache(spill_dir=spill)
        document = cache.admit(key, self.payload(j=0.5))
        assert cache.get(key) == self.payload(j=0.5)  # memory tier has it
        assert not (spill / f"result-{key}.json").exists()
        assert cache.stats()["spill_writes"] == 0
        cache.spill(document)
        assert cache.stats()["spill_writes"] == 1
        assert ResultCache(spill_dir=spill).get(key) == self.payload(j=0.5)
        assert ResultCache().admit(key, self.payload()) is None  # no disk tier

    def test_spill_is_compact_and_indented_spills_still_load(self, tmp_path):
        spill = tmp_path / "spill"
        key = canonical_key("fp", "mine", {"seed": 1})
        ResultCache(spill_dir=spill).put(key, self.payload(j=0.125))
        text = (spill / f"result-{key}.json").read_text()
        assert text.count("\n") == 1 and ": " not in text
        # The layout older builds wrote: indented, sorted keys.
        old_key = canonical_key("fp", "mine", {"seed": 2})
        document = {"key": old_key, "meta": {}, "payload": self.payload(j=0.25)}
        (spill / f"result-{old_key}.json").write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
        restarted = ResultCache(spill_dir=spill)
        assert restarted.get(key) == self.payload(j=0.125)
        assert restarted.get(old_key) == self.payload(j=0.25)
        assert restarted.quarantined == 0

    def test_torn_spill_file_is_a_miss(self, tmp_path):
        spill = tmp_path / "spill"
        spill.mkdir()
        key = canonical_key("fp", "mine", {})
        (spill / f"result-{key}.json").write_text("{not json")
        assert ResultCache(spill_dir=spill).get(key) is None

    def test_key_is_order_insensitive_but_value_sensitive(self):
        a = canonical_key("fp", "mine", {"a": 1, "b": 2})
        b = canonical_key("fp", "mine", {"b": 2, "a": 1})
        c = canonical_key("fp", "mine", {"a": 1, "b": 3})
        assert a == b != c


class TestCanonicalizeParams:
    def test_defaults_filled(self):
        canonical = canonicalize_params("mine", {})
        assert canonical["strategy"] == "recursive"
        assert canonical["threshold"] == 1e-9

    def test_schema_spellings_share_one_key(self):
        spellings = ["B,A;B,C", "A,B;C,B", " A , B ; B,C", "B,C;A,B;A,B"]
        canonical = [
            canonicalize_params("analyze", {"schema": text}) for text in spellings
        ]
        assert {c["schema"] for c in canonical} == {"A,B;B,C"}
        assert len({canonical_key("fp", "analyze", c) for c in canonical}) == 1

    def test_distinct_bag_sets_keep_distinct_keys(self):
        schemas = ["A,B;B,C", "A,C;B,C", "A,B;A,C", "A,B,C"]
        keys = {
            canonical_key(
                "fp", "analyze", canonicalize_params("analyze", {"schema": text})
            )
            for text in schemas
        }
        assert len(keys) == len(schemas)

    def test_spellings_collapse_to_one_key(self):
        sparse = canonicalize_params("mine", None)
        explicit = canonicalize_params(
            "mine", {"strategy": "recursive", "threshold": 1e-9, "seed": 0}
        )
        assert sparse == explicit

    def test_unknown_params_rejected(self):
        with pytest.raises(ServiceError, match="unknown parameter"):
            canonicalize_params("mine", {"frobnicate": 1})

    def test_unknown_operation_rejected(self):
        with pytest.raises(ServiceError, match="unknown operation"):
            canonicalize_params("transmogrify", {})

    def test_analyze_requires_schema(self):
        with pytest.raises(ServiceError, match="schema"):
            canonicalize_params("analyze", {})

    def test_decompose_schema_resets_mining_knobs(self):
        with_schema = canonicalize_params(
            "decompose", {"schema": "C,B;A,C", "strategy": "beam", "seed": 7}
        )
        bare = canonicalize_params("decompose", {"schema": "A,C;B,C"})
        assert with_schema == bare

    def test_decompose_schema_resets_backend_knobs(self):
        with_backend = canonicalize_params(
            "decompose",
            {"schema": "A,C;B,C", "backend": "sketch", "chunk_rows": 7},
        )
        bare = canonicalize_params("decompose", {"schema": "A,C;B,C"})
        assert with_backend == bare
        assert canonical_key("fp", "decompose", with_backend) == canonical_key(
            "fp", "decompose", bare
        )

    def test_bad_values_rejected(self):
        for operation, params in [
            ("mine", {"backend": "quantum"}),
            ("mine", {"strategy": "quantum"}),
            ("mine", {"chunk_rows": 0}),
            ("mine", {"threshold": "loose"}),
            ("mine", {"max_separator": "2"}),
            ("mine", {"max_separator": 0}),
            ("mine", {"max_separator": True}),
            ("analyze", {"schema": "; ;"}),
        ]:
            with pytest.raises(ServiceError):
                canonicalize_params(operation, params)

    def test_deadline_is_execution_only(self):
        """Deadline never reaches the cache key: cached results are
        complete, hence valid under any budget."""
        with_deadline = canonicalize_params("mine", {"deadline": 5.0})
        without = canonicalize_params("mine", {})
        assert with_deadline == without
        assert "deadline" not in without

    def test_chunk_rows_moot_for_exact_backend(self):
        """chunk_rows only sizes sketch streaming passes; exact jobs
        with and without it must share a cache entry."""
        chunked = canonicalize_params("mine", {"chunk_rows": 50_000})
        plain = canonicalize_params("mine", {})
        assert chunked == plain
        sketch = canonicalize_params(
            "mine", {"backend": "sketch", "chunk_rows": 50_000}
        )
        assert sketch["chunk_rows"] == 50_000  # meaningful there


class TestRunOperation:
    def test_all_operations_validate_and_match_cli_semantics(self, table_csv):
        from repro.relations.io import infer_integer_domains, read_csv

        relation = infer_integer_domains(read_csv(table_csv))
        mine = run_operation(relation, "mine", canonicalize_params("mine", {}))
        analyze = run_operation(
            relation, "analyze", canonicalize_params("analyze", {"schema": "A,C;B,C"})
        )
        decompose = run_operation(
            relation, "decompose", canonicalize_params("decompose", {})
        )
        for payload in (mine, analyze, decompose):
            validate_report(payload)
            assert payload["rho"] == 0.0
            assert payload["backend"] == "exact"
        assert ["A", "C"] in mine["bags"]
        assert decompose["lossless"] is True


class TestJobQueue:
    def queue_for(self, tmp_path, **kwargs):
        registry = DatasetRegistry()
        entry, _ = registry.register_path(make_csv(tmp_path))
        cache = ResultCache()
        jobs = JobQueue(registry, cache, **kwargs)
        return registry, cache, jobs, entry.fingerprint

    def test_job_lifecycle_and_caching(self, tmp_path):
        _, cache, jobs, fp = self.queue_for(tmp_path, workers=1)
        try:
            job = jobs.submit(fp, "mine", {"strategy": "beam"})
            assert job.wait(10)
            assert job.state == DONE and not job.cached
            validate_report(job.result)

            again = jobs.submit(fp, "mine", {"strategy": "beam"})
            assert again.state == DONE and again.cached
            assert again.result["cached"] is True
            clean = dict(again.result)
            clean.pop("cached")
            assert clean == job.result  # bit-identical to the cold report
            assert cache.stats()["hits"] == 1
        finally:
            jobs.shutdown()

    def test_job_is_done_before_its_spill_is_written(self, tmp_path):
        """A miss is answered first; the spill file follows, and a fresh
        cache over the spill directory then loads the same report."""
        registry = DatasetRegistry()
        fp = registry.register_path(make_csv(tmp_path))[0].fingerprint
        spill = tmp_path / "spill"
        cache = ResultCache(spill_dir=spill)
        jobs = JobQueue(registry, cache, workers=1)
        release = threading.Event()
        written = threading.Event()
        original_spill = cache.spill

        def held_spill(document):
            release.wait(10)
            original_spill(document)
            written.set()

        cache.spill = held_spill
        try:
            job = jobs.submit(fp, "mine", {"strategy": "beam"})
            assert job.wait(10)
            assert job.state == DONE and not job.cached
            assert jobs.get(job.id).describe()["state"] == DONE
            assert jobs.stats()["completed_total"][DONE] == 1
            key = canonical_key(fp, "mine", job.canonical_params)
            path = spill / f"result-{key}.json"
            assert not path.exists()
            assert cache.get(key) is not None  # the memory tier has it
            release.set()
            assert written.wait(10)
            assert path.exists()
            assert ResultCache(spill_dir=spill).get(key) == job.result
        finally:
            release.set()
            jobs.shutdown()

    def test_submit_racing_a_finishing_twin_takes_its_result(self, tmp_path):
        """A submit whose cache lookup missed just before an identical
        in-flight job finished must take that job's result: the worker
        put it in the cache and left the in-flight table in between."""
        registry, cache, jobs, fp = self.queue_for(tmp_path, workers=1)
        gate = threading.Event()
        computed: list = []
        original_relation = registry.relation

        def gated_relation(fingerprint):
            computed.append(fingerprint)
            gate.wait(5)
            return original_relation(fingerprint)

        held = threading.Event()
        release = threading.Event()
        original_get = cache.get
        racers: list = []

        def holding_get(key):
            found = original_get(key)
            if threading.current_thread() in racers:
                held.set()  # between the cache read and the queue lock
                release.wait(5)
            return found

        registry.relation = gated_relation
        cache.get = holding_get
        try:
            first = jobs.submit(fp, "mine", {"seed": 3})
            second: list = []
            racer = threading.Thread(
                target=lambda: second.append(jobs.submit(fp, "mine", {"seed": 3}))
            )
            racers.append(racer)
            racer.start()
            assert held.wait(5)
            gate.set()
            deadline = time.monotonic() + 10
            while jobs.stats()["completed_total"][DONE] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            release.set()
            racer.join(timeout=10)
            (job,) = second
            assert job is not first
            assert job.state == DONE and job.cached
            assert len(computed) == 1
            clean = dict(job.result)
            clean.pop("cached")
            assert clean == first.result
            assert cache.stats()["misses"] == 2  # one per submission
        finally:
            gate.set()
            release.set()
            registry.relation = original_relation
            jobs.shutdown()

    def test_long_polls_never_miss_a_finish(self, tmp_path):
        """Many long polls racing many finishing jobs: a wake lost
        between publishing and settling would leave a poll to expire."""
        import sys

        _, _, jobs, fp = self.queue_for(tmp_path, workers=4, max_queue=256)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            submitted = [jobs.submit(fp, "mine", {"seed": seed}) for seed in range(40)]
            outcomes: list = []
            pollers = [
                threading.Thread(
                    target=lambda job=job: outcomes.append(jobs.wait(job, 10))
                )
                for job in submitted
                for _ in range(2)
            ]
            for poller in pollers:
                poller.start()
            for poller in pollers:
                poller.join(timeout=30)
            assert not any(poller.is_alive() for poller in pollers)
            assert outcomes == ["finished"] * len(pollers)
            assert all(job.state == DONE for job in submitted)
        finally:
            sys.setswitchinterval(switch)
            jobs.shutdown()

    def test_schema_respelling_is_a_cache_hit(self, tmp_path):
        _, cache, jobs, fp = self.queue_for(tmp_path, workers=1)
        try:
            job = jobs.submit(fp, "analyze", {"schema": "C,A;C,B"})
            assert job.wait(10)
            assert job.state == DONE and not job.cached
            assert job.canonical_params["schema"] == "A,C;B,C"

            again = jobs.submit(fp, "analyze", {"schema": " B , C ; A,C"})
            assert again.state == DONE and again.cached
            assert cache.stats()["hits"] == 1
        finally:
            jobs.shutdown()

    def test_unknown_fingerprint_rejected_at_submit(self, tmp_path):
        _, _, jobs, _ = self.queue_for(tmp_path)
        try:
            with pytest.raises(UnknownDatasetError):
                jobs.submit("deadbeef", "mine", {})
        finally:
            jobs.shutdown()

    def test_failed_job_reports_error(self, tmp_path):
        _, _, jobs, fp = self.queue_for(tmp_path, workers=1)
        try:
            job = jobs.submit(fp, "analyze", {"schema": "A,B;B,C;A,C"})  # cyclic
            assert job.wait(10)
            assert job.state == FAILED
            assert "cyclic" in job.error
            view = job.describe()
            assert view["state"] == "failed" and "error" in view
        finally:
            jobs.shutdown()

    def test_nan_threshold_fails_as_client_error(self, tmp_path):
        _, cache, jobs, fp = self.queue_for(tmp_path, workers=1)
        try:
            job = jobs.submit(fp, "mine", {"threshold": float("nan")})
            assert job.wait(10)
            assert job.state == FAILED
            assert "threshold must be non-negative" in job.error
            assert not job.error.startswith("internal error")
            assert cache.stats()["entries"] == 0
        finally:
            jobs.shutdown()

    def test_deadline_expired_in_queue_times_out_cleanly(self, tmp_path):
        registry, cache, jobs, fp = self.queue_for(tmp_path, workers=1)
        try:
            gate = threading.Event()
            original = registry.relation

            def slow_relation(fingerprint):
                gate.wait(5)  # the first job blocks the only worker
                return original(fingerprint)

            registry.relation = slow_relation
            blocker = jobs.submit(fp, "mine", {})
            expiring = jobs.submit(fp, "mine", {"deadline": 0.05, "seed": 99})
            time.sleep(0.2)  # let the deadline lapse while queued
            gate.set()
            assert expiring.wait(10)
            assert expiring.state == TIMEOUT
            view = expiring.describe()
            assert view["state"] == "timeout"
            assert "deadline" in view["error"]
            assert view["service_time_s"] > 0
            assert "result" not in view  # nothing fabricated
            assert blocker.wait(10) and blocker.state == DONE
            # Timed-out work is never cached: a retry recomputes.
            retry = jobs.submit(fp, "mine", {"deadline": 30, "seed": 99})
            assert retry.wait(10) and retry.state == DONE and not retry.cached
        finally:
            registry.relation = original
            jobs.shutdown()

    def test_partial_results_are_not_cached(self, tmp_path):
        rng = np.random.default_rng(5)
        relation = random_relation({n: 12 for n in "ABCDEF"}, 4000, rng)
        path = tmp_path / "wide.csv"
        write_csv(relation, path)
        registry = DatasetRegistry()
        entry, _ = registry.register_path(path)
        cache = ResultCache()
        jobs = JobQueue(registry, cache, workers=1)
        try:
            job = jobs.submit(
                entry.fingerprint,
                "mine",
                {"strategy": "anytime", "deadline": 0.001},
            )
            assert job.wait(30)
            if job.state == DONE and job.result.get("partial"):
                assert len(cache) == 0
                assert job.describe()["partial"] is True
            else:  # machine fast enough to finish: then it must be cached
                assert job.state in (DONE, TIMEOUT)
        finally:
            jobs.shutdown()

    def test_backpressure_queue_full(self, tmp_path):
        registry, cache, jobs, fp = self.queue_for(
            tmp_path, workers=1, max_queue=1
        )
        try:
            gate = threading.Event()
            original = registry.relation

            def slow_relation(fingerprint):
                gate.wait(5)
                return original(fingerprint)

            registry.relation = slow_relation
            jobs.submit(fp, "mine", {"seed": 1})  # occupies the worker
            time.sleep(0.05)
            jobs.submit(fp, "mine", {"seed": 2})  # fills the queue
            with pytest.raises(QueueFullError, match="retry"):
                jobs.submit(fp, "mine", {"seed": 3})
            gate.set()
        finally:
            registry.relation = original
            jobs.shutdown()

    def test_inflight_coalescing_shares_one_job(self, tmp_path):
        registry, cache, jobs, fp = self.queue_for(tmp_path, workers=1)
        try:
            gate = threading.Event()
            original = registry.relation

            def slow_relation(fingerprint):
                gate.wait(5)
                return original(fingerprint)

            registry.relation = slow_relation
            first = jobs.submit(fp, "mine", {})
            second = jobs.submit(fp, "mine", {})
            assert first is second
            assert jobs.coalesced == 1
            gate.set()
            assert first.wait(10) and first.state == DONE
        finally:
            registry.relation = original
            jobs.shutdown()

    def test_shutdown_fails_unstarted_jobs_promptly(self, tmp_path):
        registry, cache, jobs, fp = self.queue_for(tmp_path, workers=1)
        gate = threading.Event()
        original = registry.relation

        def slow_relation(fingerprint):
            gate.wait(5)
            return original(fingerprint)

        registry.relation = slow_relation
        try:
            running = jobs.submit(fp, "mine", {"seed": 1})
            time.sleep(0.05)  # worker claims it and blocks on the gate
            pending = jobs.submit(fp, "mine", {"seed": 2})
            # Shut down while the worker is still stuck: the pending job
            # must be failed by the drain, not left hanging for waiters.
            shutdown_done = threading.Event()

            def closer():
                jobs.shutdown()
                shutdown_done.set()

            threading.Thread(target=closer).start()
            assert pending.wait(5), "pending job left hanging by shutdown"
            assert pending.state == FAILED
            assert "shut down" in pending.error
            gate.set()
            assert running.wait(10)
            assert shutdown_done.wait(10)
        finally:
            registry.relation = original

    def test_default_deadline_applies(self, tmp_path):
        _, _, jobs, fp = self.queue_for(
            tmp_path, workers=1, default_deadline_s=30.0
        )
        try:
            job = jobs.submit(fp, "mine", {})
            assert job.deadline_s == 30.0
            assert job.wait(10) and job.state == DONE
        finally:
            jobs.shutdown()

    def test_bad_deadline_rejected_at_submit(self, tmp_path):
        _, _, jobs, fp = self.queue_for(tmp_path)
        try:
            for bad in (-1, 0, "soon", True):
                with pytest.raises(ServiceError, match="deadline"):
                    jobs.submit(fp, "mine", {"deadline": bad})
        finally:
            jobs.shutdown()

    def test_warm_hit_shared_across_deadline_spellings(self, tmp_path):
        _, cache, jobs, fp = self.queue_for(tmp_path, workers=1)
        try:
            cold = jobs.submit(fp, "mine", {"deadline": 60})
            assert cold.wait(10) and cold.state == DONE
            warm = jobs.submit(fp, "mine", {})  # no deadline: same key
            assert warm.cached
        finally:
            jobs.shutdown()

    def test_deadline_jobs_never_coalesce(self, tmp_path):
        """Relative deadlines anchor at submission, so later identical
        submissions must get their own run (and full budget)."""
        registry, cache, jobs, fp = self.queue_for(tmp_path, workers=1)
        try:
            gate = threading.Event()
            original = registry.relation

            def slow_relation(fingerprint):
                gate.wait(5)
                return original(fingerprint)

            registry.relation = slow_relation
            first = jobs.submit(fp, "mine", {"deadline": 60})
            second = jobs.submit(fp, "mine", {"deadline": 60})
            assert first is not second
            assert jobs.coalesced == 0
            gate.set()
            assert first.wait(10) and second.wait(10)
        finally:
            registry.relation = original
            jobs.shutdown()

    def test_finished_job_retention_is_bounded(self, tmp_path):
        _, _, jobs, fp = self.queue_for(tmp_path, workers=1, max_finished=3)
        try:
            first = jobs.submit(fp, "mine", {})
            assert first.wait(10)
            for seed in range(1, 5):  # distinct keys: real jobs each time
                job = jobs.submit(fp, "mine", {"seed": seed})
                assert job.wait(10)
            with pytest.raises(ServiceError, match="no such job"):
                jobs.get(first.id)
            assert jobs.get(job.id) is job  # newest stays pollable
        finally:
            jobs.shutdown()

    def test_double_shutdown_is_noop(self, tmp_path):
        _, _, jobs, fp = self.queue_for(tmp_path, workers=1)
        job = jobs.submit(fp, "mine", {})
        assert job.wait(10) and job.state == DONE
        jobs.shutdown(wait=True)
        jobs.shutdown(wait=True)  # must return immediately, not raise
        jobs.shutdown(wait=False)
        with pytest.raises(ServiceError, match="shut down"):
            jobs.submit(fp, "mine", {"seed": 7})

    def test_shutdown_racing_submits_never_lose_jobs(self, tmp_path):
        """Submits racing shutdown either land (and are drained to a
        terminal state) or are rejected with a typed error — no job may
        end up enqueued on a dead pool, hanging its waiter forever."""
        _, _, jobs, fp = self.queue_for(tmp_path, workers=2, max_queue=64)
        accepted: list = []
        rejected = []
        start = threading.Barrier(5)

        def submitter(offset):
            start.wait()
            for i in range(25):
                try:
                    accepted.append(
                        jobs.submit(fp, "mine", {"seed": offset * 1000 + i})
                    )
                except (ServiceError, QueueFullError) as exc:
                    rejected.append(exc)

        threads = [
            threading.Thread(target=submitter, args=(k,)) for k in range(4)
        ]
        for thread in threads:
            thread.start()
        start.wait()  # all submitters poised before the shutdown fires
        jobs.shutdown(wait=True)
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert accepted or rejected  # the race actually exercised something
        for job in accepted:
            assert job.wait(10), f"job {job.id} left hanging by shutdown race"
            assert job.state in (DONE, FAILED, TIMEOUT)
        for exc in rejected:
            assert "shut down" in str(exc) or "full" in str(exc)


class TestRegistrySnapshots:
    """Persistent columnar snapshots: write at admit, prefer on reload."""

    def test_snapshot_written_beside_spill(self, tmp_path, table_csv):
        registry = DatasetRegistry(spill_dir=tmp_path / "spill")
        entry, _ = registry.register_path(table_csv)
        assert entry.snapshot is True
        snap = tmp_path / "spill" / f"snapshot-{entry.fingerprint}"
        assert (snap / "meta.json").exists()
        assert registry.stats()["snapshot_writes"] == 1

    def test_eviction_reload_prefers_snapshot(self, tmp_path):
        registry = DatasetRegistry(
            memory_budget_bytes=1, spill_dir=tmp_path / "spill"
        )
        first, _ = registry.register_path(make_csv(tmp_path, "a.csv"))
        fp = first.fingerprint
        registry.register_path(make_csv(tmp_path, "b.csv", n_classes=3))
        assert not registry.get(fp).resident
        relation = registry.relation(fp)
        assert relation.fingerprint() == fp
        stats = registry.stats()
        assert stats["snapshot_reloads"] == 1
        assert stats["csv_reloads"] == 0
        assert registry.get(fp).describe()["reload_source"] == "snapshot"

    def test_warm_restart_restores_from_snapshots(self, tmp_path, table_csv):
        spill = tmp_path / "spill"
        registry = DatasetRegistry(spill_dir=spill)
        entry, _ = registry.register_path(table_csv)
        fp = entry.fingerprint

        reborn = DatasetRegistry(spill_dir=spill)
        assert fp in reborn
        assert reborn.stats()["restored_from_snapshot"] == 1
        relation = reborn.relation(fp)
        assert relation.fingerprint() == fp
        assert reborn.get(fp).describe()["reload_source"] == "snapshot"

    def test_corrupt_snapshot_quarantined_with_csv_fallback(self, tmp_path):
        registry = DatasetRegistry(
            memory_budget_bytes=1, spill_dir=tmp_path / "spill"
        )
        first, _ = registry.register_path(make_csv(tmp_path, "a.csv"))
        fp = first.fingerprint
        snap = tmp_path / "spill" / f"snapshot-{fp}"
        (snap / "col-000.npy").write_bytes(b"garbage")
        registry.register_path(make_csv(tmp_path, "b.csv", n_classes=3))

        relation = registry.relation(fp)
        assert relation.fingerprint() == fp  # healed from CSV
        stats = registry.stats()
        assert stats["snapshot_quarantined"] == 1
        assert stats["csv_reloads"] == 1
        assert registry.get(fp).describe()["reload_source"] == "csv"
        # the CSV reload heals the snapshot in place
        assert (snap / "meta.json").exists()
        assert (tmp_path / "spill" / "quarantine").exists()

    def test_snapshot_reload_matches_csv_ingest_bit_identically(
        self, tmp_path, table_csv
    ):
        from repro.relations.io import read_csv

        registry = DatasetRegistry(
            memory_budget_bytes=1, spill_dir=tmp_path / "spill"
        )
        entry, _ = registry.register_path(table_csv)
        fp = entry.fingerprint
        registry.register_path(make_csv(tmp_path, "other.csv", n_classes=4))
        reloaded = registry.relation(fp)
        eager = read_csv(table_csv)
        assert reloaded.fingerprint() == eager.fingerprint()
        assert reloaded.rows() == eager.rows()

    def test_engine_memo_spilled_and_restored(self, tmp_path):
        from repro.info.engine import EntropyEngine

        registry = DatasetRegistry(
            memory_budget_bytes=1, spill_dir=tmp_path / "spill"
        )
        first, _ = registry.register_path(make_csv(tmp_path, "a.csv"))
        fp = first.fingerprint
        expected = registry.engine(fp).entropy(["A"])
        registry.register_path(make_csv(tmp_path, "b.csv", n_classes=3))
        assert registry.stats()["memo_spills"] == 1

        relation = registry.relation(fp)
        assert registry.stats()["memo_entries_restored"] >= 1
        engine = EntropyEngine.for_relation(relation)
        assert engine.entropy(["A"]) == expected

    def test_register_text_spill_is_crash_safe_and_snapshotted(self, tmp_path):
        registry = DatasetRegistry(spill_dir=tmp_path / "spill")
        text = "A,B\n1,x\n2,y\n"
        entry, created = registry.register_text(text)
        assert created and entry.snapshot
        kept = tmp_path / "spill" / f"dataset-{entry.fingerprint}.csv"
        assert kept.read_text() == text
        # no orphaned temp files from the atomic write
        leftovers = [
            p for p in (tmp_path / "spill").iterdir() if ".tmp" in p.name
        ]
        assert leftovers == []

    def test_snapshot_load_fault_forces_csv_fallback(self, tmp_path):
        from repro.service.faults import FaultPlan

        faults = FaultPlan.from_spec(
            {"rules": [{"site": "registry.snapshot_load"}]}
        )
        registry = DatasetRegistry(
            memory_budget_bytes=1,
            spill_dir=tmp_path / "spill",
            faults=faults,
        )
        first, _ = registry.register_path(make_csv(tmp_path, "a.csv"))
        fp = first.fingerprint
        registry.register_path(make_csv(tmp_path, "b.csv", n_classes=3))
        relation = registry.relation(fp)
        assert relation.fingerprint() == fp
        assert registry.stats()["csv_reloads"] == 1

    def test_register_path_warm_shortcut_skips_reingest(self, tmp_path):
        spill = tmp_path / "spill"
        path = make_csv(tmp_path, "a.csv")
        old = DatasetRegistry(spill_dir=spill)
        entry, _ = old.register_path(path)
        fp = entry.fingerprint

        reborn = DatasetRegistry(spill_dir=spill)
        again, created = reborn.register_path(path)
        assert created is False
        assert again.fingerprint == fp
        assert reborn.stats()["snapshot_reloads"] == 1

    def test_register_path_shortcut_rejects_mutated_source(self, tmp_path):
        spill = tmp_path / "spill"
        path = make_csv(tmp_path, "a.csv")
        old = DatasetRegistry(spill_dir=spill)
        fp = old.register_path(path)[0].fingerprint

        make_csv(tmp_path, "a.csv", n_classes=3)  # same path, new content
        reborn = DatasetRegistry(spill_dir=spill)
        entry, created = reborn.register_path(path)
        assert created is True
        assert entry.fingerprint != fp


class TestBatchJobs:
    def _queue(self, tmp_path, **kwargs):
        registry = DatasetRegistry()
        fp = registry.register_path(make_csv(tmp_path))[0].fingerprint
        cache = ResultCache()
        return JobQueue(registry, cache, workers=1, **kwargs), fp

    def test_batch_reports_bit_identical_to_singletons(self, tmp_path):
        import json as json_mod

        registry = DatasetRegistry()
        fp = registry.register_path(make_csv(tmp_path))[0].fingerprint
        specs = [
            {"operation": "analyze", "params": {"schema": "A,C;B,C"}},
            {"operation": "mine", "params": {"strategy": "beam"}},
            {"operation": "decompose", "params": {}},
        ]
        singleton_queue = JobQueue(registry, ResultCache(), workers=1)
        singles = []
        for spec in specs:
            job = singleton_queue.submit(fp, spec["operation"], dict(spec["params"]))
            assert job.wait(30)
            assert job.state == DONE
            singles.append(job.result)
        singleton_queue.shutdown()

        batch_queue = JobQueue(registry, ResultCache(), workers=1)
        batch = batch_queue.submit_batch(fp, specs)
        assert batch.wait(30)
        assert batch.state == DONE
        assert len(batch.items) == len(specs)
        # wall_time_s is the one legitimately nondeterministic field
        # when the runs are independent (separate caches); everything
        # else must agree bit-for-bit.
        volatile = ("cached", "wall_time_s")
        for single, item in zip(singles, batch.items):
            left = {k: v for k, v in single.items() if k not in volatile}
            right = {
                k: v for k, v in item.result.items() if k not in volatile
            }
            assert json_mod.dumps(left, sort_keys=True) == json_mod.dumps(
                right, sort_keys=True
            )
        batch_queue.shutdown()

    def test_fully_cached_batch_is_born_done(self, tmp_path):
        jobs, fp = self._queue(tmp_path)
        specs = [{"operation": "decompose", "params": {}}]
        first = jobs.submit_batch(fp, specs)
        assert first.wait(30) and first.state == DONE
        second = jobs.submit_batch(fp, specs)
        assert second.state == DONE  # no queue round-trip
        assert second.cached is True
        assert second.items[0].cached is True
        assert jobs.stats()["batch_item_cache_hits"] == 1
        jobs.shutdown()

    def test_duplicate_items_fill_from_cache_mid_batch(self, tmp_path):
        jobs, fp = self._queue(tmp_path)
        spec = {"operation": "analyze", "params": {"schema": "A,C;B,C"}}
        batch = jobs.submit_batch(fp, [spec, dict(spec)])
        assert batch.wait(30) and batch.state == DONE
        assert batch.items[0].cached is False
        assert batch.items[1].cached is True
        assert batch.items[0].result["rho"] == batch.items[1].result["rho"]
        jobs.shutdown()

    def test_item_failure_is_isolated(self, tmp_path):
        jobs, fp = self._queue(tmp_path)
        batch = jobs.submit_batch(
            fp,
            [
                {"operation": "analyze", "params": {"schema": "NOPE"}},
                {"operation": "decompose", "params": {}},
            ],
        )
        assert batch.wait(30)
        assert batch.state == DONE  # the batch ran; one item failed
        assert batch.items[0].state == FAILED
        assert batch.items[0].error
        assert batch.items[1].state == DONE
        # client errors never touch the breakers
        breakers = jobs.stats()["breakers"]
        assert all(b["consecutive_failures"] == 0 for b in breakers.values())
        jobs.shutdown()

    def test_all_items_failing_fails_the_batch(self, tmp_path):
        jobs, fp = self._queue(tmp_path)
        batch = jobs.submit_batch(
            fp, [{"operation": "analyze", "params": {"schema": "NOPE"}}]
        )
        assert batch.wait(30)
        assert batch.state == FAILED
        jobs.shutdown()

    def test_batch_validation(self, tmp_path):
        jobs, fp = self._queue(tmp_path)
        with pytest.raises(ServiceError):
            jobs.submit_batch(fp, [])
        with pytest.raises(ServiceError):
            jobs.submit_batch(fp, "not a list")
        with pytest.raises(ServiceError):
            jobs.submit_batch(fp, [{"operation": "mine", "bogus": 1}])
        with pytest.raises(ServiceError):
            jobs.submit_batch(fp, [{"operation": "nope"}])
        with pytest.raises(ServiceError):
            jobs.submit_batch(
                fp, [{"operation": "mine", "params": {"deadline": 5}}]
            )
        with pytest.raises(UnknownDatasetError):
            jobs.submit_batch("deadbeef", [{"operation": "mine"}])
        jobs.shutdown()

    def test_max_batch_ops_enforced(self, tmp_path):
        jobs, fp = self._queue(tmp_path, max_batch_ops=2)
        with pytest.raises(ServiceError):
            jobs.submit_batch(
                fp, [{"operation": "decompose"} for _ in range(3)]
            )
        jobs.shutdown()

    def test_idempotent_batch_replay(self, tmp_path):
        jobs, fp = self._queue(tmp_path)
        specs = [{"operation": "decompose", "params": {}}]
        first = jobs.submit_batch(fp, specs, idempotency_key="tok")
        again = jobs.submit_batch(fp, specs, idempotency_key="tok")
        assert again is first
        assert jobs.stats()["idempotent_replays"] == 1
        assert first.wait(30)
        jobs.shutdown()

    def test_batch_token_rejected_for_singleton(self, tmp_path):
        jobs, fp = self._queue(tmp_path)
        specs = [{"operation": "decompose", "params": {}}]
        batch = jobs.submit_batch(fp, specs, idempotency_key="tok")
        with pytest.raises(ServiceError, match="idempotency_key"):
            jobs.submit(fp, "decompose", {}, idempotency_key="tok")
        assert batch.wait(30)
        jobs.shutdown()

    def test_singleton_token_rejected_for_batch(self, tmp_path):
        jobs, fp = self._queue(tmp_path)
        single = jobs.submit(fp, "decompose", {}, idempotency_key="tok")
        with pytest.raises(ServiceError, match="idempotency_key"):
            jobs.submit_batch(
                fp,
                [{"operation": "decompose", "params": {}}],
                idempotency_key="tok",
            )
        assert single.wait(30)
        jobs.shutdown()

    def test_default_deadline_bounds_batches(self, tmp_path):
        registry = DatasetRegistry()
        fp = registry.register_path(make_csv(tmp_path))[0].fingerprint
        cache = ResultCache()
        jobs = JobQueue(registry, cache, workers=1, default_deadline_s=1e-6)
        try:
            batch = jobs.submit_batch(fp, [{"operation": "mine", "params": {}}])
            single = jobs.submit(fp, "mine", {})
            assert single.deadline_s == 1e-6
            assert batch.wait(30) and single.wait(30)
            item = batch.items[0]
            outcomes = [(item.state, item.result), (single.state, single.result)]
            for state, result in outcomes:
                assert state == TIMEOUT or (
                    state == DONE and result.get("partial") is True
                ), (state, result)
            assert len(cache) == 0  # neither outcome is cacheable
        finally:
            jobs.shutdown()

    def test_batch_counters_in_stats(self, tmp_path):
        jobs, fp = self._queue(tmp_path)
        batch = jobs.submit_batch(
            fp,
            [
                {"operation": "decompose", "params": {}},
                {"operation": "decompose", "params": {}},
            ],
        )
        assert batch.wait(30)
        stats = jobs.stats()
        assert stats["batches"] == 1
        assert stats["batch_items"] == 2
        assert stats["batch_item_cache_hits"] == 1  # the twin
        jobs.shutdown()
