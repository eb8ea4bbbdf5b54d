"""End-to-end tests over HTTP: live server, real client, concurrency."""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.core.random_relations import random_relation
from repro.errors import ServiceError
from repro.factorize.report import validate_report
from repro.relations.io import write_csv
from repro.service import Service, ServiceClient, ServiceConfig
from repro.service.client import ServiceClientError


def make_csv(tmp_path, name="table.csv", n_classes=2):
    path = tmp_path / name
    lines = ["A,B,C"]
    for c in range(n_classes):
        for a in (0, 1):
            for b in (0, 1):
                lines.append(f"{a + 2 * c},{b},{c}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def service(tmp_path):
    config = ServiceConfig(
        port=0, workers=2, spill_dir=tmp_path / "spill", max_queue=256
    )
    with Service(config) as running:
        yield running


@pytest.fixture()
def client(service):
    return ServiceClient(f"http://127.0.0.1:{service.port}")


class TestDatasetEndpoints:
    def test_register_by_path_then_get(self, client, tmp_path):
        dataset = client.register_dataset(path=str(make_csv(tmp_path)))
        assert dataset["created"] is True
        assert dataset["n_rows"] == 8 and dataset["n_cols"] == 3
        assert dataset["attributes"] == ["A", "B", "C"]
        fetched = client.get_dataset(dataset["fingerprint"])
        assert fetched["fingerprint"] == dataset["fingerprint"]
        assert fetched["resident"] is True

    def test_register_inline_csv(self, client):
        dataset = client.register_dataset(csv="A,B\n1,2\n3,4\n", name="tiny")
        assert dataset["created"] is True and dataset["n_rows"] == 2
        assert client.list_datasets()[-1]["fingerprint"] == dataset["fingerprint"]

    def test_duplicate_registration_not_created(self, client, tmp_path):
        path = str(make_csv(tmp_path))
        first = client.register_dataset(path=path)
        second = client.register_dataset(path=path, chunk_rows=2)
        assert first["created"] is True and second["created"] is False
        assert first["fingerprint"] == second["fingerprint"]

    def test_unknown_dataset_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.get_dataset("deadbeef")
        assert excinfo.value.status == 404

    def test_bad_register_body_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.register_dataset()  # neither path nor csv
        assert excinfo.value.status == 400
        with pytest.raises(ServiceClientError) as excinfo:
            client.register_dataset(path="/nonexistent/nope.csv")
        assert excinfo.value.status == 400

    def test_unparseable_json_400(self, client, service):
        request = urllib.request.Request(
            f"http://127.0.0.1:{service.port}/v1/datasets",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_bad_content_length_400(self, client, service):
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", service.port)
        try:
            connection.putrequest(
                "POST", "/v1/datasets", skip_accept_encoding=True
            )
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            envelope = json.loads(response.read())["error"]
            assert envelope["code"] == "bad_request"
            assert "Content-Length" in envelope["message"]
        finally:
            connection.close()

    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/frobnicate")
        assert excinfo.value.status == 404

    def test_workers_job_param_is_bad_request(self, client, service, tmp_path):
        fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
        request = urllib.request.Request(
            f"http://127.0.0.1:{service.port}/v1/jobs",
            data=json.dumps(
                {"fingerprint": fp, "operation": "mine", "params": {"workers": 2}}
            ).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        envelope = json.loads(excinfo.value.read())["error"]
        assert envelope["code"] == "bad_request"
        assert envelope["retryable"] is False
        assert "unknown parameter" in envelope["message"]
        assert "workers" in envelope["message"]


class TestJobEndpoints:
    def test_mine_decompose_analyze_end_to_end(self, client, tmp_path):
        fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
        mine = client.mine(fp, strategy="beam")
        validate_report(mine)
        assert ["A", "C"] in mine["bags"] and mine["rho"] == 0.0
        decompose = client.decompose(fp)
        validate_report(decompose)
        assert decompose["lossless"] is True
        analyze = client.analyze(fp, "A,C;B,C")
        validate_report(analyze)
        assert analyze["rho"] == 0.0

    def test_job_lifecycle_views(self, client, tmp_path):
        fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
        job = client.submit_job(fp, "mine", {"strategy": "beam"})
        assert job["state"] in ("queued", "running", "done")
        final = client.wait_job(job["job_id"])
        assert final["state"] == "done"
        assert final["cached"] is False
        assert final["params"]["strategy"] == "beam"
        validate_report(final["result"])

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.get_job("job-999999")
        assert excinfo.value.status == 404

    def test_bad_params_400(self, client, tmp_path):
        fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
        for operation, params in [
            ("mine", {"strategy": "quantum"}),
            ("mine", {"frobnicate": 1}),
            ("transmogrify", {}),
            ("analyze", {}),
        ]:
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit_job(fp, operation, params)
            assert excinfo.value.status == 400

    def test_failed_job_is_reported_not_500(self, client, tmp_path):
        fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
        view = client.run(fp, "analyze", {"schema": "A,B;B,C;A,C"})  # cyclic
        assert view["state"] == "failed"
        assert "cyclic" in view["error"]

    def test_warm_repeat_is_a_cache_hit_10x_faster(self, client, tmp_path):
        """The acceptance scenario: cold compute, warm repeat from cache."""
        rng = np.random.default_rng(17)
        relation = random_relation({n: 16 for n in "ABCDE"}, 20_000, rng)
        path = tmp_path / "big.csv"
        write_csv(relation, path)
        fp = client.register_dataset(path=str(path))["fingerprint"]

        cold = client.run(fp, "mine", {"strategy": "beam"})
        assert cold["state"] == "done" and cold["cached"] is False
        validate_report(cold["result"])

        warm = client.run(fp, "mine", {"strategy": "beam"})
        assert warm["state"] == "done" and warm["cached"] is True
        assert warm["result"]["cached"] is True
        clean = dict(warm["result"])
        clean.pop("cached")
        assert clean == cold["result"]  # bit-identical report

        # Server-side service time: submission to completion.  The warm
        # request never touches a worker, so this is where the cache's
        # >=10x shows up robustly even on a noisy CI box.
        assert cold["service_time_s"] >= 10 * warm["service_time_s"], (
            cold["service_time_s"],
            warm["service_time_s"],
        )

    def test_concurrent_clients_share_cache_bit_identically(
        self, client, service, tmp_path
    ):
        fp = client.register_dataset(path=str(make_csv(tmp_path, n_classes=4)))[
            "fingerprint"
        ]
        results: list = []
        errors: list = []

        def hammer():
            try:
                own = ServiceClient(f"http://127.0.0.1:{service.port}")
                for _ in range(3):
                    results.append(json.dumps(own.mine(fp), sort_keys=True))
                    results.append(
                        json.dumps(own.analyze(fp, "A,C;B,C"), sort_keys=True)
                    )
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(results) == 8 * 3 * 2
        # Bit-identical per operation (modulo the cached marker).
        distinct = {
            json.dumps(
                {k: v for k, v in json.loads(r).items() if k != "cached"},
                sort_keys=True,
            )
            for r in results
        }
        assert len(distinct) == 2  # one mine report + one analyze report
        stats = client.stats()
        assert stats["cache"]["hits"] > 0
        assert stats["cache"]["hit_rate"] > 0.5
        assert stats["jobs"]["states"]["failed"] == 0

    def test_backpressure_maps_to_503(self, tmp_path):
        config = ServiceConfig(port=0, workers=1, max_queue=1)
        with Service(config) as service:
            # retries=0: the point is the 503 itself, not riding it out.
            client = ServiceClient(
                f"http://127.0.0.1:{service.port}", retries=0
            )
            fp = client.register_dataset(path=str(make_csv(tmp_path)))[
                "fingerprint"
            ]
            gate = threading.Event()
            original = service.registry.relation

            def slow_relation(fingerprint):
                gate.wait(5)
                return original(fingerprint)

            service.registry.relation = slow_relation
            try:
                client.submit_job(fp, "mine", {"seed": 1})
                import time as _time

                _time.sleep(0.1)  # let the worker claim the first job
                client.submit_job(fp, "mine", {"seed": 2})
                with pytest.raises(ServiceClientError) as excinfo:
                    client.submit_job(fp, "mine", {"seed": 3})
                assert excinfo.value.status == 503
            finally:
                service.registry.relation = original
                gate.set()


class TestIntrospectionEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0

    def test_stats_shape(self, client, tmp_path):
        fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
        client.mine(fp)
        client.mine(fp)
        stats = client.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["hit_rate"] == 0.5
        assert stats["registry"]["datasets"] == 1
        assert stats["registry"]["resident_bytes"] > 0
        assert stats["jobs"]["workers"] == 2
        assert stats["jobs"]["completed_total"]["done"] == 2
        assert fp in stats["registry"]["engines"]

    def test_spill_keeps_restart_warm(self, tmp_path):
        spill = tmp_path / "spill"
        path = make_csv(tmp_path)
        with Service(ServiceConfig(port=0, spill_dir=spill)) as first:
            client = ServiceClient(f"http://127.0.0.1:{first.port}")
            fp = client.register_dataset(path=str(path))["fingerprint"]
            cold = client.mine(fp)
        with Service(ServiceConfig(port=0, spill_dir=spill)) as second:
            client = ServiceClient(f"http://127.0.0.1:{second.port}")
            assert client.register_dataset(path=str(path))["fingerprint"] == fp
            warm_view = client.run(fp, "mine", {})
            assert warm_view["cached"] is True  # served from the disk spill
            clean = dict(warm_view["result"])
            clean.pop("cached")
            assert clean == cold
            assert client.stats()["cache"]["spill_loads"] == 1


class TestClientErrors:
    def test_unreachable_server(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5, retries=0)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()


class TestBatchEndpoint:
    def test_batch_over_http_matches_singletons(self, client, tmp_path):
        fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
        specs = [
            {"operation": "analyze", "params": {"schema": "A,C;B,C"}},
            {"operation": "mine", "params": {"strategy": "beam"}},
            {"operation": "decompose", "params": {}},
        ]
        singles = [
            client.run(fp, s["operation"], dict(s["params"]))["result"]
            for s in specs
        ]
        reports = client.batch_reports(fp, specs)
        assert len(reports) == 3
        for single, batched in zip(singles, reports):
            left = {k: v for k, v in single.items() if k != "cached"}
            right = {k: v for k, v in batched.items() if k != "cached"}
            assert left == right

    def test_fully_cached_batch_returns_200_immediately(self, client, tmp_path):
        fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
        specs = [{"operation": "decompose", "params": {}}]
        first = client.run_batch(fp, specs)
        assert first["state"] == "done"
        # all items cached now: the submit response is already done (200)
        second = client.submit_batch(fp, specs)
        assert second["state"] == "done"
        assert second["cached"] is True
        assert second["n_cached"] == 1

    def test_batch_fewer_dispatch_round_trips_than_singletons(
        self, client, service, tmp_path
    ):
        fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
        specs = [
            {"operation": "analyze", "params": {"schema": f"A,C;B,C" if i % 2 else "A,B;B,C"}}
            for i in range(6)
        ]
        client.run_batch(fp, specs)
        stats = client.stats()["jobs"]
        # 6 operations entered the service as ONE queue unit
        assert stats["batches"] == 1
        assert stats["batch_items"] == 6
        assert stats["completed_total"]["done"] == 1

    def test_idempotency_token_cannot_cross_job_kinds(self, client, tmp_path):
        fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
        client.submit_batch(
            fp, [{"operation": "decompose"}], idempotency_key="shared-tok"
        )
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit_job(fp, "decompose", idempotency_key="shared-tok")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"

    def test_batch_validation_maps_to_400(self, client, tmp_path):
        fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit_batch(fp, [])
        assert excinfo.value.status == 400
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit_batch(
                fp, [{"operation": "mine", "params": {"deadline": 5}}]
            )
        assert excinfo.value.status == 400
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit_batch("ffffffffffffffffffffffffffffffff", [{"operation": "mine"}])
        assert excinfo.value.status == 404

    def test_item_failure_isolated_over_http(self, client, tmp_path):
        fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
        view = client.run_batch(
            fp,
            [
                {"operation": "analyze", "params": {"schema": "NOPE"}},
                {"operation": "decompose", "params": {}},
            ],
        )
        assert view["state"] == "done"
        assert view["n_failed"] == 1
        assert view["items"][0]["state"] == "failed"
        assert view["items"][1]["state"] == "done"
        with pytest.raises(ServiceError, match="item 0"):
            client.batch_reports(
                fp,
                [
                    {"operation": "analyze", "params": {"schema": "NOPE"}},
                    {"operation": "decompose", "params": {}},
                ],
            )


class TestSnapshotRestart:
    def test_restart_reloads_datasets_from_snapshots(self, tmp_path):
        spill = tmp_path / "spill"
        path = make_csv(tmp_path)
        with Service(ServiceConfig(port=0, spill_dir=spill)) as first:
            client = ServiceClient(f"http://127.0.0.1:{first.port}")
            fp = client.register_dataset(path=str(path))["fingerprint"]
            cold = client.mine(fp)
        # The restarted service knows the dataset before any client
        # re-registers it, and reloads it from the snapshot (no CSV parse).
        with Service(ServiceConfig(port=0, spill_dir=spill)) as second:
            client = ServiceClient(f"http://127.0.0.1:{second.port}")
            listed = client.list_datasets()
            assert [d["fingerprint"] for d in listed] == [fp]
            assert listed[0]["snapshot"] is True
            # mine is answered from the spilled result cache without
            # touching the relation at all...
            report = client.run(fp, "mine", {})["result"]
            clean = dict(report)
            clean.pop("cached", None)
            assert clean == cold
            assert client.stats()["registry"]["snapshot_reloads"] == 0
            # ...while a fresh operation forces the reload, which comes
            # from the snapshot, not the CSV.
            client.analyze(fp, "A,C;B,C")
            stats = client.stats()["registry"]
            assert stats["restored_from_snapshot"] == 1
            assert stats["snapshot_reloads"] == 1
            assert stats["csv_reloads"] == 0
            view = client.get_dataset(fp)
            assert view["reload_source"] == "snapshot"


class TestObservabilityHTTP:
    """Tracing headers, request ids, and the /v1/metrics exposition."""

    @staticmethod
    def _raw_get(service, path, headers=None):
        request = urllib.request.Request(
            f"http://127.0.0.1:{service.port}{path}", headers=headers or {}
        )
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), response.read()

    def test_every_response_carries_a_fresh_request_id(
        self, client, service, tmp_path
    ):
        fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
        seen = set()
        for path in ("/v1/healthz", "/v1/stats", f"/v1/datasets/{fp}", "/v1/metrics"):
            _, headers, _ = self._raw_get(service, path)
            request_id = headers.get("X-Request-Id")
            assert request_id, f"no X-Request-Id on {path}"
            assert set(request_id) <= set("0123456789abcdef")
            seen.add(request_id)
        assert len(seen) == 4  # ids are per-request, not per-connection

    def test_client_echoes_request_id_into_raised_errors(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.get_dataset("deadbeef")
        assert excinfo.value.status == 404
        assert excinfo.value.request_id
        assert set(excinfo.value.request_id) <= set("0123456789abcdef")

    def test_valid_trace_header_is_echoed_lowercased(self, service):
        _, headers, _ = self._raw_get(
            service, "/v1/healthz", {"X-Trace-Id": "ABC-123"}
        )
        assert headers["X-Trace-Id"] == "abc-123"

    def test_garbage_trace_header_gets_a_fresh_trace(self, service):
        _, headers, _ = self._raw_get(
            service, "/v1/healthz", {"X-Trace-Id": "not a trace!!"}
        )
        got = headers["X-Trace-Id"]
        assert got != "not a trace!!"
        assert len(got) == 16 and set(got) <= set("0123456789abcdef")

    def test_finished_job_get_carries_server_timing(
        self, client, service, tmp_path
    ):
        fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
        job_id = client.submit_job(fp, "mine", {})["job_id"]
        client.wait_job(job_id)
        _, headers, _ = self._raw_get(service, f"/v1/jobs/{job_id}")
        timing = headers.get("Server-Timing")
        assert timing and "dur=" in timing
        names = {part.split(";", 1)[0].strip() for part in timing.split(",")}
        assert "run" in names  # the executor stage is always timed

    def test_metrics_exposition_parses_and_carries_migrated_counters(
        self, client, tmp_path
    ):
        from test_telemetry import parse_prometheus

        fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
        client.mine(fp)
        client.mine(fp)  # second one is a cache hit
        families = parse_prometheus(client.metrics_text())

        def value(metric):
            return sum(v for _, _, v in families[metric]["samples"])

        assert families["cache_hits_total"]["type"] == "counter"
        assert value("cache_hits_total") >= 1
        assert value("cache_misses_total") >= 1
        assert value("jobs_completed_total") >= 2
        assert value("registry_appends_total") == 0
        # The request histogram labels by route *pattern*, never raw path.
        http = families["http_request_seconds"]
        assert http["type"] == "histogram"
        routes = {
            labels.get("route")
            for name, labels, _ in http["samples"]
            if name.endswith("_bucket")
        }
        assert "jobs/{job_id}" in routes
        assert not any(route and "job-" in route for route in routes)

    def test_stats_reports_telemetry_summary(self, client, tmp_path):
        fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
        client.mine(fp)
        metrics = client.stats()["metrics"]
        assert metrics["enabled"] is True
        assert metrics["request_latency"]["count"] >= 2
        assert metrics["log"]["lines"] >= 1
        assert metrics["log"]["dropped"] == 0


def _requests_seen(service, method, route):
    """Requests the server observed on one route (any status)."""
    return sum(
        series["count"]
        for series in service.telemetry.http_latency.series()
        if series["labels"][:2] == [method, route]
    )


def _settled_count(service, method, route, at_least):
    """The route's request count once the server has observed at least
    ``at_least`` (a request is observed just after its reply is sent)."""
    deadline = time.monotonic() + 5
    while _requests_seen(service, method, route) < at_least:
        assert time.monotonic() < deadline, "requests never observed"
        time.sleep(0.005)
    time.sleep(0.05)  # room for a stray extra request to land
    return _requests_seen(service, method, route)


def _slow_service(tmp_path, delay_s, **config_kwargs):
    """A service whose next job sleeps ``delay_s`` before computing."""
    plan = {"seed": 1, "rules": [{"site": "jobs.slow", "delay_s": delay_s, "times": 1}]}
    return Service(
        ServiceConfig(
            port=0, spill_dir=tmp_path / "slow-spill", fault_plan=plan, **config_kwargs
        )
    )


class TestJobLongPoll:
    """``GET /v1/jobs/{id}?wait_s=`` and the client's long-poll wait."""

    def test_uncached_run_makes_two_requests(self, tmp_path):
        # jobs.slow holds the job past its submit, so the client must wait.
        with _slow_service(tmp_path, 0.3) as service:
            client = ServiceClient(f"http://127.0.0.1:{service.port}")
            fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
            view = client.run(fp, "mine", {"seed": 11})
            assert view["state"] == "done" and view["cached"] is False
            assert _settled_count(service, "POST", "jobs", 1) == 1
            assert _settled_count(service, "GET", "jobs/{job_id}", 1) == 1

    def test_long_poll_returns_promptly_when_the_job_finishes(self, tmp_path):
        with _slow_service(tmp_path, 0.4) as service:
            client = ServiceClient(f"http://127.0.0.1:{service.port}")
            fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
            job_id = client.submit_job(fp, "mine", {})["job_id"]
            started = time.monotonic()
            view = client._request("GET", f"/v1/jobs/{job_id}?wait_s=5")
            returned = time.monotonic()
            assert view["state"] == "done"
            finished_at = service.jobs.get(job_id).finished_at
            assert returned - started >= 0.3  # it really waited
            assert returned - finished_at < 0.05
            waits = service.telemetry.job_waits
            assert waits.value("finished") == 1 and waits.value("expired") == 0

    def test_wait_is_held_only_to_the_cap(self, tmp_path, monkeypatch):
        import repro.service.http as http_module

        monkeypatch.setattr(http_module, "MAX_JOB_WAIT_S", 0.2)
        with _slow_service(tmp_path, 1.5) as service:
            client = ServiceClient(f"http://127.0.0.1:{service.port}")
            fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
            job_id = client.submit_job(fp, "mine", {})["job_id"]
            started = time.monotonic()
            view = client._request("GET", f"/v1/jobs/{job_id}?wait_s=1e9")
            elapsed = time.monotonic() - started
            assert view["state"] in ("queued", "running")
            assert 0.15 <= elapsed < 1.0
            assert service.telemetry.job_waits.value("expired") == 1
            # The client's loop rides the capped polls to the finish.
            assert client.wait_job(job_id)["state"] == "done"

    @pytest.mark.parametrize(
        "query",
        [
            "wait_s=abc",
            "wait_s=-1",
            "wait_s=nan",
            "wait_s=inf",
            "wait_s=",
            "wait_s=1&wait_s=2",
        ],
    )
    def test_bad_wait_s_is_a_400_envelope(self, client, service, tmp_path, query):
        fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
        job_id = client.submit_job(fp, "mine", {})["job_id"]
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", f"/v1/jobs/{job_id}?{query}")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        assert "wait_s" in str(excinfo.value)

    def test_get_without_wait_s_is_immediate(self, tmp_path):
        with _slow_service(tmp_path, 1.0) as service:
            client = ServiceClient(f"http://127.0.0.1:{service.port}")
            fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
            job_id = client.submit_job(fp, "mine", {})["job_id"]
            started = time.monotonic()
            view = client.get_job(job_id)
            assert time.monotonic() - started < 0.5
            assert view["state"] in ("queued", "running")
            assert client.wait_job(job_id)["state"] == "done"

    def test_stop_answers_a_long_poll_on_a_running_job(self, tmp_path):
        service = _slow_service(tmp_path, 1.5).start()
        stopper = threading.Thread(target=service.stop)
        try:
            client = ServiceClient(f"http://127.0.0.1:{service.port}", retries=0)
            fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
            job_id = client.submit_job(fp, "mine", {})["job_id"]
            job = service.jobs.get(job_id)
            replies: list = []
            def long_poll():
                view = client._request("GET", f"/v1/jobs/{job_id}?wait_s=5")
                replies.append((view, time.monotonic()))

            poller = threading.Thread(target=long_poll)
            poller.start()
            deadline = time.monotonic() + 5
            while job.state != "running" or job.wake is None:
                assert time.monotonic() < deadline, "long poll never started waiting"
                time.sleep(0.005)
            stop_called = time.monotonic()
            stopper.start()
            poller.join(timeout=5)
            assert replies, "the long poll was not answered"
            view, answered = replies[0]
            assert answered - stop_called < 0.5
            assert view["state"] == "running"
            assert service.telemetry.job_waits.value("shutdown") == 1
        finally:
            if stopper.ident is None:
                stopper.start()
            stopper.join(timeout=10)

    def test_wait_job_still_accepts_poll_s(self, client, tmp_path):
        fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
        job_id = client.submit_job(fp, "mine", {"seed": 4})["job_id"]
        view = client.wait_job(job_id, poll_s=0.001, poll_cap_s=0.01)
        assert view["state"] == "done"
        validate_report(view["result"])

    def test_request_log_carries_waited_s(self, tmp_path):
        log_path = tmp_path / "requests.jsonl"
        with _slow_service(tmp_path, 0.2, request_log_path=str(log_path)) as service:
            client = ServiceClient(f"http://127.0.0.1:{service.port}")
            fp = client.register_dataset(path=str(make_csv(tmp_path)))["fingerprint"]
            job_id = client.submit_job(fp, "mine", {})["job_id"]
            client.wait_job(job_id)
            client.get_job(job_id)
        lines = [json.loads(line) for line in log_path.read_text().splitlines()]
        gets = [
            line
            for line in lines
            if line.get("kind") == "request" and line.get("route") == "jobs/{job_id}"
        ]
        assert len(gets) == 2
        waited = [line for line in gets if "waited_s" in line]
        assert len(waited) == 1  # only the long poll carries it
        assert waited[0]["waited_s"] >= 0.1
