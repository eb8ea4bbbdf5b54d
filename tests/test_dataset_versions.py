"""One dataset-version path: in-process and cluster appends agree.

The registry extends a dataset in process (``worker_procs=0``) and the
shard owner extends it in a worker process (``worker_procs >= 1``), both
through :func:`repro.service.registry.append_version`, and the front end
re-keys the entry the same way in both modes.  These tests drive both
modes over HTTP and require the same observable result.
"""

import json

import pytest

from repro.service import Service, ServiceClient, ServiceConfig

BASE_CSV = "A,B,C\n" + "".join(
    f"{a + 2 * c},{b},{c}\n" for c in (0, 1) for a in (0, 1) for b in (0, 1)
)
#: Extends the planted MVD, repeats a present row (a no-op), breaks the MVD.
DELTAS = [
    "A,B,C\n8,0,2\n8,1,2\n9,0,2\n9,1,2\n",
    "A,B,C\n8,0,2\n",
    "A,B,C\n0,0,1\n",
]
#: Dataset-view fields that count the front end's own materializations: a
#: cluster front end loads each appended version from the worker-written
#: snapshot to revalidate cached results, an in-process one built it.
PROCESS_LOCAL = ("reloads", "reload_source")


def _service(spill, worker_procs):
    return Service(
        ServiceConfig(
            port=0, workers=2, spill_dir=spill, worker_procs=worker_procs
        )
    )


def _without_wall_times(value):
    if isinstance(value, dict):
        return {
            key: _without_wall_times(item)
            for key, item in value.items()
            if key != "wall_time_s"
        }
    if isinstance(value, (list, tuple)):
        return [_without_wall_times(item) for item in value]
    return value


def _append_history(spill, worker_procs):
    """Register, mine, then append every delta, mining after each one."""
    with _service(spill, worker_procs) as running:
        client = ServiceClient(f"http://127.0.0.1:{running.port}")
        fp = client.register_dataset(csv=BASE_CSV, name="t")["fingerprint"]
        client.run(fp, "mine", {})
        history = []
        for delta in DELTAS:
            out = client.append_dataset(fp, csv=delta)
            for key in PROCESS_LOCAL:
                out["dataset"].pop(key)
            fp = out["fingerprint"]
            history.append((out, client.mine(fp)))
    return _without_wall_times(history)


def test_append_responses_and_reports_equal_across_modes(tmp_path):
    # One spill path for both runs, so spilled sources compare equal.
    spill = tmp_path / "spill"
    in_process = _append_history(spill, worker_procs=0)
    for path in sorted(spill.rglob("*"), reverse=True):
        path.unlink() if path.is_file() else path.rmdir()
    cluster = _append_history(spill, worker_procs=1)
    assert json.dumps(in_process, sort_keys=True) == json.dumps(
        cluster, sort_keys=True
    )
    changed = [out["changed"] for out, _ in in_process]
    assert changed == [True, False, True]
    assert set(in_process[0][0]) == {
        "fingerprint",
        "previous_fingerprint",
        "changed",
        "version",
        "chain",
        "rows_submitted",
        "rows_added",
        "n_rows",
        "revalidation",
        "dataset",
    }


@pytest.mark.parametrize("worker_procs", [0, 1])
def test_append_onto_registered_content_keeps_that_dataset(
    tmp_path, worker_procs
):
    spill = tmp_path / "spill"
    b_path = tmp_path / "b.csv"
    b_path.write_text("K,V\n1,x\n2,y\n3,z\n")
    with _service(spill, worker_procs) as running:
        client = ServiceClient(f"http://127.0.0.1:{running.port}")
        a = client.register_dataset(csv="K,V\n1,x\n2,y\n", name="a")
        b = client.register_dataset(path=str(b_path))
        b_meta = spill / f"snapshot-{b['fingerprint']}" / "meta.json"
        b_snapshot = b_meta.read_text()

        out = client.append_dataset(a["fingerprint"], csv="K,V\n3,z\n")

        # The append lands in B's entry, which keeps its source, version
        # and chain; A's fingerprint aliases to it.
        assert out["changed"] is True
        assert out["fingerprint"] == b["fingerprint"]
        assert out["version"] == 1 and out["chain"] == b["chain"]
        view = client.get_dataset(b["fingerprint"])
        assert view["source"] == str(b_path)
        assert view["version"] == 1 and view["chain"] == b["chain"]
        assert client.get_dataset(a["fingerprint"])["fingerprint"] == (
            b["fingerprint"]
        )
        assert client.stats()["registry"]["datasets"] == 1
        # B's snapshot is never rewritten with A's chain.
        assert b_meta.read_text() == b_snapshot
        report = client.mine(b["fingerprint"])
        assert report["n_rows"] == 3


def test_cluster_append_fails_when_its_snapshot_cannot_be_written(tmp_path):
    from repro.relations.io import read_csv
    from repro.service.client import ServiceClientError

    spill = tmp_path / "spill"
    concat = tmp_path / "concat.csv"
    concat.write_text(BASE_CSV + DELTAS[0].split("\n", 1)[1])
    # A plain file where the new version's snapshot directory must go.
    spill.mkdir()
    (spill / f"snapshot-{read_csv(concat).fingerprint()}").write_text("")
    with _service(spill, worker_procs=1) as running:
        client = ServiceClient(f"http://127.0.0.1:{running.port}")
        fp = client.register_dataset(csv=BASE_CSV, name="t")["fingerprint"]
        with pytest.raises(ServiceClientError) as excinfo:
            client.append_dataset(fp, csv=DELTAS[0])
        assert excinfo.value.code == "dataset_degraded"
        view = client.get_dataset(fp)
        assert view["fingerprint"] == fp and view["version"] == 1


@pytest.mark.parametrize("worker_procs", [0, 1])
def test_concurrent_appends_each_extend_the_latest_version(
    tmp_path, worker_procs
):
    import threading

    deltas = [f"A,B,C\n{10 + i},0,3\n" for i in range(6)]
    with _service(tmp_path / "spill", worker_procs) as running:
        client = ServiceClient(f"http://127.0.0.1:{running.port}")
        fp = client.register_dataset(csv=BASE_CSV, name="t")["fingerprint"]
        errors = []

        def append(delta):
            try:
                ServiceClient(
                    f"http://127.0.0.1:{running.port}"
                ).append_dataset(fp, csv=delta)
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=append, args=(delta,)) for delta in deltas
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # Every append extended the version the previous one produced:
        # no delta was lost and the chain holds one chunk per delta.
        view = client.get_dataset(fp)
        assert view["n_rows"] == 8 + len(deltas)
        assert view["version"] == 1 + len(deltas)
        assert len(view["chain"]["chunks"]) == len(deltas)
