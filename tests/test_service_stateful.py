"""Stateful differential test: the service returns what the library returns.

A hypothesis state machine drives an in-process :class:`Service` (never
``start()``-ed, so no socket) through interleavings of register,
append, singleton and batch submissions (with and without deadlines),
warm restarts on the same spill directory, and injected worker-thread
crashes, under a memory budget so small that every dataset load evicts
the others.  Every job must finish, and every outcome must be one the
library can vouch for:

* a ``done`` item whose report is complete equals
  :func:`~repro.service.operations.run_operation` on the concatenated
  CSV (ingested the way the registry ingests a path), minus the
  volatile ``cached`` / ``wall_time_s`` fields and with floats compared
  to 1e-9;
* a ``revalidated`` mine report (a cached jointree carried across an
  append) has the ``j_measure`` / ``rho`` that
  :func:`~repro.core.analysis.analyze` gives its bags on that relation;
* anything else is ``failed`` with an ``error``, or ``timeout``.

A job queued before an append may run on the appended content (its
fingerprint resolves to the live version), so each outcome is checked
against every version of its dataset from the one it was submitted on.
"""

import math
import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    rule,
)

from repro.core.analysis import analyze
from repro.errors import CircuitOpenError
from repro.jointrees.build import jointree_from_schema
from repro.relations.io import infer_integer_domains, read_csv
from repro.service import Service, ServiceConfig
from repro.service.dispatch import DispatchError, WorkerCrashedError
from repro.service.faults import FaultPlan
from repro.service.jobs import DONE, FAILED, TIMEOUT
from repro.service.operations import canonicalize_params, run_operation

#: Two small tables.  Small integer domains keep mining in the
#: millisecond range and make appended rows collide with old ones; a few
#: dozen rows keep a small slab's effect on J within the revalidation
#: tolerance often enough to exercise it.
TABLES = {
    "abc": ("A,B,C", [(a, b, a % 2) for a in range(6) for b in range(6)]),
    "abcd": (
        "A,B,C,D",
        [(a, b, (a + b) % 2, b % 2) for a in range(4) for b in range(4)],
    ),
}

#: Operations each table can be asked for; the analyze schemas cover it.
OPERATIONS = {
    "abc": [
        ("mine", {}),
        ("mine", {"strategy": "beam"}),
        ("analyze", {"schema": "A,C;B,C"}),
        ("decompose", {}),
    ],
    "abcd": [
        ("mine", {}),
        ("analyze", {"schema": "A,B;B,C;C,D"}),
        ("decompose", {"schema": "A,B,C;B,D"}),
    ],
}

#: Volatile report fields: cache provenance and timing.
VOLATILE = ("cached", "wall_time_s")

JOB_TIMEOUT_S = 30.0


def _same(got, want) -> bool:
    """Equal reports, floats to 1e-9: an appended relation's codes sum in
    a different order than a fresh ingest's, which moves the last ulp."""
    if isinstance(want, float):
        return isinstance(got, float) and math.isclose(
            got, want, rel_tol=1e-9, abs_tol=1e-12
        )
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(_same(got[k], want[k]) for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_same(g, w) for g, w in zip(got, want))
        )
    return got == want


def _csv_text(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)


class ServiceMachine(RuleBasedStateMachine):
    #: Worker subprocesses behind the front end (0: in-process compute).
    worker_procs = 0

    def __init__(self) -> None:
        super().__init__()
        self.workdir = Path(tempfile.mkdtemp(prefix="stateful-service-"))
        self.config = ServiceConfig(
            port=0,
            memory_budget_bytes=1,  # every load evicts the others
            spill_dir=self.workdir / "spill",
            telemetry=False,
            worker_procs=self.worker_procs,
        )
        self.service = Service(self.config)
        #: table → list of (fingerprint, rows) versions, oldest first.
        self.versions: dict[str, list] = {}
        #: (job, table, [(operation, params)] per item, index of the
        #: dataset version the job was submitted on).
        self.jobs: list = []
        self._oracle_cache: dict = {}

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @initialize(table=st.sampled_from(sorted(TABLES)))
    def first_register(self, table):
        self.register(table)

    @rule(table=st.sampled_from(sorted(TABLES)))
    def register(self, table):
        header, rows = TABLES[table]
        entry, _ = self.service.registry.register_text(
            _csv_text(header, rows), name=table
        )
        if table not in self.versions:
            self.versions[table] = [(entry.fingerprint, list(rows))]

    @rule(
        data=st.data(),
        values=st.lists(
            st.tuples(*[st.integers(0, 3)] * 4), min_size=1, max_size=3
        ),
    )
    def append(self, data, values):
        table = data.draw(st.sampled_from(sorted(self.versions)))
        header, _ = TABLES[table]
        width = len(header.split(","))
        slab = [row[:width] for row in values]
        fingerprint, rows = self.versions[table][-1]
        try:
            view = self.service.append(
                fingerprint, {"csv": _csv_text(header, slab)}
            )
        except (WorkerCrashedError, DispatchError):
            # The owning worker process died under the append (cluster
            # profile): typed, and nothing was adopted.
            return
        if view["fingerprint"] != fingerprint:
            self.versions[table].append((view["fingerprint"], rows + slab))

    @rule(data=st.data(), deadline=st.sampled_from([None, 1e-4, 30.0]))
    def submit(self, data, deadline):
        table = data.draw(st.sampled_from(sorted(self.versions)))
        operation, params = data.draw(st.sampled_from(OPERATIONS[table]))
        params = dict(params)
        if deadline is not None:
            params["deadline"] = deadline
        try:
            job = self.service.jobs.submit(
                self.versions[table][-1][0], operation, params
            )
        except CircuitOpenError:
            return  # crashes tripped the breaker: a typed refusal
        params.pop("deadline", None)
        self._track(job, table, [(operation, params)])

    @rule(data=st.data(), size=st.integers(1, 3))
    def submit_batch(self, data, size):
        table = data.draw(st.sampled_from(sorted(self.versions)))
        specs = [
            data.draw(st.sampled_from(OPERATIONS[table])) for _ in range(size)
        ]
        try:
            job = self.service.jobs.submit_batch(
                self.versions[table][-1][0],
                [{"operation": op, "params": dict(p)} for op, p in specs],
            )
        except CircuitOpenError:
            return
        self._track(job, table, specs)

    @rule()
    def restart(self):
        """Warm restart: a new service on the same spill directory."""
        self.service.stop()
        self.service = Service(self.config)

    @rule(site=st.sampled_from(["jobs.worker_crash", "jobs.slow"]))
    def arm_fault(self, site):
        """The next job a worker claims kills its thread, or stalls long
        enough for the following rules to interleave with it."""
        self.service.jobs._faults = FaultPlan(
            {"rules": [{"site": site, "times": 1, "delay_s": 0.05}]}
        )

    @rule()
    def settle(self):
        self._check_jobs()

    def teardown(self):
        try:
            self._check_jobs()
        finally:
            self.service.stop()
            shutil.rmtree(self.workdir, ignore_errors=True)

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def _track(self, job, table, specs) -> None:
        self.jobs.append((job, table, specs, len(self.versions[table]) - 1))

    def _check_jobs(self) -> None:
        jobs, self.jobs = self.jobs, []
        for job, table, specs, first_version in jobs:
            assert job.wait(JOB_TIMEOUT_S), f"{job.id} never finished"
            assert len(job.items) == len(specs)
            versions = self.versions[table][first_version:]
            for item, (operation, params) in zip(job.items, specs):
                self._check_item(item, table, operation, params, versions)

    def _check_item(self, item, table, operation, params, versions) -> None:
        if item.state != DONE:
            event(f"item {item.state}")
            assert item.state in (FAILED, TIMEOUT), item.describe()
            assert item.error, item.describe()
            # A crash, shutdown, or deadline — never a service bug.
            assert not item.error.startswith("internal error"), item.error
            return
        report = item.result
        if report.get("partial"):
            event("item partial")
            return  # a deadline cut the search short: nothing to compare
        assert not report.get("degraded"), report
        if report.get("revalidated"):
            event("item revalidated")
            assert operation == "mine"
            tree = jointree_from_schema([set(bag) for bag in report["bags"]])
            assert any(
                _same(
                    [analysis.j_entropy, analysis.rho],
                    [report["j_measure"], report["rho"]],
                )
                for analysis in (
                    analyze(self._relation(table, rows), tree)
                    for _, rows in versions
                )
            ), report
            return
        event("item cached" if item.cached else "item computed")
        got = {k: v for k, v in report.items() if k not in VOLATILE}
        expected = [
            self._expected(table, rows, operation, params)
            for _, rows in versions
        ]
        assert any(_same(got, want) for want in expected), (got, expected)

    def _relation(self, table, rows):
        key = (table, tuple(rows))
        if key not in self._oracle_cache:
            path = self.workdir / f"oracle-{len(self._oracle_cache)}.csv"
            path.write_text(_csv_text(TABLES[table][0], rows))
            self._oracle_cache[key] = infer_integer_domains(read_csv(path))
        return self._oracle_cache[key]

    def _expected(self, table, rows, operation, params) -> dict:
        report = run_operation(
            self._relation(table, rows),
            operation,
            canonicalize_params(operation, dict(params)),
        )
        return {k: v for k, v in report.items() if k not in VOLATILE}


class ClusterServiceMachine(ServiceMachine):
    """The same machine with compute on two worker processes, whose
    injected fault kills the worker process that owns the job."""

    worker_procs = 2

    @rule(site=st.sampled_from(["jobs.worker_crash", "cluster.worker_exit"]))
    def arm_fault(self, site):
        plan = FaultPlan({"rules": [{"site": site, "times": 1}]})
        if site == "cluster.worker_exit":
            self.service.cluster._faults = plan
        else:
            self.service.jobs._faults = plan


ServiceMachine.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServiceStateful = ServiceMachine.TestCase

# Every cluster boot spawns two interpreters, so this profile runs few,
# short examples.
ClusterServiceMachine.TestCase.settings = settings(
    max_examples=4,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestClusterServiceStateful = ClusterServiceMachine.TestCase
