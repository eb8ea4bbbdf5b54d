"""Service operations: the library's operation core plus what a server adds.

The compute behind a job — canonical parameters, mine / analyze /
decompose, the JSON report — is :mod:`repro.factorize.operations`, the
same core the CLI runs, so a service report equals the CLI's for the
same data and parameters.  This module re-exports it and adds only what
a long-lived server needs: the ``jobs.oom`` fault site, graceful
degradation of an exact mine that runs out of memory, and the
in-process executor the job queue runs on.
"""

from __future__ import annotations

from repro.errors import ServiceError
from repro.factorize import operations as core
from repro.factorize.operations import OPERATIONS, canonicalize_params
from repro.relations.relation import Relation
from repro.service.faults import DISABLED, FaultPlan

__all__ = ["OPERATIONS", "InProcessExecutor", "canonicalize_params", "run_operation"]


def run_operation(
    relation: Relation,
    operation: str,
    canonical: dict,
    *,
    deadline_at: float | None = None,
    faults: FaultPlan | None = None,
    timings=None,
) -> dict:
    """Execute one canonical operation; return its JSON report.

    :func:`repro.factorize.operations.run_operation` with graceful
    degradation: an operation that mines and exhausts memory on the
    exact backend (real, or injected via the ``jobs.oom`` fault site) is
    retried once on the bounded-memory sketch backend instead of failing
    the job, and the report is marked ``"degraded": true`` with a
    ``degradation_reason`` (the job layer never caches it).  A failing
    ``analyze`` or ``decompose`` with a given schema is never retried.
    ``deadline_at`` and ``timings`` are passed through to the core.
    """
    faults = faults if faults is not None else DISABLED
    mining = core.mines(operation, canonical)
    try:
        if mining:
            faults.check("jobs.oom")
        payload, _ = core.run_operation(
            relation,
            operation,
            canonical,
            deadline_at=deadline_at,
            timings=timings,
        )
        return payload
    except MemoryError as exc:
        if not mining:
            raise
        if canonical["backend"] != "exact":
            # Already on the bounded-memory backend: nothing cheaper to
            # fall back to, so surface a typed error instead of looping.
            raise ServiceError(
                f"mining ran out of memory on the "
                f"{canonical['backend']!r} backend: {exc}"
            ) from exc
        reason = (
            f"exact mine ran out of memory ({exc}); "
            "fell back to the sketch backend"
        )
    # The exact computation the caller asked for did not happen; the
    # report names the backend that actually ran and says so loudly.
    payload, _ = core.run_operation(
        relation,
        operation,
        {**canonical, "backend": "sketch"},
        deadline_at=deadline_at,
        timings=timings,
    )
    payload["degraded"] = True
    payload["degradation_reason"] = reason
    return payload


class InProcessExecutor:
    """Runs operations on the calling thread against the registry.

    The job queue's default executor: the dataset's resident relation
    (reloaded from snapshot or source if evicted), then
    :func:`run_operation`.  Its :meth:`execute` has the signature of
    :meth:`~repro.service.cluster.ClusterSupervisor.execute`, so the
    job queue makes one compute call whichever executor it holds.
    """

    def __init__(self, registry, faults: FaultPlan | None = None) -> None:
        self._registry = registry
        self._faults = faults if faults is not None else DISABLED

    def execute(
        self,
        fingerprint: str,
        operation: str,
        params: dict,
        *,
        deadline_at: float | None = None,
        trace: str | None = None,  # noqa: ARG002 - one process, one trace
        timings=None,
    ) -> dict:
        """Run one canonical operation on the dataset; return the report."""
        return run_operation(
            self._registry.relation(fingerprint),
            operation,
            params,
            deadline_at=deadline_at,
            faults=self._faults,
            timings=timings,
        )
