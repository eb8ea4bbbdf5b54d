"""Service operations: canonical parameters + the compute behind jobs.

One module owns the mapping from an HTTP job request — ``operation`` +
free-form ``params`` — to the JSON report the CLI would have produced
for the same work, so the service's responses validate against the same
shared schema (:func:`repro.factorize.report.validate_report`) and can
be consumed by the same tooling.

``canonicalize_params`` is what makes the result cache effective: it
fills every omitted knob with its default, rejects unknown keys, drops
the execution-only ``deadline``, and rewrites ``schema`` into one
canonical text, so all spellings of the same computation share one
cache key.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from repro.core.analysis import analyze
from repro.core.evalcontext import EvalContext
from repro.discovery.miner import mine_jointree
from repro.discovery.strategies import available_strategies
from repro.errors import ServiceError
from repro.factorize.pipeline import decompose
from repro.factorize.report import base_report
from repro.info.backends import available_backends, make_backend
from repro.info.engine import EntropyEngine
from repro.jointrees.build import jointree_from_schema
from repro.relations.relation import Relation
from repro.service.faults import DISABLED, FaultPlan

OPERATIONS = ("mine", "analyze", "decompose")

#: Result-shaping defaults per operation.  ``None`` marks "no value";
#: ``schema`` is required for analyze, optional for decompose (mining
#: runs when absent), and meaningless for mine.
_COMMON_DEFAULTS: dict[str, object] = {
    "backend": "exact",
    "chunk_rows": None,
}
_MINING_DEFAULTS: dict[str, object] = {
    "strategy": "recursive",
    "threshold": 1e-9,
    "max_separator": 2,
    "seed": 0,
}
_PARAM_DEFAULTS: dict[str, dict[str, object]] = {
    "mine": {**_COMMON_DEFAULTS, **_MINING_DEFAULTS},
    "analyze": {**_COMMON_DEFAULTS, "schema": None, "delta": None},
    "decompose": {**_COMMON_DEFAULTS, **_MINING_DEFAULTS, "schema": None},
}

#: Accepted but excluded from the cache key.  ``deadline`` *can* change
#: the result — but deadline-affected (partial/timeout) outcomes are
#: never cached, so every *cached* report is deadline-independent and
#: may be shared across deadline spellings; the job layer handles it
#: (see ``JobQueue.submit``).
_EXECUTION_ONLY = ("deadline",)


def parse_schema_text(text: str) -> list[set[str]]:
    """Parse ``"A,B;B,C"`` into bags (the CLI's ``--schema`` syntax)."""
    from repro.cli import _parse_schema

    return _parse_schema(text)


def canonicalize_params(operation: str, params: dict | None) -> dict:
    """Normalize job parameters into their canonical, cache-keyable form.

    Fills defaults, validates names/types/choices, and rewrites
    ``schema`` as its canonical text (``"B,A;C,B"`` becomes
    ``"A,B;B,C"``); key order is left to the cache, which serializes
    with ``sort_keys``.  Execution-only knobs are not included.  Raises
    :class:`~repro.errors.ServiceError` on anything malformed, which the
    HTTP layer maps to a 400.
    """
    if operation not in OPERATIONS:
        raise ServiceError(
            f"unknown operation {operation!r}; expected one of "
            + ", ".join(OPERATIONS)
        )
    params = dict(params or {})
    defaults = _PARAM_DEFAULTS[operation]
    unknown = set(params) - set(defaults) - set(_EXECUTION_ONLY)
    if unknown:
        raise ServiceError(
            f"unknown parameter(s) for {operation}: {sorted(unknown)}; "
            f"accepted: {sorted(defaults) + sorted(_EXECUTION_ONLY)}"
        )
    canonical = dict(defaults)
    for key in defaults:
        if key in params and params[key] is not None:
            canonical[key] = params[key]

    backend = canonical["backend"]
    if backend not in available_backends():
        raise ServiceError(
            f"unknown backend {backend!r}; expected one of "
            + ", ".join(available_backends())
        )
    if canonical["chunk_rows"] is not None:
        chunk_rows = canonical["chunk_rows"]
        if not isinstance(chunk_rows, int) or isinstance(chunk_rows, bool) or chunk_rows < 1:
            raise ServiceError(
                f"chunk_rows must be a positive integer, got {chunk_rows!r}"
            )
        if backend == "exact":
            # chunk_rows only sizes the sketch backend's streaming
            # passes (ingestion chunking is a dataset-registration knob,
            # not a job knob): moot for exact, so reset it — otherwise
            # identical computations would split across cache entries.
            canonical["chunk_rows"] = None
    if "strategy" in canonical and canonical["strategy"] not in available_strategies():
        raise ServiceError(
            f"unknown strategy {canonical['strategy']!r}; expected one of "
            + ", ".join(available_strategies())
        )
    for name in ("threshold", "delta"):
        value = canonical.get(name)
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ServiceError(f"{name} must be a number, got {value!r}")
        canonical[name] = float(value)
    if "seed" in canonical:
        seed = canonical["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ServiceError(f"seed must be an integer, got {seed!r}")
    if "max_separator" in canonical:
        max_separator = canonical["max_separator"]
        if (
            isinstance(max_separator, bool)
            or not isinstance(max_separator, int)
            or max_separator < 1
        ):
            raise ServiceError(
                f"max_separator must be a positive integer, got {max_separator!r}"
            )
    if "schema" in canonical and canonical["schema"] is not None:
        if not isinstance(canonical["schema"], str):
            raise ServiceError(
                f"schema must be a string like 'A,C;B,C', got "
                f"{canonical['schema']!r}"
            )
        try:
            bags = parse_schema_text(canonical["schema"])
        except Exception as exc:
            raise ServiceError(f"bad schema parameter: {exc}") from exc
        # Key on the bag set, not its spelling: sorted attributes within
        # each bag, then the sorted distinct bags.
        canonical["schema"] = ";".join(
            ",".join(bag) for bag in sorted({tuple(sorted(bag)) for bag in bags})
        )
    if operation == "analyze" and canonical["schema"] is None:
        raise ServiceError("analyze requires a 'schema' parameter")
    if operation == "decompose" and canonical["schema"] is not None:
        # A user schema makes every mining knob moot; canonical form
        # resets them so "schema + default knobs" and "schema alone"
        # share a cache entry instead of conflicting (CLI rejects the
        # combination outright; the service just ignores the moot knobs).
        for name in _MINING_DEFAULTS:
            canonical[name] = _MINING_DEFAULTS[name]
    return canonical


def _resolve_backend(canonical: dict):
    if canonical["backend"] == "exact":
        return None
    return make_backend(canonical["backend"], chunk_rows=canonical["chunk_rows"])


def _mine_with_fallback(
    relation: Relation,
    canonical: dict,
    backend,
    *,
    deadline_at: float | None,
    faults: FaultPlan,
):
    """Mine, degrading from exact to the sketch backend on ``MemoryError``.

    Graceful degradation: an exact mine that exhausts memory (real or
    injected via the ``jobs.oom`` fault site) is retried once on the
    bounded-memory sketch backend instead of failing the job.  Returns
    ``(mined, degradation_reason)`` — the reason is ``None`` when the
    primary attempt succeeded, and the job layer never caches a
    degraded (approximate-when-exact-was-asked-for) report.
    """
    try:
        faults.check("jobs.oom")
        return (
            mine_jointree(
                relation,
                threshold=canonical["threshold"],
                max_separator_size=canonical["max_separator"],
                strategy=canonical["strategy"],
                deadline_at=deadline_at,
                seed=canonical["seed"],
                backend=backend,
            ),
            None,
        )
    except MemoryError as exc:
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
        fallback = make_backend("sketch", chunk_rows=canonical["chunk_rows"])
        mined = mine_jointree(
            relation,
            threshold=canonical["threshold"],
            max_separator_size=canonical["max_separator"],
            strategy=canonical["strategy"],
            deadline_at=deadline_at,
            seed=canonical["seed"],
            backend=fallback,
        )
        return mined, reason


def _span(timings, name: str):
    """A stage span on ``timings``, or a no-op when telemetry is off."""
    return timings.span(name) if timings is not None else nullcontext()


def run_operation(
    relation: Relation,
    operation: str,
    canonical: dict,
    *,
    deadline_at: float | None = None,
    faults: FaultPlan | None = None,
    timings=None,
) -> dict:
    """Execute one canonical operation; return its CLI-shaped JSON report.

    ``deadline_at`` (absolute ``time.monotonic()``) bounds the mining
    search via the context plumbing; when mining runs out of time the
    payload is marked ``"partial": true`` (and the job layer withholds
    it from the cache).  ``faults`` threads the chaos harness through
    the compute path (``jobs.oom``); an exact mine that runs out of
    memory degrades to the sketch backend and the payload is marked
    ``"degraded": true`` (also withheld from the cache).  ``timings``
    (a :class:`~repro.service.telemetry.StageTimings`, or ``None``)
    collects per-engine-stage spans — ``mine`` / ``analyze`` /
    ``materialize`` — for the request's timeline.
    """
    start = time.perf_counter()
    backend = _resolve_backend(canonical)
    faults = faults if faults is not None else DISABLED
    # Sampled immediately after each mining call: the deadline bounds the
    # *search*, so time spent afterwards (report assembly, materializing
    # a decomposition) must not retroactively mark a complete result
    # partial.
    mining_ran_out = False
    degradation: str | None = None
    if operation == "mine":
        with _span(timings, "mine"):
            mined, degradation = _mine_with_fallback(
                relation,
                canonical,
                backend,
                deadline_at=deadline_at,
                faults=faults,
            )
        mining_ran_out = (
            deadline_at is not None and time.monotonic() >= deadline_at
        )
        payload = base_report(
            command="mine",
            strategy=canonical["strategy"],
            j_measure=mined.j_value,
            rho=mined.rho,
            wall_time_s=time.perf_counter() - start,
            n_rows=len(relation),
            n_cols=relation.schema.arity,
        )
        payload["bags"] = sorted(sorted(bag) for bag in mined.bags)
        payload["threshold"] = canonical["threshold"]
    elif operation == "analyze":
        tree = jointree_from_schema(parse_schema_text(canonical["schema"]))
        context = (
            EvalContext.for_relation(
                relation, engine=EntropyEngine(relation, backend=backend)
            )
            if backend is not None
            else None
        )
        with _span(timings, "analyze"):
            report = analyze(
                relation, tree, delta=canonical["delta"], context=context
            )
        payload = base_report(
            command="analyze",
            strategy=None,
            j_measure=report.j_entropy,
            rho=report.rho,
            wall_time_s=time.perf_counter() - start,
            n_rows=report.n,
            n_cols=report.num_attributes,
        )
        payload.update(report.to_dict())
    else:  # decompose
        strategy = None
        if canonical["schema"] is not None:
            tree = jointree_from_schema(parse_schema_text(canonical["schema"]))
        else:
            strategy = canonical["strategy"]
            with _span(timings, "mine"):
                mined, degradation = _mine_with_fallback(
                    relation,
                    canonical,
                    backend,
                    deadline_at=deadline_at,
                    faults=faults,
                )
            mining_ran_out = (
                deadline_at is not None and time.monotonic() >= deadline_at
            )
            tree = mined.jointree
        with _span(timings, "materialize"):
            decomposition = decompose(relation, tree)
        report = decomposition.report
        payload = base_report(
            command="decompose",
            strategy=strategy,
            j_measure=report.j_measure,
            rho=report.rho,
            wall_time_s=time.perf_counter() - start,
            n_rows=report.n_rows,
            n_cols=report.n_cols,
        )
        payload.update(report.to_dict())
    payload["backend"] = canonical["backend"]
    if degradation is not None:
        # The exact computation the caller asked for did not happen;
        # flag it loudly and report the backend that actually ran.
        payload["backend"] = "sketch"
        payload["degraded"] = True
        payload["degradation_reason"] = degradation
    if mining_ran_out:
        # Mining is anytime-aware: the report is the best-so-far schema,
        # not necessarily the one an unbounded search would return.
        payload["partial"] = True
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
