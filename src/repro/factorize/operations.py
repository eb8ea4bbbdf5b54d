"""One operation core: canonical parameters + the compute behind reports.

Both front doors — the ``repro-ajd`` CLI and the HTTP service — turn a
request into one of three operations on a relation (``mine``,
``analyze``, ``decompose``) and report the paper's ``J`` and ``ρ`` for
it.  This module is the one place that does so, so the two front doors
cannot drift: the same relation and parameters give the same JSON
report (validated by :func:`repro.factorize.report.validate_report`)
whichever door asked.

``canonicalize_params`` fills every omitted knob with its default,
rejects unknown keys, drops the execution-only ``deadline``, and
rewrites ``schema`` into one canonical text, so all spellings of the
same computation share one result-cache key.  ``run_operation`` runs a
canonical operation and returns the report together with the library
object behind it, so a caller can render it (the CLI's text output) or
persist it (``decompose --out-dir``).
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from repro.core.analysis import analyze
from repro.core.evalcontext import EvalContext
from repro.discovery.miner import mine_jointree
from repro.discovery.strategies import available_strategies
from repro.errors import ReproError, ServiceError
from repro.factorize.pipeline import decompose
from repro.factorize.report import base_report
from repro.info.backends import available_backends, make_backend
from repro.info.engine import EntropyEngine
from repro.jointrees.build import jointree_from_schema
from repro.relations.relation import Relation

OPERATIONS = ("mine", "analyze", "decompose")

#: Result-shaping defaults per operation.  ``None`` marks "no value";
#: ``schema`` is required for analyze, optional for decompose (mining
#: runs when absent), and meaningless for mine.
COMMON_DEFAULTS: dict[str, object] = {
    "backend": "exact",
    "chunk_rows": None,
}
MINING_DEFAULTS: dict[str, object] = {
    "strategy": "recursive",
    "threshold": 1e-9,
    "max_separator": 2,
    "seed": 0,
}
_PARAM_DEFAULTS: dict[str, dict[str, object]] = {
    "mine": {**COMMON_DEFAULTS, **MINING_DEFAULTS},
    "analyze": {**COMMON_DEFAULTS, "schema": None, "delta": None},
    "decompose": {**COMMON_DEFAULTS, **MINING_DEFAULTS, "schema": None},
}

#: Accepted but excluded from the cache key.  ``deadline`` *can* change
#: the result — but deadline-affected (partial/timeout) outcomes are
#: never cached, so every *cached* report is deadline-independent and
#: may be shared across deadline spellings; the service's job layer
#: handles it (see ``JobQueue.submit``).
_EXECUTION_ONLY = ("deadline",)


def parse_schema(text: str) -> list[set[str]]:
    """Parse ``"A,B;B,C"`` into ``[{"A","B"}, {"B","C"}]``."""
    bags = []
    for part in text.split(";"):
        attrs = {a.strip() for a in part.split(",") if a.strip()}
        if attrs:
            bags.append(attrs)
    if not bags:
        raise ReproError(f"could not parse any schema bags from {text!r}")
    return bags


def canonicalize_params(operation: str, params: dict | None) -> dict:
    """Normalize operation parameters into their canonical, cache-keyable form.

    Fills defaults, validates names/types/choices, and rewrites
    ``schema`` as its canonical text (``"B,A;C,B"`` becomes
    ``"A,B;B,C"``); key order is left to the cache, which serializes
    with ``sort_keys``.  Execution-only knobs are not included.  Raises
    :class:`~repro.errors.ServiceError` on anything malformed, which the
    HTTP layer maps to a 400 and the CLI to exit code 2.
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
        _require_int(canonical, "chunk_rows", minimum=1)
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
    if operation != "analyze":  # the integer mining knobs
        # np.random.default_rng rejects a negative seed with a bare ValueError.
        _require_int(canonical, "seed", minimum=0)
        _require_int(canonical, "max_separator", minimum=1)
    if "schema" in canonical and canonical["schema"] is not None:
        if not isinstance(canonical["schema"], str):
            raise ServiceError(
                f"schema must be a string like 'A,C;B,C', got "
                f"{canonical['schema']!r}"
            )
        try:
            bags = parse_schema(canonical["schema"])
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
        # A user schema makes every mining knob moot, and with no search
        # nothing runs on the backend either (materializing is exact);
        # canonical form resets them all so "schema + knobs" and "schema
        # alone" share a cache entry instead of conflicting (the CLI
        # rejects the combination outright; the service ignores the moot
        # knobs).
        canonical.update(MINING_DEFAULTS)
        canonical.update(COMMON_DEFAULTS)
    return canonical


def _require_int(canonical: dict, name: str, *, minimum: int) -> None:
    value = canonical[name]
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        kind = "positive" if minimum == 1 else "non-negative"
        raise ServiceError(f"{name} must be a {kind} integer, got {value!r}")


def mines(operation: str, canonical: dict) -> bool:
    """Whether the canonical operation runs a schema search."""
    return operation == "mine" or (
        operation == "decompose" and canonical["schema"] is None
    )


def _span(timings, name: str):
    """A stage span on ``timings``, or a no-op when none is collected."""
    return timings.span(name) if timings is not None else nullcontext()


def run_operation(
    relation: Relation,
    operation: str,
    canonical: dict,
    *,
    deadline_at: float | None = None,
    timings=None,
) -> tuple[dict, object]:
    """Execute one canonical operation; return ``(report, result)``.

    ``report`` is the JSON report; ``result`` is the library object it
    was built from: the :class:`~repro.discovery.miner.MinedSchema` for
    ``mine``, the :class:`~repro.core.analysis.LossAnalysis` for
    ``analyze``, the :class:`~repro.factorize.pipeline.Decomposition`
    for ``decompose``.

    ``deadline_at`` (absolute ``time.monotonic()``) bounds the mining
    search; when mining runs out of time the report is the best-so-far
    schema and is marked ``"partial": true``.  ``timings`` (anything
    with a ``span(name)`` context manager, such as the service's
    :class:`~repro.service.telemetry.StageTimings`, or ``None``)
    collects per-stage spans: ``mine`` / ``analyze`` / ``materialize``.
    """
    start = time.perf_counter()
    backend = (
        None
        if canonical["backend"] == "exact"
        else make_backend(canonical["backend"], chunk_rows=canonical["chunk_rows"])
    )
    mined = None
    mining_ran_out = False
    if mines(operation, canonical):
        with _span(timings, "mine"):
            mined = mine_jointree(
                relation,
                threshold=canonical["threshold"],
                max_separator_size=canonical["max_separator"],
                strategy=canonical["strategy"],
                deadline_at=deadline_at,
                seed=canonical["seed"],
                backend=backend,
            )
        # Sampled right after the search: the deadline bounds the
        # *search*, so time spent afterwards (report assembly,
        # materializing a decomposition) must not retroactively mark a
        # complete result partial.
        mining_ran_out = (
            deadline_at is not None and time.monotonic() >= deadline_at
        )
    if operation == "mine":
        result = mined
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
        tree = jointree_from_schema(parse_schema(canonical["schema"]))
        context = (
            EvalContext.for_relation(
                relation, engine=EntropyEngine(relation, backend=backend)
            )
            if backend is not None
            else None
        )
        with _span(timings, "analyze"):
            result = analyze(
                relation, tree, delta=canonical["delta"], context=context
            )
        payload = base_report(
            command="analyze",
            strategy=None,
            j_measure=result.j_entropy,
            rho=result.rho,
            wall_time_s=time.perf_counter() - start,
            n_rows=result.n,
            n_cols=result.num_attributes,
        )
        payload.update(result.to_dict())
    else:  # decompose
        tree = (
            mined.jointree
            if mined is not None
            else jointree_from_schema(parse_schema(canonical["schema"]))
        )
        with _span(timings, "materialize"):
            result = decompose(relation, tree)
        report = result.report
        payload = base_report(
            command="decompose",
            strategy=canonical["strategy"] if mined is not None else None,
            j_measure=report.j_measure,
            rho=report.rho,
            wall_time_s=time.perf_counter() - start,
            n_rows=report.n_rows,
            n_cols=report.n_cols,
        )
        payload.update(report.to_dict())
    payload["backend"] = canonical["backend"]
    if mining_ran_out:
        # Mining is anytime-aware: the report is the best-so-far schema,
        # not necessarily the one an unbounded search would return.
        payload["partial"] = True
    return payload, result
