"""Command-line interface: analyze tables, mine schemas, decompose, run experiments.

Installed as ``repro-ajd`` (see pyproject).  Subcommands:

* ``analyze <csv> --schema "A,B;B,C" [--json]`` — full loss analysis of a
  CSV table under a user-supplied acyclic schema;
* ``mine <csv> [--threshold T] [--strategy S] [--deadline SEC]
  [--json]`` — discover a low-J acyclic schema with any registered
  strategy, optionally within a wall-clock budget (a search the budget
  cuts off reports its best-so-far schema, marked ``"partial": true``);
* ``decompose <csv> [--strategy S | --schema ...] [--out-dir DIR]`` —
  mine (or take) a schema, materialize the semijoin-reduced bag
  projections, measure the decomposition, and emit a JSON report (plus
  one CSV per bag when ``--out-dir`` is given);
* ``serve [--port P] [--workers N] [--memory-budget-mb M]
  [--spill-dir DIR] ...`` — run the decomposition service: an HTTP/JSON
  API with a dataset registry, fingerprint-keyed result cache, and a job
  worker pool (see :mod:`repro.service` and ``docs/service.md``);
* ``snapshot <csv> <out>`` — write a persistent columnar snapshot of a
  CSV (mmap-loadable ``.npy`` code arrays + decoders, see
  :mod:`repro.relations.persist`), so later runs and service restarts
  reload it without re-parsing;
* ``experiment <id>|all``              — run a paper experiment (E1–E10);
* ``version``                          — print the package version.

Exit codes follow the usual CLI contract (service smoke scripts rely on
it): 0 on success and on ``--help`` (top-level or any subcommand), 2 on
usage errors (unknown subcommand, bad flags) and on clean-rejection
errors (unreadable/malformed input, contradictory flags).

``mine --json``, ``analyze --json``, and ``decompose`` share one JSON
report core (see :mod:`repro.factorize.report`): ``command``,
``strategy``, ``j_measure``, ``rho``, ``wall_time_s``, ``n_rows``,
``n_cols``.  The three commands only load the CSV and hand their
canonical parameters to :mod:`repro.factorize.operations`, the
operation core the service's jobs run too, so a report equals the
service's for the same data and parameters except ``wall_time_s``,
which here also counts the load.

All three table-consuming commands take ``--chunk-rows N`` (the most
data rows the CSV reader holds at once) and ``--backend
exact|sketch`` (exact columnar entropies, or one-pass CountMin/KMV
streaming estimates with Miller–Madow correction).  What the sketch
backend affects differs per command: ``mine`` scores splits and reports
J and ρ from streaming estimates; ``analyze`` estimates the
entropy-derived quantities (J entropy form, CMIs, sandwich) while ρ and
the join-size-based bounds still run the exact counters; ``decompose``
uses it for the mining phase only — the written decomposition and its
report stay exact.
"""

from __future__ import annotations

import argparse
import json
import time
from collections.abc import Sequence

from repro.discovery.strategies import available_strategies
from repro.errors import DiscoveryError, ReproError
from repro.factorize.operations import (
    COMMON_DEFAULTS,
    MINING_DEFAULTS,
    canonicalize_params,
    mines,
    run_operation,
)
from repro.factorize.operations import parse_schema as _parse_schema  # noqa: F401
from repro.factorize.pipeline import write_decomposition
from repro.info.backends import available_backends
from repro.relations.io import DEFAULT_CHUNK_ROWS, infer_integer_domains
from repro.relations.relation import Relation

#: The flags ``decompose --schema`` makes moot, with their defaults: the
#: ``add_argument(default=...)`` values and the conflict check's
#: reference, one source of truth.
_MINING_FLAGS: dict[str, object] = {
    **MINING_DEFAULTS,
    "deadline": None,
    "backend": COMMON_DEFAULTS["backend"],
}


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _load_csv(args: argparse.Namespace) -> Relation:
    """Load the command's CSV; ``--chunk-rows`` bounds the chunk size."""
    return Relation.from_csv_stream(args.csv, chunk_rows=args.chunk_rows)


def _require_minable(relation: Relation, path: str) -> None:
    """Reject inputs no strategy can decompose, with a clean message."""
    if relation.is_empty():
        raise DiscoveryError(
            f"{path} has no data rows; mining needs a non-empty table"
        )
    if relation.schema.arity < 2:
        raise DiscoveryError(
            f"{path} has {relation.schema.arity} column(s); mining a "
            "schema needs at least two"
        )


def _run(
    args: argparse.Namespace, operation: str, params: dict
) -> tuple[dict, object]:
    """Load the CSV and run the operation core on it.

    Returns the core's ``(report, result)``; the report's wall time is
    re-measured here so that it includes the load.
    """
    start = time.perf_counter()
    canonical = canonicalize_params(
        operation, {**params, "backend": args.backend, "chunk_rows": args.chunk_rows}
    )
    loaded = _load_csv(args)
    if mines(operation, canonical):
        _require_minable(loaded, args.csv)
    relation = infer_integer_domains(loaded)
    deadline = getattr(args, "deadline", None)
    # Written as a negated comparison so that NaN is rejected too.
    if deadline is not None and not deadline > 0:
        raise DiscoveryError(f"deadline must be positive, got {deadline}")
    payload, result = run_operation(
        relation,
        operation,
        canonical,
        deadline_at=None if deadline is None else time.monotonic() + deadline,
    )
    payload["wall_time_s"] = time.perf_counter() - start
    return payload, result


def _mining_params(args: argparse.Namespace) -> dict:
    return {name: getattr(args, name) for name in MINING_DEFAULTS}


def _cmd_analyze(args: argparse.Namespace) -> int:
    payload, report = _run(
        args, "analyze", {"schema": args.schema, "delta": args.delta}
    )
    if args.json:
        _print_json(payload)
    else:
        print(report.render())
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    payload, mined = _run(args, "mine", _mining_params(args))
    if args.json:
        _print_json(payload)
        return 0
    print(f"mined schema ({args.strategy}):")
    for bag in payload["bags"]:
        print("  {" + ", ".join(bag) + "}")
    print(f"J-measure: {mined.j_value:.6g} nats")
    print(f"loss rho : {mined.rho:.6g}")
    if payload.get("partial"):
        print("partial  : the deadline expired; best schema found so far")
    return 0


def _require_no_mining_flags(args: argparse.Namespace) -> None:
    """``--schema`` and the mining knobs contradict each other; say so."""
    conflicting = [
        f"--{name.replace('_', '-')}"
        for name, default in _MINING_FLAGS.items()
        if getattr(args, name) != default
    ]
    if conflicting:
        raise ReproError(
            "--schema supplies the schema directly; the mining option(s) "
            f"{', '.join(conflicting)} would be ignored — drop one side"
        )


def _cmd_decompose(args: argparse.Namespace) -> int:
    if args.schema is not None:
        _require_no_mining_flags(args)
        params = {"schema": args.schema}
    else:
        params = _mining_params(args)
    payload, decomposition = _run(args, "decompose", params)
    if args.out_dir is not None:
        try:
            paths = write_decomposition(
                decomposition,
                args.out_dir,
                report_extra={
                    key: payload[key]
                    for key in ("command", "strategy", "wall_time_s")
                },
            )
        except OSError as exc:
            raise ReproError(
                f"cannot write decomposition to {args.out_dir}: "
                f"{exc.strerror or exc}"
            ) from exc
        payload["out_dir"] = str(paths["report"].parent)
    _print_json(payload)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the service layer (threads, HTTP machinery) should
    # not tax `mine`/`analyze` one-shot invocations.
    from repro.service import Service, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        memory_budget_bytes=(
            args.memory_budget_mb * 1024 * 1024
            if args.memory_budget_mb is not None
            else None
        ),
        max_queue=args.max_queue,
        cache_entries=args.cache_entries,
        spill_dir=args.spill_dir,
        default_deadline_s=args.default_deadline,
        fault_plan=args.fault_plan,
        breaker_failures=args.breaker_failures,
        breaker_cooldown_s=args.breaker_cooldown,
        worker_procs=args.worker_procs,
        revalidate_tolerance=args.revalidate_tolerance,
        telemetry=not args.no_telemetry,
        request_log_path=args.request_log,
        request_log_capacity=args.request_log_capacity,
    )
    service = Service(config)
    if service.faults.enabled:
        print(
            json.dumps(
                {
                    "event": "faults_armed",
                    "seed": service.faults.seed,
                    "rules": service.faults.stats()["rules"],
                }
            ),
            flush=True,
        )
    try:
        for path in args.preload:
            entry, _ = service.registry.register_path(path)
            print(
                json.dumps(
                    {
                        "event": "preloaded",
                        "path": path,
                        "fingerprint": entry.fingerprint,
                        "n_rows": entry.n_rows,
                    }
                ),
                flush=True,
            )
    except ReproError:
        service.stop()
        raise
    try:
        port = service.port  # binds the socket
    except OSError as exc:
        service.stop()
        raise ReproError(
            f"cannot bind {config.host}:{config.port}: {exc.strerror or exc}"
        ) from exc
    # One machine-parseable line so wrappers (smoke scripts, benchmarks)
    # can discover an ephemeral port before the blocking serve loop.
    print(
        json.dumps(
            {
                "event": "serving",
                "host": config.host,
                "port": port,
                "workers": config.workers,
                **(
                    {"worker_procs": config.worker_procs}
                    if config.worker_procs
                    else {}
                ),
            }
        ),
        flush=True,
    )
    service.serve_forever()
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.relations.persist import save_snapshot

    start = time.perf_counter()
    relation = _load_csv(args)
    relation = infer_integer_domains(relation)
    out = save_snapshot(relation, args.out, source=args.csv)
    _print_json(
        {
            "command": "snapshot",
            "fingerprint": relation.fingerprint(),
            "n_rows": len(relation),
            "n_cols": relation.schema.arity,
            "out": str(out),
            "wall_time_s": time.perf_counter() - start,
        }
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import runner

    return runner.main([args.id])


def _cmd_version(_: argparse.Namespace) -> int:
    import repro

    print(repro.__version__)
    return 0


def _add_ingest_options(parser: argparse.ArgumentParser) -> None:
    """CSV-ingestion knobs shared by every table-consuming command."""
    parser.add_argument(
        "--chunk-rows",
        type=int,
        default=None,
        metavar="N",
        help="read the CSV in chunks of at most N data rows (bounds "
        "ingestion memory); also sizes the sketch backend's streaming "
        f"passes. Default: {DEFAULT_CHUNK_ROWS} CSV rows per chunk",
    )


def _add_backend_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default=_MINING_FLAGS["backend"],
        help="entropy backend: 'exact' columnar counts, or 'sketch' "
        "bounded-memory streaming estimates (CountMin/KMV with "
        "Miller-Madow correction). Sketch makes entropy-derived values "
        "estimates; for analyze, rho/join-size bounds stay exact, and "
        "for decompose only the mining phase is affected",
    )


def _add_mining_options(parser: argparse.ArgumentParser) -> None:
    """Discovery knobs shared by ``mine`` and ``decompose``."""
    _add_backend_option(parser)
    parser.add_argument(
        "--threshold",
        type=float,
        default=_MINING_FLAGS["threshold"],
        help="maximum CMI (nats) an accepted split may incur",
    )
    parser.add_argument(
        "--max-separator",
        type=int,
        default=_MINING_FLAGS["max_separator"],
        help="maximum separator size searched",
    )
    parser.add_argument(
        "--strategy",
        choices=available_strategies(),
        default=_MINING_FLAGS["strategy"],
        help="search strategy (default: recursive, the classic miner)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=_MINING_FLAGS["deadline"],
        help="wall-clock budget in seconds; anytime-aware strategies "
        "return their best-so-far schema when it expires, and the "
        "report is then marked partial",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=_MINING_FLAGS["seed"],
        help="RNG seed for randomized strategies",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-ajd",
        description="Quantify the loss of acyclic join dependencies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a CSV under a schema")
    p_analyze.add_argument("csv", help="path to a CSV file with a header row")
    _add_ingest_options(p_analyze)
    _add_backend_option(p_analyze)
    p_analyze.add_argument(
        "--schema",
        required=True,
        help="acyclic schema as semicolon-separated comma lists, e.g. 'A,B;B,C'",
    )
    p_analyze.add_argument(
        "--delta",
        type=float,
        default=None,
        help="failure budget for the probabilistic bounds (omit to skip)",
    )
    p_analyze.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report instead of the text render",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_mine = sub.add_parser("mine", help="discover a low-J acyclic schema")
    p_mine.add_argument("csv", help="path to a CSV file with a header row")
    _add_ingest_options(p_mine)
    _add_mining_options(p_mine)
    p_mine.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report instead of the text summary",
    )
    p_mine.set_defaults(func=_cmd_mine)

    p_decompose = sub.add_parser(
        "decompose",
        help="factorize a CSV: mine (or take) a schema, write reduced "
        "bag CSVs and a JSON report",
    )
    p_decompose.add_argument("csv", help="path to a CSV file with a header row")
    _add_ingest_options(p_decompose)
    _add_mining_options(p_decompose)
    p_decompose.add_argument(
        "--schema",
        default=None,
        help="use this acyclic schema (e.g. 'A,C;B,C') instead of mining one",
    )
    p_decompose.add_argument(
        "--out-dir",
        default=None,
        help="directory to write one CSV per bag plus report.json",
    )
    p_decompose.set_defaults(func=_cmd_decompose)

    p_serve = sub.add_parser(
        "serve",
        help="run the decomposition service (HTTP/JSON API with a "
        "dataset registry, result cache, and job worker pool)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port; 0 picks an ephemeral port (printed on startup)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="job worker threads (default: 2)",
    )
    p_serve.add_argument(
        "--memory-budget-mb",
        type=int,
        default=256,
        metavar="MB",
        help="resident-dataset budget for LRU eviction (default: 256)",
    )
    p_serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="waiting-job bound before submissions get 503 (default: 64)",
    )
    p_serve.add_argument(
        "--cache-entries",
        type=int,
        default=1024,
        help="in-memory result-cache capacity (default: 1024)",
    )
    p_serve.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help="directory for the result cache's on-disk spill and inline "
        "uploads; restarts pointed here start warm (default: no spill)",
    )
    p_serve.add_argument(
        "--default-deadline",
        type=float,
        default=None,
        metavar="SEC",
        help="deadline applied to jobs that do not set one (default: none)",
    )
    p_serve.add_argument(
        "--preload",
        action="append",
        default=[],
        metavar="CSV",
        help="register this CSV at startup (repeatable)",
    )
    p_serve.add_argument(
        "--fault-plan",
        default=None,
        metavar="JSON|PATH",
        help="arm the chaos harness: inline JSON fault plan or a path to "
        "one (default: REPRO_FAULT_PLAN env var, else disabled)",
    )
    p_serve.add_argument(
        "--breaker-failures",
        type=int,
        default=5,
        metavar="N",
        help="consecutive infrastructure failures that open an "
        "operation's circuit breaker (default: 5)",
    )
    p_serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=5.0,
        metavar="SEC",
        help="seconds an open circuit breaker fast-fails submissions "
        "before probing again (default: 5)",
    )
    p_serve.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable per-request telemetry (spans, structured request "
        "logs, latency histograms); component counters and /v1/metrics "
        "stay live",
    )
    p_serve.add_argument(
        "--request-log",
        default=None,
        metavar="PATH",
        help="append structured JSON request/job log lines to this file "
        "(default: stderr)",
    )
    p_serve.add_argument(
        "--request-log-capacity",
        type=int,
        default=1024,
        metavar="N",
        help="bound on the request-log writer queue; lines beyond it are "
        "dropped and counted rather than blocking the request path",
    )
    p_serve.add_argument(
        "--worker-procs",
        type=int,
        default=0,
        metavar="N",
        help="worker subprocesses for compute scale-out; each owns a "
        "consistent-hash shard of the datasets and jobs are dispatched "
        "to the owner over a local socket (default: 0 = in-process, "
        "bit-identical to the single-process service)",
    )
    p_serve.add_argument(
        "--revalidate-tolerance",
        type=float,
        default=0.05,
        metavar="EPS",
        help="delta-ingest cache revalidation: keep a cached mined "
        "jointree across an append when re-scoring it on the appended "
        "data moves J and rho by at most EPS each; 0 keeps only "
        "bit-stable results (default: 0.05)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_snapshot = sub.add_parser(
        "snapshot",
        help="write a persistent columnar snapshot of a CSV (zero-parse "
        "reloads via Relation.load_snapshot or 'serve --spill-dir')",
    )
    p_snapshot.add_argument("csv", help="path to a CSV file with a header row")
    p_snapshot.add_argument(
        "out", help="snapshot directory to write (created/replaced atomically)"
    )
    _add_ingest_options(p_snapshot)
    p_snapshot.set_defaults(func=_cmd_snapshot)

    p_exp = sub.add_parser("experiment", help="run a paper experiment")
    p_exp.add_argument("id", help="experiment id (E1..E10) or 'all'")
    p_exp.set_defaults(func=_cmd_experiment)

    p_version = sub.add_parser("version", help="print the package version")
    p_version.set_defaults(func=_cmd_version)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        parser.exit(2, f"error: {exc}\n")
        return 2  # pragma: no cover - parser.exit raises


if __name__ == "__main__":
    raise SystemExit(main())
