"""End-to-end tests for the repro-ajd CLI."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _parse_schema, build_parser, main
from repro.errors import ReproError
from repro.factorize.report import validate_report


@pytest.fixture()
def table_csv(tmp_path):
    path = tmp_path / "table.csv"
    # A relation satisfying C ↠ A|B exactly: each c-class is a product.
    lines = ["A,B,C"]
    for c in (0, 1):
        for a in (0, 1):
            for b in (0, 1):
                lines.append(f"{a + 2 * c},{b},{c}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestParseSchema:
    def test_basic(self):
        assert _parse_schema("A,B;B,C") == [{"A", "B"}, {"B", "C"}]

    def test_whitespace_tolerated(self):
        assert _parse_schema(" A , B ; C ") == [{"A", "B"}, {"C"}]

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            _parse_schema(" ; ")


class TestAnalyzeCommand:
    def test_lossless_schema(self, table_csv, capsys):
        code = main(["analyze", str(table_csv), "--schema", "A,C;B,C"])
        assert code == 0
        out = capsys.readouterr().out
        assert "loss rho(R,S)            : 0" in out
        assert "J-measure (entropy form) : 0" in out

    def test_with_delta(self, table_csv, capsys):
        code = main(
            ["analyze", str(table_csv), "--schema", "A,C;B,C", "--delta", "0.1"]
        )
        assert code == 0
        assert "Prop 5.3" in capsys.readouterr().out

    def test_cyclic_schema_fails_cleanly(self, table_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(table_csv), "--schema", "A,B;B,C;A,C"])
        assert excinfo.value.code == 2
        assert "cyclic" in capsys.readouterr().err

    def test_json_output_matches_shared_schema(self, table_csv, capsys):
        code = main(["analyze", str(table_csv), "--schema", "A,C;B,C", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        validate_report(payload)
        assert payload["command"] == "analyze"
        assert payload["strategy"] is None
        assert payload["rho"] == 0.0
        assert payload["n_rows"] == 8
        assert payload["n_cols"] == 3
        assert payload["sandwich"]["holds"] is True

    def test_json_with_delta_includes_probabilistic(self, table_csv, capsys):
        code = main(
            [
                "analyze",
                str(table_csv),
                "--schema",
                "A,C;B,C",
                "--delta",
                "0.1",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "probabilistic" in payload


class TestMineCommand:
    def test_mines_lossless_schema(self, table_csv, capsys):
        # In this table B is independent of (A, C), so the miner may find
        # a refinement of the planted C ↠ A|B; it must be lossless.
        code = main(["mine", str(table_csv)])
        assert code == 0
        out = capsys.readouterr().out
        assert "{A, C}" in out
        assert "J-measure: 0" in out
        assert "loss rho : 0" in out

    def test_threshold_flag(self, table_csv, capsys):
        code = main(["mine", str(table_csv), "--threshold", "0.5"])
        assert code == 0
        assert "mined schema" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "strategy", ["recursive", "beam", "greedy-agglomerative", "anytime"]
    )
    def test_strategy_flag(self, strategy, table_csv, capsys):
        code = main(["mine", str(table_csv), "--strategy", strategy])
        assert code == 0
        out = capsys.readouterr().out
        assert f"mined schema ({strategy})" in out
        assert "J-measure" in out

    def test_unknown_strategy_rejected_by_parser(self, table_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(table_csv), "--strategy", "quantum"])
        assert excinfo.value.code == 2

    def test_workers_flag_rejected(self, table_csv, capsys):
        # Split scoring is serial; process parallelism is serve --worker-procs.
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(table_csv), "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_deadline_flag(self, table_csv, capsys):
        # A generous deadline changes nothing on a tiny table.
        code = main(["mine", str(table_csv), "--deadline", "60", "--seed", "3"])
        assert code == 0
        assert "{A, C}" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--threshold", "--deadline"])
    def test_nan_option_exits_cleanly(self, flag, table_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(table_csv), flag, "nan", "--json"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no report, so no non-standard `NaN`
        assert flag.lstrip("-") in captured.err
        assert "Traceback" not in captured.err

    def test_negative_seed_exits_cleanly(self, table_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(table_csv), "--seed", "-1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "seed must be a non-negative integer" in err
        assert "Traceback" not in err

    def test_empty_csv_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("A,B,C\n")  # header only, no data rows
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "no data rows" in err
        assert "Traceback" not in err

    def test_one_column_csv_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "narrow.csv"
        path.write_text("A\n1\n2\n3\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "at least two" in err
        assert "Traceback" not in err

    def test_headerless_empty_file_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "void.csv"
        path.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(path)])
        assert excinfo.value.code == 2
        assert "header row is required" in capsys.readouterr().err

    def test_missing_file_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "does-not-exist.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert "Traceback" not in err

    def test_binary_garbage_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "garbage.csv"
        path.write_bytes(b"\xff\xfe\x00\x01binary\x00soup\x9c")
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_ragged_rows_exit_cleanly(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("A,B\n1,2\n3,4,5\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(path)])
        assert excinfo.value.code == 2
        assert "fields" in capsys.readouterr().err

    def test_json_output_matches_shared_schema(self, table_csv, capsys):
        code = main(["mine", str(table_csv), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        validate_report(payload)
        assert payload["command"] == "mine"
        assert payload["strategy"] == "recursive"
        assert ["A", "C"] in payload["bags"]
        assert payload["rho"] == 0.0


class TestDecomposeCommand:
    def test_writes_bags_and_valid_report(self, table_csv, tmp_path, capsys):
        out_dir = tmp_path / "decomp"
        code = main(
            [
                "decompose",
                str(table_csv),
                "--strategy",
                "beam",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        validate_report(stdout_payload)
        assert stdout_payload["command"] == "decompose"
        assert stdout_payload["strategy"] == "beam"

        report = json.loads((out_dir / "report.json").read_text())
        assert report["spurious"] == 0
        # `bags` keeps the family-wide shape (attribute lists, as in
        # mine --json); file details live under `bag_files`.
        assert all(isinstance(bag, list) for bag in report["bags"])
        bag_files = [entry["file"] for entry in report["bag_files"]]
        assert len(bag_files) >= 2
        for name in bag_files:
            assert (out_dir / name).exists()

    def test_roundtrip_reproduces_distinct_tuples(self, table_csv, tmp_path):
        from repro.jointrees.jointree import JoinTree
        from repro.relations.io import read_csv
        from repro.relations.yannakakis import evaluate_acyclic_join

        out_dir = tmp_path / "decomp"
        main(
            [
                "decompose",
                str(table_csv),
                "--strategy",
                "beam",
                "--out-dir",
                str(out_dir),
            ]
        )
        report = json.loads((out_dir / "report.json").read_text())
        bags = {
            i: frozenset(entry["attributes"])
            for i, entry in enumerate(report["bag_files"])
        }
        relations = {
            i: read_csv(out_dir / entry["file"])
            for i, entry in enumerate(report["bag_files"])
        }
        # Rebuild a join tree over the written bags (schema is acyclic).
        from repro.jointrees.build import jointree_from_schema

        tree = jointree_from_schema(list(bags.values()))
        keyed = {
            node: next(
                rel
                for rel in relations.values()
                if rel.schema.name_set == tree.bag(node)
            )
            for node in tree.node_ids()
        }
        rejoined = evaluate_acyclic_join(keyed, tree)
        original = read_csv(table_csv)
        assert rejoined.reorder(original.schema.names).rows() == original.rows()

    def test_explicit_schema_reports_null_strategy(self, table_csv, capsys):
        code = main(["decompose", str(table_csv), "--schema", "A,C;B,C"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        validate_report(payload)
        assert payload["strategy"] is None
        assert payload["schema"] == [["A", "C"], ["B", "C"]]
        assert payload["lossless"] is True

    def test_lossy_schema_reports_spurious(self, table_csv, capsys):
        code = main(["decompose", str(table_csv), "--schema", "A,B;B,C"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spurious"] > 0
        assert payload["rho"] == payload["spurious"] / payload["n_rows"]

    def test_empty_csv_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("A,B,C\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["decompose", str(path)])
        assert excinfo.value.code == 2
        assert "no data rows" in capsys.readouterr().err

    def test_unwritable_out_dir_exits_cleanly(self, table_csv, tmp_path, capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "decompose",
                    str(table_csv),
                    "--schema",
                    "A,C;B,C",
                    "--out-dir",
                    str(blocker / "nested"),
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "cannot write decomposition" in err
        assert "Traceback" not in err

    def test_schema_rejects_contradictory_mining_flags(self, table_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "decompose",
                    str(table_csv),
                    "--schema",
                    "A,C;B,C",
                    "--strategy",
                    "beam",
                    "--seed",
                    "4",
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--strategy" in err and "--seed" in err


class TestStreamingAndBackendFlags:
    def test_mine_chunked_matches_eager(self, table_csv, capsys):
        code = main(["mine", str(table_csv), "--json"])
        assert code == 0
        eager = json.loads(capsys.readouterr().out)
        code = main(["mine", str(table_csv), "--chunk-rows", "3", "--json"])
        assert code == 0
        chunked = json.loads(capsys.readouterr().out)
        assert chunked["bags"] == eager["bags"]
        assert chunked["j_measure"] == eager["j_measure"]
        assert chunked["rho"] == eager["rho"]
        assert chunked["backend"] == "exact"

    def test_mine_sketch_backend(self, table_csv, capsys):
        code = main(
            [
                "mine",
                str(table_csv),
                "--backend",
                "sketch",
                "--chunk-rows",
                "4",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        validate_report(payload)
        assert payload["backend"] == "sketch"
        # The planted C ↠ A|B split survives sketch scoring, and the
        # streamed ρ estimate is exact here (single split, tiny table).
        assert ["A", "C"] in payload["bags"]
        assert payload["rho"] == 0.0

    def test_analyze_sketch_backend(self, table_csv, capsys):
        code = main(
            [
                "analyze",
                str(table_csv),
                "--schema",
                "A,C;B,C",
                "--backend",
                "sketch",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        validate_report(payload)
        assert payload["backend"] == "sketch"
        assert payload["rho"] == 0.0  # join counting stays exact in analyze

    def test_decompose_sketch_steers_mining_only(self, table_csv, capsys):
        code = main(
            ["decompose", str(table_csv), "--backend", "sketch"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        validate_report(payload)
        assert payload["backend"] == "sketch"
        assert payload["lossless"] is True  # report itself is exact

    def test_decompose_schema_conflicts_with_backend(self, table_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "decompose",
                    str(table_csv),
                    "--schema",
                    "A,C;B,C",
                    "--backend",
                    "sketch",
                ]
            )
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_unknown_backend_rejected_by_parser(self, table_csv):
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(table_csv), "--backend", "quantum"])
        assert excinfo.value.code == 2

    def test_bad_chunk_rows_exits_cleanly(self, table_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(table_csv), "--chunk-rows", "0"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "chunk_rows" in err
        assert "Traceback" not in err

    def test_chunked_nul_byte_csv_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "nul.csv"
        path.write_bytes(b"A,B\n1,\x002\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(path), "--chunk-rows", "2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "NUL byte" in err
        assert "Traceback" not in err

    def test_chunked_truncated_csv_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "truncated.csv"
        path.write_text("A,B,C\n1,2,3\n4,5")  # cut mid-row
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "mine",
                    str(path),
                    "--backend",
                    "sketch",
                    "--chunk-rows",
                    "1",
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "fields" in err
        assert "Traceback" not in err


class TestExitCodeContract:
    """Conventional exit codes: 0 for --help, 2 for usage errors.

    Service smoke scripts drive the CLI from shell and rely on exactly
    this contract; these tests pin it for every subcommand.
    """

    def test_top_level_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        ["analyze", "mine", "decompose", "serve", "experiment", "version"],
    )
    def test_subcommand_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_unknown_subcommand_exits_two_with_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "frobnicate" in err

    def test_no_arguments_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", "whatever.csv", "--no-such-flag"])
        assert excinfo.value.code == 2

    def test_process_level_codes(self, tmp_path):
        """The `python -m repro.cli` process observes the same contract."""
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
            ).returncode

        assert run("--help") == 0
        assert run("serve", "--help") == 0
        assert run("frobnicate") == 2
        assert run() == 2


class TestServeCommand:
    def test_parser_accepts_service_flags(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port", "0",
                "--workers", "3",
                "--memory-budget-mb", "64",
                "--spill-dir", "/tmp/spill",
                "--max-queue", "8",
                "--preload", "a.csv",
                "--preload", "b.csv",
            ]
        )
        assert args.port == 0
        assert args.workers == 3
        assert args.memory_budget_mb == 64
        assert args.spill_dir == "/tmp/spill"
        assert args.max_queue == 8
        assert args.preload == ["a.csv", "b.csv"]

    def test_bad_config_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "99999"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "port" in err
        assert "Traceback" not in err

    def test_port_in_use_exits_two(self, capsys):
        import socket

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            port = blocker.getsockname()[1]
            with pytest.raises(SystemExit) as excinfo:
                main(["serve", "--port", str(port)])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert "cannot bind" in err
            assert "Traceback" not in err
        finally:
            blocker.close()

    def test_preload_missing_file_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "serve",
                    "--port", "0",
                    "--preload", str(tmp_path / "missing.csv"),
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert "Traceback" not in err


class TestOtherCommands:
    def test_version(self, capsys):
        import repro

        assert main(["version"]) == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_experiment_dispatch(self, capsys):
        assert main(["experiment", "E2"]) == 0
        assert "Example 4.1" in capsys.readouterr().out

    def test_unknown_experiment_lists_valid_ids(self, capsys):
        assert main(["experiment", "E99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        # The error enumerates every valid id with its description.
        for key in ("E1", "E8", "E10"):
            assert key in err
        assert "Figure 1" in err
        assert "Traceback" not in err

    def test_runner_main_unknown_id(self, capsys):
        from repro.experiments import runner

        assert runner.main(["nope"]) == 2
        assert "known ids" in capsys.readouterr().err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSnapshotCommand:
    def test_writes_loadable_snapshot(self, table_csv, tmp_path, capsys):
        from repro.relations.io import read_csv
        from repro.relations.relation import Relation

        out = tmp_path / "table.snap"
        code = main(["snapshot", str(table_csv), str(out)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "snapshot"
        assert report["out"] == str(out)
        eager = read_csv(table_csv)
        assert report["fingerprint"] == eager.fingerprint()
        assert report["n_rows"] == len(eager)
        assert report["n_cols"] == eager.schema.arity
        reloaded = Relation.load_snapshot(out)
        assert reloaded.fingerprint() == eager.fingerprint()
        assert reloaded.rows() == eager.rows()

    def test_streamed_ingest_same_snapshot(self, table_csv, tmp_path, capsys):
        out_eager = tmp_path / "eager.snap"
        out_streamed = tmp_path / "streamed.snap"
        assert main(["snapshot", str(table_csv), str(out_eager)]) == 0
        eager_fp = json.loads(capsys.readouterr().out)["fingerprint"]
        assert (
            main(
                [
                    "snapshot",
                    str(table_csv),
                    str(out_streamed),
                    "--chunk-rows",
                    "3",
                ]
            )
            == 0
        )
        assert json.loads(capsys.readouterr().out)["fingerprint"] == eager_fp

    def test_missing_csv_exits_cleanly(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["snapshot", str(tmp_path / "nope.csv"), str(tmp_path / "o")])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_out_exits_cleanly(self, table_csv, tmp_path, capsys):
        # the out path's parent does not exist and cannot be created
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["snapshot", str(table_csv), str(blocker / "nested" / "snap")]
            )
        assert excinfo.value.code == 2


PLANTED_CSV = Path(__file__).resolve().parent.parent / "examples" / "planted_mvd.csv"

#: ``(operation, CLI flags, service params, backend)`` for one
#: computation.  ``decompose --schema`` runs on the exact backend only:
#: the CLI rejects it with any mining flag, ``--backend sketch`` included.
PARITY_CASES = [
    (operation, flags, params, backend)
    for operation, flags, params in [
        ("mine", [], {}),
        ("mine", ["--strategy", "beam", "--threshold", "0.1"], {"strategy": "beam", "threshold": 0.1}),
        ("analyze", ["--schema", "B,C;C,A"], {"schema": "B,C;C,A"}),
        ("analyze", ["--schema", "A,C;B,C", "--delta", "0.05"], {"schema": "A,C;B,C", "delta": 0.05}),
        ("decompose", [], {}),
        ("decompose", ["--strategy", "anytime", "--seed", "3"], {"strategy": "anytime", "seed": 3}),
    ]
    for backend in ("exact", "sketch")
] + [("decompose", ["--schema", "C,B;A,C"], {"schema": "C,B;A,C"}, "exact")]


class TestOneOperationCore:
    """The CLI and the service run one compute path and agree on reports."""

    @pytest.fixture(scope="class")
    def service_relation(self):
        from repro.service.registry import DatasetRegistry

        registry = DatasetRegistry()
        entry, _ = registry.register_path(PLANTED_CSV)
        return registry.relation(entry.fingerprint)

    @pytest.mark.parametrize(
        "operation,flags,params,backend",
        PARITY_CASES,
        ids=[f"{case[0]}-{i}-{case[3]}" for i, case in enumerate(PARITY_CASES)],
    )
    def test_cli_json_equals_service_report(
        self, operation, flags, params, backend, service_relation, capsys
    ):
        from repro.service.operations import canonicalize_params, run_operation

        argv = [operation, str(PLANTED_CSV), *flags, "--backend", backend]
        if operation != "decompose":
            argv.append("--json")
        assert main(argv) == 0
        cli = json.loads(capsys.readouterr().out)
        service = run_operation(
            service_relation,
            operation,
            canonicalize_params(operation, {**params, "backend": backend}),
        )
        for report in (cli, service):
            validate_report(report)
            report.pop("wall_time_s")
        assert cli == service

    @pytest.mark.parametrize(
        "argv",
        [
            ["mine", str(PLANTED_CSV), "--deadline", "1e-9", "--json"],
            ["decompose", str(PLANTED_CSV), "--deadline", "1e-9"],
        ],
        ids=["mine", "decompose"],
    )
    def test_expired_deadline_marks_report_partial(self, argv, capsys):
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        validate_report(report)
        assert report["partial"] is True

    def test_canonical_params_do_not_import_the_cli(self):
        code = (
            "import sys\n"
            "from repro.service.operations import canonicalize_params\n"
            "canonical = canonicalize_params('analyze', {'schema': 'A,C;B,C'})\n"
            "assert canonical['schema'] == 'A,C;B,C', canonical\n"
            "print('repro.cli' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"
