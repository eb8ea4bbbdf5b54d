"""Unit tests for the opt-in bench history recorder."""

import json
import os
import platform

import numpy as np

import bench_record
from bench_record import append_record


def test_record_carries_provenance(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "REPO_ROOT", tmp_path)
    monkeypatch.setenv("REPRO_BENCH_RECORD", "1")
    append_record("BENCH_test.json", {"value": 1.5})
    append_record("BENCH_test.json", {"value": 2.5})
    history = json.loads((tmp_path / "BENCH_test.json").read_text())
    assert [record["value"] for record in history] == [1.5, 2.5]
    record = history[-1]
    assert record["git_sha"] is None  # tmp_path is not a git checkout
    assert record["cpu_count"] == os.cpu_count()
    assert record["python"] == platform.python_version()
    assert record["numpy"] == np.__version__
    assert isinstance(record["timestamp"], float)


def test_nothing_written_without_opt_in(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "REPO_ROOT", tmp_path)
    monkeypatch.delenv("REPRO_BENCH_RECORD", raising=False)
    append_record("BENCH_test.json", {"value": 1.5})
    assert not (tmp_path / "BENCH_test.json").exists()
