"""Opt-in history records for the ``BENCH_*.json`` files at the repo root.

Benchmarks that keep a machine-annotated history append one record per
pytest session through :func:`append_record`.  Writing is opt-in: only
a run with ``REPRO_BENCH_RECORD=1`` in the environment (the ``make
bench-*`` targets set it) touches the files, so a plain ``pytest`` run
leaves the committed history as it is.  ``check_regression.py`` measures its own
fresh numbers and only reads these files.  Each record carries its
provenance: the git commit, the CPU count, and the Python and numpy
versions it was measured with.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent


def _git_sha() -> str | None:
    """The checkout's HEAD commit, or ``None`` outside a git checkout."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def append_record(filename: str, record: dict) -> None:
    """Stamp ``record`` and append it to ``REPO_ROOT / filename``.

    The stamp is the time plus provenance: ``git_sha``, ``cpu_count``,
    ``python`` and ``numpy``.

    Does nothing unless ``REPRO_BENCH_RECORD=1``.  A missing or
    unreadable file starts a fresh history; a lone legacy object is kept
    as its first record.
    """
    if os.environ.get("REPRO_BENCH_RECORD") != "1":
        return
    path = REPO_ROOT / filename
    history = []
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except json.JSONDecodeError:
            history = []
    if not isinstance(history, list):
        history = [history]
    record["timestamp"] = time.time()
    record["git_sha"] = _git_sha()
    record["cpu_count"] = os.cpu_count()
    record["python"] = platform.python_version()
    record["numpy"] = np.__version__
    history.append(record)
    path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")
