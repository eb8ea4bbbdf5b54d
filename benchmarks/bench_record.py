"""Opt-in history records for the ``BENCH_*.json`` files at the repo root.

Benchmarks that keep a machine-annotated history append one record per
pytest session through :func:`append_record`.  Writing is opt-in: only
a run with ``REPRO_BENCH_RECORD=1`` in the environment (the ``make
bench-*`` targets set it) touches the files, so a plain ``pytest`` run
leaves the committed history as it is.  ``check_regression.py`` measures its own
fresh numbers and only reads these files.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def append_record(filename: str, record: dict) -> None:
    """Timestamp ``record`` and append it to ``REPO_ROOT / filename``.

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
    history.append(record)
    path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")
