"""Bench — discovery strategies.

One full mine per registered strategy on an N≈10⁴-row planted-MVD
relation, cold caches per round (pytest-benchmark timings), on the
layered discovery engine (`docs/architecture.md`).

``make bench-strategies`` appends a JSON record (per-strategy mean
seconds, `cpu_count`) to ``BENCH_discovery_strategies.json`` at the repo
root (see ``bench_record.py``), so the file accumulates a
machine-annotated history.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.datasets.synthetic import planted_mvd_relation
from repro.discovery import available_strategies, mine_jointree

from bench_record import append_record

RESULTS_NAME = "BENCH_discovery_strategies.json"

_RECORD: dict = {
    "bench": "discovery_strategies",
    "cpu_count": os.cpu_count(),
    "strategies_s": {},
}


def _cold(relation):
    relation.columns().clear_cache()
    relation._engine = None
    return relation


@pytest.fixture(scope="module", autouse=True)
def _append_results():
    """Accumulate this session's numbers into the bench history file."""
    yield
    append_record(RESULTS_NAME, _RECORD)


@pytest.fixture(scope="module")
def planted_1e4():
    # 30·30 cells per class × 12 classes = 10 800 rows.
    return planted_mvd_relation(30, 30, 12, np.random.default_rng(107))


@pytest.mark.parametrize("strategy", available_strategies())
def test_bench_strategy(benchmark, planted_1e4, strategy):
    mined = benchmark(
        lambda: mine_jointree(
            _cold(planted_1e4), threshold=0.25, strategy=strategy
        )
    )
    assert mined.j_value >= 0.0
    assert mined.jointree.attributes() == planted_1e4.schema.name_set
    stats = getattr(benchmark, "stats", None)
    if stats is not None:
        _RECORD["strategies_s"][strategy] = stats.stats.mean
