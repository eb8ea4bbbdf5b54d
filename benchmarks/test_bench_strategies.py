"""Bench — discovery strategies, and split scoring as the schema widens.

One full mine per registered strategy, cold caches per round
(pytest-benchmark timings), on the layered discovery engine
(`docs/architecture.md`), at three widths:

* ``planted_1e4`` — 3 attributes (``C ↠ A|B``), N≈10⁴ rows; its root
  batch has 6 candidates, so it shows the kernel, not the search (its
  root-batch numbers are recorded as tier ``planted_3attrs``);
* ``planted_8attrs`` / ``planted_12attrs`` — a class attribute ``A``
  plus independent per-class attribute groups (2+2+3 and 3+3+3+2), a
  planted acyclic join dependency.  The root batch holds 1,499 and
  33,739 candidates, so split scoring is a large share of the mine.

Each tier also times its root batch scored twice with the entropy memo
warm: once through ``SerialSplitScorer.score_batch`` (one mask gather)
and once as a loop of public ``EntropyEngine.cmi`` calls.  Their ratio
(``batch_scoring_vs_per_candidate_cmi_speedup``) is below 1 on the
6-candidate batch, where the numpy set-up dominates, and several-fold
on the wide ones; the 12-attribute value is a tracked op of
``benchmarks/check_regression.py``.

``make bench-strategies`` appends a JSON record (per-strategy mean
seconds per tier, the scoring ratios, and provenance) to
``BENCH_discovery_strategies.json`` at the repo root (see
``bench_record.py``), so the file accumulates a machine-annotated
history.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.datasets.synthetic import planted_mvd_relation
from repro.discovery import (
    SearchContext,
    SerialSplitScorer,
    available_strategies,
    mine_jointree,
)
from repro.discovery.strategies.base import enumerate_split_candidates
from repro.relations.relation import Relation
from repro.relations.schema import RelationSchema

from bench_record import append_record

RESULTS_NAME = "BENCH_discovery_strategies.json"

#: tier → (attribute groups, per-class pool size); 12 classes each.
WIDTH_TIERS = {
    "planted_8attrs": ((2, 2, 3), 8),
    "planted_12attrs": ((3, 3, 3, 2), 5),
}
CLASSES = 12
DOMAIN = 6

_RECORD: dict = {
    "bench": "discovery_strategies",
    "cpu_count": os.cpu_count(),
    "strategies_s": {},
    "tiers": {},
}


def planted_star_relation(
    groups: tuple[int, ...], pool: int, rng: np.random.Generator
) -> Relation:
    """A class attribute ``A`` and, per class, the full product of pools.

    For each of :data:`CLASSES` classes, every attribute group gets
    ``pool`` distinct tuples over ``range(DOMAIN)`` and the class holds
    their full product, so ``{A ∪ g : g ∈ groups}`` is an exact acyclic
    schema.  Rows: ``CLASSES · pool^len(groups)``.
    """
    width = 1 + sum(groups)
    names = [chr(ord("A") + i) for i in range(width)]
    blocks = []
    for c in range(CLASSES):
        pools = []
        for size in groups:
            codes = rng.choice(DOMAIN**size, size=pool, replace=False)
            pools.append(
                np.stack(
                    [(codes // DOMAIN**p) % DOMAIN for p in reversed(range(size))],
                    axis=1,
                )
            )
        picks = np.meshgrid(*[np.arange(pool)] * len(groups), indexing="ij")
        block = np.empty((pool ** len(groups), width), dtype=np.int64)
        block[:, 0] = c
        column = 1
        for size, tuples, pick in zip(groups, pools, picks):
            block[:, column : column + size] = tuples[pick.ravel()]
            column += size
        blocks.append(block)
    sizes = {name: CLASSES if i == 0 else DOMAIN for i, name in enumerate(names)}
    return Relation.from_codes(
        RelationSchema.integer_domains(sizes), np.concatenate(blocks), distinct=True
    )


def width_tier_relation(tier: str) -> Relation:
    groups, pool = WIDTH_TIERS[tier]
    return planted_star_relation(groups, pool, np.random.default_rng(307))


def root_batch_scoring(relation: Relation, rounds: int = 3) -> dict:
    """Root batch: ``score_batch`` vs a loop of ``engine.cmi``, memo warm.

    Best of ``rounds`` on each side; both read the same warm memo, so
    the ratio is the per-candidate bookkeeping the batch path removes.
    """
    context = SearchContext.create(relation)
    engine = context.engine
    candidates = enumerate_split_candidates(context, relation.schema.name_set)
    scorer = SerialSplitScorer()
    scorer.score_batch(relation, candidates, engine=engine)  # fill the memo
    triples = [
        tuple(frozenset(engine.names(mask)) for mask in masks)
        for masks in zip(candidates.separators, candidates.lefts, candidates.rights)
    ]

    def best_of(func) -> float:
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            func()
            best = min(best, time.perf_counter() - start)
        return best

    batch_s = best_of(lambda: scorer.score_batch(relation, candidates, engine=engine))
    loop_s = best_of(
        lambda: [engine.cmi(left, right, sep) for sep, left, right in triples]
    )
    return {
        "candidates": len(candidates),
        "batch_s": batch_s,
        "per_candidate_cmi_s": loop_s,
        "batch_scoring_vs_per_candidate_cmi_speedup": loop_s / batch_s,
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


@pytest.fixture(scope="module", params=sorted(WIDTH_TIERS))
def width_tier(request):
    return request.param, width_tier_relation(request.param)


def _tier_record(tier: str) -> dict:
    return _RECORD["tiers"].setdefault(tier, {})


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


@pytest.mark.parametrize("strategy", available_strategies())
def test_bench_strategy_width(benchmark, width_tier, strategy):
    tier, relation = width_tier
    mined = benchmark.pedantic(
        lambda: mine_jointree(_cold(relation), threshold=0.25, strategy=strategy),
        rounds=3,
    )
    assert mined.jointree.attributes() == relation.schema.name_set
    stats = getattr(benchmark, "stats", None)
    if stats is not None:
        _tier_record(tier).setdefault("strategies_s", {})[strategy] = (
            stats.stats.mean
        )


@pytest.mark.parametrize("tier", ["planted_3attrs", *sorted(WIDTH_TIERS)])
def test_bench_root_batch_scoring(planted_1e4, tier):
    relation = planted_1e4 if tier == "planted_3attrs" else width_tier_relation(tier)
    result = root_batch_scoring(relation)
    assert result["batch_scoring_vs_per_candidate_cmi_speedup"] > 0
    _tier_record(tier).update(result)
