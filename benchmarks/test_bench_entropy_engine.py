"""Bench E11 — the columnar store and memoizing entropy engine.

Measures the claims of the columnar backend:

* **cold vs warm** — a cold entropy query pays one mixed-radix pack +
  group count over the code columns; a warm (memoized) query is a dict
  hit, orders of magnitude cheaper;
* **columnar vs legacy** — ``projection_counts`` via the column store vs
  the row-at-a-time ``Counter`` reference (``projection_counts_naive``);
* **engine CMI** — a four-entropy CMI with all terms memoized;
* **counting kernel** — a cold ``counts()`` pass over all 255 subsets of
  8 columns against the same pass through a four-output
  :func:`numpy.unique` (a fixed stable-sort yardstick kept here only);
  their ratio is a tracked op of ``check_regression.py``.

Record a baseline with ``make bench-baseline``, which writes
``BENCH_entropy_engine.json`` (stats only, no per-round timings).
"""

from itertools import combinations

import numpy as np
import pytest

from repro.core.random_relations import random_relation
from repro.info.engine import EntropyEngine

N_ROWS = 100_000
SIZES = {"A": 128, "B": 64, "C": 16, "D": 8}
#: The kernel lattice: 8 columns of cardinality 12, every non-empty subset.
LATTICE_SIZES = {name: 12 for name in "ABCDEFGH"}
LATTICE_SUBSETS = [
    subset for r in range(1, 9) for subset in combinations(range(8), r)
]
#: Rounds per lattice bench: one unique pass takes seconds at 1e5 rows.
LATTICE_ROUNDS = 3


@pytest.fixture(scope="module")
def relation():
    return random_relation(SIZES, N_ROWS, np.random.default_rng(911))


def test_bench_entropy_cold(benchmark, relation):
    """Un-memoized H(A,B): clear caches each round, pay the full group-by."""

    def run():
        relation.columns().clear_cache()
        return EntropyEngine(relation).entropy(["A", "B"])

    value = benchmark(run)
    assert value > 0


def test_bench_entropy_warm(benchmark, relation):
    """Memoized H(A,B): dict hit on the shared engine."""
    engine = EntropyEngine.for_relation(relation)
    engine.entropy(["A", "B"])  # prime
    value = benchmark(engine.entropy, ["A", "B"])
    assert value > 0


def test_bench_cmi_warm(benchmark, relation):
    """I(A;B|C) with all four entropies memoized."""
    engine = EntropyEngine.for_relation(relation)
    engine.cmi(["A"], ["B"], ["C"])  # prime
    value = benchmark(engine.cmi, ["A"], ["B"], ["C"])
    assert value >= 0


def test_bench_projection_counts_columnar(benchmark, relation):
    """Counter-of-tuples via the column store (vectorized group-by)."""

    def run():
        relation.columns().clear_cache()
        return relation.projection_counts(["A", "B"])

    counts = benchmark(run)
    assert sum(counts.values()) == len(relation)


def test_bench_projection_counts_legacy(benchmark, relation):
    """The row-at-a-time Counter reference path, for comparison."""
    counts = benchmark(relation.projection_counts_naive, ["A", "B"])
    assert sum(counts.values()) == len(relation)


def test_bench_projection_count_values(benchmark, relation):
    """Counts-only hot path (no tuple decoding), cold each round."""

    def run():
        relation.columns().clear_cache()
        return relation.projection_count_values(["A", "B"])

    counts = benchmark(run)
    assert int(counts.sum()) == len(relation)


@pytest.fixture(scope="module")
def lattice_store():
    rng = np.random.default_rng(17)
    return random_relation(LATTICE_SIZES, N_ROWS, rng).columns()


def lattice_counts(store):
    """Cold group multiplicities of all 255 subsets through the store."""
    store.clear_cache()
    return sum(len(store.counts(subset)) for subset in LATTICE_SUBSETS)


def lattice_unique(store):
    """The same pass through a four-output ``np.unique`` (the yardstick)."""
    total = 0
    for subset in LATTICE_SUBSETS:
        uniques, _, _, _ = np.unique(
            store.packed_key(subset),
            return_index=True,
            return_inverse=True,
            return_counts=True,
        )
        total += len(uniques)
    return total


def test_bench_lattice_counts(benchmark, lattice_store):
    """Cold ``counts()`` over the 255-subset lattice at 1e5 × 8."""
    groups = benchmark.pedantic(
        lattice_counts, args=(lattice_store,), rounds=LATTICE_ROUNDS
    )
    assert groups > len(LATTICE_SUBSETS)


def test_bench_lattice_unique(benchmark, lattice_store):
    """The lattice through the reference ``np.unique`` call."""
    groups = benchmark.pedantic(
        lattice_unique, args=(lattice_store,), rounds=LATTICE_ROUNDS
    )
    assert groups > len(LATTICE_SUBSETS)
