"""Entropies must not depend on how many BLAS threads the host runs.

Every ``Σ c·log c`` reduction goes through
:func:`repro.info.backends.sum_c_log_c`, an elementwise sum that never
calls BLAS.  A BLAS dot splits long vectors across threads, which
changes the summation order, so the same entropy would come out with
different last bits on a one-core and a two-core host.  Each case runs
in a fresh interpreter per thread count, because OpenBLAS reads
``OPENBLAS_NUM_THREADS`` once, when numpy is imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Prints the ``float.hex`` of an entropy over 50,000 counts, then of
#: every attribute subset of a table with more than 20,000 distinct rows
#: (Zipf-skewed A and B, so the larger subsets have over 10,000 groups
#: of uneven size: past that length OpenBLAS threads a dot).
SNIPPET = """
import itertools, json
import numpy as np
from repro.info.engine import EntropyEngine
from repro.info.entropy import entropy_of_counts
from repro.relations.relation import Relation
from repro.relations.schema import RelationSchema

rng = np.random.default_rng(1)
values = [entropy_of_counts(rng.integers(1, 1000, size=50_000)).hex()]
n = 40_000
codes = np.column_stack([
    rng.zipf(1.3, size=n) % 3000,
    rng.zipf(1.3, size=n) % 3000,
    rng.integers(0, 8, size=n),
    rng.integers(0, 8, size=n),
])
relation = Relation.from_codes(RelationSchema.from_names("ABCD"), codes)
assert len(relation) > 20_000, len(relation)
engine = EntropyEngine(relation)
for k in range(1, 5):
    for subset in itertools.combinations("ABCD", k):
        values.append(engine.entropy(subset).hex())
print(json.dumps(values))
"""


def _entropies(threads: int) -> list[str]:
    out = subprocess.run(
        [sys.executable, "-c", SNIPPET],
        env={
            "PYTHONPATH": SRC,
            "PATH": "/usr/bin:/bin",
            "OPENBLAS_NUM_THREADS": str(threads),
        },
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="one CPU: OpenBLAS runs a dot on one thread whatever it is told",
)
def test_entropies_are_bit_identical_under_one_and_two_blas_threads():
    single = _entropies(1)
    assert len(single) == 16
    assert _entropies(2) == single
