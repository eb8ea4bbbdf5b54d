"""Every ``repro`` process imports only what it runs.

The CLI, the service front end and each cluster worker compute counts
and entropies with numpy alone.  scipy serves only the Appendix D
tooling in :mod:`repro.concentration`, which imports it inside the
functions that use it, and networkx is not a dependency at all.  Each
check runs in a fresh interpreter, because ``sys.modules`` of the test
process already holds whatever the rest of the suite imported.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run(snippet: str) -> str:
    out = subprocess.run(
        [sys.executable, "-c", snippet],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


@pytest.mark.parametrize(
    "module", ["repro", "repro.cli", "repro.service", "repro.service.cluster"]
)
def test_entry_points_load_neither_scipy_nor_networkx(module):
    loaded = _run(
        f"import sys, {module}\n"
        "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))"
    )
    assert loaded == "[]"


def test_package_imports_and_enumerates_trees_without_networkx():
    count = _run(
        "import sys\n"
        "sys.modules['networkx'] = None  # any import of it now fails\n"
        "import repro, repro.cli, repro.service.cluster\n"
        "from repro.jointrees import count_jointrees\n"
        "print(count_jointrees([{'X', 'U'}, {'X', 'V'}, {'X', 'W'}]))"
    )
    assert count == "3"


def test_scipy_loads_at_its_first_use():
    before, value, after = _run(
        "import sys\n"
        "from repro.concentration import poisson_expectation\n"
        "print('scipy.stats' in sys.modules)\n"
        "print(repr(poisson_expectation(lambda k: 1.0 / (1 + k), 3.0)))\n"
        "print('scipy.stats' in sys.modules)"
    ).splitlines()
    assert (before, after) == ("False", "True")
    # Eq. 280: E[1/(1+W)] = (1 - e^{-λ})/λ.
    assert float(value) == pytest.approx(-math.expm1(-3.0) / 3.0, rel=1e-12)
