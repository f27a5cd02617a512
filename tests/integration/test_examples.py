"""Smoke tests: every shipped example must run clean, end to end.

Examples are executable documentation; a release with a broken example is
broken.  Each one runs in its own interpreter (as a user would run it) and
must exit 0 with its success markers on stdout.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

CASES = {
    "quickstart.py": "competitive factor",
    "heterogeneous_scale_out.py": "max-min spread",
    "erasure_coded_storage.py": "cluster invariants verified",
    "failure_recovery_simulation.py": "no data lost",
    "strategy_comparison.py": "max deviation from fair share",
    "durability_and_scrubbing.py": "read back correct after repair",
    "volume_scale_out.py": "every byte range verified",
}


@pytest.mark.parametrize("script,marker", sorted(CASES.items()))
def test_example_runs_clean(script, marker):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    result = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{script} failed:\n{result.stdout}\n{result.stderr}"
    )
    assert marker in result.stdout, (
        f"{script} missing success marker {marker!r}:\n{result.stdout}"
    )
