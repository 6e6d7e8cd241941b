"""The benchmark's own smoke test, run as part of the test suite.

`perfbench/selftest.py` runs every workload at a tiny size, traced and
untraced, and fails when a traced layer function no longer fires or a
reported metric goes missing. Running it here makes a refactor that
renames or bypasses a traced function fail the tests instead of only the
traced benchmark run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
