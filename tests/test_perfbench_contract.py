"""The benchmark's contract with the package, checked in the test suite.

`perfbench/selftest.py` runs every workload at a tiny size, traced and
untraced, and fails when a traced layer function no longer fires or a
reported metric goes missing. Running it here makes a refactor that
renames or bypasses a traced function fail the tests instead of only the
traced benchmark run. It is slow, so a quick test also checks, from the
benchmark's own tables, that every traced function still exists and that
every span a workload expects is traced.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_function_exists_and_every_expected_span_is_traced(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    instrument = importlib.import_module("instrument")
    workloads = importlib.import_module("workloads")

    def where(owner):
        return (f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type)
                else owner.__name__)

    missing = [f"{where(owner)}.{attr}" for owner, attr, _name in instrument.SPANS
               if attr not in vars(owner)]
    assert missing == []
    traced = {name for _owner, _attr, name in instrument.SPANS}
    for workload in workloads.WORKLOADS.values():
        assert workload.expected_spans, workload.name
        assert set(workload.expected_spans) <= traced, workload.name


def test_every_size_override_is_a_config_key(monkeypatch):
    # the harness lays a size's overrides over `cli.DEFAULTS` with
    # `dict.update`, and `decode` reads only the keys it knows, so a key
    # renamed in the package would silently drop out of the size
    from topoflow import cli

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for name, size in workloads.SIZES.items():
        assert set(size.overrides) <= set(cli.DEFAULTS), name


@pytest.mark.slow
def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
