#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny input size, in a few seconds.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload, untraced and traced, it runs `perfbench/run.py` at the
tiny size for a few rounds and checks that the run exits 0, that its last
line is a result with `correct` true and no failed op, and that it reports
every metric BENCHMARK.json names for that mode, each with its unit and a
finite value. It then checks the two ways a run must fail without
printing a result: a traced run whose workload expects a span that never
fires, and any run in a directory holding only BENCHMARK.json and the
benchmark's own files. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
MISSING_SPAN = """
import sys
sys.path[:0] = ["perfbench", "src"]
import run, workloads
workloads.GenRoundtrip.expected_spans += ("attention.attend",)
sys.exit(run.main(["--workload", "gen-roundtrip", "--seed", "7", "--seconds", "0.5",
                   "--trace", "1", "--size", "tiny"]))
"""


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_result(proc, declared) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, declared {unit!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m.get('value')!r} is not a finite number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
                       "--trace", str(trace), "--size", "tiny")
            problems = check_result(proc, declared[trace])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace}"
                  + "".join(f"\n     {p}" for p in problems))

    # a traced gen-roundtrip run told to expect attention spans must refuse
    proc = subprocess.run(
        [sys.executable, "-c", MISSING_SPAN], cwd=ROOT, capture_output=True, text=True,
        timeout=TIMEOUT_S,
    )
    refused = proc.returncode == 3 and '"metrics"' not in proc.stdout
    failures += not refused
    print(f"{'ok  ' if refused else 'FAIL'} a missing expected span fails the traced run "
          f"(exit code {proc.returncode})")

    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "0",
                   "--seconds", "1", "--trace", "0")
        refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
        failures += not refused
        print(f"{'ok  ' if refused else 'FAIL'} refuses to run without the program "
              f"(exit code {proc.returncode})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("self-test passed" if not failures else f"self-test: {failures} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
