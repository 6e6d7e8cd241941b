#!/usr/bin/env python3
"""topoflow benchmark: one workload, one process, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 10 --trace 0

It pins BLAS to one thread before numpy loads (the TOPOFLOW_THREADS=1
setting), makes the workload's inputs from --seed, times its set-up three
times, then runs rounds back to back until --seconds have passed and the
workload's minimum number of rounds is done. Every op and round output is
checked. The human-readable report comes first; the last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ops, "failed": failed ops, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the run
sets up once, makes two untraced rounds, then traced rounds, and reports the
per-layer metrics, per op, plus the tracing overhead; the spans are written
to .perfbench_out/. A traced run that misses an expected span exits with
status 3 and no result. See perfbench/NOTES.md for the definitions.
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("TOPOFLOW_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIB = 2.0**20

END_TO_END_UNITS = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("desk", "tiny"), default="desk",
                   help="input size; 'tiny' is for the self-test only")
    return p.parse_args(argv)


def environment(seed: int) -> str:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    return (f"env nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas!r} {threads} seed={seed}")


def tail(durations):
    """(value, percentile) of the highest percentile with >= 10 ops beyond it."""
    d = sorted(durations)
    n = len(d)
    if n <= 10:
        return d[-1], 100.0
    return d[n - 11], 100.0 * (n - 10) / n


def run_rounds(workload, seconds, min_rounds, after_round=None):
    """Closed loop of rounds until `seconds` pass and `min_rounds` are done.

    Each round's wall time is stored on it; `after_round()` runs after each.
    Returns (rounds, elapsed seconds).
    """
    rounds = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        r = workload.round()
        r.seconds = time.perf_counter() - start
        rounds.append(r)
        if after_round is not None:
            after_round()
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and len(rounds) >= min_rounds:
            return rounds, elapsed


def check_rounds(rounds, ops, reference):
    """Fail every op of a round whose checks fail or whose guard value is
    not bitwise equal to `reference` (the first round's when None).

    Returns (all rounds ok, reference guard value).
    """
    ok = True
    for r in rounds:
        if reference is None:
            reference = r.guard
        same = r.guard is None or (reference is not None
                                   and float(r.guard).hex() == float(reference).hex())
        if not (r.ok and same):
            ok = False
            for i in range(r.first_op, r.first_op + r.n_ops):
                ops.fail(i)
    return ok, reference


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "topoflow" / "__init__.py").is_file():
        print(f"perfbench: no topoflow package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS  # loads numpy, after the thread cap on purpose

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_PROCESS
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return bench(args, WORKLOADS[args.workload], work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, workload_class, work, import_s) -> int:
    from instrument import Instrument, OpLog
    from workloads import SIZES

    ops = OpLog()
    wl = workload_class(args.seed, SIZES[args.size], work, ops)
    setups = []
    # set-up is timed only in an untraced run; a traced run sets up once
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)

    inst = Instrument(ops)
    wl.plan(inst)
    inst.install()
    try:
        # a traced run makes two untraced rounds: the second, warm one is the
        # baseline for the tracing overhead (the first round of a process is
        # the slowest, and every traced round comes after it)
        if args.trace:
            rounds, elapsed = run_rounds(wl, 0.0, 2)
        else:
            rounds, elapsed = run_rounds(wl, args.seconds, wl.min_rounds)
    finally:
        inst.uninstall()
    ok, reference = check_rounds(rounds, ops, None)

    text = [f"workload {wl.name} seed {args.seed} size {args.size} "
            f"trace {args.trace} seconds {args.seconds:g}", environment(args.seed)]
    if args.trace:
        traced = traced_rounds(wl, ops, args, reference, rounds[-1])
        if traced is None:
            return 3
        traced_ok, metrics, lines = traced
        ok = ok and traced_ok
    else:
        metrics, lines = end_to_end(ops, rounds, elapsed, setups, import_s)
    text += lines
    if wl.guard_name is not None:
        text.append(f"{wl.guard_name} {reference!r} (round checks pass and it is bitwise "
                    f"equal across every round{', traced or not' if args.trace else ''}: {ok})")
    attempted = len(ops)
    failed = sum(ops.failed)
    text.append(f"ops_failed_frac {failed / max(attempted, 1):.4g} "
                f"({failed} failed of {attempted} attempted)")
    print("\n".join(text))
    print(json.dumps({
        "correct": bool(ok and failed == 0 and attempted > 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def end_to_end(ops, rounds, elapsed, setups, import_s):
    durations = ops.durations
    tail_s, pct = tail(durations)
    setup_s = import_s + statistics.median(setups)
    samples = sum(r.samples for r in rounds)
    metrics = {
        "setup_s": setup_s,
        "samples_per_s": samples / elapsed,
        "op_p50_s": statistics.median(durations),
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB,
    }
    lines = [
        f"setup_s        {setup_s:.4f} s  (import {import_s:.3f} s + median of "
        f"{len(setups)} set-ups: {', '.join(f'{s:.3f}' for s in setups)})",
        f"samples_per_s  {metrics['samples_per_s']:.4f} 1/s  ({samples} samples, "
        f"{len(rounds)} rounds, {elapsed:.2f} s)",
        f"op_p50_s       {metrics['op_p50_s']:.5f} s  (n={len(durations)} ops)",
        f"op_tail_s      {tail_s:.5f} s  (p{pct:.1f}, n={len(durations)} ops, "
        f"{10 if len(durations) > 10 else 0} beyond)",
        f"peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB",
    ]
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, lines


def traced_rounds(wl, ops, args, reference, warm):
    """Traced rounds after the untraced ones; None when an expected span is missing.

    Returns (checks passed, per-layer metrics, report lines).
    """
    from instrument import Instrument, Tracer

    first_op = len(ops)
    tracer = Tracer(ops)
    inst = Instrument(ops)
    wl.plan(inst)
    inst.trace(tracer)
    # running totals of every counter and span call count, after each round
    totals = [Counter()]
    inst.install()
    try:
        rounds, elapsed = run_rounds(
            wl, args.seconds, wl.min_rounds,
            after_round=lambda: totals.append(tracer.counts + tracer.totals()[1]),
        )
    finally:
        inst.uninstall()
    missing = [s for s in wl.expected_spans if s not in totals[-1]]
    if missing:
        print(f"perfbench: {wl.name}: expected spans never fired: {', '.join(missing)}",
              file=sys.stderr)
        return None
    ok, _ = check_rounds(rounds, ops, reference)
    per_round = [after - before for before, after in zip(totals, totals[1:])]
    repeat = all(r == per_round[0] for r in per_round[1:])
    untraced_sps = warm.samples / warm.seconds
    traced_sps = sum(r.samples for r in rounds) / elapsed
    n_ops = len(ops) - first_op
    metrics = per_layer(tracer, n_ops, 1.0 - traced_sps / untraced_sps)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    lines = [
        f"traced {len(rounds)} rounds, {n_ops} ops, {len(tracer.spans)} spans "
        f"-> {spans_path.relative_to(ROOT)}",
        f"tracing overhead: samples_per_s untraced (warm round) {untraced_sps:.4f}, "
        f"traced {traced_sps:.4f}",
        f"computed counts repeat exactly across traced rounds: {repeat}",
        "per-layer metrics, per op:",
    ] + [f"  {k:<34} {v['value']:.6g} {v['unit']}{'  computed' if k in COMPUTED else ''}"
         for k, v in metrics.items()]
    return ok and repeat, metrics, lines


# per-layer call counts and computed counts reported besides every span's self time
CALLS = ("attention.attend", "reorder.build_permutation", "synthdata.integrator",
         "fields.write_grid", "fields.read_grid")
COUNTS = {
    "attention.logit_entries": "count",
    "attention.logit_bytes": "bytes",
    "autodiff.matmul.flops": "count",
    "autodiff.nodes_recorded": "count",
    "topo_bias.bias_entries": "count",
    "model.save_checkpoint.bytes": "bytes",
    "fields.write_grid.bytes": "bytes",
    "fields.read_grid.bytes": "bytes",
}
# derived from shapes, graph walks and file sizes rather than timed
COMPUTED = {*COUNTS, "autodiff.tape_mb", "autodiff.useful_node_ratio",
            "synthdata.integrator.calls"}


def per_layer(tracer, n_ops, overhead):
    """Per-op per-layer metrics from the traced rounds."""
    from instrument import SPANS

    self_s, calls = tracer.totals()
    c = tracer.counts
    values = {f"{name}.self_s": (self_s[name] / n_ops, "s") for _, _, name in SPANS}
    values.update({f"{name}.calls": (calls[name] / n_ops, "count") for name in CALLS})
    values.update({name: (c[name] / n_ops, unit) for name, unit in COUNTS.items()})
    recorded = c["autodiff.nodes_recorded"]
    values["autodiff.tape_mb"] = (c["autodiff.tape_bytes"] / n_ops / MIB, "MB")
    values["autodiff.useful_node_ratio"] = (
        c["autodiff.nodes_visited"] / recorded if recorded else 0.0, "ratio")
    values["trace.overhead_frac"] = (overhead, "ratio")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


if __name__ == "__main__":
    sys.exit(main())
