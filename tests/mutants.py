"""One-line mutants of the mechanism code, and a runner that shows the suite kills each.

Each mutant names a file under src/topoflow, one whole line of it (its
indentation included), the line that replaces it, and the test expected
to fail under it. A mutant models a plausible fault in the two mechanisms
(the terrain penalty and wind-guided reordering), in the attention
node's bias and its gradient, or in dropout.

    python tests/mutants.py

copies src/topoflow to a temporary directory, runs the tier-1 suite on
the unmutated copy (which must pass), then on one copy per mutant, each
time without the pin tests (`PIN_TESTS`): a fault must be caught by a test
that states what is wrong, not only by a checksum that a later change may
restate. It prints one row per mutant (the failed-test count and whether
the named test failed) and exits 1 if any mutant survives or its named
test passes. It costs one suite run per mutant plus one, so it stays out
of tier-1; tests/test_source.py checks there that every mutant's line
still occurs exactly once, so a change that rewrites a line must restate
its mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "topoflow"

# the tests that pin bytes or counts (checkpoint and dataset CRCs, the
# tape's node count and size): left out of the runner's suite runs
PIN_TESTS = (
    "tests/test_model.py::test_init_params_pinned_crc32",
    "tests/test_model.py::test_taped_forward_node_count_and_bytes_pinned",
    "tests/test_synthdata.py::test_tiny_dataset_pinned_crc32",
    "tests/test_train.py::test_fit_checkpoint_bytes_pinned",
)


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str       # under src/topoflow
    line: str       # the whole line, as it stands in the file
    mutant: str     # what replaces it
    killer: str     # a test id prefix expected to fail under the mutant


MUTANTS = (
    Mutant(
        "uphill as |dh|", "topo_bias.py",
        "    return np.maximum(0.0, (h[None, :] - h[:, None]) / H0_METERS)",
        "    return np.abs(h[None, :] - h[:, None]) / H0_METERS",
        "tests/test_topo_bias.py::test_downhill_always_unpenalized_and_monotone",
    ),
    Mutant(
        "downhill penalized", "topo_bias.py",
        "    return np.maximum(0.0, (h[None, :] - h[:, None]) / H0_METERS)",
        "    return np.maximum(0.0, (h[:, None] - h[None, :]) / H0_METERS)",
        "tests/test_topo_bias.py::test_asymmetry_uphill_vs_downhill",
    ),
    Mutant(
        "no clamp floor", "topo_bias.py",
        "    np.clip(out, BIAS_LO, 0.0, out=out)",
        "    np.minimum(out, 0.0, out=out)",
        "tests/test_topo_bias.py::test_clamp_bounds_hold_for_extreme_inputs",
    ),
    Mutant(
        "alpha gradient sign flipped", "topo_bias.py",
        "        return (-((g * inside) * up).sum(),)",
        "        return (((g * inside) * up).sum(),)",
        "tests/test_topo_bias.py::test_tape_alpha_gradient_matches_analytic",
    ),
    Mutant(
        "sort against the wind", "reorder.py",
        '        ranked = np.argsort(pi, kind="stable")  # ties keep raster order',
        '        ranked = np.argsort(-pi, kind="stable")  # ties keep raster order',
        "tests/test_reorder.py::test_uniform_east_wind_sorts_west_to_east",
    ),
    Mutant(
        "unweighted sector wind angle", "reorder.py",
        "    return math.atan2(float((v * w).sum() / sw), float((u * w).sum() / sw))",
        "    return math.atan2(float(v.sum() / sw), float(u.sum() / sw))",
        "tests/test_reorder.py::test_direction_weighted_vs_plain",
    ),
    Mutant(
        "unapply by the order, not its inverse", "reorder.py",
        "    return np.take(tokens, np.argsort(order), axis=0)",
        "    return np.take(tokens, order, axis=0)",
        "tests/test_reorder.py::test_apply_identity_and_round_trip",
    ),
    Mutant(
        "sector check in check_orders removed", "reorder.py",
        "    if (sector_of[orders] != sector_of).any():",
        "    if False:",
        "tests/test_model.py::test_forward_refuses_bad_slot_orders",
    ),
    Mutant(
        "cross bucket read as bucket 0", "attention.py",
        "    cross = rel_t.data[-1:].astype(dtype)",
        "    cross = rel_t.data[:1].astype(dtype)",
        "tests/test_attention.py::test_penalty_and_orders_match_the_materialized_bias",
    ),
    Mutant(
        "rank offsets transposed", "attention.py",
        "    np.subtract(ranks[:, None, :], ranks[:, :, None] - (m - 1), out=offsets)",
        "    np.subtract(ranks[:, :, None], ranks[:, None, :] - (m - 1), out=offsets)",
        "tests/test_attention.py::test_penalty_and_orders_match_the_materialized_bias",
    ),
    Mutant(
        "penalty transposed", "model.py",
        "        flipped = np.negative(np.asarray(elev_patch_m, dtype=np.float64))",
        "        flipped = np.asarray(elev_patch_m, dtype=np.float64)",
        "tests/test_model.py::test_attention_tables_are_keys_by_queries",
    ),
    Mutant(
        "cross bucket gradient dropped", "attention.py",
        "        grel[-1] += (ones @ head_sum).sum(dtype=np.float64)",
        "        grel[-1] += 0.0",
        "tests/test_attention.py::"
        "test_node_gradients_match_finite_differences_through_the_sector_blocks",
    ),
    Mutant(
        "in-sector entries also summed into the cross bucket", "attention.py",
        "        flat[tables.blocks] = 0.0",
        "        pass",
        "tests/test_attention.py::test_penalty_gradient_is_the_scattered_head_sum",
    ),
    Mutant(
        "penalty gradient transposed", "attention.py",
        "            gpen += head_sum",
        "            gpen += head_sum.T",
        "tests/test_attention.py::test_penalty_gradient_is_the_scattered_head_sum",
    ),
    Mutant(
        "dropout without its 1/keep", "autodiff.py",
        "    out /= keep",
        "    pass",
        "tests/test_autodiff.py::test_dropout_scaling_and_determinism",
    ),
)


def occurrences(mutant: Mutant, src: Path = SRC) -> int:
    """How many whole lines of the mutant's file are its line."""
    return (src / mutant.file).read_text(encoding="utf-8").split("\n").count(mutant.line)


def run_suite(package: Path) -> tuple[int, list[str]]:
    """(pytest's exit code, the failed test ids) of tier-1 on the copy of
    the package in `package`, without the pin tests."""
    path = str(package.parent)
    cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "-o", f"pythonpath={path}",
           *(f"--deselect={test}" for test in PIN_TESTS)]
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return proc.returncode, failed


def main() -> int:
    missing = [m.name for m in MUTANTS if occurrences(m) != 1]
    if missing:
        print(f"mutant lines not found exactly once: {missing}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        package = Path(tmp) / "topoflow"
        shutil.copytree(SRC, package, ignore=shutil.ignore_patterns("__pycache__"))
        code, failed = run_suite(package)
        if code != 0:
            print(f"the unmutated suite fails (exit {code}): {failed}", file=sys.stderr)
            return 1
        survivors = []
        print(f"{'mutant':<52} {'failed':>6}  named test failed")
        for m in MUTANTS:
            path = package / m.file
            original = path.read_text(encoding="utf-8")
            lines = original.split("\n")
            lines[lines.index(m.line)] = m.mutant
            path.write_text("\n".join(lines), encoding="utf-8")
            try:
                code, failed = run_suite(package)
            finally:
                path.write_text(original, encoding="utf-8")
            named = any(test.startswith(m.killer) for test in failed)
            print(f"{m.name:<52} {len(failed):>6}  {'yes' if named else 'NO'}", flush=True)
            if code == 0 or not named:
                survivors.append(m.name)
    if survivors:
        print(f"survived, or the named test passed: {survivors}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
