"""The three benchmark workloads, driven through the calls the CLI commands make.

Each workload has a set-up that is repeated to time it, and a round that the
benchmark repeats in a closed loop: the next round starts when the previous one
ends. Rounds are made of ops (the unit behind the latency metrics), and every
op and round output is checked; a failed check fails the op.

* train-desk: set-up generates, writes and reads back the desk dataset; a
  round is `train.fit` for a fixed step budget, and an op is one pass of its
  loop (from one `zero_grads` call to the next).
* eval-batch: set-up also writes a checkpoint of freshly initialized
  parameters; a round is `model.load_checkpoint` plus `evalkit.report` at
  batch 16, and an op is one batch forward.
* gen-roundtrip: a round is the `topoflow gen` path followed by
  `read_dataset` and `train.prepare_arrays`; an op is one `make_sample`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from topoflow import autodiff, cli, evalkit, model, synthdata, train
from topoflow.errors import TopoflowError

from instrument import Instrument


@dataclass(frozen=True)
class Size:
    """Input size: CLI config overrides on top of the desk defaults."""

    overrides: dict
    fit_steps: int      # train-desk step budget per fit (one validation interval)


# the CLI desk defaults: 32x64 grid, patch 2 (N=512 tokens), d=64, 2 layers,
# 4 heads, both mechanisms on, 200 samples, batch 8, validation every 25 steps
DESK = Size({}, fit_steps=25)

# a few-second smoke size for the self-test only
TINY = Size(
    {
        "grid.height": "8", "grid.width": "16", "grid.patch": "2",
        "grid.sector_cols": "4", "grid.sector_rows": "2",
        "physics.substeps": "2", "data.count": "16", "data.horizons": "12,24",
        "model.d": "16", "model.layers": "1", "model.heads": "2",
        "model.mlp_hidden": "32", "model.head_hidden": "32",
        "train.val_interval": "3", "train.batch_size": "4", "train.val_fraction": "0.25",
    },
    fit_steps=3,
)

SIZES = {"desk": DESK, "tiny": TINY}
EVAL_BATCH = 16


@dataclass
class Round:
    """What one round completed: samples, its quality guard, its ops."""

    samples: int
    guard: float | None      # val_loss or eval_rmse; None where there is none
    ok: bool                 # round-level checks passed
    first_op: int
    n_ops: int
    seconds: float = 0.0     # wall time, set by run.run_rounds


def _bits_equal(a, b) -> bool:
    """Bitwise equality of two float32 arrays (signed zeros and NaN payloads too)."""
    a = np.ascontiguousarray(a, dtype=np.float32)
    b = np.ascontiguousarray(b, dtype=np.float32)
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


class Workload:
    name = ""
    guard_name: str | None = None
    # rounds every run makes however short --seconds is: enough ops for a
    # tail percentile with ten ops beyond it, and rounds to compare
    min_rounds = 2
    # spans the traced run must see at least once in the timed part
    expected_spans: tuple[str, ...] = ()

    def __init__(self, seed: int, size: Size, work: Path, ops):
        self.seed = seed
        self.size = size
        self.work = work
        self.ops = ops
        self.cfg = dict(cli.DEFAULTS)
        self.cfg.update(size.overrides)
        self.cfg["seed"] = str(seed)
        self.spec = cli.build_grid(self.cfg)
        self.physics = cli.build_physics(self.cfg)

    def _gen(self, out: Path) -> None:
        """`topoflow gen --out OUT` in-process, its progress line discarded."""
        cfg = dict(self.cfg, **{"paths.out": str(out)})
        with contextlib.redirect_stdout(io.StringIO()):
            cli.cmd_gen(cfg)

    def _model_config(self, bundle):
        return cli.build_model_config(
            self.cfg, spec=bundle.spec, n_horizons=len(bundle.horizons)
        )

    def setup(self) -> None:
        raise NotImplementedError

    def plan(self, inst: Instrument) -> None:
        """Declare op boundaries and output hooks on an instrument."""
        raise NotImplementedError

    def round(self) -> Round:
        """Run one round; a program error fails the op it happened in."""
        first = len(self.ops)
        try:
            samples, guard, ok = self._round()
        except TopoflowError:
            self.ops.fail()
            samples, guard, ok = 0, None, False
        finally:
            self.ops.end()
        return Round(samples, guard, ok, first, len(self.ops) - first)

    def _round(self) -> tuple[int, float | None, bool]:
        raise NotImplementedError


class TrainDesk(Workload):
    name = "train-desk"
    guard_name = "val_loss"
    expected_spans = (
        "attention.attend", "autodiff.backward", "autodiff.softmax",
        "autodiff.layer_norm", "autodiff.gelu", "autodiff.dropout", "autodiff.matmul",
        "topo_bias.uphill_matrix", "topo_bias.bias_tensor", "reorder.build_permutation",
        "model.forward", "model.save_checkpoint", "train.optimize_step", "train.loss",
        "train.evaluate_loss", "train.prepare_arrays", "fields.write_grid",
        "fields.normalize",
    )

    def setup(self) -> None:
        data = self.work / "data"
        self._gen(data)
        self.bundle = synthdata.read_dataset(data)
        self.mconfig = self._model_config(self.bundle)
        tconfig = cli.build_train_config(self.cfg)
        steps = self.size.fit_steps
        self.tconfig = dataclasses.replace(
            tconfig, total_steps=steps, warmup=min(tconfig.warmup, steps)
        )

    def plan(self, inst: Instrument) -> None:
        inst.op_start(autodiff, "zero_grads")

        def check_loss(args, kwargs, loss):
            if kwargs.get("train"):
                if not math.isfinite(float(loss.data)):
                    self.ops.fail()
                inst.count_tape(loss)

        inst.hook(train, "_batch_loss", check_loss)

    def _round(self):
        first = len(self.ops)
        result = train.fit(self.bundle, self.mconfig, self.tconfig, out_dir=self.work / "fit")
        self.ops.end()  # the last loop pass ends when fit returns
        steps = len(self.ops) - first
        val = result.final_val
        initial = result.history[0][2]
        # the budget ends on a validation, and a fit that does not lower the
        # validation loss from its untrained value has stopped learning
        ok = (steps == self.tconfig.total_steps and result.history[-1][0] == steps
              and math.isfinite(val) and val < initial)
        return steps * min(self.tconfig.batch_size, len(self.bundle.samples)), val, ok


class EvalBatch(Workload):
    name = "eval-batch"
    guard_name = "eval_rmse"
    min_rounds = 3   # 13 batch forwards per round
    expected_spans = (
        "attention.attend", "autodiff.softmax", "autodiff.layer_norm", "autodiff.gelu",
        "autodiff.matmul", "topo_bias.uphill_matrix", "topo_bias.bias_tensor",
        "reorder.build_permutation", "reorder.unapply", "model.forward",
        "model.load_checkpoint", "train.prepare_arrays", "evalkit.predict_grids",
        "evalkit.report", "fields.read_grid", "fields.normalize",
    )

    def setup(self) -> None:
        data = self.work / "data"
        self._gen(data)
        self.bundle = synthdata.read_dataset(data)
        mconfig = self._model_config(self.bundle)
        self.ckpt = self.work / "init.gfd"
        model.save_checkpoint(self.ckpt, model.init_params(mconfig, self.seed), mconfig)

    def plan(self, inst: Instrument) -> None:
        inst.op_call(model, "forward",
                     check=lambda res: bool(np.isfinite(res.tokens.data).all()))
        inst.hook(model, "forward", lambda args, kwargs, res: inst.count_tape(res.tokens))

    def _round(self):
        store, mconfig, _moments, _extras = model.load_checkpoint(self.ckpt)
        rep = evalkit.report(store, mconfig, self.bundle, batch=EVAL_BATCH)
        n = self.bundle.mask.count * len(self.bundle.samples)
        cells = [rep.cells.get((c, h)) for c in rep.channels for h in rep.horizons]
        ok = all(
            cell is not None and cell.n == n
            and all(math.isfinite(x) for x in (cell.rmse, cell.mae, cell.r))
            for cell in cells
        ) and len(rep.cells) == len(cells)
        rmse = rep.overall()
        return len(self.bundle.samples), rmse, ok and math.isfinite(rmse)


class GenRoundtrip(Workload):
    name = "gen-roundtrip"
    min_rounds = 3   # the first round of a process is the slowest; keep its share fixed
    expected_spans = (
        "synthdata.make_sample", "synthdata.integrator", "synthdata.synth_wind",
        "synthdata.write_dataset", "synthdata.read_dataset", "fields.write_grid",
        "fields.read_grid", "fields.normalize", "train.prepare_arrays",
        "reorder.build_permutation",
    )

    def setup(self) -> None:
        self.out = self.work / "gen"
        self.written = None

    def plan(self, inst: Instrument) -> None:
        inst.op_call(synthdata, "make_sample", check=self._sample_ok)

        def capture(args, kwargs, result):
            self.written = args

        inst.hook(synthdata, "write_dataset", capture)

    def _sample_ok(self, sample) -> bool:
        """Finite fields, nonnegative concentrations, and the advective CFL bound."""
        inp = sample.input
        if not np.isfinite(inp.data).all():
            return False
        if not all(np.isfinite(t.data).all() and (t.data >= 0).all() for t in sample.targets):
            return False
        if (inp.channel("c") < 0).any():
            return False
        wind = max(np.abs(inp.channel("u")).max(), np.abs(inp.channel("v")).max())
        return float(wind) * self.physics.dt / self.physics.dx <= 0.5

    def _round(self):
        first = len(self.ops)
        self._gen(self.out)
        bundle = synthdata.read_dataset(self.out)
        arrays = train.prepare_arrays(bundle, self._model_config(bundle))
        _out, samples, tw, mask, stats, _seed = self.written
        ok = (
            len(bundle.samples) == len(samples)
            and np.array_equal(bundle.mask.mask, mask.mask)
            and bundle.stats.entries == stats.entries
            and all(_bits_equal(getattr(bundle.terrain, k), getattr(tw, k))
                    for k in ("elevation", "u", "v"))
            and all(np.isfinite(a).all() for a in (arrays.inputs, arrays.target_tokens))
        )
        for i, (back, sent) in enumerate(zip(bundle.samples, samples)):
            same = _bits_equal(back.input.data, sent.input.data) and all(
                _bits_equal(b.data, s.data) for b, s in zip(back.targets, sent.targets)
            ) and len(back.targets) == len(sent.targets)
            if not same:
                self.ops.fail(first + i)
        return len(samples), None, ok


WORKLOADS = {w.name: w for w in (TrainDesk, EvalBatch, GenRoundtrip)}
