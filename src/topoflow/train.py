"""Training: masked objective, AdamW with per-group rates, schedules, fit loop.

The loss is the masked mean squared error summed over every output channel
and horizon, normalized by the number of selected cells alone. Optimization is
decoupled-weight-decay Adam with a global-norm gradient clip, per-group
learning rates from one warmup+cosine schedule, validation every fixed
number of steps, and early stopping on the validation loss.

Update order per step, pinned here because it matters for reproduction:
clip gradients -> update moments and apply the Adam delta -> apply the
multiplicative weight decay (1 - lr*lambda). Everything runs in float32 so
checkpoints (a 32-bit container) round-trip exactly; resuming from the
last checkpoint is bitwise identical to never having stopped.

Batches are drawn independently each step (sampling without replacement
within the batch) from a single generator that also feeds dropout, so the
whole run's randomness is one serializable rng state.

`prepare_arrays` is the one place the model's input stack
(`config.INPUT_CHANNELS`) is assembled: each sample's own channels
(`config.SAMPLE_CHANNELS`) normalized by the dataset's stats, and between
them the planes every sample shares (`config.STATIC_CHANNELS`): x and y at
the cell centres and the terrain's elevation, built once per call from the
grid and `bundle.terrain` and normalized by stats fit on those planes alone,
so the same for every split. It is also the one place that reads the
model's two toggles, turning them into data: every sample's slot order,
from the physical winds (identity rows without wind reordering), becomes
each patch's rank along the wind inside its sector once
(`reorder.sector_ranks`), one (S, N) int array, and the patch elevations
are there only with the elevation bias. A batch hands its rows of ranks
to `model.forward`, which returns raster tokens, so nothing here indexes
by them.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from . import reorder
from .config import INPUT_CHANNELS, SAMPLE_CHANNELS, STATIC_CHANNELS, TrainConfig, encode
from .config import read_lines, write_atomic
from .errors import ConfigError, FormatError, NumericError, ShapeError
from .fields import Field, NormStats, normalize
from .model import ModelConfig, ParamStore, forward, init_params, patchify
from .synthdata import DatasetBundle, norm_kinds
from .topo_bias import patch_elevations

BATCH_STREAM = 4   # SeedSequence lane for batch order + dropout
# AdamW moment decay rates and the denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LOG_HEADER = "# step,train_loss,val_loss,lr_base,alpha\n"


GROUP_RATE_FIELDS = {
    "patch_embed": "lr_embed",
    "head": "lr_head",
    "backbone": "lr_backbone",
    "pos_embed": "lr_base",
    "alpha": "lr_base",
}


def group_rate(config: TrainConfig, group: str) -> float:
    try:
        return getattr(config, GROUP_RATE_FIELDS[group])
    except KeyError:
        raise ConfigError(f"unknown parameter group {group!r}") from None


def lr_at(step: int, config: TrainConfig, group: str) -> float:
    """Linear ramp to the group rate, cosine decay to eta_min, then flat."""
    if step < 0:
        raise ConfigError("step must be >= 0")
    rate = group_rate(config, group)
    if step < config.warmup:
        return rate * step / config.warmup
    if step >= config.total_steps:
        return config.eta_min
    progress = (step - config.warmup) / (config.total_steps - config.warmup)
    return config.eta_min + (rate - config.eta_min) * 0.5 * (1.0 + math.cos(math.pi * progress))


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def _masked_mse_tokens(pred: ad.Tensor, target: np.ndarray, mask_tok: np.ndarray,
                       cell_count: float) -> ad.Tensor:
    """The training loss on (B, N, out_dim) tokens: squared errors summed
    over the entries `mask_tok` selects (every channel and horizon), divided
    by the selected-cell count of one grid times the batch size.

    One tape node with an analytic backward, 2 * (g / denom) * mask * diff,
    that recomputes the error diff = pred - target and keeps nothing but
    its inputs. Forward and backward run the operations of the chain of
    Tensor ops it replaces, ((diff * diff * mask).sum() * (1 / denom)), in
    their order, so the loss and the gradient carry that chain's bits.
    """
    diff = pred.data - target
    total = (diff * diff * mask_tok).sum()
    scale = np.asarray(1.0 / (cell_count * pred.shape[0]), dtype=total.dtype)

    def vjp(g):
        diff = pred.data - target
        gsq = np.broadcast_to(g * scale, np.broadcast_shapes(diff.shape, np.shape(mask_tok)))
        gdiff = ad.unbroadcast(ad.unbroadcast(gsq * mask_tok, diff.shape) * diff, diff.shape)
        return (ad.unbroadcast(gdiff + gdiff, pred.shape),)

    return ad.Tensor._op(np.asarray(total * scale), (pred,), vjp)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    """Everything mutable about a run; serializable for exact resume."""

    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    best_val: float
    bad_count: int
    rng: np.random.Generator
    stopped: bool = False

    @classmethod
    def fresh(cls, store: ParamStore, config: TrainConfig) -> "TrainState":
        zeros = lambda k: np.zeros_like(store[k].data)
        rng = np.random.default_rng(np.random.SeedSequence([int(config.seed), BATCH_STREAM]))
        return cls(0, {k: zeros(k) for k in store.names()},
                   {k: zeros(k) for k in store.names()}, math.inf, 0, rng)

    def extras(self) -> dict[str, str]:
        return {
            "step": str(self.step),
            "best_val": float(self.best_val).hex(),
            "bad_count": str(self.bad_count),
            "stopped": str(self.stopped).lower(),
            "rng": json.dumps(self.rng.bit_generator.state, sort_keys=True),
        }

    @classmethod
    def from_extras(cls, moments, extras: dict[str, str]) -> "TrainState":
        """The state `extras()` wrote; a missing or unparsable `state.*`
        key, `state.stopped` other than `true` or `false` included, raises
        FormatError naming it."""

        def read(key, parse):
            try:
                return parse(extras[key])
            except (KeyError, TypeError, ValueError):
                raise FormatError(f"checkpoint key state.{key} is missing or unparsable") from None

        def generator(text):
            rng = np.random.default_rng()
            rng.bit_generator.state = json.loads(text)
            return rng

        m1, m2 = moments
        return cls(
            step=read("step", int),
            m=m1,
            v=m2,
            best_val=read("best_val", float.fromhex),
            bad_count=read("bad_count", int),
            rng=read("rng", generator),
            stopped=read("stopped", {"true": True, "false": False}.__getitem__),
        )


def clip_gradients(store: ParamStore, max_norm: float) -> float:
    """Scale all gradients so the global norm is at most max_norm."""
    total = 0.0
    for t in store.tensors():
        if t.grad is not None:
            total += float((t.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        # shaved slightly below the exact ratio so float32 rounding can
        # never push the post-clip norm above the bound
        scale = np.float32((max_norm / norm) * (1.0 - 1e-7))
        for t in store.tensors():
            if t.grad is not None:
                t.grad = t.grad * scale
    return norm


def optimize_step(store: ParamStore, state: TrainState, config: TrainConfig) -> None:
    """One clipped AdamW update with per-group learning rates. A tensor with
    no gradient (alpha when the variant has no elevation bias) gets neither
    the Adam step nor weight decay, and its moments stay as they are."""
    for name in store.names():
        g = store[name].grad
        if g is not None and not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for {name}; step aborted")
    clip_gradients(store, config.clip_norm)
    t = state.step + 1
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name in store.names():
        tensor = store[name]
        g = tensor.grad
        if g is None:
            continue
        lr = lr_at(state.step, config, store.group_of(name))
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        mhat = m / bc1
        vhat = v / bc2
        tensor.data = tensor.data - lr * (mhat / (np.sqrt(vhat) + ADAM_EPS))
        if config.weight_decay:
            tensor.data = tensor.data * (1.0 - lr * config.weight_decay)
    state.step = t


# ---------------------------------------------------------------------------
# data preparation
# ---------------------------------------------------------------------------

@dataclass
class TrainingArrays:
    """Dataset tensors, normalized and token-spaced once up front."""

    inputs: np.ndarray           # (S, C, H, W) float32, normalized
    target_tokens: np.ndarray    # (S, N, out_dim) float32, normalized, raster order
    mask_tokens: np.ndarray      # (N, out_dim) float32, raster order, one for all samples
    cell_count: float
    elev_patch: np.ndarray | None  # (N,) meters, None without the elevation bias
    ranks: np.ndarray            # (S, N) int32, row i is sample i's sector ranks


def prepare_arrays(bundle: DatasetBundle, config: ModelConfig) -> TrainingArrays:
    stats = bundle.stats
    spec = config.spec
    samples = bundle.samples
    n_out = config.n_horizons * config.v_out
    orders = np.tile(np.arange(spec.n_patches, dtype=np.int32), (len(samples), 1))
    if config.wind_reorder:
        # the orders come from the physical winds, not the z-scored inputs
        for i, s in enumerate(samples):
            orders[i] = reorder.build_permutation(spec, s.input.channel("u"),
                                                  s.input.channel("v"))[0]
    # x and y at the cell centres and the elevation, the same for every sample
    rows, cols = np.indices((spec.height, spec.width))
    planes = [(cols + 0.5) / spec.width, (rows + 0.5) / spec.height, bundle.terrain.elevation]
    shared = Field(spec, STATIC_CHANNELS, np.stack(planes), ("", "", "m"))
    # the stacks are allocated once and filled a sample at a time, so no
    # temporary is larger than one sample's fields
    inputs = np.empty((len(samples), len(INPUT_CHANNELS), spec.height, spec.width),
                      dtype=np.float32)
    inputs[:, [INPUT_CHANNELS.index(n) for n in STATIC_CHANNELS]] = normalize(
        shared, NormStats.fit([shared], norm_kinds())).data
    own = [INPUT_CHANNELS.index(n) for n in SAMPLE_CHANNELS]
    target_tokens = np.empty((len(samples), spec.n_patches, n_out * spec.patch**2),
                             dtype=np.float32)
    for i, s in enumerate(samples):
        inputs[i, own] = normalize(s.input, stats).data
        grid = np.concatenate([normalize(t, stats).data for t in s.targets])
        if grid.shape[0] != n_out:
            raise ShapeError(
                f"dataset provides {grid.shape[0]} target channels, model expects {n_out}"
            )
        target_tokens[i] = patchify(grid, spec)
    mask_tokens = np.tile(
        patchify(bundle.mask.mask[None].astype(np.float32), spec), (1, n_out)
    )
    elev_patch = patch_elevations(bundle.terrain.elevation, spec) if config.elev_bias else None
    ranks = reorder.sector_ranks(orders, reorder._sector_layout(spec))
    return TrainingArrays(inputs, target_tokens, mask_tokens, float(bundle.mask.count),
                          elev_patch, ranks)


def split_indices(n: int, val_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """(train, validation) indices of n samples: the last
    max(1, round(n * val_fraction)) samples validate, the rest train."""
    n_val = max(1, int(round(n * val_fraction)))
    return np.arange(n - n_val), np.arange(n - n_val, n)


def _batch_loss(
    store: ParamStore,
    config: ModelConfig,
    arrays: TrainingArrays,
    idx: np.ndarray,
    train: bool,
    rng: np.random.Generator | None,
) -> ad.Tensor:
    res = forward(
        store,
        config,
        arrays.inputs[idx],
        arrays.ranks[idx],
        elev_patch_m=arrays.elev_patch,
        train=train,
        rng=rng,
    )
    # the one raster mask broadcasts over the batch
    return _masked_mse_tokens(
        res.tokens,
        arrays.target_tokens[idx],
        arrays.mask_tokens,
        arrays.cell_count,
    )


def evaluate_loss(
    store: ParamStore,
    config: ModelConfig,
    arrays: TrainingArrays,
    indices: np.ndarray,
    batch: int,
) -> float:
    """Mean loss over a sample set, dropout off, batched, with no tape."""
    total = 0.0
    with ad.no_grad():
        for start in range(0, len(indices), batch):
            idx = indices[start : start + batch]
            loss = _batch_loss(store, config, arrays, idx, train=False, rng=None)
            total += float(loss.data) * len(idx)
    return total / len(indices)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    state: TrainState
    store: ParamStore
    best_val: float
    final_val: float
    history: list[tuple]
    best_path: Path
    last_path: Path
    seconds: float


def fit(
    bundle: DatasetBundle,
    config: ModelConfig,
    tconfig: TrainConfig,
    out_dir,
    resume: bool = False,
) -> FitResult:
    """Train to the step budget or early stop; persist best + last checkpoints.

    Every validation appends a loss-curve line (`step,train_loss,val_loss,
    lr_base,alpha`) to out_dir's `loss_log.txt`, then saves `last` with the
    run state and TrainConfig. `resume=True` continues from out_dir's `last`,
    bitwise identical to an uninterrupted run even after a kill; a changed
    config raises ConfigError, a missing log starts over from its header, and
    a log row whose step is not an integer raises FormatError.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    arrays = prepare_arrays(bundle, config)
    n = len(bundle.samples)
    train_idx, val_idx = split_indices(n, tconfig.val_fraction)
    if not len(train_idx):
        raise ConfigError(f"{n} samples cannot host a {tconfig.val_fraction} validation split")

    last_path = out / "last.gfd"
    best_path = out / "best.gfd"
    log_path = out / "loss_log.txt"
    train_kv = encode(tconfig, "train")

    if resume:
        if not last_path.exists():
            raise ConfigError("resume requested but no last checkpoint found")
        store, ckpt_config, moments, extras = model_mod.load_checkpoint(last_path)
        if ckpt_config != config:
            raise ConfigError("checkpoint model config does not match the requested one")
        changed = [k for k, v in train_kv.items() if extras.get(k) != v]
        if changed:
            raise ConfigError(f"checkpoint train config differs in {', '.join(changed)}")
        state = TrainState.from_extras(moments, extras)
    else:
        store = init_params(config, tconfig.seed)
        state = TrainState.fresh(store, tconfig)

    history: list[tuple] = []
    rows = []
    if resume and log_path.exists():
        # later rows come from a run killed before its `last` save or mid-row
        for ln, row in read_lines(log_path, FormatError):
            step = row.split(",", 1)[0]
            if ln > 1 and not step.isdecimal():
                raise FormatError(f"{log_path}:{ln}: step {step!r} is not an integer")
            if ln > 1 and row.endswith("\n") and int(step) <= state.step:
                rows.append(row)
    write_atomic(log_path, (LOG_HEADER + "".join(rows)).encode("utf-8"))

    def log(step, train_loss, val_loss):
        lr = lr_at(step, tconfig, "pos_embed")
        alpha = float(store["alpha"].data)
        history.append((step, train_loss, val_loss, lr, alpha))
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(f"{step},{_fmt(train_loss)},{_fmt(val_loss)},{_fmt(lr)},{_fmt(alpha)}\n")

    def save_last():
        model_mod.save_checkpoint(last_path, store, config, moments=(state.m, state.v),
                                  extras={**state.extras(), **train_kv})

    def validate(step, train_loss) -> float:
        val = evaluate_loss(store, config, arrays, val_idx, tconfig.batch_size)
        if val < state.best_val:
            state.best_val = val
            state.bad_count = 0
            model_mod.save_checkpoint(best_path, store, config, extras={"step": str(step)})
        elif step >= tconfig.warmup:
            state.bad_count += 1
            if state.bad_count > tconfig.patience:
                state.stopped = True
        log(step, train_loss, val)
        save_last()
        return val

    if not resume:
        validate(0, math.nan)  # baseline before any update

    final_val = state.best_val
    while state.step < tconfig.total_steps and not state.stopped:
        idx = state.rng.choice(len(train_idx), size=min(tconfig.batch_size, len(train_idx)),
                               replace=False)
        ad.zero_grads(store.tensors())
        loss = _batch_loss(store, config, arrays, train_idx[idx], train=True,
                           rng=state.rng)
        loss.backward()
        optimize_step(store, state, tconfig)
        train_loss = float(loss.data)
        # free this step's tape before the next forward builds its own, so
        # two steps' saved activations are never held at once
        del loss
        # validating only on interval multiples keeps interrupted-and-resumed
        # logs identical to uninterrupted ones
        if state.step % tconfig.val_interval == 0:
            final_val = validate(state.step, train_loss)
    if state.step % tconfig.val_interval:
        save_last()
    if not best_path.exists():
        model_mod.save_checkpoint(best_path, store, config, extras={"step": str(state.step)})
    return FitResult(
        state=state,
        store=store,
        best_val=state.best_val,
        final_val=final_val,
        history=history,
        best_path=best_path,
        last_path=last_path,
        seconds=time.monotonic() - t0,
    )


def _fmt(x: float) -> str:
    return "nan" if isinstance(x, float) and math.isnan(x) else repr(float(x))
