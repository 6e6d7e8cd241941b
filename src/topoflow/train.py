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
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from .config import encode
from .errors import ConfigError, NumericError, ShapeError
from .fields import normalize, write_atomic
from .model import ForwardResult, ModelConfig, ParamStore, forward, init_params, patchify
from .synthdata import DatasetBundle
from .topo_bias import patch_elevations

BATCH_STREAM = 4   # SeedSequence lane for batch order + dropout
# AdamW moment decay rates and the denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LOG_HEADER = "# step,train_loss,val_loss,lr_base,alpha\n"


@dataclass(frozen=True)
class TrainConfig:
    """Optimization constants; defaults follow the full-scale recipe."""

    lr_base: float = 1e-4        # positional table, alpha
    lr_embed: float = 2e-4       # patch embedding
    lr_head: float = 5e-5        # prediction head
    lr_backbone: float = 1e-5    # transformer blocks
    weight_decay: float = 0.01
    warmup: int = 2000
    total_steps: int = 20000
    eta_min: float = 1e-6
    clip_norm: float = 1.0
    batch_size: int = 8
    epochs: int = 60             # cap; total_steps is the binding budget
    patience: int = 10
    val_interval: int = 100
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.warmup < 0:
            raise ConfigError(f"train.warmup = {self.warmup} < 0")
        if self.warmup > self.total_steps:
            raise ConfigError(
                f"train.warmup = {self.warmup} > train.total_steps = {self.total_steps}"
            )
        for name in ("lr_base", "lr_embed", "lr_head", "lr_backbone"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if self.batch_size < 1 or self.val_interval < 1 or self.epochs < 1:
            raise ConfigError("batch_size, val_interval and epochs must be >= 1")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError("val_fraction must be in (0, 1)")


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
    by the selected-cell count of one grid times the batch size."""
    denom = cell_count * pred.shape[0]
    diff = pred - ad.Tensor(target)
    return (diff * diff * ad.Tensor(mask_tok)).sum() * (1.0 / denom)


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
        rng = np.random.default_rng()
        rng.bit_generator.state = json.loads(extras["rng"])
        m1, m2 = moments
        return cls(
            step=int(extras["step"]),
            m=m1,
            v=m2,
            best_val=float.fromhex(extras["best_val"]),
            bad_count=int(extras["bad_count"]),
            rng=rng,
            stopped=extras.get("stopped") == "true",
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
    """One clipped AdamW update with per-group learning rates."""
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
            g = np.zeros_like(tensor.data)
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
    target_tokens: np.ndarray    # (S, N, out_dim) float32, normalized, slot order
    mask_tokens: np.ndarray      # (S, N, out_dim) float32, slot order
    cell_count: float
    elev_patch: np.ndarray       # (N,) meters
    perms: list                  # per-sample SectorPermutation


def prepare_arrays(bundle: DatasetBundle, config: ModelConfig) -> TrainingArrays:
    stats = bundle.stats
    spec = config.spec
    inputs = np.stack([normalize(s.input, stats).data for s in bundle.samples])
    n_out = config.n_horizons * config.v_out
    target_grids = np.stack(
        [
            np.concatenate([normalize(t, stats).data for t in s.targets])
            for s in bundle.samples
        ]
    )
    if target_grids.shape[1] != n_out:
        raise ShapeError(
            f"dataset provides {target_grids.shape[1]} target channels, model expects {n_out}"
        )
    target_tokens = patchify(target_grids, spec).astype(np.float32)
    mask_tok = np.tile(
        patchify(bundle.mask.mask[None].astype(np.float32), spec), (1, n_out)
    )
    if config.wind_reorder:
        # permutations come from the physical winds, not the z-scored inputs
        raw_u = np.stack([s.input.channel("u") for s in bundle.samples])
        raw_v = np.stack([s.input.channel("v") for s in bundle.samples])
        perms = model_mod.build_perms(config, raw_u, raw_v)
        target_tokens = np.stack(
            [target_tokens[i][p.forward] for i, p in enumerate(perms)]
        )
        mask_tokens = np.stack([mask_tok[p.forward] for p in perms])
    else:
        from .reorder import SectorPermutation

        perms = [SectorPermutation.identity(spec)] * len(bundle.samples)
        mask_tokens = np.broadcast_to(
            mask_tok, (len(bundle.samples),) + mask_tok.shape
        ).copy()
    elev_patch = patch_elevations(bundle.terrain.elevation, spec)
    return TrainingArrays(
        inputs.astype(np.float32),
        target_tokens,
        mask_tokens,
        float(bundle.mask.count),
        elev_patch,
        perms,
    )


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
        elev_patch_m=arrays.elev_patch,
        perms=[arrays.perms[i] for i in idx],
        train=train,
        rng=rng,
    )
    return _masked_mse_tokens(
        res.tokens,
        arrays.target_tokens[idx],
        arrays.mask_tokens[idx],
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
    history: list[tuple] = dc_field(default_factory=list)
    best_path: Path | None = None
    last_path: Path | None = None
    seconds: float = 0.0


def fit(
    bundle: DatasetBundle,
    config: ModelConfig,
    tconfig: TrainConfig,
    out_dir=None,
    resume: bool = False,
) -> FitResult:
    """Train to the step budget or early stop; persist best + last checkpoints.

    Every validation appends a loss-curve line (`step,train_loss,val_loss,
    lr_base,alpha`), then saves `last` with the run state and TrainConfig.
    `resume=True` continues from out_dir's `last`, bitwise identical to an
    uninterrupted run even after a kill; a changed config raises ConfigError.
    """
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    arrays = prepare_arrays(bundle, config)
    n = len(bundle.samples)
    train_idx, val_idx = split_indices(n, tconfig.val_fraction)
    if not len(train_idx):
        raise ConfigError(f"{n} samples cannot host a {tconfig.val_fraction} validation split")

    last_path = out / "last.gfd" if out else None
    best_path = out / "best.gfd" if out else None
    log_path = out / "loss_log.txt" if out else None
    train_kv = encode(tconfig, "train")

    if resume:
        if last_path is None or not last_path.exists():
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

    steps_per_epoch = max(1, math.ceil(len(train_idx) / tconfig.batch_size))
    max_steps = min(tconfig.total_steps, tconfig.epochs * steps_per_epoch)

    history: list[tuple] = []
    if log_path is not None:
        # rows past the checkpoint come from a run killed before its `last` save
        rows = log_path.read_text(encoding="utf-8").splitlines(True)[1:] if resume else []
        rows = [r for r in rows if r.endswith("\n") and int(r.split(",", 1)[0]) <= state.step]
        write_atomic(log_path, (LOG_HEADER + "".join(rows)).encode("utf-8"))

    def log(step, train_loss, val_loss):
        lr = lr_at(step, tconfig, "pos_embed")
        alpha = float(store["alpha"].data)
        history.append((step, train_loss, val_loss, lr, alpha))
        if log_path is not None:
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(
                    f"{step},{_fmt(train_loss)},{_fmt(val_loss)},{_fmt(lr)},{_fmt(alpha)}\n"
                )

    def save_last():
        if last_path is not None:
            model_mod.save_checkpoint(last_path, store, config, moments=(state.m, state.v),
                                      extras={**state.extras(), **train_kv})

    def validate(step, train_loss) -> float:
        val = evaluate_loss(store, config, arrays, val_idx, tconfig.batch_size)
        if val < state.best_val:
            state.best_val = val
            state.bad_count = 0
            if best_path is not None:
                model_mod.save_checkpoint(best_path, store, config, extras={"step": str(step)})
        elif step >= tconfig.warmup:
            state.bad_count += 1
            if state.bad_count > tconfig.patience:
                state.stopped = True
        log(step, train_loss, val)
        save_last()
        return val

    if not resume and state.step == 0:
        validate(0, math.nan)  # baseline before any update

    final_val = state.best_val
    while state.step < max_steps and not state.stopped:
        idx = state.rng.choice(len(train_idx), size=min(tconfig.batch_size, len(train_idx)),
                               replace=False)
        ad.zero_grads(store.tensors())
        loss = _batch_loss(store, config, arrays, train_idx[idx], train=True,
                           rng=state.rng)
        loss.backward()
        optimize_step(store, state, tconfig)
        # validating only on interval multiples keeps interrupted-and-resumed
        # logs identical to uninterrupted ones
        if state.step % tconfig.val_interval == 0:
            final_val = validate(state.step, float(loss.data))
    if state.step % tconfig.val_interval:
        save_last()
    if best_path is not None and not best_path.exists():
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


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

ABLATION_VARIANTS = {
    "baseline": (False, False),
    "wind": (True, False),
    "wind_elev": (True, True),
}


@dataclass
class AblationRow:
    variant: str
    seed: int
    wind_reorder: bool
    elev_bias: bool
    best_val: float
    final_val: float
    seconds: float


def ablation_run(
    bundle: DatasetBundle,
    seeds,
    config: ModelConfig,
    tconfig: TrainConfig,
    variants: dict[str, tuple[bool, bool]] | None = None,
    out_dir=None,
) -> list[AblationRow]:
    """Train every (variant, seed) pair and collect validation losses."""
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("ablation needs at least one seed")
    variants = dict(variants) if variants is not None else dict(ABLATION_VARIANTS)
    rows: list[AblationRow] = []
    for name, (wind, elev) in variants.items():
        for seed in seeds:
            mcfg = dataclasses.replace(config, wind_reorder=wind, elev_bias=elev)
            tcfg = dataclasses.replace(tconfig, seed=int(seed))
            run_dir = None
            if out_dir is not None:
                run_dir = Path(out_dir) / f"{name}_seed{seed}"
            result = fit(bundle, mcfg, tcfg, out_dir=run_dir)
            rows.append(
                AblationRow(name, int(seed), wind, elev, result.best_val,
                            result.final_val, result.seconds)
            )
    return rows


def median_best_by_variant(rows: list[AblationRow]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name in {r.variant for r in rows}:
        vals = sorted(r.best_val for r in rows if r.variant == name)
        mid = len(vals) // 2
        out[name] = vals[mid] if len(vals) % 2 else 0.5 * (vals[mid - 1] + vals[mid])
    return out


def sector_sweep(
    bundle: DatasetBundle,
    tiles_list,
    config: ModelConfig,
    tconfig: TrainConfig,
    out_dir=None,
) -> list[dict]:
    """Train the wind-reorder variant across sector granularities.

    `tiles_list` holds (label, tiles_y, tiles_x) entries; tiles are the
    sector grid (1x1 = one global sector). Emits rows with the granularity
    sweep schema: strategy, tiles, loss, delta vs the first row.
    """
    rows: list[dict] = []
    base_loss = None
    for label, ty, tx in tiles_list:
        spec = config.spec
        if spec.patches_y % ty or spec.patches_x % tx:
            raise ConfigError(f"tile grid {ty}x{tx} does not divide patch grid")
        new_spec = dataclasses.replace(
            spec, sector_rows=spec.patches_y // ty, sector_cols=spec.patches_x // tx
        )
        mcfg = dataclasses.replace(config, spec=new_spec, wind_reorder=True)
        run_dir = Path(out_dir) / f"tiles_{label}" if out_dir is not None else None
        result = fit(bundle, mcfg, tconfig, out_dir=run_dir)
        if base_loss is None:
            base_loss = result.best_val
        rows.append(
            {
                "strategy": label,
                "tiles": f"{ty}x{tx}",
                "loss": result.best_val,
                "delta": result.best_val - base_loss,
            }
        )
    return rows
