import dataclasses
import math
import os
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

from topoflow import autodiff as ad
from topoflow import model, synthdata, train
from topoflow.cli import ABLATION_VARIANTS
from topoflow.config import DataConfig
from topoflow.errors import ConfigError, NumericError
from topoflow.fields import GridSpec, LandMask, NormStats
from topoflow.model import ModelConfig, init_params, patchify
from topoflow.train import TrainConfig, TrainState, lr_at


SPEC = GridSpec(8, 16, 2, 4, 2)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    tw = synthdata.gen_terrain(SPEC, 3, DataConfig(), synthdata.PhysicsConfig())
    cfg = synthdata.PhysicsConfig(substeps=2)
    data = DataConfig(count=24, horizons=(12, 24), init_mode="blobs")
    samples = synthdata.make_dataset(SPEC, tw, cfg, data, seed=7)
    stats = NormStats.fit([s.input for s in samples], synthdata.norm_kinds())
    mask = synthdata.study_mask(SPEC)
    return synthdata.DatasetBundle(SPEC, tuple(samples), tw, mask, stats, (12, 24), 0.25)


def tiny_model(**over):
    base = dict(spec=SPEC, d=16, layers=1, heads=2, mlp_hidden=32, head_hidden=32,
                dropout=0.1, n_horizons=2)
    base.update(over)
    return ModelConfig(**base)


def quick_train(**over):
    base = dict(warmup=2, total_steps=6, batch_size=4, val_interval=2,
                patience=10, seed=0, val_fraction=0.25)
    base.update(over)
    return TrainConfig(**base)


# -- masked mse ------------------------------------------------------------------

def cell_tokens(grid):
    """(B, C, H, W) grids -> (B, H*W, C) tokens, one 1x1 patch per cell."""
    grid = np.asarray(grid, dtype=np.float64)
    return patchify(grid, GridSpec(grid.shape[-2], grid.shape[-1], 1, 1, 1))


def token_mse(pred, target, mask):
    """`train._masked_mse_tokens`, the loss `fit` trains with, on (B, C, H, W)
    grids as cell tokens; `pred` may also be a Tensor of cell tokens."""
    pred_tok = pred if isinstance(pred, ad.Tensor) else ad.Tensor(cell_tokens(pred))
    mask_tok = cell_tokens(mask.mask[None, None])[0]  # (N, 1), broadcast over channels
    return train._masked_mse_tokens(pred_tok, cell_tokens(target), mask_tok, float(mask.count))


def test_masked_mse_hand_case():
    spec = GridSpec(2, 2, 1, 1, 1)
    mask = LandMask(spec, np.array([[1, 0], [1, 1]]))
    target = np.zeros((1, 1, 2, 2))
    pred = np.array([[[[3.0, 9.0], [1.0, 2.0]]]])
    assert float(token_mse(pred, target, mask).data) == pytest.approx(14.0 / 3.0)


def test_masked_mse_zero_when_equal_and_nonnegative():
    rng = np.random.default_rng(0)
    spec = GridSpec(4, 4, 2, 2, 2)
    mask = LandMask(spec, np.ones((4, 4)))
    x = rng.normal(size=(1, 3, 4, 4))
    assert float(token_mse(x, x, mask).data) == 0.0
    assert float(token_mse(x, x + 1.0, mask).data) > 0.0


def test_masked_cells_are_invisible_to_loss_and_gradient():
    spec = GridSpec(2, 2, 1, 1, 1)
    mask = LandMask(spec, np.array([[1, 0], [1, 1]]))
    target = np.zeros((1, 1, 2, 2))
    pred = ad.parameter(cell_tokens([[[[3.0, 9.0], [1.0, 2.0]]]]))
    loss = token_mse(pred, target, mask)
    loss.backward()
    assert pred.grad[0, 1, 0] == 0.0  # cell (0, 1) is token 1
    perturbed = pred.data.copy()
    perturbed[0, 1, 0] = 1e9
    assert float(token_mse(ad.Tensor(perturbed), target, mask).data) == pytest.approx(14.0 / 3.0)


def test_masked_mse_batch_and_per_channel():
    spec = GridSpec(2, 2, 1, 1, 1)
    mask = LandMask(spec, np.ones((2, 2)))
    pred = np.ones((2, 3, 2, 2))
    target = np.zeros((2, 3, 2, 2))
    assert float(token_mse(pred, target, mask).data) == pytest.approx(3.0)  # summed channels


# -- schedule -----------------------------------------------------------------------

def test_lr_schedule_endpoints():
    cfg = TrainConfig(warmup=2000, total_steps=20000)
    assert lr_at(0, cfg, "pos_embed") == 0.0
    assert lr_at(2000, cfg, "pos_embed") == pytest.approx(1e-4)
    assert lr_at(20000, cfg, "pos_embed") == pytest.approx(1e-6)
    assert lr_at(25000, cfg, "pos_embed") == pytest.approx(1e-6)


def test_lr_schedule_group_rates():
    cfg = TrainConfig(warmup=2000, total_steps=20000)
    assert lr_at(cfg.warmup, cfg, "patch_embed") == pytest.approx(2e-4)
    assert lr_at(cfg.warmup, cfg, "head") == pytest.approx(5e-5)
    assert lr_at(cfg.warmup, cfg, "backbone") == pytest.approx(1e-5)
    assert lr_at(cfg.warmup, cfg, "alpha") == pytest.approx(1e-4)
    with pytest.raises(ConfigError):
        lr_at(0, cfg, "unknown_group")


def test_lr_schedule_continuity_at_warmup():
    cfg = TrainConfig(warmup=137, total_steps=4000)
    for group in train.GROUP_RATE_FIELDS:
        gap = abs(lr_at(136, cfg, group) - lr_at(137, cfg, group))
        assert gap <= train.group_rate(cfg, group) / 137 + 1e-12


def test_lr_monotone_decay_after_warmup():
    cfg = TrainConfig(warmup=10, total_steps=200)
    values = [lr_at(s, cfg, "pos_embed") for s in range(10, 201)]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


# -- optimizer -----------------------------------------------------------------------

def scalar_store(value=1.0):
    params = {"alpha": ad.parameter(np.array(value, dtype=np.float32))}
    return model.ParamStore(params, {"alpha": "alpha"})


def test_adamw_single_step_hand_oracle():
    cfg = TrainConfig(warmup=0, total_steps=10, weight_decay=0.01, clip_norm=1e9)
    store = scalar_store(1.0)
    store["alpha"].grad = np.array(0.5, dtype=np.float32)
    state = TrainState.fresh(store, cfg)
    train.optimize_step(store, state, cfg)
    # hand-executed update, step 1, lr = cosine start = lr_base
    lr = lr_at(0, cfg, "alpha")
    m = 0.1 * 0.5
    v = 0.001 * 0.25
    mhat = m / (1 - 0.9)
    vhat = v / (1 - 0.999)
    expect = 1.0 - lr * (mhat / (math.sqrt(vhat) + 1e-8))
    expect *= 1.0 - lr * 0.01
    assert float(store["alpha"].data) == pytest.approx(expect, rel=1e-6)
    assert state.step == 1


def test_zero_gradients_no_decay_leaves_parameters():
    cfg = TrainConfig(warmup=0, total_steps=10, weight_decay=0.0)
    store = scalar_store(1.5)
    store["alpha"].grad = np.array(0.0, dtype=np.float32)
    state = TrainState.fresh(store, cfg)
    train.optimize_step(store, state, cfg)
    assert float(store["alpha"].data) == 1.5


def test_zero_gradients_with_decay_shrink_multiplicatively():
    cfg = TrainConfig(warmup=0, total_steps=10, weight_decay=0.01)
    store = scalar_store(2.0)
    store["alpha"].grad = np.array(0.0, dtype=np.float32)
    state = TrainState.fresh(store, cfg)
    train.optimize_step(store, state, cfg)
    lr = lr_at(0, cfg, "alpha")
    assert float(store["alpha"].data) == pytest.approx(2.0 * (1 - lr * 0.01), rel=1e-6)


def test_parameter_without_gradient_is_neither_stepped_nor_decayed(tmp_path, bundle):
    # without the elevation bias alpha gets no gradient, so a baseline keeps
    # it at its initial value, moments included, through every step
    from topoflow.topo_bias import ALPHA_INIT

    mcfg = tiny_model(wind_reorder=False, elev_bias=False)
    result = train.fit(bundle, mcfg, quick_train(total_steps=2), out_dir=tmp_path)
    assert result.state.step == 2
    assert result.store["alpha"].data.tobytes() == np.float32(ALPHA_INIT).tobytes()
    assert not result.state.m["alpha"].any() and not result.state.v["alpha"].any()
    assert all(row[4] == ALPHA_INIT for row in result.history)


def test_clipping_scales_by_global_norm():
    cfg = TrainConfig(warmup=2000, total_steps=20000)
    config = tiny_model(dropout=0.0)
    store = init_params(config, seed=0)
    g = {}
    total = 0.0
    rng = np.random.default_rng(1)
    for name in store.names():
        store[name].grad = rng.normal(size=store[name].data.shape).astype(np.float32)
        g[name] = store[name].grad.copy()
        total += float((g[name].astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    assert norm > 1.0
    returned = train.clip_gradients(store, cfg.clip_norm)
    assert returned == pytest.approx(norm)
    post = math.sqrt(
        sum(float((store[n].grad.astype(np.float64) ** 2).sum()) for n in store.names())
    )
    assert post <= 1.0 + 1e-9
    name = store.names()[0]
    np.testing.assert_allclose(store[name].grad, g[name] / norm, rtol=1e-5)


def test_nonfinite_gradient_aborts_without_mutation():
    cfg = TrainConfig(warmup=0, total_steps=10)
    store = scalar_store(1.0)
    store["alpha"].grad = np.array(np.inf, dtype=np.float32)
    state = TrainState.fresh(store, cfg)
    with pytest.raises(NumericError):
        train.optimize_step(store, state, cfg)
    assert float(store["alpha"].data) == 1.0
    assert state.step == 0


# -- fit ---------------------------------------------------------------------------

def test_fit_writes_logs_and_checkpoints(tmp_path, bundle):
    result = train.fit(bundle, tiny_model(), quick_train(), out_dir=tmp_path / "run")
    assert (tmp_path / "run" / "loss_log.txt").exists()
    assert result.best_path.exists() and result.last_path.exists()
    assert result.state.step == 6
    lines = (tmp_path / "run" / "loss_log.txt").read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 1 + len(result.history)
    # baseline row at step 0 plus one row per validation
    assert result.history[0][0] == 0 and math.isnan(result.history[0][1])
    assert result.best_val <= result.history[0][2] + 1e-9


def test_fit_deterministic_bitwise(tmp_path, bundle):
    a = train.fit(bundle, tiny_model(), quick_train(), out_dir=tmp_path / "a")
    b = train.fit(bundle, tiny_model(), quick_train(), out_dir=tmp_path / "b")
    assert a.history == b.history
    assert (tmp_path / "a" / "last.gfd").read_bytes() == (tmp_path / "b" / "last.gfd").read_bytes()
    c = train.fit(bundle, tiny_model(), quick_train(seed=1), out_dir=tmp_path / "c")
    assert a.history != c.history


def test_fit_drops_each_step_tape_before_the_next_forward(tmp_path, bundle, monkeypatch):
    batch_loss = train._batch_loss
    previous = []   # weak references into the last training step's tape

    def traced(*args, **kwargs):
        if kwargs["train"]:
            assert all(ref() is None for ref in previous), "last step's tape is alive"
            previous.clear()
        loss = batch_loss(*args, **kwargs)
        if kwargs["train"]:
            nodes, stack = [], [loss]
            while stack:
                node = stack.pop()
                if node._vjp is not None:
                    nodes.append(node)
                    stack.extend(node._parents)
            largest = max(nodes, key=lambda t: t.data.nbytes)
            previous.extend(weakref.ref(t.data) for t in (loss, largest))
        return loss

    monkeypatch.setattr(train, "_batch_loss", traced)
    result = train.fit(bundle, tiny_model(), quick_train(), out_dir=tmp_path)
    assert result.state.step == 6 and len(previous) == 2


# CRC-32 of `last.gfd` after `quick_train()` on `tiny_model()`: both
# mechanisms and dropout on, 6 steps. A refactor that must leave training
# bitwise unchanged keeps this value; one that moves any bit of any
# parameter or Adam moment changes it. `VARIANT_CRC32` pins each
# component-ablation variant the same way. The terrain relief is scaled x8 so
# that climbs beyond 5 km put part of the penalty on its clamp floor (the
# generated terrain climbs at most ~1.1 km, which alpha ~2 never clamps).
# The value moved when the attention node began to take the penalty as one
# raster table: the alpha and `pos.rel` gradients are now summed per layer
# over (N, N) tables, not once over a (B, 1, N, N) bias, which moves their
# float32 rounding; every other gradient kept its bits. It moved again when
# the attention blocks were laid out keys x queries with the softmax divide
# on the context: the column sums, the divide and the backward's D term
# round differently, so every trained bit moves. It moved once more when
# the tokens stayed in raster order and the slot orders only mapped the
# relative table: each query's column sums its keys in raster order, so
# the wind variants move at float32 rounding. It moved again when the
# attention node began to build each sample's bias from `pos.rel`'s
# sector blocks: the forward kept every bit, but `pos.rel`'s gradient is
# summed per sample in float64 by rank offset instead of over an (N, N)
# float32 slot-table gradient, which moves its float32 rounding, and the
# training steps carry that into every parameter.
LAST_GFD_CRC32 = "3bec816b"
# The baseline's value moved when the positional vectors stopped being
# gathered through the slot orders: they are added to the batch as they
# are, so the `pos.grid` and `pos.proj` gradients are float32 sums over
# the batch instead of the gather's float64 scatter-add. Its attention
# kept every bit. The baseline's and the wind variant's values moved with
# LAST_GFD_CRC32's last move, for the same `pos.rel` gradient rounding.
VARIANT_CRC32 = {"baseline": "a790d736", "wind": "ed731f4f", "wind_elev": LAST_GFD_CRC32}


@pytest.mark.parametrize("variant", sorted(VARIANT_CRC32))
def test_fit_checkpoint_bytes_pinned(tmp_path, bundle, variant):
    terrain = dataclasses.replace(bundle.terrain, elevation=8.0 * bundle.terrain.elevation)
    steep = dataclasses.replace(bundle, terrain=terrain)
    wind, elev = ABLATION_VARIANTS[variant]
    mcfg = tiny_model(wind_reorder=wind, elev_bias=elev)
    assert mcfg.dropout > 0.0
    train.fit(steep, mcfg, quick_train(), out_dir=tmp_path)
    assert f"{zlib.crc32((tmp_path / 'last.gfd').read_bytes()):08x}" == VARIANT_CRC32[variant]


RUN_FILES = ("last.gfd", "last.gfd.txt", "best.gfd", "loss_log.txt")


def assert_same_run(a, b):
    for name in RUN_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert not list(b.glob("*.tmp"))


def test_resume_equivalence_bitwise(tmp_path, bundle, monkeypatch):
    """A run killed during step 4 of 6 resumes to the uninterrupted bytes."""
    mcfg, tcfg = tiny_model(), quick_train(total_steps=6)
    full = train.fit(bundle, mcfg, tcfg, out_dir=tmp_path / "full")
    real_step = train.optimize_step

    def killed_step(store, state, config):
        real_step(store, state, config)
        if state.step == 4:
            raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(train, "optimize_step", killed_step)
        with pytest.raises(KeyboardInterrupt):
            train.fit(bundle, mcfg, tcfg, out_dir=tmp_path / "killed")
    assert "state.step = 2\n" in (tmp_path / "killed" / "last.gfd.txt").read_text()
    resumed = train.fit(bundle, mcfg, tcfg, out_dir=tmp_path / "killed", resume=True)
    assert resumed.state.step == full.state.step == 6
    assert_same_run(tmp_path / "full", tmp_path / "killed")


def test_resume_after_kill_inside_last_save(tmp_path, bundle, monkeypatch):
    """Killed inside the step-4 `last` save, after step 4's log line and
    before the new payload replaces the old: the step-2 pair stays whole,
    and the resume cuts the log back to step 2."""
    mcfg, tcfg = tiny_model(), quick_train(total_steps=6)
    train.fit(bundle, mcfg, tcfg, out_dir=tmp_path / "full")
    run = tmp_path / "killed"
    real_replace = os.replace
    last_replaces = []

    def killed_replace(src, dst):
        if Path(dst) == run / "last.gfd":
            last_replaces.append(dst)
            if len(last_replaces) == 3:  # saves at steps 0, 2, 4
                raise KeyboardInterrupt
        real_replace(src, dst)

    with monkeypatch.context() as m:
        m.setattr(os, "replace", killed_replace)
        with pytest.raises(KeyboardInterrupt):
            train.fit(bundle, mcfg, tcfg, out_dir=run)
    assert (run / "loss_log.txt").read_text().splitlines()[-1].startswith("4,")
    assert (run / "last.gfd.tmp").exists()
    assert "state.step = 2\n" in (run / "last.gfd.txt").read_text()
    train.fit(bundle, mcfg, tcfg, out_dir=run, resume=True)
    assert_same_run(tmp_path / "full", run)


def test_resume_without_a_log_starts_it_over(tmp_path, bundle, monkeypatch):
    """A run killed during step 4 of 6 whose log is then lost resumes from
    `last` to the uninterrupted bytes, with a log of the rows past step 2."""
    mcfg, tcfg = tiny_model(), quick_train(total_steps=6)
    train.fit(bundle, mcfg, tcfg, out_dir=tmp_path / "full")
    run = tmp_path / "killed"
    real_step = train.optimize_step

    def killed_step(store, state, config):
        real_step(store, state, config)
        if state.step == 4:
            raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(train, "optimize_step", killed_step)
        with pytest.raises(KeyboardInterrupt):
            train.fit(bundle, mcfg, tcfg, out_dir=run)
    assert "state.step = 2\n" in (run / "last.gfd.txt").read_text()
    (run / "loss_log.txt").unlink()
    train.fit(bundle, mcfg, tcfg, out_dir=run, resume=True)
    assert (run / "last.gfd").read_bytes() == (tmp_path / "full" / "last.gfd").read_bytes()
    full_log = (tmp_path / "full" / "loss_log.txt").read_text().splitlines(True)
    past = [r for r in full_log[1:] if int(r.split(",")[0]) > 2]
    assert [r.split(",")[0] for r in past] == ["4", "6"]
    assert (run / "loss_log.txt").read_text() == full_log[0] + "".join(past)


def test_resume_refuses_changed_config(tmp_path, bundle):
    train.fit(bundle, tiny_model(), quick_train(total_steps=6), out_dir=tmp_path / "run")
    with pytest.raises(ConfigError, match="total_steps"):
        train.fit(bundle, tiny_model(), quick_train(total_steps=8),
                  out_dir=tmp_path / "run", resume=True)
    with pytest.raises(ConfigError, match="model config"):
        train.fit(bundle, tiny_model(dropout=0.0), quick_train(total_steps=6),
                  out_dir=tmp_path / "run", resume=True)


def test_last_saved_at_a_final_step_off_the_interval(tmp_path, bundle):
    train.fit(bundle, tiny_model(), quick_train(total_steps=5), out_dir=tmp_path)
    _store, _config, _moments, extras = model.load_checkpoint(tmp_path / "last.gfd")
    assert extras["step"] == "5"


def test_resume_needs_checkpoint(tmp_path, bundle):
    with pytest.raises(ConfigError):
        train.fit(bundle, tiny_model(), quick_train(), out_dir=tmp_path / "nope", resume=True)


def test_patience_zero_stops_at_first_validation_after_warmup(tmp_path, bundle):
    # a destructive learning rate makes the first post-baseline validation worse
    cfg = quick_train(
        warmup=0, total_steps=50, val_interval=1, patience=0,
        lr_base=1.0, lr_embed=1.0, lr_head=1.0, lr_backbone=1.0,
    )
    result = train.fit(bundle, tiny_model(dropout=0.0), cfg, out_dir=tmp_path)
    assert result.state.stopped
    assert result.state.step == 1


def test_training_reduces_loss(tmp_path, bundle):
    cfg = quick_train(total_steps=40, val_interval=10, warmup=5,
                      lr_base=3e-3, lr_embed=3e-3, lr_head=3e-3, lr_backbone=3e-3)
    result = train.fit(bundle, tiny_model(dropout=0.0), cfg, out_dir=tmp_path)
    assert result.best_val < result.history[0][2] * 0.9

