"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Criteria (tolerances pinned here, nothing deferred):
  1  attention permutation equivariance, 100 random cases, 1e-5 / 1e-10
  2  reordering matches a brute-force stable-sort oracle, 1000 instances
  3  elevation bias contract: clamp, hand values, d(bias)/d(alpha) vs FD
  4  full-model gradient check, all parameter groups, rel err < 1e-4
  5  masked loss arithmetic (14/3) and zero gradient behind the mask
  6  transport physics: conservation, advection, covariance anisotropy
  7  component ablation direction: full < wind < baseline, full >= 1% below
  8  tile-granularity sweep emits the granularity-table schema
  9  gen -> train -> eval twice is bitwise identical
 10  .gfd byte layout exact; corrupted magic exits with code 3

Criterion 7 has no test yet: no test here trains the ablation variants,
so the direction above is unchecked (an open ROADMAP item).
"""

import math
import struct
import time

import numpy as np
import pytest

from topoflow import attention, autodiff as ad, evalkit, model, reorder, synthdata, topo_bias, train
from topoflow.cli import main as cli_main
from topoflow.fields import GridSpec, LandMask, NormStats, read_grid
from topoflow.model import ModelConfig, forward, init_params, patchify
from topoflow.train import TrainConfig

PASSED: dict[int, str] = {}


def record(criterion: int, detail: str):
    PASSED[criterion] = detail
    print(f"\n[criterion {criterion:2d}] PASS  {detail}")


def attention_params(d, heads, rng, dtype):
    scale = 1.0 / math.sqrt(d)
    mk = lambda: ad.parameter(rng.normal(0.0, scale, size=(d, d)).astype(dtype))
    return attention.AttentionParams(mk(), mk(), mk(), mk(), heads)


# -- criterion 1: equivariance ----------------------------------------------------

def test_criterion_1_equivariance_suite():
    start = time.monotonic()
    spec = GridSpec(8, 16, 2, 4, 2)
    for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-10)):
        rng = np.random.default_rng(11)
        params = attention_params(16, 4, rng, dtype)
        worst = 0.0
        for _ in range(100):
            tokens = rng.normal(size=(spec.n_patches, 16)).astype(dtype)
            u = rng.normal(size=(8, 16))
            v = rng.normal(size=(8, 16))
            perm = reorder.build_permutation(spec, u, v)
            worst = max(worst, attention.equivariance_check(tokens, params, perm))
        assert worst < tol, f"{dtype} deviation {worst}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    record(1, f"100 cases per dtype, worst within 1e-5/1e-10, {elapsed:.1f}s")


# -- criterion 2: reordering oracle --------------------------------------------------

def test_criterion_2_reorder_oracle():
    from test_reorder import brute_force_sector_orders, sector_orders_from_perm

    start = time.monotonic()
    rng = np.random.default_rng(23)
    specs = [GridSpec(8, 8, 2, 2, 2), GridSpec(8, 16, 2, 4, 2), GridSpec(16, 16, 4, 2, 2)]
    for trial in range(1000):
        spec = specs[trial % len(specs)]
        u = rng.normal(size=(spec.height, spec.width))
        v = rng.normal(size=(spec.height, spec.width))
        mean = "weighted" if trial % 2 == 0 else "plain"
        perm = reorder.build_permutation(spec, u, v, wind_mean=mean)
        assert sector_orders_from_perm(spec, perm) == brute_force_sector_orders(
            spec, u, v, wind_mean=mean
        )
        n = spec.n_patches
        assert np.array_equal(perm.inverse[perm.forward], np.arange(n))
        tokens = rng.normal(size=(n, 3))
        np.testing.assert_array_equal(
            reorder.unapply(perm, reorder.apply(perm, tokens)), tokens
        )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    record(2, f"1000 instances match the brute-force oracle, {elapsed:.1f}s")


# -- criterion 3: elevation bias contract ---------------------------------------------

def test_criterion_3_elevation_bias_contract():
    start = time.monotonic()
    rng = np.random.default_rng(31)
    for _ in range(100):
        h = rng.uniform(-2000, 9000, size=24)
        alpha = rng.uniform(-20, 20)
        m = topo_bias.bias_tensor(h, alpha).data
        assert m.min() >= -10.0 and m.max() <= 0.0
        downhill = h[None, :] <= h[:, None]
        assert np.all(m[downhill] == 0.0) or alpha <= 0
    h = np.array([0.0, 500.0])
    assert topo_bias.bias_tensor(h, 2.0).data[0, 1] == -1.0
    # the tape's d(bias)/d(alpha), one backward per entry, against central
    # differences on unclamped pairs
    h = np.random.default_rng(32).uniform(0, 3500, size=16)
    alpha, eps = 2.0, 1e-6
    a = ad.parameter(np.array(alpha))
    bias = topo_bias.bias_tensor(h, a)
    analytic = np.zeros(bias.shape)
    for idx in np.ndindex(bias.shape):
        seed = np.zeros(bias.shape)
        seed[idx] = 1.0
        a.grad = None
        bias.backward(seed)
        analytic[idx] = a.grad
    hi = topo_bias.bias_tensor(h, alpha + eps).data
    lo = topo_bias.bias_tensor(h, alpha - eps).data
    fd = (hi - lo) / (2 * eps)
    raw = -alpha * topo_bias.uphill_matrix(h)
    interior = (raw > topo_bias.BIAS_LO) & (raw < 0.0)
    rel = np.abs(analytic[interior] - fd[interior]) / np.abs(fd[interior])
    assert rel.max() < 1e-6
    np.testing.assert_array_equal(analytic[~interior], 0.0)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    record(3, f"clamp/downhill/hand-value/gradient checks, {elapsed:.1f}s")


# -- criterion 4: full-model gradient check --------------------------------------------

def test_criterion_4_full_model_gradient_check():
    start = time.monotonic()
    spec = GridSpec(4, 8, 2, 2, 2)
    config = ModelConfig(
        spec=spec, d=8, layers=1, heads=2, mlp_hidden=16, head_hidden=16,
        dropout=0.0, n_horizons=2,
    )
    store = init_params(config, seed=4, dtype=np.float64)
    rng = np.random.default_rng(41)
    x = rng.normal(size=(1, config.v_in, 4, 8))
    elev = rng.uniform(0, 2500, spec.n_patches)
    perms = model.build_perms(config, x[:, 0], x[:, 1])
    target = rng.normal(size=(1, spec.n_patches, config.out_dim))
    maskgrid = np.zeros((1, 4, 8))
    maskgrid[:, 1:3, 1:7] = 1.0
    mask_tok = np.tile(patchify(maskgrid, spec), (1, config.n_horizons))[None]
    count = maskgrid.sum()
    target_perm = np.stack([target[0][perms[0].forward]])
    mask_perm = np.stack([mask_tok[0][perms[0].forward]])

    def loss_scalar():
        res = forward(store, config, x, elev, perms=perms)
        diff = res.tokens.data - target_perm
        return float((diff * diff * mask_perm).sum() / count)

    res = forward(store, config, x, elev, perms=perms)
    diff = res.tokens - ad.Tensor(target_perm)
    ((diff * diff * ad.Tensor(mask_perm)).sum() * (1.0 / count)).backward()

    eps = 1e-5
    worst_by_group: dict[str, float] = {}
    rng_pick = np.random.default_rng(42)
    for name in store.names():
        t = store[name]
        flat = t.data.reshape(-1)
        grad = t.grad.reshape(-1) if t.grad is not None else np.zeros_like(flat)
        for i in rng_pick.choice(flat.size, size=min(8, flat.size), replace=False):
            old = flat[i]
            flat[i] = old + eps
            hi = loss_scalar()
            flat[i] = old - eps
            lo = loss_scalar()
            flat[i] = old
            fd = (hi - lo) / (2 * eps)
            err = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6)
            group = store.group_of(name)
            worst_by_group[group] = max(worst_by_group.get(group, 0.0), err)
    assert set(worst_by_group) == set(model.PARAM_GROUPS)
    assert max(worst_by_group.values()) < 1e-4, worst_by_group
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    record(4, f"all groups within 1e-4 of central differences, {elapsed:.1f}s")


# -- criterion 5: loss and mask contract -------------------------------------------------

def test_criterion_5_masked_loss_contract():
    # the loss `fit` trains with, on 1x1 patches: token i is raster cell i
    spec = GridSpec(2, 2, 1, 1, 1)
    mask = LandMask(spec, np.array([[1, 0], [1, 1]]))
    mask_tok = patchify(mask.mask[None].astype(np.float64), spec)  # (N, 1)
    target = np.zeros((1, spec.n_patches, 1))
    pred = ad.parameter(patchify(np.array([[[[3.0, 9.0], [1.0, 2.0]]]]), spec))

    def loss_of(p):
        return train._masked_mse_tokens(p, target, mask_tok, float(mask.count))

    loss = loss_of(pred)
    assert float(loss.data) == pytest.approx(14.0 / 3.0, rel=1e-12)
    loss.backward()
    assert pred.grad[0, 1, 0] == 0.0
    bumped = pred.data.copy()
    bumped[0, 1, 0] = -4.2e7
    assert float(loss_of(ad.Tensor(bumped)).data) == pytest.approx(14.0 / 3.0, rel=1e-12)
    record(5, "hand value 14/3 exact; masked cells carry zero gradient")


# -- criterion 6: physics suite ------------------------------------------------------------

def test_criterion_6_physics_suite():
    start = time.monotonic()
    spec = GridSpec(32, 64, 2, 8, 8)
    # mass conservation under periodic transport
    rng = np.random.default_rng(61)
    u = rng.normal(0.0, 0.6, (32, 64))
    v = rng.normal(0.0, 0.6, (32, 64))
    cfg = synthdata.PhysicsConfig(kappa=100.0, dt=200.0, dx=1000.0, sink=0.0,
                                  max_wind=2.5, substeps=1)
    rows = np.arange(32)[:, None]
    cols = np.arange(64)[None, :]
    c = 50.0 * np.exp(-((rows - 16) ** 2 + (cols - 20) ** 2) / 12.5)
    total0 = c.sum()
    for _ in range(100):
        c = synthdata._step_array(c, u, v, cfg)
    drift = abs(c.sum() - total0) / total0
    assert drift < 1e-5

    # advected Gaussian lands within one cell of the analytic displacement
    cfg2 = synthdata.PhysicsConfig(kappa=0.0, dt=200.0, dx=1000.0, sink=0.0,
                                   max_wind=2.5, substeps=1)
    c = 50.0 * np.exp(-((rows - 16) ** 2 + (cols - 10) ** 2) / 12.5)
    for _ in range(30):
        c = synthdata._step_array(c, np.full((32, 64), 2.0), np.zeros((32, 64)), cfg2)
    peak = np.unravel_index(np.argmax(c), c.shape)
    expected = 10 + round(30 * 2.0 * 200.0 / 1000.0)
    assert abs(peak[1] - expected) <= 1 and peak[0] == 16

    # anisotropic covariance at Peclet >= 10 in at least 9 of 10 seeds
    wins = 0
    peclet = 2.0 * 2000.0 / 40.0
    assert peclet >= 10.0
    for seed in range(10):
        tw = synthdata.TerrainWind(
            np.zeros((32, 64)), np.full((32, 64), 2.0), np.zeros((32, 64)),
            seed=seed, archetype="flat", base_speed=2.0, bearing=0.0,
        )
        pcfg = synthdata.PhysicsConfig(kappa=40.0, dt=150.0, dx=2000.0, sink=6.7e-5,
                                       max_wind=6.0, substeps=96)
        samples = synthdata.make_dataset(
            spec, tw, pcfg, (12,), 36, seed=seed, wind_mode="fixed", source_mode="random"
        )
        fit = synthdata.fit_covariance_decay(samples, tw, pcfg)
        wins += fit.along_decay > fit.cross_decay
    assert wins >= 9, f"only {wins}/10 seeds anisotropic"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    record(6, f"conservation {drift:.1e}, peak on target, anisotropy {wins}/10, {elapsed:.0f}s")


# -- criterion 8: tile sweep schema -----------------------------------------------------------

def test_criterion_8_tile_sweep_schema(tmp_path):
    cfg_text = "\n".join([
        "grid.height = 8", "grid.width = 16", "grid.patch = 2",
        "grid.sector_cols = 4", "grid.sector_rows = 2",
        "physics.substeps = 2",
        "data.count = 12", "data.horizons = 12,24",
        "model.d = 16", "model.layers = 1", "model.heads = 2",
        "model.mlp_hidden = 32", "model.head_hidden = 32",
        "train.total_steps = 4", "train.warmup = 2", "train.val_interval = 2",
        "train.batch_size = 4", "train.val_fraction = 0.25",
        "ablate.tiles = global,2x2,4x4",
    ]) + "\n"
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(cfg_text, encoding="utf-8")
    data = tmp_path / "data"
    assert cli_main(["gen", "--config", str(cfg_path), "--out", str(data)]) == 0
    out = tmp_path / "tiles"
    assert cli_main([
        "ablate", "--config", str(cfg_path), "--data", str(data), "--out", str(out),
        "--mode", "tiles",
    ]) == 0
    lines = (out / "tiles.csv").read_text().splitlines()
    assert lines[0] == "strategy,tiles,loss,delta"
    parsed = [ln.split(",") for ln in lines[1:]]
    assert [p[0] for p in parsed] == ["global", "2x2", "4x4"]
    assert float(parsed[0][3]) == 0.0
    for p in parsed:
        float(p[2]), float(p[3])  # numeric loss and delta; no ordering asserted
    record(8, "granularity table with strategy/tiles/loss/delta emitted")


# -- criterion 9: determinism ------------------------------------------------------------------

def test_criterion_9_pipeline_determinism(tmp_path):
    cfg_text = "\n".join([
        "grid.height = 8", "grid.width = 16", "grid.patch = 2",
        "grid.sector_cols = 4", "grid.sector_rows = 2",
        "physics.substeps = 2",
        "data.count = 16", "data.horizons = 12,24",
        "model.d = 16", "model.layers = 1", "model.heads = 2",
        "model.mlp_hidden = 32", "model.head_hidden = 32",
        "train.total_steps = 6", "train.warmup = 2", "train.val_interval = 3",
        "train.batch_size = 4", "train.val_fraction = 0.25",
    ]) + "\n"
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(cfg_text, encoding="utf-8")
    artifacts = {}
    for tag in ("one", "two"):
        data = tmp_path / f"data_{tag}"
        run = tmp_path / f"run_{tag}"
        rep = tmp_path / f"rep_{tag}"
        assert cli_main(["gen", "--config", str(cfg_path), "--out", str(data)]) == 0
        assert cli_main([
            "train", "--config", str(cfg_path), "--data", str(data), "--out", str(run),
        ]) == 0
        assert cli_main([
            "eval", "--config", str(cfg_path), "--data", str(data),
            "--checkpoint", str(run / "best.gfd"), "--out", str(rep),
        ]) == 0
        artifacts[tag] = {
            "best": (run / "best.gfd").read_bytes(),
            "last": (run / "last.gfd").read_bytes(),
            "log": (run / "loss_log.txt").read_bytes(),
            "report_txt": (rep / "report.txt").read_bytes(),
            "report_csv": (rep / "report.csv").read_bytes(),
        }
    for key in artifacts["one"]:
        assert artifacts["one"][key] == artifacts["two"][key], f"{key} differs"
    record(9, "gen->train->eval twice: checkpoints, logs, reports bitwise equal")


# -- criterion 10: format ------------------------------------------------------------------------

def test_criterion_10_format_contract(tmp_path):
    from topoflow.fields import Field, write_grid

    spec = GridSpec(2, 2, 1, 1, 1)
    f = Field(spec, ("c",), np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32), ("",))
    path = tmp_path / "hand.gfd"
    write_grid(f, path)
    raw = path.read_bytes()
    expect = b"GFD1" + struct.pack("<7I", 1, 1, 2, 2, 1, 1, 1)
    expect += struct.pack("<H", 1) + b"c" + struct.pack("<H", 0)
    expect += (
        b"\x00\x00\x80\x3f" b"\x00\x00\x00\x40" b"\x00\x00\x40\x40" b"\x00\x00\x80\x40"
    )
    assert raw == expect
    back = read_grid(path)
    write_grid(back, tmp_path / "again.gfd")
    assert (tmp_path / "again.gfd").read_bytes() == raw

    # negative zero and denormals survive a round trip bitwise
    rng = np.random.default_rng(101)
    data = rng.normal(size=(2, 2, 2)).astype(np.float32)
    data[0, 0, 0] = -0.0
    data[1, 1, 1] = np.float32(1e-42)
    g = Field(spec, ("a", "b"), data, ("", ""))
    write_grid(g, tmp_path / "bits.gfd")
    assert read_grid(tmp_path / "bits.gfd").data.tobytes() == data.tobytes()

    # corrupted magic surfaces as exit code 3 through the CLI
    victim = tmp_path / "data"
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(
        "grid.height = 8\ngrid.width = 16\ngrid.patch = 2\n"
        "grid.sector_cols = 4\ngrid.sector_rows = 2\nphysics.substeps = 2\n"
        "data.count = 4\ndata.horizons = 12\n", encoding="utf-8",
    )
    assert cli_main(["gen", "--config", str(cfg_path), "--out", str(victim)]) == 0
    target = victim / "samples" / "000000.in.gfd"
    blob = bytearray(target.read_bytes())
    blob[:4] = b"ZZZZ"
    target.write_bytes(bytes(blob))
    code = cli_main([
        "train", "--config", str(cfg_path), "--data", str(victim),
        "--out", str(tmp_path / "run"),
    ])
    assert code == 3
    record(10, "byte layout exact, round trip bitwise, bad magic -> exit 3")
