import tracemalloc
import zlib

import numpy as np
import pytest

from topoflow import autodiff as ad, model, reorder, synthdata, topo_bias
from topoflow.config import decode, encode
from topoflow.errors import ConfigError, FormatError, ShapeError
from topoflow.fields import GridSpec
from topoflow.model import ModelConfig, forward, init_params, patchify, unpatchify
from topoflow.train import TrainConfig


def tiny_config(**over):
    base = dict(
        spec=GridSpec(4, 8, 2, 2, 2),
        d=8,
        layers=1,
        heads=2,
        mlp_hidden=16,
        head_hidden=16,
        dropout=0.0,
        n_horizons=2,
    )
    base.update(over)
    return ModelConfig(**base)


def random_inputs(config, rng, batch=2):
    arr = rng.normal(size=(batch, config.v_in, config.spec.height, config.spec.width))
    return arr


def wind_perms(config, x):
    """Slot orders from the u and v channels of an input stack."""
    return model.build_perms(config, x[:, 0], x[:, 1])


# -- patchify -------------------------------------------------------------------

def test_patchify_hand_layout():
    spec = GridSpec(2, 2, 2, 1, 1)
    grid = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    tokens = patchify(grid, spec)
    np.testing.assert_array_equal(tokens, [[1.0, 2.0, 3.0, 4.0]])


def test_patchify_round_trip_and_count():
    spec = GridSpec(8, 16, 2, 4, 2)
    rng = np.random.default_rng(0)
    grid = rng.normal(size=(3, 5, 8, 16))
    tokens = patchify(grid, spec)
    assert tokens.shape == (3, spec.n_patches, 5 * 4)
    assert spec.n_patches == (8 // 2) * (16 // 2)
    np.testing.assert_array_equal(unpatchify(tokens, spec, 5), grid)


def test_patchify_shape_errors():
    spec = GridSpec(8, 16, 2, 4, 2)
    with pytest.raises(ShapeError):
        patchify(np.zeros((1, 7, 16)), spec)
    with pytest.raises(ShapeError):
        unpatchify(np.zeros((3, 5)), spec, 1)


# -- init -----------------------------------------------------------------------

def test_alpha_initialized_exactly():
    store = init_params(tiny_config(), seed=0)
    assert float(store["alpha"].data) == 2.0


def test_init_deterministic_bitwise():
    a = init_params(tiny_config(), seed=5)
    b = init_params(tiny_config(), seed=5)
    for name in a.names():
        assert a[name].data.tobytes() == b[name].data.tobytes()
    c = init_params(tiny_config(), seed=6)
    assert a["patch_embed.w"].data.tobytes() != c["patch_embed.w"].data.tobytes()


def test_weight_variance_matches_fan_in():
    config = tiny_config(spec=GridSpec(16, 16, 2, 2, 2), d=128, mlp_hidden=512)
    store = init_params(config, seed=1, dtype=np.float64)
    w = store["layer0.mlp.w1"].data  # fan_in 128, 65536 entries
    assert abs(w.var() * 128 - 1.0) < 0.1
    assert np.abs(w).max() <= 2.0 * model._TRUNC_CORRECTION / np.sqrt(128) + 1e-12
    # group map covers the documented learning-rate groups
    assert set(store.groups.values()) == set(model.PARAM_GROUPS)


def test_init_params_pinned_crc32():
    """Names, groups, shapes and values of a fresh init, pinned bitwise."""
    for dtype, pinned in ((np.float32, "4fd1dff0"), (np.float64, "09417c1c")):
        store = init_params(tiny_config(), seed=5, dtype=dtype)
        crc = 0
        for name in store.names():
            crc = zlib.crc32(name.encode(), crc)
            crc = zlib.crc32(store.group_of(name).encode(), crc)
            crc = zlib.crc32(store[name].data.tobytes(), crc)
            crc = zlib.crc32(str(store[name].data.shape).encode(), crc)
        assert f"{crc:08x}" == pinned, dtype


def test_every_parameter_has_exactly_one_group():
    store = init_params(tiny_config(), seed=0)
    assert set(store.groups) == set(store.params)


# -- forward --------------------------------------------------------------------

def test_forward_output_shape_contract():
    config = tiny_config()
    store = init_params(config, seed=0)
    rng = np.random.default_rng(1)
    elev = rng.uniform(0, 2000, config.spec.n_patches)
    x = random_inputs(config, rng)
    res = forward(params=store, config=config, inputs=x, elev_patch_m=elev,
                  perms=wind_perms(config, x))
    assert res.tokens.shape == (2, config.spec.n_patches, config.out_dim)
    grid = res.to_grid()
    assert grid.shape == (2, config.n_horizons * config.v_out, 4, 8)


def test_forward_deterministic():
    config = tiny_config()
    store = init_params(config, seed=0)
    rng = np.random.default_rng(2)
    x = random_inputs(config, rng)
    elev = rng.uniform(0, 2000, config.spec.n_patches)
    a = forward(store, config, x, elev, perms=wind_perms(config, x)).to_grid()
    b = forward(store, config, x, elev, perms=wind_perms(config, x)).to_grid()
    assert a.tobytes() == b.tobytes()


def test_zero_head_gives_zero_output_without_layers():
    config = tiny_config(layers=0, wind_reorder=False, elev_bias=False)
    store = init_params(config, seed=0)
    store["head.w2"].data[:] = 0.0
    store["head.b2"].data[:] = 0.0
    rng = np.random.default_rng(3)
    res = forward(store, config, random_inputs(config, rng))
    np.testing.assert_array_equal(res.tokens.data, 0.0)


def test_missing_elevation_raises():
    config = tiny_config()
    store = init_params(config, seed=0)
    rng = np.random.default_rng(4)
    x = random_inputs(config, rng)
    with pytest.raises(ConfigError, match="elev"):
        forward(store, config, x, perms=wind_perms(config, x))


def test_missing_perms_raise_with_wind_reorder():
    config = tiny_config(elev_bias=False)
    store = init_params(config, seed=0)
    x = random_inputs(config, np.random.default_rng(4))
    with pytest.raises(ConfigError, match="perms"):
        forward(store, config, x)


def test_dropout_requires_rng_and_is_seeded():
    config = tiny_config(dropout=0.2, wind_reorder=False, elev_bias=False)
    store = init_params(config, seed=0)
    rng = np.random.default_rng(5)
    x = random_inputs(config, rng)
    with pytest.raises(ConfigError):
        forward(store, config, x, train=True)
    a = forward(store, config, x, train=True, rng=np.random.default_rng(9)).tokens.data
    b = forward(store, config, x, train=True, rng=np.random.default_rng(9)).tokens.data
    c = forward(store, config, x, train=True, rng=np.random.default_rng(10)).tokens.data
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def uniform_wind_inputs(config, rng, u=1.0, v=0.25, batch=2):
    x = rng.normal(size=(batch, config.v_in, config.spec.height, config.spec.width))
    x[:, synthdata.INPUT_CHANNELS.index("u")] = u
    x[:, synthdata.INPUT_CHANNELS.index("v")] = v
    return x


def test_reorder_is_equivalence_at_init():
    # positional vectors ride with their patches and the relative slot
    # table starts at zero, so a fresh network computes the same function
    # with the shuffle on or off; only training can separate the variants
    config_on = tiny_config(wind_reorder=True, elev_bias=False)
    config_off = tiny_config(wind_reorder=False, elev_bias=False)
    store = init_params(config_on, seed=0, dtype=np.float64)
    rng = np.random.default_rng(6)
    x = uniform_wind_inputs(config_on, rng)
    perms = wind_perms(config_on, x)
    base = forward(store, config_off, x).to_grid()
    shuffled = forward(store, config_on, x, perms=perms).to_grid()
    assert np.abs(shuffled - base).max() < 1e-10
    # a trained (nonzero) relative table re-breaks the tie
    store["pos.rel"].data[:] = rng.normal(size=store["pos.rel"].shape)
    diverged = forward(store, config_on, x, perms=perms).to_grid()
    assert np.abs(diverged - forward(store, config_off, x).to_grid()).max() > 1e-6


def test_toggles_off_is_the_shared_baseline_path():
    config = tiny_config(wind_reorder=False, elev_bias=False)
    store = init_params(config, seed=0)
    rng = np.random.default_rng(7)
    x = random_inputs(config, rng)
    res = forward(store, config, x)
    for p in res.perms:
        np.testing.assert_array_equal(p.forward, np.arange(config.spec.n_patches))
    # alpha exists but is unused on this path
    assert "alpha" in store.params


def test_collect_attention_rows_stochastic():
    config = tiny_config()
    store = init_params(config, seed=0)
    rng = np.random.default_rng(8)
    x = random_inputs(config, rng)
    elev = rng.uniform(0, 3000, config.spec.n_patches)
    res = forward(store, config, x, elev, perms=wind_perms(config, x), collect_attention=True)
    assert len(res.attention) == config.layers
    w = res.attention[0]
    assert w.shape == (2, config.spec.n_patches, config.spec.n_patches)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-5)


@pytest.mark.parametrize("over", [{}, {"wind_reorder": False, "elev_bias": False}])
def test_no_grad_attention_maps_equal_the_taped_batch(over):
    # the no-tape forward runs sample by sample; its maps and tokens must be
    # the whole-batch taped pass's, bit for bit
    config = tiny_config(layers=2, **over)
    store = init_params(config, seed=1)
    rng = np.random.default_rng(9)
    x = random_inputs(config, rng, batch=3).astype(np.float32)
    elev = rng.uniform(0, 3000, config.spec.n_patches)
    perms = wind_perms(config, x)
    taped = forward(store, config, x, elev, perms=perms, collect_attention=True)
    with ad.no_grad():
        plain = forward(store, config, x, elev, perms=perms, collect_attention=True)
    assert taped.tokens.requires_grad and not plain.tokens.requires_grad
    assert plain.tokens.data.tobytes() == taped.tokens.data.tobytes()
    assert len(plain.attention) == len(taped.attention) == config.layers
    for a, b in zip(plain.attention, taped.attention):
        assert a.shape == b.shape == (3, config.spec.n_patches, config.spec.n_patches)
        assert a.tobytes() == b.tobytes()


def test_no_grad_forward_memory_does_not_grow_with_batch():
    spec = GridSpec(16, 32, 2, 4, 2)
    config = ModelConfig(spec=spec, d=16, layers=2, heads=2)
    store = init_params(config, seed=0)
    rng = np.random.default_rng(10)
    x = random_inputs(config, rng, batch=8).astype(np.float32)
    elev = rng.uniform(0, 3000, spec.n_patches)
    perms = wind_perms(config, x)

    def peak_bytes(batch):
        tracemalloc.start()
        try:
            with ad.no_grad():
                forward(store, config, x[:batch], elev, perms=perms[:batch])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(1)  # fill the per-grid caches first
    one, eight = peak_bytes(1), peak_bytes(8)
    assert eight < 1.5 * one, (one, eight)


# -- full-model gradient check -----------------------------------------------------

def token_loss(res, target_tokens, mask_tokens, count):
    import topoflow.autodiff as ad

    diff = res.tokens - ad.Tensor(target_tokens)
    return (diff * diff * ad.Tensor(mask_tokens)).sum() * (1.0 / count)


def test_full_model_gradients_match_finite_differences():
    config = tiny_config()
    store = init_params(config, seed=0, dtype=np.float64)
    rng = np.random.default_rng(9)
    x = random_inputs(config, rng, batch=1)
    elev = rng.uniform(0, 2500, config.spec.n_patches)
    target = rng.normal(size=(1, config.spec.n_patches, config.out_dim))
    maskgrid = np.zeros((1, config.spec.height, config.spec.width))
    maskgrid[:, 1:3, 1:7] = 1.0
    mask_tok = np.tile(
        patchify(maskgrid, config.spec), (1, config.n_horizons * config.v_out)
    )[None]
    count = maskgrid.sum()
    perms = wind_perms(config, x)
    target_perm = np.stack([target[0][perms[0].forward]])
    mask_perm = np.stack([mask_tok[0][perms[0].forward]])

    def loss_value():
        res = forward(store, config, x, elev, perms=perms)
        diff = res.tokens.data - target_perm
        return float((diff * diff * mask_perm).sum() / count)

    res = forward(store, config, x, elev, perms=perms)
    token_loss(res, target_perm, mask_perm, count).backward()

    eps = 1e-5
    worst = {}
    for name in store.names():
        t = store[name]
        flat = t.data.reshape(-1)
        grad = t.grad.reshape(-1) if t.grad is not None else np.zeros_like(flat)
        idx = rng.choice(flat.size, size=min(6, flat.size), replace=False)
        for i in idx:
            old = flat[i]
            flat[i] = old + eps
            hi = loss_value()
            flat[i] = old - eps
            lo = loss_value()
            flat[i] = old
            fd = (hi - lo) / (2 * eps)
            err = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6)
            worst[name] = max(worst.get(name, 0.0), err)
    assert max(worst.values()) < 1e-4, worst


# -- checkpoints ---------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    config = tiny_config()
    store = init_params(config, seed=0)
    m1 = {k: np.full_like(store[k].data, 0.25) for k in store.names()}
    m2 = {k: np.full_like(store[k].data, 0.5) for k in store.names()}
    extras = {"step": "17", "best_val": "0x1.8p-1"}
    path = tmp_path / "ckpt.gfd"
    model.save_checkpoint(path, store, config, moments=(m1, m2), extras=extras)
    store2, config2, moments2, extras2 = model.load_checkpoint(path)
    assert config2 == config
    assert extras2 == extras
    for name in store.names():
        assert store2[name].data.tobytes() == store[name].data.tobytes()
        assert store2[name].data.shape == store[name].data.shape
        assert store2.group_of(name) == store.group_of(name)
        np.testing.assert_array_equal(moments2[0][name], m1[name])
        np.testing.assert_array_equal(moments2[1][name], m2[name])


def test_checkpoint_load_makes_no_random_draws(tmp_path, monkeypatch):
    config = tiny_config()
    store = init_params(config, seed=2)
    path = tmp_path / "ckpt.gfd"
    model.save_checkpoint(path, store, config)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random weights")

    monkeypatch.setattr(model, "_trunc_normal", no_draws)
    store2, *_ = model.load_checkpoint(path)
    assert store2.names() == store.names() and store2.groups == store.groups
    for name in store.names():
        assert store2[name].data.tobytes() == store[name].data.tobytes()


def test_checkpoint_without_moments(tmp_path):
    config = tiny_config()
    store = init_params(config, seed=3)
    path = tmp_path / "best.gfd"
    model.save_checkpoint(path, store, config)
    store2, config2, moments2, extras2 = model.load_checkpoint(path)
    assert moments2 is None and extras2 == {}
    assert config2.spec == config.spec
    assert store2["alpha"].data == store["alpha"].data


def test_checkpoint_payload_is_flat_and_unpadded(tmp_path):
    config = tiny_config()
    store = init_params(config, seed=0)
    zeros = {k: np.zeros_like(store[k].data) for k in store.names()}
    path = tmp_path / "last.gfd"
    model.save_checkpoint(path, store, config, moments=(zeros, zeros))
    header = 32
    records = sum(2 + len(name) + 2 for name in ("param", "adam_m", "adam_v"))
    assert path.stat().st_size == header + records + 4 * 3 * store.n_parameters()
    # the atomic writes leave no temp file behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["last.gfd", "last.gfd.txt"]


def test_checkpoint_torn_pair_raises(tmp_path):
    config = tiny_config()
    model.save_checkpoint(tmp_path / "a.gfd", init_params(config, seed=0), config)
    model.save_checkpoint(tmp_path / "b.gfd", init_params(config, seed=1), config)
    (tmp_path / "a.gfd.txt").write_bytes((tmp_path / "b.gfd.txt").read_bytes())
    with pytest.raises(FormatError, match="CRC"):
        model.load_checkpoint(tmp_path / "a.gfd")


def test_checkpoint_payload_length_must_fit_config(tmp_path):
    config = tiny_config()
    path = tmp_path / "ckpt.gfd"
    model.save_checkpoint(path, init_params(config, seed=0), config)
    sidecar = tmp_path / "ckpt.gfd.txt"
    text = sidecar.read_text()
    assert "model.d = 8\n" in text
    sidecar.write_text(text.replace("model.d = 8\n", "model.d = 16\n"))
    with pytest.raises(FormatError, match="does not fit"):
        model.load_checkpoint(path)


def test_config_kv_round_trip():
    configs = {
        "grid": GridSpec(4, 8, 2, 2, 1),
        "physics": synthdata.PhysicsConfig(kappa=12.5, boundary="clamped", substeps=3),
        "model": tiny_config(wind_reorder=False, dropout=0.25, wind_mean="plain"),
        "train": TrainConfig(lr_head=3e-05, warmup=7, total_steps=70, seed=11),
    }
    for section, obj in configs.items():
        kv = encode(obj, section)
        assert all(key.startswith(section + ".") for key in kv)
        assert decode(type(obj), kv, section) == obj
