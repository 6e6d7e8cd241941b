import contextlib
import importlib.util
import tracemalloc
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from topoflow import autodiff as ad, model, reorder, synthdata, topo_bias, train
from topoflow.cli import ABLATION_VARIANTS
from topoflow.config import DataConfig, decode, encode
from topoflow.errors import ConfigError, DataError, FormatError, ShapeError
from topoflow.fields import GridSpec, NormStats
from topoflow.model import ModelConfig, forward, init_params, patchify, unpatchify
from topoflow.train import TrainConfig, prepare_arrays

import oracles


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


def wind_orders(config, x):
    """(B, N) slot orders from the u and v channels of an input stack."""
    return np.stack([reorder.build_permutation(config.spec, u, v)[0]
                     for u, v in zip(x[:, 0], x[:, 1])])


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
    assert set(store.groups.values()) == set(train.GROUP_RATE_FIELDS)


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
                  orders=wind_orders(config, x))
    assert res.tokens.shape == (2, config.spec.n_patches, config.out_dim)
    grid = res.to_grid()
    assert grid.shape == (2, config.n_horizons * config.v_out, 4, 8)


def test_forward_deterministic():
    config = tiny_config()
    store = init_params(config, seed=0)
    rng = np.random.default_rng(2)
    x = random_inputs(config, rng)
    elev = rng.uniform(0, 2000, config.spec.n_patches)
    a = forward(store, config, x, elev, orders=wind_orders(config, x)).to_grid()
    b = forward(store, config, x, elev, orders=wind_orders(config, x)).to_grid()
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
        forward(store, config, x, orders=wind_orders(config, x))


def test_missing_orders_raise_with_wind_reorder():
    config = tiny_config(elev_bias=False)
    store = init_params(config, seed=0)
    x = random_inputs(config, np.random.default_rng(4))
    with pytest.raises(ConfigError, match="slot orders"):
        forward(store, config, x)


def test_forward_refuses_bad_slot_orders():
    # each row must be a permutation of 0..N-1 inside the sectors and there
    # is one row per sample; without wind reordering the orders are not read
    config = tiny_config(elev_bias=False)
    store = init_params(config, seed=0)
    x = random_inputs(config, np.random.default_rng(4))
    good = wind_orders(config, x)
    repeated = good.copy()
    repeated[1, 0] = repeated[1, 1]
    for bad in (repeated, good + 1, good.astype(np.float64)):
        with pytest.raises(DataError, match="permutation"):
            forward(store, config, x, orders=bad)
    for bad in (good[:1], good[:, :-1], good[0]):
        with pytest.raises(ShapeError, match="slot orders"):
            forward(store, config, x, orders=bad)
    # a permutation that moves a patch into another sector's slot
    layout = reorder._sector_layout(config.spec)
    crossing = good.copy()
    swap = [layout[0, 0], layout[1, 0]]
    crossing[0, swap] = crossing[0, swap[::-1]]
    with pytest.raises(DataError, match="sector"):
        forward(store, config, x, orders=crossing)
    off = replace(config, wind_reorder=False)
    assert forward(store, off, x, orders=repeated).tokens.data.tobytes() == \
        forward(store, off, x).tokens.data.tobytes()


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("taped", [True, False])
def test_forward_checks_and_ranks_the_orders_once(layers, taped, monkeypatch):
    # one order check and one rank derivation per sample, whatever the
    # depth: no layer, no sample of the no-tape path and no backward
    # checks or ranks the orders again
    config = tiny_config(layers=layers)
    store = init_params(config, seed=0)
    rng = np.random.default_rng(4)
    x = random_inputs(config, rng, batch=3)
    elev = rng.uniform(0, 2500, config.spec.n_patches)
    orders = wind_orders(config, x)
    calls = {"check_orders": 0, "unapply": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(reorder, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(reorder, name, counted)
    with contextlib.nullcontext() if taped else ad.no_grad():
        res = forward(store, config, x, elev, orders=orders)
    assert res.tokens.requires_grad == taped
    if taped:
        res.tokens.sum().backward()
    assert calls == {"check_orders": 1, "unapply": 3}


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
    orders = wind_orders(config_on, x)
    base = forward(store, config_off, x).to_grid()
    shuffled = forward(store, config_on, x, orders=orders).to_grid()
    assert np.abs(shuffled - base).max() < 1e-10
    # a trained (nonzero) relative table re-breaks the tie
    store["pos.rel"].data[:] = rng.normal(size=store["pos.rel"].shape)
    diverged = forward(store, config_on, x, orders=orders).to_grid()
    assert np.abs(diverged - forward(store, config_off, x).to_grid()).max() > 1e-6


def test_terrain_penalty_follows_the_shuffle_at_init():
    # with the terrain penalty on, the shuffle stays an equivalence at init:
    # every sample's penalty names the same pair of patches in each variant
    config_on = tiny_config(wind_reorder=True)
    config_off = tiny_config(wind_reorder=False)
    store = init_params(config_on, seed=0, dtype=np.float64)
    rng = np.random.default_rng(6)
    x = uniform_wind_inputs(config_on, rng)
    x[1, synthdata.INPUT_CHANNELS.index("v")] = -2.0
    orders = wind_orders(config_on, x)
    assert len({tuple(o) for o in orders}) == 2
    assert not any(np.array_equal(o, np.arange(config_on.spec.n_patches)) for o in orders)
    elev = rng.uniform(0, 3000, config_on.spec.n_patches)
    base = forward(store, config_off, x, elev).to_grid()
    shuffled = forward(store, config_on, x, elev, orders=orders).to_grid()
    assert np.abs(shuffled - base).max() < 1e-10


def test_wind_forward_returns_raster_tokens_and_maps():
    # with a zero relative table and no terrain penalty the shuffle is an
    # equivalence, so in raster order the wind variant's tokens and every
    # layer's attention map are the baseline's
    config_on = tiny_config(spec=GridSpec(8, 16, 2, 4, 2), layers=2, elev_bias=False)
    config_off = replace(config_on, wind_reorder=False)
    store = init_params(config_on, seed=2, dtype=np.float64)
    assert not store["pos.rel"].data.any()
    rng = np.random.default_rng(13)
    x = random_inputs(config_on, rng, batch=3)
    orders = wind_orders(config_on, x)
    assert not any(np.array_equal(o, np.arange(config_on.spec.n_patches)) for o in orders)
    on = forward(store, config_on, x, orders=orders, collect_attention=True)
    off = forward(store, config_off, x, collect_attention=True)
    np.testing.assert_allclose(on.tokens.data, off.tokens.data, rtol=0, atol=1e-10)
    assert len(on.attention) == len(off.attention) == config_on.layers
    for a, b in zip(on.attention, off.attention):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)


# float64 and float32 bounds on max |raster - slot order|, as a share of
# the largest |entry| of each compared array
SLOT_ORDER_TOL = {np.float64: 1e-10, np.float32: 1e-5}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("elev_bias", [False, True], ids=["wind", "wind_elev"])
def test_raster_forward_matches_the_slot_order_reference(elev_bias, dtype):
    # the forward against the model run in slot order sample by sample
    # (`oracles.slot_order_forward`): outputs and every parameter gradient,
    # with turned winds, a non-zero relative table and no dropout
    config = tiny_config(spec=GridSpec(8, 16, 2, 4, 2), layers=2, elev_bias=elev_bias)
    store = init_params(config, seed=3, dtype=dtype)
    rng = np.random.default_rng(17)
    store["pos.rel"].data[:] = rng.normal(size=store["pos.rel"].shape)
    x = random_inputs(config, rng, batch=4).astype(dtype)
    orders = wind_orders(config, x)
    assert len({tuple(o) for o in orders}) == len(orders)
    elev = rng.uniform(0, 3000, config.spec.n_patches)
    coeff = rng.normal(size=(len(x), config.spec.n_patches, config.out_dim)).astype(dtype)

    res = forward(store, config, x, elev, orders=orders)
    (res.tokens * ad.Tensor(coeff)).sum().backward()
    got = [res.tokens.data] + [store[k].grad for k in store.names()]
    ad.zero_grads(store.tensors())
    outs = []
    for i, order in enumerate(orders):
        out = oracles.slot_order_forward(store, config, x[i], elev, order)
        (out * ad.Tensor(coeff[i])).sum().backward()
        outs.append(out.data)
    want = [np.stack(outs)] + [store[k].grad for k in store.names()]
    tol = SLOT_ORDER_TOL[dtype]
    for name, a, b in zip(["tokens"] + store.names(), got, want):
        if b is None:
            assert a is None or not a.any(), name
            continue
        assert a.dtype == b.dtype == dtype, name
        assert np.abs(a - b).max() <= tol * np.abs(b).max(), name


def test_attention_tables_are_keys_by_queries():
    # the forward hands the attention node `pos.rel` itself, the spec's
    # sector layout and the penalty laid out keys x queries: the transpose,
    # bit for bit, of the queries x keys penalty that `dump bias` writes.
    # The shared base and blocks are the earlier slot index's cross-sector
    # and within-sector entries
    config = tiny_config(spec=GridSpec(8, 16, 2, 4, 2))
    spec = config.spec
    store = init_params(config, seed=0)
    store["pos.rel"].data[:] = np.arange(store["pos.rel"].data.size)
    rng = np.random.default_rng(16)
    elev = rng.uniform(0, 8000, spec.n_patches)
    tables = model._attention_tables(store, config, elev)
    penalty = tables.penalty
    want = topo_bias.bias_tensor(elev, store["alpha"]).data
    assert penalty.dtype == want.dtype == np.float32
    assert penalty.data.tobytes() == np.ascontiguousarray(want.T).tobytes()
    assert penalty._parents == (store["alpha"],)
    assert tables.rel is store["pos.rel"]
    layout = reorder._sector_layout(spec)
    np.testing.assert_array_equal(tables.layout, layout)
    # the queries x keys index: query rank minus key rank, shifted, and one
    # shared bucket for pairs in different sectors
    m = spec.patches_per_sector
    ranks = np.empty(spec.n_patches, dtype=np.int64)
    sector_of = np.empty(spec.n_patches, dtype=np.int64)
    for s in range(spec.n_sectors):
        ranks[layout[s]] = np.arange(m)
        sector_of[layout[s]] = s
    by_query = ranks[:, None] - ranks[None, :] + (m - 1)
    by_query[sector_of[:, None] != sector_of[None, :]] = 2 * m - 1
    index = oracles.relative_slot_index(layout)
    np.testing.assert_array_equal(index, by_query.T)
    assert not np.array_equal(index, by_query)
    # identity orders give each patch its raster rank in its sector
    identity = np.arange(spec.n_patches)[None]
    np.testing.assert_array_equal(reorder.sector_ranks(identity, tables.layout)[0], ranks)
    inside = np.zeros(index.size, dtype=bool)
    inside[tables.blocks] = True
    assert tables.blocks.size == spec.n_sectors * m * m
    np.testing.assert_array_equal(inside, index.reshape(-1) != 2 * m - 1)
    cross = store["pos.rel"].data[-1]
    assert tables.base.tobytes() == (penalty.data + cross).tobytes()
    assert tables.pen_blocks.tobytes() == penalty.data.reshape(-1)[tables.blocks].tobytes()
    no_bias = model._attention_tables(store, tiny_config(spec=spec, elev_bias=False), None)
    assert no_bias.penalty is None and no_bias.pen_blocks is None
    assert (no_bias.base == cross).all() and no_bias.base.dtype == np.float32


def test_toggles_off_is_the_shared_baseline_path():
    config = tiny_config(spec=GridSpec(8, 16, 2, 4, 2), wind_reorder=False, elev_bias=False)
    store = init_params(config, seed=0)
    rng = np.random.default_rng(7)
    x = random_inputs(config, rng)
    # the training arrays hand the baseline identity slot orders, and
    # `forward` takes identity orders for it whatever it is given
    spec = config.spec
    physics = synthdata.PhysicsConfig(substeps=2)
    data = DataConfig(count=2, horizons=(12, 24))
    tw = synthdata.gen_terrain(spec, 3, data, physics)
    samples = synthdata.make_dataset(spec, tw, physics, data, seed=7)
    stats = NormStats.fit([s.input for s in samples], synthdata.norm_kinds())
    bundle = synthdata.DatasetBundle(spec, tuple(samples), tw, synthdata.study_mask(spec),
                                     stats, data.horizons, 0.1)
    orders = prepare_arrays(bundle, config).orders
    np.testing.assert_array_equal(orders, np.tile(np.arange(spec.n_patches), (2, 1)))
    orders = wind_orders(replace(config, wind_reorder=True), x)
    assert not any(np.array_equal(o, np.arange(spec.n_patches)) for o in orders)
    res = forward(store, config, x, orders=orders)
    assert res.tokens.data.tobytes() == forward(store, config, x).tokens.data.tobytes()
    # alpha exists but is unused on this path
    assert "alpha" in store.params


def test_toggles_choose_data_not_branches():
    # every variant runs one path: the wind variant under identity slot
    # orders is the baseline, and the terrain penalty at alpha 0 adds
    # nothing, for outputs and every gradient, bit for bit, dropout on
    base = tiny_config(dropout=0.2, wind_reorder=False, elev_bias=False)
    rng = np.random.default_rng(11)
    x = random_inputs(base, rng, batch=3).astype(np.float32)
    elev = rng.uniform(0, 3000, base.spec.n_patches)
    coeff = rng.normal(size=(3, base.spec.n_patches, base.out_dim)).astype(np.float32)

    def run(config, orders=None, alpha=None):
        store = init_params(config, seed=0)
        if alpha is not None:
            store["alpha"].data[...] = alpha
        res = forward(store, config, x, elev, orders=orders, train=True,
                      rng=np.random.default_rng(12))
        (res.tokens * ad.Tensor(coeff)).sum().backward()
        return res.tokens.data, {k: store[k].grad for k in store.names()}

    def assert_same_bits(a, b, skip=()):
        assert a[0].tobytes() == b[0].tobytes()
        for name, grad in a[1].items():
            if name not in skip:
                other = b[1][name]
                assert (grad is None) == (other is None), name
                assert grad is None or grad.tobytes() == other.tobytes(), name

    identity = np.tile(np.arange(base.spec.n_patches), (len(x), 1))
    baseline = run(base)
    assert_same_bits(run(replace(base, wind_reorder=True), identity), baseline)
    for wind in (False, True):
        config = replace(base, wind_reorder=wind)
        orders = wind_orders(config, x) if wind else None
        off = run(config, orders)
        on = run(replace(config, elev_bias=True), orders, alpha=0.0)
        assert off[1]["alpha"] is None and on[1]["alpha"] is not None
        assert_same_bits(on, off, skip=("alpha",))


def test_collect_attention_rows_stochastic():
    config = tiny_config()
    store = init_params(config, seed=0)
    rng = np.random.default_rng(8)
    x = random_inputs(config, rng)
    elev = rng.uniform(0, 3000, config.spec.n_patches)
    res = forward(store, config, x, elev, orders=wind_orders(config, x), collect_attention=True)
    assert len(res.attention) == config.layers
    w = res.attention[0]
    assert w.shape == (2, config.spec.n_patches, config.spec.n_patches)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-5)


@pytest.mark.parametrize("over", [
    {}, {"wind_reorder": False, "elev_bias": False}, {"wind_reorder": False},
    {"elev_bias": False},
])
def test_no_grad_attention_maps_equal_the_taped_batch(over):
    # the no-tape forward runs sample by sample; its maps and tokens must be
    # the whole-batch taped pass's, bit for bit, with both mechanisms on
    # (the default), either one or neither
    config = tiny_config(layers=2, **over)
    store = init_params(config, seed=1)
    rng = np.random.default_rng(9)
    x = random_inputs(config, rng, batch=3).astype(np.float32)
    elev = rng.uniform(0, 3000, config.spec.n_patches)
    orders = wind_orders(config, x)
    taped = forward(store, config, x, elev, orders=orders, collect_attention=True)
    with ad.no_grad():
        plain = forward(store, config, x, elev, orders=orders, collect_attention=True)
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
    orders = wind_orders(config, x)

    def peak_bytes(batch):
        tracemalloc.start()
        try:
            with ad.no_grad():
                forward(store, config, x[:batch], elev, orders=orders[:batch])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(1)  # fill the per-grid caches first
    one, eight = peak_bytes(1), peak_bytes(8)
    assert eight < 1.5 * one, (one, eight)


def load_tape_stats():
    """`tape_stats` of the benchmark's instrument module, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "instrument.py"
    spec = importlib.util.spec_from_file_location("perfbench_instrument", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.tape_stats


# One taped training forward of the two-layer tiny model with dropout on
# records 8 nodes, one per block, whose reachable buffers (parameters and
# the bool dropout masks included) come to 19876 bytes: the embedding, the
# positional `pos.grid @ pos.proj` product, the terrain penalty (one raster
# (N, N) node), two nodes per layer (the attention block and the MLP) and
# the head. The embedding keeps the patch tokens and a bool mask; an
# attention block its input, the layer norm's row statistics, Q, K, V,
# the context, the softmax's column statistics and a bool mask; an MLP
# node its input, the row statistics and a bool mask. The attention
# blocks take `pos.rel` itself, with no (N, N) table gathered from it, and
# the tokens stay in raster order, so no node gathers them. A refactor
# that brings back a kept intermediate, such as a normalized input, a
# pre-activation, a GELU output, a float mask or a per-sample bias, fails
# here. The walk reads one level of closure cells, so the attention
# tables' shared base and blocks (held through `attention.BiasTables`)
# are not in the byte count.
TAPE_NODES = 8
TAPE_BYTES = 19876


def test_taped_forward_node_count_and_bytes_pinned():
    config = tiny_config(layers=2, dropout=0.1)
    store = init_params(config, seed=0)
    rng = np.random.default_rng(4)
    x = random_inputs(config, rng).astype(np.float32)
    elev = rng.uniform(0, 2500, config.spec.n_patches)
    res = forward(store, config, x, elev, orders=wind_orders(config, x), train=True, rng=rng)
    nodes, nbytes = load_tape_stats()(res.tokens)
    assert nodes == TAPE_NODES
    assert nbytes <= TAPE_BYTES


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("variant", sorted(ABLATION_VARIANTS))
def test_every_tape_walks_to_the_end(variant, dropout, train):
    # `tape_stats` reads every closure cell of every node: none may be
    # empty, whichever variant, dropout rate and mode built the tape.
    # Per layer: the attention block and the MLP node; then the embedding,
    # the positional product, the penalty node with the elevation bias,
    # and the head, whatever the dropout rate
    wind, elev_bias = ABLATION_VARIANTS[variant]
    config = tiny_config(layers=2, dropout=dropout, wind_reorder=wind, elev_bias=elev_bias)
    store = init_params(config, seed=0)
    rng = np.random.default_rng(4)
    x = random_inputs(config, rng).astype(np.float32)
    elev = rng.uniform(0, 2500, config.spec.n_patches)
    res = forward(store, config, x, elev, orders=wind_orders(config, x), train=train, rng=rng)
    nodes, _ = load_tape_stats()(res.tokens)
    assert nodes == config.layers * 2 + 3 + elev_bias


def assert_chain_bits(variant, monkeypatch, swaps):
    """A float32 training step of the two-layer tiny model with dropout on,
    with its fused nodes and again with each (module, name, oracle chain)
    of `swaps` in place of the fused node: the tokens, the loss, every
    parameter gradient and the generator state after the forward are the
    chain's, bit for bit."""
    wind, elev_bias = ABLATION_VARIANTS[variant]
    config = tiny_config(layers=2, dropout=0.2, wind_reorder=wind, elev_bias=elev_bias)
    rng = np.random.default_rng(13)
    x = random_inputs(config, rng, batch=3).astype(np.float32)
    elev = rng.uniform(0, 3000, config.spec.n_patches)
    orders = wind_orders(config, x)
    target = rng.normal(size=(3, config.spec.n_patches, config.out_dim)).astype(np.float32)
    mask = (rng.random((config.spec.n_patches, config.out_dim)) < 0.7).astype(np.float32)

    def run():
        store = init_params(config, seed=0)
        drop_rng = np.random.default_rng(12)
        res = forward(store, config, x, elev, orders=orders, train=True, rng=drop_rng)
        state = drop_rng.bit_generator.state
        loss = train._masked_mse_tokens(res.tokens, target, mask, 11.0)
        loss.backward()
        grads = {k: store[k].grad for k in store.names()}
        return [res.tokens.data, np.asarray(loss.data)], grads, state

    fused = run()
    for module, name, chain in swaps:
        monkeypatch.setattr(module, name, chain)
    chain = run()
    for got, want in zip(fused[0], chain[0]):
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
    assert fused[2] == chain[2]
    assert sorted(fused[1]) == sorted(chain[1])
    for name, grad in fused[1].items():
        other = chain[1][name]
        assert (grad is None) == (other is None), name
        assert grad is None or grad.tobytes() == other.tobytes(), name


@pytest.mark.parametrize("variant", sorted(ABLATION_VARIANTS))
def test_mlp_nodes_carry_the_bits_of_the_unfused_chain(variant, monkeypatch):
    # the MLP and head nodes against the chain of tape nodes they fuse
    assert_chain_bits(variant, monkeypatch, [(model, "_mlp", oracles.mlp_chain)])


FUSED_CHAINS = {
    "attention": (model, "_attend_parts", oracles.attend_chain),
    "embedding": (model, "_embed", oracles.embed_chain),
    "loss": (train, "_masked_mse_tokens", oracles.mse_chain),
    "mlp": (model, "_mlp", oracles.mlp_chain),
}


@pytest.mark.parametrize("node", ["attention", "embedding", "loss", "all"])
@pytest.mark.parametrize("variant", sorted(ABLATION_VARIANTS))
def test_block_nodes_carry_the_bits_of_the_unfused_chain(variant, node, monkeypatch):
    # each other fused node against its chain (tests/oracles.py), and the
    # whole network as one node per step
    swaps = list(FUSED_CHAINS.values()) if node == "all" else [FUSED_CHAINS[node]]
    assert_chain_bits(variant, monkeypatch, swaps)


def test_taped_forward_keeps_no_hidden_width_or_normalized_input():
    # every node recomputes its normalized input, and an MLP node its
    # pre-activation and GELU output: no float array a node keeps, and no
    # node's output, is of an MLP's hidden width (a layer's or the head's;
    # only the bool dropout mask is), and none is a layer norm of a node's
    # input under any of the model's norms (gains and biases moved off
    # their starting values), nor that input standardized
    config = tiny_config(layers=2, dropout=0.1, mlp_hidden=24, head_hidden=20)
    hidden = {config.mlp_hidden, config.head_hidden}
    assert not hidden & {config.d, config.out_dim, config.token_dim}
    store = init_params(config, seed=0)
    rng = np.random.default_rng(6)
    norms = []
    for name in store.names():
        if name.endswith(("ln1.g", "ln2.g", "ln.g")):
            gain, bias = store[name], store[name[:-1] + "b"]
            gain.data = gain.data + rng.normal(0.0, 0.3, gain.shape).astype(np.float32)
            bias.data = bias.data + rng.normal(0.0, 0.3, bias.shape).astype(np.float32)
            norms.append((gain.data, bias.data))
    norms.append((np.float32(1.0), np.float32(0.0)))
    x = random_inputs(config, rng).astype(np.float32)
    elev = rng.uniform(0, 2500, config.spec.n_patches)
    res = forward(store, config, x, elev, orders=wind_orders(config, x), train=True, rng=rng)
    nodes, seen, stack = [], set(), [res.tokens]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._vjp is None:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    assert len(nodes) == TAPE_NODES
    normalized = [ad.layer_norm(p.data, gain, bias)[0] for node in nodes
                  for p in node._parents if p.data.shape[-1:] == (config.d,)
                  for gain, bias in norms]
    for node in nodes:
        kept = [node.data] + [cell.cell_contents for cell in node._vjp.__closure__
                              if isinstance(cell.cell_contents, np.ndarray)]
        for arr in kept:
            assert arr.dtype == np.bool_ or not hidden & set(arr.shape[-1:]), arr.shape
            assert not any(arr.shape == n.shape and np.array_equal(arr, n)
                           for n in normalized), arr.shape


def test_taped_forward_keeps_no_batch_by_n_by_n_array():
    # with both mechanisms on, the bias reaches attention as `pos.rel`'s
    # (2M,) table and the (N, N) raster penalty; no array on the tape,
    # walked as `tape_stats` walks it, is as large as one (B, 1, N, N) bias
    config = tiny_config(spec=GridSpec(16, 32, 2, 4, 2), layers=2, dropout=0.1)
    assert config.wind_reorder and config.elev_bias
    store = init_params(config, seed=0)
    rng = np.random.default_rng(5)
    x = random_inputs(config, rng).astype(np.float32)
    elev = rng.uniform(0, 2500, config.spec.n_patches)
    res = forward(store, config, x, elev, orders=wind_orders(config, x), train=True, rng=rng)
    b, n = x.shape[0], config.spec.n_patches
    largest, seen, stack = 0, set(), [res.tokens]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        arrays = [node.data] + [
            cell.cell_contents for cell in getattr(node._vjp, "__closure__", None) or ()
            if isinstance(cell.cell_contents, np.ndarray)
        ]
        for arr in arrays:
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            largest = max(largest, arr.size)
        stack.extend(node._parents)
    assert n * n <= largest < b * n * n


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
    orders = wind_orders(config, x)

    def loss_value():
        res = forward(store, config, x, elev, orders=orders)
        diff = res.tokens.data - target
        return float((diff * diff * mask_tok).sum() / count)

    res = forward(store, config, x, elev, orders=orders)
    token_loss(res, target, mask_tok, count).backward()

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
    values = sum(t.data.size for t in store.tensors())
    assert path.stat().st_size == header + records + 4 * 3 * values
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


def test_checkpoint_sidecar_ignores_unknown_keys(tmp_path):
    # a sidecar written before a key was retired, such as model.wind_mean,
    # still loads; only its lines must be `key = value`
    config = tiny_config()
    path = tmp_path / "ckpt.gfd"
    model.save_checkpoint(path, init_params(config, seed=0), config)
    sidecar = tmp_path / "ckpt.gfd.txt"
    sidecar.write_text("model.wind_mean = 0.5\n" + sidecar.read_text())
    assert model.load_checkpoint(path)[1] == config


def test_config_kv_round_trip():
    configs = {
        "grid": GridSpec(4, 8, 2, 2, 1),
        "physics": synthdata.PhysicsConfig(kappa=12.5, boundary="clamped", substeps=3),
        "model": tiny_config(wind_reorder=False, dropout=0.25),
        "train": TrainConfig(lr_head=3e-05, warmup=7, total_steps=70, seed=11),
    }
    for section, obj in configs.items():
        kv = encode(obj, section)
        assert all(key.startswith(section + ".") for key in kv)
        assert decode(type(obj), kv, section) == obj
