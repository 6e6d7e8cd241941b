import math

import numpy as np
import pytest

from topoflow import evalkit, model, synthdata
from topoflow.config import DataConfig
from topoflow.errors import DataError, FitError, MaskError
from topoflow.fields import GridSpec, LandMask, NormStats
from topoflow.model import ModelConfig, init_params


SPEC = GridSpec(8, 16, 2, 4, 2)


@pytest.fixture(scope="module")
def bundle():
    tw = synthdata.gen_terrain(SPEC, 1, DataConfig(), synthdata.PhysicsConfig())
    cfg = synthdata.PhysicsConfig(substeps=2)
    samples = synthdata.make_dataset(SPEC, tw, cfg, DataConfig(count=8, horizons=(12, 24)), seed=2)
    stats = NormStats.fit([s.input for s in samples], synthdata.norm_kinds())
    mask = synthdata.study_mask(SPEC)
    return synthdata.DatasetBundle(SPEC, tuple(samples), tw, mask, stats, (12, 24), 0.1)


def full_mask(h=2, w=2):
    return LandMask(GridSpec(h, w, 1, 1, 1), np.ones((h, w)))


# -- rmse / mae / correlation -----------------------------------------------------

def test_rmse_zero_when_equal():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 2))
    assert evalkit.rmse(x, x, full_mask()) == 0.0


def test_rmse_constant_offset():
    x = np.zeros((2, 2))
    assert evalkit.rmse(x + 3.5, x, full_mask()) == pytest.approx(3.5)


def test_rmse_hand_case_and_symmetry():
    pred = np.array([[3.0, 4.0]])
    target = np.zeros((1, 2))
    mask = LandMask(GridSpec(1, 2, 1, 1, 1), np.ones((1, 2)))
    want = math.sqrt(25.0 / 2.0)
    assert evalkit.rmse(pred, target, mask) == pytest.approx(want)
    assert evalkit.rmse(pred, target, mask) == pytest.approx(3.5355, abs=1e-4)
    assert evalkit.rmse(target, pred, mask) == evalkit.rmse(pred, target, mask)


def test_rmse_scaling_matches_denormalized():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    mask = full_mask(4, 4)
    sigma, mu = 7.3, 55.0
    scaled = evalkit.rmse(a * sigma + mu, b * sigma + mu, mask)
    assert scaled == pytest.approx(sigma * evalkit.rmse(a, b, mask), rel=1e-6)


def test_mae_bounded_by_rmse():
    rng = np.random.default_rng(2)
    p = rng.normal(size=(6, 6))
    t = rng.normal(size=(6, 6))
    mask = full_mask(6, 6)
    assert evalkit.mae(p, t, mask) <= evalkit.rmse(p, t, mask)


def test_rmse_respects_mask():
    pred = np.array([[1.0, 100.0], [1.0, 1.0]])
    target = np.zeros((2, 2))
    mask = LandMask(GridSpec(2, 2, 1, 1, 1), np.array([[1, 0], [1, 1]]))
    assert evalkit.rmse(pred, target, mask) == pytest.approx(1.0)
    with pytest.raises(MaskError):
        evalkit.rmse(pred, target, np.zeros((2, 2)))


def test_correlation_perfect_and_inverted():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    mask = full_mask()
    assert evalkit.correlation(x, x, mask) == pytest.approx(1.0)
    centered = x - x.mean()
    assert evalkit.correlation(-centered, centered, mask) == pytest.approx(-1.0)


def test_correlation_hand_three_points():
    pred = np.array([[1.0, 2.0, 3.0]])
    target = np.array([[2.0, 4.0, 7.0]])
    mask = LandMask(GridSpec(1, 3, 1, 1, 1), np.ones((1, 3)))
    # hand oracle: r = 5 / (sqrt(2) * sqrt(114/9))
    want = 5.0 / (math.sqrt(2.0) * math.sqrt(114.0 / 9.0))
    assert evalkit.correlation(pred, target, mask) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(0.9933993, abs=1e-7)


def test_correlation_degenerate_errors():
    mask = full_mask()
    with pytest.raises(FitError):
        evalkit.correlation(np.ones((2, 2)), np.eye(2), mask)
    tiny = LandMask(GridSpec(2, 2, 1, 1, 1), np.array([[1, 0], [0, 0]]))
    with pytest.raises(DataError):
        evalkit.correlation(np.ones((2, 2)), np.eye(2), tiny)


# -- attention diagnostics -----------------------------------------------------------

def test_attn_uniform_rows():
    w = np.full((4, 4), 0.25)
    diag = evalkit.attn_diagnostics(w)
    np.testing.assert_allclose(diag.entropy, math.log(4.0), atol=1e-12)
    assert diag.mu == pytest.approx(0.25)
    assert diag.histogram.sum() == pytest.approx(1.0, abs=1e-9)


def test_attn_one_hot_rows():
    w = np.eye(5)
    diag = evalkit.attn_diagnostics(w)
    np.testing.assert_allclose(diag.entropy, 0.0, atol=1e-12)
    assert diag.mu == pytest.approx(1.0)


def test_attn_rejects_non_stochastic():
    with pytest.raises(DataError):
        evalkit.attn_diagnostics(np.ones((3, 3)))


def test_attn_histogram_mass():
    rng = np.random.default_rng(3)
    w = rng.dirichlet(np.ones(16), size=(2, 8))
    diag = evalkit.attn_diagnostics(w)
    assert diag.histogram.sum() == pytest.approx(1.0, abs=1e-9)
    assert diag.n_rows == 16
    text = evalkit.render_attn_text(diag)
    assert text.startswith("rows 16")
    assert len(text.splitlines()) == 4 + evalkit.ATTN_BINS


# -- report ---------------------------------------------------------------------------

def test_report_shape_and_aggregation(bundle):
    config = ModelConfig(spec=SPEC, d=16, layers=1, heads=2, mlp_hidden=32,
                         head_hidden=32, dropout=0.0, n_horizons=2)
    store = init_params(config, seed=0)
    rep = evalkit.report(store, config, bundle, batch=4)
    assert rep.channels == ("c",) and rep.horizons == (12, 24)
    for cell in rep.cells.values():
        assert cell.rmse >= cell.mae >= 0.0
        assert -1.0 <= cell.r <= 1.0
        assert cell.n == bundle.mask.count * len(bundle.samples)
    # overall is the mean of per-horizon averages (same cells, same counts)
    want = np.mean([rep.horizon_average(h) for h in rep.horizons])
    assert rep.overall() == pytest.approx(want)
    # single channel: channel average equals overall
    assert rep.channel_average("c") == pytest.approx(rep.overall())


def test_report_deterministic(bundle):
    config = ModelConfig(spec=SPEC, d=16, layers=1, heads=2, mlp_hidden=32,
                         head_hidden=32, dropout=0.0, n_horizons=2)
    store = init_params(config, seed=0)
    a = evalkit.report(store, config, bundle, batch=4)
    b = evalkit.report(store, config, bundle, batch=4)
    assert a.to_csv() == b.to_csv()
    assert a.render_text() == b.render_text()


def test_report_renders(bundle):
    config = ModelConfig(spec=SPEC, d=16, layers=1, heads=2, mlp_hidden=32,
                         head_hidden=32, dropout=0.0, n_horizons=2)
    store = init_params(config, seed=0)
    rep = evalkit.report(store, config, bundle, batch=8)
    text = rep.render_text()
    assert "RMSE" in text and "overall" in text and "not dimensionally sound" in text
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "channel,horizon,rmse,mae,r,n"
    assert len(csv.splitlines()) == 1 + len(rep.channels) * len(rep.horizons)


def test_predict_grids_attention_collection(bundle):
    config = ModelConfig(spec=SPEC, d=16, layers=1, heads=2, mlp_hidden=32,
                         head_hidden=32, dropout=0.0, n_horizons=2)
    store = init_params(config, seed=0)
    preds, attn = evalkit.predict_grids(store, config, bundle, batch=4, collect_attention=True)
    assert preds.shape == (len(bundle.samples), 2, 8, 16)
    assert len(attn) == len(bundle.samples)
    np.testing.assert_allclose(attn[0].sum(axis=-1), 1.0, atol=1e-5)


def test_predict_grids_makes_one_forward_call_per_batch(bundle, monkeypatch):
    # one batch is one `model.forward` call, also when the no-tape forward
    # runs its samples one at a time
    calls = []
    original = model.forward

    def counting(*args, **kwargs):
        calls.append(len(args[2]))
        return original(*args, **kwargs)

    monkeypatch.setattr(model, "forward", counting)
    monkeypatch.setattr(evalkit, "forward", counting)
    config = ModelConfig(spec=SPEC, d=16, layers=1, heads=2, mlp_hidden=32,
                         head_hidden=32, dropout=0.0, n_horizons=2)
    five = synthdata.DatasetBundle(SPEC, bundle.samples[:5], bundle.terrain, bundle.mask,
                                   bundle.stats, bundle.horizons, bundle.val_fraction)
    preds, _ = evalkit.predict_grids(init_params(config, seed=0), config, five, batch=2)
    assert preds.shape[0] == 5
    assert calls == [2, 2, 1]
    # each batch is prepared on its own; the predictions keep their bits
    whole, _ = evalkit.predict_grids(init_params(config, seed=0), config, five, batch=5)
    np.testing.assert_array_equal(preds, whole)
