import numpy as np
import pytest

from topoflow import autodiff as ad
from topoflow import topo_bias
from topoflow.errors import DataError
from topoflow.fields import GridSpec


def fd_alpha_gradient(patch_elev, alpha, eps=1e-6):
    hi = topo_bias.build_bias(patch_elev, alpha + eps).matrix
    lo = topo_bias.build_bias(patch_elev, alpha - eps).matrix
    return (hi - lo) / (2 * eps)


# -- patch elevations ----------------------------------------------------------

def test_patch_means_constant():
    spec = GridSpec(4, 4, 2, 2, 2)
    h = topo_bias.patch_elevations(np.full((4, 4), 500.0), spec)
    np.testing.assert_allclose(h, 500.0)


def test_patch_mean_hand_case():
    spec = GridSpec(2, 2, 2, 1, 1)
    cells = np.array([[0.0, 1000.0], [2000.0, 1000.0]])
    h = topo_bias.patch_elevations(cells, spec)
    assert h.shape == (1,)
    assert h[0] == pytest.approx(1000.0)


def test_patch_means_preserve_ordering():
    spec = GridSpec(4, 8, 2, 2, 2)
    elev = np.zeros((4, 8))
    elev[:, 4:] = 1500.0  # ridge on the east half
    h = topo_bias.patch_elevations(elev, spec)
    flat = h.reshape(2, 4)[:, :2]
    ridge = h.reshape(2, 4)[:, 2:]
    assert flat.max() < ridge.min()


# -- bias values -----------------------------------------------------------------

def test_equal_elevations_give_zero():
    bias = topo_bias.build_bias(np.array([700.0, 700.0, 700.0]), alpha=2.0)
    np.testing.assert_array_equal(bias.matrix, 0.0)


def test_hand_values_500m_and_clamp():
    h = np.array([0.0, 500.0, 10000.0])
    bias = topo_bias.build_bias(h, alpha=2.0)
    assert bias.matrix[0, 1] == pytest.approx(-1.0)          # climb 500 m
    assert bias.matrix[1, 0] == 0.0                          # downhill free
    assert bias.matrix[0, 2] == -10.0                        # raw -20, clamped
    assert bias.matrix[1, 2] == -10.0                        # raw -19, clamped
    assert bias.matrix[2, 0] == 0.0


def test_clamp_bounds_hold_for_extreme_inputs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        h = rng.uniform(-5000, 9000, size=12)
        alpha = rng.uniform(-50, 50)
        m = topo_bias.build_bias(h, alpha=alpha).matrix
        assert m.min() >= -10.0 and m.max() <= 0.0


def test_downhill_always_unpenalized_and_monotone():
    rng = np.random.default_rng(1)
    h = rng.uniform(0, 4000, size=10)
    m = topo_bias.build_bias(h, alpha=2.0).matrix
    for i in range(10):
        for j in range(10):
            if h[j] <= h[i]:
                assert m[i, j] == 0.0
        order = np.argsort(h)
        np.testing.assert_array_equal(np.diff(m[i, order]) <= 1e-12, True)


def test_asymmetry_uphill_vs_downhill():
    h = np.array([100.0, 900.0])
    m = topo_bias.build_bias(h, alpha=2.0).matrix
    assert m[0, 1] != m[1, 0]
    assert m[0, 1] < 0.0 and m[1, 0] == 0.0


def test_alpha_zero_is_all_zero():
    rng = np.random.default_rng(2)
    m = topo_bias.build_bias(rng.uniform(0, 3000, 8), alpha=0.0).matrix
    np.testing.assert_array_equal(m, 0.0)


def test_non_finite_alpha_rejected():
    with pytest.raises(DataError):
        topo_bias.build_bias(np.array([0.0, 1.0]), alpha=np.nan)


# -- alpha gradient ----------------------------------------------------------------

def test_gradient_dead_zone_and_hand_value():
    h = np.array([0.0, 500.0, 10000.0])
    g = topo_bias.bias_gradient_alpha(h, alpha=2.0)
    assert g[1, 0] == 0.0                      # h_j <= h_i
    assert g[0, 1] == pytest.approx(-0.5)      # unclamped 500 m climb
    assert g[0, 2] == 0.0                      # clamp saturated (raw -20)


def test_gradient_matches_finite_differences_on_unclamped():
    rng = np.random.default_rng(3)
    h = rng.uniform(0, 3000, size=9)
    alpha = 2.0
    analytic = topo_bias.bias_gradient_alpha(h, alpha)
    numeric = fd_alpha_gradient(h, alpha)
    raw = -alpha * topo_bias.uphill_matrix(h)
    interior = (raw > topo_bias.BIAS_LO) & (raw < 0.0)
    rel = np.abs(analytic[interior] - numeric[interior]) / np.abs(numeric[interior])
    assert rel.max() < 1e-6
    np.testing.assert_array_equal(analytic[~interior], 0.0)


def test_tape_alpha_gradient_matches_analytic():
    rng = np.random.default_rng(4)
    h = rng.uniform(0, 6000, size=7)
    alpha = ad.parameter(np.array(2.0))
    uphill = topo_bias.uphill_matrix(h)
    bias = topo_bias.bias_tensor(uphill, alpha)
    coeff = rng.normal(size=bias.shape)
    (bias * ad.Tensor(coeff)).sum().backward()
    want = (topo_bias.bias_gradient_alpha(h, 2.0) * coeff).sum()
    assert alpha.grad == pytest.approx(want, rel=1e-12)


def test_bias_tensor_matches_build_bias():
    rng = np.random.default_rng(5)
    h = rng.uniform(0, 8000, size=6)
    alpha = ad.parameter(np.array(1.7))
    got = topo_bias.bias_tensor(topo_bias.uphill_matrix(h), alpha).data
    want = topo_bias.build_bias(h, alpha=1.7).matrix
    np.testing.assert_allclose(got, want, rtol=1e-12)

