import numpy as np
import pytest

from topoflow import autodiff as ad
from topoflow import topo_bias
from topoflow.errors import DataError
from topoflow.fields import GridSpec


def penalty(patch_elev, alpha):
    return topo_bias.bias_tensor(patch_elev, alpha).data


def fd_alpha_gradient(patch_elev, alpha, eps=1e-6):
    hi = penalty(patch_elev, alpha + eps)
    lo = penalty(patch_elev, alpha - eps)
    return (hi - lo) / (2 * eps)


def entry_gradients(patch_elev, alpha):
    """d(bias_ij)/d(alpha) for every entry, one tape backward per entry."""
    a = ad.parameter(np.array(alpha))
    out = topo_bias.bias_tensor(patch_elev, a)
    grads = np.zeros(out.shape)
    for idx in np.ndindex(out.shape):
        seed = np.zeros(out.shape)
        seed[idx] = 1.0
        a.grad = None
        out.backward(seed)
        grads[idx] = a.grad
    return grads


def reference_gradient_alpha(patch_elev, alpha):
    """Analytic d(bias)/d(alpha) per entry: -ReLU((h_j - h_i) / h0) where the
    clamp is inactive, 0 at or beyond a clamp boundary (subgradient 0 at the edge)."""
    uphill = topo_bias.uphill_matrix(patch_elev)
    raw = -float(alpha) * uphill
    interior = (raw > topo_bias.BIAS_LO) & (raw < 0.0)
    return np.where(interior, -uphill, 0.0)


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
    bias = penalty(np.array([700.0, 700.0, 700.0]), 2.0)
    np.testing.assert_array_equal(bias, 0.0)


def test_hand_values_500m_and_clamp():
    h = np.array([0.0, 500.0, 10000.0])
    bias = penalty(h, 2.0)
    assert bias[0, 1] == pytest.approx(-1.0)          # climb 500 m
    assert bias[1, 0] == 0.0                          # downhill free
    assert bias[0, 2] == -10.0                        # raw -20, clamped
    assert bias[1, 2] == -10.0                        # raw -19, clamped
    assert bias[2, 0] == 0.0


def test_clamp_bounds_hold_for_extreme_inputs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        h = rng.uniform(-5000, 9000, size=12)
        alpha = rng.uniform(-50, 50)
        m = penalty(h, alpha)
        assert m.min() >= -10.0 and m.max() <= 0.0


def test_downhill_always_unpenalized_and_monotone():
    rng = np.random.default_rng(1)
    h = rng.uniform(0, 4000, size=10)
    m = penalty(h, 2.0)
    for i in range(10):
        for j in range(10):
            if h[j] <= h[i]:
                assert m[i, j] == 0.0
        order = np.argsort(h)
        np.testing.assert_array_equal(np.diff(m[i, order]) <= 1e-12, True)


def test_asymmetry_uphill_vs_downhill():
    h = np.array([100.0, 900.0])
    m = penalty(h, 2.0)
    assert m[0, 1] != m[1, 0]
    assert m[0, 1] < 0.0 and m[1, 0] == 0.0


def test_alpha_zero_is_all_zero():
    rng = np.random.default_rng(2)
    m = penalty(rng.uniform(0, 3000, 8), 0.0)
    np.testing.assert_array_equal(m, 0.0)


def test_non_finite_alpha_rejected():
    h = np.array([0.0, 1.0])
    with pytest.raises(DataError):
        topo_bias.bias_tensor(h, np.nan)
    with pytest.raises(DataError):
        topo_bias.bias_tensor(h, ad.parameter(np.array(np.inf, dtype=np.float32)),
                              orders=np.array([[1, 0]]))


# -- alpha gradient ----------------------------------------------------------------

def test_gradient_dead_zone_and_hand_value():
    h = np.array([0.0, 500.0, 10000.0])
    g = entry_gradients(h, 2.0)
    assert g[1, 0] == 0.0                      # h_j <= h_i
    assert g[0, 1] == pytest.approx(-0.5)      # unclamped 500 m climb
    assert g[0, 2] == 0.0                      # clamp saturated (raw -20)


def test_alpha_gradient_zero_at_and_beyond_the_clamp():
    # a 5000 m climb at alpha 2 lands exactly on the floor: the clamp is hard,
    # so the entry passes no gradient, as the level and downhill pairs at the
    # ceiling 0 do not either
    h = np.array([0.0, 5000.0, 10000.0, 250.0])
    bias = penalty(h, 2.0)
    assert bias[0, 1] == topo_bias.BIAS_LO and bias[0, 2] == topo_bias.BIAS_LO
    g = entry_gradients(h, 2.0)
    assert g[0, 1] == 0.0                      # on the floor
    assert g[0, 2] == 0.0                      # beyond it (raw -20)
    assert g[0, 3] == -0.25                    # interior
    assert g[1, 0] == 0.0 and g[0, 0] == 0.0   # downhill, level


def test_gradient_matches_finite_differences_on_unclamped():
    rng = np.random.default_rng(3)
    h = rng.uniform(0, 3000, size=9)
    alpha = 2.0
    analytic = entry_gradients(h, alpha)
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
    bias = topo_bias.bias_tensor(h, alpha)
    coeff = rng.normal(size=bias.shape)
    (bias * ad.Tensor(coeff)).sum().backward()
    want = (reference_gradient_alpha(h, 2.0) * coeff).sum()
    assert alpha.grad == pytest.approx(want, rel=1e-12)


def test_batched_alpha_gradient_matches_central_differences():
    rng = np.random.default_rng(6)
    h = rng.uniform(0, 8000, size=9)
    orders = np.stack([rng.permutation(9) for _ in range(3)])
    coeff = rng.normal(size=(3, 1, 9, 9))
    alpha, eps = 2.0, 1e-6

    def loss(a):
        return float((topo_bias.bias_tensor(h, a, orders).data * coeff).sum())

    a = ad.parameter(np.array(alpha))
    out = topo_bias.bias_tensor(h, a, orders)
    assert out.shape == (3, 1, 9, 9)
    (out * ad.Tensor(coeff)).sum().backward()
    fd = (loss(alpha + eps) - loss(alpha - eps)) / (2 * eps)
    assert a.grad == pytest.approx(fd, rel=1e-8)
    # the case covers interior, clamped and downhill (or level) entries
    assert ((out.data > topo_bias.BIAS_LO) & (out.data < 0.0)).any()
    assert (out.data == topo_bias.BIAS_LO).any()
    assert (out.data == 0.0).any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batched_output_is_the_reindexed_penalty(dtype):
    rng = np.random.default_rng(7)
    h = rng.uniform(0, 8000, size=10)
    orders = np.stack([rng.permutation(10) for _ in range(4)])
    alpha = ad.parameter(np.array(1.3, dtype=dtype))
    flat = topo_bias.bias_tensor(h, alpha).data
    batched = topo_bias.bias_tensor(h, alpha, orders).data
    assert batched.dtype == flat.dtype == dtype
    for b, order in enumerate(orders):
        np.testing.assert_array_equal(batched[b, 0], flat[order][:, order])


def test_one_node_on_alpha_and_none_under_no_grad():
    rng = np.random.default_rng(8)
    h = rng.uniform(0, 4000, size=6)
    orders = np.stack([rng.permutation(6) for _ in range(2)])
    alpha = ad.parameter(np.array(2.0))
    taped = topo_bias.bias_tensor(h, alpha, orders)
    assert taped._parents == (alpha,) and taped._vjp is not None
    with ad.no_grad():
        plain = topo_bias.bias_tensor(h, alpha, orders)
    assert not plain.requires_grad and plain._parents == () and plain._vjp is None
    np.testing.assert_array_equal(plain.data, taped.data)


def test_bias_tensor_matches_reference_formula():
    rng = np.random.default_rng(5)
    h = rng.uniform(0, 8000, size=6)
    alpha = ad.parameter(np.array(1.7))
    got = topo_bias.bias_tensor(h, alpha).data
    want = np.clip(-1.7 * topo_bias.uphill_matrix(h), topo_bias.BIAS_LO, 0.0)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(penalty(h, 1.7), want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gather_from_raster_uphill_is_bitwise_the_per_sample_build(dtype):
    # the reference builds each sample's uphill matrix from its reordered
    # elevations; `bias_tensor` gathers it from one raster matrix, given
    # as elevations or as that matrix
    rng = np.random.default_rng(9)
    h = rng.uniform(0, 8000, size=12)
    orders = np.stack([rng.permutation(12) for _ in range(3)])
    coeff = rng.normal(size=(3, 1, 12, 12)).astype(dtype)
    up = np.stack([topo_bias.uphill_matrix(h[order]) for order in orders])[:, None]
    want = np.clip(-dtype(1.3) * up.astype(dtype), topo_bias.BIAS_LO, 0.0)
    for terrain in (h, topo_bias.uphill_matrix(h)):
        alpha = ad.parameter(np.array(1.3, dtype=dtype))
        out = topo_bias.bias_tensor(terrain, alpha, orders)
        assert out.data.dtype == dtype
        assert out.data.tobytes() == want.tobytes()
        (out * ad.Tensor(coeff)).sum().backward()
        inside = (want > topo_bias.BIAS_LO) & (want < 0.0)
        assert alpha.grad == -((coeff * inside) * up.astype(dtype)).sum()
