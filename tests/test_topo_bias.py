import numpy as np
import pytest

from topoflow import attention, autodiff as ad, reorder, topo_bias
from topoflow.errors import DataError
from topoflow.fields import GridSpec

import oracles


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
        topo_bias.bias_tensor(h, ad.parameter(np.array(np.inf, dtype=np.float32)))


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


# -- the penalty as the attention node takes it: one raster table ------------------

def attention_case(rng, n, batch, dtype=np.float64):
    """(tokens, params, coeff) for a small attention layer of width 8, 2 heads."""
    def w():
        return ad.parameter(rng.normal(0.0, 0.35, size=(8, 8)).astype(dtype))
    params = attention.AttentionParams(w(), w(), w(), w(), 2)
    tokens = rng.normal(size=(batch, n, 8)).astype(dtype)
    coeff = rng.normal(size=(batch, n, 8)).astype(dtype)
    return tokens, params, coeff


def test_batched_alpha_gradient_matches_central_differences():
    # alpha reaches the loss through the raster penalty, which the batch
    # shares next to a relative table ranked through three distinct slot
    # orders
    rng = np.random.default_rng(6)
    h = rng.uniform(0, 8000, size=9)
    layout = np.arange(9).reshape(3, 3)
    orders = oracles.sector_orders(rng, layout, 3)
    tokens, params, coeff = attention_case(rng, 9, 3)
    rel = rng.normal(size=6)
    alpha, eps = 2.0, 1e-6

    def attend(a):
        tables = attention.bias_tables(rel, layout, topo_bias.bias_tensor(h, a))
        out, _ = oracles.attend_node(tokens, params, tables, orders)
        return out

    def loss(a):
        return float((attend(a).data * coeff).sum())

    a = ad.parameter(np.array(alpha))
    (attend(a) * ad.Tensor(coeff)).sum().backward()
    fd = (loss(alpha + eps) - loss(alpha - eps)) / (2 * eps)
    assert a.grad == pytest.approx(fd, rel=1e-8)
    # the case covers interior, clamped and downhill (or level) entries
    out = topo_bias.bias_tensor(h, alpha).data
    assert ((out > topo_bias.BIAS_LO) & (out < 0.0)).any()
    assert (out == topo_bias.BIAS_LO).any()
    assert (out == 0.0).any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batched_output_is_the_reindexed_penalty(dtype):
    # sample i's bias is the earlier (N, N) slot table reindexed to raster
    # positions, table[s][:, s] with s its inverse order, plus the raster
    # penalty as it is: the batched node gives each sample's output under
    # that bias, bit for bit
    rng = np.random.default_rng(7)
    h = rng.uniform(0, 8000, size=10)
    layout = np.array([[0, 2, 4, 6, 8], [1, 3, 5, 7, 9]])
    orders = oracles.sector_orders(rng, layout, 4)
    alpha = ad.parameter(np.array(1.3, dtype=dtype))
    flat = topo_bias.bias_tensor(h, alpha).data
    rel = rng.normal(size=10).astype(dtype)
    table = rel[oracles.relative_slot_index(layout)]
    assert flat.dtype == dtype
    tokens, params, _coeff = attention_case(rng, 10, 4, dtype)
    out, _ = oracles.attend_node(
        tokens, params, attention.bias_tables(rel, layout, flat), orders)
    assert out.dtype == dtype
    for i, s in enumerate(np.argsort(orders, axis=1)):
        want, _ = oracles.identity_attend(tokens[i : i + 1], params, table[s][:, s] + flat)
        assert out.data[i].tobytes() == want.data[0].tobytes()


def test_one_node_on_alpha_and_none_under_no_grad():
    rng = np.random.default_rng(8)
    h = rng.uniform(0, 4000, size=6)
    alpha = ad.parameter(np.array(2.0))
    taped = topo_bias.bias_tensor(h, alpha)
    assert taped._parents == (alpha,) and taped._vjp is not None
    with ad.no_grad():
        plain = topo_bias.bias_tensor(h, alpha)
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
    # a penalty built from slot-ordered elevations is the raster table
    # gathered in that order, bit for bit, so attending the slot-ordered
    # tokens under it and undoing the order is attending the raster tokens
    # under the raster table, to rounding, for the output and alpha
    rng = np.random.default_rng(9)
    h = rng.uniform(0, 8000, size=12)
    orders = np.stack([rng.permutation(12) for _ in range(3)])
    alpha = ad.parameter(np.array(1.3, dtype=dtype))
    raster = topo_bias.bias_tensor(h, alpha).data
    for order in orders:
        want = topo_bias.bias_tensor(h[order], alpha).data
        got = raster[order][:, order]
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
    tokens, params, coeff = attention_case(rng, 12, 3, dtype)
    tol = 1e-5 if dtype == np.float32 else 1e-12
    alpha = ad.parameter(np.array(1.3, dtype=dtype))
    out, _ = oracles.identity_attend(tokens, params, penalty=topo_bias.bias_tensor(h, alpha))
    (out * ad.Tensor(coeff)).sum().backward()
    per_sample = ad.parameter(np.array(1.3, dtype=dtype))
    for i, order in enumerate(orders):
        slots, _ = oracles.identity_attend(
            tokens[i : i + 1, order], params, topo_bias.bias_tensor(h[order], per_sample))
        np.testing.assert_allclose(reorder.unapply(order, slots.data[0]), out.data[i],
                                   rtol=0, atol=tol)
        (slots * ad.Tensor(coeff[i : i + 1, order])).sum().backward()
    assert alpha.grad.dtype == per_sample.grad.dtype == dtype
    assert float(alpha.grad) == pytest.approx(float(per_sample.grad), rel=tol)
