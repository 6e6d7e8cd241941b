"""Finite-difference validation of every tape primitive."""

import numpy as np
import pytest

from topoflow import autodiff as ad
from topoflow import model
from topoflow.fields import GridSpec


def numeric_grad(f, x, eps=1e-6):
    """Central differences of a scalar-valued f at x, elementwise."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = f(x)
        flat[i] = old - eps
        lo = f(x)
        flat[i] = old
        gf[i] = (hi - lo) / (2 * eps)
    return g


def check_unary(op, x, tol=1e-7):
    t = ad.parameter(x.copy())
    loss = (op(t) * ad.Tensor(np.cos(np.arange(x.size).reshape(x.shape)))).sum()
    loss.backward()
    want = numeric_grad(
        lambda a: float((op(ad.Tensor(a)).data * np.cos(np.arange(a.size).reshape(a.shape))).sum()),
        x.copy(),
    )
    np.testing.assert_allclose(t.grad, want, rtol=tol, atol=tol)


def test_add_mul_broadcast():
    rng = np.random.default_rng(0)
    a = ad.parameter(rng.normal(size=(3, 4)))
    b = ad.parameter(rng.normal(size=(4,)))
    loss = ((a + b) * (a * b)).sum()
    loss.backward()
    ga = numeric_grad(lambda x: float(((x + b.data) * (x * b.data)).sum()), a.data.copy())
    gb = numeric_grad(lambda y: float(((a.data + y) * (a.data * y)).sum()), b.data.copy())
    np.testing.assert_allclose(a.grad, ga, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(b.grad, gb, rtol=1e-6, atol=1e-9)


def test_matmul_batched():
    rng = np.random.default_rng(2)
    a = ad.parameter(rng.normal(size=(2, 3, 4)))
    w = ad.parameter(rng.normal(size=(4, 5)))
    y = a @ w
    loss = (y * y).sum()
    loss.backward()
    ga = numeric_grad(lambda x: float(((x @ w.data) ** 2).sum()), a.data.copy())
    gw = numeric_grad(lambda y: float(((a.data @ y) ** 2).sum()), w.data.copy())
    np.testing.assert_allclose(a.grad, ga, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(w.grad, gw, rtol=1e-6, atol=1e-8)


def test_reshape_transpose_sum_mean():
    rng = np.random.default_rng(3)
    x = ad.parameter(rng.normal(size=(2, 3, 4)))
    y = x.transpose(1, 0, 2).reshape(3, 8).sum() * (1.0 / 8.0)
    y.backward()
    np.testing.assert_allclose(x.grad, np.full((2, 3, 4), 1.0 / 8.0))


def test_gelu_matches_finite_differences():
    rng = np.random.default_rng(5)
    check_unary(ad.gelu, rng.normal(size=(7,)), tol=1e-6)


def test_gelu_bitwise_equal_to_textbook_formula():
    k, c = ad._GELU_K, ad._GELU_C
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(7)
        xd = rng.normal(0.0, 3.0, (4, 16, 32))
        xd[0, 0, :6] = (0.0, -0.0, 1e-20, -1e-20, 40.0, -40.0)
        x = ad.parameter(xd.astype(dtype))
        g = rng.normal(size=(4, 16, 32)).astype(dtype)
        xd = x.data
        sq = xd * xd
        t = np.tanh(k * (xd + c * sq * xd))
        du = k * (1.0 + 3.0 * c * sq)
        want_grad = g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du)
        y = ad.gelu(x)
        assert y.data.dtype == dtype
        assert y.data.tobytes() == (0.5 * xd * (1.0 + t)).tobytes()
        (grad,) = y._vjp(g)
        assert grad.dtype == dtype and grad.tobytes() == want_grad.tobytes()


def test_softmax_matches_finite_differences():
    rng = np.random.default_rng(6)
    check_unary(ad.softmax, rng.normal(size=(3, 5)), tol=1e-6)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    y = ad.softmax(ad.Tensor(rng.normal(size=(4, 9)) * 30)).data
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)


def test_layer_norm_matches_finite_differences():
    rng = np.random.default_rng(8)
    x = ad.parameter(rng.normal(size=(4, 6)))
    gamma = ad.parameter(rng.normal(size=(6,)))
    beta = ad.parameter(rng.normal(size=(6,)))
    coeff = rng.normal(size=(4, 6))
    (ad.layer_norm(x, gamma, beta) * ad.Tensor(coeff)).sum().backward()

    def loss_at(xv, gv, bv):
        return float((ad.layer_norm(ad.Tensor(xv), ad.Tensor(gv), ad.Tensor(bv)).data * coeff).sum())

    gx = numeric_grad(lambda a: loss_at(a, gamma.data, beta.data), x.data.copy())
    gg = numeric_grad(lambda a: loss_at(x.data, a, beta.data), gamma.data.copy())
    gb = numeric_grad(lambda a: loss_at(x.data, gamma.data, a), beta.data.copy())
    np.testing.assert_allclose(x.grad, gx, rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(gamma.grad, gg, rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(beta.grad, gb, rtol=1e-5, atol=1e-8)


def test_take_gathers_and_scatter_adds():
    x = ad.parameter(np.arange(5.0))
    idx = np.array([[0, 1], [1, 4]])
    y = ad.take(x, idx)
    np.testing.assert_array_equal(y.data, [[0.0, 1.0], [1.0, 4.0]])
    (y * ad.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))).sum().backward()
    np.testing.assert_array_equal(x.grad, [1.0, 5.0, 0.0, 0.0, 4.0])


def test_take_rows_scatter_adds_like_add_at():
    rng = np.random.default_rng(9)
    x = ad.parameter(rng.normal(size=(6, 3)).astype(np.float32))
    idx = rng.integers(0, 6, size=(4, 5))
    g = rng.normal(size=(4, 5, 3)).astype(np.float32)
    (ad.take(x, idx) * ad.Tensor(g)).sum().backward()
    want = np.zeros((6, 3))
    np.add.at(want, idx, g.astype(np.float64))
    assert x.grad.dtype == np.float32
    np.testing.assert_allclose(x.grad, want, rtol=1e-6, atol=1e-6)


def test_constant_operands_get_no_gradient():
    rng = np.random.default_rng(10)
    a = ad.parameter(rng.normal(size=(3, 4)))
    row = rng.uniform(0.5, 2.0, size=(4,))
    mat = rng.uniform(0.5, 2.0, size=(4, 4))
    g = rng.normal(size=(3, 4))
    for y, grad_a in (
        (a + ad.Tensor(row), g),
        (a * ad.Tensor(row), g * row),
        (a @ ad.Tensor(mat), g @ mat.T),
    ):
        ga, gc = y._vjp(g)
        assert gc is None
        np.testing.assert_array_equal(ga, grad_a)


def test_grad_accumulates_over_shared_nodes():
    x = ad.parameter(np.array([3.0]))
    y = x * x + x * 2.0
    y.sum().backward()
    np.testing.assert_allclose(x.grad, [8.0])


def test_backward_requires_scalar():
    x = ad.parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        (x * 2).backward()


def test_dropout_scaling_and_determinism():
    x = ad.parameter(np.ones((1000,)))
    y1 = ad.dropout(x, 0.25, np.random.default_rng(42))
    y2 = ad.dropout(x, 0.25, np.random.default_rng(42))
    np.testing.assert_array_equal(y1.data, y2.data)
    kept = y1.data[y1.data > 0]
    np.testing.assert_allclose(kept, 1.0 / 0.75)
    assert abs(y1.data.mean() - 1.0) < 0.1
    assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x


def test_dtype_is_preserved():
    x = ad.parameter(np.ones((3,), dtype=np.float32))
    y = ad.gelu(x * 2.0 + 1.0)
    assert y.data.dtype == np.float32
    y.sum().backward()
    assert x.grad.dtype == np.float32


def test_no_grad_records_nothing_and_restores_mode():
    x = ad.parameter(np.ones((2, 2)))
    with ad.no_grad():
        y = ad.gelu(x * 2.0 + x)
    assert not y.requires_grad and y._parents == () and y._vjp is None
    assert (x * 2.0).requires_grad
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside")
    z = x * 2.0
    assert z.requires_grad and z._parents


def test_no_grad_model_forward_is_bitwise_equal():
    spec = GridSpec(4, 8, 2, 2, 2)
    config = model.ModelConfig(spec=spec, d=8, layers=2, heads=2, mlp_hidden=16,
                               head_hidden=16, n_horizons=2)
    store = model.init_params(config, seed=3)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, config.v_in, 4, 8)).astype(np.float32)
    elev = rng.uniform(0, 2500, spec.n_patches)
    perms = model.build_perms(config, x[:, 0], x[:, 1])
    taped = model.forward(store, config, x, elev, perms=perms)
    with ad.no_grad():
        plain = model.forward(store, config, x, elev, perms=perms)
    assert taped.tokens.requires_grad and taped.tokens._parents
    assert not plain.tokens.requires_grad and plain.tokens._parents == ()
    np.testing.assert_array_equal(plain.to_grid(), taped.to_grid())
    assert all(t.requires_grad for t in store.tensors())
