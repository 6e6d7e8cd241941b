"""Finite-difference validation of every tape primitive."""

import itertools
import operator

import numpy as np
import pytest

from topoflow import autodiff as ad
from topoflow import model, reorder, train
from topoflow.fields import GridSpec

import oracles


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


@pytest.mark.parametrize("x_shape", [(5, 4), (2, 5, 4)])
def test_linear_bitwise_equals_matmul_then_add(x_shape):
    rng = np.random.default_rng(12)
    x0 = rng.normal(size=x_shape).astype(np.float32)
    w0 = rng.normal(size=(4, 3)).astype(np.float32)
    b0 = rng.normal(size=(3,)).astype(np.float32)
    g = rng.normal(size=x_shape[:-1] + (3,)).astype(np.float32)
    runs = []
    for op in (oracles.linear, lambda x, w, b: x @ w + b):
        x, w, b = (ad.parameter(a.copy()) for a in (x0, w0, b0))
        y = op(x, w, b)
        (y * ad.Tensor(g)).sum().backward()
        runs.append([y.data, x.grad, w.grad, b.grad])
    for fused, chain in zip(*runs):
        assert fused.dtype == np.float32
        assert fused.tobytes() == chain.tobytes()


def test_linear_matches_finite_differences_and_records_nothing_under_no_grad():
    rng = np.random.default_rng(13)
    x = ad.parameter(rng.normal(size=(2, 3, 4)))
    w = ad.parameter(rng.normal(size=(4, 5)))
    b = ad.parameter(rng.normal(size=(5,)))
    c = np.cos(np.arange(30.0)).reshape(2, 3, 5)
    (oracles.linear(x, w, b) * ad.Tensor(c)).sum().backward()
    for t, f in (
        (x, lambda a: ((a @ w.data + b.data) * c).sum()),
        (w, lambda a: ((x.data @ a + b.data) * c).sum()),
        (b, lambda a: ((x.data @ w.data + a) * c).sum()),
    ):
        np.testing.assert_allclose(t.grad, numeric_grad(f, t.data.copy()), rtol=1e-7, atol=1e-7)
    with ad.no_grad():
        y = oracles.linear(x, w, b)
    assert not y.requires_grad and y._parents == () and y._vjp is None


def test_reshape_transpose_sum_mean():
    rng = np.random.default_rng(3)
    x = ad.parameter(rng.normal(size=(2, 3, 4)))
    y = oracles.reshape(oracles.transpose(x, 1, 0, 2), 3, 8).sum() * (1.0 / 8.0)
    y.backward()
    np.testing.assert_allclose(x.grad, np.full((2, 3, 4), 1.0 / 8.0))


def test_gelu_matches_finite_differences():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7,))
    coeff = np.cos(np.arange(7.0))
    act, grad = ad.gelu_backward(x, coeff)
    assert act.tobytes() == ad.gelu(x).tobytes()
    want = numeric_grad(lambda a: float((ad.gelu(a) * coeff).sum()), x.copy())
    np.testing.assert_allclose(grad, want, rtol=1e-6, atol=1e-6)


def test_gelu_bitwise_equal_to_textbook_formula():
    # (3, 25000) spans three chunks, the last one partial
    k, c = ad._GELU_K, ad._GELU_C
    for shape, dtype in itertools.product([(4, 16, 32), (3, 25000)], [np.float32, np.float64]):
        rng = np.random.default_rng(7)
        xd = rng.normal(0.0, 3.0, shape)
        xd.reshape(-1)[:6] = (0.0, -0.0, 1e-20, -1e-20, 40.0, -40.0)
        xd = xd.astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        sq = xd * xd
        t = np.tanh(k * (xd + c * sq * xd))
        du = k * (1.0 + 3.0 * c * sq)
        want_out = (0.5 * xd * (1.0 + t)).tobytes()
        want_grad = g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du)
        y = ad.gelu(xd)
        assert y.dtype == dtype and y.tobytes() == want_out
        act, grad = ad.gelu_backward(xd, g)
        assert act.dtype == grad.dtype == dtype
        assert act.tobytes() == want_out and grad.tobytes() == want_grad.tobytes()
        # written over its own gradient input, the gradient keeps its bits
        act, grad = ad.gelu_backward(xd, g, out=g)
        assert grad is g and g.tobytes() == want_grad.tobytes()


def test_softmax_matches_finite_differences():
    # the row-softmax oracle that the primitive-chain attention reference uses
    rng = np.random.default_rng(6)
    check_unary(oracles.softmax_rows, rng.normal(size=(3, 5)), tol=1e-6)


def test_softmax_rows_sum_to_one():
    # the name is kept from the former row mode; this checks the column step
    # that runs, on (2, 9, 4) blocks laid out keys x queries with logits x30:
    # no overflow, each column of e / sum sums to 1, and stats hold each
    # column's max and sum of exponentials
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(2, 9, 4)) * 30
    col_max, col_sum = np.empty((2, 1, 4)), np.empty((2, 1, 4))
    e = ad.softmax(logits.copy(), stats=(col_max, col_sum))
    assert np.isfinite(e).all()
    np.testing.assert_allclose((e / col_sum).sum(axis=-2), 1.0, atol=1e-12)
    np.testing.assert_array_equal(col_max, logits.max(axis=-2, keepdims=True))
    np.testing.assert_allclose(col_sum, e.sum(axis=-2, keepdims=True), rtol=1e-12)


def test_layer_norm_matches_finite_differences():
    rng = np.random.default_rng(8)
    x, gamma, beta = rng.normal(size=(4, 6)), rng.normal(size=(6,)), rng.normal(size=(6,))
    coeff = rng.normal(size=(4, 6))
    _, mu, inv = ad.layer_norm(x, gamma, beta)
    assert mu.shape == inv.shape == (4, 1)
    grads = ad.layer_norm_backward(coeff, (x - mu) * inv, inv, gamma)

    def loss_at(xv, gv, bv):
        return float((ad.layer_norm(xv, gv, bv)[0] * coeff).sum())

    want = (
        numeric_grad(lambda a: loss_at(a, gamma, beta), x.copy()),
        numeric_grad(lambda a: loss_at(x, a, beta), gamma.copy()),
        numeric_grad(lambda a: loss_at(x, gamma, a), beta.copy()),
    )
    for grad, w in zip(grads, want):
        np.testing.assert_allclose(grad, w, rtol=1e-5, atol=1e-8)
    # the tape node returns the helper's output and gradients
    tensors = [ad.parameter(a.copy()) for a in (x, gamma, beta)]
    y = oracles.layer_norm_node(*tensors)
    assert y.data.tobytes() == ad.layer_norm(x, gamma, beta)[0].tobytes()
    (y * ad.Tensor(coeff)).sum().backward()
    for t, grad in zip(tensors, grads):
        assert t.grad.tobytes() == grad.tobytes()


@pytest.mark.parametrize("residual, rate", [(True, 0.3), (True, 0.0), (False, 0.0)])
def test_mlp_node_matches_finite_differences(residual, rate):
    # a transformer layer's MLP with dropout on and off, and the head; the
    # dropout mask comes from a generator re-seeded for every evaluation
    rng = np.random.default_rng(15)
    d, hidden, out = 4, 6, 4 if residual else 3
    arrays = [rng.normal(size=shape) for shape in (
        (2, 3, d), (d,), (d,), (d, hidden), (hidden,), (hidden, out), (out,))]
    coeff = rng.normal(size=(2, 3, out))

    def run(tensors):
        return model._mlp(tensors[0], tuple(tensors[1:]), residual, rate,
                          np.random.default_rng(16))

    tensors = [ad.parameter(a.copy()) for a in arrays]
    (run(tensors) * ad.Tensor(coeff)).sum().backward()
    for i, t in enumerate(tensors):
        def loss_at(a, i=i):
            values = arrays[:i] + [a] + arrays[i + 1:]
            return float((run([ad.Tensor(v) for v in values]).data * coeff).sum())

        want = numeric_grad(loss_at, arrays[i].copy())
        np.testing.assert_allclose(t.grad, want, rtol=1e-5, atol=1e-8, err_msg=str(i))


@pytest.mark.parametrize("rate", [0.3, 0.0])
def test_embedding_node_matches_finite_differences(rate):
    # the patch projection, its bias and the positional vectors, with
    # dropout on and off; the mask comes from a generator re-seeded for
    # every evaluation
    rng = np.random.default_rng(17)
    tokens = rng.normal(size=(2, 3, 5))
    arrays = [rng.normal(size=shape) for shape in ((5, 4), (4,), (3, 4))]
    coeff = rng.normal(size=(2, 3, 4))

    def run(tensors):
        return model._embed(tokens, *tensors, rate, np.random.default_rng(18))

    tensors = [ad.parameter(a.copy()) for a in arrays]
    (run(tensors) * ad.Tensor(coeff)).sum().backward()
    for i, t in enumerate(tensors):
        def loss_at(a, i=i):
            values = arrays[:i] + [a] + arrays[i + 1:]
            return float((run([ad.Tensor(v) for v in values]).data * coeff).sum())

        want = numeric_grad(loss_at, arrays[i].copy())
        np.testing.assert_allclose(t.grad, want, rtol=1e-7, atol=1e-9, err_msg=str(i))


def test_loss_node_matches_finite_differences():
    rng = np.random.default_rng(19)
    pred = ad.parameter(rng.normal(size=(2, 3, 4)))
    target = rng.normal(size=(2, 3, 4))
    mask = (rng.random((3, 4)) < 0.6).astype(np.float64)

    def loss_at(a):
        return float(train._masked_mse_tokens(ad.Tensor(a), target, mask, 5.0).data)

    loss = train._masked_mse_tokens(pred, target, mask, 5.0)
    assert loss.data.shape == () and loss._parents == (pred,)
    assert float(loss.data) == pytest.approx(((pred.data - target) ** 2 * mask).sum() / 10.0)
    loss.backward()
    np.testing.assert_allclose(pred.grad, numeric_grad(loss_at, pred.data.copy()),
                               rtol=1e-7, atol=1e-9)


def test_take_gathers_and_scatter_adds():
    x = ad.parameter(np.arange(5.0))
    idx = np.array([[0, 1], [1, 4]])
    y = oracles.take(x, idx)
    np.testing.assert_array_equal(y.data, [[0.0, 1.0], [1.0, 4.0]])
    (y * ad.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))).sum().backward()
    np.testing.assert_array_equal(x.grad, [1.0, 5.0, 0.0, 0.0, 4.0])


def test_take_rows_scatter_adds_like_add_at():
    rng = np.random.default_rng(9)
    x = ad.parameter(rng.normal(size=(6, 3)).astype(np.float32))
    idx = rng.integers(0, 6, size=(4, 5))
    g = rng.normal(size=(4, 5, 3)).astype(np.float32)
    (oracles.take(x, idx) * ad.Tensor(g)).sum().backward()
    want = np.zeros((6, 3))
    np.add.at(want, idx, g.astype(np.float64))
    assert x.grad.dtype == np.float32
    np.testing.assert_allclose(x.grad, want, rtol=1e-6, atol=1e-6)


def test_constant_operands_get_no_gradient():
    # a node's backward gives both operands a gradient; the walk drops the
    # constant's, so only the parameter's lands
    rng = np.random.default_rng(10)
    a = ad.parameter(rng.normal(size=(3, 4)))
    row = rng.uniform(0.5, 2.0, size=(4,))
    mat = rng.uniform(0.5, 2.0, size=(4, 4))
    g = rng.normal(size=(3, 4))
    for op, const, grad_a in (
        (operator.add, row, g),
        (operator.mul, row, g * row),
        (operator.matmul, mat, g @ mat.T),
    ):
        c = ad.Tensor(const)
        a.grad = None
        op(a, c).backward(g)
        assert c.grad is None
        np.testing.assert_array_equal(a.grad, grad_a)


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
    x = np.ones((1000,))
    y1, kept1 = ad.dropout(x, 0.25, np.random.default_rng(42))
    y2, kept2 = ad.dropout(x, 0.25, np.random.default_rng(42))
    np.testing.assert_array_equal(y1, y2)
    np.testing.assert_array_equal(kept1, kept2)
    np.testing.assert_array_equal(kept1, y1 > 0)
    np.testing.assert_allclose(y1[kept1], 1.0 / 0.75)
    assert abs(y1.mean() - 1.0) < 0.1
    t = ad.parameter(x)
    assert oracles.dropout_node(t, 0.0, np.random.default_rng(0)) is t


def test_dropout_bitwise_equals_multiplying_by_a_float_mask():
    # (3, 25000) spans three mask chunks, the last one partial
    rng = np.random.default_rng(14)
    for shape in ((3, 50), (3, 25000)):
        x = rng.normal(size=shape).astype(np.float32)
        g = rng.normal(size=shape).astype(np.float32)
        mask = (np.random.default_rng(5).random(shape) < 0.7).astype(np.float32) / 0.7
        y, kept = ad.dropout(x, 0.3, np.random.default_rng(5))
        grad = ad.dropout_apply(g, kept, 0.3)
        assert kept.dtype == np.bool_ and y.dtype == grad.dtype == np.float32
        want = (x * mask).tobytes()
        assert y.tobytes() == want
        assert grad.tobytes() == (g * mask).tobytes()
        # in place, over its input, the product keeps its bits
        y, _ = ad.dropout(x, 0.3, np.random.default_rng(5), out=x)
        assert y is x and x.tobytes() == want


def test_chunked_dropout_draws_are_the_whole_draw():
    # the mask is drawn a chunk at a time; the mask and the generator's
    # state after it are those of one rng.random(shape) < keep, for shapes
    # under, at and across the chunk size, and the empty one
    chunk = ad._CHUNK
    for shape in ((0, 4), (5,), (chunk,), (2, chunk // 2 + 3), (3, chunk + 1)):
        x = np.ones(shape, dtype=np.float32)
        got_rng, want_rng = np.random.default_rng(31), np.random.default_rng(31)
        _, kept = ad.dropout(x, 0.4, got_rng)
        want = want_rng.random(shape) < 1.0 - 0.4
        assert kept.shape == want.shape and kept.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.random() == want_rng.random()


def test_dropout_tape_keeps_a_bool_mask_only():
    x = ad.parameter(np.ones((4, 8), dtype=np.float32))
    y = oracles.dropout_node(x, 0.25, np.random.default_rng(0))
    held = [c.cell_contents for c in y._vjp.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
    assert [a.dtype for a in held] == [np.bool_]
    assert held[0].shape == x.shape
    assert y._parents == (x,)


def test_dtype_is_preserved():
    x = ad.parameter(np.linspace(-1.0, 1.0, 6, dtype=np.float32).reshape(2, 3))
    ones = ad.Tensor(np.ones(3, dtype=np.float32))
    y = oracles.dropout_node(oracles.layer_norm_node(x * 2.0 + 1.0, ones, ones), 0.5,
                             np.random.default_rng(0))
    assert y.data.dtype == np.float32
    y.sum().backward()
    assert x.grad.dtype == np.float32
    assert ad.gelu(x.data).dtype == np.float32
    assert [a.dtype for a in ad.gelu_backward(x.data, x.data)] == [np.float32] * 2


def test_no_grad_records_nothing_and_restores_mode():
    x = ad.parameter(np.ones((2, 2)))
    with ad.no_grad():
        y = oracles.dropout_node(x * 2.0 + x, 0.5, np.random.default_rng(0))
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
    orders = np.stack([reorder.build_permutation(spec, u, v)[0] for u, v in zip(x[:, 0], x[:, 1])])
    ranks = reorder.sector_ranks(orders, reorder._sector_layout(spec))
    taped = model.forward(store, config, x, ranks, elev)
    with ad.no_grad():
        plain = model.forward(store, config, x, ranks, elev)
    assert taped.tokens.requires_grad and taped.tokens._parents
    assert not plain.tokens.requires_grad and plain.tokens._parents == ()
    np.testing.assert_array_equal(plain.to_grid(), taped.to_grid())
    assert all(t.requires_grad for t in store.tensors())
