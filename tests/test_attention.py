import contextlib
import functools
import math
import tracemalloc

import numpy as np
import pytest

from topoflow import attention, autodiff as ad, reorder, topo_bias
from topoflow.errors import DataError, ShapeError
from topoflow.fields import GridSpec

import oracles


def attend(tokens, params, bias=None, pos=None):
    """Attention output under the table `bias` (a zero table when None) and
    identity slot orders, with `pos` added to the tokens ahead of the
    projections; (N, d) tokens go through the node as a batch of one."""
    x = ad.as_tensor(tokens)
    if pos is not None:
        x = x + ad.as_tensor(pos)
    if x.data.ndim != 2:
        return oracles.identity_attend(x, params, bias)[0]
    out, _ = oracles.identity_attend(oracles.reshape(x, 1, *x.shape), params, bias)
    return oracles.reshape(out, *x.shape)


def attention_weights(tokens, params, bias=None):
    """Post-softmax weights of (N, d) tokens averaged over heads, as plain arrays."""
    x = np.asarray(tokens)[None]
    _, weights = oracles.identity_attend(x, params, bias, weights=True)
    return weights.data[0].mean(axis=0)


def make_params(d, heads, rng, dtype=np.float64, scale=None):
    scale = scale if scale is not None else 1.0 / math.sqrt(d)
    def w():
        return ad.parameter(rng.normal(0.0, scale, size=(d, d)).astype(dtype))
    return attention.AttentionParams(w(), w(), w(), w(), heads)


def test_identical_tokens_attend_uniformly():
    rng = np.random.default_rng(0)
    params = make_params(8, 2, rng)
    tokens = np.tile(rng.normal(size=(1, 8)), (5, 1))
    w = attention_weights(tokens, params)
    np.testing.assert_allclose(w, 1.0 / 5.0, atol=1e-12)


def test_rows_sum_to_one_and_single_token():
    rng = np.random.default_rng(1)
    params = make_params(8, 4, rng)
    w = attention_weights(rng.normal(size=(6, 8)), params)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)
    w1 = attention_weights(rng.normal(size=(1, 8)), params)
    assert w1.shape == (1, 1) and w1[0, 0] == pytest.approx(1.0)


def test_hand_softmax_case_quarter_three_quarters():
    # identical tokens give constant logits; ln(3) on key 1 for both queries
    # (the table's row 1, keys x queries) tilts each query's weights to
    # exactly (0.25, 0.75)
    rng = np.random.default_rng(2)
    params = make_params(4, 1, rng)
    tokens = np.tile(rng.normal(size=(1, 4)), (2, 1))
    bias = np.array([[0.0, 0.0], [math.log(3.0), math.log(3.0)]])
    w = attention_weights(tokens, params, bias=bias)
    np.testing.assert_allclose(w, [[0.25, 0.75], [0.25, 0.75]], atol=1e-12)


def test_bias_floor_suppresses_by_exp_minus_ten():
    rng = np.random.default_rng(3)
    params = make_params(4, 1, rng)
    tokens = np.tile(rng.normal(size=(1, 4)), (2, 1))
    # keys x queries: key 1 sits on the floor for both queries
    bias = np.array([[0.0, 0.0], [-10.0, -10.0]])
    w = attention_weights(tokens, params, bias=bias)
    assert w[0, 1] / w[0, 0] == pytest.approx(math.exp(-10.0), rel=1e-9)


def test_zero_value_projection_gives_zero_output():
    rng = np.random.default_rng(4)
    params = make_params(8, 2, rng)
    params.wv.data[:] = 0.0
    out = attend(rng.normal(size=(5, 8)), params)
    np.testing.assert_array_equal(out.data, 0.0)


def test_shape_errors():
    rng = np.random.default_rng(5)
    params = make_params(8, 2, rng)
    with pytest.raises(ShapeError):
        attend(rng.normal(size=(5, 7)), params)
    # the node takes (B, N, d) tokens only
    for shape in ((5, 8), (1, 2, 5, 8)):
        with pytest.raises(ShapeError):
            oracles.identity_attend(rng.normal(size=shape), params)
    with pytest.raises(ShapeError):
        attention.AttentionParams(params.wq, params.wk, params.wv, params.wo, 3)


def test_non_finite_logits_raise_numeric_error():
    from topoflow.errors import NumericError

    rng = np.random.default_rng(12)
    params = make_params(8, 2, rng, dtype=np.float32)
    huge = np.full((4, 8), 3e38, dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
        attend(huge, params)


def test_per_head_rows_are_stochastic():
    rng = np.random.default_rng(13)
    params = make_params(16, 4, rng)
    tokens = rng.normal(size=(3, 10, 16))
    _, weights = oracles.identity_attend(tokens, params, weights=True)
    assert weights.shape == (3, 4, 10, 10)
    np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-6)


# -- permutation equivariance ----------------------------------------------------

def random_case(rng, dtype):
    spec = GridSpec(8, 16, 2, 4, 2)
    tokens = rng.normal(size=(spec.n_patches, 16)).astype(dtype)
    u = rng.normal(size=(8, 16))
    v = rng.normal(size=(8, 16))
    order, _ = reorder.build_permutation(spec, u, v)
    return tokens, order


def test_equivariance_identity_is_exact():
    rng = np.random.default_rng(6)
    params = make_params(16, 4, rng)
    spec = GridSpec(8, 16, 2, 4, 2)
    tokens = rng.normal(size=(spec.n_patches, 16))
    ident = np.arange(spec.n_patches)
    assert oracles.equivariance_check(tokens, params, ident) == 0.0


def test_equivariance_random_double_precision():
    rng = np.random.default_rng(7)
    params = make_params(16, 4, rng)
    worst = 0.0
    for _ in range(20):
        tokens, order = random_case(rng, np.float64)
        worst = max(worst, oracles.equivariance_check(tokens, params, order))
    assert worst < 1e-10


def test_equivariance_random_single_precision():
    rng = np.random.default_rng(8)
    params = make_params(16, 4, rng, dtype=np.float32)
    worst = 0.0
    for _ in range(20):
        tokens, order = random_case(rng, np.float32)
        worst = max(worst, oracles.equivariance_check(tokens, params, order))
    assert worst < 1e-5


def test_fixed_bias_breaks_equivariance():
    # two tokens, a bias kept in original indexing and NOT co-permuted
    spec = GridSpec(2, 4, 2, 2, 1)
    rng = np.random.default_rng(9)
    params = make_params(8, 2, rng)
    tokens = rng.normal(size=(2, 8))
    bias = np.array([[0.0, -3.0], [0.0, 0.0]])
    u = np.full((2, 4), -1.0)
    order, _ = reorder.build_permutation(spec, u, np.zeros((2, 4)))  # swaps the two
    straight = attend(tokens, params, bias=bias).data
    shuffled = attend(oracles.apply(order, tokens), params, bias=bias).data
    dev = np.abs(reorder.unapply(order, shuffled) - straight).max()
    assert dev > 1e-3


def test_copermuted_bias_and_pos_restore_equivariance():
    rng = np.random.default_rng(10)
    params = make_params(16, 4, rng)
    spec = GridSpec(8, 16, 2, 4, 2)
    n = spec.n_patches
    elev = rng.uniform(0, 3000, size=n)
    bias = topo_bias.bias_tensor(elev, 2.0).data
    pos = rng.normal(size=(n, 16))
    for _ in range(10):
        u = rng.normal(size=(8, 16))
        v = rng.normal(size=(8, 16))
        f, _ = reorder.build_permutation(spec, u, v)
        tokens = rng.normal(size=(n, 16))
        straight = attend(tokens, params, bias=bias, pos=pos).data
        shuffled = attend(
            tokens[f], params, bias=bias[np.ix_(f, f)], pos=pos[f]
        ).data
        dev = np.abs(reorder.unapply(f, shuffled) - straight).max()
        assert dev < 1e-12


# -- gradients ----------------------------------------------------------------------

def numeric_grad(f, x, eps=1e-5):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = f()
        flat[i] = old - eps
        lo = f()
        flat[i] = old
        gf[i] = (hi - lo) / (2 * eps)
    return g


def rel_err(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return (np.abs(a - b) / scale).max()


def test_attend_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    d, n = 8, 6
    params = make_params(d, 2, rng)
    tokens = ad.parameter(rng.normal(size=(n, d)))
    pos = ad.parameter(rng.normal(size=(n, d)) * 0.1)
    elev = rng.uniform(0, 3000, size=n)
    alpha = ad.parameter(np.array(2.0))
    coeff = rng.normal(size=(n, d))

    def forward_scalar():
        bias = topo_bias.bias_tensor(elev, alpha)
        out = attend(tokens, params, bias=bias, pos=pos)
        return float((out.data * coeff).sum())

    bias = topo_bias.bias_tensor(elev, alpha)
    out = attend(tokens, params, bias=bias, pos=pos)
    (out * ad.Tensor(coeff)).sum().backward()

    for t in (tokens, pos, params.wq, params.wk, params.wv, params.wo, alpha):
        fd = numeric_grad(forward_scalar, t.data)
        assert rel_err(t.grad, fd) < 1e-4


# -- the fused attention node ---------------------------------------------------------

def chain_attention(tokens, params, bias=None):
    """Reference: attention built from the primitive tape ops one by one."""
    x = ad.as_tensor(tokens)
    b, n, d = x.shape
    h = params.n_heads

    def split(t):
        return oracles.transpose(oracles.reshape(t, b, n, h, d // h), 0, 2, 1, 3)

    def merge(t):
        return oracles.reshape(oracles.transpose(t, 0, 2, 1, 3), b, n, d)

    q = split((x @ params.wq) * (1.0 / math.sqrt(params.d)))
    k = split(x @ params.wk)
    v = split(x @ params.wv)
    logits = q @ oracles.transpose(k, 0, 1, 3, 2)
    if bias is not None:
        logits = logits + ad.as_tensor(bias)
    weights = oracles.softmax_rows(logits)
    return merge(weights @ v) @ params.wo, weights


# the node, returning its attention weights as the references do
NODE = functools.partial(attention._attend_parts, weights=True)


def attend_and_grads(params, x, coeff, fn=NODE, **kwargs):
    """(out, weights, token and projection grads) of one taped call of
    `fn`, the node by default, and its backward."""
    tokens = ad.parameter(x.copy())
    ad.zero_grads([params.wq, params.wk, params.wv, params.wo])
    out, weights = fn(tokens, params, **kwargs)
    (out * ad.Tensor(coeff)).sum().backward()
    grads = [t.grad for t in (tokens, params.wq, params.wk, params.wv, params.wo)]
    return [out.data, weights.data] + grads


# the per-sample bias the references take, by shape, and how the node gets
# it: the shared slot table under identity orders, that table mapped
# through each sample's own slot order, the raster penalty (the batch
# shares it as it is) next to a zero table, and the one-sample batch that
# the no-tape forward passes
FUSED_CASES = [
    ((2, 5, 8), (5, 5)),
    ((2, 5, 8), (2, 1, 5, 5)),
    ((2, 5, 8), (1, 1, 5, 5)),
    ((1, 5, 8), (5, 5)),
]


def node_bias(bias_shape, table, rng, batch):
    """The node's keyword arguments that give each sample's logits the
    (N, N) keys x queries `table` as a bias of `bias_shape`, and that bias
    materialized queries x keys, as the references take it.

    (N, N) passes the table as `bias`, the slot table under identity
    orders; (1, 1, N, N) passes it as `penalty`, which lands as it is, next
    to a zero slot table; (B, 1, N, N) passes it as `bias` with B distinct
    slot orders, and sample i, whose inverse order is s_i, gets
    table.T[s_i][:, s_i]. None passes a zero slot table and no penalty.
    """
    n = table.shape[0]
    identity = {"bias": np.zeros_like(table.data), "orders": np.tile(np.arange(n), (batch, 1))}
    if bias_shape is None:
        return identity, None
    if len(bias_shape) == 2:
        return {**identity, "bias": table}, table.data.T.copy()
    if bias_shape[0] == 1:
        return {**identity, "penalty": table}, table.data.T[None, None].copy()
    orders = np.stack([rng.permutation(n) for _ in range(bias_shape[0])])
    assert len({tuple(o) for o in orders}) == len(orders)
    mapped = np.stack([table.data.T[s][:, s] for s in np.argsort(orders, axis=1)])[:, None]
    return {"bias": table, "orders": orders}, mapped


def scattered(bias_grad, orders=None):
    """The keys x queries (N, N) table gradient that a materialized queries
    x keys bias gradient makes: each sample's block moved back to slot
    order through its order (left as it is without orders), added in
    sample order, and transposed."""
    if bias_grad.ndim == 2:
        return bias_grad.T
    n = bias_grad.shape[-1]
    out = np.zeros((n, n), dtype=bias_grad.dtype)
    for i, g in enumerate(bias_grad[:, 0]):
        order = np.arange(n) if orders is None else orders[i]
        out += g[order][:, order]
    return out.T


@pytest.mark.parametrize("token_shape,bias_shape", FUSED_CASES)
def test_fused_attention_gradients_match_finite_differences(token_shape, bias_shape):
    # float64 central differences; with (2, 1, N, N) the table is the slot
    # table that two distinct slot orders map
    rng = np.random.default_rng(14)
    params = make_params(8, 2, rng)
    tokens = ad.parameter(rng.normal(size=token_shape))
    table = ad.parameter(rng.normal(size=(5, 5)))
    kwargs, _ = node_bias(bias_shape, table, rng, token_shape[0])
    coeff = rng.normal(size=token_shape)

    def forward():
        return attention._attend_parts(tokens, params, **kwargs)[0]

    def forward_scalar():
        return float((forward().data * coeff).sum())

    (forward() * ad.Tensor(coeff)).sum().backward()
    for t in (tokens, params.wq, params.wk, params.wv, params.wo, table):
        assert t.grad.shape == t.shape
        fd = numeric_grad(forward_scalar, t.data)
        assert rel_err(t.grad, fd) < 1e-4


@pytest.mark.parametrize("token_shape,bias_shape", FUSED_CASES + [((2, 5, 8), None)])
def test_fused_attention_matches_primitive_chain(token_shape, bias_shape):
    rng = np.random.default_rng(15)
    params = make_params(8, 2, rng)
    x = rng.normal(size=token_shape)
    table = ad.parameter(rng.normal(size=(5, 5)))
    kwargs, bias = node_bias(bias_shape, table, rng, token_shape[0])
    coeff = rng.normal(size=token_shape)
    chain_bias = None if bias is None else ad.parameter(bias)
    fused = attend_and_grads(params, x, coeff, **kwargs)
    chain = attend_and_grads(params, x, coeff, fn=chain_attention, bias=chain_bias)
    if bias is not None:
        fused.append(table.grad)
        chain.append(scattered(chain_bias.grad, kwargs.get("orders")))
    for f, c in zip(fused, chain):
        assert f.shape == c.shape
        np.testing.assert_allclose(f, c, rtol=0, atol=1e-12)


def test_fused_attention_rejects_unbroadcastable_bias():
    rng = np.random.default_rng(16)
    params = make_params(8, 2, rng)
    tokens = rng.normal(size=(2, 5, 8))
    # a batch of 2, 2 heads, 5 tokens: only the (5, 5) table is accepted;
    # per-sample and per-head biases are among the refused
    shapes = ((1, 1, 5, 5), (2, 1, 5, 5), (3, 1, 5, 5), (1, 2, 5, 5), (5, 1), (1, 5),
              (2, 5, 5))
    for shape in shapes:
        with pytest.raises(ShapeError):
            attend(tokens, params, bias=np.zeros(shape))


def test_no_grad_attention_records_no_node():
    rng = np.random.default_rng(17)
    params = make_params(8, 2, rng)
    tokens = ad.parameter(rng.normal(size=(2, 5, 8)))
    bias = ad.parameter(rng.normal(size=(5, 5)))
    taped = attend(tokens, params, bias=bias)
    with ad.no_grad():
        plain = attend(tokens, params, bias=bias)
    assert taped.requires_grad and taped._parents
    assert not plain.requires_grad and plain._parents == () and plain._vjp is None
    np.testing.assert_array_equal(plain.data, taped.data)


# -- the blocked attention node against the per-sample reference ---------------------

def reference_attend(tokens, params, bias=None):
    """Attention as one tape node that works on a sample's (heads, N, N) block.

    This is the earlier form of `attention._attend_parts`, kept as the
    reference its per-(sample, head) blocking must match bit for bit, with
    the node's formulas: blocks laid out keys x queries, exp(s - max) down
    each query's column, the softmax divide on the context, and the
    backward's D term from the context. It keeps every block's exp for the
    backward rather than recompute it. It takes (B, N, d) tokens and a
    queries x keys bias that broadcasts to (B, 1, N, N), so it also takes
    each sample's bias materialized, and gives that bias's gradient in the
    same layout.
    """
    x = ad.as_tensor(tokens)
    xs = x.data
    b, n, d = xs.shape
    h = params.n_heads
    bias_t = None if bias is None else ad.as_tensor(bias)
    bias4 = None if bias_t is None else bias_t.data.reshape(
        (1,) * (4 - bias_t.data.ndim) + bias_t.shape)

    def heads(a):
        return a.reshape(b, n, h, d // h).transpose(0, 2, 1, 3)

    def sample(a, i):
        return a[i if a.shape[0] > 1 else 0]

    scale = 1.0 / math.sqrt(d)
    q = (xs @ params.wq.data) * scale
    k = xs @ params.wk.data
    v = xs @ params.wv.data
    qh, kh, vh = heads(q), heads(k), heads(v)
    dtype = np.result_type(q, k) if bias4 is None else np.result_type(q, k, bias4)
    exps = np.empty((b, h, n, n), dtype=dtype)
    weights = np.empty((b, h, n, n), dtype=dtype)
    col_max = np.empty((b, h, 1, n), dtype=dtype)
    col_sum = np.empty((b, h, 1, n), dtype=dtype)
    ctx = np.empty((b, n, d), dtype=dtype)
    ctx_h = heads(ctx)
    for i in range(b):
        block = np.matmul(kh[i], qh[i].swapaxes(-1, -2), out=exps[i])
        if bias4 is not None:
            block += sample(bias4, i).swapaxes(-1, -2)
        ad.softmax(block, stats=(col_max[i], col_sum[i]))
        np.matmul(block.swapaxes(-1, -2), vh[i], out=ctx_h[i])
        ctx_h[i] /= col_sum[i].swapaxes(-1, -2)
        np.divide(block, col_sum[i], out=weights[i].swapaxes(-1, -2))
    out = ctx @ params.wo.data
    parents = (x, params.wq, params.wk, params.wv, params.wo)
    if bias_t is not None:
        parents += (bias_t,)

    def vjp(g):
        gctx_h = heads(g @ params.wo.data.T)
        gq, gk, gv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
        gq_h, gk_h, gv_h = heads(gq), heads(gk), heads(gv)
        gbias = None
        if bias_t is not None and bias_t.requires_grad:
            gbias = np.zeros(bias4.shape, dtype=bias4.dtype)
            spread = tuple(
                j for j in range(3) if bias4.shape[1 + j] == 1 and weights.shape[1 + j] != 1
            )
        for i in range(b):
            e = exps[i]
            go = gctx_h[i] / col_sum[i].swapaxes(-1, -2)
            gv_h[i] = e @ go
            glog = vh[i] @ go.swapaxes(-1, -2)
            glog -= np.einsum("hij,hij->hi", go, ctx_h[i])[:, None, :]
            glog *= e
            if gbias is not None:
                gbias_i = sample(gbias, i)
                summed = glog.sum(axis=spread, keepdims=True) if spread else glog
                gbias_i += summed.swapaxes(-1, -2)
            gq_h[i] = glog.swapaxes(-1, -2) @ kh[i]
            gk_h[i] = glog @ qh[i]
        gq *= scale
        gx = gq @ params.wq.data.T + gk @ params.wk.data.T + gv @ params.wv.data.T
        grads = (
            gx,
            xs.reshape(-1, d).T @ gq.reshape(-1, d),
            xs.reshape(-1, d).T @ gk.reshape(-1, d),
            xs.reshape(-1, d).T @ gv.reshape(-1, d),
            ctx.reshape(-1, d).T @ g.reshape(-1, d),
        )
        if bias_t is not None:
            grads += (None if gbias is None else gbias.reshape(bias_t.shape),)
        return grads

    return ad.Tensor._op(out, parents, vjp), ad.Tensor(weights)


@pytest.mark.parametrize("bias_shape", [None, (24, 24), (1, 1, 24, 24), (3, 1, 24, 24)])
def test_blocked_attention_is_bitwise_the_per_sample_reference(bias_shape):
    # the node gets each bias as `node_bias` says; the reference gets it
    # materialized, and its bias gradient is scattered back to the table
    rng = np.random.default_rng(18)
    params = make_params(16, 4, rng, dtype=np.float32)
    x = rng.normal(size=(3, 24, 16)).astype(np.float32)
    table = ad.parameter(rng.normal(size=(24, 24)).astype(np.float32))
    kwargs, bias = node_bias(bias_shape, table, rng, len(x))
    coeff = rng.normal(size=x.shape).astype(np.float32)
    ref_bias = None if bias is None else ad.parameter(bias)
    got = attend_and_grads(params, x, coeff, **kwargs)
    want = attend_and_grads(params, x, coeff, fn=reference_attend, bias=ref_bias)
    if bias is not None:
        got.append(table.grad)
        want.append(scattered(ref_bias.grad, kwargs.get("orders")))
    for blocked, reference in zip(got, want):
        assert blocked.dtype == reference.dtype == np.float32
        assert blocked.shape == reference.shape
        assert blocked.tobytes() == reference.tobytes()


# -- what the attention node keeps and returns ---------------------------------------

def test_taped_attention_keeps_no_n_by_n_array():
    # the tape holds the projections, the context and per-row softmax
    # statistics; the backward recomputes the (B, heads, N, N) weights
    rng = np.random.default_rng(19)
    b, h, n, d = 2, 2, 256, 8
    params = make_params(d, h, rng, dtype=np.float32)
    tokens = ad.parameter(rng.normal(size=(b, n, d)).astype(np.float32))
    bias = ad.parameter(rng.normal(size=(n, n)).astype(np.float32))
    penalty = ad.parameter(rng.normal(size=(n, n)).astype(np.float32))
    orders = np.stack([rng.permutation(n) for _ in range(b)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out, weights = attention._attend_parts(
            tokens, params, bias=bias, penalty=penalty, orders=orders)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < b * h * n * n * np.dtype(np.float32).itemsize
    assert out.requires_grad and weights.shape == (b, h, 0, 0)


@pytest.mark.parametrize("taped", [True, False])
@pytest.mark.parametrize("want", [True, False])
@pytest.mark.parametrize("token_shape", [(2, 6, 8), (1, 6, 8)])
@pytest.mark.parametrize("bias_dtype", [None, np.float32, np.float64])
def test_second_value_is_a_tensor_of_the_logits_dtype(taped, want, token_shape, bias_dtype):
    rng = np.random.default_rng(20)
    params = make_params(8, 2, rng, dtype=np.float32)
    tokens = ad.parameter(rng.normal(size=token_shape).astype(np.float32))
    bias = None if bias_dtype is None else ad.parameter(
        rng.normal(size=(6, 6)).astype(bias_dtype))
    with contextlib.nullcontext() if taped else ad.no_grad():
        out, weights = oracles.identity_attend(tokens, params, bias, weights=want)
    assert out.requires_grad == taped
    assert isinstance(weights, ad.Tensor) and not weights.requires_grad
    assert weights.data.dtype == (bias_dtype or np.float32)
    kept = 6 if want else 0
    assert weights.shape == token_shape[:-2] + (2, kept, kept)
    if want:
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-6)


@pytest.mark.parametrize("taped", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_bias_entries_raise_numeric_error(taped, bad):
    from topoflow.errors import NumericError

    # the bad entry sits in the slot table, under identity orders or mapped
    # to another pair of patches by each sample's order, or in the raster
    # penalty next to a zero slot table
    rng = np.random.default_rng(21)
    params = make_params(8, 2, rng, dtype=np.float32)
    tokens = ad.parameter(rng.normal(size=(2, 5, 8)).astype(np.float32))
    values = rng.normal(size=(5, 5)).astype(np.float32)
    values[2, 3] = bad
    table = ad.parameter(values)
    orders = np.stack([rng.permutation(5) for _ in range(2)])
    identity = np.tile(np.arange(5), (2, 1))
    zero = np.zeros((5, 5), dtype=np.float32)
    for args, penalty in (((table, identity), None), ((table, orders), None),
                          ((zero, identity), table)):
        with contextlib.nullcontext() if taped else ad.no_grad(), pytest.raises(NumericError):
            attention._attend_parts(tokens, params, *args, penalty=penalty)


# -- the terrain penalty as one raster table, the slot table mapped by orders ---------

def penalty_case(rng, b=3, n=24):
    """Float32 tokens, projections, slot-order bias, elevations and orders."""
    params = make_params(16, 4, rng, dtype=np.float32)
    x = rng.normal(size=(b, n, 16)).astype(np.float32)
    coeff = rng.normal(size=x.shape).astype(np.float32)
    rel = rng.normal(size=(n, n)).astype(np.float32)
    elev = rng.uniform(0, 8000, size=n)
    orders = np.stack([rng.permutation(n) for _ in range(b)])
    return params, x, coeff, rel, elev, orders


# (penalty, wind orders): both mechanisms on, wind reordering off (the slot
# table comes with identity orders), the terrain penalty off, both off
PENALTY_CASES = [(True, True), (True, False), (False, True), (False, False)]


def materialized(rel, flat, slots, with_penalty):
    """Each sample's queries x keys bias, (B, 1, N, N): the slot table `rel`
    mapped to raster positions through the sample's inverse order, plus the
    raster penalty `flat` when `with_penalty`."""
    mapped = np.stack([rel[s][:, s] for s in np.argsort(slots, axis=1)])[:, None]
    return mapped + flat if with_penalty else mapped


@pytest.mark.parametrize("with_penalty,with_orders", PENALTY_CASES)
def test_penalty_and_orders_match_the_materialized_bias(with_penalty, with_orders):
    rng = np.random.default_rng(22)
    params, x, coeff, rel, elev, orders = penalty_case(rng)
    b, n = orders.shape
    slots = orders if with_orders else np.tile(np.arange(n), (b, 1))

    # reference: the (B, 1, N, N) sum of the mapped slot table and the
    # raster penalty, as a leaf
    flat = topo_bias.bias_tensor(elev, ad.Tensor(np.array(1.3, dtype=np.float32))).data
    ref_bias = ad.parameter(materialized(rel, flat, slots, with_penalty))
    want = attend_and_grads(params, x, coeff, fn=reference_attend, bias=ref_bias)

    # the node takes both tables keys x queries; the penalty of negated
    # elevations is the raster penalty transposed, bit for bit
    rel_t = ad.parameter(rel.T.copy())
    alpha = ad.parameter(np.array(1.3, dtype=np.float32))
    penalty = topo_bias.bias_tensor(-elev, alpha) if with_penalty else None
    got = attend_and_grads(params, x, coeff, bias=rel_t, penalty=penalty, orders=slots)
    for new, old in zip(got, want):
        assert new.dtype == old.dtype == np.float32
        assert new.tobytes() == old.tobytes()
    with ad.no_grad():
        plain, _ = attention._attend_parts(x, params, bias=rel_t, penalty=penalty,
                                           orders=slots)
    assert plain.data.tobytes() == got[0].tobytes()

    g = ref_bias.grad
    assert rel_t.grad.tobytes() == scattered(g, slots).tobytes()
    if with_penalty:
        # the rule of a (B, 1, N, N) penalty node: the clamp mask and the
        # climbs are the raster table's, the same for every sample
        up = topo_bias.uphill_matrix(elev).astype(np.float32)
        inside = (flat > topo_bias.BIAS_LO) & (flat < 0.0)
        assert alpha.grad == pytest.approx(-((g * inside) * up).sum(), rel=1e-5)
    else:
        assert alpha.grad is None


@pytest.mark.parametrize("with_orders", [True, False])
def test_penalty_gradient_is_the_scattered_head_sum(with_orders):
    # each table's gradient adds each sample's head sum in sample order:
    # the raster penalty's as it is, whatever the orders, and the slot
    # table's moved back to slot order, bit for bit what a scatter of the
    # per-sample bias gradients gives
    rng = np.random.default_rng(23)
    params, x, coeff, rel, elev, orders = penalty_case(rng)
    b, n = orders.shape
    flat = topo_bias.bias_tensor(elev, ad.Tensor(np.array(1.3, dtype=np.float32))).data
    slots = orders if with_orders else np.tile(np.arange(n), (b, 1))
    ref_bias = ad.parameter(materialized(rel, flat, slots, True))
    attend_and_grads(params, x, coeff, fn=reference_attend, bias=ref_bias)
    rel_t, penalty = ad.parameter(rel.T.copy()), ad.parameter(flat.T.copy())
    attend_and_grads(params, x, coeff, bias=rel_t, penalty=penalty, orders=slots)
    assert penalty.grad.dtype == rel_t.grad.dtype == np.float32
    assert penalty.grad.tobytes() == scattered(ref_bias.grad).tobytes()
    assert rel_t.grad.tobytes() == scattered(ref_bias.grad, slots).tobytes()
    # under identity orders the two tables get the same gradient
    assert with_orders != (penalty.grad.tobytes() == rel_t.grad.tobytes())


def test_penalty_and_orders_are_checked():
    rng = np.random.default_rng(24)
    params, x, _coeff, rel, _elev, orders = penalty_case(rng, b=2, n=6)
    # the penalty is one raster table; the orders come with the slot
    # table, one integer permutation per sample. A float copy of good
    # orders sorts to 0..N-1 but cannot index the table's gradient, so it
    # is refused before the forward too
    with pytest.raises(ShapeError):
        attention._attend_parts(x, params, bias=rel, orders=orders,
                                penalty=np.zeros((2, 1, 6, 6)))
    for bad in (orders[:1], orders[:, :-1], orders[0]):
        with pytest.raises(ShapeError, match="slot orders"):
            attention._attend_parts(x, params, bias=rel, orders=bad)
    repeated = orders.copy()
    repeated[1, 0] = repeated[1, 1]
    for bad in (repeated, orders + 1, orders.astype(float)):
        with pytest.raises(DataError, match="permutation"):
            attention._attend_parts(x, params, bias=ad.parameter(rel), orders=bad)
