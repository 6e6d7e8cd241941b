import math

import numpy as np
import pytest

from topoflow import attention, autodiff as ad, reorder, topo_bias
from topoflow.errors import ShapeError
from topoflow.fields import GridSpec


def attend(tokens, params, bias=None, pos=None):
    """Attention output, with `pos` added to the tokens ahead of the projections."""
    if pos is not None:
        tokens = ad.as_tensor(tokens) + ad.as_tensor(pos)
    out, _ = attention._attend_parts(tokens, params, bias=bias)
    return out


def attention_weights(tokens, params, bias=None):
    """Post-softmax attention weights averaged over heads, as plain arrays."""
    _, weights = attention._attend_parts(tokens, params, bias=bias)
    return weights.data.mean(axis=-3)


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
    # identical tokens give constant logits; a bias column of ln(3) tilts each
    # row's weights to exactly (0.25, 0.75)
    rng = np.random.default_rng(2)
    params = make_params(4, 1, rng)
    tokens = np.tile(rng.normal(size=(1, 4)), (2, 1))
    bias = np.array([[0.0, math.log(3.0)], [0.0, math.log(3.0)]])
    w = attention_weights(tokens, params, bias=bias)
    np.testing.assert_allclose(w, [[0.25, 0.75], [0.25, 0.75]], atol=1e-12)


def test_bias_floor_suppresses_by_exp_minus_ten():
    rng = np.random.default_rng(3)
    params = make_params(4, 1, rng)
    tokens = np.tile(rng.normal(size=(1, 4)), (2, 1))
    bias = np.array([[0.0, -10.0], [0.0, -10.0]])
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
    _, weights = attention._attend_parts(tokens, params)
    assert weights.shape == (3, 4, 10, 10)
    np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-6)


# -- permutation equivariance ----------------------------------------------------

def random_case(rng, dtype):
    spec = GridSpec(8, 16, 2, 4, 2)
    tokens = rng.normal(size=(spec.n_patches, 16)).astype(dtype)
    u = rng.normal(size=(8, 16))
    v = rng.normal(size=(8, 16))
    perm = reorder.build_permutation(spec, u, v)
    return tokens, perm


def test_equivariance_identity_is_exact():
    rng = np.random.default_rng(6)
    params = make_params(16, 4, rng)
    spec = GridSpec(8, 16, 2, 4, 2)
    tokens = rng.normal(size=(spec.n_patches, 16))
    ident = reorder.SectorPermutation.identity(spec)
    assert attention.equivariance_check(tokens, params, ident) == 0.0


def test_equivariance_random_double_precision():
    rng = np.random.default_rng(7)
    params = make_params(16, 4, rng)
    worst = 0.0
    for _ in range(20):
        tokens, perm = random_case(rng, np.float64)
        worst = max(worst, attention.equivariance_check(tokens, params, perm))
    assert worst < 1e-10


def test_equivariance_random_single_precision():
    rng = np.random.default_rng(8)
    params = make_params(16, 4, rng, dtype=np.float32)
    worst = 0.0
    for _ in range(20):
        tokens, perm = random_case(rng, np.float32)
        worst = max(worst, attention.equivariance_check(tokens, params, perm))
    assert worst < 1e-5


def test_fixed_bias_breaks_equivariance():
    # two tokens, a bias kept in original indexing and NOT co-permuted
    spec = GridSpec(2, 4, 2, 2, 1)
    rng = np.random.default_rng(9)
    params = make_params(8, 2, rng)
    tokens = rng.normal(size=(2, 8))
    bias = np.array([[0.0, -3.0], [0.0, 0.0]])
    u = np.full((2, 4), -1.0)
    perm = reorder.build_permutation(spec, u, np.zeros((2, 4)))  # swaps the two
    straight = attend(tokens, params, bias=bias).data
    shuffled = attend(reorder.apply(perm, tokens), params, bias=bias).data
    dev = np.abs(reorder.unapply(perm, shuffled) - straight).max()
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
        perm = reorder.build_permutation(spec, u, v)
        tokens = rng.normal(size=(n, 16))
        straight = attend(tokens, params, bias=bias, pos=pos).data
        f = perm.forward
        shuffled = attend(
            tokens[f], params, bias=bias[np.ix_(f, f)], pos=pos[f]
        ).data
        dev = np.abs(reorder.unapply(perm, shuffled) - straight).max()
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
    h = params.n_heads

    def split(t):
        if t.data.ndim == 2:
            n, d = t.shape
            return t.reshape(n, h, d // h).transpose(1, 0, 2)
        b, n, d = t.shape
        return t.reshape(b, n, h, d // h).transpose(0, 2, 1, 3)

    def merge(t):
        if t.data.ndim == 3:
            _, n, dh = t.shape
            return t.transpose(1, 0, 2).reshape(n, h * dh)
        b, _, n, dh = t.shape
        return t.transpose(0, 2, 1, 3).reshape(b, n, h * dh)

    q = split((x @ params.wq) * (1.0 / math.sqrt(params.d)))
    k = split(x @ params.wk)
    v = split(x @ params.wv)
    nd = k.data.ndim
    logits = q @ k.transpose(*range(nd - 2), nd - 1, nd - 2)
    if bias is not None:
        logits = logits + ad.as_tensor(bias)
    weights = ad.softmax(logits)
    return merge(weights @ v) @ params.wo, weights


# the bias shapes `model.forward` passes: one shared by the batch, one per
# sample, and the no-tape forward's one-sample batch
FUSED_CASES = [
    ((2, 5, 8), (5, 5)),
    ((2, 5, 8), (2, 1, 5, 5)),
    ((2, 5, 8), (1, 1, 5, 5)),
    ((5, 8), (5, 5)),
]


@pytest.mark.parametrize("token_shape,bias_shape", FUSED_CASES)
def test_fused_attention_gradients_match_finite_differences(token_shape, bias_shape):
    rng = np.random.default_rng(14)
    params = make_params(8, 2, rng)
    tokens = ad.parameter(rng.normal(size=token_shape))
    bias = ad.parameter(rng.normal(size=bias_shape))
    coeff = rng.normal(size=token_shape)

    def forward_scalar():
        return float((attend(tokens, params, bias=bias).data * coeff).sum())

    (attend(tokens, params, bias=bias) * ad.Tensor(coeff)).sum().backward()
    for t in (tokens, params.wq, params.wk, params.wv, params.wo, bias):
        assert t.grad.shape == t.shape
        fd = numeric_grad(forward_scalar, t.data)
        assert rel_err(t.grad, fd) < 1e-4


@pytest.mark.parametrize("token_shape,bias_shape", FUSED_CASES + [((2, 5, 8), None)])
def test_fused_attention_matches_primitive_chain(token_shape, bias_shape):
    rng = np.random.default_rng(15)
    params = make_params(8, 2, rng)
    x = rng.normal(size=token_shape)
    b = None if bias_shape is None else rng.normal(size=bias_shape)
    coeff = rng.normal(size=token_shape)
    results = []
    for fn in (attention._attend_parts, chain_attention):
        tokens = ad.parameter(x.copy())
        bias = None if b is None else ad.parameter(b.copy())
        ad.zero_grads([params.wq, params.wk, params.wv, params.wo])
        out, weights = fn(tokens, params, bias=bias)
        (out * ad.Tensor(coeff)).sum().backward()
        grads = [t.grad for t in (tokens, params.wq, params.wk, params.wv, params.wo)]
        results.append([out.data, weights.data] + grads + ([] if bias is None else [bias.grad]))
    for fused, chain in zip(*results):
        assert fused.shape == chain.shape
        np.testing.assert_allclose(fused, chain, rtol=0, atol=1e-12)


def test_fused_attention_rejects_unbroadcastable_bias():
    rng = np.random.default_rng(16)
    params = make_params(8, 2, rng)
    tokens = rng.normal(size=(2, 5, 8))
    # a batch of 2, 2 heads, 5 tokens: only (5, 5), (1, 1, 5, 5) and
    # (2, 1, 5, 5) are accepted, per-head biases included among the refused
    for shape in ((3, 1, 5, 5), (1, 2, 5, 5), (5, 1), (1, 5), (2, 5, 5)):
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
    reference its per-(sample, head) blocking must match bit for bit.
    """
    x = ad.as_tensor(tokens)
    batched = x.data.ndim == 3
    xs = x.data if batched else x.data[None]
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
    weights = np.empty((b, h, n, n), dtype=dtype)
    ctx = np.empty((b, n, d), dtype=dtype)
    ctx_h = heads(ctx)
    for i in range(b):
        block = np.matmul(qh[i], kh[i].swapaxes(-1, -2), out=weights[i])
        if bias4 is not None:
            block += sample(bias4, i)
        ad.softmax(block)
        ctx_h[i] = block @ vh[i]
    out = ctx @ params.wo.data
    parents = (x, params.wq, params.wk, params.wv, params.wo)
    if bias_t is not None:
        parents += (bias_t,)

    def vjp(g):
        gs = g if batched else g[None]
        gctx_h = heads(gs @ params.wo.data.T)
        gq, gk, gv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
        gq_h, gk_h, gv_h = heads(gq), heads(gk), heads(gv)
        gbias = None
        if bias_t is not None and bias_t.requires_grad:
            gbias = np.zeros(bias4.shape, dtype=bias4.dtype)
            spread = tuple(
                j for j in range(3) if bias4.shape[1 + j] == 1 and weights.shape[1 + j] != 1
            )
        for i in range(b):
            p = weights[i]
            gv_h[i] = p.swapaxes(-1, -2) @ gctx_h[i]
            glog = gctx_h[i] @ vh[i].swapaxes(-1, -2)
            glog -= np.einsum("hij,hij->hi", glog, p)[..., None]
            glog *= p
            if gbias is not None:
                gbias_i = sample(gbias, i)
                gbias_i += glog.sum(axis=spread, keepdims=True) if spread else glog
            gq_h[i] = glog @ kh[i]
            gk_h[i] = glog.swapaxes(-1, -2) @ qh[i]
        gq *= scale
        gx = gq @ params.wq.data.T + gk @ params.wk.data.T + gv @ params.wv.data.T
        grads = (
            gx if batched else gx[0],
            xs.reshape(-1, d).T @ gq.reshape(-1, d),
            xs.reshape(-1, d).T @ gk.reshape(-1, d),
            xs.reshape(-1, d).T @ gv.reshape(-1, d),
            ctx.reshape(-1, d).T @ gs.reshape(-1, d),
        )
        if bias_t is not None:
            grads += (None if gbias is None else gbias.reshape(bias_t.shape),)
        return grads

    out_t = ad.Tensor._op(out if batched else out[0], parents, vjp)
    return out_t, ad.Tensor(weights if batched else weights[0])


@pytest.mark.parametrize("bias_shape", [None, (24, 24), (1, 1, 24, 24), (3, 1, 24, 24)])
def test_blocked_attention_is_bitwise_the_per_sample_reference(bias_shape):
    rng = np.random.default_rng(18)
    params = make_params(16, 4, rng, dtype=np.float32)
    x = rng.normal(size=(3, 24, 16)).astype(np.float32)
    b = None if bias_shape is None else rng.normal(size=bias_shape).astype(np.float32)
    coeff = rng.normal(size=x.shape).astype(np.float32)
    results = []
    for fn in (attention._attend_parts, reference_attend):
        tokens = ad.parameter(x.copy())
        bias = None if b is None else ad.parameter(b.copy())
        ad.zero_grads([params.wq, params.wk, params.wv, params.wo])
        out, weights = fn(tokens, params, bias=bias)
        (out * ad.Tensor(coeff)).sum().backward()
        grads = [t.grad for t in (tokens, params.wq, params.wk, params.wv, params.wo)]
        results.append([out.data, weights.data] + grads + ([] if bias is None else [bias.grad]))
    for blocked, reference in zip(*results):
        assert blocked.dtype == reference.dtype == np.float32
        assert blocked.shape == reference.shape
        assert blocked.tobytes() == reference.tobytes()
