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
    """Attention output under the (N, N) keys x queries table `bias`
    landing as it is (none when None), with `pos` added to the tokens
    ahead of the projections; (N, d) tokens go through the node as a batch
    of one."""
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


def layer_norm_params(d, rng, dtype=np.float64):
    """A layer norm's (gain, bias) as parameters, away from (1, 0)."""
    return (ad.parameter((1.0 + 0.3 * rng.normal(size=d)).astype(dtype)),
            ad.parameter((0.2 * rng.normal(size=d)).astype(dtype)))


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
NODE = functools.partial(oracles.attend_node, weights=True)


def attend_and_grads(params, x, coeff, fn=NODE, **kwargs):
    """(out, weights, token and projection grads) of one taped call of
    `fn`, the node by default, and its backward."""
    tokens = ad.parameter(x.copy())
    ad.zero_grads([params.wq, params.wk, params.wv, params.wo])
    out, weights = fn(tokens, params, **kwargs)
    (out * ad.Tensor(coeff)).sum().backward()
    grads = [t.grad for t in (tokens, params.wq, params.wk, params.wv, params.wo)]
    return [out.data, weights.data] + grads


# two sectors of three patches each, not in raster blocks
LAYOUT = np.array([[0, 1, 3], [2, 4, 5]])


# the per-sample bias the references take, by shape, and how the node gets
# it: a relative table under identity orders, that table under each
# sample's own sector order, a raster penalty next to a zero table, and
# the one-sample batch that the no-tape forward passes
FUSED_CASES = [
    ((2, 6, 8), (6, 6)),
    ((2, 6, 8), (2, 1, 6, 6)),
    ((2, 6, 8), (1, 1, 6, 6)),
    ((1, 6, 8), (6, 6)),
]


def node_bias(bias_shape, rng, batch, dtype=np.float64):
    """(leaves, orders, reference leaves, reference bias) for a case.

    The node gets `bias_tables(*leaves)` on LAYOUT and `orders`; the
    references get the same bias as a (B, 1, N, N) queries x keys tensor
    that `oracles.slot_table_bias` builds from copies of the leaves, so
    that their gradients come out on the copies. (N, N) is a random
    relative table under identity orders; (B, 1, N, N) the same under B
    distinct sector orders; (1, 1, N, N) a random penalty next to a zero
    table, under identity orders. None is a zero table and no penalty,
    with no reference bias, and no leaf takes a gradient.
    """
    n, m = LAYOUT.size, LAYOUT.shape[1]
    orders = np.tile(np.arange(n), (batch, 1))
    if bias_shape is None:
        return (ad.Tensor(np.zeros(2 * m, dtype=dtype)),), orders, (), None
    rel = np.zeros(2 * m, dtype=dtype)
    if bias_shape[0] != 1:
        rel = rng.normal(size=2 * m).astype(dtype)
    leaves = (ad.parameter(rel),)
    if len(bias_shape) == 4 and bias_shape[0] == 1:
        leaves += (ad.parameter(rng.normal(size=(n, n)).astype(dtype)),)
    if len(bias_shape) == 4 and bias_shape[0] > 1:
        orders = oracles.sector_orders(rng, LAYOUT, batch)
    copies = tuple(ad.parameter(t.data.copy()) for t in leaves)
    return leaves, orders, copies, oracles.slot_table_bias(copies[0], LAYOUT, orders, *copies[1:])


def node_call(leaves, orders, fn=NODE):
    """`fn` with the node's keywords: the tables built from `leaves` on
    LAYOUT and the sector ranks of the slot orders."""
    return functools.partial(fn, tables=attention.bias_tables(leaves[0], LAYOUT, *leaves[1:]),
                             ranks=reorder.sector_ranks(orders, LAYOUT))


# max |relative table gradient - the slot-table path's|, as a share of the
# largest |entry|: the two add the same terms in another order
REL_GRAD_TOL = {np.float64: 1e-12, np.float32: 1e-6}


def assert_rel_grad_close(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    tol = REL_GRAD_TOL[got.dtype.type]
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


@pytest.mark.parametrize("token_shape,bias_shape", FUSED_CASES)
def test_fused_attention_gradients_match_finite_differences(token_shape, bias_shape):
    # float64 central differences; with (2, 1, N, N) the relative table is
    # ranked through two distinct sector orders
    rng = np.random.default_rng(14)
    params = make_params(8, 2, rng)
    tokens = ad.parameter(rng.normal(size=token_shape))
    leaves, orders, _, _ = node_bias(bias_shape, rng, token_shape[0])
    coeff = rng.normal(size=token_shape)

    def forward():
        return node_call(leaves, orders)(tokens, params)[0]

    def forward_scalar():
        return float((forward().data * coeff).sum())

    (forward() * ad.Tensor(coeff)).sum().backward()
    for t in (tokens, params.wq, params.wk, params.wv, params.wo) + leaves:
        assert t.grad.shape == t.shape
        fd = numeric_grad(forward_scalar, t.data)
        assert rel_err(t.grad, fd) < 1e-4


@pytest.mark.parametrize("token_shape,bias_shape", FUSED_CASES + [((2, 6, 8), None)])
def test_fused_attention_matches_primitive_chain(token_shape, bias_shape):
    rng = np.random.default_rng(15)
    params = make_params(8, 2, rng)
    x = rng.normal(size=token_shape)
    leaves, orders, copies, bias = node_bias(bias_shape, rng, token_shape[0])
    coeff = rng.normal(size=token_shape)
    fused = attend_and_grads(params, x, coeff, fn=node_call(leaves, orders))
    chain = attend_and_grads(params, x, coeff, fn=chain_attention, bias=bias)
    for leaf, copy in zip(leaves, copies):
        fused.append(leaf.grad)
        chain.append(copy.grad)
    for f, c in zip(fused, chain):
        assert f.shape == c.shape
        np.testing.assert_allclose(f, c, rtol=0, atol=1e-12)


def test_fused_attention_rejects_unbroadcastable_bias():
    rng = np.random.default_rng(16)
    params = make_params(8, 2, rng)
    tokens = rng.normal(size=(2, 5, 8))
    # a batch of 2, 2 heads, 5 tokens: only a (5, 5) raster table is
    # accepted; per-sample and per-head biases are among the refused
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

@pytest.mark.parametrize("bias_shape", [None, (6, 6), (1, 1, 6, 6), (3, 1, 6, 6)])
def test_blocked_attention_is_bitwise_the_per_sample_reference(bias_shape):
    # the node gets each bias as `node_bias` says; the reference
    # (`oracles.reference_attend`) gets it materialized per sample the
    # slot-table way, which scatters its gradient back to the leaves. All
    # but the relative table's gradient match bit for bit
    rng = np.random.default_rng(18)
    params = make_params(16, 4, rng, dtype=np.float32)
    x = rng.normal(size=(3, 6, 16)).astype(np.float32)
    leaves, orders, copies, bias = node_bias(bias_shape, rng, len(x), np.float32)
    coeff = rng.normal(size=x.shape).astype(np.float32)
    got = attend_and_grads(params, x, coeff, fn=node_call(leaves, orders))
    want = attend_and_grads(params, x, coeff, fn=oracles.reference_attend, bias=bias)
    got += [t.grad for t in leaves[1:]]
    want += [t.grad for t in copies[1:]]
    for blocked, reference in zip(got, want):
        assert blocked.dtype == reference.dtype == np.float32
        assert blocked.shape == reference.shape
        assert blocked.tobytes() == reference.tobytes()
    if bias_shape is not None:
        assert_rel_grad_close(leaves[0].grad, copies[0].grad)


# -- what the attention node keeps and returns ---------------------------------------

def test_taped_attention_keeps_no_n_by_n_array():
    # the tape holds the projections, the context and per-row softmax
    # statistics; the backward recomputes the (B, heads, N, N) weights,
    # and each sample's bias from the tables every call of a forward shares
    rng = np.random.default_rng(19)
    b, h, n, d = 2, 2, 256, 8
    params = make_params(d, h, rng, dtype=np.float32)
    tokens = ad.parameter(rng.normal(size=(b, n, d)).astype(np.float32))
    layout = np.arange(n).reshape(4, 64)
    rel = ad.parameter(rng.normal(size=128).astype(np.float32))
    penalty = ad.parameter(rng.normal(size=(n, n)).astype(np.float32))
    tables = attention.bias_tables(rel, layout, penalty)
    ranks = reorder.sector_ranks(oracles.sector_orders(rng, layout, b), layout)
    norm = layer_norm_params(d, rng, np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out, weights = attention._attend_parts(tokens, params, tables, ranks, norm, 0.1,
                                               np.random.default_rng(0))
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

    # the bad entry sits in a within-sector bucket of the relative table,
    # under identity orders or ranked by each sample's order, in its
    # cross-sector bucket, or in the raster penalty next to a zero table;
    # the logit block's finiteness check catches each
    rng = np.random.default_rng(21)
    params = make_params(8, 2, rng, dtype=np.float32)
    tokens = ad.parameter(rng.normal(size=(2, 6, 8)).astype(np.float32))
    inside, cross = rng.normal(size=(2, 6)).astype(np.float32)
    inside[1] = bad
    cross[-1] = bad
    penalty = rng.normal(size=(6, 6)).astype(np.float32)
    penalty[2, 3] = bad
    zero = np.zeros(6, dtype=np.float32)
    identity = np.tile(np.arange(6), (2, 1))
    orders = oracles.sector_orders(rng, LAYOUT, 2)
    cases = (((inside,), identity), ((inside,), orders), ((cross,), orders),
             ((zero, penalty), identity))
    for leaves, slots in cases:
        with contextlib.nullcontext() if taped else ad.no_grad(), pytest.raises(NumericError):
            node_call(tuple(ad.parameter(a) for a in leaves), slots)(tokens, params)


# -- the terrain penalty and the relative table against the slot-table path ----------

# 24 patches in four sectors of six (2 x 3 patches)
PENALTY_SPEC = GridSpec(8, 12, 2, 3, 2)


def penalty_case(rng, dtype=np.float32, b=3):
    """Tokens, projections, relative table, elevations and sector orders
    on PENALTY_SPEC."""
    layout = reorder._sector_layout(PENALTY_SPEC)
    n, m = layout.size, layout.shape[1]
    params = make_params(16, 4, rng, dtype=dtype)
    x = rng.normal(size=(b, n, 16)).astype(dtype)
    coeff = rng.normal(size=x.shape).astype(dtype)
    rel = rng.normal(size=2 * m).astype(dtype)
    elev = rng.uniform(0, 8000, size=n)
    return params, x, coeff, rel, elev, layout, oracles.sector_orders(rng, layout, b)


# (penalty, wind orders): both mechanisms on, wind reordering off (the
# relative table comes with identity orders), the terrain penalty off,
# both off
PENALTY_CASES = [(True, True), (True, False), (False, True), (False, False)]


@pytest.mark.parametrize("with_penalty,with_orders", PENALTY_CASES)
def test_penalty_and_orders_match_the_materialized_bias(with_penalty, with_orders):
    # the node against the slot-table path (`oracles.slot_table_attend`:
    # the (N, N) slot table mapped per sample and materialized), in float32
    # and float64: output, weights, the token, projection and alpha
    # gradients bit for bit, and the relative table's to rounding
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(22)
        params, x, coeff, rel, elev, layout, orders = penalty_case(rng, dtype)
        b, n = orders.shape
        slots = orders if with_orders else np.tile(np.arange(n), (b, 1))
        ranks = reorder.sector_ranks(slots, layout)
        runs = []
        for oracle in (False, True):
            rel_t = ad.parameter(rel.copy())
            alpha = ad.parameter(np.array(1.3, dtype=dtype))
            # the penalty of negated elevations is the queries x keys raster
            # penalty transposed, bit for bit: keys x queries, as both take it
            penalty = topo_bias.bias_tensor(-elev, alpha) if with_penalty else None
            if oracle:
                fn = functools.partial(oracles.slot_table_attend, rel=rel_t, layout=layout,
                                       orders=slots, penalty=penalty)
            else:
                fn = functools.partial(NODE, tables=attention.bias_tables(rel_t, layout, penalty),
                                       ranks=ranks)
            runs.append((attend_and_grads(params, x, coeff, fn=fn), rel_t, alpha))
        (got, rel_got, alpha_got), (want, rel_want, alpha_want) = runs
        for new, old in zip(got, want):
            assert new.dtype == old.dtype == dtype
            assert new.tobytes() == old.tobytes()
        assert_rel_grad_close(rel_got.grad, rel_want.grad)
        if with_penalty:
            assert alpha_got.grad.tobytes() == alpha_want.grad.tobytes()
        else:
            assert alpha_got.grad is None and alpha_want.grad is None
        penalty = topo_bias.bias_tensor(-elev, alpha_got) if with_penalty else None
        with ad.no_grad():
            plain, _ = oracles.attend_node(
                x, params, attention.bias_tables(rel, layout, penalty), ranks)
        assert plain.data.tobytes() == got[0].tobytes()


@pytest.mark.parametrize("with_orders", [True, False])
def test_penalty_gradient_is_the_scattered_head_sum(with_orders):
    # the penalty's gradient adds each sample's head sum in sample order,
    # whatever the orders, bit for bit the sum of the per-sample bias
    # gradients; the relative table's adds, bucket by bucket, the entries
    # of those gradients that each sample's ranks put in that bucket, the
    # cross-sector pairs in the last
    rng = np.random.default_rng(23)
    params, x, coeff, rel, elev, layout, orders = penalty_case(rng)
    b, n = orders.shape
    slots = orders if with_orders else np.tile(np.arange(n), (b, 1))
    flat = topo_bias.bias_tensor(-elev, ad.Tensor(np.array(1.3, dtype=np.float32))).data
    materialized = oracles.slot_table_bias(rel, layout, slots, flat).data
    ref_bias = ad.parameter(materialized)
    attend_and_grads(params, x, coeff, fn=oracles.reference_attend, bias=ref_bias)
    rel_t, penalty = ad.parameter(rel.copy()), ad.parameter(flat.copy())
    attend_and_grads(params, x, coeff, fn=NODE, tables=attention.bias_tables(rel_t, layout, penalty),
                     ranks=reorder.sector_ranks(slots, layout))
    assert penalty.grad.dtype == rel_t.grad.dtype == np.float32
    g = ref_bias.grad[:, 0]
    assert penalty.grad.tobytes() == sum(gi.T for gi in g).tobytes()
    index = oracles.relative_slot_index(layout)
    want = np.zeros(rel.size)
    for gi, s in zip(g, np.argsort(slots, axis=1)):
        # sample i's bucket of (key a, query c) is the slot pair's (s[a], s[c])
        want += np.bincount(index[s][:, s].reshape(-1), weights=gi.T.reshape(-1),
                            minlength=rel.size)
    assert_rel_grad_close(rel_t.grad, want.astype(np.float32))
    assert want[-1] != 0.0


def test_penalty_and_orders_are_checked():
    rng = np.random.default_rng(24)
    params, x, _coeff, rel, _elev, layout, orders = penalty_case(rng, b=2)
    n = layout.size
    tables = attention.bias_tables(rel, layout)
    # the penalty is one raster table and the relative table has 2M
    # buckets for sectors of M patches; the layout holds every patch once
    with pytest.raises(ShapeError, match="penalty"):
        attention.bias_tables(rel, layout, np.zeros((2, 1, n, n)))
    for bad in (rel[:-1], np.append(rel, 0.0), rel.reshape(2, -1)):
        with pytest.raises(ShapeError, match="relative table"):
            attention.bias_tables(bad, layout)
    with pytest.raises(ShapeError, match="relative table"):
        attention.bias_tables(rel, layout.reshape(-1, 3))
    for bad in (layout.ravel(), layout.astype(float)):
        with pytest.raises(ShapeError, match="layout"):
            attention.bias_tables(rel, bad)
    doubled = layout.copy()
    doubled[0, 0] = doubled[0, 1]
    with pytest.raises(DataError, match="layout"):
        attention.bias_tables(rel, doubled)
    norm = layer_norm_params(16, rng, np.float32)
    ranks = reorder.sector_ranks(orders, layout)
    # the tokens' N must be the tables', and their width the projections'
    with pytest.raises(ShapeError, match="tables"):
        attention._attend_parts(x[:, :-1], params, tables, ranks[:, :-1], norm)
    with pytest.raises(ShapeError, match="tokens shape"):
        attention._attend_parts(x[..., :-1], params, tables, ranks, norm)
    # the node trusts the ranks, which `model.forward` checks
    # (tests/test_model.py::test_forward_refuses_bad_slot_orders)


def test_node_gradients_match_finite_differences_through_the_sector_blocks():
    # float64 central differences through the node on a tiny grid of four
    # sectors under distinct wind orders: every bucket of the relative
    # table, the cross-sector one nonzero, then the penalty as a leaf,
    # then alpha through the elevation penalty
    spec = GridSpec(4, 8, 2, 2, 1)
    layout = reorder._sector_layout(spec)
    n, m = spec.n_patches, spec.patches_per_sector
    assert spec.n_sectors >= 2
    rng = np.random.default_rng(25)
    params = make_params(8, 2, rng)
    tokens = rng.normal(size=(2, n, 8))
    coeff = rng.normal(size=tokens.shape)
    winds = rng.normal(size=(2, 2, spec.height, spec.width))
    orders = np.stack([reorder.build_permutation(spec, u, v)[0] for u, v in winds])
    assert not (orders == np.arange(n)).all(axis=1).any()
    ranks = reorder.sector_ranks(orders, layout)
    rel = ad.parameter(rng.normal(size=2 * m))
    assert rel.data[-1] != 0.0
    elev = rng.uniform(0, 3000, size=n)
    alpha = ad.parameter(np.array(2.0))
    penalty = ad.parameter(topo_bias.bias_tensor(-elev, 2.0).data)
    # climbs under 3 km keep alpha's penalty off its clamp, and some are uphill
    assert (penalty.data > topo_bias.BIAS_LO).all() and (penalty.data < 0.0).any()

    # (the leaf to difference, the penalty leaf or None for alpha's penalty)
    for leaf, pen in ((rel, penalty), (penalty, penalty), (alpha, None)):
        def forward():
            p = topo_bias.bias_tensor(-elev, alpha) if pen is None else pen
            out, _ = oracles.attend_node(tokens, params,
                                         attention.bias_tables(rel, layout, p), ranks)
            return out

        def forward_scalar():
            return float((forward().data * coeff).sum())

        ad.zero_grads([rel, penalty, alpha])
        (forward() * ad.Tensor(coeff)).sum().backward()
        fd = numeric_grad(forward_scalar, leaf.data)
        assert leaf.grad.shape == leaf.shape
        assert rel_err(leaf.grad, fd) < 1e-6


# -- the attention block: layer norm, attention, dropout and residual as one node ---------

def block_case(rng, dtype, b=3):
    """(params, norm, leaves, tables, ranks, tokens, coeff) for the block on
    PENALTY_SPEC under the sector ranks of sector orders, with a random
    relative table and an elevation penalty through alpha as its table
    leaves."""
    params, x, coeff, rel, elev, layout, orders = penalty_case(rng, dtype, b)
    norm = layer_norm_params(16, rng, dtype)
    rel_t, alpha = ad.parameter(rel), ad.parameter(np.array(1.7, dtype=dtype))
    leaves = (rel_t, alpha)

    def tables():
        return attention.bias_tables(rel_t, layout, topo_bias.bias_tensor(-elev, alpha))

    return params, norm, leaves, tables, reorder.sector_ranks(orders, layout), x, coeff


@pytest.mark.parametrize("rate", [0.3, 0.0])
def test_attention_block_carries_the_bits_of_the_unfused_chain(rate):
    # the block against its chain (`oracles.attend_chain`: the layer norm
    # node, the attention node, the dropout node and the residual add) in
    # float32: the output, the weights, every gradient and the generator
    # state after the forward are the chain's, bit for bit
    rng = np.random.default_rng(26)
    params, norm, leaves, tables, ranks, x, coeff = block_case(rng, np.float32)
    weights = (params.wq, params.wk, params.wv, params.wo) + norm + leaves
    runs = []
    for fn in (attention._attend_parts, oracles.attend_chain):
        tokens = ad.parameter(x.copy())
        ad.zero_grads(weights)
        drop_rng = np.random.default_rng(27)
        out, probs = fn(tokens, params, tables(), ranks, norm, rate, drop_rng, weights=True)
        state = drop_rng.bit_generator.state
        (out * ad.Tensor(coeff)).sum().backward()
        grads = [tokens.grad] + [t.grad for t in weights]
        runs.append(([out.data, probs.data] + grads, state))
    (fused, fused_state), (chain, chain_state) = runs
    assert fused_state == chain_state
    for got, want in zip(fused, chain):
        assert got.dtype == want.dtype == np.float32
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_attention_block_gradients_match_finite_differences():
    # float64 central differences through the block with dropout on, its
    # mask drawn from a generator re-seeded for every evaluation: the
    # tokens, the layer norm, the projections, the relative table and alpha
    rng = np.random.default_rng(28)
    params, norm, leaves, tables, ranks, x, coeff = block_case(rng, np.float64, b=2)
    tokens = ad.parameter(x)

    def forward():
        return attention._attend_parts(tokens, params, tables(), ranks, norm, 0.25,
                                       np.random.default_rng(29))[0]

    def forward_scalar():
        return float((forward().data * coeff).sum())

    (forward() * ad.Tensor(coeff)).sum().backward()
    for t in (tokens, params.wq, params.wk, params.wv, params.wo) + norm + leaves:
        assert t.grad.shape == t.shape
        assert rel_err(t.grad, numeric_grad(forward_scalar, t.data)) < 1e-6
