"""Reference implementations the tests compare the package against.

No command reaches these, so they live with the tests: the attention
node with one raster table landing as it is, the per-sample attention
reference and the earlier slot-table path (an (N, N) table gathered from
the relative table, mapped through each sample's order, materialized per
sample) that the node must match, random slot orders inside the sectors,
the attention equivariance measure under a zero table (criterion 1), the
covariance decay fit (criterion 6), the tape ops that the primitive-chain
attention reference is built from (row softmax, reshape, transpose), the
unfused tape nodes (`linear`, `take`, `layer_norm_node`, `dropout_node`,
`gelu` and the attention core alone, `attend_node`) and the chains of
them that the fused nodes must match bit for bit (the MLP, the attention
block, the embedding and the loss), the forward reorder that
`reorder.unapply` undoes, and the forecaster run in slot order, the form
the raster-order `model.forward` must match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from topoflow import attention, autodiff as ad, model, reorder, topo_bias
from topoflow.config import PhysicsConfig
from topoflow.errors import ConfigError, FitError, ShapeError
from topoflow.fields import Sample
from topoflow.synthdata import TerrainWind

# -- tape ops of the primitive-chain attention reference ---------------------------


def softmax_rows(x: ad.Tensor) -> ad.Tensor:
    """Row softmax over the last axis, with max subtraction, as a tape node."""
    y = x.data.copy()
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return ad.Tensor._op(y, (x,), vjp)


def reshape(x: ad.Tensor, *shape) -> ad.Tensor:
    return ad.Tensor._op(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.data.shape),))


def transpose(x: ad.Tensor, *axes) -> ad.Tensor:
    inverse = tuple(np.argsort(axes))
    return ad.Tensor._op(x.data.transpose(axes), (x,), lambda g: (g.transpose(inverse),))


# -- the unfused tape nodes ---------------------------------------------------------------
#
# One node per step, as the model's tape held them before each block became
# one node; the fused nodes must carry their bits.


def linear(x: ad.Tensor, w: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """`x @ w + b` as one tape node, so the tape keeps no pre-bias product.

    Output and gradients are bitwise those of the `@` then `+` chain.
    """
    xd, wd = x.data, w.data

    def vjp(g):
        return (
            ad.grad_left(g, wd, xd.shape) if x.requires_grad else None,
            ad.grad_right(xd, g, wd.shape) if w.requires_grad else None,
            ad.unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return ad.Tensor._op(xd @ wd + b.data, (x, w, b), vjp)


def take(x: ad.Tensor, idx: np.ndarray) -> ad.Tensor:
    """Fancy-index the leading axis with non-negative indices; backward
    scatter-adds into the source."""
    idx = np.asarray(idx)

    def vjp(g):
        # one bincount over flat source positions; row r of a (rows, width)
        # source owns positions r*width .. r*width + width-1
        width = math.prod(x.data.shape[1:])
        flat = idx if width == 1 else idx[..., None] * width + np.arange(width)
        sums = np.bincount(flat.reshape(-1), weights=g.reshape(-1), minlength=x.data.size)
        return (sums.astype(x.data.dtype).reshape(x.data.shape),)

    return ad.Tensor._op(x.data[idx], (x,), vjp)


def layer_norm_node(x: ad.Tensor, gamma: ad.Tensor, beta: ad.Tensor) -> ad.Tensor:
    """`autodiff.layer_norm` as a tape node: it keeps the row statistics and
    rebuilds xhat from its input."""
    out, mu, inv = ad.layer_norm(x.data, gamma.data, beta.data)

    def vjp(g):
        return ad.layer_norm_backward(g, (x.data - mu) * inv, inv, gamma.data)

    return ad.Tensor._op(out, (x, gamma, beta), vjp)


def dropout_node(x: ad.Tensor, rate: float, rng: np.random.Generator) -> ad.Tensor:
    """`autodiff.dropout` as a tape node that keeps the mask as bools; x
    itself at rate 0."""
    if rate <= 0.0:
        return x
    out, kept = ad.dropout(x.data, rate, rng)
    return ad.Tensor._op(out, (x,), lambda g: (ad.dropout_apply(g, kept, rate),))


def gelu(x: ad.Tensor) -> ad.Tensor:
    """GELU as a tape node of its own, from autodiff's array helpers."""
    return ad.Tensor._op(ad.gelu(x.data), (x,), lambda g: (ad.gelu_backward(x.data, g)[1],))


def attend_node(tokens, params, tables, ranks, weights=False):
    """The attention core as a tape node of its own: `attention._attention`
    and `attention._attention_backward` on (B, N, d) tokens whose patches
    have the (B, N) sector ranks `ranks`, without the block's layer norm,
    dropout and residual add; returns (out, weights) as
    `attention._attend_parts` does."""
    x = ad.as_tensor(tokens)
    attention._check(x.shape, params, tables)
    out, probs, *saved = attention._attention(x.data, params, tables, ranks, weights)
    parents = (x, params.wq, params.wk, params.wv, params.wo)

    def vjp(g):
        return attention._attention_backward(g, x.data, *saved, params, tables, ranks)

    return (ad.Tensor._op(out, parents + attention._table_parents(tables), vjp),
            ad.Tensor(probs))


# -- the fused nodes as chains of those ----------------------------------------------------


def mlp_chain(x, weights, residual, rate=0.0, rng=None) -> ad.Tensor:
    """`model._mlp` as the chain of one tape node per step that it fuses:
    layer norm, linear, GELU, dropout, then `@ w2 + b2` and, with
    `residual`, the residual add first, in the order the node adds."""
    gamma, beta, w1, b1, w2, b2 = weights
    hidden = gelu(linear(layer_norm_node(x, gamma, beta), w1, b1))
    hidden = dropout_node(hidden, rate, rng)
    if residual:
        return x + hidden @ w2 + b2
    return linear(hidden, w2, b2)


def attend_chain(x, params, tables, ranks, norm, rate=0.0, rng=None, weights=False):
    """`attention._attend_parts` as the chain it fuses: layer norm, the
    attention node, dropout and the residual add."""
    attended, probs = attend_node(layer_norm_node(x, *norm), params, tables, ranks, weights)
    return x + dropout_node(attended, rate, rng), probs


def embed_chain(tokens, w, b, pos, rate, rng) -> ad.Tensor:
    """`model._embed` as the chain it fuses: linear, the positional add and
    dropout."""
    return dropout_node(linear(ad.as_tensor(tokens), w, b) + pos, rate, rng)


def mse_chain(pred, target, mask_tok, cell_count) -> ad.Tensor:
    """`train._masked_mse_tokens` as the chain of Tensor ops it fuses."""
    diff = pred - ad.Tensor(target)
    return (diff * diff * ad.Tensor(mask_tok)).sum() * (1.0 / (cell_count * pred.shape[0]))


# -- the attention node with one raster table ----------------------------------------


def identity_attend(tokens, params, penalty=None, **kwargs):
    """`attend_node` on (B, N, d) `tokens` with the (N, N) keys x queries
    table `penalty` landing as it is: the tables are one sector of N
    patches with a zero relative table of the penalty's dtype (the tokens'
    without a penalty), which moves no bit of the output, the weights or a
    gradient, under raster ranks (those of identity slot orders). Other
    keywords go to the node."""
    x = ad.as_tensor(tokens)
    b, n = x.shape[:2]
    dtype = x.dtype if penalty is None else ad.as_tensor(penalty).dtype
    tables = attention.bias_tables(np.zeros(2 * n, dtype=dtype), np.arange(n)[None], penalty)
    return attend_node(x, params, tables, np.tile(np.arange(n), (b, 1)), **kwargs)


# -- the per-sample reference and the slot-table path ------------------------------------


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


def relative_slot_index(layout: np.ndarray) -> np.ndarray:
    """(N, N) lookup into the relative table, keys x queries, for the
    (K, M) sector layout.

    Entry (k, q), for key slot k and query slot q, is the within-sector
    slot-rank difference rank(q) - rank(k) shifted to 0..2M-2; pairs in
    different sectors share the final bucket 2M-1.
    """
    layout = np.asarray(layout)
    k_sectors, m = layout.shape
    n = layout.size
    ranks = np.empty(n, dtype=np.int64)
    sector_of = np.empty(n, dtype=np.int64)
    for s in range(k_sectors):
        ranks[layout[s]] = np.arange(m)
        sector_of[layout[s]] = s
    idx = ranks[None, :] - ranks[:, None] + (m - 1)
    idx[sector_of[:, None] != sector_of[None, :]] = 2 * m - 1
    return idx


def slot_table_bias(rel, layout, orders, penalty=None) -> ad.Tensor:
    """Each sample's queries x keys bias, (B, 1, N, N), as one tape node on
    `rel` (and `penalty`): the relative table gathered into the (N, N)
    slot table through `relative_slot_index`, mapped to sample i's raster
    positions (rows by `reorder.unapply`, columns through the inverse
    order), plus the (N, N) keys x queries `penalty`, added in the tables'
    dtype, and transposed.

    The backward is the slot-table path's: the penalty's gradient adds
    each sample's keys x queries gradient in sample order; the slot table's
    adds each one moved back to slot order, in the table's dtype, and one
    float64 bincount through the index gives the relative table's.
    """
    rel_t = ad.as_tensor(rel)
    pen_t = None if penalty is None else ad.as_tensor(penalty)
    index = relative_slot_index(layout)
    dtype = rel_t.dtype if pen_t is None else np.result_type(rel_t.data, pen_t.data)
    table = rel_t.data.astype(dtype)[index]
    orders = np.asarray(orders)
    mapped = []
    for order in orders:
        block = np.take(reorder.unapply(order, table), np.argsort(order), axis=1)
        if pen_t is not None:
            block = block + pen_t.data.astype(dtype)
        mapped.append(block.T)
    parents = (rel_t,) if pen_t is None else (rel_t, pen_t)

    def vjp(g):
        gtable = np.zeros(table.shape, dtype=dtype)
        gpen = None if pen_t is None else np.zeros(table.shape, dtype=pen_t.dtype)
        for order, gi in zip(orders, g[:, 0]):
            if gpen is not None:
                gpen += gi.T
            gtable += gi.T[order][:, order]
        sums = np.bincount(index.reshape(-1), weights=gtable.reshape(-1),
                           minlength=rel_t.data.size)
        return (sums.astype(rel_t.dtype), gpen)[:len(parents)]

    return ad.Tensor._op(np.stack(mapped)[:, None], parents, vjp)


def sector_orders(rng, layout, b):
    """(B, N) distinct slot orders, none the identity, that each permute
    the patches inside every sector of the (K, M) `layout`, as
    `reorder.build_permutation` does."""
    n = layout.size
    while True:
        orders = np.tile(np.arange(n), (b, 1))
        for order in orders:
            for row in layout:
                order[row] = rng.permutation(row)
        distinct = len({tuple(o) for o in orders}) == b
        if distinct and not (orders == np.arange(n)).all(axis=1).any():
            return orders


def slot_table_attend(tokens, params, rel, layout, orders, penalty=None):
    """The attention node as it was before it took the relative table's
    sector blocks: `reference_attend` under `slot_table_bias`. Its output,
    weights and every gradient but the relative table's are the node's bit
    for bit; the relative table's sums run in another order."""
    return reference_attend(tokens, params, slot_table_bias(rel, layout, orders, penalty))


# -- reordering and criterion 1 ------------------------------------------------------


def apply(order: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Reorder (N, C) raster-order tokens into the slot order `order`: slot k
    holds raster patch order[k]. Gathers by itself, so the round trip
    through `reorder.unapply` checks unapply's own index."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[0] != len(order):
        raise ShapeError(f"tokens shape {tokens.shape} is not (N, C), N = {len(order)}")
    return np.take(tokens, order, axis=0)


def equivariance_check(
    tokens: np.ndarray, params: attention.AttentionParams, order: np.ndarray
) -> float:
    """Max |unapply(Attn(apply(X))) - Attn(X)| under a zero table and no
    penalty, for (N, d) tokens, each order attended as a batch of one."""
    tokens = np.asarray(tokens)
    straight, _ = identity_attend(tokens[None], params)
    shuffled, _ = identity_attend(apply(order, tokens)[None], params)
    return float(np.abs(reorder.unapply(order, shuffled.data[0]) - straight.data[0]).max())


# -- the forecaster in slot order ----------------------------------------------------


def slot_order_forward(params, config, inputs, elev_patch_m, order) -> ad.Tensor:
    """The forecaster on one sample run in slot order: the (N, out_dim)
    raster-order output of the (C, H, W) normalized input `inputs`.

    The tokens and the per-patch positional vectors are gathered into the
    slot order `order`, every layer attends with the shared relative slot
    table plus the terrain penalty of the slot-ordered elevations (the
    raster penalty gathered in slot order, bit for bit), and the head
    output is put back in raster order. Dropout is not applied. Attention
    goes through the node with that slot-ordered sum as its one raster
    table (`identity_attend`), which lands it as it is.
    """
    spec = config.spec
    order = np.asarray(order)
    tokens = model.patchify(np.asarray(inputs)[None], spec)[:, order]
    x = linear(ad.as_tensor(tokens.astype(params["patch_embed.w"].dtype)),
               params["patch_embed.w"], params["patch_embed.b"])
    x = x + take(params["pos.grid"] @ params["pos.proj"], order)
    bias = take(params["pos.rel"], relative_slot_index(reorder._sector_layout(spec)))
    if config.elev_bias:
        flipped = -np.asarray(elev_patch_m, dtype=np.float64)[order]
        bias = bias + topo_bias.bias_tensor(flipped, params["alpha"])
    for i in range(config.layers):
        normed = layer_norm_node(x, params[f"layer{i}.ln1.g"], params[f"layer{i}.ln1.b"])
        attended, _ = identity_attend(
            normed, model._layer_attention_params(params, i, config.heads), bias)
        x = x + attended
        x = mlp_chain(x, model._mlp_weights(params, f"layer{i}.ln2", f"layer{i}.mlp"),
                      residual=True)
    out = mlp_chain(x, model._mlp_weights(params, "head.ln", "head"), residual=False)
    return take(reshape(out, spec.n_patches, config.out_dim), np.argsort(order))


# -- criterion 6: covariance anisotropy -------------------------------------------------


@dataclass(frozen=True)
class CovarianceFit:
    """Exponential decay lengths of |cov| along and across the wind."""

    along_decay: float      # cells
    cross_decay: float      # cells
    l_adv: float            # advective length |u|*tau, cells

    def __post_init__(self):
        if not (self.along_decay > 0 and self.cross_decay > 0):
            raise FitError("decay lengths must be positive")


def fit_covariance_decay(
    samples: list[Sample],
    tw: TerrainWind,
    cfg: PhysicsConfig | None = None,
) -> CovarianceFit:
    """Exponential decay of |cov| with lag, along vs across the mean wind.

    Ensemble covariance is estimated from the most-evolved tracer field of
    each sample (the last target; the input when a sample has none) at
    integer cell shifts up to a third of the shorter grid side, along the
    wind direction and perpendicular to it, then log-linearly fit. The
    advective length uses tau = 1/sink when the physics config carries a
    positive sink, and is NaN otherwise.
    """
    if len(samples) < 32:
        raise ConfigError(f"need >= 32 samples for a covariance fit, got {len(samples)}")
    spec = samples[0].input.spec
    tracer = np.stack(
        [
            (s.targets[-1] if s.targets else s.input).channel("c").astype(np.float64)
            for s in samples
        ]
    )
    anomaly = tracer - tracer.mean(axis=0, keepdims=True)
    var0 = float((anomaly * anomaly).mean())
    if var0 <= 0:
        raise FitError("constant fields: covariance is degenerate")

    theta = reorder.patch_wind_direction(tw.u, tw.v)
    along = (math.cos(theta), math.sin(theta))
    cross = (-math.sin(theta), math.cos(theta))
    max_lag = min(spec.height, spec.width) // 3

    def cov_at(direction, lag):
        dcol = int(round(direction[0] * lag))
        drow = int(round(direction[1] * lag))
        shifted = np.roll(anomaly, (-drow, -dcol), axis=(1, 2))
        return float((anomaly * shifted).mean())

    def decay_length(direction):
        lags, logs = [], []
        for lag in range(1, max_lag + 1):
            c = abs(cov_at(direction, lag)) / var0
            if c > 1e-3:
                lags.append(float(lag))
                logs.append(math.log(c))
        if len(lags) < 3:
            raise FitError("too few usable lags for an exponential fit")
        a = np.stack([np.asarray(lags), np.ones(len(lags))], axis=1)
        coef, *_ = np.linalg.lstsq(a, np.asarray(logs), rcond=None)
        slope = float(coef[0])
        return math.inf if slope >= 0 else -1.0 / slope

    l_adv = math.nan
    if cfg is not None and cfg.sink > 0:
        speed = float(np.hypot(tw.u, tw.v).mean())
        l_adv = speed * (1.0 / cfg.sink) / cfg.dx
    return CovarianceFit(decay_length(along), decay_length(cross), l_adv)
