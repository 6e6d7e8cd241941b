"""Multi-head self-attention with additive terrain bias.

The core operation follows the standard scaled dot-product form with the
softmax temperature sqrt(d) taken over the full model width, on tokens in
raster patch order. Two additive terms land on the logits of every head:
the model's relative table, indexed by within-sector rank offset, and the
terrain penalty between the patches, an (N, N) table which every sample
shares as it is and which a variant without the elevation bias leaves
out. The relative table is 2M numbers for sectors of M patches, a
windowed relative position bias (Shaw et al. 2018, arXiv:1803.02155; Liu
et al. 2021, arXiv:2103.14030): inside a sector one M x M Toeplitz block
indexed by wind rank, and one bucket for every pair in different sectors.
`bias_tables` builds, once per forward, what every call shares: the
(N, N) base (the penalty plus the cross-sector bucket), the penalty's
K sector blocks and their flat index. A call gets the sector ranks, one
(B, N) int array whose entry (i, p) is patch p's rank along the wind
inside its sector for sample i; `model.forward` checks the slot orders
and derives these ranks from them once per call
(`reorder.sector_ranks`), raster ranks for a variant without wind
reordering. Each sample's bias is the base with the K*M^2 within-sector
entries written from the table and the penalty's blocks, so no N x N
slot table, per-sample map or (B, 1, N, N) bias is built, kept or
differentiated.

Under a zero table and no penalty the operation is permutation
equivariant: reordering tokens, attending, and undoing the reorder is
exactly attention on the original order. So the wind-guided order moves
no token: it only chooses which relative offset each pair of patches
sees, a bias indexed by the pair (Shaw et al. 2018, arXiv:1803.02155).
Release criterion 1 measures the deviation with `equivariance_check` in
tests/oracles.py.

A pre-norm layer's whole attention block, x + drop(attention(LN(x))), is
a single tape node (`_attend_parts`) with an analytic backward: the
layer norm, the Q/K/V projections, the output projection, the dropout
and the residual add. It keeps its input, the layer norm's row
statistics, the projections, the context, the softmax's column
statistics and a bool mask, and rebuilds the normalized input in the
backward. Forward (`_attention`) and backward (`_attention_backward`)
visit one (sample, head) pair's (N, N) logit block at a time, the
blocking idea of FlashAttention (Dao et al. 2022, arXiv:2205.14135)
rather than its kernel: a block is 1 MB at the desk size (N = 512,
float32), so it stays in a core's L2 cache while it is biased,
exponentiated and multiplied. Each block is laid out keys x queries,
k q^T with one column per query, and so are the base and the penalty:
the softmax's max, shift and sum run down columns with (1, N)
broadcasts, which numpy does faster than the (N, 1) broadcasts and
last-axis reductions of the row layout. The softmax divide moves off
the block onto the (N, d/heads) context, and the backward takes its
D = rowsum(dO * O) term from the context, as FlashAttention does (Dao
et al. 2022; Dao 2023, arXiv:2307.08691), so no N x N pass divides a
block.

The backward keeps no N x N array besides the shared base and penalty.
The forward records each query's max and sum of exponentials, and the
backward recomputes a block's exponentials from the max: one more k q^T
product and three elementwise passes per block buy back the
(B, heads, N, N) weights the tape would otherwise hold (recompute
instead of store, as in gradient checkpointing, Chen et al. 2016,
arXiv:1604.06174).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DataError, NumericError, ShapeError


@dataclass
class AttentionParams:
    """Projection matrices for one attention layer (no projection biases)."""

    wq: ad.Tensor   # (d, d)
    wk: ad.Tensor   # (d, d)
    wv: ad.Tensor   # (d, d)
    wo: ad.Tensor   # (d, d)
    n_heads: int

    def __post_init__(self):
        d = self.wq.shape[0]
        for name in ("wq", "wk", "wv", "wo"):
            t = getattr(self, name)
            if t.shape != (d, d):
                raise ShapeError(f"{name} shape {t.shape}, expected {(d, d)}")
        if d % self.n_heads:
            raise ShapeError(f"width {d} not divisible by {self.n_heads} heads")

    @property
    def d(self) -> int:
        return self.wq.shape[0]


@dataclass(frozen=True)
class BiasTables:
    """The logit bias terms every call of one forward shares, and what
    every call derives from them; `bias_tables` builds it.

    `rel` is the (2M,) relative table: bucket rank(q) - rank(k) + M - 1
    for a key k and a query q in one sector, bucket 2M - 1 for every pair
    in different sectors. `layout` is the (K, M) sector layout
    (`reorder._sector_layout`): row s holds the patches of sector s, and
    slot layout[s, j] has rank j in it.
    `penalty` is the (N, N) raster terrain penalty, keys x queries, or
    None. The rest is derived, in the tables' dtype: `blocks` (K*M*M,),
    the flat (N, N) index of the within-sector entries, sector by sector,
    keys x queries; `base` (N, N), the penalty plus rel[2M - 1] (the
    bucket alone without a penalty); `pen_blocks` (K, M, M), the penalty
    at `blocks`, or None.
    """

    rel: ad.Tensor
    layout: np.ndarray
    penalty: ad.Tensor | None
    blocks: np.ndarray
    base: np.ndarray
    pen_blocks: np.ndarray | None


def bias_tables(rel, layout, penalty=None) -> BiasTables:
    """The shared bias terms of one forward from the (2M,) relative table,
    the (K, M) sector layout and the optional (N, N) penalty, N = K * M.

    A layout that is not a (K, M) integer array raises ShapeError, one
    whose entries are not a permutation of 0..N-1 DataError; a table of
    another length or a penalty of another shape raises ShapeError.
    """
    rel_t = ad.as_tensor(rel)
    pen_t = None if penalty is None else ad.as_tensor(penalty)
    layout = np.asarray(layout)
    if layout.ndim != 2 or layout.dtype.kind not in "iu":
        raise ShapeError(f"sector layout {layout.shape} {layout.dtype} is not (K, M) integers")
    k, m = layout.shape
    n = k * m
    if (np.sort(layout, axis=None) != np.arange(n)).any():
        raise DataError(f"the sector layout must hold each patch 0..{n - 1} once")
    if rel_t.shape != (2 * m,):
        raise ShapeError(f"relative table shape {rel_t.shape} is not (2M,) = {(2 * m,)}")
    if pen_t is not None and pen_t.shape != (n, n):
        raise ShapeError(f"penalty shape {pen_t.shape} is not (N, N) with N = {n}")
    dtype = rel_t.dtype if pen_t is None else np.result_type(rel_t.data, pen_t.data)
    cross = rel_t.data[-1:].astype(dtype)
    blocks = (layout[:, :, None] * n + layout[:, None, :]).reshape(-1)
    if pen_t is None:
        base, pen_blocks = np.full((n, n), cross[0], dtype=dtype), None
    else:
        pen = pen_t.data.astype(dtype, copy=False)
        base = np.add(pen, cross)
        pen_blocks = pen.reshape(-1)[blocks].reshape(k, m, m)
    return BiasTables(rel_t, layout, pen_t, blocks, base, pen_blocks)


def _table_parents(tables: BiasTables) -> tuple[ad.Tensor, ...]:
    """The tables' tape parents: `rel`, then `penalty` when there is one."""
    return (tables.rel,) if tables.penalty is None else (tables.rel, tables.penalty)


def _check(shape, params: AttentionParams, tables: BiasTables) -> None:
    """ShapeError for tokens of `shape` that are not (B, N, d) for the
    projections' d, or whose N is not the tables'."""
    if len(shape) != 3 or shape[-1] != params.d:
        raise ShapeError(f"tokens shape {shape} is not (B, N, {params.d})")
    if tables.layout.size != shape[1]:
        raise ShapeError(f"tokens shape {shape} is not (B, N, d) with the tables' N = "
                         f"{tables.layout.size}")


def _heads(a: np.ndarray, h: int) -> np.ndarray:
    """(B, N, d) -> (B, heads, N, d/heads) view."""
    b, n, d = a.shape
    return a.reshape(b, n, h, d // h).transpose(0, 2, 1, 3)


def _bias_buffers(tables: BiasTables, dtype):
    """(bias, offsets, values): an (N, N) copy of the base in `dtype`, whose
    cross-sector entries every sample shares, and (K, M, M) scratch for
    `_sample_bias`."""
    shape = tables.layout.shape + (tables.layout.shape[1],)
    return (tables.base.astype(dtype), np.empty(shape, dtype=np.int32),
            np.empty(shape, dtype=tables.base.dtype))


def _sample_bias(tables: BiasTables, ranks, out, offsets, values):
    """The (N, N) bias, in raster order, of the sample whose patches have
    the (N,) sector ranks `ranks`: its within-sector entries written into
    `out`, a `_bias_buffers` base; its buckets there, sector by sector,
    land in `offsets`."""
    layout = tables.layout
    m = layout.shape[1]
    ranks = ranks[layout]
    np.subtract(ranks[:, None, :], ranks[:, :, None] - (m - 1), out=offsets)
    np.take(tables.rel.data.astype(tables.base.dtype, copy=False), offsets, out=values)
    if tables.pen_blocks is not None:
        values += tables.pen_blocks
    out.reshape(-1)[tables.blocks] = values.reshape(-1)
    return out


def _attention(xn: np.ndarray, params: AttentionParams, tables: BiasTables, ranks,
               weights: bool):
    """Biased multi-head attention of (B, N, d) tokens `xn` whose patches
    have the (B, N) sector ranks `ranks`, as arrays: (out, probs, q, k, v,
    ctx, col_max, col_sum). The last six are what `_attention_backward`
    takes besides `xn`.

    Projects Q, K and V, then works on one head's (N, N) logit block of one
    sample at a time, in one reused buffer laid out keys x queries: k q^T,
    bias add, finiteness check and the in-place column step of
    `autodiff.softmax`, exp(s - max) with each query column's max and sum
    of exponentials written into two (B, heads, 1, N) arrays. The block is
    never divided: e^T v gives the context, and its (N, d/heads) rows are
    divided by the sums. `probs` is the post-softmax weights, queries x
    keys, (B, heads, N, N) with `weights`, else an empty (B, heads, 0, 0)
    array of the logits' dtype.
    """
    b, n, d = xn.shape
    h = params.n_heads
    # the 1/sqrt(d) temperature is folded into q (cheaper than scaling logits)
    q = (xn @ params.wq.data) * (1.0 / math.sqrt(d))
    k = xn @ params.wk.data
    v = xn @ params.wv.data
    qh, kh, vh = _heads(q, h), _heads(k, h), _heads(v, h)
    dtype = np.result_type(q, k, tables.base)
    kept = n if weights else 0
    probs = np.empty((b, h, kept, kept), dtype=dtype)
    col_max = np.empty((b, h, 1, n), dtype=dtype)
    col_sum = np.empty((b, h, 1, n), dtype=dtype)
    block = np.empty((n, n), dtype=dtype)
    ctx = np.empty((b, n, d), dtype=dtype)
    ctx_h = _heads(ctx, h)
    bias_buf, offsets, values = _bias_buffers(tables, dtype)
    for i in range(b):
        bias_i = _sample_bias(tables, ranks[i], bias_buf, offsets, values)
        for j in range(h):
            np.matmul(kh[i, j], qh[i, j].T, out=block)
            block += bias_i
            if not np.isfinite(block).all():
                raise NumericError("non-finite attention logits")
            ad.softmax(block, stats=(col_max[i, j], col_sum[i, j]))
            np.matmul(block.T, vh[i, j], out=ctx_h[i, j])
            ctx_h[i, j] /= col_sum[i, j].T
            if weights:
                np.divide(block, col_sum[i, j], out=probs[i, j].T)
    return ctx @ params.wo.data, probs, q, k, v, ctx, col_max, col_sum


def _attention_backward(g, xn, q, k, v, ctx, col_max, col_sum, params: AttentionParams,
                        tables: BiasTables, ranks):
    """Gradients of `_attention` for its output gradient g: (g_xn, g_wq,
    g_wk, g_wv, g_wo, g_rel, g_penalty), in the order of the parents
    `_table_parents` ends; g_penalty is None without a penalty.

    Keeps no N x N array of its own besides the bias buffers: it
    recomputes each block's exp(k q^T + bias - max), the forward's own
    operations on the same operands, scales the context gradient dO by
    1/sum on its rows, and takes the softmax term D = rowsum(dO * O) from
    the context O, so no N x N pass divides or reduces. The penalty's
    gradient adds up each sample's heads in head order, then the samples
    in sample order. The relative table's adds each sample's head sum in
    float64: its within-sector entries by rank offset, the rest into
    bucket 2M - 1.
    """
    b, n, d = xn.shape
    h = params.n_heads
    m = tables.layout.shape[1]
    qh, kh, vh, ctx_h = _heads(q, h), _heads(k, h), _heads(v, h), _heads(ctx, h)
    gctx_h = _heads(g @ params.wo.data.T, h)
    gq, gk, gv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
    gq_h, gk_h, gv_h = _heads(gq, h), _heads(gk, h), _heads(gv, h)
    # the backward's own buffers: the forward's are not kept on the tape
    e = np.empty((n, n), dtype=col_max.dtype)
    bias_buf, offsets, values = _bias_buffers(tables, col_max.dtype)
    glog = np.empty((n, n), dtype=np.result_type(gctx_h, col_sum, vh))
    # a sample's heads add up in one buffer, in head order, as a sum over the
    # head axis would; the first head's gradient is written straight into it
    head_sum = np.empty_like(glog)
    ones = np.ones((1, n), dtype=glog.dtype)
    grel = np.zeros(2 * m)
    gpen = None if tables.penalty is None else np.zeros((n, n), dtype=tables.penalty.dtype)
    for i in range(b):
        bias_i = _sample_bias(tables, ranks[i], bias_buf, offsets, values)
        for j in range(h):
            # the forward's exp(s - max) of this block, from its column maxima
            np.matmul(kh[i, j], qh[i, j].T, out=e)
            e += bias_i
            e -= col_max[i, j]
            np.exp(e, out=e)
            # dO / sum on the context's rows, and D / sum = rowsum(dO / sum * O)
            go = gctx_h[i, j] / col_sum[i, j].T
            d_term = np.einsum("ij,ij->i", go, ctx_h[i, j])
            np.matmul(e, go, out=gv_h[i, j])
            gl = glog if j else head_sum
            np.matmul(vh[i, j], go.T, out=gl)
            # softmax backward, in place: e * (dP / sum - D / sum)
            gl -= d_term
            gl *= e
            if j:
                head_sum += gl
            np.matmul(gl.T, kh[i, j], out=gq_h[i, j])
            np.matmul(gl, qh[i, j], out=gk_h[i, j])
        if gpen is not None:
            gpen += head_sum
        # the within-sector entries by rank offset, then the rest (their
        # column sums) into the cross-sector bucket
        flat = head_sum.reshape(-1)
        grel[:-1] += np.bincount(offsets.reshape(-1), weights=flat[tables.blocks],
                                 minlength=2 * m - 1)
        flat[tables.blocks] = 0.0
        grel[-1] += (ones @ head_sum).sum(dtype=np.float64)
    gq *= 1.0 / math.sqrt(d)
    xt = xn.reshape(-1, d).T
    return (
        gq @ params.wq.data.T + gk @ params.wk.data.T + gv @ params.wv.data.T,
        xt @ gq.reshape(-1, d),
        xt @ gk.reshape(-1, d),
        xt @ gv.reshape(-1, d),
        ctx.reshape(-1, d).T @ g.reshape(-1, d),
        grel.astype(tables.rel.dtype),
        gpen,
    )


def _attend_parts(x, params: AttentionParams, tables: BiasTables, ranks, norm,
                  rate: float = 0.0, rng: np.random.Generator | None = None,
                  weights: bool = False):
    """A pre-norm layer's attention block on (B, N, d) tokens x as one tape
    node: x + drop(attention(LN(x))); returns (out, weights).

    `norm` is the layer norm's (gain, bias). At a positive `rate` the
    attention output is dropped with a mask drawn from `rng`. The forward
    is `autodiff.layer_norm`, then `_attention` on the normalized tokens,
    the dropout and the residual add. The node keeps x, the layer norm's
    row means and 1/std, the projections Q, K and V, the context, the
    softmax's column statistics and the bool dropout mask; its backward
    rebuilds the normalized input from x and the statistics, as the MLP
    node does, and runs `_attention_backward` and the layer norm's
    backward. Every step runs the operations of the chain of nodes it
    fuses (layer norm, attention, dropout, residual add) in their order,
    so the output and every gradient carry that chain's bits; x's
    gradient, g + the layer norm's, is a two-term sum, and those commute.

    `tables` (`bias_tables`) holds the relative table, the sector layout,
    the optional penalty and what every call shares of them. `ranks`, a
    (B, N) int array, holds each patch's rank along the wind inside its
    sector, sample by sample, as `reorder.sector_ranks` derives them from
    checked slot orders; the node trusts them. Sample i's bias is
    `tables.base` with each within-sector entry (key a, query c) set to
    rel[rank(c) - rank(a) + M - 1] plus the penalty's entry, written
    before its heads into one copy of the base that the call's samples
    share, since they differ only there. Tokens whose shape does not fit
    raise ShapeError (`_check`). With `weights` the second value is the
    post-softmax weights, queries x keys, a constant Tensor of shape
    (B, heads, N, N); without it, an empty (B, heads, 0, 0) Tensor of the
    logits' dtype.
    """
    x = ad.as_tensor(x)
    _check(x.shape, params, tables)
    gamma, beta = norm
    xd = x.data
    normed, mu, inv = ad.layer_norm(xd, gamma.data, beta.data)
    out, probs, q, k, v, ctx, col_max, col_sum = _attention(
        normed, params, tables, ranks, weights)
    kept = None
    if rate > 0.0:
        kept = ad.dropout(out, rate, rng, out=out)[1]
    out += xd

    def vjp(g):
        gatt = g if kept is None else ad.dropout_apply(g, kept, rate)
        xhat = (xd - mu) * inv
        grads = _attention_backward(gatt, gamma.data * xhat + beta.data, q, k, v, ctx,
                                    col_max, col_sum, params, tables, ranks)
        gx, ggamma, gbeta = ad.layer_norm_backward(grads[0], xhat, inv, gamma.data)
        gx += g
        return (gx, ggamma, gbeta) + grads[1:]

    parents = (x, gamma, beta, params.wq, params.wk, params.wv, params.wo)
    return ad.Tensor._op(out, parents + _table_parents(tables), vjp), ad.Tensor(probs)
