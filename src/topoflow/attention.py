"""Multi-head self-attention with additive terrain bias.

The core operation follows the standard scaled dot-product form with the
softmax temperature sqrt(d) taken over the full model width, on tokens in
raster patch order. Two additive (N, N) terms land on the logits of
every head: the model's relative table, indexed by slot, and the terrain
penalty between the patches, which every sample shares as it is and
which a variant without the elevation bias leaves out. The table comes
on every call with its slot orders, one (B, N) int array whose row i is
sample i's slot -> patch order, identity rows for a variant without wind
reordering; `model.forward` and the node check them with
`reorder.check_orders`. The node maps the table into each sample's
raster positions (`reorder.unapply` on its rows, the same inverse on its
columns), so the (B, 1, N, N) per-sample bias is never built, kept or
differentiated, and gathers the table's gradient back to slot order.

Under a zero table and no penalty the operation is permutation
equivariant: reordering tokens, attending, and undoing the reorder is
exactly attention on the original order. So the wind-guided order moves
no token: it only chooses which relative offset each pair of patches
sees, a bias indexed by the pair (Shaw et al. 2018, arXiv:1803.02155).
Release criterion 1 measures the deviation with `equivariance_check` in
tests/oracles.py.

The whole chain from the Q/K/V projections to the output projection is a
single tape node with an analytic backward. Forward and backward visit
one (sample, head) pair's (N, N) logit block at a time, the blocking idea
of FlashAttention (Dao et al. 2022, arXiv:2205.14135) rather than its
kernel: a block is 1 MB at the desk size (N = 512, float32), so it stays
in a core's L2 cache while it is biased, exponentiated and multiplied.
Each block is laid out keys x queries, k q^T with one column per query,
and so are the two tables: the softmax's max, shift and sum run down
columns with (1, N) broadcasts, which numpy does faster than the (N, 1)
broadcasts and last-axis reductions of the row layout. The softmax
divide moves off the block onto the (N, d/heads) context, and the
backward takes its D = rowsum(dO * O) term from the context, as
FlashAttention does (Dao et al. 2022; Dao 2023, arXiv:2307.08691), so
no N x N pass divides a block.
The backward keeps no N x N array besides the bias and penalty it was
given. The forward records each query's max and sum of exponentials,
and the backward recomputes a block's exponentials from the max: one
more k q^T product and three elementwise passes per block buy back the
(B, heads, N, N) weights the tape would otherwise hold (recompute
instead of store, as in gradient checkpointing, Chen et al. 2016,
arXiv:1604.06174).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad, reorder
from .errors import NumericError, ShapeError


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


def _attend_parts(tokens, params: AttentionParams, bias, orders, penalty=None,
                  weights: bool = False):
    """Biased multi-head attention over (B, N, d) tokens as one tape node;
    returns (out, weights).

    The forward projects Q, K and V, then works on one head's (N, N) logit
    block of one sample at a time, in one reused buffer laid out keys x
    queries: k q^T, bias add, finiteness check and the in-place column
    step of `autodiff.softmax`, exp(s - max) with each query column's max
    and sum of exponentials written into two (B, heads, 1, N) arrays. The
    block is never divided: e^T v gives the context, and its (N, d/heads)
    rows are divided by the sums.
    The analytic backward keeps no N x N array of its own: it holds the
    projections, the context, the tables and those column statistics. It
    recomputes each block's exp(k q^T + bias - max), the forward's own
    operations on the same operands, scales the context gradient dO by
    1/sum on its rows, and takes the softmax term D = rowsum(dO * O) from
    the context O, so no N x N pass divides or reduces.
    `bias` (the relative logits, indexed by slot) and the optional
    `penalty` (the terrain penalty between the patches in raster order)
    are (N, N) tables shared by the batch and the heads, laid out keys x
    queries: row k, column q lands on query q's logit for key k. `orders`,
    a (B, N) array whose row i is sample i's slot -> patch permutation,
    maps `bias` into sample i's raster positions: with s = argsort(order),
    its block entry (a, c) gets bias[s[a], s[c]]; identity rows land it as
    it is, and a zero table adds nothing. The penalty always lands as it
    is. A sample's bias is built in one reused (N, N) buffer before its
    heads. A table's gradient adds up each sample's heads in head order,
    then the samples in sample order, the relative table's gathered back
    to slot order through the order.
    Other shapes raise ShapeError; orders that `reorder.check_orders`
    refuses raise its ShapeError or DataError.
    With `weights` the second value is the post-softmax weights, queries
    x keys, a constant Tensor of shape (B, heads, N, N); without it, an
    empty (B, heads, 0, 0) Tensor of the logits' dtype.
    """
    x = ad.as_tensor(tokens)
    if x.data.ndim != 3 or x.shape[-1] != params.d:
        raise ShapeError(f"tokens shape {x.shape} is not (B, N, {params.d})")
    b, n, d = x.shape
    h = params.n_heads
    bias_t = ad.as_tensor(bias)
    pen_t = None if penalty is None else ad.as_tensor(penalty)
    tables = (bias_t,) if pen_t is None else (bias_t, pen_t)
    for name, t in zip(("bias", "penalty"), tables):
        if t.shape != (n, n):
            raise ShapeError(f"{name} shape {t.shape} is not (N, N) with N = {n}")
    orders = reorder.check_orders(orders, b, n)
    inverse = np.argsort(orders, axis=1)

    def heads(a: np.ndarray) -> np.ndarray:
        """(B, N, d) -> (B, heads, N, d/heads) view."""
        return a.reshape(b, n, h, d // h).transpose(0, 2, 1, 3)

    # the 1/sqrt(d) temperature is folded into q (cheaper than scaling logits)
    scale = 1.0 / math.sqrt(d)
    q = (x.data @ params.wq.data) * scale
    k = x.data @ params.wk.data
    v = x.data @ params.wv.data
    qh, kh, vh = heads(q), heads(k), heads(v)
    dtype = np.result_type(q, k, *(t.data for t in tables))
    # both tables are mapped and added in the logits' dtype
    rel = bias_t.data.astype(dtype, copy=False)
    pen = None if pen_t is None else pen_t.data.astype(dtype, copy=False)
    kept = n if weights else 0
    probs = np.empty((b, h, kept, kept), dtype=dtype)
    col_max = np.empty((b, h, 1, n), dtype=dtype)
    col_sum = np.empty((b, h, 1, n), dtype=dtype)
    block, bias_buf = np.empty((n, n), dtype=dtype), np.empty((n, n), dtype=dtype)
    ctx = np.empty((b, n, d), dtype=dtype)
    ctx_h = heads(ctx)

    def sample_bias(i, out):
        """Sample i's (N, N) bias in raster order, built in `out`."""
        np.take(reorder.unapply(orders[i], rel), inverse[i], axis=1, out=out, mode="clip")
        return out if pen is None else np.add(out, pen, out=out)

    for i in range(b):
        bias_i = sample_bias(i, bias_buf)
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
    out = ctx @ params.wo.data

    parents = (x, params.wq, params.wk, params.wv, params.wo) + tables

    def vjp(g):
        gctx_h = heads(g @ params.wo.data.T)
        gq, gk, gv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
        gq_h, gk_h, gv_h = heads(gq), heads(gk), heads(gv)
        # the backward's own buffers: the forward's are not kept on the tape
        e, bias_buf = np.empty((n, n), dtype=dtype), np.empty((n, n), dtype=dtype)
        glog = np.empty((n, n), dtype=np.result_type(gctx_h, col_sum, vh))
        gbias = gpen = head_sum = None
        if bias_t.requires_grad:
            gbias = np.zeros((n, n), dtype=bias_t.dtype)
        if pen_t is not None and pen_t.requires_grad:
            gpen = np.zeros((n, n), dtype=pen_t.dtype)
        if gbias is not None or gpen is not None:
            # a sample's heads add up in one buffer, in head order, as a sum
            # over the head axis would; the first head's gradient is
            # written straight into it
            head_sum = np.empty((n, n), dtype=glog.dtype)
        for i in range(b):
            bias_i = sample_bias(i, bias_buf)
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
                gl = head_sum if head_sum is not None and j == 0 else glog
                np.matmul(vh[i, j], go.T, out=gl)
                # softmax backward, in place: e * (dP / sum - D / sum)
                gl -= d_term
                gl *= e
                if head_sum is not None and j > 0:
                    head_sum += gl
                np.matmul(gl.T, kh[i, j], out=gq_h[i, j])
                np.matmul(gl, qh[i, j], out=gk_h[i, j])
            if gpen is not None:
                gpen += head_sum
            if gbias is not None:
                # back to slot order: entry (k, q) gets (order[k], order[q])
                np.take(head_sum, orders[i], axis=0, out=glog, mode="clip")
                np.take(glog, orders[i], axis=1, out=head_sum, mode="clip")
                gbias += head_sum
        gq *= scale

        def weight_grad(w, left, right):
            return left.reshape(-1, d).T @ right.reshape(-1, d) if w.requires_grad else None

        gx = None
        if x.requires_grad:
            gx = gq @ params.wq.data.T + gk @ params.wk.data.T + gv @ params.wv.data.T
        return (
            gx,
            weight_grad(params.wq, x.data, gq),
            weight_grad(params.wk, x.data, gk),
            weight_grad(params.wv, x.data, gv),
            weight_grad(params.wo, ctx, g),
        ) + (gbias, gpen)[:len(tables)]

    return ad.Tensor._op(out, parents, vjp), ad.Tensor(probs)

