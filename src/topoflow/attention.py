"""Multi-head self-attention with additive terrain bias.

The core operation follows the standard scaled dot-product form with the
softmax temperature sqrt(d) taken over the full model width. An optional
additive bias lands on the logits of every head (the terrain penalty is
shared across heads).

Without a bias the operation is permutation equivariant: reordering
tokens, attending, and undoing the reorder is exactly attention on the
original order, which is what licenses the wind-guided shuffle in the
first place. `equivariance_check` measures the deviation directly.

The whole chain from the Q/K/V projections to the output projection is a
single tape node with an analytic backward. Forward and backward visit
one (sample, head) pair's (N, N) logit block at a time, the blocking idea
of FlashAttention (Dao et al. 2022, arXiv:2205.14135) rather than its
kernel: a block is 1 MB at the desk size (N = 512, float32), so it stays
in a core's L2 cache while it is biased, normalized and multiplied, and
the only N x N arrays kept for backward are the softmax weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import reorder
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


def _attend_parts(tokens, params: AttentionParams, bias=None):
    """Biased multi-head attention as one tape node; returns (out, weights).

    The forward projects Q, K and V, then works on one head's (N, N) logit
    block of one sample at a time: bias add, finiteness check and an
    in-place row softmax. Only the post-softmax weights and the
    (N, d)-sized projections stay alive for the analytic backward, which
    visits the blocks in the same order with one reused (N, N) buffer and
    returns the gradients of the tokens, the four projections and the bias.
    The bias is shared by the heads: it has shape (N, N), (1, 1, N, N) or
    (B, 1, N, N), the shapes `model.forward` passes, and any other shape
    raises ShapeError. Its gradient adds up a sample's heads in one buffer,
    in head order, and then the samples that share it.
    `weights` is a constant Tensor of shape (..., heads, N, N).
    """
    x = ad.as_tensor(tokens)
    if x.data.ndim not in (2, 3) or x.shape[-1] != params.d:
        raise ShapeError(f"tokens shape {x.shape} incompatible with width {params.d}")
    batched = x.data.ndim == 3
    xs = x.data if batched else x.data[None]
    b, n, d = xs.shape
    h = params.n_heads
    bias_t = None if bias is None else ad.as_tensor(bias)
    bias3 = None  # (1 or B, N, N)
    if bias_t is not None:
        if bias_t.shape not in ((n, n), (1, 1, n, n), (b, 1, n, n)):
            raise ShapeError(
                f"bias shape {bias_t.shape} is not (N, N), (1, 1, N, N) or (B, 1, N, N) "
                f"with B = {b}, N = {n}"
            )
        bias3 = bias_t.data.reshape(-1, n, n)

    def heads(a: np.ndarray) -> np.ndarray:
        """(B, N, d) -> (B, heads, N, d/heads) view."""
        return a.reshape(b, n, h, d // h).transpose(0, 2, 1, 3)

    def part(a: np.ndarray, i: int) -> np.ndarray:
        """a[i], or a[0] when `a` broadcasts along its leading axis."""
        return a[i if a.shape[0] > 1 else 0]

    # the 1/sqrt(d) temperature is folded into q (cheaper than scaling logits)
    scale = 1.0 / math.sqrt(d)
    q = (xs @ params.wq.data) * scale
    k = xs @ params.wk.data
    v = xs @ params.wv.data
    qh, kh, vh = heads(q), heads(k), heads(v)
    dtype = np.result_type(q, k) if bias3 is None else np.result_type(q, k, bias3)
    weights = np.empty((b, h, n, n), dtype=dtype)
    ctx = np.empty((b, n, d), dtype=dtype)
    ctx_h = heads(ctx)
    for i in range(b):
        for j in range(h):
            block = np.matmul(qh[i, j], kh[i, j].T, out=weights[i, j])
            if bias3 is not None:
                block += part(bias3, i)
            if not np.isfinite(block).all():
                raise NumericError("non-finite attention logits")
            ad.softmax(block)
            ctx_h[i, j] = block @ vh[i, j]
    out = ctx @ params.wo.data

    parents = (x, params.wq, params.wk, params.wv, params.wo)
    if bias_t is not None:
        parents += (bias_t,)

    def vjp(g):
        gs = g if batched else g[None]
        gctx_h = heads(gs @ params.wo.data.T)
        gq, gk, gv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
        gq_h, gk_h, gv_h = heads(gq), heads(gk), heads(gv)
        glog = np.empty((n, n), dtype=np.result_type(gctx_h, vh))
        gbias = head_sum = None
        if bias_t is not None and bias_t.requires_grad:
            gbias = np.zeros(bias3.shape, dtype=bias3.dtype)
            # a sample's heads add up in one buffer, in head order, as a sum
            # over the head axis would
            head_sum = np.empty((n, n), dtype=glog.dtype)
        for i in range(b):
            for j in range(h):
                p = weights[i, j]
                gv_h[i, j] = p.T @ gctx_h[i, j]
                np.matmul(gctx_h[i, j], vh[i, j].T, out=glog)
                # softmax backward, in place: p * (dp - rowsum(dp * p))
                glog -= np.einsum("ij,ij->i", glog, p)[:, None]
                glog *= p
                if head_sum is not None:
                    if j == 0:
                        head_sum[...] = glog
                    else:
                        head_sum += glog
                gq_h[i, j] = glog @ kh[i, j]
                gk_h[i, j] = glog.T @ qh[i, j]
            if head_sum is not None:
                part(gbias, i)[...] += head_sum
        gq *= scale

        def weight_grad(w, left, right):
            return left.reshape(-1, d).T @ right.reshape(-1, d) if w.requires_grad else None

        gx = None
        if x.requires_grad:
            gx = gq @ params.wq.data.T + gk @ params.wk.data.T + gv @ params.wv.data.T
            gx = gx if batched else gx[0]
        grads = (
            gx,
            weight_grad(params.wq, xs, gq),
            weight_grad(params.wk, xs, gk),
            weight_grad(params.wv, xs, gv),
            weight_grad(params.wo, ctx, gs),
        )
        if bias_t is not None:
            grads += (None if gbias is None else gbias.reshape(bias_t.shape),)
        return grads

    out_t = ad.Tensor._op(out if batched else out[0], parents, vjp)
    return out_t, ad.Tensor(weights if batched else weights[0])


def equivariance_check(
    tokens: np.ndarray, params: AttentionParams, perm: reorder.SectorPermutation
) -> float:
    """Max |unapply(Attn(apply(X))) - Attn(X)| without a bias."""
    straight, _ = _attend_parts(tokens, params)
    shuffled, _ = _attend_parts(reorder.apply(perm, np.asarray(tokens)), params)
    return float(np.abs(reorder.unapply(perm, shuffled.data) - straight.data).max())
