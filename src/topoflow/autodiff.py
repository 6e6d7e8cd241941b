"""Minimal reverse-mode automatic differentiation over numpy arrays.

The model code builds a computation graph out of `Tensor` nodes; calling
`backward()` on a scalar loss walks the tape in reverse topological order
and accumulates vector-Jacobian products into `.grad` of every node that
requires gradients. Only the operations the forecaster actually needs are
implemented; each nonlinear primitive carries its analytic backward rule
and is validated against central finite differences in the test suite.
`softmax` is no tape op: it is the fused attention node's in-place column
step on plain arrays, and that node carries its backward.

Arrays keep whatever dtype they were created with (float32 for training,
float64 for gradient checks); no implicit casting happens on the tape.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

# False inside `no_grad()`: operations then record no parents and no backward
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Run forwards without building a tape (inference and validation).

    Every Tensor made inside the block has requires_grad False and no
    parents, so nothing a backward pass would need is kept alive. The
    previous mode is restored on exit, also when the block raises.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def grad_enabled() -> bool:
    """True unless inside `no_grad()`: whether new operations are recorded."""
    return _grad_enabled


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the shape of its source."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gi, si) in enumerate(zip(g.shape, shape)) if si == 1 and gi != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Tensor:
    """A node on the tape: value, optional gradient, and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[Array], tuple[Array | None, ...]] | None = None

    @classmethod
    def _op(cls, data: Array, parents: Sequence["Tensor"], vjp) -> "Tensor":
        out = cls(data, requires_grad=_grad_enabled and any(p.requires_grad for p in parents))
        if out.requires_grad:
            out._parents = tuple(parents)
            out._vjp = vjp
        return out

    # -- introspection ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    # -- autograd ---------------------------------------------------------

    def backward(self, grad: Array | None = None) -> None:
        """Accumulate gradients of this (scalar) node into the whole tape.

        The graph stays alive after backward, so it can be walked again: a
        training loop must drop its last reference to the output (and so
        to every saved activation) before the next forward builds a new one.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient needs a scalar")
            grad = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        grads: dict[int, Array] = {id(self): np.asarray(grad, dtype=self.data.dtype)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                grads[key] = pg if key not in grads else grads[key] + pg

    # -- operators ----------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        a, b = self, self._coerce(other)
        return Tensor._op(
            a.data + b.data,
            (a, b),
            lambda g: (
                _unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None,
            ),
        )

    __radd__ = __add__

    def __neg__(self):
        return Tensor._op(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        a, b = self, self._coerce(other)
        return Tensor._op(
            a.data * b.data,
            (a, b),
            lambda g: (
                _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
            ),
        )

    __rmul__ = __mul__

    def __matmul__(self, other):
        a, b = self, self._coerce(other)
        if a.data.ndim < 2 or b.data.ndim < 2:
            raise ValueError("matmul expects >= 2-D operands")
        return Tensor._op(
            a.data @ b.data,
            (a, b),
            lambda g: (
                _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
                if a.requires_grad else None,
                _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
                if b.requires_grad else None,
            ),
        )

    def sum(self) -> "Tensor":
        return Tensor._op(
            self.data.sum(), (self,), lambda g: (np.broadcast_to(g, self.data.shape).copy(),)
        )


def as_tensor(x, dtype=None) -> Tensor:
    """Wrap a constant (no gradient) unless it already is a Tensor."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def parameter(data) -> Tensor:
    return Tensor(np.asarray(data), requires_grad=True)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`x @ w + b` as one tape node, so the tape keeps no pre-bias product.

    Output and gradients are bitwise those of the `@` then `+` chain.
    """
    xd, wd = x.data, w.data

    def vjp(g):
        return (
            _unbroadcast(g @ np.swapaxes(wd, -1, -2), xd.shape) if x.requires_grad else None,
            _unbroadcast(np.swapaxes(xd, -1, -2) @ g, wd.shape) if w.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return Tensor._op(xd @ wd + b.data, (x, w, b), vjp)


def take(x: Tensor, idx: np.ndarray) -> Tensor:
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

    return Tensor._op(x.data[idx], (x,), vjp)


_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715
# elements per GELU chunk: a chunk and its scratch buffers (128 kB each in
# float32) stay in a core's L2 cache through the whole formula
_GELU_CHUNK = 32768


def _chunks(*arrays: Array):
    """Yield matching flat slices of equal-size arrays, _GELU_CHUNK at a
    time; a C-contiguous array's slices are views that can be written."""
    flat = [a.reshape(-1) for a in arrays]
    for start in range(0, flat[0].size, _GELU_CHUNK):
        yield [a[start:start + _GELU_CHUNK] for a in flat]


def gelu(x: Tensor) -> Tensor:
    """Smooth (tanh-form) GELU activation.

    Forward and backward run over flat chunks of _GELU_CHUNK elements with
    scratch buffers reused from chunk to chunk, so no temporary is as
    large as the input. Only the tanh is kept for backward; the vjp
    recomputes x*x from the input. Both keep the operation order of the
    textbook formula, so results do not change with the chunking.
    """
    xd = x.data
    t = np.empty(xd.shape, dtype=xd.dtype)
    out = np.empty(xd.shape, dtype=xd.dtype)
    scratch = np.empty(min(xd.size, _GELU_CHUNK), dtype=xd.dtype)
    for xc, tc, oc in _chunks(xd, t, out):
        np.multiply(xc, xc, out=tc)
        tc *= _GELU_C
        tc *= xc
        tc += xc
        tc *= _GELU_K
        np.tanh(tc, out=tc)     # tanh(K * (x + C * x^2 * x))
        np.multiply(xc, 0.5, out=oc)
        oc *= np.add(tc, 1.0, out=scratch[:tc.size])   # 0.5 * x * (1 + t)

    def vjp(g):
        gx = np.empty(xd.shape, dtype=np.result_type(g, t))
        scratch = np.empty((3, min(xd.size, _GELU_CHUNK)), dtype=t.dtype)
        for xc, tc, gc, gxc in _chunks(xd, t, g, gx):
            du, d, s = scratch[:, :tc.size]
            np.multiply(xc, xc, out=du)
            du *= 3.0 * _GELU_C
            du += 1.0
            du *= _GELU_K       # K * (1 + 3C * x^2)
            np.multiply(tc, tc, out=d)
            np.subtract(1.0, d, out=d)
            d *= np.multiply(xc, 0.5, out=s)
            d *= du             # 0.5 * x * (1 - t^2) * du
            np.add(tc, 1.0, out=s)
            s *= 0.5
            s += d
            np.multiply(gc, s, out=gxc)
        return (gx,)

    return Tensor._op(out, (x,), vjp)


def softmax(block: Array, stats: tuple[Array, Array]) -> Array:
    """The column step of attention's softmax, in place, with nothing recorded.

    `block` is a raw logit block laid out keys x queries, (..., N, M) with
    one column per query (the fused attention node calls this once per
    (sample, head) block). Each column is overwritten with exp(s - max)
    and the array returned. `stats`, a (max_out, sum_out) pair shaped
    (..., 1, M), receives each column's max and its sum of exponentials,
    the latter as one ones(1, N) @ e product; dividing a column by its sum
    gives its softmax, which the attention node leaves to its (N, d/heads)
    context.
    """
    col_max, col_sum = stats
    np.max(block, axis=-2, keepdims=True, out=col_max)
    block -= col_max
    np.exp(block, out=block)
    np.matmul(np.ones((1, block.shape[-2]), dtype=block.dtype), block, out=col_sum)
    return block


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (eps 1e-5), then scale-shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv

    def vjp(g):
        dxhat = g * gamma.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        lead = tuple(range(g.ndim - 1))
        return (
            dx,
            _unbroadcast((g * xhat).sum(axis=lead), gamma.data.shape),
            _unbroadcast(g.sum(axis=lead), beta.data.shape),
        )

    return Tensor._op(gamma.data * xhat + beta.data, (x, gamma, beta), vjp)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with a mask drawn from the supplied generator.

    The tape keeps the mask as bools; forward and backward each rebuild
    the scaled mask `kept / keep` in the input's dtype, which gives the
    bits of multiplying by a stored float mask.
    """
    if rate <= 0.0:
        return x
    keep = 1.0 - rate
    kept = rng.random(x.data.shape) < keep
    dtype = x.data.dtype

    def vjp(g):
        return (g * (kept.astype(dtype) / keep),)

    return Tensor._op(x.data * (kept.astype(dtype) / keep), (x,), vjp)


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
