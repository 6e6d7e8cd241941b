"""Minimal reverse-mode automatic differentiation over numpy arrays.

The model code builds a computation graph out of `Tensor` nodes; calling
`backward()` on a scalar loss walks the tape in reverse topological order
and accumulates vector-Jacobian products into `.grad` of every node that
requires gradients. Only the operations the forecaster actually needs are
implemented, and each is validated against central finite differences in
the test suite.

Tape nodes here: the `Tensor` operators (+, -, *, @, sum). The model
records `@` once, for the positional vectors; its other nodes are built
on `Tensor._op`, one per block: the embedding and a layer's MLP and the
head in `model`, a layer's attention block in `attention`, the terrain
penalty in `topo_bias` and the loss in `train`. Besides the Tensor,
plain-array forward and backward steps that keep nothing themselves:
`gelu` / `gelu_backward`, `layer_norm` / `layer_norm_backward`,
`dropout` / `dropout_apply`, `softmax` (attention's in-place column
step) and the matmul gradients `grad_left` / `grad_right`. The fused
nodes share them, so each formula lives once and a fused node has the
bits of the chain of one node per step that it replaces
(tests/oracles.py builds that chain).

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


def unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
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


def grad_left(g: Array, b: Array, shape: tuple[int, ...]) -> Array:
    """Gradient of `a @ b` for its left operand, of shape `shape`."""
    return unbroadcast(g @ np.swapaxes(b, -1, -2), shape)


def grad_right(a: Array, g: Array, shape: tuple[int, ...]) -> Array:
    """Gradient of `a @ b` for its right operand, of shape `shape`."""
    return unbroadcast(np.swapaxes(a, -1, -2) @ g, shape)


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

        Every node's backward gives each parent a gradient; the walk drops
        those of constants. The graph stays alive after backward, so it can
        be walked again: a training loop must drop its last reference to the
        output (and so to every saved activation) before the next forward
        builds a new one.
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
            lambda g: (unbroadcast(g, a.data.shape), unbroadcast(g, b.data.shape)),
        )

    def __neg__(self):
        return Tensor._op(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        a, b = self, self._coerce(other)
        return Tensor._op(
            a.data * b.data,
            (a, b),
            lambda g: (unbroadcast(g * b.data, a.data.shape),
                       unbroadcast(g * a.data, b.data.shape)),
        )

    def __matmul__(self, other):
        a, b = self, self._coerce(other)
        if a.data.ndim < 2 or b.data.ndim < 2:
            raise ValueError("matmul expects >= 2-D operands")
        return Tensor._op(
            a.data @ b.data,
            (a, b),
            lambda g: (grad_left(g, b.data, a.data.shape), grad_right(a.data, g, b.data.shape)),
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


_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715
# elements per chunk of the GELU, dropout-draw and dropout-mask passes: a
# chunk and its scratch buffers (128 kB each in float32) stay in a core's
# L2 cache through the whole formula
_CHUNK = 32768


def _chunks(*arrays: Array):
    """Yield matching flat slices of equal-size arrays, _CHUNK at a time; a
    C-contiguous array's slices are views that can be written."""
    flat = [a.reshape(-1) for a in arrays]
    for start in range(0, flat[0].size, _CHUNK):
        yield [a[start:start + _CHUNK] for a in flat]


def _gelu_tanh(xc: Array, sq: Array, out: Array) -> Array:
    """tanh(K * (x + C * x^2 * x)) of one chunk, from its square `sq`, into
    `out` (which may be sq)."""
    np.multiply(sq, _GELU_C, out=out)
    out *= xc
    out += xc
    out *= _GELU_K
    return np.tanh(out, out=out)


def _mask_chunk(kc: Array, keep: float, out: Array) -> Array:
    """One chunk of dropout's scaled float mask, `kc.astype(dtype) / keep`."""
    np.copyto(out, kc)
    out /= keep
    return out


def gelu(x: Array) -> Array:
    """Smooth (tanh-form) GELU of an array, 0.5 * x * (1 + t) with
    t = tanh(K * (x + C * x^3)).

    Runs over flat chunks of _CHUNK elements with scratch buffers reused
    from chunk to chunk, so no temporary is as large as the input, and in
    the operation order of the textbook formula, so the result does not
    change with the chunking. Nothing is kept: `gelu_backward`
    recomputes the tanh from x.
    """
    out = np.empty(x.shape, dtype=x.dtype)
    t, s = np.empty((2, min(x.size, _CHUNK)), dtype=x.dtype)
    for xc, oc in _chunks(x, out):
        tc, sc = t[:xc.size], s[:xc.size]
        _gelu_tanh(xc, np.multiply(xc, xc, out=tc), tc)
        np.multiply(xc, 0.5, out=oc)
        oc *= np.add(tc, 1.0, out=sc)   # 0.5 * x * (1 + t)
    return out


def gelu_backward(x: Array, g: Array, out: Array | None = None,
                  kept: Array | None = None, rate: float = 0.0,
                  act: Array | None = None) -> tuple[Array, Array]:
    """(gelu(x), g * gelu'(x)) in one chunked pass that recomputes the tanh.

    The first is `gelu(x)` bit for bit, by the same operations; the second
    keeps the textbook derivative's operation order. With a dropout mask
    `kept` drawn at `rate`, the GELU feeds that dropout: the first result
    is the dropped output and g the gradient of it, each scaled by the
    mask in the same pass as `dropout_apply` would scale it. The gradient
    is written into `out` when given, which may be g if g is C-contiguous,
    and the first result into `act` when given, which may be x if x is
    C-contiguous: each chunk of x is read before its output is written.
    """
    act = np.empty(x.shape, dtype=x.dtype) if act is None else act
    gx = np.empty(x.shape, dtype=np.result_type(g, x)) if out is None else out
    scratch = np.empty((6, min(x.size, _CHUNK)), dtype=x.dtype)
    mask = () if kept is None else (kept,)
    for xc, gc, ac, gxc, *kc in _chunks(x, g, act, gx, *mask):
        t, half, s, du, d, m = scratch[:, :xc.size]
        np.multiply(xc, xc, out=du)
        _gelu_tanh(xc, du, t)
        np.multiply(xc, 0.5, out=half)
        np.add(t, 1.0, out=s)
        np.multiply(half, s, out=ac)    # 0.5 * x * (1 + t)
        if kc:
            # the dropped output, and the gradient through the dropout first
            ac *= _mask_chunk(kc[0], 1.0 - rate, m)
            gc = np.multiply(gc, m, out=gxc)
        du *= 3.0 * _GELU_C
        du += 1.0
        du *= _GELU_K                   # K * (1 + 3C * x^2)
        np.multiply(t, t, out=d)
        np.subtract(1.0, d, out=d)
        d *= half
        d *= du                         # 0.5 * x * (1 - t^2) * du
        s *= 0.5
        s += d
        np.multiply(gc, s, out=gxc)
    return act, gx


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


def layer_norm(x: Array, gamma: Array, beta: Array) -> tuple[Array, Array, Array]:
    """Normalize the last axis to zero mean / unit variance (eps 1e-5), then
    scale-shift: (gamma * xhat + beta, mu, inv) with xhat = (x - mu) * inv.

    The row means mu and reciprocal deviations inv, both (..., 1), are all
    a backward needs besides x: (x - mu) * inv rebuilds xhat bit for bit.
    """
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    return gamma * (xc * inv) + beta, mu, inv


def layer_norm_backward(g: Array, xhat: Array, inv: Array, gamma: Array
                        ) -> tuple[Array, Array, Array]:
    """(dx, dgamma, dbeta) of `layer_norm` for the output gradient g."""
    dxhat = g * gamma
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    lead = tuple(range(g.ndim - 1))
    return (
        dx,
        unbroadcast((g * xhat).sum(axis=lead), gamma.shape),
        unbroadcast(g.sum(axis=lead), gamma.shape),
    )


def dropout(x: Array, rate: float, rng: np.random.Generator, out: Array | None = None
            ) -> tuple[Array, Array]:
    """Inverted dropout of an array at a rate in (0, 1): (x * kept / keep,
    kept), with the bool mask kept = rng.random(x.shape) < keep drawn from
    the supplied generator and keep = 1 - rate. The uniform draws come
    _CHUNK at a time into one reused float64 buffer, which consumes the
    generator's stream in the same order, so the mask and the generator's
    state afterwards are those of the one whole draw. The product is
    written into `out` when given, which may be x if x is C-contiguous.
    """
    kept = np.empty(x.shape, dtype=bool)
    draws = np.empty(min(x.size, _CHUNK))
    for (kc,) in _chunks(kept):
        dc = draws[:kc.size]
        rng.random(out=dc)
        np.less(dc, 1.0 - rate, out=kc)
    return dropout_apply(x, kept, rate, out), kept


def dropout_apply(x: Array, kept: Array, rate: float, out: Array | None = None) -> Array:
    """x * (kept / keep) in x's dtype: dropout's forward under a drawn mask,
    and its backward.

    The scaled float mask `kept.astype(x.dtype) / keep` is rebuilt one
    chunk at a time, so it is never whole, and multiplying by it gives the
    bits of multiplying by a stored float mask. `out` may be x if x is
    C-contiguous.
    """
    out = np.empty(x.shape, dtype=x.dtype) if out is None else out
    scale = np.empty(min(x.size, _CHUNK), dtype=x.dtype)
    for xc, kc, oc in _chunks(x, kept, out):
        np.multiply(xc, _mask_chunk(kc, 1.0 - rate, scale[:xc.size]), out=oc)
    return out


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
