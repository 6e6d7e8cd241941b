"""Minimal reverse-mode automatic differentiation over numpy arrays.

The model code builds a computation graph out of `Tensor` nodes; calling
`backward()` on a scalar loss walks the tape in reverse topological order
and accumulates vector-Jacobian products into `.grad` of every node that
requires gradients. Only the operations the forecaster actually needs are
implemented; each nonlinear primitive carries its analytic backward rule
and is validated against central finite differences in the test suite.

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
        """Accumulate gradients of this (scalar) node into the whole tape."""
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

    def reshape(self, *shape) -> "Tensor":
        return Tensor._op(
            self.data.reshape(shape), (self,), lambda g: (g.reshape(self.data.shape),)
        )

    def transpose(self, *axes) -> "Tensor":
        inverse = tuple(np.argsort(axes))
        return Tensor._op(
            self.data.transpose(axes), (self,), lambda g: (g.transpose(inverse),)
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


def gelu(x: Tensor) -> Tensor:
    """Smooth (tanh-form) GELU activation.

    The forward is built in place and only the tanh is kept for backward;
    the vjp recomputes x*x from the input. Both keep the operation order
    of the textbook formula, so results do not change with the buffering.
    """
    xd = x.data
    t = xd * xd
    t *= _GELU_C
    t *= xd
    t += xd
    t *= _GELU_K
    np.tanh(t, out=t)       # tanh(K * (x + C * x^2 * x))
    out = xd * 0.5
    out *= t + 1.0          # 0.5 * x * (1 + t)

    def vjp(g):
        du = xd * xd
        du *= 3.0 * _GELU_C
        du += 1.0
        du *= _GELU_K       # K * (1 + 3C * x^2)
        d = t * t
        np.subtract(1.0, d, out=d)
        d *= xd * 0.5
        d *= du             # 0.5 * x * (1 - t^2) * du
        s = t + 1.0
        s *= 0.5
        s += d
        return (np.multiply(g, s, out=s if g.dtype == s.dtype else None),)

    return Tensor._op(out, (x,), vjp)


def softmax(x: Tensor | Array) -> Tensor | Array:
    """Row softmax over the last axis, computed with max subtraction.

    A Tensor gets a new tape node. A plain array is a raw logit block: it
    is normalized in place and returned, with nothing recorded (the fused
    attention node calls this once per (sample, head) block).
    """
    if isinstance(x, np.ndarray):
        return _softmax_rows(x)
    y = _softmax_rows(x.data.copy())

    def vjp(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return Tensor._op(y, (x,), vjp)


def _softmax_rows(y: Array) -> Array:
    """Overwrite each last-axis row of y with exp(y - max) / sum, return y."""
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return y


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale-shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
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
    """Inverted dropout with a mask drawn from the supplied generator."""
    if rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.data.shape) < keep).astype(x.data.dtype) / keep
    return x * Tensor(mask)


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
