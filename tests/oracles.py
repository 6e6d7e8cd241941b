"""Reference implementations the tests compare the package against.

No command reaches these, so they live with the tests: the attention
node with its slot table landing as it is, the attention equivariance
measure under a zero table (criterion 1), the covariance decay fit
(criterion 6), the tape ops that the primitive-chain attention reference is
built from (row softmax, reshape, transpose), the MLP node as the chain of
tape nodes it fuses, the forward reorder that `reorder.unapply` undoes,
and the forecaster run in slot order, the form the raster-order
`model.forward` must match.
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


# -- the MLP node unfused ---------------------------------------------------------------


def gelu(x: ad.Tensor) -> ad.Tensor:
    """GELU as a tape node of its own, from autodiff's array helpers."""
    return ad.Tensor._op(ad.gelu(x.data), (x,), lambda g: (ad.gelu_backward(x.data, g)[1],))


def mlp_chain(x, weights, residual, rate=0.0, rng=None) -> ad.Tensor:
    """`model._mlp` as the chain of one tape node per step that it fuses:
    layer norm, linear, GELU, dropout, then `@ w2 + b2` and, with
    `residual`, the residual add first, in the order the node adds."""
    gamma, beta, w1, b1, w2, b2 = weights
    hidden = gelu(ad.linear(ad.layer_norm_node(x, gamma, beta), w1, b1))
    hidden = ad.dropout_node(hidden, rate, rng)
    if residual:
        return x + hidden @ w2 + b2
    return ad.linear(hidden, w2, b2)


# -- the attention node under identity slot orders ---------------------------------


def identity_attend(tokens, params, bias=None, **kwargs):
    """`attention._attend_parts` on (B, N, d) `tokens` with the (N, N)
    table `bias` under identity slot orders, which land it as it is; no
    `bias` is a zero table of the tokens' dtype, which moves no bit of
    the output, the weights or a gradient. Other keywords go to the node."""
    x = ad.as_tensor(tokens)
    b, n = x.shape[:2]
    if bias is None:
        bias = np.zeros((n, n), dtype=x.dtype)
    return attention._attend_parts(x, params, bias, np.tile(np.arange(n), (b, 1)), **kwargs)


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
    goes through the node with that slot-ordered sum as its table under
    identity slot orders, which land it as it is.
    """
    spec = config.spec
    order = np.asarray(order)
    tokens = model.patchify(np.asarray(inputs)[None], spec)[:, order]
    x = ad.linear(ad.as_tensor(tokens.astype(params["patch_embed.w"].dtype)),
                  params["patch_embed.w"], params["patch_embed.b"])
    x = x + ad.take(params["pos.grid"] @ params["pos.proj"], order)
    bias = ad.take(params["pos.rel"], model._relative_slot_index(spec))
    if config.elev_bias:
        flipped = -np.asarray(elev_patch_m, dtype=np.float64)[order]
        bias = bias + topo_bias.bias_tensor(flipped, params["alpha"])
    for i in range(config.layers):
        normed = ad.layer_norm_node(x, params[f"layer{i}.ln1.g"], params[f"layer{i}.ln1.b"])
        attended, _ = identity_attend(
            normed, model._layer_attention_params(params, i, config.heads), bias)
        x = x + attended
        x = mlp_chain(x, model._mlp_weights(params, f"layer{i}.ln2", f"layer{i}.mlp"),
                      residual=True)
    out = mlp_chain(x, model._mlp_weights(params, "head.ln", "head"), residual=False)
    return ad.take(reshape(out, spec.n_patches, config.out_dim), np.argsort(order))


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
