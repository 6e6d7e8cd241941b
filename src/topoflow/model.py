"""End-to-end forecaster over gridded fields.

Pipeline per forward pass: patchify the (normalized) input stack, embed
the patch tokens and add their per-patch positional vectors, run L
pre-norm transformer layers whose attention logits carry a shared
relative rank-offset table plus the terrain penalty, and decode with a
two-layer head that emits every horizon at once. The tokens stay in
raster patch order throughout, so `ForwardResult.to_grid` is a plain
unpatchify and the loss compares raster targets under the raster mask.
The input and output channels are fixed by the data format
(`config.INPUT_CHANNELS` in, one `config.TARGET_CHANNELS` set per horizon
out), so they are properties of ModelConfig rather than settings.

The tape holds one node per block. The embedding is one node for
drop(tokens @ W + b + pos) (`_embed`), after the positional vectors'
`pos.grid @ pos.proj` product. A layer is two: the attention block
x + drop(attention(LN(x))) (`attention._attend_parts`), and one MLP node
for LN -> W1 -> GELU -> dropout -> W2 plus the residual (`_mlp`); the
head is one more MLP node, without dropout or residual. Each node keeps
its input, its layer norm's row statistics and its bool dropout mask
(the attention block also its projections, context and softmax column
statistics), and recomputes the rest in its backward, the normalized
input and the MLP's pre-activation included: the selective
recomputation of Korthikanti et al. 2022 (arXiv:2205.05198).

Wind-guided reordering reaches only the attention node, which ranks each
sample's patches through its slot order (one row of a (B, N) int array,
slot -> raster patch, inside each sector) and indexes the relative table,
2M numbers for sectors of M patches, by the rank offset of each pair in
one sector; every pair in different sectors shares the last bucket.
`_attention_tables` builds the table's and the penalty's shared parts
once per forward (`attention.bias_tables`), and every layer and every
sample of the no-tape path use them. Attention under a zero table is
permutation equivariant (criterion 1), so this computes what running the
tokens in slot order and back would, without moving them.
The table starts at zero, so freshly initialized networks compute the
exact same function with the shuffle on or off; what the reordering
changes is what the table MEANS (attend-k-slots-back is "k ranks upwind"
instead of "k raster positions back"), which is the entire mechanism.
The two physics toggles choose data, not code, so the baseline
configuration is literally the same network minus the two mechanisms. `wind_reorder` chooses the
slot orders, read in `train.prepare_arrays` (wind orders or identity)
and in `forward`'s identity default and missing-orders guard;
`elev_bias` chooses whether the terrain penalty table exists, read in
`_attention_tables`. Identity orders rank the patches in raster order,
so the baseline is the wind variant under identity slot orders bit for
bit.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import autodiff as ad
from . import reorder, topo_bias
from .attention import AttentionParams, BiasTables, _attend_parts, bias_tables
from .config import GridSpec, ModelConfig, decode, encode, format_kv, read_kv
from .errors import ConfigError, FormatError, NumericError, ShapeError
from .fields import Field, read_grid, write_atomic, write_grid

# variance of a unit normal truncated to +-2 sigma is 0.773729...; scale
# draws up so the post-truncation variance hits the 1/fan_in target
_TRUNC_VAR = 1.0 - 4.0 * 0.05399096651318806 / 0.9544997361036416
_TRUNC_CORRECTION = 1.0 / math.sqrt(_TRUNC_VAR)


@dataclass
class ParamStore:
    """Named tensors plus the learning-rate group each belongs to."""

    params: dict[str, ad.Tensor]
    groups: dict[str, str]

    def __getitem__(self, name: str) -> ad.Tensor:
        return self.params[name]

    def names(self) -> list[str]:
        return sorted(self.params)

    def tensors(self) -> list[ad.Tensor]:
        return [self.params[k] for k in self.names()]

    def group_of(self, name: str) -> str:
        return self.groups[name]


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Normal draws redrawn until inside +-2 std (deterministic per rng)."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def _slot_coordinates(spec: GridSpec) -> np.ndarray:
    """Normalized (x, y) center of each sequence slot's raster patch."""
    rows, cols = np.divmod(np.arange(spec.n_patches), spec.patches_x)
    x = (cols + 0.5) / spec.patches_x
    y = (rows + 0.5) / spec.patches_y
    return np.stack([x, y], axis=1)


def _param_layout(config: ModelConfig) -> list[tuple[str, str, tuple, np.ndarray | None]]:
    """(name, group, shape, start) of every parameter, in creation order.

    `start` is the starting value, or None for a truncated-normal weight,
    whose fan-in is its first dimension. Makes no random draws, so a
    checkpoint load can take names, shapes and groups from here.
    """
    layout = []

    def add(name, group, value):
        value = np.asarray(value)
        layout.append((name, group, value.shape, value))

    def weight(name, group, fan_in, fan_out):
        layout.append((name, group, (fan_in, fan_out), None))

    weight("patch_embed.w", "patch_embed", config.token_dim, config.d)
    add("patch_embed.b", "patch_embed", np.zeros(config.d))
    add("pos.grid", "pos_embed", _slot_coordinates(config.spec))
    weight("pos.proj", "pos_embed", 2, config.d)
    # relative logit table, one bucket per within-sector rank offset and one
    # for every cross-sector pair; zero start means no contribution until
    # training shapes it
    add("pos.rel", "pos_embed", np.zeros(2 * config.spec.patches_per_sector))
    for i in range(config.layers):
        pre = f"layer{i}"
        add(f"{pre}.ln1.g", "backbone", np.ones(config.d))
        add(f"{pre}.ln1.b", "backbone", np.zeros(config.d))
        for w in ("wq", "wk", "wv", "wo"):
            weight(f"{pre}.attn.{w}", "backbone", config.d, config.d)
        add(f"{pre}.ln2.g", "backbone", np.ones(config.d))
        add(f"{pre}.ln2.b", "backbone", np.zeros(config.d))
        weight(f"{pre}.mlp.w1", "backbone", config.d, config.mlp_hidden)
        add(f"{pre}.mlp.b1", "backbone", np.zeros(config.mlp_hidden))
        weight(f"{pre}.mlp.w2", "backbone", config.mlp_hidden, config.d)
        add(f"{pre}.mlp.b2", "backbone", np.zeros(config.d))
    add("head.ln.g", "head", np.ones(config.d))
    add("head.ln.b", "head", np.zeros(config.d))
    weight("head.w1", "head", config.d, config.head_hidden)
    add("head.b1", "head", np.zeros(config.head_hidden))
    weight("head.w2", "head", config.head_hidden, config.out_dim)
    add("head.b2", "head", np.zeros(config.out_dim))
    add("alpha", "alpha", np.array(topo_bias.ALPHA_INIT))
    return layout


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> ParamStore:
    """Fresh parameters: truncated-normal weights at variance 1/fan_in,
    zero biases, unit norm gains, positional grid at slot coordinates,
    bias scale alpha at its documented starting value."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 3]))
    params: dict[str, ad.Tensor] = {}
    groups: dict[str, str] = {}
    for name, group, shape, start in _param_layout(config):
        if start is None:
            start = _trunc_normal(rng, shape, _TRUNC_CORRECTION / math.sqrt(shape[0]))
        params[name] = ad.parameter(np.asarray(start, dtype=dtype))
        groups[name] = group
    return ParamStore(params, groups)


# ---------------------------------------------------------------------------
# patch <-> token rearrangement
# ---------------------------------------------------------------------------

def patchify(data: np.ndarray, spec: GridSpec) -> np.ndarray:
    """(..., C, H, W) -> (..., N, C*p*p); lossless, channel-major tokens."""
    arr = np.asarray(data)
    batched = arr.ndim == 4
    if not batched:
        arr = arr[None]
    if arr.ndim != 4 or arr.shape[-2:] != (spec.height, spec.width):
        raise ShapeError(f"cannot patchify shape {np.asarray(data).shape} on {spec}")
    b, c, _, _ = arr.shape
    p = spec.patch
    x = arr.reshape(b, c, spec.patches_y, p, spec.patches_x, p)
    x = x.transpose(0, 2, 4, 1, 3, 5)
    tokens = x.reshape(b, spec.n_patches, c * p * p)
    return tokens if batched else tokens[0]


def unpatchify(tokens: np.ndarray, spec: GridSpec, n_channels: int) -> np.ndarray:
    """(B, N, C*p*p) -> (B, C, H, W), the exact inverse of :func:`patchify`
    for a known channel count."""
    arr = np.asarray(tokens)
    p = spec.patch
    if arr.ndim != 3 or arr.shape[-2:] != (spec.n_patches, n_channels * p * p):
        raise ShapeError(f"cannot unpatchify shape {arr.shape} on {spec}")
    b = arr.shape[0]
    x = arr.reshape(b, spec.patches_y, spec.patches_x, n_channels, p, p)
    x = x.transpose(0, 3, 1, 4, 2, 5)
    return x.reshape(b, n_channels, spec.height, spec.width)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

@dataclass
class ForwardResult:
    """Predictions in raster patch order, and the attention maps if asked."""

    tokens: ad.Tensor                          # (B, N, out_dim), raster order
    config: ModelConfig
    attention: list[np.ndarray] = dc_field(default_factory=list)

    def to_grid(self) -> np.ndarray:
        """(B, n_horizons*v_out, H, W) prediction grids."""
        return unpatchify(self.tokens.data, self.config.spec,
                          self.config.n_horizons * self.config.v_out)


def _layer_attention_params(params: ParamStore, i: int, heads: int) -> AttentionParams:
    return AttentionParams(
        params[f"layer{i}.attn.wq"],
        params[f"layer{i}.attn.wk"],
        params[f"layer{i}.attn.wv"],
        params[f"layer{i}.attn.wo"],
        heads,
    )


def forward(
    params: ParamStore,
    config: ModelConfig,
    inputs: np.ndarray,
    elev_patch_m: np.ndarray | None = None,
    orders: np.ndarray | None = None,
    train: bool = False,
    rng: np.random.Generator | None = None,
    collect_attention: bool = False,
) -> ForwardResult:
    """Run the forecaster on a (B, C, H, W) normalized input stack.

    `elev_patch_m` is the per-patch mean elevation in meters, required when
    the elevation bias is enabled. `orders` is a (B, N) int array whose row
    i is sample i's slot -> patch order, required when wind reordering is
    enabled and ignored without it: build each row with
    `reorder.build_permutation` from the physical winds (as
    `train.prepare_arrays` does), since the z-scored wind channels of
    `inputs` point elsewhere. Orders of another shape raise ShapeError, a
    row that is not an integer permutation of 0..N-1, or that moves a
    patch out of its sector, raises DataError (`reorder.check_orders`).

    The slot orders reach only the attention node: the returned tokens,
    and with `collect_attention` every layer's head-averaged (B, N, N) map,
    are in raster patch order, so token i is patch i for every variant.

    A forward that records no tape (`train` off under `autodiff.no_grad`)
    runs the network one sample at a time, so its memory does not grow
    with the batch; the outputs and attention maps are bitwise those of
    the whole-batch pass, which taped forwards keep so that gradient sums
    keep their order.
    """
    arr = np.asarray(inputs)
    spec = config.spec
    if arr.shape[1:] != (config.v_in, spec.height, spec.width):
        raise ShapeError(
            f"input shape {arr.shape}, expected (B, {config.v_in}, {spec.height}, {spec.width})"
        )
    if train and config.dropout > 0.0 and rng is None:
        raise ConfigError("training forward with dropout needs an rng")
    if config.elev_bias and elev_patch_m is None:
        raise ConfigError("elev_bias enabled but no patch elevations supplied")
    b, n = arr.shape[0], spec.n_patches
    if not config.wind_reorder:
        orders = np.tile(np.arange(n), (b, 1))
    elif orders is None:
        raise ConfigError("wind_reorder enabled but no slot orders supplied")
    # shared by every sample: the relative table and the penalty, with what
    # every attention call derives from them, and the positional vectors
    tables = _attention_tables(params, config, elev_patch_m)
    orders = reorder.check_orders(orders, b, tables.layout)
    pos = params["pos.grid"] @ params["pos.proj"]

    def run(rows: slice):
        return _forward_samples(
            params, config, arr[rows], orders[rows], tables, pos,
            train, rng, collect_attention,
        )

    if train or ad.grad_enabled():
        out, attn_maps = run(slice(None))
    else:
        parts = [run(slice(i, i + 1)) for i in range(arr.shape[0])]
        out = ad.Tensor(np.concatenate([o.data for o, _ in parts]))
        attn_maps = [np.concatenate(maps) for maps in zip(*(m for _, m in parts))]
    return ForwardResult(out, config, attn_maps)


def _attention_tables(
    params: ParamStore, config: ModelConfig, elev_patch_m: np.ndarray | None
) -> BiasTables:
    """The attention node's shared bias terms for one forward: `pos.rel`,
    the spec's (K, M) sector layout and the raster terrain penalty (None
    without the elevation bias), laid out keys x queries as the node takes
    it.

    The penalty is `topo_bias.bias_tensor` of the negated elevations, which
    is the queries x keys penalty transposed bit for bit:
    fl(-h_k - (-h_q)) = fl(h_q - h_k).
    """
    penalty = None
    if config.elev_bias:
        flipped = np.negative(np.asarray(elev_patch_m, dtype=np.float64))
        penalty = topo_bias.bias_tensor(flipped, params["alpha"])
    return bias_tables(params["pos.rel"], reorder._sector_layout(config.spec), penalty)


def _forward_samples(
    params: ParamStore,
    config: ModelConfig,
    arr: np.ndarray,
    orders: np.ndarray,
    tables: BiasTables,
    pos: ad.Tensor,
    train: bool,
    rng: np.random.Generator | None,
    collect_attention: bool,
) -> tuple[ad.Tensor, list[np.ndarray]]:
    """Raster-order output tokens and per-layer attention maps of `forward`
    for the samples `arr`, whose slot -> patch orders are the rows of
    `orders`; `tables` are `_attention_tables`' shared bias terms. Every
    variant runs these same operations; the toggles chose the orders and
    the penalty."""
    tokens = patchify(arr, config.spec).astype(params["patch_embed.w"].dtype)
    rate = config.dropout if train else 0.0
    x = _embed(tokens, params["patch_embed.w"], params["patch_embed.b"], pos, rate, rng)

    attn_maps: list[np.ndarray] = []
    for i in range(config.layers):
        x, weights = _attend_parts(
            x, _layer_attention_params(params, i, config.heads), tables, orders,
            (params[f"layer{i}.ln1.g"], params[f"layer{i}.ln1.b"]), rate, rng,
            weights=collect_attention,
        )
        if collect_attention:
            attn_maps.append(weights.data.mean(axis=-3))
        x = _mlp(x, _mlp_weights(params, f"layer{i}.ln2", f"layer{i}.mlp"),
                 residual=True, rate=rate, rng=rng)
        if not np.isfinite(x.data).all():
            raise NumericError(f"non-finite activations after layer {i}")

    out = _mlp(x, _mlp_weights(params, "head.ln", "head"), residual=False)
    if not np.isfinite(out.data).all():
        raise NumericError("non-finite activations in the prediction head")
    return out, attn_maps


def _embed(tokens: np.ndarray, w: ad.Tensor, b: ad.Tensor, pos: ad.Tensor, rate: float,
           rng: np.random.Generator | None) -> ad.Tensor:
    """drop(tokens @ w + b + pos) on (B, N, token_dim) patch tokens as one
    tape node: the patch projection, the (N, d) positional vectors `pos`
    and, at a positive `rate`, dropout with a mask drawn from `rng`.

    The node keeps the tokens and the bool dropout mask. It runs the
    operations of the chain it fuses (the `x @ w + b` node, the `+ pos`
    add, the dropout node) in their order, so the output and every
    gradient carry that chain's bits.
    """
    out = tokens @ w.data + b.data
    out += pos.data
    kept = None
    if rate > 0.0:
        kept = ad.dropout(out, rate, rng, out=out)[1]

    def vjp(g):
        if kept is not None:
            g = ad.dropout_apply(g, kept, rate)
        return (ad.grad_right(tokens, g, w.shape), ad.unbroadcast(g, b.shape),
                ad.unbroadcast(g, pos.shape))

    return ad.Tensor._op(out, (w, b, pos), vjp)


def _mlp_weights(params: ParamStore, norm: str, mlp: str) -> tuple[ad.Tensor, ...]:
    """(gamma, beta, w1, b1, w2, b2) of an MLP node: the layer norm's
    `<norm>.g`, `<norm>.b` and the `<mlp>.w1` ... `<mlp>.b2` weights."""
    names = (f"{norm}.g", f"{norm}.b", f"{mlp}.w1", f"{mlp}.b1", f"{mlp}.w2", f"{mlp}.b2")
    return tuple(params[name] for name in names)


def _mlp(x: ad.Tensor, weights: tuple[ad.Tensor, ...], residual: bool, rate: float = 0.0,
         rng: np.random.Generator | None = None) -> ad.Tensor:
    """LN -> W1 -> GELU -> dropout -> W2 on (..., d) tokens as one tape node.

    `weights` is (gamma, beta, w1, b1, w2, b2). With `residual` the node
    returns x + drop(gelu(LN(x) @ w1 + b1)) @ w2 + b2, a transformer
    layer's MLP; without it drop(...) @ w2 + b2, the prediction head. At a
    positive `rate` the activation is dropped with a mask drawn from `rng`.
    The node keeps its input, the layer norm's row means and 1/std and
    the bool dropout mask. Its backward rebuilds the normalized input from
    the statistics and recomputes the pre-activation LN(x) @ w1 + b1, one
    more (..., d) x (d, hidden) product, then the masked GELU output in
    one chunked pass with the gradient through the GELU, written over the
    recomputed pre-activation. Every step runs the operations of the chain
    of tape nodes it fuses (layer norm, linear, GELU, dropout, `@ w2`, the
    residual add, `+ b2`) in their order, so the output and every gradient
    carry that chain's bits; the input's gradient, g + the layer norm's,
    is a two-term sum, and those commute.
    """
    gamma, beta, w1, b1, w2, b2 = weights
    xd = x.data
    normed, mu, inv = ad.layer_norm(xd, gamma.data, beta.data)
    hidden = ad.gelu(normed @ w1.data + b1.data)
    kept = None
    if rate > 0.0:
        kept = ad.dropout(hidden, rate, rng, out=hidden)[1]
    if residual:
        out = xd + hidden @ w2.data
        out += b2.data
    else:
        out = hidden @ w2.data + b2.data

    def vjp(g):
        xhat = (xd - mu) * inv
        normed = gamma.data * xhat + beta.data
        pre = normed @ w1.data + b1.data
        gact = ad.grad_left(g, w2.data, pre.shape)
        # the GELU output lands over pre, its gradient over gact
        act, gpre = ad.gelu_backward(pre, gact, out=gact, kept=kept, rate=rate, act=pre)
        gw2 = ad.grad_right(act, g, w2.shape)
        gnormed = ad.grad_left(gpre, w1.data, normed.shape)
        gw1, gb1 = ad.grad_right(normed, gpre, w1.shape), ad.unbroadcast(gpre, b1.shape)
        gx, ggamma, gbeta = ad.layer_norm_backward(gnormed, xhat, inv, gamma.data)
        if residual:
            gx += g
        return gx, ggamma, gbeta, gw1, gb1, gw2, ad.unbroadcast(g, b2.shape)

    return ad.Tensor._op(out, (x, *weights), vjp)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _payload_crc(data: np.ndarray) -> str:
    return f"{zlib.crc32(np.ascontiguousarray(data, dtype='<f4')):08x}"


def save_checkpoint(
    path,
    store: ParamStore,
    config: ModelConfig,
    moments: tuple[dict, dict] | None = None,
    extras: dict[str, str] | None = None,
) -> None:
    """A .gfd payload at `path` plus the text sidecar `<path>.txt`.

    The payload has one (1, P) channel per state (`param`, then `adam_m`
    and `adam_v` when moments are given): every tensor flattened and
    concatenated in `store.names()` order. The sidecar holds the `model.*`
    config keys, which fix every name, shape and group, the `state.*` run
    state from `extras`, and `payload.crc32`. Both are written atomically,
    the payload first.
    """
    names = store.names()
    states = {"param": {k: store[k].data for k in names}}
    if moments is not None:
        states["adam_m"], states["adam_v"] = moments
    data = np.stack([np.concatenate([np.ravel(s[k]) for k in names]) for s in states.values()])
    container = Field(
        GridSpec(1, data.shape[-1], 1, 1, 1), tuple(states), data[:, None], ("",) * len(states)
    )
    write_grid(container, path)
    kv = encode(config, "model")
    kv.update((f"state.{k}", v) for k, v in (extras or {}).items())
    kv["payload.crc32"] = _payload_crc(container.data)
    write_atomic(f"{path}.txt", format_kv(kv).encode("utf-8"))


def load_checkpoint(path):
    """Returns (ParamStore, ModelConfig, moments | None, extras dict).

    Names, shapes and groups come from `_param_layout` on the sidecar's
    config, with no random draws. An unreadable sidecar, one line in it
    that is not `key = value`, a `model.*` key it lacks or whose value does
    not make a ModelConfig, a payload that does not fit that config, or
    one whose CRC-32 is not the sidecar's (a torn pair) raises FormatError.
    Keys it has beyond those are ignored.
    """
    sidecar = f"{path}.txt"
    kv = read_kv(sidecar, FormatError)
    extras = {k[len("state."):]: v for k, v in kv.items() if k.startswith("state.")}
    try:
        config = decode(ModelConfig, kv, "model")
    except ConfigError as exc:
        raise FormatError(f"{sidecar}: {exc}") from None
    # decode fills a key left out with its default, which for a toggle is
    # the other variant
    for key in encode(config, "model"):
        if key not in kv:
            raise FormatError(f"{sidecar}: missing key {key!r}")
    layout = _param_layout(config)
    shapes = {name: shape for name, _, shape, _ in layout}
    groups = {name: group for name, group, _, _ in layout}
    names = sorted(shapes)
    sizes = [math.prod(shapes[k]) for k in names]
    container = read_grid(path)
    if (container.channels not in (("param",), ("param", "adam_m", "adam_v"))
            or container.data.shape[1:] != (1, sum(sizes))):
        raise FormatError(f"{path}: payload does not fit its sidecar's model config")
    if kv.get("payload.crc32") != _payload_crc(container.data):
        raise FormatError(f"{path}: payload CRC-32 differs from its sidecar's (torn pair)")
    states = {}
    for state, row in zip(container.channels, container.data[:, 0]):
        chunks = np.split(row, np.cumsum(sizes)[:-1])
        states[state] = {
            k: chunk.reshape(shapes[k]).astype(np.float32) for k, chunk in zip(names, chunks)
        }
    store = ParamStore({k: ad.parameter(v) for k, v in states["param"].items()}, groups)
    moments = (states["adam_m"], states["adam_v"]) if "adam_m" in states else None
    return store, config, moments, extras
