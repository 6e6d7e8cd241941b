"""End-to-end forecaster over gridded fields.

Pipeline per forward pass: patchify the (normalized) input stack, reorder
patch tokens sector-by-sector along the per-sample wind, embed and add
the positional vectors (per patch, so they ride along with the shuffle),
run L pre-norm transformer layers whose attention logits carry a shared
relative slot-offset table plus the terrain penalty (both permuted or
indexed so entries always refer to the right pair), decode with a
two-layer head that emits every horizon at once, and finally undo the
permutation so predictions land on their original patches.

Because the positional vectors follow their patches and the relative
table starts at zero, freshly initialized networks compute the exact same
function with the shuffle on or off; what the reordering changes is what
the relative table MEANS (attend-k-slots-back is "k ranks upwind" instead
of "k raster positions back"), which is the entire mechanism. The two
physics toggles gate exactly one term each over one shared code path, so
the baseline configuration is literally the same network minus the two
mechanisms.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import autodiff as ad
from . import reorder, topo_bias
from .attention import AttentionParams, _attend_parts
from .config import decode, encode
from .errors import ConfigError, FormatError, NumericError, ShapeError
from .fields import Field, GridSpec, read_grid, write_atomic, write_grid
from .synthdata import INPUT_CHANNELS

# variance of a unit normal truncated to +-2 sigma is 0.773729...; scale
# draws up so the post-truncation variance hits the 1/fan_in target
_TRUNC_VAR = 1.0 - 4.0 * 0.05399096651318806 / 0.9544997361036416
_TRUNC_CORRECTION = 1.0 / math.sqrt(_TRUNC_VAR)

PARAM_GROUPS = ("patch_embed", "pos_embed", "backbone", "head", "alpha")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture plus the two physics toggles (the ablation axes)."""

    spec: GridSpec
    d: int = 64                 # embedding width
    layers: int = 2             # transformer depth L
    heads: int = 4
    mlp_hidden: int = 256
    head_hidden: int = 256
    dropout: float = 0.1
    v_out: int = 1
    n_horizons: int = 4
    wind_reorder: bool = True
    elev_bias: bool = True
    wind_mean: str = "weighted"

    def __post_init__(self):
        if self.d % self.heads:
            raise ConfigError(f"width {self.d} not divisible by {self.heads} heads")
        if self.layers < 0 or self.v_out < 1 or self.n_horizons < 1:
            raise ConfigError("layers must be >= 0; v_out and n_horizons >= 1")

    @property
    def v_in(self) -> int:
        return len(INPUT_CHANNELS)

    @property
    def token_dim(self) -> int:
        return self.v_in * self.spec.patch**2

    @property
    def out_dim(self) -> int:
        return self.n_horizons * self.v_out * self.spec.patch**2


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

    def n_parameters(self) -> int:
        return sum(t.data.size for t in self.params.values())


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


@functools.lru_cache(maxsize=8)
def _relative_slot_index(spec: GridSpec) -> np.ndarray:
    """(N, N) lookup into the relative slot-offset table.

    Entry (i, j) is the within-sector slot-rank difference shifted to
    0..2M-2; pairs in different sectors share the final bucket 2M-1. Under
    wind reordering, slot rank is position along the wind, so the table
    can express "attend upwind neighbors" as one shared pattern.
    """
    layout = reorder._sector_layout(spec)
    n, m = spec.n_patches, spec.patches_per_sector
    ranks = np.empty(n, dtype=np.int64)
    sector_of = np.empty(n, dtype=np.int64)
    for s in range(spec.n_sectors):
        ranks[layout[s]] = np.arange(m)
        sector_of[layout[s]] = s
    idx = ranks[:, None] - ranks[None, :] + (m - 1)
    idx[sector_of[:, None] != sector_of[None, :]] = 2 * m - 1
    return idx


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
    # relative slot-offset logit table; zero start means no contribution
    # until training shapes it
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
    """Exact inverse of :func:`patchify` for a known channel count."""
    arr = np.asarray(tokens)
    batched = arr.ndim == 3
    if not batched:
        arr = arr[None]
    p = spec.patch
    if arr.ndim != 3 or arr.shape[-2:] != (spec.n_patches, n_channels * p * p):
        raise ShapeError(f"cannot unpatchify shape {np.asarray(tokens).shape} on {spec}")
    b = arr.shape[0]
    x = arr.reshape(b, spec.patches_y, spec.patches_x, n_channels, p, p)
    x = x.transpose(0, 3, 1, 4, 2, 5)
    grid = x.reshape(b, n_channels, spec.height, spec.width)
    return grid if batched else grid[0]


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

@dataclass
class ForwardResult:
    """Predictions in slot order plus what is needed to undo the shuffle."""

    tokens: ad.Tensor                          # (B, N, out_dim), slot order
    perms: list[reorder.SectorPermutation]     # one per sample
    config: ModelConfig
    attention: list[np.ndarray] = dc_field(default_factory=list)

    def to_grid(self) -> np.ndarray:
        """(B, n_horizons*v_out, H, W), inverse-permuted to raster order."""
        pred = self.tokens.data
        out = np.empty_like(pred)
        for b, perm in enumerate(self.perms):
            out[b] = reorder.unapply(perm, pred[b])
        return unpatchify(out, self.config.spec, self.config.n_horizons * self.config.v_out)


def _layer_attention_params(params: ParamStore, i: int, heads: int) -> AttentionParams:
    return AttentionParams(
        params[f"layer{i}.attn.wq"],
        params[f"layer{i}.attn.wk"],
        params[f"layer{i}.attn.wv"],
        params[f"layer{i}.attn.wo"],
        heads,
    )


def build_perms(
    config: ModelConfig, u: np.ndarray, v: np.ndarray
) -> list[reorder.SectorPermutation]:
    """Per-sample wind permutations from (B, H, W) wind components.

    Pass winds in physical units: z-scoring with anisotropic statistics
    (which terrain-steered winds have) distorts directions, and the whole
    point of the ordering is to track the real wind.
    """
    return [
        reorder.build_permutation(config.spec, ub, vb, wind_mean=config.wind_mean)
        for ub, vb in zip(u, v)
    ]


def forward(
    params: ParamStore,
    config: ModelConfig,
    inputs: np.ndarray,
    elev_patch_m: np.ndarray | None = None,
    perms: list[reorder.SectorPermutation] | None = None,
    train: bool = False,
    rng: np.random.Generator | None = None,
    collect_attention: bool = False,
) -> ForwardResult:
    """Run the forecaster on a (B, C, H, W) normalized input stack.

    `elev_patch_m` is the per-patch mean elevation in meters, required when
    the elevation bias is enabled. `perms` holds each sample's slot order,
    required when wind reordering is enabled: build it with `build_perms`
    from the physical winds (as `train.prepare_arrays` does), since the
    z-scored wind channels of `inputs` point elsewhere.

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
    if config.wind_reorder and perms is None:
        raise ConfigError("wind_reorder enabled but no slot orders (perms) supplied")

    if not config.wind_reorder:
        perms = [reorder.SectorPermutation.identity(spec)] * arr.shape[0]
    orders = np.stack([p.forward for p in perms])  # (B, N) slot -> patch

    # shared by every sample: the relative slot-offset logits and the
    # per-patch positional vectors
    rel = ad.take(params["pos.rel"], _relative_slot_index(spec))
    pos = params["pos.grid"] @ params["pos.proj"]

    def run(rows: slice):
        return _forward_samples(
            params, config, arr[rows], orders[rows], elev_patch_m, rel, pos,
            train, rng, collect_attention,
        )

    if train or ad.grad_enabled():
        out, attn_maps = run(slice(None))
    else:
        parts = [run(slice(i, i + 1)) for i in range(arr.shape[0])]
        out = ad.Tensor(np.concatenate([o.data for o, _ in parts]))
        attn_maps = [np.concatenate(maps) for maps in zip(*(m for _, m in parts))]
    return ForwardResult(out, list(perms), config, attn_maps)


def _forward_samples(
    params: ParamStore,
    config: ModelConfig,
    arr: np.ndarray,
    orders: np.ndarray,
    elev_patch_m: np.ndarray | None,
    rel: ad.Tensor,
    pos: ad.Tensor,
    train: bool,
    rng: np.random.Generator | None,
    collect_attention: bool,
) -> tuple[ad.Tensor, list[np.ndarray]]:
    """Slot-order output tokens and per-layer attention maps of `forward`
    for the samples `arr`, whose slot -> patch orders are `orders`."""
    spec = config.spec
    tokens_np = patchify(arr, spec).astype(params["patch_embed.w"].dtype)
    if config.wind_reorder:
        tokens_np = np.take_along_axis(tokens_np, orders[..., None], axis=1)

    # relative positional logits live in slot space and are shared by every
    # layer; the terrain penalty (when enabled) rides on the same additive
    # bias input, built per sample in its slot order so entry (i, j) keeps
    # naming the same patch pair, as (B, 1, N, N) to broadcast over heads
    bias = rel
    if config.elev_bias:
        bias = bias + topo_bias.bias_tensor(elev_patch_m, params["alpha"], orders)

    def drop(t):
        return ad.dropout(t, config.dropout, rng) if train else t

    x = ad.as_tensor(tokens_np) @ params["patch_embed.w"] + params["patch_embed.b"]
    # positional vectors are per patch and travel with it through the
    # shuffle; sequence structure is carried by the relative slot table
    if config.wind_reorder:
        pos = ad.take(pos, orders)
    x = drop(x + pos)

    attn_maps: list[np.ndarray] = []
    for i in range(config.layers):
        normed = ad.layer_norm(x, params[f"layer{i}.ln1.g"], params[f"layer{i}.ln1.b"])
        attended, weights = _attend_parts(
            normed, _layer_attention_params(params, i, config.heads), bias=bias
        )
        if collect_attention:
            attn_maps.append(weights.data.mean(axis=-3))
        del weights  # without a tape, nothing else holds this (B, heads, N, N) array
        x = x + drop(attended)
        normed = ad.layer_norm(x, params[f"layer{i}.ln2.g"], params[f"layer{i}.ln2.b"])
        hidden = drop(ad.gelu(normed @ params[f"layer{i}.mlp.w1"] + params[f"layer{i}.mlp.b1"]))
        x = x + hidden @ params[f"layer{i}.mlp.w2"] + params[f"layer{i}.mlp.b2"]
        if not np.isfinite(x.data).all():
            raise NumericError(f"non-finite activations after layer {i}")

    x = ad.layer_norm(x, params["head.ln.g"], params["head.ln.b"])
    hidden = ad.gelu(x @ params["head.w1"] + params["head.b1"])
    out = hidden @ params["head.w2"] + params["head.b2"]
    if not np.isfinite(out.data).all():
        raise NumericError("non-finite activations in the prediction head")
    return out, attn_maps


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
    text = "".join(f"{key} = {value}\n" for key, value in sorted(kv.items()))
    write_atomic(f"{path}.txt", text.encode("utf-8"))


def load_checkpoint(path, dtype=np.float32):
    """Returns (ParamStore, ModelConfig, moments | None, extras dict).

    Names, shapes and groups come from `_param_layout` on the sidecar's
    config, with no random draws. A payload whose length does not fit
    that config, or whose CRC-32 is not the sidecar's (a torn
    payload/sidecar pair), raises FormatError.
    """
    with open(f"{path}.txt", "r", encoding="utf-8") as fh:
        kv = dict(line.rstrip("\n").partition(" = ")[::2] for line in fh)
    extras = {k[len("state."):]: v for k, v in kv.items() if k.startswith("state.")}
    config = decode(ModelConfig, kv, "model")
    layout = _param_layout(config)
    shapes = {name: shape for name, _, shape, _ in layout}
    groups = {name: group for name, group, _, _ in layout}
    names = sorted(shapes)
    sizes = [math.prod(shapes[k]) for k in names]
    container = read_grid(path)
    if (not isinstance(container, Field)
            or container.channels not in (("param",), ("param", "adam_m", "adam_v"))
            or container.data.shape[1:] != (1, sum(sizes))):
        raise FormatError(f"{path}: payload does not fit its sidecar's model config")
    if kv.get("payload.crc32") != _payload_crc(container.data):
        raise FormatError(f"{path}: payload CRC-32 differs from its sidecar's (torn pair)")
    states = {}
    for state, row in zip(container.channels, container.data[:, 0]):
        chunks = np.split(row, np.cumsum(sizes)[:-1])
        states[state] = {
            k: chunk.reshape(shapes[k]).astype(dtype) for k, chunk in zip(names, chunks)
        }
    store = ParamStore({k: ad.parameter(v) for k, v in states["param"].items()}, groups)
    moments = (states["adam_m"], states["adam_v"]) if "adam_m" in states else None
    return store, config, moments, extras
