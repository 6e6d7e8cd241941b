"""Flat `section.field = value` text form of the config dataclasses.

One codec serves both string configurations in the package: the CLI's
resolved key/value config (decoded into GridSpec, PhysicsConfig,
ModelConfig and TrainConfig) and the checkpoint sidecar (a ModelConfig
encoded and decoded again). Keys are the dataclass field names under a
section prefix; a nested dataclass field such as `ModelConfig.spec` adds
one more level (`model.spec.height`). Values are parsed by the field's
annotation: bool (`true`/`false`), int, float, str, or a comma-separated
`tuple[T, ...]` of one of those. A value that does not parse, and an
absent key for a field without a default, raise ConfigError naming the key.
"""

from __future__ import annotations

import dataclasses
import typing

from .errors import ConfigError

_EXPECTED = {bool: "true or false", int: "an integer", float: "a number"}


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_format(x) for x in value)
    return str(value)


def _parse(text: str, tp, key: str):
    if typing.get_origin(tp) is tuple:
        item = typing.get_args(tp)[0]
        return tuple(_parse(x, item, key) for x in text.split(",") if x)
    if tp is bool:
        if text.lower() not in ("true", "false"):
            raise ConfigError(f"{key} must be true or false, got {text!r}")
        return text.lower() == "true"
    try:
        return tp(text)
    except ValueError:
        raise ConfigError(f"{key} must be {_EXPECTED.get(tp, tp)}, got {text!r}") from None


def value(cfg: dict[str, str], key: str, tp):
    """One config value parsed as `tp` (a scalar type or `tuple[T, ...]`)."""
    return _parse(cfg[key], tp, key)


def encode(obj, section: str) -> dict[str, str]:
    """Every field of a config dataclass as `section.field` -> text."""
    out: dict[str, str] = {}
    for f in dataclasses.fields(obj):
        key = f"{section}.{f.name}"
        field_value = getattr(obj, f.name)
        if dataclasses.is_dataclass(field_value):
            out.update(encode(field_value, key))
        else:
            out[key] = _format(field_value)
    return out


def decode(cls, kv: dict[str, str], section: str, **given):
    """Build `cls` from `section.*` keys; `given` fields bypass the lookup.

    A key absent from `kv` leaves its field at the dataclass default.
    """
    hints = typing.get_type_hints(cls)
    args = dict(given)
    for f in dataclasses.fields(cls):
        if f.name in args:
            continue
        key = f"{section}.{f.name}"
        tp = hints[f.name]
        if dataclasses.is_dataclass(tp):
            args[f.name] = decode(tp, kv, key)
        elif key in kv:
            args[f.name] = _parse(kv[key], tp, key)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing config key {key!r}")
    return cls(**args)
