"""JSON model configurations.

The on-disk format mirrors the model constructors: a distribution is an object
with a "family" discriminator, an increment rule an object with a "kind"
discriminator, and a model an object holding "increments" plus optional
"rates" and "label". Unknown keys are rejected so a typo fails loudly instead
of silently reverting to a default.

One schema reads and writes all of it. For each discriminator, a table maps
each value to its constructor and fields; the JSON keys are the constructors'
attribute names. Each field has a kind, which is its reader, and one writer
serves every kind.
"""

from __future__ import annotations

import json

from .distributions import (CompoundIncrement, Degenerate, FiniteDiscrete, Normal, Scaled, ShiftedExponential,
                            TwoPoint, Uniform)
from .models import (ConstantRates, EventModel, ExplicitPrefix, ExplicitRates, IndexedNormal, IndexedTwoPoint, Periodic,
                     PeriodicRates, PrefixThenTail, QuasiPeriodicScaled, RiskModel)

__all__ = ["ConfigError", "model_from_dict", "model_to_dict", "load_model", "dump_model"]


class ConfigError(ValueError):
    """A malformed configuration, carrying the JSON path of the offense; None
    for an error of the command line, which names no position in a config."""

    def __init__(self, message: str, path: str | None = "$"):
        self.path = path
        super().__init__(message if path is None else f"{path}: {message}")


# ---------------------------------------------------------------------------
# field kinds: each is a reader (value, key, path of the enclosing object) ->
# constructor argument; one writer, _dump, serves them all


def _number(v, key: str, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{key!r} must be a number, got {v!r}", path)
    try:
        return float(v)
    except OverflowError:  # an integer literal past the float range
        raise ConfigError(f"{key!r} is out of the float range", path) from None


def _numbers(v, key: str, path: str) -> tuple:
    if not isinstance(v, list):
        raise ConfigError(f"{key!r} must be a list of numbers, got {v!r}", path)
    return tuple(_number(x, f"{key}[{i}]", path) for i, x in enumerate(v))


def _atoms(v, key: str, path: str) -> tuple:
    if not isinstance(v, list) or not all(isinstance(a, list) and len(a) == 2 for a in v):
        raise ConfigError(f"{key!r} must be a list of [value, probability] pairs", path)
    return tuple(_numbers(a, f"{key}[{i}]", path) for i, a in enumerate(v))


def _label(v, key: str, path: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"{key!r} must be a string, got {v!r}", path)
    return v


def _dist(v, key: str, path: str):
    return _build(_DISTRIBUTIONS, v, f"{path}.{key}")


def _dists(v, key: str, path: str) -> tuple:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{key!r} must be a nonempty list of distributions", path)
    return tuple(_build(_DISTRIBUTIONS, x, f"{path}.{key}[{i}]") for i, x in enumerate(v))


def _rule(v, key: str, path: str):
    return _build(_RULES, v, f"{path}.{key}")


def _rates(v, key: str, path: str):
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        v = {"kind": "constant", "rate": v}  # a bare number is a constant rate
    elif not isinstance(v, dict):
        raise ConfigError(f"rates must be an object or a number, got {type(v).__name__}", f"{path}.{key}")
    return _build(_RATES, v, f"{path}.{key}")


# ---------------------------------------------------------------------------
# the schema: for each discriminator value, the constructor and its fields


_WRITERS: dict = {}  # constructor -> (discriminator, its value, fields)


def _entry(cls, fields: dict, optional=(), key: str | None = None, tag: str | None = None) -> tuple:
    """(constructor, (key, reader) pairs in its argument order, required keys, allowed keys)"""
    keys = ((key,) if key else ()) + tuple(fields)
    entry = (cls, tuple(fields.items()), tuple(k for k in keys if k not in optional), frozenset(keys))
    _WRITERS[cls] = (key, tag, entry[1])
    return entry


def _table(key: str, noun: str, spec: dict) -> tuple:
    """(discriminator, its noun in diagnostics, {value: entry}) from {value: (constructor, fields, *optional)}"""
    return key, noun, {tag: _entry(cls, fields, optional, key, tag) for tag, (cls, fields, *optional) in spec.items()}


_DISTRIBUTIONS = _table("family", "distribution", {
    "normal": (Normal, {"mean": _number, "variance": _number}),
    "uniform": (Uniform, {"lower": _number, "upper": _number}),
    "two_point": (TwoPoint, {"x1": _number, "p1": _number, "x2": _number}),
    "shifted_exponential": (ShiftedExponential, {"rate": _number, "shift": _number}, "shift"),
    "degenerate": (Degenerate, {"value": _number}),
    "scaled": (Scaled, {"factor": _number, "inner": _dist}),
    "compound": (CompoundIncrement, {"claim": _dist, "premium_rate": _number, "interarrival": _dist}),
    "finite_discrete": (FiniteDiscrete, {"atoms": _atoms}),
})

_RULES = _table("kind", "increments", {
    "explicit": (ExplicitPrefix, {"dists": _dists}),
    "periodic": (Periodic, {"cycle": _dists}),
    "quasi_periodic": (QuasiPeriodicScaled, {"cycle": _dists, "scale": _number}),
    "prefix_tail": (PrefixThenTail, {"prefix": _dists, "tail": _rule}),
    "indexed_normal": (IndexedNormal, {"slope": _number, "intercept": _number}),
    "indexed_two_point": (IndexedTwoPoint, {}),
})

_RATES = _table("kind", "rates", {
    "constant": (ConstantRates, {"rate": _number}),
    "periodic": (PeriodicRates, {"values": _numbers}),
    "explicit": (ExplicitRates, {"values": _numbers}),
})

_RISK = _entry(RiskModel, {"increments": _rule, "rates": _rates, "label": _label}, ("rates", "label"))
_EVENT = _entry(EventModel, {"claim": _rule, "interarrival": _rule, "premium_rate": _rates,
                             "reserve_interest": _rates, "premium_interest": _rates, "label": _label},
                ("premium_rate", "reserve_interest", "premium_interest", "label"))


def _build(table: tuple, d, path: str):
    key, noun, entries = table
    if not isinstance(d, dict):
        raise ConfigError(f"{noun} must be an object, got {type(d).__name__}", path)
    tag = d.get(key)
    if not isinstance(tag, str) or tag not in entries:
        raise ConfigError(f"unknown {noun} {key} {tag!r}", path)
    return _make(entries[tag], d, path)


def _make(entry: tuple, d: dict, path: str):
    """The entry's constructor called on the keys of d; an absent optional key
    takes the constructor's default."""
    cls, fields, required, allowed = entry
    for key in required:
        if key not in d:
            raise ConfigError(f"missing required key {key!r}", path)
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} (allowed: {sorted(allowed)})", path)
    kwargs = {key: read(d[key], key, path) for key, read in fields if key in d}
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(str(e), path) from e


def _dump(value):
    """The JSON form of a model, a rule, a law or one of their attributes."""
    if isinstance(value, (float, int, str)):
        return value
    if isinstance(value, tuple):
        return [_dump(x) for x in value]
    if type(value) not in _WRITERS:
        raise TypeError(f"cannot serialize {value!r}")
    key, tag, fields = _WRITERS[type(value)]
    out = {key: tag} if key else {}
    for name, _ in fields:
        attr = getattr(value, name)
        if name != "label" or attr:  # an empty label is left out
            out[name] = _dump(attr)
    return out


# ---------------------------------------------------------------------------
# models


def _model(d: dict):
    if not isinstance(d, dict):
        raise ConfigError(f"model must be an object, got {type(d).__name__}")
    return _make(_EVENT if "claim" in d else _RISK, d, "$")


def model_from_dict(d: dict):
    """Build a RiskModel (or EventModel, when claim-level keys appear)."""
    try:
        return _model(d)
    except RecursionError:  # the reader takes a few frames per nesting level
        raise ConfigError("model nests objects too deeply") from None


def model_to_dict(model) -> dict:
    return _dump(model)


def load_model(path: str):
    """Parse a model configuration file; errors carry position diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e.strerror}") from e
    try:
        return _model(json.loads(raw))
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON in {path}: {e.msg} at line {e.lineno} column {e.colno}") from e
    except RecursionError:
        raise ConfigError(f"{path} nests objects too deeply") from None


def dump_model(model, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=False)
        fh.write("\n")
