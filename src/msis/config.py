"""The config dataclasses as their own schema: `to_dict` writes one as
JSON values, `from_dict` reads one back, taking exactly the class's fields
and coercing each to its annotated type, or raising ConfigError. Each
class checks its values itself, in `__post_init__`, when it is built."""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing

import numpy as np

from .errors import ConfigError

# what a value of each annotated type must be, for error messages
EXPECTED = {bool: "true or false", int: "a whole number", float: "a finite number",
            str: "a string", tuple: "a list", dict: "an object"}


class ReadOnlyDict(dict):
    """A dict that refuses every edit once built, so a config that checked
    its dict-typed fields in `__post_init__` keeps the values it checked.
    It compares, prints and writes to JSON as a plain dict, and pickles and
    copies by rebuilding itself from its items."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


def check_array_entries(entries: int, what: str) -> None:
    """Reject a config whose `what` needs one float64 array of `entries`
    values, when that array would take more bytes than an intp counts:
    NumPy refuses such a size with its own ValueError."""
    if entries > np.iinfo(np.intp).max // 8:
        raise ConfigError(f"{what} need an array of {entries} values, "
                          f"more than one array can hold")


def to_dict(config) -> dict:
    """JSON values of a config dataclass, tuples as lists, in field order."""
    return json.loads(json.dumps(dataclasses.asdict(config)))


def from_dict(cls, obj, where: str | None = None):
    """An instance of the dataclass cls from JSON values; `where` names the
    object in error messages (default: the class name; "" names each field
    bare)."""
    where = cls.__name__ if where is None else where
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be {EXPECTED[dict]}, got {obj!r}")
    names = [f.name for f in dataclasses.fields(cls)]
    missing = [n for n in names if n not in obj]
    extra = sorted(set(obj) - set(names))
    if missing or extra:
        raise ConfigError(f"{where}: missing fields {missing}, unknown fields {extra}")
    hints = typing.get_type_hints(cls)
    return cls(**{n: _coerce(hints[n], obj[n], f"{where}.{n}".lstrip(".")) for n in names})


def _coerce(tp, value, where: str):
    if dataclasses.is_dataclass(tp):
        return from_dict(tp, value, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType and type(None) in args:  # an optional field, "T | None"
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _coerce(tp, value, where)
    if origin is tuple and isinstance(value, (list, tuple)):
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        if len(value) != len(args):
            raise ConfigError(f"{where} must hold {len(args)} values, got {value!r}")
        return tuple(_coerce(a, v, f"{where}[{i}]")
                     for i, (a, v) in enumerate(zip(args, value)))
    if origin is dict and isinstance(value, dict):
        return {k: _coerce(args[1], v, f"{where}.{k}") for k, v in value.items()}
    number = isinstance(value, (int, float)) and not isinstance(value, bool) \
        and (isinstance(value, int) or math.isfinite(value))
    if tp is float and number:
        return float(value)
    if tp is int and number and value == int(value):
        return int(value)
    if tp in (bool, str) and isinstance(value, tp):
        return value
    raise ConfigError(f"{where} must be {EXPECTED[origin or tp]}, got {value!r}")
