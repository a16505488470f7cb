"""Boundary rules for every JSON input: run configs, mixture files, mesh files.

A reader takes a decoded JSON value and the path naming it (`sampler.t_max`,
`components[1].mean`, `codes[3][0]`) and returns the value with the type JSON
gave it, or raises a ConfigError reading "<path>: <message>".
"""

from __future__ import annotations

import sys

import numpy as np


class ConfigError(ValueError):
    """Schema violation carrying the offending field path."""

    def __init__(self, path: str, message: str):
        self.field_path = path
        super().__init__(f"{path}: {message}" if path else message)


def expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def get(obj, path: str, read, *args, default=None, **opts):
    """read(obj[key], path, *args, **opts) for the last key of `path`, or `default`
    if given and the key is absent; `obj` must be a JSON object."""
    parent, _, key = path.rpartition(".")
    expect(isinstance(obj, dict), parent, "expected an object")
    if key not in obj:
        expect(default is not None, path, "missing required field")
        return default
    return read(obj[key], path, *args, **opts)


def number(value, path: str, integer: bool = False, minimum=None, maximum=None):
    """A finite JSON number (not a bool) within [minimum, maximum]; an int if `integer`."""
    # plain ifs rather than expect(): array() calls this once per element
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "expected a number")
    if not abs(value) <= sys.float_info.max:  # also NaN and ints beyond the float range
        raise ConfigError(path, "expected a finite number")
    if integer:
        if value % 1:
            raise ConfigError(path, "expected an integer")
        value = int(value)
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError(path, f"must be <= {maximum}")
    return value


def array(value, path: str, integer: bool = False, minimum=None, maximum=None) -> np.ndarray:
    """A number or nested lists of numbers, each read by `number`, as a float
    array (an int64 array if `integer`)."""
    if integer:  # stay within int64
        minimum = -2**63 if minimum is None else max(minimum, -2**63)
        maximum = 2**63 - 1 if maximum is None else min(maximum, 2**63 - 1)

    def read(v, p):
        if isinstance(v, list):
            return [read(item, f"{p}[{i}]") for i, item in enumerate(v)]
        return number(v, p, integer, minimum, maximum)

    nested = read(value, path)
    try:
        return np.array(nested, dtype=int if integer else float)
    except ValueError:  # ragged nesting
        raise ConfigError(path, "expected nested lists of equal length") from None


def items(value, path: str, read, *args, **opts) -> list:
    """A non-empty list whose element i is read as `path[i]`."""
    expect(isinstance(value, list) and len(value) > 0, path, "expected a non-empty list")
    return [read(v, f"{path}[{i}]", *args, **opts) for i, v in enumerate(value)]


def boolean(value, path: str) -> bool:
    expect(isinstance(value, bool), path, "expected true or false")
    return value


def choice(value, path: str, names) -> str:
    """One of `names` (strings)."""
    expect(isinstance(value, str) and value in names, path,
           f"expected one of {sorted(names)}, got {value!r}")
    return value


def text(value, path: str) -> str:
    expect(isinstance(value, str) and value != "", path, "expected a non-empty string")
    return value
