"""Boundary rules for every JSON input: run configs, mixture files, mesh files.

`load_json` is the one way in: it reads and decodes a file, or raises a
ConfigError naming the file. A reader takes a decoded JSON value and the path
naming it (`sampler.t_max`, `components[1].mean`, `codes[3][0]`) and returns
the value with the type JSON gave it, or raises a ConfigError reading
"<path>: <message>". `known_fields` rejects a key that no reader reads.
"""

from __future__ import annotations

import json
import numbers
import re
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np


class ConfigError(ValueError):
    """Schema violation carrying the offending field path."""

    def __init__(self, path: str, message: str):
        self.field_path = path
        super().__init__(f"{path}: {message}" if path else message)


def expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def resolve_data_path(path) -> str:
    """Resolve 'pkg:NAME' references to shipped data files, else pass through."""
    path = str(path)
    if path.startswith("pkg:"):
        return str(files("sdse_lab.data").joinpath(path[4:]))
    return path


def load_json(path) -> dict:
    """The JSON object in the file `path` names ('pkg:NAME' for a shipped file)."""
    path = str(path)
    try:
        doc = json.loads(Path(resolve_data_path(path)).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(path, "file not found") from None
    except OSError as err:
        raise ConfigError(path, f"cannot read the file ({err.strerror})") from None
    except ValueError as err:  # not JSON, or not UTF-8
        raise ConfigError(path, f"not valid JSON ({err})") from None
    except RecursionError:
        raise ConfigError(path, "not valid JSON (nested too deeply)") from None
    expect(isinstance(doc, dict), path, "config must be a JSON object")
    return doc


def known_fields(doc, path: str, known) -> None:
    """Reject a key of the JSON object `doc` (at `path`) not in `known`: a collection
    of keys, or a dict whose object values check `doc`'s objects under the same keys."""
    expect(isinstance(doc, dict), path, "expected an object")
    for key, value in doc.items():
        where = f"{path}.{key}" if path else key
        expect(key in known, where, "unknown field")
        if isinstance(known, dict) and isinstance(known[key], dict):
            known_fields(value, where, known[key])


def get(obj, path: str, read, *args, default=None, **opts):
    """read(obj[key], path, *args, **opts) for the last key of `path`, or `default`
    if given and the key is absent; `obj` must be a JSON object."""
    parent, _, key = path.rpartition(".")
    expect(isinstance(obj, dict), parent, "expected an object")
    if key not in obj:
        expect(default is not None, path, "missing required field")
        return default
    return read(obj[key], path, *args, **opts)


def record(cls, obj, path: str, keys, **values):
    """cls(**values), given obj[key] as field keys[key] for each key of the JSON object `obj`
    at `path` (`keys`: a dict, or keys named as their fields). A ConfigError names config
    paths: {"L": 1} under "thresholds" reads `thresholds.L: must exceed thresholds.M`."""
    keys = keys if isinstance(keys, dict) else dict(zip(keys, keys))
    expect(isinstance(obj, dict), path, "expected an object")
    where = {name: f"{path}.{key}" if path else key for key, name in keys.items()}
    try:
        return cls(**{**values, **{name: obj[key] for key, name in keys.items() if key in obj}})
    except ConfigError as err:  # each field name outside a quoted value as its config path
        said = re.sub(r"(?<!')\b\w+\b(?!')", lambda m: where.get(m[0], m[0]), str(err))
        raise ConfigError(*said.split(": ", 1)) from None


def number(value, path: str, integer: bool = False, minimum=None, maximum=None):
    """A finite real number (not a bool or numpy bool) within [minimum, maximum]; an
    int if `integer`. Config readers and the Python entry points both read through it."""
    # plain ifs rather than expect(): array() calls this once per element
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
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


def distinct(values, path: str, key=lambda value: value):
    """`values`, the list at `path`; ConfigError on an entry whose key an earlier one has."""
    first: dict = {}
    for i, value in enumerate(values):
        j = first.setdefault(key(value), i)
        expect(j == i, f"{path}[{i}]", f"repeats {path}[{j}] ({key(value)})")
    return values


def seed_list(seeds, path: str = "seeds") -> list[int]:
    """`items` that are distinct integers >= 0, as ints: the seed rule of configs and runners."""
    return distinct(items(seeds, path, number, integer=True, minimum=0), path)


_MAX_DIMS = 64  # numpy's limit on array dimensions


def array(value, path: str, integer: bool = False, minimum=None, maximum=None) -> np.ndarray:
    """A number or nested lists of numbers, each read by `number`, as a float
    array (an int64 array if `integer`)."""
    if integer:  # stay within int64
        minimum = -2**63 if minimum is None else max(minimum, -2**63)
        maximum = 2**63 - 1 if maximum is None else min(maximum, 2**63 - 1)

    def read(v, p, depth):
        if isinstance(v, list):
            if depth == _MAX_DIMS:
                raise ConfigError(path, f"lists nested deeper than {_MAX_DIMS}")
            return [read(item, f"{p}[{i}]", depth + 1) for i, item in enumerate(v)]
        return number(v, p, integer, minimum, maximum)

    nested = read(value, path, 0)
    try:
        return np.array(nested, dtype=int if integer else float)
    except ValueError:  # ragged nesting
        raise ConfigError(path, "expected nested lists of equal length") from None


def items(value, path: str, read, *args, **opts) -> list:
    """A non-empty list (from Python, a tuple, range or 1-D array too), item i read as path[i]."""
    value = value.tolist() if isinstance(value, np.ndarray) else value
    expect(isinstance(value, (list, tuple, range)) and value, path, "expected a non-empty list")
    return [read(v, f"{path}[{i}]", *args, **opts) for i, v in enumerate(value)]


def boolean(value, path: str) -> bool:
    expect(isinstance(value, bool), path, "expected true or false")
    return value


def instance(value, path: str, cls):
    expect(isinstance(value, cls), path, f"expected a {cls.__name__}")
    return value


def choice(value, path: str, names) -> str:
    """One of `names` (strings)."""
    expect(isinstance(value, str) and value in names, path,
           f"expected one of {sorted(names)}, got {value!r}")
    return value


def text(value, path: str) -> str:
    expect(isinstance(value, str) and value != "", path, "expected a non-empty string")
    return value
