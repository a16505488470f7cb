"""The JSON boundary: readers, shipped inputs, and bad values in any field."""

import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdse_lab.configs import parse_mesh_config, parse_toy_config, resolve_data_path
from sdse_lab.fields import (ConfigError, array, choice, get, items, load_json, number, record,
                             seed_list)
from sdse_lab.guidance import StageThresholds
from sdse_lab.mesh import LatentMesh, load_mesh, mesh_from_dict
from sdse_lab.mixtures import load_mixture, mixture_from_dict
from sdse_lab.samplers import TimestepSampler

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

def test_number_keeps_the_json_type():
    assert number(1, "lr") == 1 and type(number(1, "lr")) is int
    assert type(number(1.0, "lr")) is float
    assert type(number(2.0, "steps", integer=True)) is int
    assert number(10**300, "x") == 10**300


@pytest.mark.parametrize("value,message", [
    (True, "expected a number"), ("1.5", "expected a number"), (None, "expected a number"),
    ([1], "expected a number"), (math.nan, "expected a finite number"),
    (math.inf, "expected a finite number"), (10**400, "expected a finite number"),
])
def test_number_rejects(value, message):
    with pytest.raises(ConfigError, match=f"^x: {message}$"):
        number(value, "x")


def test_number_bounds_and_integers():
    with pytest.raises(ConfigError, match=r"^x: expected an integer$"):
        number(2.5, "x", integer=True)
    with pytest.raises(ConfigError, match=r"^x: must be >= 0$"):
        number(-1, "x", minimum=0)
    with pytest.raises(ConfigError, match=r"^x: must be <= 3$"):
        number(4, "x", maximum=3)


def test_array_names_the_element():
    np.testing.assert_array_equal(array([[1, 2], [3, 4.5]], "codes"), [[1.0, 2.0], [3.0, 4.5]])
    assert array(0.1, "covariance").shape == ()
    with pytest.raises(ConfigError, match=r"^codes\[1\]\[0\]: expected a number$"):
        array([[1, 2], ["1", 2]], "codes")
    with pytest.raises(ConfigError, match=r"^codes: expected nested lists of equal length$"):
        array([[1, 2], [3]], "codes")
    with pytest.raises(ConfigError, match=r"^regions\[0\]: must be <= 9223372036854775807$"):
        array([2**63], "regions", integer=True)
    assert array([0, 2.0], "regions", integer=True).dtype == np.int64


def test_array_bounds_its_nesting_depth():
    def nested(depth):
        value = 1.0
        for _ in range(depth):
            value = [value]
        return value

    assert array(nested(64), "mean").ndim == 64
    for depth in (65, 900):  # 900 levels decode, but would exhaust a recursive reader
        with pytest.raises(ConfigError, match=r"^mean: lists nested deeper than 64$"):
            array(nested(depth), "mean")


def test_get_items_and_choice_name_the_path():
    with pytest.raises(ConfigError, match=r"^init\.params: expected an object$"):
        get([], "init.params.std", number)
    with pytest.raises(ConfigError, match=r"^lr: missing required field$"):
        get({}, "lr", number)
    assert get({}, "lr", number, default=0.5) == 0.5
    with pytest.raises(ConfigError, match=r"^seeds: expected a non-empty list$"):
        items([], "seeds", number)
    with pytest.raises(ConfigError, match=r"^seeds\[1\]: must be >= 0$"):
        items([0, -1], "seeds", number, minimum=0)
    with pytest.raises(ConfigError, match=r"^profile: expected one of \['a', 'b'\], got 'c'$"):
        choice("c", "profile", ("b", "a"))


@pytest.mark.parametrize("seeds, message", [
    ([], "seeds: expected a non-empty list"), (5, "seeds: expected a non-empty list"),
    (None, "seeds: expected a non-empty list"), ("01", "seeds: expected a non-empty list"),
    ({0: 0}, "seeds: expected a non-empty list"), (np.array(3), "seeds: expected a non-empty list"),
    ([0, -1, 0], "seeds[1]: must be >= 0"), ([3, 1, 3], "seeds[2]: repeats seeds[0] (3)"),
    ([2, 2.0], "seeds[1]: repeats seeds[0] (2)"),
], ids=["empty", "int", "none", "string", "dict", "0-d-array", "negative-before-repeat",
        "repeat", "repeat-as-float"])
def test_seed_list_is_one_rule_for_configs_and_callers(seeds, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        seed_list(seeds)


def test_seed_list_reads_sequences_as_ints():
    for seeds in ([3, 0.0], (3, 0), range(3, -1, -3), np.array([3, 0])):
        got = seed_list(seeds)
        assert got == [3, 0] and [type(s) for s in got] == [int, int]


THRESHOLD_KEYS = {"M": "small_max", "L": "middle_max"}


def test_record_builds_through_the_key_map():
    assert record(StageThresholds, {"M": 100.0}, "thresholds", THRESHOLD_KEYS,
                  middle_max=700) == StageThresholds(100, 700)
    assert record(StageThresholds, {"L": 900}, "thresholds", THRESHOLD_KEYS,
                  middle_max=700) == StageThresholds(150, 900)


@pytest.mark.parametrize("obj,message", [
    ({"M": 0}, "thresholds.M: must be >= 1"),
    ({"L": "800"}, "thresholds.L: expected a number"),
    ({"M": 800, "L": 150}, "thresholds.L: must exceed thresholds.M"),
    ([], "thresholds: expected an object"),
])
def test_record_names_the_config_path(obj, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as err:
        record(StageThresholds, obj, "thresholds", THRESHOLD_KEYS)
    assert err.value.field_path == message.partition(":")[0]


def test_record_leaves_a_quoted_value_as_given():
    with pytest.raises(ConfigError, match=r"^sampler\.kind: expected one of \['non_increasing', "
                                          r"'uniform'\], got 't_min'$"):
        record(TimestepSampler, {"kind": "t_min"}, "sampler",
               {"kind": "kind", "t_min": "t_min"}, t_min=1, t_max=5, total_steps=3)


def test_latent_mesh_rejects_non_finite_codes():
    with pytest.raises(ValueError, match="codes must be finite"):
        LatentMesh(edges=((0, 1),), codes=[[0.0], [np.nan]], regions=[0, 0])
    n = 10
    spec = {"vertices": n, "edges": [[i, i + 1] for i in range(n - 1)], "regions": [0] * n,
            "init": {"mode": "gaussian", "params": {"mean": [1e308, 1e308], "std": 1e308}}}
    with pytest.raises(ValueError, match="codes must be finite"):
        mesh_from_dict(spec)


# ---------------------------------------------------------------------------
# shipped inputs
# ---------------------------------------------------------------------------

def parse_config(path):
    cfg = load_json(path)
    resolved = (parse_mesh_config if "mesh_path" in cfg else parse_toy_config)(cfg)
    for key, value in cfg.items():
        if key != "w1":  # a single w1 is normalized to a list
            assert resolved.raw[key] == value and type(resolved.raw[key]) is type(value), key


@pytest.mark.parametrize("path,parse", [
    (ROOT / "configs" / "toy_example.json", parse_config),
    (ROOT / "configs" / "mesh_example.json", parse_config),
    ("pkg:toy_default.json", parse_config),
    ("pkg:mesh_default.json", parse_config),
    ("pkg:toy_gmm.json", load_mixture),
    ("pkg:grid_mesh.json", load_mesh),
    ("pkg:icosphere_mesh.json", load_mesh),
], ids=["toy_example", "mesh_example", "toy_default", "mesh_default", "toy_gmm", "grid_mesh",
        "icosphere_mesh"])
def test_shipped_inputs_parse(path, parse):
    parse(resolve_data_path(str(path)))


@pytest.mark.parametrize("path,digest", [
    ("pkg:toy_default.json", "462b38529ddd786bdb12fac388a5df6018485869b7a57199fef3b5d8afead8a2"),
    (ROOT / "configs" / "toy_example.json",
     "24a55a731cc807b5a1e0ec042f7c396c56844386f22039f2c03aecb0dc8f213f"),
    ("pkg:mesh_default.json", "f1f441f2b7d9cb5289635e89957df3d6f3b085a2c72e78991cd5a7ea7736dcaa"),
    (ROOT / "configs" / "mesh_example.json",
     "4875ccd118d613a7819a5c299e9e7ea05c09ec8973fcabc2e3c998e9d7741539"),
], ids=["toy_default", "toy_example", "mesh_default", "mesh_example"])
def test_shipped_config_digests_are_pinned(path, digest):
    """Every output carries the digest, so a reader change must not move it."""
    cfg = load_json(path)
    assert (parse_mesh_config if "mesh_path" in cfg else parse_toy_config)(cfg).digest == digest


def test_sampler_and_thresholds_digest_is_pinned():
    cfg = parse_toy_config({"mixture_path": "pkg:toy_gmm.json", "estimators": ["m4"],
                            "sampler": {"kind": "uniform", "t_min": 5.0, "t_max": 700.0,
                                        "jitter": 0},
                            "thresholds": {"M": 100.0, "L": 700.0}})
    sampler = cfg.raw["sampler"]
    assert sampler == {"kind": "uniform", "t_min": 5, "t_max": 700, "jitter": 0}
    assert [type(sampler[key]) for key in ("t_min", "t_max", "jitter")] == [int] * 3
    assert cfg.digest == "9cf26854b42c5e12c649b4372a2d3c3d8ea26acd3634f682f8e6cc0f615a7470"


def test_start_point_and_seeds_digest_is_pinned():
    cfg = parse_toy_config({"mixture_path": "pkg:toy_gmm.json", "estimators": ["m4"],
                            "theta0": [1, 2], "seeds": [3.0, 0]})
    assert cfg.raw["theta0"] == [1.0, 2.0] and [type(v) for v in cfg.raw["theta0"]] == [float] * 2
    assert cfg.raw["seeds"] == [3, 0] and [type(v) for v in cfg.raw["seeds"]] == [int] * 2
    assert cfg.digest == "74e737a10a404de8b100e9fa2c82c4a0ea6c04b115f4039dc2a6ed5d7d736b85"


def test_mesh_seeds_and_timestep_range_digest_is_pinned():
    cfg = parse_mesh_config({"mesh_path": "pkg:grid_mesh.json", "mixture_path": "pkg:toy_gmm.json",
                             "seeds": [2.0, 1], "t_min": 3.0, "t_max": 500})
    assert cfg.raw["seeds"] == [2, 1] and [type(v) for v in cfg.raw["seeds"]] == [int] * 2
    assert cfg.raw["t_min"] == 3 and type(cfg.raw["t_min"]) is int
    assert cfg.digest == "b1ab6c30cf024991d513f1c5940207a43f636ccf2504addc29fa681e484a1c08"


# ---------------------------------------------------------------------------
# any value in any field: a result, a ConfigError or a ValueError, nothing else
# ---------------------------------------------------------------------------

TOY = {"mixture_path": "pkg:toy_gmm.json", "estimators": ["m4", "sdse"],
       "omega_t": 7.5, "omega_i": 1.5,
       "sampler": {"kind": "non_increasing", "t_min": 1, "t_max": 800, "jitter": 0.0},
       "thresholds": {"M": 150, "L": 800}, "lr": 0.01, "steps": 8, "seeds": [0, 1],
       "theta0": [0.5, 1.0], "noising": True}
MESH_RUN = {"mesh_path": "pkg:grid_mesh.json", "mixture_path": "pkg:toy_gmm.json",
            "profile": "head_dominant", "w1": [0.0, 300.0], "allocator": True, "steps": 3,
            "views_per_step": 10, "first_batch": 50, "lr": 0.02, "t_min": 1, "t_max": 800,
            "support": 8, "threshold_distance": 0.5, "omega_t": 7.5, "omega_i": 1.5,
            "thresholds": {"M": 150, "L": 800}, "seeds": [0]}
MIXTURE = {"components": [
    {"weight": 0.5, "mean": [0.0, 0.0], "covariance": 0.1, "label": "both"},
    {"weight": 0.5, "mean": [1.0, 1.0], "covariance": [[0.2, 0.0], [0.0, 0.1]],
     "label": "image_only"}]}
MESH = {"vertices": 3, "edges": [[0, 1], [1, 2]], "regions": [0, 0, 1]}
MESH_CODES = {**MESH, "codes": [[0.0, 1.0], [0.5, 1.0], [1.0, 1.0]]}
MESH_GAUSSIAN = {**MESH, "init": {"mode": "gaussian",
                                  "params": {"seed": 1, "mean": [0.5, 1.0], "std": 0.5}}}
MESH_CONSTANT = {**MESH, "init": {"mode": "constant", "params": {"value": [0.5, 1.0]}}}

DELETE = object()
LEAVES = st.one_of(
    st.sampled_from([10**400, -10**400, 2**63, 10**300, 0, -1, 1, 3]),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 0.5, 2.7]),
    st.integers(), st.floats(), st.booleans(), st.none(),
    st.sampled_from(["1.5", "true", "both", "uniform", "gaussian", "head_dominant", ""]),
    st.text(max_size=3))


def json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2)


JSON_VALUES = st.recursive(LEAVES, json_containers, max_leaves=6)


def locations(doc, loc=()):
    """Every place a value sits in `doc`, the root included, as a key path."""
    yield loc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from locations(value, loc + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from locations(value, loc + (i,))


def replaced(doc, loc, value):
    if not loc:
        return None if value is DELETE else value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in loc[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[loc[-1]]
    else:
        parent[loc[-1]] = value
    return doc


BASES = pytest.mark.parametrize("parse,base", [
    (parse_toy_config, TOY), (parse_mesh_config, MESH_RUN), (mixture_from_dict, MIXTURE),
    (mesh_from_dict, MESH_CODES), (mesh_from_dict, MESH_GAUSSIAN),
    (mesh_from_dict, MESH_CONSTANT),
], ids=["toy_config", "mesh_config", "mixture", "mesh_codes", "mesh_gaussian",
        "mesh_constant"])


@BASES
def test_unchanged_bases_parse(parse, base):
    parse(json.loads(json.dumps(base)))


@BASES
@settings(derandomize=True, max_examples=60)
@given(data=st.data())
def test_any_value_in_any_field_fails_at_the_boundary(parse, base, data):
    loc = data.draw(st.sampled_from(list(locations(base))), label="location")
    value = data.draw(JSON_VALUES | st.just(DELETE), label="value")
    doc = replaced(base, loc, value)
    try:
        parse(doc)
    except ValueError:  # ConfigError included
        pass


def test_finite_values_near_the_float_limit_fail_cleanly_or_parse():
    assert parse_toy_config({**TOY, "omega_t": 10**300}).raw["omega_t"] == 10**300
    huge = {"weight": 1.0, "mean": [0.0, 0.0], "covariance": [[1e308, -1e308], [1e308, 1e308]],
            "label": "both"}
    with pytest.raises(ConfigError, match=r"^components\[0\]: covariance must be symmetric$"):
        mixture_from_dict({"components": [huge]})
