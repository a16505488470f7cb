"""Run configuration files: schema validation, normalization, digests.

Configs are plain JSON; flags mirror keys one-to-one and the file is
authoritative until a flag overrides it. Every output artifact carries the
sha256 digest of the resolved config so reruns are attributable and
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from importlib.resources import files
from pathlib import Path

from .experiments import MeshEditConfig
from .guidance import EstimatorKind, GuidanceWeights, StageThresholds
from .samplers import SamplerKind, TimestepSampler
from .schedule import linear_beta_schedule


class ConfigError(ValueError):
    """Schema violation carrying the offending field path."""

    def __init__(self, path: str, message: str):
        self.field_path = path
        super().__init__(f"{path}: {message}")


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _number(val, path: str, integer=False, minimum=None, maximum=None):
    _expect(isinstance(val, (int, float)) and not isinstance(val, bool), path,
            "expected a number")
    # also rejects NaN and integers beyond the float range
    _expect(abs(val) <= sys.float_info.max, path, "expected a finite number")
    if integer:
        _expect(float(val).is_integer(), path, "expected an integer")
        val = int(val)
    if minimum is not None:
        _expect(val >= minimum, path, f"must be >= {minimum}")
    if maximum is not None:
        _expect(val <= maximum, path, f"must be <= {maximum}")
    return val


def _get_number(cfg: dict, key: str, path: str, default=None, **bounds):
    if key not in cfg:
        _expect(default is not None, f"{path}{key}", "missing required field")
        return default
    return _number(cfg[key], f"{path}{key}", **bounds)


def _get_bool(cfg: dict, key: str, default: bool) -> bool:
    val = cfg.get(key, default)
    _expect(isinstance(val, bool), key, "expected true or false")
    return val


def parse_thresholds(cfg: dict) -> StageThresholds:
    """The config's staging thresholds {"M": small_max, "L": middle_max}."""
    th = cfg.get("thresholds", {})
    _expect(isinstance(th, dict), "thresholds", "expected an object")
    default = StageThresholds()
    small = _get_number(th, "M", "thresholds.", default=default.small_max, integer=True,
                        minimum=1)
    middle = _get_number(th, "L", "thresholds.", default=default.middle_max, integer=True,
                         minimum=2)
    _expect(small < middle, "thresholds.L", "must exceed thresholds.M")
    return StageThresholds(small_max=small, middle_max=middle)


def _parse_weights(cfg: dict) -> GuidanceWeights:
    default = GuidanceWeights()
    return GuidanceWeights(
        omega_t=_get_number(cfg, "omega_t", "", default=default.omega_t, minimum=0.0),
        omega_i=_get_number(cfg, "omega_i", "", default=default.omega_i, minimum=0.0))


def _parse_seeds(cfg: dict) -> tuple[int, ...]:
    if "seeds" in cfg:
        raw_seeds = cfg["seeds"]
        _expect(isinstance(raw_seeds, list) and raw_seeds, "seeds",
                "expected a non-empty list")
        return tuple(_number(s, f"seeds[{i}]", integer=True, minimum=0)
                     for i, s in enumerate(raw_seeds))
    return (_get_number(cfg, "seed", "", default=0, integer=True, minimum=0),)


ESTIMATOR_NAMES = {k.value: k for k in EstimatorKind}
SAMPLER_NAMES = {k.value: k for k in SamplerKind}
# Both commands run on the standard linear-beta schedule; samplers must stay inside it.
SCHEDULE_STEPS = linear_beta_schedule().num_steps


def config_digest(cfg: dict) -> str:
    """sha256 over the canonical JSON encoding of the resolved config."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def default_toy_config() -> dict:
    return json.loads(files("sdse_lab.data").joinpath("toy_default.json").read_text())


def default_mesh_config() -> dict:
    return json.loads(files("sdse_lab.data").joinpath("mesh_default.json").read_text())


@dataclass(frozen=True)
class ToyRunConfig:
    """Resolved toy-run configuration covering one or more (estimator, seed) runs."""

    mixture_path: str
    estimators: tuple[EstimatorKind, ...]
    weights: GuidanceWeights
    sampler_kind: SamplerKind
    t_min: int
    t_max: int
    jitter: float
    thresholds: StageThresholds
    lr: float
    steps: int
    seeds: tuple[int, ...]
    theta0: tuple[float, float]
    noising: bool
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def digest(self) -> str:
        return config_digest(self.raw)

    def sampler(self) -> TimestepSampler:
        return TimestepSampler(kind=self.sampler_kind, t_min=self.t_min,
                               t_max=self.t_max, total_steps=self.steps,
                               jitter=self.jitter)


def parse_toy_config(cfg: dict) -> ToyRunConfig:
    _expect(isinstance(cfg, dict), "", "config must be a JSON object")
    path = str(cfg.get("mixture_path", ""))
    _expect(bool(path), "mixture_path", "missing required field")

    if "estimators" in cfg:
        raw_est = cfg["estimators"]
        _expect(isinstance(raw_est, list) and raw_est, "estimators",
                "expected a non-empty list")
    else:
        _expect("estimator" in cfg, "estimator", "missing required field")
        raw_est = [cfg["estimator"]]
    estimators = []
    for i, name in enumerate(raw_est):
        _expect(isinstance(name, str) and name in ESTIMATOR_NAMES, f"estimators[{i}]",
                f"unknown estimator {name!r}; choices: {sorted(ESTIMATOR_NAMES)}")
        estimators.append(ESTIMATOR_NAMES[name])

    weights = _parse_weights(cfg)

    sampler = cfg.get("sampler", {})
    _expect(isinstance(sampler, dict), "sampler", "expected an object")
    kind_name = sampler.get("kind", "non_increasing")
    _expect(isinstance(kind_name, str) and kind_name in SAMPLER_NAMES, "sampler.kind",
            f"unknown kind {kind_name!r}; choices: {sorted(SAMPLER_NAMES)}")
    t_min = _get_number(sampler, "t_min", "sampler.", default=1, integer=True, minimum=1)
    t_max = _get_number(sampler, "t_max", "sampler.", default=800, integer=True, minimum=1,
                        maximum=SCHEDULE_STEPS)
    _expect(t_min <= t_max, "sampler.t_max", "must be >= sampler.t_min")
    jitter = _get_number(sampler, "jitter", "sampler.", default=0.0, minimum=0.0)
    thresholds = parse_thresholds(cfg)

    lr = _get_number(cfg, "lr", "", default=1e-2, minimum=0.0)
    steps = _get_number(cfg, "steps", "", default=2000, integer=True, minimum=1)
    seeds = _parse_seeds(cfg)

    theta0 = cfg.get("theta0", [0.5, 1.0])
    _expect(isinstance(theta0, list) and len(theta0) == 2, "theta0",
            "expected a 2-element list")
    theta0 = tuple(float(_number(v, f"theta0[{i}]")) for i, v in enumerate(theta0))
    noising = _get_bool(cfg, "noising", True)

    raw = {
        "mixture_path": path, "estimators": [e.value for e in estimators],
        "omega_t": weights.omega_t, "omega_i": weights.omega_i,
        "sampler": {"kind": kind_name, "t_min": t_min, "t_max": t_max, "jitter": jitter},
        "thresholds": {"M": thresholds.small_max, "L": thresholds.middle_max},
        "lr": lr, "steps": steps, "seeds": list(seeds), "theta0": list(theta0),
        "noising": noising,
    }
    return ToyRunConfig(mixture_path=path, estimators=tuple(estimators), weights=weights,
                        sampler_kind=SAMPLER_NAMES[kind_name], t_min=t_min,
                        t_max=t_max, jitter=jitter, thresholds=thresholds,
                        lr=lr, steps=steps, seeds=seeds, theta0=theta0,
                        noising=noising, raw=raw)


@dataclass(frozen=True)
class MeshRunConfig:
    """Resolved mesh-edit configuration: one edit config run per (w1, seed)."""

    mesh_path: str
    mixture_path: str
    profile: str
    w1_values: tuple[float, ...]
    edit: MeshEditConfig       # w1 is set per run from w1_values
    seeds: tuple[int, ...]
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def digest(self) -> str:
        return config_digest(self.raw)


def parse_mesh_config(cfg: dict) -> MeshRunConfig:
    _expect(isinstance(cfg, dict), "", "config must be a JSON object")
    mesh_path = str(cfg.get("mesh_path", ""))
    _expect(bool(mesh_path), "mesh_path", "missing required field")
    mixture_path = str(cfg.get("mixture_path", ""))
    _expect(bool(mixture_path), "mixture_path", "missing required field")
    profile = cfg.get("profile", "head_dominant")
    _expect(profile in ("head_dominant", "body_dominant"), "profile",
            "expected 'head_dominant' or 'body_dominant'")
    default = MeshEditConfig()

    w1 = cfg.get("w1")
    if isinstance(w1, list):
        _expect(bool(w1), "w1", "expected a number or non-empty list")
        w1_values = tuple(float(_number(v, f"w1[{i}]", minimum=0.0))
                          for i, v in enumerate(w1))
    else:
        w1_values = (float(_get_number(cfg, "w1", "", default=default.w1, minimum=0.0)),)

    t_min = _get_number(cfg, "t_min", "", default=default.t_min, integer=True, minimum=1)
    t_max = _get_number(cfg, "t_max", "", default=default.t_max, integer=True, minimum=1,
                        maximum=SCHEDULE_STEPS)
    _expect(t_min <= t_max, "t_max", "must be >= t_min")
    edit = MeshEditConfig(
        steps=_get_number(cfg, "steps", "", default=default.steps, integer=True, minimum=1),
        views_per_step=_get_number(cfg, "views_per_step", "", default=default.views_per_step,
                                   integer=True, minimum=1),
        first_batch=_get_number(cfg, "first_batch", "", default=default.first_batch,
                                integer=True, minimum=1),
        lr=_get_number(cfg, "lr", "", default=default.lr, minimum=0.0),
        w1=w1_values[0], allocator=_get_bool(cfg, "allocator", default.allocator),
        t_min=t_min, t_max=t_max,
        support=_get_number(cfg, "support", "", default=default.support, integer=True,
                            minimum=1),
        threshold_distance=_get_number(cfg, "threshold_distance", "",
                                       default=default.threshold_distance, minimum=0.0),
        weights=_parse_weights(cfg), thresholds=parse_thresholds(cfg))
    seeds = _parse_seeds(cfg)

    raw = {
        "mesh_path": mesh_path, "mixture_path": mixture_path, "profile": profile,
        "w1": list(w1_values), "allocator": edit.allocator, "steps": edit.steps,
        "views_per_step": edit.views_per_step, "first_batch": edit.first_batch,
        "lr": edit.lr, "t_min": t_min, "t_max": t_max, "support": edit.support,
        "threshold_distance": edit.threshold_distance,
        "omega_t": edit.weights.omega_t, "omega_i": edit.weights.omega_i,
        "thresholds": {"M": edit.thresholds.small_max, "L": edit.thresholds.middle_max},
        "seeds": list(seeds),
    }
    return MeshRunConfig(mesh_path=mesh_path, mixture_path=mixture_path, profile=profile,
                         w1_values=w1_values, edit=edit, seeds=seeds, raw=raw)


def load_json(path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError("", f"not valid JSON ({err})") from err
    _expect(isinstance(cfg, dict), "", "config must be a JSON object")
    return cfg


def resolve_data_path(path: str) -> str:
    """Resolve 'pkg:NAME' references to shipped data files, else pass through."""
    if path.startswith("pkg:"):
        return str(files("sdse_lab.data").joinpath(path[4:]))
    return path
