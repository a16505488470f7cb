"""Run configuration files: schema validation, normalization, digests.

Configs are plain JSON; flags mirror keys one-to-one and the file is
authoritative until a flag overrides it. Every output artifact carries the
sha256 digest of the resolved config so reruns are attributable and
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from .experiments import PROFILES, MeshEditConfig
from .fields import boolean, choice, expect, get, items, known_fields, number, text
from .fields import resolve_data_path  # noqa: F401  (imported from here by callers)
from .guidance import STAGED, EstimatorKind, GuidanceWeights, StageThresholds
from .mixtures import START_POINT
from .optimize import DIVERGENCE_GUARD, within_guard
from .samplers import SamplerKind, TimestepSampler
from .schedule import linear_beta_schedule
from .views import MAX_VIEW_TOTAL


def parse_thresholds(cfg: dict) -> StageThresholds:
    """The config's staging thresholds {"M": small_max, "L": middle_max}."""
    th = cfg.get("thresholds", {})
    default = StageThresholds()
    small = get(th, "thresholds.M", number, default=default.small_max, integer=True,
                minimum=1)
    middle = get(th, "thresholds.L", number, default=default.middle_max, integer=True,
                 minimum=2)
    expect(small < middle, "thresholds.L", "must exceed thresholds.M")
    return StageThresholds(small_max=small, middle_max=middle)


def _parse_weights(cfg: dict) -> GuidanceWeights:
    default = GuidanceWeights()
    return GuidanceWeights(
        omega_t=get(cfg, "omega_t", number, default=default.omega_t, minimum=0.0),
        omega_i=get(cfg, "omega_i", number, default=default.omega_i, minimum=0.0))


def _distinct(values, path: str, key=lambda value: value):
    """`values`, the list at `path`; ConfigError on an entry whose key an earlier one has."""
    first: dict = {}
    for i, value in enumerate(values):
        j = first.setdefault(key(value), i)
        expect(j == i, f"{path}[{i}]", f"repeats {path}[{j}] ({key(value)})")
    return values


def _parse_seeds(cfg: dict) -> tuple[int, ...]:
    return tuple(_distinct(get(cfg, "seeds", items, number, default=[0], integer=True,
                               minimum=0), "seeds"))


ESTIMATOR_NAMES = {k.value: k for k in EstimatorKind}
SAMPLER_NAMES = {k.value: k for k in SamplerKind}
# Both commands run on the standard linear-beta schedule; samplers must stay inside it.
SCHEDULE_STEPS = linear_beta_schedule().num_steps


def _timestep_range(obj: dict, prefix: str, thresholds: StageThresholds,
                    staged: str) -> tuple[int, int]:
    """[`prefix`t_min, `prefix`t_max] inside the schedule, and within thresholds.L if
    `staged` names what runs staged; the defaults are MeshEditConfig's."""
    t_min = get(obj, f"{prefix}t_min", number, default=MeshEditConfig.t_min, integer=True,
                minimum=1)
    t_max = get(obj, f"{prefix}t_max", number, default=MeshEditConfig.t_max, integer=True,
                minimum=1, maximum=SCHEDULE_STEPS)
    expect(t_min <= t_max, f"{prefix}t_max", f"must be >= {prefix}t_min")
    expect(not staged or t_max <= thresholds.middle_max, f"{prefix}t_max",
           f"must be <= thresholds.L ({thresholds.middle_max}) for {staged}")
    return t_min, t_max


def config_digest(cfg: dict) -> str:
    """sha256 over the canonical JSON encoding of the resolved config."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


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
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def digest(self) -> str:
        return config_digest(self.raw)

    def sampler(self) -> TimestepSampler:
        return TimestepSampler(kind=self.sampler_kind, t_min=self.t_min,
                               t_max=self.t_max, total_steps=self.steps,
                               jitter=self.jitter)


def parse_toy_config(cfg: dict) -> ToyRunConfig:
    path = get(cfg, "mixture_path", text)

    names = _distinct(get(cfg, "estimators", items, choice, ESTIMATOR_NAMES), "estimators")
    estimators = [ESTIMATOR_NAMES[name] for name in names]

    weights = _parse_weights(cfg)

    sampler = cfg.get("sampler", {})
    kind_name = get(sampler, "sampler.kind", choice, SAMPLER_NAMES, default="non_increasing")
    thresholds = parse_thresholds(cfg)
    staged = ", ".join(e.value for e in estimators if e in STAGED)
    t_min, t_max = _timestep_range(sampler, "sampler.", thresholds, staged)
    jitter = get(sampler, "sampler.jitter", number, default=TimestepSampler.jitter,
                 minimum=0.0)

    lr = get(cfg, "lr", number, default=1e-2, minimum=0.0)
    steps = get(cfg, "steps", number, default=2000, integer=True, minimum=1)
    seeds = _parse_seeds(cfg)

    theta0 = get(cfg, "theta0", items, number, default=list(START_POINT))
    expect(len(theta0) == 2, "theta0", "expected a 2-element list")
    theta0 = tuple(float(v) for v in theta0)
    expect(within_guard(theta0), "theta0",
           f"lies beyond the divergence guard: its norm must be <= {DIVERGENCE_GUARD:g}")
    # accepted so that existing configs keep parsing; the oracle always noises
    expect(get(cfg, "noising", boolean, default=True), "noising", "must be true")

    raw = {
        "mixture_path": path, "estimators": [e.value for e in estimators],
        "omega_t": weights.omega_t, "omega_i": weights.omega_i,
        "sampler": {"kind": kind_name, "t_min": t_min, "t_max": t_max, "jitter": jitter},
        "thresholds": {"M": thresholds.small_max, "L": thresholds.middle_max},
        "lr": lr, "steps": steps, "seeds": list(seeds), "theta0": list(theta0),
        "noising": True,
    }
    known_fields(cfg, "", raw)
    return ToyRunConfig(mixture_path=path, estimators=tuple(estimators), weights=weights,
                        sampler_kind=SAMPLER_NAMES[kind_name], t_min=t_min,
                        t_max=t_max, jitter=jitter, thresholds=thresholds,
                        lr=lr, steps=steps, seeds=seeds, theta0=theta0, raw=raw)


@dataclass(frozen=True)
class MeshRunConfig:
    """Resolved mesh-edit configuration: one edit config per w1, each run per seed."""

    mesh_path: str
    mixture_path: str
    profile: str
    edits: tuple[MeshEditConfig, ...]
    seeds: tuple[int, ...]
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def digest(self) -> str:
        return config_digest(self.raw)


def parse_mesh_config(cfg: dict) -> MeshRunConfig:
    mesh_path = get(cfg, "mesh_path", text)
    mixture_path = get(cfg, "mixture_path", text)
    profile = get(cfg, "profile", choice, PROFILES, default="head_dominant")
    default = MeshEditConfig()

    w1 = cfg.get("w1", default.w1)
    if isinstance(w1, list):
        # a repeat is an equal number (0.0, -0.0) or one that writes the same w1_{:g} file
        w1_values = _distinct(tuple(float(v) for v in items(w1, "w1", number, minimum=0.0)),
                              "w1", key=lambda v: f"w1_{v + 0.0:g}")
    else:
        w1_values = (float(number(w1, "w1", minimum=0.0)),)

    thresholds = parse_thresholds(cfg)
    t_min, t_max = _timestep_range(cfg, "", thresholds, "the SDSE mesh edit")
    edit = MeshEditConfig(
        steps=get(cfg, "steps", number, default=default.steps, integer=True, minimum=1),
        views_per_step=get(cfg, "views_per_step", number, default=default.views_per_step,
                           integer=True, minimum=1, maximum=MAX_VIEW_TOTAL),
        first_batch=get(cfg, "first_batch", number, default=default.first_batch,
                        integer=True, minimum=1, maximum=MAX_VIEW_TOTAL),
        lr=get(cfg, "lr", number, default=default.lr, minimum=0.0),
        w1=w1_values[0], allocator=get(cfg, "allocator", boolean, default=default.allocator),
        t_min=t_min, t_max=t_max,
        support=get(cfg, "support", number, default=default.support, integer=True,
                    minimum=1),
        threshold_distance=get(cfg, "threshold_distance", number,
                               default=default.threshold_distance, minimum=0.0),
        weights=_parse_weights(cfg), thresholds=thresholds)
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
    known_fields(cfg, "", raw)
    return MeshRunConfig(mesh_path=mesh_path, mixture_path=mixture_path, profile=profile,
                         edits=tuple(replace(edit, w1=w1) for w1 in w1_values),
                         seeds=seeds, raw=raw)
