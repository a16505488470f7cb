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
from .fields import (boolean, choice, distinct, expect, get, items, known_fields, number,
                     record, seed_list, text)
from .fields import resolve_data_path  # noqa: F401  (imported from here by callers)
from .guidance import STAGED, EstimatorKind, GuidanceWeights, StageThresholds, check_t_max
from .mixtures import START_POINT
from .optimize import start_point
from .samplers import TimestepSampler
from .schedule import linear_beta_schedule


def parse_thresholds(cfg: dict) -> StageThresholds:
    return record(StageThresholds, cfg.get("thresholds", {}), "thresholds",
                  {"M": "small_max", "L": "middle_max"})


ESTIMATOR_NAMES = {k.value: k for k in EstimatorKind}
# Both commands run on the standard linear-beta schedule; samplers must stay inside it.
SCHEDULE_STEPS = linear_beta_schedule().num_steps
# Keys handed to GuidanceWeights and MeshEditConfig as the file gives them; the records
# read them, and run_mesh_edit caps t_max.
WEIGHT_KEYS = ("omega_t", "omega_i")
EDIT_KEYS = ("steps", "views_per_step", "first_batch", "lr", "allocator", "t_min", "t_max",
             "support", "threshold_distance")


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
    timestep_sampler: TimestepSampler
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
        return self.timestep_sampler


def parse_toy_config(cfg: dict) -> ToyRunConfig:
    path = get(cfg, "mixture_path", text)

    names = distinct(get(cfg, "estimators", items, choice, ESTIMATOR_NAMES), "estimators")
    estimators = [ESTIMATOR_NAMES[name] for name in names]

    weights = record(GuidanceWeights, cfg, "", WEIGHT_KEYS)
    steps = get(cfg, "steps", number, default=2000, integer=True, minimum=1)
    thresholds = parse_thresholds(cfg)
    sampler = record(TimestepSampler, cfg.get("sampler", {}), "sampler",
                     ("kind", "t_min", "t_max", "jitter"), kind="non_increasing", t_min=1,
                     t_max=StageThresholds.middle_max, total_steps=steps)
    # cmd_toy writes as it runs, so this reader also checks the run's cap and start point
    check_t_max(sampler.t_max, SCHEDULE_STEPS, thresholds,
                any(e in STAGED for e in estimators), "sampler.t_max")

    lr = get(cfg, "lr", number, default=1e-2, minimum=0.0)
    seeds = tuple(get(cfg, "seeds", seed_list, default=[0]))
    theta0 = tuple(start_point(cfg.get("theta0", START_POINT), 2).tolist())
    # accepted so that existing configs keep parsing; the oracle always noises
    expect(get(cfg, "noising", boolean, default=True), "noising", "must be true")

    raw = {
        "mixture_path": path, "estimators": [e.value for e in estimators],
        "omega_t": weights.omega_t, "omega_i": weights.omega_i,
        "sampler": {"kind": sampler.kind.value, "t_min": sampler.t_min,
                    "t_max": sampler.t_max, "jitter": sampler.jitter},
        "thresholds": {"M": thresholds.small_max, "L": thresholds.middle_max},
        "lr": lr, "steps": steps, "seeds": list(seeds), "theta0": list(theta0),
        "noising": True,
    }
    known_fields(cfg, "", raw)
    return ToyRunConfig(mixture_path=path, estimators=tuple(estimators), weights=weights,
                        timestep_sampler=sampler, thresholds=thresholds, lr=lr, steps=steps,
                        seeds=seeds, theta0=theta0, raw=raw)


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

    w1 = cfg.get("w1", MeshEditConfig.w1)
    if isinstance(w1, list):
        # a repeat is an equal number (0.0, -0.0) or one that writes the same w1_{:g} file
        w1_values = distinct(tuple(float(v) for v in items(w1, "w1", number, minimum=0.0)),
                             "w1", key=lambda v: f"w1_{v + 0.0:g}")
    else:
        w1_values = (float(number(w1, "w1", minimum=0.0)),)

    edit = record(MeshEditConfig, cfg, "", EDIT_KEYS, w1=w1_values[0],
                  weights=record(GuidanceWeights, cfg, "", WEIGHT_KEYS),
                  thresholds=parse_thresholds(cfg))
    seeds = tuple(get(cfg, "seeds", seed_list, default=[0]))

    raw = {
        "mesh_path": mesh_path, "mixture_path": mixture_path, "profile": profile,
        "w1": list(w1_values), **{key: getattr(edit, key) for key in EDIT_KEYS},
        "omega_t": edit.weights.omega_t, "omega_i": edit.weights.omega_i,
        "thresholds": {"M": edit.thresholds.small_max, "L": edit.thresholds.middle_max},
        "seeds": list(seeds),
    }
    known_fields(cfg, "", raw)
    return MeshRunConfig(mesh_path=mesh_path, mixture_path=mixture_path, profile=profile,
                         edits=tuple(replace(edit, w1=w1) for w1 in w1_values),
                         seeds=seeds, raw=raw)
