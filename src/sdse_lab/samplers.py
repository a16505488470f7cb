"""Timestep samplers for the optimization loop.

Uniform sampling draws independent integers from [t_min, t_max]. The
non-increasing sampler follows a linear envelope from t_max down to t_min,
optionally jittered by Gaussian noise, with a running minimum so the emitted
sequence never increases.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fields import choice, expect, number


class SamplerKind(enum.Enum):
    UNIFORM = "uniform"
    NON_INCREASING = "non_increasing"


SAMPLER_NAMES = {k.value: k for k in SamplerKind}


@dataclass(frozen=True)
class TimestepSampler:
    kind: SamplerKind  # or its name, as a config file gives it
    t_min: int
    t_max: int
    total_steps: int
    jitter: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, SamplerKind):
            object.__setattr__(self, "kind",
                               SAMPLER_NAMES[choice(self.kind, "kind", SAMPLER_NAMES)])
        for name in ("t_min", "t_max", "total_steps"):  # rng.integers would truncate 1.5
            object.__setattr__(self, name,
                               number(getattr(self, name), name, integer=True, minimum=1))
        expect(self.t_min <= self.t_max, "t_max", "must be >= t_min")
        number(self.jitter, "jitter", minimum=0.0)


def timestep_sequence(sampler: TimestepSampler, rng: np.random.Generator,
                      steps: int | None = None) -> np.ndarray:
    """Full emitted timestep sequence for a run, deterministic given the rng state."""
    n = sampler.total_steps if steps is None else number(steps, "steps", integer=True,
                                                         minimum=1)
    if sampler.kind is SamplerKind.UNIFORM:
        return rng.integers(sampler.t_min, sampler.t_max + 1, size=n).astype(int)
    env = np.linspace(sampler.t_max, sampler.t_min, n)  # [t_max] when n == 1
    if sampler.jitter > 0.0:
        env = env + sampler.jitter * rng.standard_normal(n)
    ts = np.rint(env).astype(int)
    np.clip(ts, sampler.t_min, sampler.t_max, out=ts)
    return np.minimum.accumulate(ts)

