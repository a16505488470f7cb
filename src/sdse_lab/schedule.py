"""Forward-diffusion noise schedules.

The schedule is the cumulative signal-retention sequence alpha_bar_1..alpha_bar_T:
a point z diffused to step t is distributed as N(sqrt(alpha_bar_t) z, (1-alpha_bar_t) I).
Timesteps are 1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import number


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Strictly decreasing alpha_bar sequence over timesteps 1..T, with read-only
    sqrt(alpha_bar_t) and noise scales sqrt(1 - alpha_bar_t) indexed alike (t - 1)."""

    alphas_bar: np.ndarray
    sqrt_alphas_bar: np.ndarray = field(init=False, repr=False)
    sigmas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ab = np.asarray(self.alphas_bar, dtype=float)
        if ab.ndim != 1 or ab.size == 0:
            raise ValueError("alphas_bar must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(ab)):
            raise ValueError("alphas_bar must be finite")
        if np.any(ab <= 0.0) or np.any(ab > 1.0):
            raise ValueError("alphas_bar values must lie in (0, 1]")
        if ab.size > 1 and not np.all(np.diff(ab) < 0.0):
            raise ValueError("alphas_bar must be strictly decreasing")
        for name, values in (("alphas_bar", ab.copy()), ("sqrt_alphas_bar", np.sqrt(ab)),
                             ("sigmas", np.sqrt(1.0 - ab))):
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @property
    def num_steps(self) -> int:
        return int(self.alphas_bar.size)

    def index(self, t):
        """Array index t - 1 of timestep t, or of each entry of an integer array of
        timesteps (all checked before any is used); ValueError for a bool, a t that
        is not integral or one outside [1, T]."""
        if type(t) is not int:  # a plain int needs only the range check
            if isinstance(t, np.ndarray):
                if t.dtype.kind not in "iu":
                    raise ValueError(f"timesteps must be an integer array, got {t!r}")
                outside = t[(t < 1) | (t > self.alphas_bar.size)]
                if outside.size:
                    raise ValueError(f"timestep {outside[0]} out of range [1, {self.num_steps}]")
                return t - 1
            if isinstance(t, (bool, np.bool_)) or not float(t).is_integer():
                raise ValueError(f"timestep {t!r} is not an integer")
            t = int(t)
        if not 1 <= t <= self.alphas_bar.size:
            raise ValueError(f"timestep {t} out of range [1, {self.num_steps}]")
        return t - 1

    def alpha_bar(self, t: int) -> float:
        return float(self.alphas_bar[self.index(t)])

    def sigma(self, t: int) -> float:
        """Noise scale sqrt(1 - alpha_bar_t)."""
        return float(self.sigmas[self.index(t)])


def linear_beta_schedule(num_steps: int = 1000) -> NoiseSchedule:
    """Linear-beta schedule; alpha_bar_t is the running product of (1 - beta_s).

    The standard schedule: num_steps betas evenly spaced over [1e-4, 2e-2].
    """
    num_steps = number(num_steps, "num_steps", integer=True, minimum=1)
    return NoiseSchedule(np.cumprod(1.0 - np.linspace(1e-4, 2e-2, num_steps)))
