"""Closed-form noise predictions standing in for a dual-conditioned denoiser.

The predicted noise at (z_t, t) under a conditioning pair is minus the noise
scale times the score of the noised conditional mixture:

    eps_hat(z_t, t, cond) = -sigma_t * grad log p_t(z_t | cond).

`predict_noise` composes the pure mixture operations. `NoiseOracle` exploits
that noising commutes with sub-mixture selection: all conditional mixtures at
one timestep share the same transformed components and differ only in their
weight masks, so one component evaluation per query point serves every
condition.
"""

from __future__ import annotations

import numpy as np

from .mixtures import (
    Condition,
    ConditionedMixture,
    FULL_COND,
    FrozenMixture,
    IMAGE_COND,
    UNCONDITIONED,
    condition_support,
    mixture_score,
    noised_mixture,
    sub_mixture,
)
from .schedule import NoiseSchedule


def forward_diffuse(z, t: int, eps, sched: NoiseSchedule) -> np.ndarray:
    """Forward-diffused point sqrt(ab_t) z + sqrt(1 - ab_t) eps."""
    z = np.asarray(z, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if eps.shape != z.shape:
        raise ValueError("noise sample must match the point's dimension")
    i = sched.index(t)
    return sched.sqrt_alphas_bar[i] * z + sched.sigmas[i] * eps


def predict_noise(mix: ConditionedMixture, sched: NoiseSchedule, z_t, t: int,
                  cond: Condition) -> np.ndarray:
    """Oracle noise prediction: -sigma_t times the noised sub-mixture score."""
    target = noised_mixture(sub_mixture(mix, cond), sched, t)
    return -sched.sigma(t) * mixture_score(target, z_t)


class NoiseOracle:
    """Cached noise predictions and raw conditional densities for one mixture.

    The oracle builds the forward-diffused component tables of every timestep
    once, as one `FrozenMixture.pushforward` stack over the schedule's
    alphas_bar: means (T, K, d), covariances (T, K, d, d), inverse variances
    (T, K) for an isotropic mixture or inverse covariances (T, K, d, d) for
    any other, and log normalizers (T, K). A prediction at t reads row t - 1;
    one at a stack of points (S, d) with timesteps (S,) reads row t_s - 1 for
    point s, and each of its rows equals that point's own prediction bitwise.
    It evaluates the components once per (t, z_t), shared by every condition
    queried there, and hands each condition's support indices and
    renormalized log weights to `FrozenMixture.masked_score`. Raw densities
    of the unconditional, image and full conditions come from one
    `FrozenMixture.density` call on a (3, K) log-weight matrix, -inf outside
    each condition's support, built on first use (a mixture may lack a
    condition it is never asked about).
    """

    def __init__(self, mix: ConditionedMixture, sched: NoiseSchedule):
        self.mixture = mix
        self.schedule = sched
        self._base = FrozenMixture(mix)
        self._stack = self._base.pushforward(sched.alphas_bar)
        # Keyed by plain (text, image) tuples: Condition's dataclass __hash__ runs in Python.
        self._supports: dict[tuple[bool, bool], tuple[np.ndarray, np.ndarray]] = {}
        self._density_log_wts: np.ndarray | None = None
        self._eval_key: tuple | None = None
        self._eval_val: tuple[float, tuple] | None = None

    def _support(self, cond: Condition) -> tuple[np.ndarray, np.ndarray]:
        key = (cond.text, cond.image)
        hit = self._supports.get(key)
        if hit is None:
            hit = self._supports[key] = condition_support(self.mixture, cond)
        return hit

    def predict(self, z_t, t, cond: Condition) -> np.ndarray:
        """eps_hat(z_t, t, cond) at a point (d,), or row by row at a stack of points
        (S, d) with timesteps t (S,); ValueError naming a t outside [1, T]."""
        z_t = np.asarray(z_t, dtype=float)
        if z_t.ndim == 1:  # the type too: a bool equals 0 or 1 and must not hit their row
            key = (type(t), t, z_t.tobytes())
        else:
            t = np.asarray(t)
            if t.shape != z_t.shape[:1]:
                raise ValueError(f"a stack of {len(z_t)} points needs {len(z_t)} timesteps, "
                                 f"got shape {t.shape}")
            key = (t.dtype, t.tobytes(), z_t.tobytes())
        if key != self._eval_key:
            row = self.schedule.index(t)  # before the read: row -1 would wrap silently
            neg_sigma = (-self.schedule.sigmas.item(row) if z_t.ndim == 1
                         else -self.schedule.sigmas[row][:, None])
            self._eval_val = neg_sigma, self._stack.evaluate(z_t, row)
            self._eval_key = key
        neg_sigma, evaluated = self._eval_val
        idx, log_wts = self._support(cond)
        return neg_sigma * self._stack.masked_score(evaluated, idx, log_wts)

    def density_bundle(self, z: np.ndarray):
        """Raw densities (p, p_img, p_full) at a point z (d,) from one component
        evaluation, or an (S, 3) array of them at a stack of points (S, d)."""
        log_wts = self._density_log_wts
        if log_wts is None:
            log_wts = np.full((3, self.mixture.size), -np.inf)
            for row, cond in enumerate((UNCONDITIONED, IMAGE_COND, FULL_COND)):
                idx, sub_log_wts = self._support(cond)
                log_wts[row, idx] = sub_log_wts
            self._density_log_wts = log_wts
        z = np.asarray(z, dtype=float)
        densities = self._base.density(z, log_wts)
        return tuple(densities.tolist()) if z.ndim == 1 else densities
