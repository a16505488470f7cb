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
    any other, and log normalizers (T, K). A prediction at t reads row t - 1.
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
        self._eval_key: tuple[int, bytes] | None = None
        self._eval_val: tuple[float, tuple] | None = None

    def _support(self, cond: Condition) -> tuple[np.ndarray, np.ndarray]:
        key = (cond.text, cond.image)
        hit = self._supports.get(key)
        if hit is None:
            hit = self._supports[key] = condition_support(self.mixture, cond)
        return hit

    def predict(self, z_t, t: int, cond: Condition) -> np.ndarray:
        """eps_hat(z_t, t, cond); ValueError naming t outside [1, T]."""
        z_t = np.asarray(z_t, dtype=float)
        key = (t, z_t.tobytes())
        if key != self._eval_key:
            row = self.schedule.index(t)  # before the read: row -1 would wrap silently
            self._eval_val = -self.schedule.sigmas.item(row), self._stack.evaluate(z_t, row)
            self._eval_key = key
        neg_sigma, evaluated = self._eval_val
        idx, log_wts = self._support(cond)
        return neg_sigma * self._stack.masked_score(evaluated, idx, log_wts)

    def density_bundle(self, z: np.ndarray) -> tuple[float, float, float]:
        """Raw densities (p, p_img, p_full) at z from one component evaluation."""
        log_wts = self._density_log_wts
        if log_wts is None:
            log_wts = np.full((3, self.mixture.size), -np.inf)
            for row, cond in enumerate((UNCONDITIONED, IMAGE_COND, FULL_COND)):
                idx, sub_log_wts = self._support(cond)
                log_wts[row, idx] = sub_log_wts
            self._density_log_wts = log_wts
        return tuple(self._base.density(np.asarray(z, dtype=float), log_wts).tolist())
