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
    ALL_CONDITIONS,
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
    ab = sched.alpha_bar(t)
    return np.sqrt(ab) * z + np.sqrt(1.0 - ab) * eps


def predict_noise(mix: ConditionedMixture, sched: NoiseSchedule, z_t, t: int,
                  cond: Condition) -> np.ndarray:
    """Oracle noise prediction: -sigma_t times the noised sub-mixture score."""
    target = noised_mixture(sub_mixture(mix, cond), sched, t)
    return -sched.sigma(t) * mixture_score(target, z_t)


class NoiseOracle:
    """Cached noise predictions and raw conditional densities for one mixture.

    With ``noising=False`` the forward pushforward is skipped and scores come
    from the raw conditional mixtures (sigma_t still applies); this isolates
    the role of the pushforward in sensitivity studies.
    """

    def __init__(self, mix: ConditionedMixture, sched: NoiseSchedule, noising: bool = True):
        self.mixture = mix
        self.schedule = sched
        self.noising = bool(noising)
        self._tables: dict[int, FrozenMixture] = {0: FrozenMixture(mix)}
        self._supports: dict[Condition, tuple[np.ndarray, np.ndarray]] = {}
        self._eval_key: tuple[int, bytes] | None = None
        self._eval_val: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return self.mixture.dim

    def _support(self, cond: Condition) -> tuple[np.ndarray, np.ndarray]:
        hit = self._supports.get(cond)
        if hit is None:
            hit = self._supports[cond] = condition_support(self.mixture, cond)
        return hit

    def _table(self, t: int) -> FrozenMixture:
        """Component table at timestep t; t=0 is the raw mixture."""
        hit = self._tables.get(t)
        if hit is None:
            hit = self._tables[t] = self._tables[0].pushforward(self.schedule.alpha_bar(t))
        return hit

    def _evaluate(self, z: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
        key = (t, z.tobytes())
        if key != self._eval_key:
            self._eval_val = self._table(t).evaluate(z)
            self._eval_key = key
        return self._eval_val

    def predict(self, z_t, t: int, cond: Condition) -> np.ndarray:
        """eps_hat(z_t, t, cond); raw mixture score when noising is off."""
        z_t = np.asarray(z_t, dtype=float)
        sigma = self.schedule.sigma(t)
        table_t = t if self.noising else 0
        evaluated = self._evaluate(z_t, table_t)
        idx, log_wts = self._support(cond)
        return -sigma * self._table(table_t).masked_score(evaluated, idx, log_wts)

    def density_bundle(self, z: np.ndarray) -> tuple[float, float, float]:
        """Raw densities (p, p_img, p_full) at z from one component evaluation."""
        log_n, _ = self._evaluate(np.asarray(z, dtype=float), 0)
        out = []
        for cond in (UNCONDITIONED, IMAGE_COND, FULL_COND):
            idx, log_wts = self._support(cond)
            logp = log_wts + log_n[idx]
            m = logp.max()
            if m == -np.inf:  # every term is exp(-inf), e.g. at an infinite point
                out.append(0.0)
            else:
                out.append(float(np.exp(m) * np.exp(logp - m).sum()))
        return tuple(out)

    def available_conditions(self) -> tuple[Condition, ...]:
        out = []
        for cond in ALL_CONDITIONS:
            try:
                self._support(cond)
            except ValueError:
                continue
            out.append(cond)
        return tuple(out)
