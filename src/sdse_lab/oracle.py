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

_FLOAT_MAX = float(np.finfo(float).max)


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

    The oracle keeps, per timestep t, the forward-diffused component table
    (closed form for an isotropic mixture, see `FrozenMixture.pushforward`)
    and, per (t, condition) pair, the operands of a prediction: -sigma_t, the
    support indices and their renormalized log weights, and the supported
    components' inverse (co)variances. A prediction then evaluates the
    components once per (t, z_t), shared by every condition queried there, and
    hands the cached operands to `FrozenMixture.masked_score`. Raw densities of
    the unconditional, image and full conditions come from one (3, K)
    log-weight matrix, -inf outside each condition's support, built on first
    use (a mixture may lack a condition it is never asked about).
    """

    def __init__(self, mix: ConditionedMixture, sched: NoiseSchedule):
        self.mixture = mix
        self.schedule = sched
        self._base = FrozenMixture(mix)
        # sqrt(1 - ab_t) element for element, as NoiseSchedule.sigma computes it
        self._sigmas = np.sqrt(1.0 - sched.alphas_bar).tolist()
        self._tables: dict[int, FrozenMixture] = {}
        self._supports: dict[Condition, tuple[np.ndarray, np.ndarray]] = {}
        self._operands: dict[tuple[int, Condition], tuple] = {}
        self._density_log_wts: np.ndarray | None = None
        self._eval_key: tuple[int, bytes] | None = None
        self._eval_val: tuple[np.ndarray, np.ndarray] | None = None

    def _support(self, cond: Condition) -> tuple[np.ndarray, np.ndarray]:
        hit = self._supports.get(cond)
        if hit is None:
            hit = self._supports[cond] = condition_support(self.mixture, cond)
        return hit

    def _table(self, t: int) -> FrozenMixture:
        """Component table at timestep t; ValueError naming t outside [1, T]."""
        hit = self._tables.get(t)
        if hit is None:
            hit = self._tables[t] = self._base.pushforward(self.schedule.alpha_bar(t))
        return hit

    def _prediction_operands(self, t: int, cond: Condition) -> tuple:
        table = self._table(t)  # validates t before the sigma lookup
        idx, log_wts = self._support(cond)
        return table, -self._sigmas[int(t) - 1], idx, log_wts, table.inverses(idx)

    def predict(self, z_t, t: int, cond: Condition) -> np.ndarray:
        """eps_hat(z_t, t, cond)."""
        z_t = np.asarray(z_t, dtype=float)
        ops = self._operands.get((t, cond))
        if ops is None:
            ops = self._operands[(t, cond)] = self._prediction_operands(t, cond)
        table, neg_sigma, idx, log_wts, inverses = ops
        key = (t, z_t.tobytes())
        if key != self._eval_key:
            self._eval_val = table.evaluate(z_t)
            self._eval_key = key
        return neg_sigma * table.masked_score(self._eval_val, idx, log_wts, inverses)

    def density_bundle(self, z: np.ndarray) -> tuple[float, float, float]:
        """Raw densities (p, p_img, p_full) at z from one component evaluation."""
        log_wts = self._density_log_wts
        if log_wts is None:
            log_wts = np.full((3, self.mixture.size), -np.inf)
            for row, cond in enumerate((UNCONDITIONED, IMAGE_COND, FULL_COND)):
                idx, sub_log_wts = self._support(cond)
                log_wts[row, idx] = sub_log_wts
            self._density_log_wts = log_wts
        logp = log_wts + self._base.evaluate(np.asarray(z, dtype=float))[0]
        m = np.maximum.reduce(logp, axis=1, keepdims=True)
        # A row of -inf (e.g. at an infinite point) is shifted by a finite
        # number instead of itself, so its terms are exp(-inf) = 0, not NaN.
        terms = np.exp(logp - np.maximum(m, -_FLOAT_MAX))
        return tuple((np.exp(m) * np.add.reduce(terms, axis=1, keepdims=True)).ravel().tolist())
