"""Guidance assembly and its term decomposition.

The dual-conditioned guided prediction combines unconditional, image-only, and
fully conditioned noise predictions with scales (omega_i, omega_t). Its
residual against the ground-truth noise splits into four terms:

    m1 = eps_img  - eps_uncond          (baseline shift)
    m3 = eps_full - eps_img             (condition divergence)
    m4 = eps_full - epsilon             (full-condition pull)
    m2 = omega_t * m3 + eps_img - epsilon

with the exact identities  residual = (omega_i - 1) m1 + m2  and
m2 = (omega_t - 1) m3 + m4.  The staged editing estimator keeps m2 at middle
timesteps, optionally dropping m3 below the small-timestep threshold, and
refuses large timesteps outright.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fields import expect, number
from .mixtures import FULL_COND, IMAGE_COND, UNCONDITIONED
from .oracle import NoiseOracle


@dataclass(frozen=True)
class GuidanceWeights:
    """Image and text guidance scales (omega_i, omega_t)."""

    omega_t: float = 7.5
    omega_i: float = 1.5

    def __post_init__(self):
        number(self.omega_t, "omega_t", minimum=0.0)
        number(self.omega_i, "omega_i", minimum=0.0)


@dataclass(frozen=True)
class StageThresholds:
    """Timestep staging: small is t <= small_max, middle is small_max < t <= middle_max."""

    small_max: int = 150
    middle_max: int = 800

    def __post_init__(self):
        for name in ("small_max", "middle_max"):
            object.__setattr__(self, name, number(getattr(self, name), name, integer=True,
                                                  minimum=1))
        expect(self.small_max < self.middle_max, "middle_max", "must exceed small_max")


@dataclass(frozen=True)
class TermBundle:
    """The four decomposition terms plus the assembled guidance residual."""

    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    m4: np.ndarray
    cfg_residual: np.ndarray


class EstimatorKind(enum.Enum):
    SDS = "sds"
    SSD = "ssd"
    M1_ONLY = "m1"
    M3_ONLY = "m3"
    M4_ONLY = "m4"
    SDSE = "sdse"
    SDSE_PRIME = "sdse_prime"


# Estimators that exclude large timesteps (t > StageThresholds.middle_max).
STAGED = (EstimatorKind.SDSE, EstimatorKind.SDSE_PRIME)


def check_t_max(t_max: int, num_steps: int, thresholds: StageThresholds, staged: bool,
                path: str) -> None:
    """A run's timestep cap, checked before it draws: a ConfigError at `path` unless
    t_max <= num_steps, and t_max <= middle_max if `staged` (a staged estimator, such as
    the SDSE of a FULL_COND region, runs)."""
    expect(t_max <= num_steps, path, f"must be <= {num_steps}, the schedule's last step")
    expect(not staged or t_max <= thresholds.middle_max, path,
           f"must be <= middle_max ({thresholds.middle_max}) when a staged estimator runs")


def cfg_combine(eps_uncond, eps_img, eps_full, w: GuidanceWeights) -> np.ndarray:
    """Guided noise prediction from the three oracle queries.

    The collapses at unit scales (omega_i = omega_t = 1 giving the full
    prediction, omega_t = 0 giving the image prediction) are exact.
    """
    eps_uncond = np.asarray(eps_uncond, dtype=float)
    eps_img = np.asarray(eps_img, dtype=float)
    eps_full = np.asarray(eps_full, dtype=float)
    if not eps_uncond.shape == eps_img.shape == eps_full.shape:
        raise ValueError("prediction vectors must share one dimension")
    if w.omega_i == 1.0:
        if w.omega_t == 1.0:
            return eps_full.copy()
        if w.omega_t == 0.0:
            return eps_img.copy()
        return eps_img + w.omega_t * (eps_full - eps_img)
    return (eps_uncond + w.omega_i * (eps_img - eps_uncond)
            + w.omega_t * (eps_full - eps_img))


def _integration_term(eps_img, eps_full, epsilon, omega_t: float) -> np.ndarray:
    # Single shared implementation so the staged estimator equals m2 bitwise.
    if omega_t == 1.0:
        return eps_full - epsilon
    return omega_t * (eps_full - eps_img) + eps_img - epsilon


def decompose_terms(eps_uncond, eps_img, eps_full, epsilon,
                    w: GuidanceWeights) -> TermBundle:
    """Split the guidance residual into the four analysis terms."""
    eps_uncond = np.asarray(eps_uncond, dtype=float)
    eps_img = np.asarray(eps_img, dtype=float)
    eps_full = np.asarray(eps_full, dtype=float)
    epsilon = np.asarray(epsilon, dtype=float)
    m1 = eps_img - eps_uncond
    m3 = eps_full - eps_img
    m4 = eps_full - epsilon
    m2 = _integration_term(eps_img, eps_full, epsilon, w.omega_t)
    cfg_residual = cfg_combine(eps_uncond, eps_img, eps_full, w) - epsilon
    return TermBundle(m1=m1, m2=m2, m3=m3, m4=m4, cfg_residual=cfg_residual)


def _refuse_large(t, th: StageThresholds) -> None:
    """The staged estimators' cap: ValueError if t, or any row of a timestep stack,
    lies above middle_max."""
    top = t.max() if isinstance(t, np.ndarray) else t
    if top > th.middle_max:
        raise ValueError(f"large timesteps excluded: t={top} > {th.middle_max}")


def _rows_above(t, bound: int):
    """Which rows lie above bound: True for every row (one timestep is one row),
    False for none, else the (S,) mask of a timestep stack."""
    if not isinstance(t, np.ndarray):
        return bool(t > bound)
    above = t > bound
    return True if above.all() else (above if above.any() else False)


def sdse_residual(oracle: NoiseOracle, z_t, t, epsilon, w: GuidanceWeights,
                  th: StageThresholds = StageThresholds()) -> np.ndarray:
    """Staged editing residual: the condition-integration term m2, middle cap enforced."""
    _refuse_large(t, th)
    epsilon = np.asarray(epsilon, dtype=float)
    eps_i = oracle.predict(z_t, t, IMAGE_COND)
    eps_f = oracle.predict(z_t, t, FULL_COND)
    return _integration_term(eps_i, eps_f, epsilon, w.omega_t)


def term_residual(kind: EstimatorKind, oracle: NoiseOracle, z_t, t, epsilon,
                  w: GuidanceWeights, th: StageThresholds = StageThresholds()) -> np.ndarray:
    """The residual of an estimator, or of a single decomposition term, at (z_t, t).

    - SDS: the guided prediction minus epsilon.
    - SSD: a single-condition split. The joint (text, image) condition plays
      the single condition: a mode-seeking pull eps_full - epsilon, plus
      omega_t (eps_full - eps_uncond), a disengaging term dropped at small
      timesteps (t <= small_max).
    - SDSE: `sdse_residual`, which refuses large timesteps (t > middle_max).
    - SDSE': SDSE with the divergence term dropped at small timesteps, where
      it is the full-condition pull m4.
    - M1, M3, M4: the decomposition term alone.

    At a stack of points (S, d) with timesteps (S,), each row takes its own
    timestep's branch: np.where picks it, and the prediction that only rows
    above small_max need is made only if some row is.
    """
    epsilon = np.asarray(epsilon, dtype=float)
    if kind is EstimatorKind.SDSE:
        return sdse_residual(oracle, z_t, t, epsilon, w, th)
    if kind is EstimatorKind.SDSE_PRIME:
        above = _rows_above(t, th.small_max)
        if above is True:
            return sdse_residual(oracle, z_t, t, epsilon, w, th)
        eps_f = oracle.predict(z_t, t, FULL_COND)
        if above is False:
            return eps_f - epsilon
        _refuse_large(t, th)
        m2 = _integration_term(oracle.predict(z_t, t, IMAGE_COND), eps_f, epsilon, w.omega_t)
        return np.where(above[:, None], m2, eps_f - epsilon)
    if kind is EstimatorKind.M4_ONLY:
        return oracle.predict(z_t, t, FULL_COND) - epsilon
    if kind is EstimatorKind.SDS:
        eps_u = oracle.predict(z_t, t, UNCONDITIONED)
        eps_i = oracle.predict(z_t, t, IMAGE_COND)
        eps_f = oracle.predict(z_t, t, FULL_COND)
        return cfg_combine(eps_u, eps_i, eps_f, w) - epsilon
    if kind is EstimatorKind.SSD:
        eps_f = oracle.predict(z_t, t, FULL_COND)
        res = eps_f - epsilon
        above = _rows_above(t, th.small_max)
        if above is not False and w.omega_t != 0.0:
            wide = res + w.omega_t * (eps_f - oracle.predict(z_t, t, UNCONDITIONED))
            res = wide if above is True else np.where(above[:, None], wide, res)
        return res
    if kind is EstimatorKind.M1_ONLY:
        return oracle.predict(z_t, t, IMAGE_COND) - oracle.predict(z_t, t, UNCONDITIONED)
    if kind is EstimatorKind.M3_ONLY:
        return oracle.predict(z_t, t, FULL_COND) - oracle.predict(z_t, t, IMAGE_COND)
    raise ValueError(f"unknown estimator kind: {kind!r}")
