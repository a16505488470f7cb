"""Conditioned Gaussian mixtures with exact densities and scores.

A mixture component's label is the most specific condition that reaches it: a
condition reaches every component whose label holds all of its flags, so the
unconditional density uses every component, the image-conditional density the
image-only and joint ones, and so on. Sub-mixture selection, densities, scores,
and the forward-diffusion pushforward are all closed form. All density work
happens in log space so far-tail queries stay well behaved: `FrozenMixture`
holds the one log-sum-exp reduction over components that every density goes
through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (ConfigError, array, choice, expect, get, items, known_fields, load_json,
                     number)
from .schedule import NoiseSchedule


@dataclass(frozen=True)
class Condition:
    """A (text?, image?) conditioning pair; both flags off means unconditioned."""

    text: bool = False
    image: bool = False

    def admits(self, label: Condition) -> bool:
        """Whether this condition reaches a component labeled `label`: the label
        holds every flag this condition sets."""
        return (label.text or not self.text) and (label.image or not self.image)

    def __str__(self) -> str:
        return {(False, False): "(-,-)", (False, True): "(-,I)",
                (True, False): "(y,-)", (True, True): "(y,I)"}[(self.text, self.image)]


UNCONDITIONED = Condition(text=False, image=False)
IMAGE_COND = Condition(text=False, image=True)
TEXT_COND = Condition(text=True, image=False)
FULL_COND = Condition(text=True, image=True)

ALL_CONDITIONS = (UNCONDITIONED, IMAGE_COND, TEXT_COND, FULL_COND)

# The label names of a mixture file and the conditions they stand for.
LABELS = {"unconditional": UNCONDITIONED, "image_only": IMAGE_COND, "text_only": TEXT_COND,
          "both": FULL_COND}


@dataclass(frozen=True, eq=False)
class ConditionedMixture:
    """Gaussian mixture whose components carry condition labels.

    Component k has weight `weights[k]` >= 0, mean `means[k]`, SPD covariance
    `covariances[k]` and label `labels[k]`, the most specific `Condition` that
    reaches it; the arrays are read-only copies of the caller's. A component
    that breaks a rule is named `components[k]`.
    """

    weights: np.ndarray        # (K,)
    means: np.ndarray          # (K, d)
    covariances: np.ndarray    # (K, d, d)
    labels: tuple[Condition, ...]

    def __post_init__(self):
        wts = np.array(self.weights, dtype=float)
        means = np.array(self.means, dtype=float)
        covs = np.array(self.covariances, dtype=float)
        labels = tuple(self.labels)
        size, dim = len(labels), means.shape[1] if means.ndim == 2 else -1
        if (wts.shape, means.shape, covs.shape) != ((size,), (size, dim), (size, dim, dim)):
            raise ValueError(f"{size} labels need weights (K,), means (K, d) and covariances "
                             f"(K, d, d) with K = {size}; got {wts.shape}, {means.shape} "
                             f"and {covs.shape}")
        _first_bad(np.array([not isinstance(lab, Condition) for lab in labels], dtype=bool),
                   "each component needs exactly one condition label")
        _first_bad(~(np.isfinite(wts) & (wts >= 0.0)), "component weight must be finite and >= 0")
        _first_bad(~np.isfinite(means).all(axis=1), "component mean must be finite")
        with np.errstate(over="ignore"):  # entries near the float limit
            close = np.isclose(covs, covs.swapaxes(1, 2), atol=1e-12)
        _first_bad(~close.all(axis=(1, 2)), "covariance must be symmetric")
        for k, cov in enumerate(covs):
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise ConfigError(f"components[{k}]",
                                  "covariance must be positive definite") from None
        expect(wts.sum() > 0.0, "components", "total mixture weight must be positive")
        _set_fields(self, wts, means, covs, labels)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def size(self) -> int:
        return self.weights.size

    def mode_points(self, cond: Condition) -> np.ndarray:
        """Means of the components admitted by `cond` (the labeled modes)."""
        return sub_mixture(self, cond).means


def _first_bad(bad: np.ndarray, message: str) -> None:
    """Refuse the first component flagged in `bad`, naming it."""
    if bad.any():
        raise ConfigError(f"components[{int(np.argmax(bad))}]", message)


def _set_fields(mix, wts, means, covs, labels) -> ConditionedMixture:
    """Store the arrays on `mix`, read-only. A mixture taken from a checked one
    (`sub_mixture`, `noised_mixture`) keeps its rules, so it is stored unchecked."""
    for name, value in (("weights", wts), ("means", means), ("covariances", covs)):
        value.flags.writeable = False
        object.__setattr__(mix, name, value)
    object.__setattr__(mix, "labels", labels)
    return mix


def condition_support(mix: ConditionedMixture, cond: Condition) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the components admitted by `cond` and their renormalized log weights."""
    idx = np.array([k for k, lab in enumerate(mix.labels) if cond.admits(lab)], dtype=int)
    wts = mix.weights[idx]
    if idx.size == 0 or wts.sum() <= 0.0:
        raise ValueError(f"condition has no support: {cond}")
    return idx, _log_weights(wts)


def sub_mixture(mix: ConditionedMixture, cond: Condition) -> ConditionedMixture:
    """The components admitted by `cond`, weights as given (`_log_weights` normalizes)."""
    idx, _ = condition_support(mix, cond)
    return _set_fields(object.__new__(ConditionedMixture), mix.weights[idx], mix.means[idx],
                       mix.covariances[idx], tuple(mix.labels[k] for k in idx))


def _pushforward(ab, means: np.ndarray, covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked components (mu, S) forward-diffused to (sqrt(ab) mu, ab S + (1-ab) I).

    A scalar ab gives (K, d) and (K, d, d); a vector of T levels prepends a T axis.
    """
    ab = np.asarray(ab)[..., None, None]
    scale = ab[..., None]
    return np.sqrt(ab) * means, scale * covs + (1.0 - scale) * np.eye(means.shape[-1])


def noised_mixture(mix: ConditionedMixture, sched: NoiseSchedule, t: int) -> ConditionedMixture:
    """Pushforward of the mixture through forward diffusion at timestep t.

    Weights and labels are preserved.
    """
    means, covs = _pushforward(sched.alpha_bar(t), mix.means, mix.covariances)
    return _set_fields(object.__new__(ConditionedMixture), mix.weights, means, covs, mix.labels)


# ---------------------------------------------------------------------------
# The Gaussian log-density kernel shared by the pure functions, the cached
# oracle and the plots. Parameters are frozen into plain arrays once per
# mixture.
# ---------------------------------------------------------------------------

_LOG_2PI = float(np.log(2.0 * np.pi))
_FLOAT_MAX = float(np.finfo(float).max)


def _log_weights(wts: np.ndarray) -> np.ndarray:
    """Log of the weights normalized to sum to one; zero weights map to -inf."""
    with np.errstate(divide="ignore"):
        return np.where(wts > 0, np.log(np.maximum(wts, 1e-300) / wts.sum()), -np.inf)


class FrozenMixture:
    """Precomputed arrays for fast repeated density/score evaluation.

    Every table keeps its covariance stack (`covs`) and one inverse array
    (`inv`): 1/sigma^2 (..., K) when every covariance is sigma^2 I (`iso`),
    the inverse covariances (..., K, d, d) otherwise. Evaluation accepts one
    point (d,) or a stack (..., d).

    `pushforward` stacks the tables of many noise levels: every array but
    `log_wts` gains a leading level axis, and `evaluate` reads one level
    through its `row` argument, or one level per point of a stack (S, d)
    through an (S,) array of rows. Its default, `...`, reads the whole table,
    which is what an unstacked table needs.
    """

    __slots__ = ("means", "covs", "log_wts", "iso", "inv", "log_norms")

    def __init__(self, mix: ConditionedMixture):
        self._freeze(mix.means, mix.covariances, _log_weights(mix.weights))

    def _freeze(self, means: np.ndarray, covs: np.ndarray, log_wts: np.ndarray) -> None:
        """Store a table, (K, ...) or stacked (T, K, ...), with its inverses and log
        normalizers; it is isotropic when each covariance equals its first diagonal
        entry times the identity."""
        self.means, self.covs, self.log_wts = means, covs, log_wts
        dim = means.shape[-1]
        var = covs[..., 0, 0]
        self.iso = np.array_equal(covs, var[..., None, None] * np.eye(dim))
        if self.iso:
            self.inv = 1.0 / var
            self.log_norms = -0.5 * dim * (_LOG_2PI + np.log(var))
        else:
            sign, logdet = np.linalg.slogdet(covs)
            if np.any(sign <= 0):
                raise ValueError("covariance must be positive definite")
            self.inv = np.linalg.inv(covs)
            self.log_norms = -0.5 * (dim * _LOG_2PI + logdet)

    def pushforward(self, alphas_bar: np.ndarray) -> "FrozenMixture":
        """The tables forward-diffused to each signal level of alphas_bar (T,), stacked
        along a leading axis: row i is the table at alphas_bar[i] (weights kept)."""
        out = object.__new__(FrozenMixture)
        out._freeze(*_pushforward(alphas_bar, self.means, self.covs), self.log_wts)
        return out

    def evaluate(self, z: np.ndarray, row=...) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-component (log N_k(z), mean_k - z) for every component at once, and
        the inverse variances or covariances they used."""
        inv = self.inv[row]
        d = self.means[row] - z[..., None, :]
        if self.iso:
            maha = np.add.reduce(d * d, -1) * inv
        elif d.ndim > 2 and d.shape[-2:] == (1, 2):
            # einsum sums one point's lone 2x2 form pairwise, so each point of a stack is too
            maha = np.add.reduce(np.add.reduce(d[..., :, None] * inv * d[..., None, :], -1), -1)
        elif inv.ndim == 3:  # one table, or one level of a stack
            maha = np.einsum("...kd,kde,...ke->...k", d, inv, d)
        else:  # a level per point
            maha = np.einsum("skd,skde,ske->sk", d, inv, d)
        return self.log_norms[row] - 0.5 * maha, d, inv

    def _shifted_sum(self, z: np.ndarray, log_wts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row of log_wts + log N(z): its max m and s = sum_k exp(logp_k - m).

        The shift is clamped at -float max, so a row that is -inf throughout
        (an infinite point, or a mask over no reachable component) gives
        m = -inf and s = 0 rather than NaN.

        An isotropic table under one weight row is evaluated components first,
        into a (K, ...) array built one coordinate column at a time and reduced
        over its leading axis, so no pass over a stack of points reduces a
        narrow last axis. Below 8 coordinates and 8 components it adds in
        numpy's order for the (..., K, d) form, so the two agree bitwise; from 8
        components up numpy sums pairwise and they may differ in the last bits.
        """
        if self.iso and log_wts.ndim == 1:
            shape = (-1,) + (1,) * (z.ndim - 1)
            logp = np.zeros((log_wts.size,) + z.shape[:-1])
            for c in range(z.shape[-1]):
                diff = self.means[:, c].reshape(shape) - z[..., c]
                logp += diff * diff
            logp *= self.inv.reshape(shape)
            logp *= 0.5
            np.subtract(self.log_norms.reshape(shape), logp, out=logp)
            logp += log_wts.reshape(shape)
            m = np.maximum.reduce(logp)
            logp -= np.maximum(m, -_FLOAT_MAX)
            return m, np.add.reduce(np.exp(logp, out=logp))
        log_n = self.evaluate(z)[0]
        if log_wts.ndim == 2 and z.ndim == 2:  # every weight row at every point: (S, R, K)
            log_n = log_n[:, None, :]
        logp = log_wts + log_n
        m = np.maximum.reduce(logp, axis=-1)
        terms = np.exp(logp - np.maximum(m, -_FLOAT_MAX)[..., None])
        return m, np.add.reduce(terms, axis=-1)

    def log_density(self, z: np.ndarray):
        """Log mixture density m + log s at one point (d,) or a stack (..., d)."""
        m, s = self._shifted_sum(z, self.log_wts)
        with np.errstate(divide="ignore"):  # s = 0 on an all -inf row
            return m + np.log(s)

    def density(self, z: np.ndarray, log_wts: np.ndarray | None = None):
        """Mixture density exp(m) s at one point or a stack of points.

        `log_wts` defaults to the mixture's own weights; masked rows (R, K),
        -inf outside each sub-mixture's support, give R sub-mixture densities
        at one point z, or (S, R) at a stack of points (S, d).
        """
        m, s = self._shifted_sum(z, self.log_wts if log_wts is None else log_wts)
        return np.exp(m) * s

    def masked_score(self, evaluated: tuple[np.ndarray, np.ndarray, np.ndarray], idx,
                     log_wts: np.ndarray) -> np.ndarray:
        """Score of the sub-mixture (idx, log_wts) at the point `evaluated` came from.

        The gradient of the log density is the responsibility-weighted pull
        toward the component means. At a stack of points (S, d) each row is
        contracted on its own, in the same order as one point's.
        """
        log_n, d, inv = evaluated
        if log_n.ndim == 1:
            logp = log_wts + log_n[idx]
            resp = np.exp(logp - np.maximum.reduce(logp))
            resp /= np.add.reduce(resp)
            if self.iso:
                return np.dot(resp * inv[idx], d.take(idx, 0))
            return np.einsum("k,kde,ke->d", resp, inv[idx], d.take(idx, 0))
        # take() keeps the gathered rows C-ordered, as BLAS sees one point's
        logp = log_wts + log_n.take(idx, 1)
        resp = np.exp(logp - np.maximum.reduce(logp, -1, keepdims=True))
        resp /= np.add.reduce(resp, -1, keepdims=True)
        if self.iso:
            return ((resp * inv.take(idx, 1))[:, None, :] @ d.take(idx, 1))[:, 0]
        return np.einsum("sk,skde,ske->sd", resp, inv.take(idx, 1), d.take(idx, 1))

    def score(self, z: np.ndarray) -> np.ndarray:
        every = np.arange(self.log_wts.size)
        return self.masked_score(self.evaluate(z), every, self.log_wts)


def _as_point(mix: ConditionedMixture, z) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (mix.dim,):
        raise ValueError(f"point must have dimension {mix.dim}")
    if not np.all(np.isfinite(z)):
        raise ValueError("point must be finite")
    return z


def mixture_log_density(mix: ConditionedMixture, z) -> float:
    return FrozenMixture(mix).log_density(_as_point(mix, z))


def mixture_density(mix: ConditionedMixture, z) -> float:
    """Weight-normalized mixture density at z."""
    return float(FrozenMixture(mix).density(_as_point(mix, z)))


def mixture_score(mix: ConditionedMixture, z) -> np.ndarray:
    """Gradient of the log mixture density at z."""
    return FrozenMixture(mix).score(_as_point(mix, z))


# ---------------------------------------------------------------------------
# Mixture definition files
# ---------------------------------------------------------------------------

def _component(entry: dict, path: str) -> tuple:
    known_fields(entry, path, ("weight", "mean", "covariance", "label"))
    weight = get(entry, f"{path}.weight", number)
    mean = np.atleast_1d(get(entry, f"{path}.mean", array))
    expect(mean.ndim == 1 and mean.size > 0, f"{path}.mean",
           "expected a non-empty list of numbers")
    covariance = get(entry, f"{path}.covariance", array)
    if covariance.ndim == 0:  # a scalar covariance is isotropic
        covariance = float(covariance) * np.eye(mean.size)
    expect(covariance.shape == (mean.size, mean.size), f"{path}.covariance",
           "covariance shape must match mean dimension")
    return weight, mean, covariance, LABELS[get(entry, f"{path}.label", choice, LABELS)]


def mixture_from_dict(spec: dict) -> ConditionedMixture:
    known_fields(spec, "", ("components",))
    comps = get(spec, "components", items, _component)
    dim = comps[0][1].size
    for k, (_, mean, _, _) in enumerate(comps):
        expect(mean.size == dim, f"components[{k}].mean",
               f"expected {dim} numbers: all components must share the same dimension")
    return ConditionedMixture(*zip(*comps))


def load_mixture(path) -> ConditionedMixture:
    """The mixture in the file `path` names ('pkg:NAME' for a shipped file)."""
    return mixture_from_dict(load_json(path))


# The toy mixture's image-only mode (the unedited source): the default start of
# a toy descent and of a generated mesh's codes.
START_POINT = (0.5, 1.0)


def toy_mixture() -> ConditionedMixture:
    """The five-mode planar benchmark mixture shipped with the package."""
    return load_mixture("pkg:toy_gmm.json")
