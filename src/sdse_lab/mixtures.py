"""Conditioned Gaussian mixtures with exact densities and scores.

A mixture's components carry condition labels describing which conditional
distributions they belong to: the unconditional density uses every component,
the image-conditional density uses components reachable with the image
condition, and so on. Sub-mixture selection, densities, scores, and the
forward-diffusion pushforward are all closed form. All density work happens
in log space so far-tail queries stay well behaved: `FrozenMixture` holds the
one log-sum-exp reduction over components that every density goes through.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fields import ConfigError, array, choice, get, items, known_fields, load_json, number
from .schedule import NoiseSchedule


class ConditionLabel(enum.Enum):
    """Which conditional distributions a mixture component belongs to."""

    UNCONDITIONAL = "unconditional"
    IMAGE_ONLY = "image_only"
    TEXT_ONLY = "text_only"
    BOTH = "both"


@dataclass(frozen=True)
class Condition:
    """A (text?, image?) conditioning pair; both flags off means unconditioned."""

    text: bool = False
    image: bool = False

    def admits(self, label: ConditionLabel) -> bool:
        """Membership rule mapping a conditioning pair to admissible labels.

        No conditions -> every component. Image only -> image-only and
        dual-labeled components. Text only -> text-only and dual-labeled.
        Both -> dual-labeled components only.
        """
        if self.text and self.image:
            return label is ConditionLabel.BOTH
        if self.image:
            return label in (ConditionLabel.IMAGE_ONLY, ConditionLabel.BOTH)
        if self.text:
            return label in (ConditionLabel.TEXT_ONLY, ConditionLabel.BOTH)
        return True

    def __str__(self) -> str:
        return {(False, False): "(-,-)", (False, True): "(-,I)",
                (True, False): "(y,-)", (True, True): "(y,I)"}[(self.text, self.image)]


UNCONDITIONED = Condition(text=False, image=False)
IMAGE_COND = Condition(text=False, image=True)
TEXT_COND = Condition(text=True, image=False)
FULL_COND = Condition(text=True, image=True)

ALL_CONDITIONS = (UNCONDITIONED, IMAGE_COND, TEXT_COND, FULL_COND)


@dataclass(frozen=True)
class GaussianComponent:
    """One weighted Gaussian: weight >= 0, SPD covariance."""

    weight: float
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.covariance, dtype=float)
        if cov.ndim == 0:
            cov = float(cov) * np.eye(mean.size)
        if not np.isfinite(self.weight) or self.weight < 0.0:
            raise ValueError("component weight must be finite and >= 0")
        if not np.all(np.isfinite(mean)):
            raise ValueError("component mean must be finite")
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape must match mean dimension")
        with np.errstate(over="ignore"):  # entries near the float limit
            symmetric = np.allclose(cov, cov.T, atol=1e-12)
        if not symmetric:
            raise ValueError("covariance must be symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as err:
            raise ValueError("covariance must be positive definite") from err
        mean = mean.copy()
        cov = cov.copy()
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "weight", float(self.weight))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return int(self.mean.size)


@dataclass(frozen=True)
class ConditionedMixture:
    """Gaussian mixture whose components carry condition labels."""

    components: tuple[tuple[GaussianComponent, ConditionLabel], ...]

    def __post_init__(self):
        comps = tuple((c, lab) for c, lab in self.components)
        if not comps:
            raise ValueError("mixture must have at least one component")
        dim = comps[0][0].dim
        for c, lab in comps:
            if not isinstance(lab, ConditionLabel):
                raise ValueError("each component needs exactly one condition label")
            if c.dim != dim:
                raise ValueError("all components must share the same dimension")
        if sum(c.weight for c, _ in comps) <= 0.0:
            raise ValueError("total mixture weight must be positive")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0][0].dim

    @property
    def size(self) -> int:
        return len(self.components)

    def weights(self) -> np.ndarray:
        return np.array([c.weight for c, _ in self.components])

    def means(self) -> np.ndarray:
        return np.stack([c.mean for c, _ in self.components])

    def covariances(self) -> np.ndarray:
        return np.stack([c.covariance for c, _ in self.components])

    def labels(self) -> tuple[ConditionLabel, ...]:
        return tuple(lab for _, lab in self.components)

    def mode_points(self, cond: Condition) -> np.ndarray:
        """Means of the components admitted by `cond` (the labeled modes)."""
        return sub_mixture(self, cond).means()


def condition_support(mix: ConditionedMixture, cond: Condition) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the components admitted by `cond` and their renormalized log weights."""
    idx = np.array([k for k, lab in enumerate(mix.labels()) if cond.admits(lab)], dtype=int)
    wts = mix.weights()[idx]
    if idx.size == 0 or wts.sum() <= 0.0:
        raise ValueError(f"condition has no support: {cond}")
    return idx, _log_weights(wts)


def sub_mixture(mix: ConditionedMixture, cond: Condition) -> ConditionedMixture:
    """The components admitted by `cond`, weights as given (`_log_weights` normalizes)."""
    idx, _ = condition_support(mix, cond)
    return ConditionedMixture(tuple(mix.components[k] for k in idx))


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
    means, covs = _pushforward(sched.alpha_bar(t), mix.means(), mix.covariances())
    return ConditionedMixture(tuple(
        (GaussianComponent(c.weight, mean, cov), lab)
        for (c, lab), mean, cov in zip(mix.components, means, covs)))


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

    Isotropic components take a diagonal path and keep one variance per
    component (`variances`); any other covariance keeps the stack (`covs`) and
    stored inverses. Evaluation accepts one point (d,) or a stack (..., d).

    `pushforward` stacks the tables of many noise levels: every array but
    `log_wts` gains a leading level axis, and `evaluate` reads one level
    through its `row` argument. Its default, `...`, reads the whole table,
    which is what an unstacked table needs.
    """

    __slots__ = ("means", "covs", "variances", "log_wts", "iso", "inv_vars", "inv_covs",
                 "log_norms", "dim")

    def __init__(self, mix: ConditionedMixture):
        self._freeze(mix.means(), mix.covariances(), _log_weights(mix.weights()))

    def _freeze(self, means: np.ndarray, covs: np.ndarray, log_wts: np.ndarray) -> None:
        self.means, self.log_wts = means, log_wts
        self.dim = means.shape[-1]
        diag = covs[..., np.arange(self.dim), np.arange(self.dim)]
        off = covs - diag[..., None] * np.eye(self.dim)
        self.iso = bool(not off.any() and np.all(diag == diag[..., :1]))
        if self.iso:
            self._isotropic(diag[..., 0])
        else:
            sign, logdet = np.linalg.slogdet(covs)
            if np.any(sign <= 0):
                raise ValueError("covariance must be positive definite")
            self.covs, self.variances = covs, None
            self.inv_vars, self.inv_covs = None, np.linalg.inv(covs)
            self.log_norms = -0.5 * (self.dim * _LOG_2PI + logdet)

    def _isotropic(self, variances: np.ndarray) -> None:
        self.covs, self.variances = None, variances
        self.inv_vars, self.inv_covs = 1.0 / variances, None
        self.log_norms = -0.5 * self.dim * (_LOG_2PI + np.log(variances))

    def pushforward(self, alphas_bar: np.ndarray) -> "FrozenMixture":
        """The tables forward-diffused to each signal level of alphas_bar (T,), stacked
        along a leading axis: row i is the table at alphas_bar[i] (weights kept).

        An isotropic table stays isotropic: its variances are ab s_k + (1 - ab)
        in closed form, the diagonal that _pushforward's covariance stack holds.
        """
        out = object.__new__(FrozenMixture)
        if self.iso:
            ab = np.asarray(alphas_bar)[:, None]
            out.means, out.log_wts = np.sqrt(ab)[..., None] * self.means, self.log_wts
            out.dim, out.iso = self.dim, True
            out._isotropic(ab * self.variances + (1.0 - ab))
        else:
            out._freeze(*_pushforward(alphas_bar, self.means, self.covs), self.log_wts)
        return out

    def evaluate(self, z: np.ndarray, row=...) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-component (log N_k(z), mean_k - z) for every component at once, and
        the inverse variances or covariances they used."""
        inv = (self.inv_vars if self.iso else self.inv_covs)[row]
        d = self.means[row] - z[..., None, :]
        if self.iso:
            maha = np.add.reduce(d * d, -1) * inv
        else:
            maha = np.einsum("...kd,kde,...ke->...k", d, inv, d)
        return self.log_norms[row] - 0.5 * maha, d, inv

    def _shifted_sum(self, z: np.ndarray, log_wts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row of log_wts + log N(z): its max m and s = sum_k exp(logp_k - m).

        The shift is clamped at -float max, so a row that is -inf throughout
        (an infinite point, or a mask over no reachable component) gives
        m = -inf and s = 0 rather than NaN.
        """
        logp = log_wts + self.evaluate(z)[0]
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
        at one point z.
        """
        m, s = self._shifted_sum(z, self.log_wts if log_wts is None else log_wts)
        return np.exp(m) * s

    def masked_score(self, evaluated: tuple[np.ndarray, np.ndarray, np.ndarray], idx,
                     log_wts: np.ndarray) -> np.ndarray:
        """Score of the sub-mixture (idx, log_wts) at the point `evaluated` came from.

        The gradient of the log density is the responsibility-weighted pull
        toward the component means.
        """
        log_n, d, inv = evaluated
        logp = log_wts + log_n[idx]
        resp = np.exp(logp - np.maximum.reduce(logp))
        resp /= np.add.reduce(resp)
        if self.iso:
            return np.dot(resp * inv[idx], d.take(idx, 0))
        return np.einsum("k,kde,ke->d", resp, inv[idx], d.take(idx, 0))

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

def _component(entry: dict, path: str) -> tuple[GaussianComponent, ConditionLabel]:
    known_fields(entry, path, ("weight", "mean", "covariance", "label"))
    weight = get(entry, f"{path}.weight", number)
    mean = get(entry, f"{path}.mean", array)
    covariance = get(entry, f"{path}.covariance", array)
    try:
        # a scalar covariance is isotropic: GaussianComponent expands it
        comp = GaussianComponent(float(weight), mean, covariance)
    except ValueError as err:
        raise ConfigError(path, str(err)) from None
    labels = [lab.value for lab in ConditionLabel]
    return comp, ConditionLabel(get(entry, f"{path}.label", choice, labels))


def mixture_from_dict(spec: dict) -> ConditionedMixture:
    known_fields(spec, "", ("components",))
    return ConditionedMixture(tuple(get(spec, "components", items, _component)))


def load_mixture(path) -> ConditionedMixture:
    """The mixture in the file `path` names ('pkg:NAME' for a shipped file)."""
    return mixture_from_dict(load_json(path))


# The toy mixture's image-only mode (the unedited source): the default start of
# a toy descent and of a generated mesh's codes.
START_POINT = (0.5, 1.0)


def toy_mixture() -> ConditionedMixture:
    """The five-mode planar benchmark mixture shipped with the package."""
    return load_mixture("pkg:toy_gmm.json")
