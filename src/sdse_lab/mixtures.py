"""Conditioned Gaussian mixtures with exact densities and scores.

A mixture's components carry condition labels describing which conditional
distributions they belong to: the unconditional density uses every component,
the image-conditional density uses components reachable with the image
condition, and so on. Sub-mixture selection, densities, scores, and the
forward-diffusion pushforward are all closed form. All density work happens
in log space so far-tail queries stay well behaved.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
import numpy as np
from scipy.special import logsumexp

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
        if not np.allclose(cov, cov.T, atol=1e-12):
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


def isotropic_component(weight: float, mean, variance: float) -> GaussianComponent:
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    return GaussianComponent(weight, mean, variance * np.eye(mean.size))


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
    """Renormalized sub-mixture of components admitted by the conditioning pair."""
    idx, _ = condition_support(mix, cond)
    selected = [mix.components[k] for k in idx]
    total = sum(c.weight for c, _ in selected)
    return ConditionedMixture(tuple(
        (GaussianComponent(c.weight / total, c.mean, c.covariance), lab)
        for c, lab in selected))


def _pushforward(ab: float, means: np.ndarray, covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked components (mu, S) forward-diffused to (sqrt(ab) mu, ab S + (1-ab) I)."""
    return np.sqrt(ab) * means, ab * covs + (1.0 - ab) * np.eye(means.shape[-1])


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


def _log_weights(wts: np.ndarray) -> np.ndarray:
    """Log of the weights normalized to sum to one; zero weights map to -inf."""
    with np.errstate(divide="ignore"):
        return np.where(wts > 0, np.log(np.maximum(wts, 1e-300) / wts.sum()), -np.inf)


class FrozenMixture:
    """Precomputed arrays for fast repeated density/score evaluation.

    Isotropic components take a diagonal path; any other covariance uses
    stored inverses. Evaluation accepts one point (d,) or a stack (..., d).
    """

    __slots__ = ("means", "covs", "log_wts", "iso", "inv_vars", "inv_covs", "log_norms", "dim")

    def __init__(self, mix: ConditionedMixture):
        self._freeze(mix.means(), mix.covariances(), _log_weights(mix.weights()))

    def _freeze(self, means: np.ndarray, covs: np.ndarray, log_wts: np.ndarray) -> None:
        self.means, self.covs, self.log_wts = means, covs, log_wts
        self.dim = means.shape[1]
        diag = covs[:, np.arange(self.dim), np.arange(self.dim)]
        off = covs - diag[:, :, None] * np.eye(self.dim)
        self.iso = bool(not off.any() and np.all(diag == diag[:, :1]))
        if self.iso:
            variances = diag[:, 0]
            self.inv_vars, self.inv_covs = 1.0 / variances, None
            self.log_norms = -0.5 * self.dim * (_LOG_2PI + np.log(variances))
        else:
            sign, logdet = np.linalg.slogdet(covs)
            if np.any(sign <= 0):
                raise ValueError("covariance must be positive definite")
            self.inv_vars, self.inv_covs = None, np.linalg.inv(covs)
            self.log_norms = -0.5 * (self.dim * _LOG_2PI + logdet)

    def pushforward(self, ab: float) -> "FrozenMixture":
        """The same mixture forward-diffused to signal level ab (weights kept)."""
        out = object.__new__(FrozenMixture)
        out._freeze(*_pushforward(ab, self.means, self.covs), self.log_wts)
        return out

    def evaluate(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-component (log N_k(z), mean_k - z) for every component at once."""
        d = self.means - z[..., None, :]
        if self.iso:
            maha = (d * d).sum(-1) * self.inv_vars
        else:
            maha = np.einsum("...kd,kde,...ke->...k", d, self.inv_covs, d)
        return self.log_norms - 0.5 * maha, d

    def log_density(self, z: np.ndarray):
        return logsumexp(self.log_wts + self.evaluate(z)[0], axis=-1)

    def masked_score(self, evaluated: tuple[np.ndarray, np.ndarray], idx,
                     log_wts: np.ndarray) -> np.ndarray:
        """Score of the sub-mixture (idx, log_wts) at the point `evaluated` came from.

        The gradient of the log density is the responsibility-weighted pull
        toward the component means.
        """
        log_n, d = evaluated
        logp = log_wts + log_n[idx]
        resp = np.exp(logp - logp.max())
        resp /= resp.sum()
        if self.iso:
            return (resp * self.inv_vars[idx]) @ d[idx]
        return np.einsum("k,kde,ke->d", resp, self.inv_covs[idx], d[idx])

    def score(self, z: np.ndarray) -> np.ndarray:
        return self.masked_score(self.evaluate(z), slice(None), self.log_wts)


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
    return float(np.exp(mixture_log_density(mix, z)))


def mixture_score(mix: ConditionedMixture, z) -> np.ndarray:
    """Gradient of the log mixture density at z."""
    return FrozenMixture(mix).score(_as_point(mix, z))


# ---------------------------------------------------------------------------
# Mixture definition files
# ---------------------------------------------------------------------------

def json_field(spec: dict, key: str, convert, path: str = "", default=None):
    """spec[key] through convert, or default if given and key is absent. A spec
    that is not an object, a missing key or a value convert rejects raises a
    ValueError naming path + key (path names spec and ends in ".")."""
    name = path + key
    if not isinstance(spec, dict):
        raise ValueError(f"field {path[:-1]!r}: expected an object")
    if key not in spec:
        if default is None:
            raise ValueError(f"missing field {name!r}")
        return default
    try:
        return convert(spec[key])
    except (TypeError, ValueError) as err:
        raise ValueError(f"field {name!r}: {err}") from None


def float_array(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def mixture_from_dict(spec: dict) -> ConditionedMixture:
    comps = spec.get("components") if isinstance(spec, dict) else None
    if not isinstance(comps, list) or not comps:
        raise ValueError("mixture file needs a non-empty 'components' list")
    out = []
    for i, entry in enumerate(comps):
        path = f"components[{i}]."
        fields = [json_field(entry, "weight", float, path),
                  json_field(entry, "mean", float_array, path),
                  json_field(entry, "covariance", float_array, path)]
        try:
            # a scalar covariance is isotropic: GaussianComponent expands it
            comp = GaussianComponent(*fields)
        except ValueError as err:
            raise ValueError(f"components[{i}]: {err}") from None
        out.append((comp, json_field(entry, "label", ConditionLabel, path)))
    return ConditionedMixture(tuple(out))


def mixture_to_dict(mix: ConditionedMixture) -> dict:
    comps = []
    for c, lab in mix.components:
        cov = c.covariance
        diag = cov[np.arange(c.dim), np.arange(c.dim)]
        if np.all(cov == diag[0] * np.eye(c.dim)):
            cov_out = float(diag[0])
        else:
            cov_out = cov.tolist()
        comps.append({"weight": c.weight, "mean": c.mean.tolist(),
                      "covariance": cov_out, "label": lab.value})
    return {"components": comps}


def load_mixture(path) -> ConditionedMixture:
    with open(path, "r", encoding="utf-8") as fh:
        return mixture_from_dict(json.load(fh))


def toy_mixture() -> ConditionedMixture:
    """The five-mode planar benchmark mixture shipped with the package."""
    from importlib.resources import files

    return mixture_from_dict(json.loads(files("sdse_lab.data").joinpath("toy_gmm.json").read_text()))
