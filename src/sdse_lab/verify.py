"""Self-check suite: oracle consistency, identities, and table reproduction.

Each check is independent and reports pass/fail with details; the CLI turns
the collection into a machine-readable report and a nonzero exit status on
any failure. Nothing is skipped silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .guidance import (GuidanceWeights, StageThresholds, cfg_combine, decompose_terms,
                       sdse_residual)
from .mesh import LatentMesh, build_laplacian, smoothness_gradient, smoothness_loss
from .mixtures import (ALL_CONDITIONS, LABELS, ConditionedMixture, FULL_COND, IMAGE_COND,
                       UNCONDITIONED, load_mixture, mixture_density, mixture_log_density,
                       mixture_score, sub_mixture)
from .oracle import NoiseOracle
from .samplers import SamplerKind, TimestepSampler, timestep_sequence
from .schedule import linear_beta_schedule
from .views import allocate_views

FD_STEP = 1e-5
FD_REL_TOL = 1e-5

# Region-weight table fixture: weights -> view counts at a 50k total.
ALLOCATION_TABLE = (
    ("body_dominant", (0.04, 0.08, 0.47, 0.26, 0.15),
     (2000, 4000, 23500, 13000, 7500)),
    ("head_dominant", (0.07, 0.20, 0.30, 0.31, 0.12),
     (3500, 10000, 15000, 15500, 6000)),
)
ALLOCATION_TOTAL = 50_000


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


def random_conditioned_mixture(rng: np.random.Generator, max_components: int = 5,
                               full_cov: bool = True) -> ConditionedMixture:
    """Random labeled planar mixture guaranteed to support all four condition pairs."""
    labels = list(ALL_CONDITIONS)
    extra = rng.integers(0, max(1, max_components - len(labels) + 1))
    labels += [LABELS[rng.choice(list(LABELS))] for _ in range(extra)]
    wts, means, covs = [], [], []
    for _ in labels:
        means.append(rng.uniform(-2.0, 2.0, size=2))
        if full_cov and rng.random() < 0.5:
            a = rng.standard_normal((2, 2)) * 0.3
            covs.append(a @ a.T + (0.05 + 0.2 * rng.random()) * np.eye(2))
        else:
            covs.append((0.05 + 0.45 * rng.random()) * np.eye(2))
        wts.append(0.1 + rng.random())
    return ConditionedMixture(wts, means, covs, labels)


def finite_difference_score(mix: ConditionedMixture, z: np.ndarray) -> np.ndarray:
    """Central differences of the log density (step FD_STEP), the independent score oracle."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    for d in range(z.size):
        hi = z.copy()
        lo = z.copy()
        hi[d] += FD_STEP
        lo[d] -= FD_STEP
        out[d] = (mixture_log_density(mix, hi) - mixture_log_density(mix, lo)) / (2 * FD_STEP)
    return out


def score_fd_worst_error(rng: np.random.Generator, trials: int) -> float:
    """Worst relative error of analytic scores against central differences."""
    worst = 0.0
    for _ in range(trials):
        mix = random_conditioned_mixture(rng)
        z = rng.uniform(-2.5, 2.5, size=mix.dim)
        analytic = mixture_score(mix, z)
        fd = finite_difference_score(mix, z)
        worst = max(worst, np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-9))
    return float(worst)


def decomposition_worst_error(rng: np.random.Generator, trials: int) -> float:
    """Worst absolute error of both decomposition identities on random draws."""
    worst = 0.0
    for _ in range(trials):
        eps_u, eps_i, eps_f, eps = rng.standard_normal((4, 2))
        w = GuidanceWeights(omega_t=float(10 * rng.random()),
                            omega_i=float(4 * rng.random()))
        b = decompose_terms(eps_u, eps_i, eps_f, eps, w)
        err1 = np.abs((w.omega_i - 1) * b.m1 + b.m2 - b.cfg_residual).max()
        err2 = np.abs((w.omega_t - 1) * b.m3 + b.m4 - b.m2).max()
        worst = max(worst, err1, err2)
    return float(worst)


def check_score_finite_difference() -> CheckResult:
    trials = 100
    worst = score_fd_worst_error(np.random.default_rng(2024), trials)
    return CheckResult("score_finite_difference", worst < FD_REL_TOL,
                       {"trials": trials, "worst_rel_error": worst, "tolerance": FD_REL_TOL})


def check_decomposition_identities() -> CheckResult:
    trials = 1000
    worst = decomposition_worst_error(np.random.default_rng(7), trials)
    return CheckResult("decomposition_identities", worst < 1e-12,
                       {"trials": trials, "worst_abs_error": worst, "tolerance": 1e-12})


def check_cfg_collapses() -> CheckResult:
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(50):
        eps_u, eps_i, eps_f = rng.standard_normal((3, 2))
        ok &= np.array_equal(cfg_combine(eps_u, eps_i, eps_f, GuidanceWeights(1.0, 1.0)), eps_f)
        ok &= np.array_equal(cfg_combine(eps_u, eps_i, eps_f, GuidanceWeights(0.0, 1.0)), eps_i)
    return CheckResult("cfg_collapses_exact", bool(ok), {"cases": 100})


def check_sdse_equals_m2(mix: ConditionedMixture) -> CheckResult:
    oracle = NoiseOracle(mix, linear_beta_schedule())
    rng = np.random.default_rng(3)
    w = GuidanceWeights()
    ok = True
    for _ in range(50):
        z = rng.uniform(-1, 3, size=mix.dim)
        t = int(rng.integers(1, StageThresholds.middle_max + 1))
        eps = rng.standard_normal(mix.dim)
        lhs = sdse_residual(oracle, z, t, eps, w)
        bundle = decompose_terms(oracle.predict(z, t, UNCONDITIONED),
                                 oracle.predict(z, t, IMAGE_COND),
                                 oracle.predict(z, t, FULL_COND), eps, w)
        ok &= np.array_equal(lhs, bundle.m2)
    return CheckResult("sdse_equals_m2_exact", bool(ok), {"cases": 50})


def _random_connected_graph(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    edges = set()
    order = rng.permutation(n)
    for k in range(1, n):
        a = int(order[k])
        b = int(order[rng.integers(0, k)])
        edges.add((min(a, b), max(a, b)))
    for _ in range(n):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def laplacian_fd_rel_error(rng: np.random.Generator, n: int) -> float:
    """Smoothness gradient against central differences on a random n-vertex graph."""
    lap = build_laplacian(LatentMesh(edges=_random_connected_graph(rng, n),
                                     codes=np.zeros((n, 2)), regions=np.zeros(n, dtype=int)))
    delta = rng.standard_normal((n, 2))
    grad = smoothness_gradient(lap, delta)
    step = 1e-6
    fd = np.zeros_like(delta)
    for i in range(n):
        for d in range(2):
            hi, lo = delta.copy(), delta.copy()
            hi[i, d] += step
            lo[i, d] -= step
            fd[i, d] = (smoothness_loss(lap, hi) - smoothness_loss(lap, lo)) / (2 * step)
    return float(np.abs(grad - fd).max() / max(np.abs(grad).max(), 1e-9))


def check_laplacian_gradient() -> CheckResult:
    trials = 10
    rng = np.random.default_rng(5)
    worst = max(laplacian_fd_rel_error(rng, int(rng.integers(5, 51))) for _ in range(trials))
    return CheckResult("laplacian_gradient_fd", worst < 1e-5,
                       {"trials": trials, "worst_rel_error": worst, "tolerance": 1e-5})


def check_allocation_table() -> CheckResult:
    rows = []
    ok = True
    for name, weights, expected in ALLOCATION_TABLE:
        alloc = allocate_views({i: w for i, w in enumerate(weights)}, ALLOCATION_TOTAL)
        got = tuple(alloc.counts[i] for i in range(len(weights)))
        ok &= got == expected
        rows.append({"profile": name, "weights": list(weights),
                     "expected": list(expected), "got": list(got),
                     "total": ALLOCATION_TOTAL})
    return CheckResult("allocation_table", bool(ok), {"rows": rows})


def check_sampler_monotone() -> CheckResult:
    ok = True
    sampler = TimestepSampler(SamplerKind.NON_INCREASING, 1, StageThresholds.middle_max, 257,
                              jitter=25.0)
    for seed in range(17, 37):
        ts = timestep_sequence(sampler, np.random.default_rng(seed))
        ok &= bool(np.all(np.diff(ts) <= 0))
    return CheckResult("sampler_non_increasing", bool(ok), {"sequences": 20})


def check_mixture_file(mix: ConditionedMixture) -> CheckResult:
    for cond in (UNCONDITIONED, IMAGE_COND, FULL_COND):
        sub = sub_mixture(mix, cond)
        z = sub.means[0]
        if not np.isfinite(mixture_density(sub, z)):
            raise ValueError("non-finite density at a component mean")
    return CheckResult("mixture_file", True,
                       {"components": mix.size, "dimension": mix.dim})


def _on_mixture(check, name: str, mix: ConditionedMixture | ValueError) -> CheckResult:
    """check(mix), or a failed `name` check carrying the load error or the check's."""
    try:
        if isinstance(mix, ValueError):
            raise mix
        return check(mix)
    except ValueError as err:
        return CheckResult(name, False, {"error": str(err)})


def run_all_checks(mixture_path: str | None = None) -> list[CheckResult]:
    """Every check; the mixture ones run on `mixture_path` (default: the toy mixture)."""
    try:
        mix = load_mixture(mixture_path or "pkg:toy_gmm.json")
    except ValueError as err:  # reported by the mixture checks
        mix = err
    return [
        _on_mixture(check_mixture_file, "mixture_file", mix),
        check_score_finite_difference(),
        check_decomposition_identities(),
        check_cfg_collapses(),
        _on_mixture(check_sdse_equals_m2, "sdse_equals_m2_exact", mix),
        check_laplacian_gradient(),
        check_allocation_table(),
        check_sampler_monotone(),
    ]


def report_dict(checks: list[CheckResult]) -> dict:
    return {"all_passed": all(c.passed for c in checks),
            "checks": [{"name": c.name, "passed": c.passed, "details": c.details}
                       for c in checks]}
