"""Scripted toy-phase reproductions, full-schedule runs, and mesh-edit ablations.

Phases mirror the timestep staging: the large band sits above the middle
threshold, the middle band between the two thresholds, and the small band at
or below the small threshold. All comparative claims run on matched seed
lists so comparisons are paired.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .guidance import EstimatorKind, GuidanceWeights, StageThresholds
from .mesh import LatentMesh, _laplacian
from .mixtures import (ALL_CONDITIONS, Condition, ConditionedMixture, FULL_COND,
                       IMAGE_COND, TEXT_COND, UNCONDITIONED, FrozenMixture,
                       sub_mixture)
from .optimize import Trajectory, optimize_point
from .oracle import NoiseOracle, forward_diffuse
from .samplers import SamplerKind, TimestepSampler
from .schedule import NoiseSchedule
from .views import (RegionAllocation, SmoothedStepSolver, allocate_views,
                    backprop_view, edit_step, make_view, region_weights,
                    render_view, target_residual)

DEFAULT_TOLERANCE = 0.05
DEFAULT_GRAD_TOL = 1e-3
DEFAULT_EMA_WINDOW = 50


class Phase(enum.Enum):
    EARLY_LARGE = "early_large"
    MIDDLE = "middle"
    SMALL = "small"


class Classification(enum.Enum):
    CONVERGED = "converged"
    INTERMEDIATE_TRAP = "intermediate_trap"
    DIVERGED = "diverged"
    WANDERING = "wandering"


def phase_band(phase: Phase, thresholds: StageThresholds, num_steps: int) -> tuple[int, int]:
    """Inclusive timestep band for a phase under the staging thresholds."""
    if phase is Phase.EARLY_LARGE:
        return (thresholds.middle_max + 1, num_steps)
    if phase is Phase.MIDDLE:
        return (thresholds.small_max + 1, thresholds.middle_max)
    return (1, thresholds.small_max)


@dataclass(frozen=True)
class PhaseSpec:
    """One phase study: estimators to run and the timestep policy (fixed or range)."""

    phase: Phase
    estimators: tuple[EstimatorKind, ...]
    t_lo: int
    t_hi: int
    theta0: tuple[float, ...] = (0.5, 1.0)

    def __post_init__(self):
        if not self.estimators:
            raise ValueError("phase spec needs at least one estimator")
        if not 1 <= self.t_lo <= self.t_hi:
            raise ValueError("need 1 <= t_lo <= t_hi")

    def validate_band(self, thresholds: StageThresholds, num_steps: int) -> None:
        lo, hi = phase_band(self.phase, thresholds, num_steps)
        if not (lo <= self.t_lo and self.t_hi <= hi):
            raise ValueError(
                f"{self.phase.value} policy [{self.t_lo},{self.t_hi}] outside band [{lo},{hi}]")


@dataclass(frozen=True)
class ConvergenceReport:
    final_theta: np.ndarray
    nearest_mode: np.ndarray
    distance: float
    classification: Classification
    residual_ema_norm: float

    def __post_init__(self):
        if not self.distance >= 0:
            raise ValueError(f"distance must be >= 0, got {self.distance}")


def residual_ema_norm(traj: Trajectory, window: int = DEFAULT_EMA_WINDOW) -> float:
    """Norm of the exponential moving average of residual vectors at the final step."""
    alpha = 2.0 / (window + 1.0)
    ema = np.zeros(traj.residuals.shape[1])
    for row in traj.residuals[1:]:
        ema = (1.0 - alpha) * ema + alpha * row
    return float(np.linalg.norm(ema))


def convergence_check(traj: Trajectory, modes: np.ndarray, tol: float,
                      grad_tol: float = DEFAULT_GRAD_TOL,
                      window: int = DEFAULT_EMA_WINDOW) -> ConvergenceReport:
    """Classify a finished run against the labeled target modes.

    Converged: final iterate within tol of a mode. Intermediate trap: residual
    EMA stalled below grad_tol while still far from every mode. Diverged: the
    norm guard tripped. Otherwise wandering.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    modes = np.atleast_2d(np.asarray(modes, dtype=float))
    final = traj.final_theta
    dists = np.linalg.norm(modes - final, axis=1)
    nearest = int(np.argmin(dists))
    distance = float(dists[nearest])
    ema = residual_ema_norm(traj, window)
    if traj.guard_tripped:
        cls = Classification.DIVERGED
    elif distance < tol:
        cls = Classification.CONVERGED
    elif ema < grad_tol:
        cls = Classification.INTERMEDIATE_TRAP
    else:
        cls = Classification.WANDERING
    return ConvergenceReport(final_theta=final, nearest_mode=modes[nearest],
                             distance=distance, classification=cls,
                             residual_ema_norm=ema)


@dataclass(frozen=True)
class PhaseRun:
    estimator: EstimatorKind
    seed: int
    trajectory: Trajectory


def run_toy_phase(spec: PhaseSpec, mix: ConditionedMixture, sched: NoiseSchedule,
                  seeds: list[int], lr: float = 1e-2, steps: int = 400,
                  weights: GuidanceWeights = GuidanceWeights(),
                  thresholds: StageThresholds = StageThresholds(),
                  noising: bool = True, config_digest: str = "") -> list[PhaseRun]:
    """One trajectory per (estimator, seed) under the phase's timestep policy."""
    spec.validate_band(thresholds, sched.num_steps)
    oracle = NoiseOracle(mix, sched, noising=noising)
    sampler = TimestepSampler(kind=SamplerKind.UNIFORM, t_min=spec.t_lo,
                              t_max=spec.t_hi, total_steps=steps)
    out = []
    for estimator in spec.estimators:
        for seed in sorted(seeds):
            traj = optimize_point(spec.theta0, estimator, sampler, mix, sched,
                                  lr=lr, steps=steps, seed=seed, weights=weights,
                                  thresholds=thresholds, noising=noising,
                                  config_digest=config_digest, oracle=oracle)
            out.append(PhaseRun(estimator=estimator, seed=seed, trajectory=traj))
    return out


def run_full_schedule(estimator: EstimatorKind, sampler: TimestepSampler,
                      mix: ConditionedMixture, sched: NoiseSchedule,
                      seeds: list[int], lr: float, steps: int,
                      weights: GuidanceWeights = GuidanceWeights(),
                      thresholds: StageThresholds = StageThresholds(),
                      tol: float = DEFAULT_TOLERANCE,
                      grad_tol: float = DEFAULT_GRAD_TOL,
                      window: int = DEFAULT_EMA_WINDOW,
                      noising: bool = True, theta0=(0.5, 1.0),
                      config_digest: str = "") -> list[tuple[Trajectory, ConvergenceReport]]:
    """Full scheduled runs plus convergence classification against the joint modes."""
    if sampler.t_max > thresholds.middle_max:
        raise ValueError("sampler range must lie within [1, middle_max]")
    oracle = NoiseOracle(mix, sched, noising=noising)
    modes = mix.mode_points(FULL_COND)
    out = []
    for seed in sorted(seeds):
        traj = optimize_point(theta0, estimator, sampler, mix, sched,
                              lr=lr, steps=steps, seed=seed, weights=weights,
                              thresholds=thresholds, noising=noising,
                              config_digest=config_digest, oracle=oracle)
        out.append((traj, convergence_check(traj, modes, tol, grad_tol, window)))
    return out


# ---------------------------------------------------------------------------
# Density diagnostics
# ---------------------------------------------------------------------------

_COND_NAMES = {UNCONDITIONED: "p", IMAGE_COND: "p_img", TEXT_COND: "p_txt",
               FULL_COND: "p_full"}


@dataclass(frozen=True)
class DiagnosticsTable:
    header: tuple[str, ...]
    rows: np.ndarray

    def to_csv(self) -> str:
        lines = [",".join(self.header)]
        for row in self.rows:
            lines.append(",".join([str(int(row[0]))] + [repr(float(v)) for v in row[1:]]))
        return "\n".join(lines) + "\n"


def density_diagnostics(traj: Trajectory, mix: ConditionedMixture,
                        conds: tuple[Condition, ...] = ALL_CONDITIONS) -> DiagnosticsTable:
    """Per-step conditional densities and the two guidance log ratios.

    The ratio columns track log p(.|image)/p(.) and log p(.|both)/p(.|image),
    the quantities the baseline-shift and divergence terms push on.
    """
    if traj.num_rows == 0:
        raise ValueError("trajectory is empty")
    log_dens = {cond: FrozenMixture(sub_mixture(mix, cond)).log_density(traj.thetas)
                for cond in ALL_CONDITIONS}
    header = ["step"] + [_COND_NAMES[c] for c in conds] + ["log_ratio_img", "log_ratio_full"]
    rows = np.zeros((traj.num_rows, len(header)))
    rows[:, 0] = traj.steps
    for j, cond in enumerate(conds):
        rows[:, 1 + j] = np.exp(log_dens[cond])
    rows[:, -2] = log_dens[IMAGE_COND] - log_dens[UNCONDITIONED]
    rows[:, -1] = log_dens[FULL_COND] - log_dens[IMAGE_COND]
    return DiagnosticsTable(header=tuple(header), rows=rows)


# ---------------------------------------------------------------------------
# Mesh editing runs
# ---------------------------------------------------------------------------

# Instruction profiles: which target condition each region is steered toward.
HEAD_DOMINANT = {0: FULL_COND, 1: IMAGE_COND, 2: IMAGE_COND, 3: IMAGE_COND, 4: IMAGE_COND}
BODY_DOMINANT = {0: IMAGE_COND, 1: IMAGE_COND, 2: FULL_COND, 3: FULL_COND, 4: FULL_COND}
PROFILES = {"head_dominant": HEAD_DOMINANT, "body_dominant": BODY_DOMINANT}


@dataclass(frozen=True)
class MeshEditConfig:
    steps: int = 400
    views_per_step: int = 10
    first_batch: int = 250
    lr: float = 0.02
    w1: float = 300.0
    allocator: bool = True
    t_min: int = 1
    t_max: int = 800
    support: int = 8
    threshold_distance: float = 0.5
    estimator: EstimatorKind = EstimatorKind.SDSE
    weights: GuidanceWeights = GuidanceWeights()
    thresholds: StageThresholds = StageThresholds()


@dataclass
class EditReport:
    seed: int
    allocation: RegionAllocation
    steps_to_threshold: int | None
    dispersion: dict[int, float]
    smooth_losses: np.ndarray
    grad_norm_rows: list[dict]
    final_mesh: LatentMesh
    config_digest: str = ""

    def step_csv_rows(self) -> list[tuple]:
        rows = []
        for entry in self.grad_norm_rows:
            for region in sorted(entry["grad_norms"]):
                rows.append((entry["step"], region, entry["grad_norms"][region],
                             entry["view_counts"].get(region, 0), entry["smooth_loss"]))
        return rows


def region_subgraph_laplacians(mesh: LatentMesh) -> dict[int, sp.csr_matrix]:
    """Laplacian of each region's induced subgraph, on the region's own vertex order."""
    edges = np.asarray(mesh.edges, dtype=np.intp).reshape(-1, 2)
    ends = mesh.regions[edges]
    inside = ends[:, 0] == ends[:, 1]
    local = np.empty(mesh.num_vertices, dtype=np.intp)
    out = {}
    for region in mesh.region_ids():
        verts = mesh.region_vertices(region)
        local[verts] = np.arange(verts.size)
        sub_edges = local[edges[inside & (ends[:, 0] == region)]]
        out[int(region)] = _laplacian(verts.size, sub_edges)
    return out


def region_dispersion(mesh: LatentMesh,
                      sub_laplacians: dict[int, sp.csr_matrix] | None = None) -> dict[int, float]:
    """High-frequency dispersion per region: mean squared Laplacian of the codes
    on the region's induced subgraph. Smooth ramps cost little; speckle costs a lot."""
    subs = sub_laplacians or region_subgraph_laplacians(mesh)
    out = {}
    for region, lap in subs.items():
        verts = mesh.region_vertices(region)
        rough = lap @ mesh.codes[verts]
        out[region] = float((rough * rough).sum(axis=1).mean())
    return out


def mode_distance_of_regions(mesh: LatentMesh, regions: list[int], modes: np.ndarray) -> float:
    verts = np.concatenate([mesh.region_vertices(r) for r in regions])
    d = np.linalg.norm(mesh.codes[verts][:, None, :] - modes[None, :, :], axis=2)
    return float(d.min(axis=1).mean())


def _measuring_gradients(mesh: LatentMesh, counts: dict[int, int], oracle: NoiseOracle,
                         profile: dict[int, Condition], rng: np.random.Generator,
                         config: MeshEditConfig):
    """Per-view gradients of the measuring pass, yielded one at a time in view order.

    Regions come in the allocation's (sorted) order; each view draws its blend,
    then t, then the noise sample. Streaming them lets region_weights reduce
    each gradient before the next is built.
    """
    for region, count in counts.items():
        for _ in range(count):
            view = make_view(mesh, region, rng, config.support)
            t = int(rng.integers(config.t_min, config.t_max + 1))
            epsilon = rng.standard_normal(mesh.latent_dim)
            z_t = forward_diffuse(render_view(mesh, view), t, epsilon, oracle.schedule)
            res = target_residual(oracle, z_t, t, epsilon, profile[region],
                                  config.weights, config.thresholds, config.estimator)
            yield backprop_view(mesh, view, res)


def run_mesh_edit(mesh: LatentMesh, profile: dict[int, Condition] | str,
                  mix: ConditionedMixture, sched: NoiseSchedule, seeds: list[int],
                  config: MeshEditConfig = MeshEditConfig(),
                  config_digest: str = "") -> list[EditReport]:
    """Edit the mesh codes per seed, reporting allocation, progress, and dispersion.

    The gradient-aware allocation is computed from the first iteration's
    uniformly-spread measuring batch only and stays fixed for the whole run;
    the measuring batch does not move the codes, so allocator on/off pairs
    start identically.
    """
    if isinstance(profile, str):
        profile = PROFILES[profile]
    region_ids = [int(r) for r in mesh.region_ids()]
    missing = [r for r in region_ids if r not in profile]
    if missing:
        raise ValueError(f"profile missing target conditions for regions {missing}")
    oracle = NoiseOracle(mix, sched, noising=True)
    modes = mix.mode_points(FULL_COND)
    edited = [r for r in region_ids if profile[r] == FULL_COND]
    solver = SmoothedStepSolver(mesh, config.w1, config.lr)
    sub_laps = region_subgraph_laplacians(mesh)
    reports = []
    for seed in sorted(seeds):
        rng = np.random.default_rng(seed)
        current = mesh

        # Measuring pass: uniformly spread views, streamed into the region weights.
        base_counts = allocate_views({r: 1.0 for r in region_ids}, config.first_batch)
        weights_map = region_weights(
            _measuring_gradients(current, base_counts.counts, oracle, profile, rng, config),
            current)
        if config.allocator:
            allocation = allocate_views(weights_map, config.views_per_step)
        else:
            allocation = allocate_views({r: 1.0 for r in region_ids}, config.views_per_step)

        smooth_losses = []
        grad_rows = []
        hit = None
        for step in range(1, config.steps + 1):
            views, ts = [], []
            for region in region_ids:
                for _ in range(allocation.counts[region]):
                    views.append(make_view(current, region, rng, config.support))
                    ts.append(int(rng.integers(config.t_min, config.t_max + 1)))
            if not views:
                raise ValueError("allocation produced an empty view batch")
            current, report = edit_step(current, views, oracle, profile, ts, rng,
                                        solver, config.weights,
                                        config.thresholds, config.estimator)
            smooth_losses.append(report.smooth_loss)
            grad_rows.append({"step": step, "grad_norms": report.grad_norms,
                              "view_counts": report.view_counts,
                              "smooth_loss": report.smooth_loss})
            if hit is None and edited and \
                    mode_distance_of_regions(current, edited, modes) < config.threshold_distance:
                hit = step
        reports.append(EditReport(seed=seed, allocation=allocation,
                                  steps_to_threshold=hit,
                                  dispersion=region_dispersion(current, sub_laps),
                                  smooth_losses=np.asarray(smooth_losses),
                                  grad_norm_rows=grad_rows, final_mesh=current,
                                  config_digest=config_digest))
    return reports
