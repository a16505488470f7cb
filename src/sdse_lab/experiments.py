"""Timestep phases, convergence classification, full-schedule runs and mesh-edit runs.

Phases mirror the timestep staging: the large band sits above the middle
threshold, the middle band between the two thresholds, and the small band at
or below the small threshold. All comparative claims run on matched seed
lists so comparisons are paired.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fields import boolean, expect, instance, number, seed_list
from .guidance import EstimatorKind, GuidanceWeights, StageThresholds, check_t_max
from .mesh import LatentMesh, _laplacian, squared_norms
from .mixtures import START_POINT, Condition, ConditionedMixture, FULL_COND, IMAGE_COND
from .optimize import DIVERGENCE_GUARD, Trajectory, optimize_point
from .oracle import NoiseOracle
from .samplers import TimestepSampler
from .schedule import NoiseSchedule
from .views import (MAX_VIEWS_PER_STEP, RegionAllocation, SmoothedStepSolver, allocate_views,
                    edit_step, make_view, region_weights, view_gradient)

DEFAULT_EMA_WINDOW = 50


class Phase(enum.Enum):
    EARLY_LARGE = "large"
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
    keep = 1.0 - alpha
    # plain floats: the same IEEE operations as the array update, without its overhead
    ema = [0.0] * traj.residuals.shape[1]
    for row in traj.residuals[1:].tolist():
        ema = [keep * e + alpha * r for e, r in zip(ema, row)]
    return float(np.linalg.norm(ema))


def convergence_check(traj: Trajectory, modes: np.ndarray, tol: float = 0.05,
                      grad_tol: float = 1e-3,
                      window: int = DEFAULT_EMA_WINDOW) -> ConvergenceReport:
    """Classify a finished run against the labeled target modes.

    Converged: final iterate within tol of a mode. Intermediate trap: residual
    EMA stalled below grad_tol while still far from every mode. Diverged: the
    norm guard tripped. Otherwise wandering.
    """
    expect(number(tol, "tol") > 0, "tol", "must be > 0")
    modes = np.atleast_2d(np.asarray(modes, dtype=float))
    final = traj.final_theta
    with np.errstate(over="ignore" if traj.guard_tripped else None):  # the guard named it
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


def run_full_schedule(estimator: EstimatorKind, sampler: TimestepSampler,
                      mix: ConditionedMixture, sched: NoiseSchedule,
                      seeds: list[int], lr: float, steps: int,
                      theta0=START_POINT) -> list[tuple[Trajectory, ConvergenceReport]]:
    """Full scheduled runs at the default guidance weights and staging thresholds,
    plus convergence classification against the joint modes."""
    seeds = seed_list(seeds)
    oracle = NoiseOracle(mix, sched)
    modes = mix.mode_points(FULL_COND)
    out = []
    for seed in sorted(seeds):
        traj = optimize_point(theta0, estimator, sampler, mix, sched,
                              lr=lr, steps=steps, seed=seed, oracle=oracle)
        out.append((traj, convergence_check(traj, modes)))
    return out


# ---------------------------------------------------------------------------
# Mesh editing runs
# ---------------------------------------------------------------------------

# Instruction profiles: which target condition each region is steered toward.
HEAD_DOMINANT = {0: FULL_COND, 1: IMAGE_COND, 2: IMAGE_COND, 3: IMAGE_COND, 4: IMAGE_COND}
BODY_DOMINANT = {0: IMAGE_COND, 1: IMAGE_COND, 2: FULL_COND, 3: FULL_COND, 4: FULL_COND}
PROFILES = {"head_dominant": HEAD_DOMINANT, "body_dominant": BODY_DOMINANT}


@dataclass(frozen=True)
class MeshEditConfig:
    """One edit's settings, read by `fields.number` when built (a ConfigError names the field):
    integers >= 1 with t_min <= t_max, view counts <= MAX_VIEWS_PER_STEP, finite lr, w1 and
    threshold_distance >= 0, an `allocator` that is true or false, and a GuidanceWeights
    `weights` and StageThresholds `thresholds`. `run_mesh_edit` caps t_max."""

    steps: int = 400
    views_per_step: int = 10
    first_batch: int = 250
    lr: float = 0.02
    w1: float = 300.0
    allocator: bool = True
    t_min: int = 1
    t_max: int = StageThresholds.middle_max
    support: int = 8
    threshold_distance: float = 0.5
    weights: GuidanceWeights = GuidanceWeights()
    thresholds: StageThresholds = StageThresholds()

    def __post_init__(self):
        count, real = {"integer": True, "minimum": 1}, {"minimum": 0.0}
        views = dict(count, maximum=MAX_VIEWS_PER_STEP)
        for name, rule in (("steps", count), ("views_per_step", views), ("first_batch", views),
                           ("lr", real), ("w1", real), ("t_min", count), ("t_max", count),
                           ("support", count), ("threshold_distance", real)):
            object.__setattr__(self, name, number(getattr(self, name), name, **rule))
        boolean(self.allocator, "allocator")
        instance(self.weights, "weights", GuidanceWeights)
        instance(self.thresholds, "thresholds", StageThresholds)
        expect(self.t_min <= self.t_max, "t_max", "must be >= t_min")


@dataclass
class EditReport:
    seed: int
    allocation: RegionAllocation
    steps_to_threshold: int | None
    dispersion: dict[int, float]
    smooth_losses: np.ndarray
    grad_norm_rows: list[dict]
    final_mesh: LatentMesh


def region_dispersion(mesh: LatentMesh) -> dict[int, float]:
    """High-frequency dispersion per region: mean squared Laplacian of the codes
    on the region's induced subgraph. Smooth ramps cost little; speckle costs a lot.

    One Laplacian over the edges whose two ends share a region is the direct
    sum of the induced subgraphs' Laplacians, so its rows restricted to a
    region are that region's subgraph Laplacian rows.
    """
    ends = mesh.regions[mesh.edges]
    lap = _laplacian(mesh.num_vertices, mesh.edges[ends[:, 0] == ends[:, 1]])
    row_sq = squared_norms(lap @ mesh.codes)
    return {region: float(row_sq[mesh.region_vertices(region)].mean())
            for region in mesh.region_ids().tolist()}


def mode_distance_of_regions(mesh: LatentMesh, regions: list[int], modes: np.ndarray) -> float:
    """Mean over the listed regions' vertices of the distance from each code to
    its nearest mode; ValueError on an empty list or a region the mesh lacks."""
    parts = [mesh.region_vertices(r) for r in regions]
    if not parts:
        raise ValueError("regions must name at least one mesh region")
    missing = [r for r, verts in zip(regions, parts) if verts.size == 0]
    if missing:
        raise ValueError(f"regions {missing} are not regions of the mesh")
    codes = mesh.codes[np.concatenate(parts)]
    d = np.sqrt(squared_norms(codes[:, None, :] - modes[None, :, :]))
    return float(d.min(axis=1).mean())


def _draw_views(mesh: LatentMesh, counts: dict[int, int], rng: np.random.Generator,
                config: MeshEditConfig):
    """Draw (view, t) pairs, regions in the allocation's (sorted) order.

    Each view draws its blend, then its t; view_gradient draws its noise. The
    measuring pass consumes this lazily, so per view the stream reads view, t,
    noise. An edit step draws its whole batch first and then each view's noise.
    """
    for region, count in counts.items():
        for _ in range(count):
            view = make_view(mesh, region, rng, config.support)
            yield view, int(rng.integers(config.t_min, config.t_max + 1))


def profile_targets(mesh: LatentMesh,
                    profile: dict[int, Condition] | str) -> dict[int, Condition]:
    """Each mesh region's target under `profile` (a dict or a PROFILES name), in
    region order; ValueError if the profile misses a region."""
    if isinstance(profile, str):
        profile = PROFILES[profile]
    region_ids = [int(r) for r in mesh.region_ids()]
    missing = [r for r in region_ids if r not in profile]
    if missing:
        raise ValueError(f"profile missing target conditions for regions {missing}")
    return {r: profile[r] for r in region_ids}


def run_mesh_edit(mesh: LatentMesh, profile: dict[int, Condition] | str,
                  mix: ConditionedMixture, sched: NoiseSchedule, seeds: list[int],
                  config: MeshEditConfig = MeshEditConfig()) -> list[EditReport]:
    """Edit the mesh codes per seed, reporting allocation, progress, and dispersion.

    The gradient-aware allocation is computed from the first iteration's uniformly-spread
    measuring batch only and stays fixed for the whole run; the measuring batch does not
    move the codes, so allocator on/off pairs start identically. A step that takes a code
    past the divergence guard raises ValueError naming the seed and the step. Refused before
    any draw (the config read its own fields when built): seeds that `fields.seed_list`
    refuses (a ConfigError naming seeds[i]), codes of another dimension than the mixture's
    or past the guard (a ValueError), and a t_max beyond T, or beyond middle_max when a
    region targets FULL_COND, whose SDSE refuses larger t (a ConfigError naming t_max from
    `guidance.check_t_max`, the cap every run shares; the config reader leaves it here).
    """
    seeds = seed_list(seeds)
    if mesh.latent_dim != mix.dim:
        raise ValueError(f"mesh codes are {mesh.latent_dim}-D but the mixture is "
                         f"{mix.dim}-D; they must match")
    largest = np.abs(mesh.codes).max()
    if not largest <= DIVERGENCE_GUARD:
        raise ValueError(f"mesh start codes lie beyond the divergence guard: largest |code| "
                         f"is {largest:g}, beyond the guard {DIVERGENCE_GUARD:g}")
    profile = profile_targets(mesh, profile)
    edited = [r for r, c in profile.items() if c == FULL_COND]
    check_t_max(config.t_max, sched.num_steps, config.thresholds, bool(edited), "t_max")
    oracle = NoiseOracle(mix, sched)
    modes = mix.mode_points(FULL_COND)
    uniform = dict.fromkeys(profile, 1.0)
    solver = SmoothedStepSolver(mesh, config.w1, config.lr)
    reports = []
    for seed in sorted(seeds):
        rng = np.random.default_rng(seed)
        current = mesh

        # Measuring pass: uniformly spread views, streamed into the region weights.
        base_counts = allocate_views(uniform, config.first_batch)
        weights_map = region_weights(
            (view_gradient(current, view, t, rng, oracle, profile[view.region],
                           config.weights, config.thresholds)
             for view, t in _draw_views(current, base_counts.counts, rng, config)),
            current)
        allocation = allocate_views(weights_map if config.allocator else uniform,
                                    config.views_per_step)

        grad_rows = []
        hit = None
        # A step that overflows leaves the divergence guard, which names it.
        with np.errstate(over="ignore"):
            for step in range(1, config.steps + 1):
                batch = list(_draw_views(current, allocation.counts, rng, config))
                try:
                    current, row = edit_step(current, batch, oracle, profile, rng, solver,
                                             config.weights, config.thresholds)
                except ValueError as err:  # the divergence guard, named by seed and step
                    raise ValueError(f"seed {seed}, step {step}: {err}") from None
                grad_rows.append({"step": step, **row})
                if hit is None and edited and mode_distance_of_regions(
                        current, edited, modes) < config.threshold_distance:
                    hit = step
        reports.append(EditReport(seed=seed, allocation=allocation,
                                  steps_to_threshold=hit,
                                  dispersion=region_dispersion(current),
                                  smooth_losses=np.asarray([row["smooth_loss"]
                                                            for row in grad_rows]),
                                  grad_norm_rows=grad_rows, final_mesh=current))
    return reports
