"""Region views, gradient-aware view allocation, and the mesh edit step.

A view is a sparse convex blend over vertices of one region; rendering is the
blend of their latent codes, so backpropagation through the render is just the
blend weights times the residual. Region weights average per-view per-vertex
gradient norms; view counts redistribute a fixed total across regions by
largest remainder, so the counts always sum to the total exactly.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .guidance import EstimatorKind, GuidanceWeights, StageThresholds, sdse_residual, sdse_prime_residual
from .mesh import LatentMesh, build_laplacian, smoothness_loss
from .mixtures import Condition, FULL_COND, IMAGE_COND
from .oracle import NoiseOracle, forward_diffuse


@dataclass(frozen=True)
class ViewSpec:
    """Sparse nonnegative blend over vertices of one region, summing to one."""

    region: int
    vertices: np.ndarray
    blend: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=int)
        blend = np.asarray(self.blend, dtype=float)
        if verts.ndim != 1 or verts.size == 0 or blend.shape != verts.shape:
            raise ValueError("view needs matching non-empty vertices and blend")
        if np.any(blend < 0) or abs(blend.sum() - 1.0) > 1e-12:
            raise ValueError("blend weights must be nonnegative and sum to 1")
        verts = verts.copy()
        blend = blend.copy()
        verts.flags.writeable = False
        blend.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "blend", blend)


def make_view(mesh: LatentMesh, region: int, rng: np.random.Generator,
              support: int = 8) -> ViewSpec:
    """Draw a view: a symmetric-Dirichlet blend over a random subset of the region."""
    verts = mesh.region_vertices(region)
    if verts.size == 0:
        raise ValueError(f"region {region} has no vertices")
    k = min(support, verts.size)
    chosen = np.sort(rng.choice(verts, size=k, replace=False))
    blend = rng.dirichlet(np.ones(k))
    blend = blend / blend.sum()
    return ViewSpec(region=region, vertices=chosen, blend=blend)


def render_view(mesh: LatentMesh, view: ViewSpec) -> np.ndarray:
    """Linear render: the blend of the supported vertices' codes."""
    in_region = mesh.regions[view.vertices] == view.region
    if not np.all(in_region):
        raise ValueError("view support must lie inside its region")
    return view.blend @ mesh.codes[view.vertices]


def backprop_view(mesh: LatentMesh, view: ViewSpec, residual) -> np.ndarray:
    """Chain rule through the linear render: blend_i * residual at supported rows."""
    residual = np.asarray(residual, dtype=float)
    if residual.shape != (mesh.latent_dim,):
        raise ValueError("residual must match the latent dimension")
    grad = np.zeros((mesh.num_vertices, mesh.latent_dim))
    grad[view.vertices] += view.blend[:, None] * residual
    return grad


def region_weights(per_view_gradients: Iterable[np.ndarray], mesh: LatentMesh,
                   regions=None) -> dict[int, float]:
    """Average per-view per-vertex gradient norms over each region's vertices.

    Streams over any iterable of (N, latent_dim) gradients: each is reduced to
    its per-vertex norms and added to every region's running total in view
    order, so a generator input is never held in memory all at once.
    """
    regions = [int(r) for r in (mesh.region_ids() if regions is None else regions)]
    members = {r: mesh.region_vertices(r) for r in regions}
    totals = dict.fromkeys(members, 0.0)
    num_views = 0
    for grad in per_view_gradients:
        norm = np.linalg.norm(grad, axis=1)
        for region, verts in members.items():
            totals[region] += float(norm[verts].sum())
        num_views += 1
    if num_views == 0:
        raise ValueError("need at least one view gradient")
    out: dict[int, float] = {}
    for region in regions:
        verts = members[region]
        if verts.size == 0:
            warnings.warn(f"region {region} is empty; weight set to 0")
            out[region] = 0.0
            continue
        out[region] = totals[region] / (num_views * verts.size)
    return out


@dataclass(frozen=True)
class RegionAllocation:
    """Integer view counts per region summing exactly to the requested total."""

    weights: dict[int, float]
    counts: dict[int, int]
    total: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.total:
            raise ValueError("allocation counts must sum to the total")
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("allocation counts must be nonnegative")


def allocate_views(weights: dict[int, float], total: int) -> RegionAllocation:
    """Proportional quotas rounded by largest remainder (ties broken by region id)."""
    if total < 0:
        raise ValueError("total must be >= 0")
    regions = sorted(weights)
    w = np.array([weights[r] for r in regions], dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be >= 0")
    if w.sum() <= 0.0:
        warnings.warn("all-zero region weights; falling back to uniform allocation")
        w = np.ones_like(w)
    quotas = w / w.sum() * total
    base = np.floor(quotas).astype(int)
    leftover = total - int(base.sum())
    order = np.lexsort((np.arange(len(regions)), -(quotas - base)))
    counts = base.copy()
    for idx in order[:leftover]:
        counts[idx] += 1
    return RegionAllocation(weights=dict(weights),
                            counts={r: int(c) for r, c in zip(regions, counts)},
                            total=int(total))


# ---------------------------------------------------------------------------
# Edit step
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepReport:
    grad_norms: dict[int, float]     # per-region mean per-view gradient norms
    view_counts: dict[int, int]
    smooth_loss: float
    per_view_gradients: list[np.ndarray]


def target_residual(oracle: NoiseOracle, z_t, t: int, epsilon, target: Condition,
                    weights: GuidanceWeights, thresholds: StageThresholds,
                    estimator: EstimatorKind = EstimatorKind.SDSE) -> np.ndarray:
    """Residual steering a view toward its region's target condition.

    Fully conditioned targets use the staged editing estimator; image-anchored
    targets use the image-conditional pull, which keeps unedited regions tied
    to the source.
    """
    if target == FULL_COND:
        if estimator is EstimatorKind.SDSE_PRIME:
            return sdse_prime_residual(oracle, z_t, t, epsilon, weights, thresholds)
        return sdse_residual(oracle, z_t, t, epsilon, weights, thresholds)
    if target == IMAGE_COND:
        return oracle.predict(z_t, t, IMAGE_COND) - np.asarray(epsilon, dtype=float)
    raise ValueError(f"unsupported target condition: {target}")


class SmoothedStepSolver:
    """One-pass solve of the per-step update under the smoothness penalty.

    The applied delta solves  delta = -lr * (G + w1 * grad_smooth(delta)),
    i.e. (I + lr * w1 * (2/N) L^T L) delta = -lr * G.  Solving the fixed point
    exactly keeps the step stable for arbitrarily large w1, where the delta is
    projected onto the Laplacian kernel (constant per connected component).
    """

    def __init__(self, mesh: LatentMesh, w1: float, lr: float):
        self.lap = build_laplacian(mesh)
        self.w1 = float(w1)
        self.lr = float(lr)
        n = mesh.num_vertices
        if w1 == 0.0:
            self._solve = None
        else:
            mat = sp.identity(n, format="csc") + (lr * w1 * 2.0 / n) * (self.lap.T @ self.lap)
            self._solve = sp.linalg.factorized(mat.tocsc())

    def step_delta(self, grad: np.ndarray) -> np.ndarray:
        raw = -self.lr * grad
        if self._solve is None:
            return raw
        return np.column_stack([self._solve(raw[:, d]) for d in range(raw.shape[1])])


def edit_step(mesh: LatentMesh, views: list[ViewSpec], oracle: NoiseOracle,
              profile: dict[int, Condition], timesteps: list[int],
              rng: np.random.Generator, solver: SmoothedStepSolver,
              weights: GuidanceWeights = GuidanceWeights(),
              thresholds: StageThresholds = StageThresholds(),
              estimator: EstimatorKind = EstimatorKind.SDSE) -> tuple[LatentMesh, StepReport]:
    """Accumulate per-view residual gradients, smooth the candidate delta, apply it.

    Per-view work is pure; accumulation happens in view order into a dense
    matrix so results do not depend on evaluation scheduling. The report's
    region weights are streamed from the same per-view gradients, which it
    also keeps. The new mesh shares this one's validated topology.
    """
    if not views:
        raise ValueError("edit step needs at least one view")
    if len(timesteps) != len(views):
        raise ValueError("need one timestep per view")
    per_view = []
    total = np.zeros_like(mesh.codes)
    for view, t in zip(views, timesteps):
        z = render_view(mesh, view)
        epsilon = rng.standard_normal(mesh.latent_dim)
        z_t = forward_diffuse(z, t, epsilon, oracle.schedule)
        res = target_residual(oracle, z_t, int(t), epsilon, profile[view.region],
                              weights, thresholds, estimator)
        grad = backprop_view(mesh, view, res)
        per_view.append(grad)
        total += grad
    delta = solver.step_delta(total)
    new_mesh = mesh.with_codes(mesh.codes + delta)
    counts: dict[int, int] = {int(r): 0 for r in mesh.region_ids()}
    for view in views:
        counts[int(view.region)] += 1
    report = StepReport(grad_norms=region_weights(per_view, mesh),
                        view_counts=counts,
                        smooth_loss=smoothness_loss(solver.lap, delta),
                        per_view_gradients=per_view)
    return new_mesh, report
