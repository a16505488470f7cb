"""Region views, gradient-aware view allocation, and the mesh edit step.

A view is a sparse convex blend over vertices of one region; rendering is the
blend of their latent codes, so backpropagation through the render is just the
blend weights times the residual. A view's code gradient is therefore zero
outside its support and is kept as a (rows, values) pair: `values[k]` is the
gradient at vertex `rows[k]`. No dense per-view (N, latent_dim) array is built;
an edit step adds the pairs into one step total, and region weights sum the
support rows' norms. Region weights average per-view per-vertex gradient
norms; view counts redistribute a fixed total across regions by largest
remainder, so the counts always sum to the total exactly.
"""

from __future__ import annotations

import math
import numbers
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .guidance import GuidanceWeights, StageThresholds, sdse_residual
from .mesh import LatentMesh, build_laplacian, smoothness_loss
from .mixtures import Condition, FULL_COND, IMAGE_COND
from .optimize import DIVERGENCE_GUARD
from .oracle import NoiseOracle, forward_diffuse


@dataclass(frozen=True)
class ViewSpec:
    """Sparse nonnegative blend over sorted distinct vertices of one region,
    summing to one, as make_view draws it."""

    region: int
    vertices: np.ndarray
    blend: np.ndarray


def make_view(mesh: LatentMesh, region: int, rng: np.random.Generator,
              support: int) -> ViewSpec:
    """Draw a view: a symmetric-Dirichlet blend over a random subset of the region.

    `support` is an integer >= 1, or a ValueError naming it is raised before any draw.
    """
    if isinstance(support, bool) or not isinstance(support, numbers.Integral) or support < 1:
        raise ValueError(f"support must be an integer >= 1, got {support!r}")
    verts = mesh.region_vertices(region)
    if verts.size == 0:
        raise ValueError(f"region {region} has no vertices")
    k = min(support, verts.size)
    chosen = verts[np.sort(rng.choice(verts.size, k, replace=False))]  # verts is sorted
    # rng.dirichlet(np.ones(k)), draw for draw: k standard exponentials times the
    # reciprocal of their running sum (numpy's Dirichlet(1) stream and arithmetic)
    draws = rng.standard_exponential(k)
    blend = draws * (1.0 / np.add.accumulate(draws)[-1])
    blend = blend / blend.sum()
    return ViewSpec(region=region, vertices=chosen, blend=blend)


def render_view(mesh: LatentMesh, view: ViewSpec) -> np.ndarray:
    """Linear render: the blend of the supported vertices' codes."""
    return view.blend @ mesh.codes[view.vertices]


def backprop_view(mesh: LatentMesh, view: ViewSpec,
                  residual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chain rule through the linear render: blend_i * residual at the supported rows.

    Returns the gradient as a (rows, values) pair, `view.vertices` and
    `blend[:, None] * residual`; every other row of the gradient is zero.
    """
    return view.vertices, view.blend[:, None] * residual


def region_weights(view_gradients: Iterable[tuple[np.ndarray, np.ndarray]],
                   mesh: LatentMesh) -> dict[int, float]:
    """Average per-view per-vertex gradient norms over each region's vertices,
    for every region of the mesh in id order.

    Takes any iterable of (rows, values) view gradients, as backprop_view
    returns them. Rows outside a view's support are zero, so each region's
    total is the sum of the norms of the support rows that lie in it.
    """
    pairs = list(view_gradients)
    if not pairs:
        raise ValueError("need at least one view gradient")
    ids = mesh.region_ids()
    owner = np.searchsorted(ids, mesh.regions[np.concatenate([rows for rows, _ in pairs])])
    norms = np.linalg.norm(np.concatenate([values for _, values in pairs]), axis=1)
    totals = np.bincount(owner, weights=norms, minlength=ids.size)
    return {int(r): float(total) / (len(pairs) * mesh.region_vertices(r).size)
            for r, total in zip(ids.tolist(), totals)}


@dataclass(frozen=True)
class RegionAllocation:
    """Integer view counts per region summing exactly to the requested total."""

    weights: dict[int, float]
    counts: dict[int, int]


# Largest view total allocate_views takes. The float quotas must sum to the total
# within one view for largest remainder to fill it exactly; their rounding error
# is a few ulps of the total, so at 2**53 two regions already miss it, while at
# 2**40 it stays below 1/100 of a view for any region count.
MAX_VIEW_TOTAL = 2**40


def allocate_views(weights: dict[int, float], total: int) -> RegionAllocation:
    """Proportional quotas rounded by largest remainder (ties broken by region id).

    `total` is an integer in [0, MAX_VIEW_TOTAL] and `weights` names at least
    one region; anything else is a ValueError naming the argument.
    """
    if (isinstance(total, bool) or not isinstance(total, numbers.Integral)
            or not 0 <= total <= MAX_VIEW_TOTAL):
        raise ValueError(f"total must be an integer in [0, {MAX_VIEW_TOTAL}], got {total!r}")
    if not weights:
        raise ValueError("weights must name at least one region")
    regions = sorted(weights)
    w = np.array([weights[r] for r in regions], dtype=float)
    bad = ~(np.isfinite(w) & (w >= 0))
    if bad.any():
        region = regions[int(np.argmax(bad))]
        raise ValueError(f"weights must be finite and >= 0; region {region} has "
                         f"{weights[region]!r}")
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
                            counts={r: int(c) for r, c in zip(regions, counts)})


# ---------------------------------------------------------------------------
# Edit step
# ---------------------------------------------------------------------------

def target_residual(oracle: NoiseOracle, z_t, t: int, epsilon, target: Condition,
                    weights: GuidanceWeights, thresholds: StageThresholds) -> np.ndarray:
    """Residual steering a view toward its region's target condition.

    Fully conditioned targets use the staged editing estimator; image-anchored
    targets use the image-conditional pull, which keeps unedited regions tied
    to the source.
    """
    if target == FULL_COND:
        return sdse_residual(oracle, z_t, t, epsilon, weights, thresholds)
    if target == IMAGE_COND:
        return oracle.predict(z_t, t, IMAGE_COND) - np.asarray(epsilon, dtype=float)
    raise ValueError(f"unsupported target condition: {target}")


# Largest eps * kappa_bound a smoothing solve may have (its relative error bound).
SOLVE_TOLERANCE = 1e-6
_EPS = float(np.finfo(float).eps)


class SmoothedStepSolver:
    """One-pass solve of the per-step update under the smoothness penalty.

    The applied delta solves  delta = -lr * (G + w1 * grad_smooth(delta)),
    i.e. (I + s L^T L) delta = -lr * G  with  s = lr * w1 * 2 / N.  L is
    symmetric, so with a = sqrt(s) that matrix is (I - iaL)(I + iaL), and its
    inverse is the mean of (I - iaL)^-1 and (I + iaL)^-1. For a real b the two
    are complex conjugates, so delta = Re[(I - iaL)^-1 b]: one complex factor
    of I - iaL, which has L's sparsity where L^T L has L^2's, per solver.
    kappa(I + s L^T L) <= kappa_bound = 1 + s * (2 * dmax)^2 (dmax the largest
    degree), and a system with eps * kappa_bound > SOLVE_TOLERANCE is rejected
    with a ValueError: on grid_mesh(10, 10) that is lr * w1 > 3.5e9. The factored
    matrix's condition number is only sqrt(kappa), so the bound is conservative:
    at its edge a random right-hand side is within 5e-14 of an eigendecomposition
    reference (relative to its largest entry) on the shipped meshes and
    grid_mesh(5, 4). A negative or non-finite lr or w1 is a ValueError naming
    it: for s < 0 the system is indefinite.
    """

    def __init__(self, mesh: LatentMesh, w1: float, lr: float):
        for name, value in (("lr", lr), ("w1", w1)):
            if not 0 <= value < np.inf:
                raise ValueError(f"{name} must be a finite number >= 0, got {value}")
        self.lap = build_laplacian(mesh)
        self.lr = float(lr)
        n = mesh.num_vertices
        if w1 == 0.0:
            self._solve = None
            return
        scale = self.lr * float(w1) * 2.0 / n
        # Python floats, so an overflow gives inf rather than a RuntimeWarning
        kappa = 1.0 + scale * (2.0 * float(self.lap.diagonal().max())) ** 2
        if not _EPS * kappa <= SOLVE_TOLERANCE:  # also fails on inf and NaN
            raise ValueError(f"lr * w1 = {self.lr * float(w1):g} is outside the smoothing "
                             f"solve's accuracy range: kappa_bound = {kappa:.3g}, and eps "
                             f"* kappa_bound must be <= {SOLVE_TOLERANCE:g}")
        import scipy.sparse as sp  # here: toy runs, plots and descents skip its ~0.2 s import

        mat = sp.identity(n, dtype=complex, format="csc") - 1j * math.sqrt(scale) * self.lap
        # The matrix is complex symmetric (L is symmetric), so a symmetric
        # minimum-degree ordering of A^T + A fills in far less than splu's
        # default column ordering.
        self._solve = sp.linalg.splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A").solve

    def step_delta(self, grad: np.ndarray) -> np.ndarray:
        raw = -self.lr * grad
        if self._solve is None:
            return raw
        return self._solve(raw).real


def view_gradient(mesh: LatentMesh, view: ViewSpec, t: int, rng: np.random.Generator,
                  oracle: NoiseOracle, target: Condition, weights: GuidanceWeights,
                  thresholds: StageThresholds) -> tuple[np.ndarray, np.ndarray]:
    """Code gradient of one view at timestep t, steered toward its target condition,
    as backprop_view's (rows, values) pair.

    Draws one noise sample from rng and nothing else (rendering draws nothing).
    """
    epsilon = rng.standard_normal(mesh.latent_dim)
    z_t = forward_diffuse(render_view(mesh, view), t, epsilon, oracle.schedule)
    res = target_residual(oracle, z_t, int(t), epsilon, target, weights, thresholds)
    return backprop_view(mesh, view, res)


def edit_step(mesh: LatentMesh, batch: list[tuple[ViewSpec, int]], oracle: NoiseOracle,
              profile: dict[int, Condition], rng: np.random.Generator,
              solver: SmoothedStepSolver, weights: GuidanceWeights = GuidanceWeights(),
              thresholds: StageThresholds = StageThresholds()) -> tuple[LatentMesh, dict]:
    """Accumulate per-view residual gradients over a batch of (view, t) pairs,
    smooth the candidate delta, apply it.

    Per-view work is pure; each view's support rows are added into one dense
    step total in view order, so results do not depend on evaluation
    scheduling. Returns the new mesh, which shares this one's validated
    topology, and the step's row: `grad_norms` (the region weights of the same
    per-view gradients), `view_counts` (views per region, every region in id
    order) and `smooth_loss`.

    Raises ValueError if a new code leaves the divergence guard
    (|code| > optimize.DIVERGENCE_GUARD, or not finite).
    """
    if not batch:
        raise ValueError("edit step needs at least one view")
    per_view = [view_gradient(mesh, view, t, rng, oracle, profile[view.region], weights,
                              thresholds) for view, t in batch]
    total = np.zeros_like(mesh.codes)
    # add.at sums repeated rows one by one in index order, i.e. in view order
    np.add.at(total, np.concatenate([rows for rows, _ in per_view]),
              np.concatenate([values for _, values in per_view]))
    delta = solver.step_delta(total)
    codes = mesh.codes + delta
    largest = np.abs(codes).max()
    if not largest <= DIVERGENCE_GUARD:  # also trips on NaN/inf
        raise ValueError(f"mesh codes diverged: largest |code| is {largest:g}, "
                         f"beyond the guard {DIVERGENCE_GUARD:g}")
    new_mesh = mesh.with_codes(codes)
    grad_norms = region_weights(per_view, mesh)
    counts = dict.fromkeys(grad_norms, 0)       # every mesh region, in id order
    for view, _ in batch:
        counts[int(view.region)] += 1
    return new_mesh, {"grad_norms": grad_norms, "view_counts": counts,
                      "smooth_loss": smoothness_loss(solver.lap, delta)}
