import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdse_lab.mesh import LatentMesh, grid_mesh
from sdse_lab.mixtures import FULL_COND, IMAGE_COND, toy_mixture
from sdse_lab.oracle import NoiseOracle
from sdse_lab.schedule import linear_beta_schedule
from sdse_lab.views import (RegionAllocation, SmoothedStepSolver, ViewSpec,
                            allocate_views, backprop_view, edit_step, make_view,
                            region_weights, render_view)


@pytest.fixture(scope="module")
def mesh():
    return grid_mesh(rows=5, cols=4, num_regions=5)


@pytest.fixture(scope="module")
def oracle():
    return NoiseOracle(toy_mixture(), linear_beta_schedule())


# ---------------------------------------------------------------------------
# views, render, backprop
# ---------------------------------------------------------------------------

def test_view_blend_must_sum_to_one():
    with pytest.raises(ValueError):
        ViewSpec(region=0, vertices=np.array([0, 1]), blend=np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        ViewSpec(region=0, vertices=np.array([0, 1]), blend=np.array([1.5, -0.5]))


def test_make_view_stays_inside_region(mesh):
    rng = np.random.default_rng(0)
    for region in range(5):
        view = make_view(mesh, region, rng)
        assert np.all(mesh.regions[view.vertices] == region)
        assert view.blend.sum() == pytest.approx(1.0, abs=1e-12)
        assert len(view.vertices) == min(8, len(mesh.region_vertices(region)))


def test_render_single_vertex(mesh):
    view = ViewSpec(region=0, vertices=np.array([2]), blend=np.array([1.0]))
    np.testing.assert_array_equal(render_view(mesh, view), mesh.codes[2])


def test_render_uniform_blend_of_identical_codes(mesh):
    verts = mesh.region_vertices(1)[:4]
    view = ViewSpec(region=1, vertices=verts, blend=np.full(4, 0.25))
    np.testing.assert_allclose(render_view(mesh, view), mesh.codes[verts[0]])


def test_render_convex_combination():
    codes = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 0.0]])
    m = LatentMesh(edges=((0, 1), (1, 2)), codes=codes,
                   regions=np.zeros(3, dtype=int))
    view = ViewSpec(region=0, vertices=np.array([0, 1]), blend=np.array([0.25, 0.75]))
    np.testing.assert_allclose(render_view(m, view), [3.0, 0.0])


def test_backprop_zero_residual(mesh):
    view = ViewSpec(region=0, vertices=np.array([0, 1]), blend=np.array([0.5, 0.5]))
    np.testing.assert_array_equal(backprop_view(mesh, view, np.zeros(2)),
                                  np.zeros((mesh.num_vertices, 2)))


def test_backprop_single_vertex(mesh):
    view = ViewSpec(region=0, vertices=np.array([3]), blend=np.array([1.0]))
    r = np.array([0.7, -0.2])
    grad = backprop_view(mesh, view, r)
    np.testing.assert_array_equal(grad[3], r)
    assert np.count_nonzero(grad) == 2


def test_backprop_linearity(mesh):
    rng = np.random.default_rng(1)
    view = make_view(mesh, 2, rng)
    r1, r2 = rng.standard_normal((2, 2))
    np.testing.assert_allclose(backprop_view(mesh, view, r1 + r2),
                               backprop_view(mesh, view, r1) + backprop_view(mesh, view, r2),
                               atol=1e-12)


def test_backprop_off_support_rows_are_zero(mesh):
    rng = np.random.default_rng(2)
    view = make_view(mesh, 3, rng)
    grad = backprop_view(mesh, view, np.array([1.0, 1.0]))
    outside = np.setdiff1d(np.arange(mesh.num_vertices), view.vertices)
    np.testing.assert_array_equal(grad[outside], 0.0)


# ---------------------------------------------------------------------------
# region weights
# ---------------------------------------------------------------------------

def test_zero_gradients_give_zero_weights(mesh):
    grads = [np.zeros((mesh.num_vertices, 2))]
    weights = region_weights(grads, mesh)
    assert all(w == 0.0 for w in weights.values())


def test_unit_norm_gradient_on_one_region(mesh):
    grad = np.zeros((mesh.num_vertices, 2))
    verts = mesh.region_vertices(2)
    grad[verts] = [1.0, 0.0]
    weights = region_weights([grad], mesh)
    assert weights[2] == pytest.approx(1.0)
    assert all(weights[r] == 0.0 for r in weights if r != 2)


def test_weights_are_homogeneous(mesh):
    rng = np.random.default_rng(3)
    grads = [rng.standard_normal((mesh.num_vertices, 2)) for _ in range(3)]
    w1 = region_weights(grads, mesh)
    w2 = region_weights([2.0 * g for g in grads], mesh)
    for r in w1:
        assert w2[r] == pytest.approx(2.0 * w1[r], rel=1e-12)


def test_empty_region_warns_and_zeroes(mesh):
    grads = [np.ones((mesh.num_vertices, 2))]
    with pytest.warns(UserWarning, match="empty"):
        weights = region_weights(grads, mesh, regions=[0, 99])
    assert weights[99] == 0.0
    assert weights[0] > 0.0


def test_region_weights_require_views(mesh):
    with pytest.raises(ValueError):
        region_weights([], mesh)
    with pytest.raises(ValueError):
        region_weights(iter([]), mesh)


def looped_region_weights(grads, mesh, regions):
    """Per-(region, view) loop the streamed weights must reproduce bit for bit."""
    out = {}
    for region in regions:
        verts = mesh.region_vertices(region)
        if verts.size == 0:
            out[int(region)] = 0.0
            continue
        total = 0.0
        for grad in grads:
            total += float(np.linalg.norm(grad[verts], axis=1).sum())
        out[int(region)] = total / (len(grads) * verts.size)
    return out


@pytest.mark.parametrize("rows, cols, dim", [(5, 4, 2), (30, 30, 3)])
def test_region_weights_match_per_region_loop_bitwise(rows, cols, dim):
    mesh = grid_mesh(rows=rows, cols=cols, num_regions=5, init_code=np.zeros(dim))
    rng = np.random.default_rng(11)
    grads = [rng.standard_normal((mesh.num_vertices, dim)) * rng.uniform(0.1, 10.0)
             for _ in range(7)]
    expected = looped_region_weights(grads, mesh, mesh.region_ids())
    assert region_weights(grads, mesh) == expected
    assert region_weights((g for g in grads), mesh) == expected
    with pytest.warns(UserWarning, match="empty"):
        assert region_weights(iter(grads), mesh, regions=[0, 99]) == \
            looped_region_weights(grads, mesh, [0, 99])


# ---------------------------------------------------------------------------
# allocation
# ---------------------------------------------------------------------------

def test_allocation_reproduces_body_dominant_row():
    weights = {0: 0.04, 1: 0.08, 2: 0.47, 3: 0.26, 4: 0.15}
    alloc = allocate_views(weights, 50_000)
    assert [alloc.counts[r] for r in range(5)] == [2000, 4000, 23500, 13000, 7500]


def test_allocation_reproduces_head_dominant_row():
    weights = {0: 0.07, 1: 0.20, 2: 0.30, 3: 0.31, 4: 0.12}
    alloc = allocate_views(weights, 50_000)
    assert [alloc.counts[r] for r in range(5)] == [3500, 10000, 15000, 15500, 6000]


def test_equal_weights_split_evenly():
    alloc = allocate_views({r: 1.0 for r in range(5)}, 50)
    assert all(alloc.counts[r] == 10 for r in range(5))


@given(st.lists(st.floats(0.0, 10.0), min_size=2, max_size=8),
       st.integers(0, 500))
def test_allocation_always_sums_to_total(weights, total):
    wmap = {i: w for i, w in enumerate(weights)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # all-zero draws hit the uniform fallback
        alloc = allocate_views(wmap, total)
    assert sum(alloc.counts.values()) == total


@given(st.lists(st.floats(0.001, 10.0), min_size=2, max_size=8),
       st.integers(1, 500))
def test_allocation_monotone_in_weights(weights, total):
    wmap = {i: w for i, w in enumerate(weights)}
    alloc = allocate_views(wmap, total)
    for a in wmap:
        for b in wmap:
            if wmap[a] > wmap[b]:  # exact ties go to the lower region index
                assert alloc.counts[a] >= alloc.counts[b]


def test_all_zero_weights_fall_back_to_uniform():
    with pytest.warns(UserWarning, match="uniform"):
        alloc = allocate_views({r: 0.0 for r in range(5)}, 10)
    assert all(alloc.counts[r] == 2 for r in range(5))


def test_allocation_validates_counts():
    with pytest.raises(ValueError):
        RegionAllocation(weights={0: 1.0}, counts={0: 3}, total=4)


# ---------------------------------------------------------------------------
# smoothed step and edit_step
# ---------------------------------------------------------------------------

def test_solver_without_smoothing_is_plain_descent(mesh):
    solver = SmoothedStepSolver(mesh, w1=0.0, lr=0.1)
    g = np.random.default_rng(4).standard_normal((mesh.num_vertices, 2))
    np.testing.assert_array_equal(solver.step_delta(g), -0.1 * g)


def test_solver_solves_the_fixed_point(mesh):
    from sdse_lab.mesh import smoothness_gradient

    solver = SmoothedStepSolver(mesh, w1=50.0, lr=0.05)
    g = np.random.default_rng(5).standard_normal((mesh.num_vertices, 2))
    delta = solver.step_delta(g)
    rhs = -0.05 * (g + 50.0 * smoothness_gradient(solver.lap, delta))
    np.testing.assert_allclose(delta, rhs, atol=1e-10)


def test_huge_smoothing_projects_onto_constants(mesh):
    solver = SmoothedStepSolver(mesh, w1=1e9, lr=0.05)
    g = np.random.default_rng(6).standard_normal((mesh.num_vertices, 2))
    delta = solver.step_delta(g)
    spread = np.abs(delta - delta.mean(axis=0)).max()
    assert spread < 1e-6
    np.testing.assert_allclose(delta.mean(axis=0), (-0.05 * g).mean(axis=0), rtol=1e-8)


def test_edit_step_zero_lr_keeps_mesh(mesh, oracle):
    rng = np.random.default_rng(7)
    views = [make_view(mesh, r, rng) for r in range(5)]
    solver = SmoothedStepSolver(mesh, w1=0.0, lr=0.0)
    profile = {r: IMAGE_COND for r in range(5)}
    out, report = edit_step(mesh, views, oracle, profile, [100] * 5, rng, solver)
    np.testing.assert_array_equal(out.codes, mesh.codes)
    assert report.smooth_loss == 0.0


def test_edit_step_without_smoothing_moves_only_supported_vertices(mesh, oracle):
    rng = np.random.default_rng(8)
    view = make_view(mesh, 0, rng)
    solver = SmoothedStepSolver(mesh, w1=0.0, lr=0.05)
    profile = {r: FULL_COND for r in range(5)}
    out, _ = edit_step(mesh, [view], oracle, profile, [400], rng, solver)
    changed = np.flatnonzero(np.any(out.codes != mesh.codes, axis=1))
    assert set(changed) <= set(view.vertices.tolist())


def test_edit_step_reports_counts_and_norms(mesh, oracle):
    rng = np.random.default_rng(9)
    views = [make_view(mesh, r, rng) for r in (0, 0, 3)]
    solver = SmoothedStepSolver(mesh, w1=10.0, lr=0.01)
    profile = {r: IMAGE_COND for r in range(5)}
    profile[0] = FULL_COND
    _, report = edit_step(mesh, views, oracle, profile, [500, 300, 100], rng, solver)
    assert report.view_counts == {0: 2, 1: 0, 2: 0, 3: 1, 4: 0}
    assert set(report.grad_norms) == {0, 1, 2, 3, 4}
    assert report.smooth_loss >= 0.0


def test_edit_step_needs_views(mesh, oracle):
    solver = SmoothedStepSolver(mesh, w1=0.0, lr=0.01)
    with pytest.raises(ValueError):
        edit_step(mesh, [], oracle, {r: IMAGE_COND for r in range(5)}, [],
                  np.random.default_rng(0), solver)


def test_smoothing_keeps_region_deltas_near_constant(oracle):
    """Dominant smoothing over many steps leaves per-vertex deltas nearly equal."""
    mesh = grid_mesh(rows=6, cols=6, num_regions=3)
    rng = np.random.default_rng(10)
    solver = SmoothedStepSolver(mesh, w1=1e9, lr=0.02)
    profile = {0: FULL_COND, 1: IMAGE_COND, 2: IMAGE_COND}
    current = mesh
    for _ in range(200):
        views = [make_view(current, r, rng) for r in (0, 1, 2)]
        ts = [int(rng.integers(1, 801)) for _ in range(3)]
        current, _ = edit_step(current, views, oracle, profile, ts, rng, solver)
    delta = current.codes - mesh.codes
    for region in range(3):
        rows = delta[current.regions == region]
        assert np.abs(rows - rows.mean(axis=0)).max() < 1e-3
