import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdse_lab.mesh import LatentMesh, build_laplacian, grid_mesh, load_mesh
from sdse_lab.mixtures import FULL_COND, IMAGE_COND, toy_mixture
from sdse_lab.oracle import NoiseOracle
from sdse_lab.schedule import linear_beta_schedule
from sdse_lab.views import (MAX_VIEWS_PER_STEP, SOLVE_TOLERANCE, SmoothedStepSolver, ViewSpec,
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

def test_make_view_stays_inside_region(mesh):
    # make_view is the only producer of views and ViewSpec does not check them,
    # so every property a view promises is checked here
    rng = np.random.default_rng(0)
    for m in (mesh, grid_mesh(rows=10, cols=10, num_regions=5),
              load_mesh("pkg:icosphere_mesh.json")):
        largest = max(m.region_vertices(r).size for r in m.region_ids().tolist())
        for support in (1, 8, largest + 1):
            for region in m.region_ids().tolist():
                for _ in range(10):
                    view = make_view(m, region, rng, support)
                    assert view.region == region
                    assert len(view.vertices) == min(support, m.region_vertices(region).size)
                    assert np.all(np.diff(view.vertices) > 0)       # sorted and distinct
                    assert np.all(m.regions[view.vertices] == region)
                    assert view.blend.shape == view.vertices.shape
                    assert np.all(view.blend >= 0)
                    assert abs(view.blend.sum() - 1.0) <= 1e-12


def test_make_view_draws_match_choice_and_dirichlet_bitwise():
    """make_view against the rng.choice-over-vertices and rng.dirichlet(np.ones(k))
    formulation it replaced: the same vertices, the same blend bits and the same
    generator state afterwards, for support below and at or above the region size."""
    m = grid_mesh(rows=10, cols=10, num_regions=5)                # 20 vertices a region
    for seed in range(3):
        for support in (1, 8, 20, 25):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for i in range(300):
                region = i % 5
                view = make_view(m, region, got_rng, support)
                verts = m.region_vertices(region)
                k = min(support, verts.size)
                chosen = np.sort(want_rng.choice(verts, size=k, replace=False))
                blend = want_rng.dirichlet(np.ones(k))
                blend = blend / blend.sum()
                np.testing.assert_array_equal(view.vertices, chosen)
                assert view.blend.tobytes() == blend.tobytes()
            assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("support, message", [
    (0, "must be >= 1"), (-2, "must be >= 1"), (2.5, "expected an integer"),
    (True, "expected a number"),
], ids=["zero", "negative", "float", "bool"])
def test_make_view_refuses_a_bad_support_before_any_draw(mesh, support, message):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^support: {message}$"):
        make_view(mesh, 0, rng, support)
    assert rng.bit_generator.state == state


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


def dense(mesh, pair):
    """The (N, latent_dim) gradient a (rows, values) view gradient stands for."""
    rows, values = pair
    grad = np.zeros((mesh.num_vertices, mesh.latent_dim))
    grad[rows] += values
    return grad


def as_pair(grad):
    """A dense gradient as a (rows, values) pair over every row."""
    return np.arange(len(grad)), grad


def test_backprop_returns_the_support_rows(mesh):
    rng = np.random.default_rng(0)
    view = make_view(mesh, 1, rng, 8)
    r = np.array([0.3, -1.1])
    rows, values = backprop_view(mesh, view, r)
    np.testing.assert_array_equal(rows, view.vertices)
    np.testing.assert_array_equal(values, view.blend[:, None] * r)


def test_backprop_zero_residual(mesh):
    view = ViewSpec(region=0, vertices=np.array([0, 1]), blend=np.array([0.5, 0.5]))
    np.testing.assert_array_equal(dense(mesh, backprop_view(mesh, view, np.zeros(2))),
                                  np.zeros((mesh.num_vertices, 2)))


def test_backprop_single_vertex(mesh):
    view = ViewSpec(region=0, vertices=np.array([3]), blend=np.array([1.0]))
    r = np.array([0.7, -0.2])
    grad = dense(mesh, backprop_view(mesh, view, r))
    np.testing.assert_array_equal(grad[3], r)
    assert np.count_nonzero(grad) == 2


def test_backprop_linearity(mesh):
    rng = np.random.default_rng(1)
    view = make_view(mesh, 2, rng, 8)
    r1, r2 = rng.standard_normal((2, 2))
    np.testing.assert_allclose(dense(mesh, backprop_view(mesh, view, r1 + r2)),
                               dense(mesh, backprop_view(mesh, view, r1))
                               + dense(mesh, backprop_view(mesh, view, r2)),
                               atol=1e-12)


def test_backprop_off_support_rows_are_zero(mesh):
    rng = np.random.default_rng(2)
    view = make_view(mesh, 3, rng, 8)
    grad = dense(mesh, backprop_view(mesh, view, np.array([1.0, 1.0])))
    outside = np.setdiff1d(np.arange(mesh.num_vertices), view.vertices)
    np.testing.assert_array_equal(grad[outside], 0.0)


# ---------------------------------------------------------------------------
# region weights
# ---------------------------------------------------------------------------

def test_zero_gradients_give_zero_weights(mesh):
    grads = [as_pair(np.zeros((mesh.num_vertices, 2)))]
    weights = region_weights(grads, mesh)
    assert all(w == 0.0 for w in weights.values())


def test_unit_norm_gradient_on_one_region(mesh):
    verts = mesh.region_vertices(2)
    weights = region_weights([(verts, np.tile([1.0, 0.0], (verts.size, 1)))], mesh)
    assert weights[2] == pytest.approx(1.0)
    assert all(weights[r] == 0.0 for r in weights if r != 2)


def test_weights_are_homogeneous(mesh):
    rng = np.random.default_rng(3)
    grads = [rng.standard_normal((mesh.num_vertices, 2)) for _ in range(3)]
    w1 = region_weights([as_pair(g) for g in grads], mesh)
    w2 = region_weights([as_pair(2.0 * g) for g in grads], mesh)
    for r in w1:
        assert w2[r] == pytest.approx(2.0 * w1[r], rel=1e-12)


def test_region_weights_require_views(mesh):
    with pytest.raises(ValueError):
        region_weights([], mesh)
    with pytest.raises(ValueError):
        region_weights(iter([]), mesh)


def looped_region_weights(grads, mesh):
    """Per-(region, view) loop over dense gradients, the old definition of the weights."""
    out = {}
    for region in mesh.region_ids():
        verts = mesh.region_vertices(region)
        total = 0.0
        for grad in grads:
            total += float(np.linalg.norm(grad[verts], axis=1).sum())
        out[int(region)] = total / (len(grads) * verts.size)
    return out


def assert_weights_close(got, want, rtol=1e-14):
    assert list(got) == list(want)
    for region, value in want.items():
        assert abs(got[region] - value) <= rtol * abs(value), region


@pytest.mark.parametrize("rows, cols, dim", [(5, 4, 2), (30, 30, 3)])
def test_region_weights_match_per_region_loop(rows, cols, dim):
    """Support-row sums equal the dense per-region loop up to summation order."""
    mesh = grid_mesh(rows=rows, cols=cols, num_regions=5, init_code=np.zeros(dim))
    rng = np.random.default_rng(11)
    pairs = []
    for _ in range(7):
        support = rng.integers(1, mesh.num_vertices + 1)
        verts = np.sort(rng.choice(mesh.num_vertices, size=support, replace=False))
        pairs.append((verts, rng.standard_normal((support, dim)) * rng.uniform(0.1, 10.0)))
    grads = [dense(mesh, pair) for pair in pairs]
    expected = looped_region_weights(grads, mesh)
    assert_weights_close(region_weights(pairs, mesh), expected)
    assert_weights_close(region_weights((p for p in pairs), mesh), expected)


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


@pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf], ids=["negative", "nan", "inf"])
def test_weight_that_is_not_finite_and_non_negative_is_refused_naming_its_region(bad):
    """A NaN or infinite weight would round to a negative view count."""
    with pytest.raises(ValueError, match=rf"^weights must be finite and >= 0; region 3 has "
                                         rf"{bad!r}$"):
        allocate_views({0: 1.0, 3: bad, 1: 2.0}, 10)


@pytest.mark.parametrize("weights, total, message", [
    ({0: 1.0}, 10**20, f"total: must be <= {MAX_VIEWS_PER_STEP}"),
    ({0: 1.0}, MAX_VIEWS_PER_STEP + 1, f"total: must be <= {MAX_VIEWS_PER_STEP}"),
    ({0: 1.0}, -1, "total: must be >= 0"),
    ({0: 1.0}, 2.5, "total: expected an integer"),
    ({0: 1.0}, True, "total: expected a number"),
    ({}, 3, "weights must name at least one region"),
], ids=["beyond-int64", "beyond-bound", "negative", "fractional", "bool", "no-regions"])
def test_bad_total_or_empty_weights_is_refused_naming_it(weights, total, message):
    """Without the check 10**20 wraps to a negative count, 2.5 fails inside
    numpy and no regions drops the views."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        allocate_views(weights, total)


def test_allocation_at_the_bound_sums_to_total():
    """The largest total taken, given as a numpy integer, is filled exactly."""
    alloc = allocate_views({0: 0.3, 1: 0.6}, np.int64(MAX_VIEWS_PER_STEP))
    assert sum(alloc.counts.values()) == MAX_VIEWS_PER_STEP
    assert alloc.counts[1] - 2 * alloc.counts[0] in (-2, -1, 0, 1)


def test_all_zero_weights_fall_back_to_uniform():
    with pytest.warns(UserWarning, match="uniform"):
        alloc = allocate_views({r: 0.0 for r in range(5)}, 10)
    assert all(alloc.counts[r] == 2 for r in range(5))


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


@pytest.mark.parametrize("rows,cols", [(10, 10), (100, 100)])
def test_step_delta_matches_per_column_lu_solve_bitwise(rows, cols):
    """One (N, 2) solve equals per-column solves of the same complex factor of
    I - i*a*L, a = sqrt(s), real part taken."""
    from scipy.sparse import identity
    from scipy.sparse.linalg import splu

    big = grid_mesh(rows=rows, cols=cols)
    lr, w1, n = 0.02, 300.0, big.num_vertices
    solver = SmoothedStepSolver(big, w1=w1, lr=lr)
    a = np.sqrt(lr * w1 * 2.0 / n)
    lu = splu((identity(n, dtype=complex, format="csc") - 1j * a * solver.lap).tocsc(),
              permc_spec="MMD_AT_PLUS_A")
    rng = np.random.default_rng(rows)
    for _ in range(3):
        grad = rng.standard_normal((n, 2))
        raw = -lr * grad
        want = np.column_stack([lu.solve(raw[:, d]).real for d in range(2)])
        np.testing.assert_array_equal(solver.step_delta(grad), want)


@pytest.mark.parametrize("name", ["grid-10x10", "grid-100x100", "icosphere"])
def test_step_delta_matches_colamd_ordered_solve(name):
    """The symmetric ordering changes only roundoff against splu's default ordering."""
    from scipy.sparse import identity
    from scipy.sparse.linalg import splu

    big = {"grid-10x10": lambda: grid_mesh(rows=10, cols=10),
           "grid-100x100": lambda: grid_mesh(rows=100, cols=100),
           "icosphere": lambda: load_mesh("pkg:icosphere_mesh.json")}[name]()
    lr, w1, n = 0.02, 300.0, big.num_vertices
    solver = SmoothedStepSolver(big, w1=w1, lr=lr)
    lu = splu((identity(n, format="csc")
               + (lr * w1 * 2.0 / n) * (solver.lap.T @ solver.lap)).tocsc(),
              permc_spec="COLAMD")
    rng = np.random.default_rng(n)
    for _ in range(3):
        grad = rng.standard_normal((n, 2))
        want = lu.solve(-lr * grad)
        got = solver.step_delta(grad)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


OUT_OF_RANGE = r"lr \* w1 = .* is outside the smoothing solve's accuracy range"


@pytest.mark.parametrize("lr, w1", [(1e300, 1e10), (1e10, 1e300), (1e154, 1e154)],
                         ids=["scale", "scale-w1", "matrix"])
def test_overflowing_smoothing_system_is_a_value_error(mesh, lr, w1):
    # lr * w1 overflows in the first two; in the third, lr * w1 = 1e308 is
    # finite but its condition bound overflows
    with pytest.raises(ValueError, match=OUT_OF_RANGE + r": kappa_bound = inf"):
        SmoothedStepSolver(mesh, w1=w1, lr=lr)


def test_huge_finite_smoothing_system_is_rejected(mesh):
    with pytest.raises(ValueError, match=OUT_OF_RANGE + r": kappa_bound = 6\.4e\+200, "
                                         r"and eps \* kappa_bound must be <= 1e-06"):
        SmoothedStepSolver(mesh, w1=1e100, lr=1e100)


def edge_of_range(mesh):
    """lr * w1 at which eps * kappa_bound equals SOLVE_TOLERANCE on this mesh."""
    dmax = build_laplacian(mesh).diagonal().max()
    scale = (SOLVE_TOLERANCE / np.finfo(float).eps - 1.0) / (2.0 * dmax) ** 2
    return scale * mesh.num_vertices / 2.0


@pytest.mark.parametrize("name", ["grid-5x4", "grid-10x10", "grid-100x100", "icosphere"])
def test_all_ones_solve_is_accurate_at_the_edge_of_the_range(name):
    """The exact answer is all ones; inside the range the solve stays within the
    tolerance, and just past its edge the solver refuses the system."""
    big = {"grid-5x4": lambda: grid_mesh(rows=5, cols=4),
           "grid-10x10": lambda: grid_mesh(rows=10, cols=10),
           "grid-100x100": lambda: grid_mesh(rows=100, cols=100),
           "icosphere": lambda: load_mesh("pkg:icosphere_mesh.json")}[name]()
    edge = edge_of_range(big)
    solver = SmoothedStepSolver(big, w1=edge * (1.0 - 1e-9), lr=1.0)
    ones = np.ones((big.num_vertices, 2))
    assert np.abs(solver.step_delta(-ones) - 1.0).max() <= SOLVE_TOLERANCE
    with pytest.raises(ValueError, match=OUT_OF_RANGE):
        SmoothedStepSolver(big, w1=edge * (1.0 + 1e-9), lr=1.0)


@pytest.mark.parametrize("name", ["grid-5x4", "grid-shipped", "icosphere"])
@pytest.mark.parametrize("where", ["lr-w1-6", "edge", "edge-top-eigenvector",
                                   "edge-second-eigenvector"])
def test_random_solve_matches_the_eigendecomposition(name, where):
    """Against V diag(1 / (1 + s lam^2)) V^T b from L = V diag(lam) V^T, a random
    right-hand side comes back within the tolerance, at the default lr * w1 and
    just inside the edge of the range (L 1 = 0 makes an all-ones one exact). So
    do L's top two eigenvectors at the edge: the answer there is about a lam times
    smaller than the complex solve whose real part it is, and its error comes
    closest to the tolerance (3.5e-8 to 2.5e-7 here)."""
    big = {"grid-5x4": lambda: grid_mesh(rows=5, cols=4),
           "grid-shipped": lambda: load_mesh("pkg:grid_mesh.json"),
           "icosphere": lambda: load_mesh("pkg:icosphere_mesh.json")}[name]()
    n = big.num_vertices
    lr_w1 = 6.0 if where == "lr-w1-6" else edge_of_range(big) * (1.0 - 1e-9)
    solver = SmoothedStepSolver(big, w1=lr_w1, lr=1.0)
    lam, vec = np.linalg.eigh(build_laplacian(big).toarray())
    grad = np.random.default_rng(n).standard_normal((n, 2))
    if where.endswith("eigenvector"):
        top = vec[:, -1 if where == "edge-top-eigenvector" else -2]
        grad = np.column_stack([top, -0.5 * top])
    want = vec @ ((vec.T @ -grad) / (1.0 + (lr_w1 * 2.0 / n) * lam ** 2)[:, None])
    got = solver.step_delta(grad)
    assert np.abs(got - want).max() <= SOLVE_TOLERANCE * np.abs(want).max()


@pytest.mark.parametrize("w1", [0.0, 300.0], ids=["w1-0", "w1-300"])
@pytest.mark.parametrize("name", ["grid-5x4", "one-vertex"])
def test_step_delta_is_real_with_the_gradient_shape(name, w1):
    """The complex factor stays inside the solver: with_codes would see a complex
    delta's imaginary part dropped (a ComplexWarning, an error in this suite)."""
    big = {"grid-5x4": lambda: grid_mesh(rows=5, cols=4),
           "one-vertex": lambda: LatentMesh(edges=[], codes=[[0.5, -0.5]], regions=[0])}[name]()
    solver = SmoothedStepSolver(big, w1=w1, lr=0.02)
    grad = np.random.default_rng(11).standard_normal((big.num_vertices, 2))
    delta = solver.step_delta(grad)
    assert delta.dtype == np.float64
    assert delta.shape == grad.shape
    big.with_codes(big.codes + delta)


@pytest.mark.parametrize("lr, w1, message", [
    (0.02, -300.0, "w1: must be >= 0.0"), (-0.02, 300.0, "lr: must be >= 0.0"),
    (np.nan, 0.0, "lr: expected a finite number"), (np.inf, 0.0, "lr: expected a finite number"),
    (0.02, np.nan, "w1: expected a finite number"), (0.02, np.inf, "w1: expected a finite number"),
], ids=["w1-negative", "lr-negative", "lr-nan", "lr-inf", "w1-nan", "w1-inf"])
def test_solver_refuses_a_negative_or_non_finite_lr_or_w1(mesh, lr, w1, message):
    """For s < 0 the system is indefinite and its condition bound does not hold;
    a non-finite lr at w1 = 0 would only show as diverged codes at step 1."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        SmoothedStepSolver(mesh, w1=w1, lr=lr)


def test_huge_smoothing_projects_onto_constants(mesh):
    solver = SmoothedStepSolver(mesh, w1=1e9, lr=0.05)
    g = np.random.default_rng(6).standard_normal((mesh.num_vertices, 2))
    delta = solver.step_delta(g)
    spread = np.abs(delta - delta.mean(axis=0)).max()
    assert spread < 1e-6
    np.testing.assert_allclose(delta.mean(axis=0), (-0.05 * g).mean(axis=0), rtol=1e-8)


def test_edit_step_zero_lr_keeps_mesh(mesh, oracle):
    rng = np.random.default_rng(7)
    batch = [(make_view(mesh, r, rng, 8), 100) for r in range(5)]
    solver = SmoothedStepSolver(mesh, w1=0.0, lr=0.0)
    profile = {r: IMAGE_COND for r in range(5)}
    out, row = edit_step(mesh, batch, oracle, profile, rng, solver)
    np.testing.assert_array_equal(out.codes, mesh.codes)
    assert row["smooth_loss"] == 0.0


def test_edit_step_without_smoothing_moves_only_supported_vertices(mesh, oracle):
    rng = np.random.default_rng(8)
    view = make_view(mesh, 0, rng, 8)
    solver = SmoothedStepSolver(mesh, w1=0.0, lr=0.05)
    profile = {r: FULL_COND for r in range(5)}
    out, _ = edit_step(mesh, [(view, 400)], oracle, profile, rng, solver)
    changed = np.flatnonzero(np.any(out.codes != mesh.codes, axis=1))
    assert set(changed) <= set(view.vertices.tolist())


def test_edit_step_reports_counts_and_norms(mesh, oracle):
    rng = np.random.default_rng(9)
    views = [make_view(mesh, r, rng, 8) for r in (0, 0, 3)]
    solver = SmoothedStepSolver(mesh, w1=10.0, lr=0.01)
    profile = {r: IMAGE_COND for r in range(5)}
    profile[0] = FULL_COND
    _, row = edit_step(mesh, list(zip(views, [500, 300, 100])), oracle, profile, rng, solver)
    assert list(row) == ["grad_norms", "view_counts", "smooth_loss"]
    assert row["view_counts"] == {0: 2, 1: 0, 2: 0, 3: 1, 4: 0}
    assert set(row["grad_norms"]) == {0, 1, 2, 3, 4}
    assert row["smooth_loss"] >= 0.0


def test_edit_step_needs_views(mesh, oracle):
    solver = SmoothedStepSolver(mesh, w1=0.0, lr=0.01)
    with pytest.raises(ValueError):
        edit_step(mesh, [], oracle, {r: IMAGE_COND for r in range(5)},
                  np.random.default_rng(0), solver)


def test_smoothing_keeps_region_deltas_near_constant(oracle):
    """Dominant smoothing over many steps leaves per-vertex deltas nearly equal."""
    mesh = grid_mesh(rows=6, cols=6, num_regions=3)
    rng = np.random.default_rng(10)
    solver = SmoothedStepSolver(mesh, w1=1e9, lr=0.02)
    profile = {0: FULL_COND, 1: IMAGE_COND, 2: IMAGE_COND}
    current = mesh
    for _ in range(200):
        views = [make_view(current, r, rng, 8) for r in (0, 1, 2)]
        ts = [int(rng.integers(1, 801)) for _ in range(3)]
        current, _ = edit_step(current, list(zip(views, ts)), oracle, profile, rng, solver)
    delta = current.codes - mesh.codes
    for region in range(3):
        rows = delta[current.regions == region]
        assert np.abs(rows - rows.mean(axis=0)).max() < 1e-3
