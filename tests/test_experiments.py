import re
import warnings

import numpy as np
import pytest

from sdse_lab import experiments
from sdse_lab.experiments import (Classification, MeshEditConfig, Phase, PROFILES,
                                  convergence_check, mode_distance_of_regions, phase_band,
                                  region_dispersion, residual_ema_norm, run_full_schedule,
                                  run_mesh_edit)
from sdse_lab.fields import ConfigError
from sdse_lab.guidance import EstimatorKind, StageThresholds
from sdse_lab.mesh import LatentMesh, grid_mesh, smoothness_loss
from sdse_lab.mixtures import FULL_COND, IMAGE_COND, toy_mixture
from sdse_lab.optimize import Trajectory, optimize_point, optimize_seeds
from sdse_lab.oracle import NoiseOracle, forward_diffuse
from sdse_lab.samplers import SamplerKind, TimestepSampler
from sdse_lab.schedule import linear_beta_schedule
from sdse_lab.views import (MAX_VIEWS_PER_STEP, SmoothedStepSolver, allocate_views,
                            backprop_view, make_view, region_weights, target_residual)

MIX = toy_mixture()
SCHED = linear_beta_schedule()
MODES = MIX.mode_points(FULL_COND)


def make_traj(thetas, residuals=None, guard=False):
    thetas = np.asarray(thetas, dtype=float)
    n = len(thetas)
    if residuals is None:
        residuals = np.zeros_like(thetas)
    return Trajectory(steps=np.arange(n), timesteps=np.zeros(n, dtype=int),
                      thetas=thetas, residuals=np.asarray(residuals, dtype=float),
                      densities=np.zeros((n, 3)), seed=0, guard_tripped=guard)


# ---------------------------------------------------------------------------
# convergence classification
# ---------------------------------------------------------------------------

def test_exact_mode_is_converged_distance_zero():
    traj = make_traj([[0.5, 1.0], [1.5, 1.4]])
    report = convergence_check(traj, MODES, tol=0.05)
    assert report.classification is Classification.CONVERGED
    assert report.distance == 0.0
    np.testing.assert_array_equal(report.nearest_mode, [1.5, 1.4])


def test_stalled_midpoint_is_intermediate_trap():
    thetas = np.tile([1.5, 0.9], (120, 1))
    residuals = 1e-5 * np.ones((120, 2))
    traj = make_traj(thetas, residuals)
    report = convergence_check(traj, MODES, tol=0.05, grad_tol=1e-3)
    assert report.classification is Classification.INTERMEDIATE_TRAP
    assert report.distance == pytest.approx(0.5)


def test_guard_tripped_is_diverged():
    traj = make_traj([[0.5, 1.0], [2000.0, 0.0]], guard=True)
    report = convergence_check(traj, MODES, tol=0.05)
    assert report.classification is Classification.DIVERGED


def test_nan_distance_rejected():
    traj = make_traj([[0.5, 1.0], [np.nan, np.nan]])
    with pytest.raises(ValueError, match="distance"):
        convergence_check(traj, MODES, tol=0.05)


@pytest.mark.parametrize("tol, message", [
    (np.nan, "expected a finite number"), (0.0, "must be > 0"), (True, "expected a number"),
], ids=["nan", "zero", "bool"])
def test_tol_that_is_not_a_positive_finite_number_is_refused(tol, message):
    """A NaN tol used to be taken, and no run could then be CONVERGED."""
    traj = make_traj([[0.5, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match=f"^tol: {message}$"):
        convergence_check(traj, MODES, tol=tol)


def test_moving_far_iterate_is_wandering():
    rng = np.random.default_rng(0)
    thetas = rng.uniform(-1, 3, size=(80, 2))
    residuals = rng.standard_normal((80, 2))
    traj = make_traj(thetas, residuals)
    report = convergence_check(traj, MODES, tol=1e-6)
    assert report.classification is Classification.WANDERING


def test_residual_ema_norm_repeats_the_array_recurrence_bitwise():
    rng = np.random.default_rng(5)
    residuals = rng.standard_normal((400, 2)) * 10.0 ** rng.integers(-9, 5, size=(400, 1))
    residuals[0] = 0.0
    alpha = 2.0 / (50 + 1.0)
    ema = np.zeros(2)
    for row in residuals[1:]:
        ema = (1.0 - alpha) * ema + alpha * row
    traj = make_traj(np.zeros((400, 2)), residuals)
    assert residual_ema_norm(traj, window=50) == float(np.linalg.norm(ema))


def test_ema_window_controls_smoothing():
    # loud prefix followed by silence: a short window forgets the prefix faster
    residuals = np.vstack([np.ones((200, 2)), np.zeros((50, 2))])
    traj = make_traj(np.zeros((251, 2)), np.vstack([[0.0, 0.0], residuals]))
    short = residual_ema_norm(traj, window=5)
    long = residual_ema_norm(traj, window=500)
    assert short < 1e-6 < long


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def test_phase_bands_mirror_staging():
    th = StageThresholds()
    assert phase_band(Phase.EARLY_LARGE, th, 1000) == (801, 1000)
    assert phase_band(Phase.MIDDLE, th, 1000) == (151, 800)
    assert phase_band(Phase.SMALL, th, 1000) == (1, 150)


# ---------------------------------------------------------------------------
# full schedule
# ---------------------------------------------------------------------------

def test_full_schedule_zero_lr_wanders_at_start():
    sampler = TimestepSampler(SamplerKind.UNIFORM, 1, 800, 40)
    results = run_full_schedule(EstimatorKind.SDSE, sampler, MIX, SCHED,
                                seeds=[0, 1], lr=0.0, steps=40)
    for traj, report in results:
        np.testing.assert_array_equal(traj.final_theta, [0.5, 1.0])
        assert report.classification in (Classification.WANDERING,
                                         Classification.INTERMEDIATE_TRAP)


@pytest.mark.parametrize("seeds, message", [
    ([], "seeds: expected a non-empty list"), ([0, 2.5], "seeds[1]: expected an integer"),
    (5, "seeds: expected a non-empty list"), (None, "seeds: expected a non-empty list"),
    ([1, 1], "seeds[1]: repeats seeds[0] (1)"),
], ids=["empty", "fractional-second", "int", "none", "repeated"])
def test_full_schedule_reads_its_seed_list_before_any_run(monkeypatch, seeds, message):
    """[] used to return no run, [0, 2.5] ran seed 0 before blaming seeds[0], 5 and None
    ended in a TypeError, and [1, 1] ran seed 1 twice."""
    def no_run(*args, **kwargs):
        raise AssertionError("a descent was run")

    monkeypatch.setattr(experiments, "optimize_point", no_run)
    sampler = TimestepSampler(SamplerKind.NON_INCREASING, 1, 800, 10)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_full_schedule(EstimatorKind.SDSE, sampler, MIX, SCHED, seeds=seeds, lr=1e-2,
                          steps=10)


def test_full_schedule_rejects_out_of_band_sampler():
    sampler = TimestepSampler(SamplerKind.UNIFORM, 1, 900, 10)
    with pytest.raises(ValueError, match="middle_max"):
        run_full_schedule(EstimatorKind.SDSE, sampler, MIX, SCHED, seeds=[0],
                          lr=1e-2, steps=10)


@pytest.mark.parametrize("estimator", [EstimatorKind.SDSE, EstimatorKind.SDSE_PRIME])
def test_full_schedule_rejects_large_timesteps_for_staged_estimators(estimator):
    sampler = TimestepSampler(SamplerKind.UNIFORM, 1, 801, 10)
    message = "sampler.t_max: must be <= middle_max (800) when a staged estimator runs"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_full_schedule(estimator, sampler, MIX, SCHED, seeds=[0], lr=1e-2, steps=10)


@pytest.mark.parametrize("estimator,num_steps,t_max", [(EstimatorKind.SDS, 1000, 1001),
                                                       (EstimatorKind.SDSE, 50, 800)])
def test_full_schedule_names_a_sampler_beyond_the_schedule(estimator, num_steps, t_max):
    sampler = TimestepSampler(SamplerKind.UNIFORM, 1, t_max, 10)
    message = f"sampler.t_max: must be <= {num_steps}, the schedule's last step"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_full_schedule(estimator, sampler, MIX, linear_beta_schedule(num_steps),
                          seeds=[0], lr=1e-2, steps=10)


def test_full_schedule_runs_sds_over_the_whole_schedule_with_default_thresholds():
    """Only staged estimators exclude t > middle_max, as `parse_toy_config` rules."""
    sampler = TimestepSampler(SamplerKind.UNIFORM, 1, 1000, 20)
    [(traj, _)] = run_full_schedule(EstimatorKind.SDS, sampler, MIX, SCHED, seeds=[0],
                                    lr=1e-2, steps=20)
    assert traj.timesteps.max() > StageThresholds().middle_max
    assert np.all(np.isfinite(traj.thetas))


# ---------------------------------------------------------------------------
# recorded densities
# ---------------------------------------------------------------------------

def test_diagnostics_small_t_shift_directions():
    """The baseline-shift estimator climbs the image/unconditional ratio while
    the unconditional density falls over the first half of the run."""
    sampler = TimestepSampler(SamplerKind.UNIFORM, 1, 150, 300)
    traj = optimize_point([0.5, 1.0], EstimatorKind.M1_ONLY, sampler, MIX, SCHED,
                          lr=1e-2, steps=300, seed=0)
    p, p_img = traj.densities[:, 0], traj.densities[:, 1]
    half = 150
    assert np.log(p_img[half] / p[half]) > np.log(p_img[0] / p[0])
    assert p[half] < p[0]


# ---------------------------------------------------------------------------
# mesh edits
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_mesh_run():
    mesh = grid_mesh(rows=10, cols=10, num_regions=5)
    cfg = MeshEditConfig(steps=30, views_per_step=10, first_batch=100,
                         threshold_distance=0.9)
    reports = run_mesh_edit(mesh, "head_dominant", MIX, SCHED, seeds=[0], config=cfg)
    return mesh, reports


def test_mesh_edit_report_structure(small_mesh_run):
    mesh, reports = small_mesh_run
    assert len(reports) == 1
    report = reports[0]
    assert sum(report.allocation.counts.values()) == 10
    assert set(report.dispersion) == {0, 1, 2, 3, 4}
    assert len(report.smooth_losses) == 30
    rows = report.grad_norm_rows
    # steps start at 1; the measuring pass applies no update
    assert [row["step"] for row in rows] == list(range(1, 31))
    assert all(set(row["grad_norms"]) == {0, 1, 2, 3, 4} for row in rows)


def test_mesh_edit_allocation_fixed_after_first_iteration(small_mesh_run):
    _, reports = small_mesh_run
    report = reports[0]
    for entry in report.grad_norm_rows:
        assert entry["view_counts"] == report.allocation.counts


def test_mesh_edit_allocator_focuses_edited_region(small_mesh_run):
    _, reports = small_mesh_run
    counts = reports[0].allocation.counts
    assert counts[0] == max(counts.values())
    assert counts[0] >= 4


def test_mesh_edit_deterministic(small_mesh_run):
    mesh, reports = small_mesh_run
    cfg = MeshEditConfig(steps=30, views_per_step=10, first_batch=100,
                         threshold_distance=0.9)
    again = run_mesh_edit(mesh, "head_dominant", MIX, SCHED, seeds=[0], config=cfg)
    np.testing.assert_array_equal(again[0].final_mesh.codes,
                                  reports[0].final_mesh.codes)
    assert again[0].steps_to_threshold == reports[0].steps_to_threshold


def test_mesh_edit_no_allocator_records_uniform():
    mesh = grid_mesh(rows=5, cols=5, num_regions=5)
    cfg = MeshEditConfig(steps=3, views_per_step=10, first_batch=50,
                         allocator=False)
    reports = run_mesh_edit(mesh, "head_dominant", MIX, SCHED, seeds=[0], config=cfg)
    assert all(c == 2 for c in reports[0].allocation.counts.values())


def _reference_mesh_edit(mesh, profile, seed, config):
    """run_mesh_edit's per-seed loop spelled out from the public primitives.

    Random draws in order: measuring pass view, t, noise per view; then each
    step draws all its views and t's before each view's noise. View gradients
    are backprop_view's (rows, values) pairs, added into the step total in
    view order.
    """
    oracle = NoiseOracle(MIX, SCHED)
    rng = np.random.default_rng(seed)
    solver = SmoothedStepSolver(mesh, config.w1, config.lr)

    def draw(current, counts):
        for region, count in counts.items():
            for _ in range(count):
                view = make_view(current, region, rng, config.support)
                yield view, int(rng.integers(config.t_min, config.t_max + 1))

    def gradient(current, view, t):
        eps = rng.standard_normal(current.latent_dim)
        z_t = forward_diffuse(view.blend @ current.codes[view.vertices], t, eps, SCHED)
        res = target_residual(oracle, z_t, t, eps, profile[view.region], config.weights,
                              config.thresholds)
        return backprop_view(current, view, res)

    uniform = {int(r): 1.0 for r in mesh.region_ids()}
    measured = []
    for view, t in draw(mesh, allocate_views(uniform, config.first_batch).counts):
        measured.append(gradient(mesh, view, t))  # before the next view is drawn
    weights = region_weights(measured, mesh)
    allocation = allocate_views(weights if config.allocator else uniform,
                                config.views_per_step)
    current, losses = mesh, []
    for _ in range(config.steps):
        batch = list(draw(current, allocation.counts))
        grads = [gradient(current, view, t) for view, t in batch]
        total = np.zeros_like(current.codes)
        for rows, values in grads:
            total[rows] += values
        delta = solver.step_delta(total)
        current = current.with_codes(current.codes + delta)
        losses.append(smoothness_loss(solver.lap, delta))
    return allocation, current, losses


@pytest.mark.parametrize("allocator", [True, False])
def test_mesh_edit_matches_primitive_loop_bitwise(allocator):
    mesh = grid_mesh(rows=6, cols=6, num_regions=3)
    profile = {0: FULL_COND, 1: IMAGE_COND, 2: FULL_COND}
    cfg = MeshEditConfig(steps=4, views_per_step=5, first_batch=12, support=3, w1=300.0,
                         allocator=allocator)
    reports = run_mesh_edit(mesh, profile, MIX, SCHED, seeds=[3, 4], config=cfg)
    for report in reports:
        allocation, final, losses = _reference_mesh_edit(mesh, profile, report.seed, cfg)
        assert report.allocation.weights == allocation.weights
        assert report.allocation.counts == allocation.counts
        np.testing.assert_array_equal(report.final_mesh.codes, final.codes)
        assert report.smooth_losses.tolist() == losses


def test_mesh_edit_requires_complete_profile():
    mesh = grid_mesh(rows=5, cols=5, num_regions=5)
    with pytest.raises(ValueError, match="profile missing"):
        run_mesh_edit(mesh, {0: FULL_COND}, MIX, SCHED, seeds=[0],
                      config=MeshEditConfig(steps=1))


@pytest.mark.parametrize("t_min, t_max, message", [
    (9, 3, "t_max: must be >= t_min"),
    (1, 1200, "t_max: must be <= 1000, the schedule's last step"),
    (700, 1000, "t_max: must be <= middle_max (800) when a staged estimator runs"),
    (0, 5, "t_min: must be >= 1"),
], ids=["reversed", "beyond-schedule", "beyond-middle-max", "zero"])
def test_mesh_edit_refuses_a_bad_timestep_range_before_any_step(t_min, t_max, message):
    """Without the check these fail inside numpy's integer draw, or mid-run
    naming a drawn timestep rather than the range. The config refuses a reversed
    or zero range when built; run_mesh_edit refuses a t_max past its cap."""
    mesh = grid_mesh(rows=5, cols=5, num_regions=5)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_mesh_edit(mesh, "head_dominant", MIX, SCHED, seeds=[0],
                      config=MeshEditConfig(steps=1, t_min=t_min, t_max=t_max))


@pytest.mark.parametrize("field, value, message", [
    ("w1", -300.0, "must be >= 0.0"), ("lr", -0.02, "must be >= 0.0"),
    ("steps", 0, "must be >= 1"), ("steps", 2.5, "expected an integer"),
    ("steps", True, "expected a number"), ("views_per_step", 0, "must be >= 1"),
    ("first_batch", 2.5, "expected an integer"),
    ("t_min", 1.5, "expected an integer"), ("t_max", 2.5, "expected an integer"),
    ("threshold_distance", np.nan, "expected a finite number"),
    ("threshold_distance", np.inf, "expected a finite number"),
    ("threshold_distance", -1.0, "must be >= 0.0"),
    ("allocator", "no", "expected true or false"), ("allocator", 0, "expected true or false"),
    ("allocator", None, "expected true or false"), ("support", 2.5, "expected an integer"),
    ("weights", (7.5, 1.5), "expected a GuidanceWeights"),
    ("thresholds", (150, 800), "expected a StageThresholds"),
], ids=["w1--300.0", "lr--0.02", "steps-zero", "steps-fractional", "steps-bool", "views-zero",
        "first-batch-fractional", "t-min-fractional", "t-max-fractional", "distance-nan",
        "distance-inf", "distance-negative", "allocator-no", "allocator-zero",
        "allocator-none", "support-fractional", "weights-tuple", "thresholds-tuple"])
def test_mesh_edit_refuses_a_negative_step_setting_before_any_view(monkeypatch, field, value,
                                                                   message):
    """The config refuses these when built. steps = 0 used to run no step and report
    nothing, 2.5 ended in numpy's TypeError, t_min = 1.5 ran (rng.integers truncates
    it), a NaN or negative threshold_distance ran to the end, allocator = "no" ran with
    the allocator, and a tuple thresholds ended in an AttributeError traceback."""
    def no_view(*args):
        raise AssertionError("a view was drawn")

    monkeypatch.setattr(experiments, "make_view", no_view)
    mesh = grid_mesh(rows=5, cols=5, num_regions=5)
    with pytest.raises(ConfigError, match=f"^{field}: {re.escape(message)}$"):
        run_mesh_edit(mesh, "head_dominant", MIX, SCHED, seeds=[0],
                      config=MeshEditConfig(**{"steps": 1, field: value}))


def test_mesh_edit_caps_timesteps_at_middle_max_only_for_a_full_cond_region():
    """Image-anchored targets take any t in the schedule; past its T the range
    is refused naming the schedule."""
    mesh = grid_mesh(rows=5, cols=5, num_regions=5)
    anchored = dict.fromkeys(range(5), IMAGE_COND)
    config = MeshEditConfig(steps=2, first_batch=20, t_min=700, t_max=1000)
    report, = run_mesh_edit(mesh, anchored, MIX, SCHED, seeds=[0], config=config)
    assert report.steps_to_threshold is None
    message = "t_max: must be <= 1000, the schedule's last step"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_mesh_edit(mesh, anchored, MIX, SCHED, seeds=[0],
                      config=MeshEditConfig(steps=1, t_max=1001))


@pytest.mark.parametrize("field", ["views_per_step", "first_batch"])
def test_mesh_edit_refuses_more_views_than_a_step_may_hold(monkeypatch, field):
    """Refused before any view is drawn: a step holds all of its views at once."""
    def no_draw(*args):
        raise AssertionError("a view was drawn")

    monkeypatch.setattr(experiments, "_draw_views", no_draw)
    with pytest.raises(ValueError, match=f"^{field}: must be <= {MAX_VIEWS_PER_STEP}$"):
        run_mesh_edit(grid_mesh(rows=5, cols=5, num_regions=5), "head_dominant", MIX, SCHED,
                      seeds=[0], config=MeshEditConfig(steps=1, **{field: MAX_VIEWS_PER_STEP + 1}))


def test_mesh_edit_config_stores_integral_fields_as_ints():
    config = MeshEditConfig(steps=5.0, t_min=np.int64(2), t_max=700.0, support=np.float64(4),
                            views_per_step=10.0, first_batch=np.int32(30))
    got = [config.steps, config.t_min, config.t_max, config.support, config.views_per_step,
           config.first_batch]
    assert got == [5, 2, 700, 4, 10, 30]
    assert all(type(value) is int for value in got)


@pytest.mark.parametrize("seeds, message", [
    ([1.5], "seeds[0]: expected an integer"), ([True], "seeds[0]: expected a number"),
    ([-1], "seeds[0]: must be >= 0"), ([], "seeds: expected a non-empty list"),
    (5, "seeds: expected a non-empty list"), (None, "seeds: expected a non-empty list"),
    ([1, 1], "seeds[1]: repeats seeds[0] (1)"),
], ids=["fractional", "bool", "negative", "empty", "int", "none", "repeated"])
def test_mesh_edit_refuses_a_bad_seed_list_before_any_draw(monkeypatch, seeds, message):
    """[1.5] used to end in numpy's TypeError, [True] ran as seed True, [-1] gave
    numpy's error naming no seed, [] returned no report, 5 and None ended in a
    TypeError, and [1, 1] edited seed 1 twice."""
    def no_draw(*args):
        raise AssertionError("a view was drawn")

    monkeypatch.setattr(experiments, "_draw_views", no_draw)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_mesh_edit(grid_mesh(rows=5, cols=5, num_regions=5), "head_dominant", MIX, SCHED,
                      seeds=seeds, config=MeshEditConfig(steps=1))


@pytest.mark.parametrize("code", [2000.0, -1000.5, 1e200])
def test_mesh_edit_refuses_start_codes_beyond_the_guard(code):
    """The edit step's guard bounds each |code|; start codes past it are refused
    before the measuring pass, not reported as diverging at step 1."""
    mesh = grid_mesh(rows=5, cols=5, num_regions=5)
    codes = np.array(mesh.codes)
    codes[7, 1] = code
    message = (f"mesh start codes lie beyond the divergence guard: largest |code| is "
               f"{abs(code):g}, beyond the guard 1000")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_mesh_edit(mesh.with_codes(codes), "head_dominant", MIX, SCHED, seeds=[0],
                      config=MeshEditConfig(steps=1))


def test_mesh_edit_starts_from_codes_on_the_guard():
    mesh = grid_mesh(rows=5, cols=5, num_regions=5)
    codes = np.array(mesh.codes)
    codes[7, 1] = -1000.0
    report, = run_mesh_edit(mesh.with_codes(codes), "head_dominant", MIX, SCHED, seeds=[0],
                            config=MeshEditConfig(steps=1, w1=300.0, lr=0.0))
    assert report.final_mesh.codes[7, 1] == -1000.0


def test_region_dispersion_zero_for_constant_codes():
    mesh = grid_mesh(rows=5, cols=5, num_regions=5)
    disp = region_dispersion(mesh)
    assert all(v == 0.0 for v in disp.values())


def test_mode_distance_of_regions():
    mesh = grid_mesh(rows=5, cols=5, num_regions=5)  # codes at [0.5, 1.0]
    d = mode_distance_of_regions(mesh, [0], MODES)
    assert d == pytest.approx(min(np.linalg.norm(MODES - [0.5, 1.0], axis=1)))


@pytest.mark.parametrize("regions,match", [([], "at least one mesh region"),
                                           ([99], r"\[99\] are not regions"),
                                           ([0, 7, 2, 8], r"\[7, 8\] are not regions")])
def test_mode_distance_of_regions_names_a_bad_region_list(regions, match):
    mesh = grid_mesh(rows=5, cols=5, num_regions=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            mode_distance_of_regions(mesh, regions, MODES)


@pytest.mark.parametrize("width", range(1, 8))
def test_mode_distance_of_regions_matches_linalg_norm_bitwise(width):
    """The column pass against the np.linalg.norm(..., axis=2) it replaced."""
    rng = np.random.default_rng(width)
    mesh = grid_mesh(rows=10, cols=10, num_regions=5)
    mesh = LatentMesh(edges=mesh.edges, regions=mesh.regions,
                      codes=rng.standard_normal((100, width)))
    modes = rng.standard_normal((6, width))
    for regions in ([0], [1, 3], [4, 2, 0]):
        verts = np.concatenate([mesh.region_vertices(r) for r in regions])
        d = np.linalg.norm(mesh.codes[verts][:, None, :] - modes[None, :, :], axis=2)
        want = float(d.min(axis=1).mean())
        assert mode_distance_of_regions(mesh, regions, modes).hex() == want.hex()


def test_profiles_cover_five_regions():
    for profile in PROFILES.values():
        assert set(profile) == {0, 1, 2, 3, 4}


def test_middle_band_trap_versus_staged_schedule():
    """Uniform sampling restricted to the middle band stalls the full-condition
    term between the joint modes; the staged estimator under its own schedule
    ends closer on every matched seed (averaged over 20)."""
    seeds = list(range(20))
    trap_sampler = TimestepSampler(SamplerKind.UNIFORM, 150, 800, 800)
    staged_sampler = TimestepSampler(SamplerKind.NON_INCREASING, 1, 800, 1500)
    m4 = optimize_seeds([0.5, 1.0], EstimatorKind.M4_ONLY, trap_sampler, MIX, SCHED,
                        lr=1e-2, steps=800, seeds=seeds)
    staged = optimize_seeds([0.5, 1.0], EstimatorKind.SDSE, staged_sampler, MIX, SCHED,
                            lr=1e-2, steps=1500, seeds=seeds)
    trap_d = [np.min(np.linalg.norm(MODES - traj.final_theta, axis=1)) for traj in m4]
    staged_d = [np.min(np.linalg.norm(MODES - traj.final_theta, axis=1)) for traj in staged]
    assert np.mean(trap_d) > np.mean(staged_d)
