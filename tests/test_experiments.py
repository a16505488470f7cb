import numpy as np
import pytest

from sdse_lab.experiments import (Classification, MeshEditConfig, Phase,
                                  PhaseSpec, PROFILES, convergence_check,
                                  density_diagnostics, mode_distance_of_regions,
                                  phase_band, region_dispersion, residual_ema_norm,
                                  run_full_schedule, run_mesh_edit, run_toy_phase)
from sdse_lab.guidance import EstimatorKind, StageThresholds
from sdse_lab.mesh import grid_mesh
from sdse_lab.mixtures import FULL_COND, mixture_density, sub_mixture, toy_mixture
from sdse_lab.optimize import Trajectory, optimize_point
from sdse_lab.samplers import SamplerKind, TimestepSampler
from sdse_lab.schedule import linear_beta_schedule

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


def test_moving_far_iterate_is_wandering():
    rng = np.random.default_rng(0)
    thetas = rng.uniform(-1, 3, size=(80, 2))
    residuals = rng.standard_normal((80, 2))
    traj = make_traj(thetas, residuals)
    report = convergence_check(traj, MODES, tol=1e-6)
    assert report.classification is Classification.WANDERING


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


def test_phase_spec_validates_band():
    spec = PhaseSpec(Phase.MIDDLE, (EstimatorKind.M4_ONLY,), t_lo=100, t_hi=500)
    with pytest.raises(ValueError, match="outside band"):
        spec.validate_band(StageThresholds(), 1000)


def test_run_toy_phase_counts_and_determinism():
    spec = PhaseSpec(Phase.SMALL, (EstimatorKind.M1_ONLY, EstimatorKind.M4_ONLY),
                     t_lo=1, t_hi=150)
    runs_a = run_toy_phase(spec, MIX, SCHED, seeds=[0, 1], steps=30)
    runs_b = run_toy_phase(spec, MIX, SCHED, seeds=[0, 1], steps=30)
    assert len(runs_a) == 4
    for a, b in zip(runs_a, runs_b):
        assert a.estimator == b.estimator and a.seed == b.seed
        assert a.trajectory.to_csv() == b.trajectory.to_csv()


def test_sdse_cannot_run_in_early_large_phase():
    spec = PhaseSpec(Phase.EARLY_LARGE, (EstimatorKind.SDSE,), t_lo=801, t_hi=1000)
    with pytest.raises(ValueError, match="large timesteps excluded"):
        run_toy_phase(spec, MIX, SCHED, seeds=[0], steps=5)


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


def test_full_schedule_rejects_out_of_band_sampler():
    sampler = TimestepSampler(SamplerKind.UNIFORM, 1, 900, 10)
    with pytest.raises(ValueError, match="middle_max"):
        run_full_schedule(EstimatorKind.SDSE, sampler, MIX, SCHED, seeds=[0],
                          lr=1e-2, steps=10)


def test_full_schedule_allows_wide_band_when_thresholds_allow():
    sampler = TimestepSampler(SamplerKind.UNIFORM, 1, 1000, 10)
    th = StageThresholds(small_max=150, middle_max=1000)
    results = run_full_schedule(EstimatorKind.SDS, sampler, MIX, SCHED, seeds=[0],
                                lr=1e-2, steps=10, thresholds=th)
    assert len(results) == 1


# ---------------------------------------------------------------------------
# density diagnostics
# ---------------------------------------------------------------------------

def test_diagnostics_constant_trajectory_constant_table():
    traj = make_traj(np.tile([0.5, 1.0], (5, 1)))
    table = density_diagnostics(traj, MIX)
    assert np.all(table.rows[:, 1:] == table.rows[0, 1:])


def test_diagnostics_match_direct_density_calls():
    sampler = TimestepSampler(SamplerKind.UNIFORM, 1, 500, 20)
    traj = optimize_point([0.5, 1.0], EstimatorKind.M4_ONLY, sampler, MIX, SCHED,
                          lr=1e-2, steps=20, seed=1)
    table = density_diagnostics(traj, MIX)
    i = 7
    theta = traj.thetas[i]
    from sdse_lab.mixtures import IMAGE_COND, TEXT_COND, UNCONDITIONED
    assert table.rows[i, 1] == pytest.approx(
        mixture_density(sub_mixture(MIX, UNCONDITIONED), theta), rel=1e-12)
    assert table.rows[i, 2] == pytest.approx(
        mixture_density(sub_mixture(MIX, IMAGE_COND), theta), rel=1e-12)
    assert table.rows[i, 3] == pytest.approx(
        mixture_density(sub_mixture(MIX, TEXT_COND), theta), rel=1e-12)
    assert table.rows[i, 4] == pytest.approx(
        mixture_density(sub_mixture(MIX, FULL_COND), theta), rel=1e-12)


def test_diagnostics_small_t_shift_directions():
    """The baseline-shift estimator climbs the image/unconditional ratio while
    the unconditional density falls over the first half of the run."""
    sampler = TimestepSampler(SamplerKind.UNIFORM, 1, 150, 300)
    traj = optimize_point([0.5, 1.0], EstimatorKind.M1_ONLY, sampler, MIX, SCHED,
                          lr=1e-2, steps=300, seed=0)
    table = density_diagnostics(traj, MIX)
    half = 150
    assert table.rows[half, -2] > table.rows[0, -2]
    assert np.log(table.rows[half, 1]) < np.log(table.rows[0, 1])


def test_diagnostics_csv_shape():
    traj = make_traj(np.tile([0.5, 1.0], (3, 1)))
    table = density_diagnostics(traj, MIX)
    lines = table.to_csv().splitlines()
    assert lines[0] == "step,p,p_img,p_txt,p_full,log_ratio_img,log_ratio_full"
    assert len(lines) == 4


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
    rows = report.step_csv_rows()
    assert len(rows) == 30 * 5
    assert rows[0][0] == 1  # steps start at 1; the measuring pass applies no update


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


def test_mesh_edit_requires_complete_profile():
    mesh = grid_mesh(rows=5, cols=5, num_regions=5)
    with pytest.raises(ValueError, match="profile missing"):
        run_mesh_edit(mesh, {0: FULL_COND}, MIX, SCHED, seeds=[0],
                      config=MeshEditConfig(steps=1))


def test_region_dispersion_zero_for_constant_codes():
    mesh = grid_mesh(rows=5, cols=5, num_regions=5)
    disp = region_dispersion(mesh)
    assert all(v == 0.0 for v in disp.values())


def test_mode_distance_of_regions():
    mesh = grid_mesh(rows=5, cols=5, num_regions=5)  # codes at [0.5, 1.0]
    d = mode_distance_of_regions(mesh, [0], MODES)
    assert d == pytest.approx(min(np.linalg.norm(MODES - [0.5, 1.0], axis=1)))


def test_profiles_cover_five_regions():
    for profile in PROFILES.values():
        assert set(profile) == {0, 1, 2, 3, 4}


def test_middle_band_trap_versus_staged_schedule():
    """Uniform sampling restricted to the middle band stalls the full-condition
    term between the joint modes; the staged estimator under its own schedule
    ends closer on every matched seed (averaged over 20)."""
    from sdse_lab.oracle import NoiseOracle

    oracle = NoiseOracle(MIX, SCHED)
    seeds = list(range(20))
    trap_sampler = TimestepSampler(SamplerKind.UNIFORM, 150, 800, 800)
    staged_sampler = TimestepSampler(SamplerKind.NON_INCREASING, 1, 800, 1500)
    trap_d, staged_d = [], []
    for seed in seeds:
        m4 = optimize_point([0.5, 1.0], EstimatorKind.M4_ONLY, trap_sampler, MIX,
                            SCHED, lr=1e-2, steps=800, seed=seed, oracle=oracle)
        staged = optimize_point([0.5, 1.0], EstimatorKind.SDSE, staged_sampler,
                                MIX, SCHED, lr=1e-2, steps=1500, seed=seed,
                                oracle=oracle)
        trap_d.append(np.min(np.linalg.norm(MODES - m4.final_theta, axis=1)))
        staged_d.append(np.min(np.linalg.norm(MODES - staged.final_theta, axis=1)))
    assert np.mean(trap_d) > np.mean(staged_d)
