import numpy as np
import pytest

from sdse_lab.guidance import EstimatorKind
from sdse_lab.mixtures import (FULL_COND, IMAGE_COND, UNCONDITIONED,
                               mixture_density, sub_mixture, toy_mixture)
from sdse_lab.optimize import Trajectory, optimize_point, trajectory_from_csv
from sdse_lab.samplers import SamplerKind, TimestepSampler
from sdse_lab.schedule import linear_beta_schedule


@pytest.fixture(scope="module")
def setup():
    return toy_mixture(), linear_beta_schedule()


def uniform(t_lo, t_hi, steps):
    return TimestepSampler(SamplerKind.UNIFORM, t_lo, t_hi, steps)


def test_zero_lr_keeps_theta_constant(setup):
    mix, sched = setup
    traj = optimize_point([0.5, 1.0], EstimatorKind.SDSE, uniform(1, 800, 50),
                          mix, sched, lr=0.0, steps=50, seed=0)
    assert traj.num_rows == 51
    np.testing.assert_array_equal(traj.thetas, np.tile([0.5, 1.0], (51, 1)))


def test_bitwise_determinism(setup):
    mix, sched = setup
    kw = dict(lr=1e-2, steps=200, seed=42)
    a = optimize_point([0.5, 1.0], EstimatorKind.SDSE,
                       TimestepSampler(SamplerKind.NON_INCREASING, 1, 800, 200),
                       mix, sched, **kw)
    b = optimize_point([0.5, 1.0], EstimatorKind.SDSE,
                       TimestepSampler(SamplerKind.NON_INCREASING, 1, 800, 200),
                       mix, sched, **kw)
    assert a.to_csv() == b.to_csv()
    np.testing.assert_array_equal(a.thetas, b.thetas)
    np.testing.assert_array_equal(a.residuals, b.residuals)


def test_different_seeds_differ(setup):
    mix, sched = setup
    a = optimize_point([0.5, 1.0], EstimatorKind.SDSE, uniform(1, 800, 100),
                       mix, sched, lr=1e-2, steps=100, seed=0)
    b = optimize_point([0.5, 1.0], EstimatorKind.SDSE, uniform(1, 800, 100),
                       mix, sched, lr=1e-2, steps=100, seed=1)
    assert not np.array_equal(a.thetas, b.thetas)


def test_divergence_guard_trips(setup):
    mix, sched = setup
    traj = optimize_point([0.5, 1.0], EstimatorKind.SDS, uniform(400, 800, 100),
                          mix, sched, lr=1e5, steps=100, seed=0)
    assert traj.guard_tripped
    assert traj.num_rows < 101
    assert np.linalg.norm(traj.final_theta) > 1e3


@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_non_finite_lr_rejected(setup, lr):
    mix, sched = setup
    with pytest.raises(ValueError, match="lr"):
        optimize_point([0.5, 1.0], EstimatorKind.SDSE, uniform(1, 800, 20),
                       mix, sched, lr=lr, steps=20, seed=0)


def test_guard_trips_on_non_finite_iterate(setup):
    mix, sched = setup
    traj = optimize_point([0.5, 1.0], EstimatorKind.SDS, uniform(1, 800, 20),
                          mix, sched, lr=1e-2, steps=20, seed=0,
                          weight_fn=lambda t: float("nan"))
    assert traj.guard_tripped
    assert traj.num_rows == 2
    assert np.isnan(traj.final_theta).all()


def test_recorded_densities_match_direct_calls(setup):
    mix, sched = setup
    traj = optimize_point([0.5, 1.0], EstimatorKind.M4_ONLY, uniform(100, 500, 30),
                          mix, sched, lr=1e-2, steps=30, seed=3)
    for i in (0, 10, 30):
        theta = traj.thetas[i]
        assert traj.densities[i, 0] == pytest.approx(
            mixture_density(sub_mixture(mix, UNCONDITIONED), theta), rel=1e-12)
        assert traj.densities[i, 1] == pytest.approx(
            mixture_density(sub_mixture(mix, IMAGE_COND), theta), rel=1e-12)
        assert traj.densities[i, 2] == pytest.approx(
            mixture_density(sub_mixture(mix, FULL_COND), theta), rel=1e-12)


def test_fresh_noise_shared_between_diffusion_and_residual(setup):
    """With unit guidance scales and epsilon as the full prediction, the
    residual is the prediction error at the diffused point; replaying the rng
    stream must reproduce the logged residuals."""
    mix, sched = setup
    steps = 20
    sampler = uniform(200, 200, steps)
    traj = optimize_point([0.5, 1.0], EstimatorKind.M4_ONLY, sampler, mix, sched,
                          lr=1e-2, steps=steps, seed=9)
    from sdse_lab.oracle import NoiseOracle
    from sdse_lab.samplers import timestep_sequence
    oracle = NoiseOracle(mix, sched)
    rng = np.random.default_rng(9)
    ts = timestep_sequence(sampler, rng, steps)
    eps = rng.standard_normal((steps, 2))
    theta = np.array([0.5, 1.0])
    for i in range(steps):
        t = int(ts[i])
        z_t = np.sqrt(sched.alpha_bar(t)) * theta + sched.sigma(t) * eps[i]
        res = oracle.predict(z_t, t, FULL_COND) - eps[i]
        np.testing.assert_array_equal(res, traj.residuals[i + 1])
        theta = theta - 1e-2 * res


def test_trajectory_csv_round_trip(tmp_path, setup):
    mix, sched = setup
    traj = optimize_point([0.5, 1.0], EstimatorKind.SDSE, uniform(1, 800, 40),
                          mix, sched, lr=1e-2, steps=40, seed=5,
                          config_digest="abc123")
    path = tmp_path / "run.csv"
    traj.write_csv(path)
    back = trajectory_from_csv(path)
    assert back.seed == 5
    assert back.config_digest == "abc123"
    np.testing.assert_array_equal(back.thetas, traj.thetas)
    np.testing.assert_array_equal(back.residuals, traj.residuals)
    np.testing.assert_array_equal(back.densities, traj.densities)
    np.testing.assert_array_equal(back.timesteps, traj.timesteps)


def test_trajectory_validates_lengths():
    with pytest.raises(ValueError):
        Trajectory(steps=np.arange(3), timesteps=np.zeros(2, dtype=int),
                   thetas=np.zeros((3, 2)), residuals=np.zeros((3, 2)),
                   densities=np.zeros((3, 3)), seed=0)


def test_csv_header_matches_interface(setup):
    mix, sched = setup
    traj = optimize_point([0.5, 1.0], EstimatorKind.M4_ONLY, uniform(1, 10, 2),
                          mix, sched, lr=0.0, steps=2, seed=0)
    lines = traj.to_csv().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "step,t,theta_0,theta_1,res_0,res_1,p,p_img,p_full"


def test_m1_small_t_decreases_image_density(setup):
    mix, sched = setup
    traj = optimize_point([0.5, 1.0], EstimatorKind.M1_ONLY, uniform(1, 150, 200),
                          mix, sched, lr=1e-2, steps=200, seed=0)
    p0 = traj.densities[0, 1]
    assert traj.densities[-10:, 1].mean() < p0
