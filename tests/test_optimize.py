import re

import numpy as np
import pytest

from sdse_lab import optimize
from sdse_lab.fields import ConfigError
from sdse_lab.guidance import (STAGED, EstimatorKind, GuidanceWeights, StageThresholds,
                               term_residual)
from sdse_lab.mixtures import (FULL_COND, IMAGE_COND, UNCONDITIONED, ConditionedMixture,
                               mixture_density, sub_mixture, toy_mixture)
from sdse_lab.optimize import (DIVERGENCE_GUARD, Trajectory, optimize_point, optimize_seeds,
                               start_point, trajectory_from_csv)
from sdse_lab.oracle import NoiseOracle
from sdse_lab.samplers import SamplerKind, TimestepSampler, timestep_sequence
from sdse_lab.schedule import linear_beta_schedule
from sdse_lab.verify import random_conditioned_mixture


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


@pytest.mark.parametrize("steps, message", [
    (2.5, "steps: expected an integer"), (True, "steps: expected a number"),
    (0, "steps: must be >= 1"),
], ids=["fractional", "bool", "zero"])
def test_steps_not_an_integer_of_at_least_one_is_refused(setup, steps, message):
    """2.5 and True used to end in numpy's TypeError while sizing the log."""
    mix, sched = setup
    with pytest.raises(ValueError, match=f"^{message}$"):
        optimize_point([0.5, 1.0], EstimatorKind.SDSE, uniform(1, 800, 20),
                       mix, sched, lr=1e-2, steps=steps, seed=0)


@pytest.mark.parametrize("seeds, message", [
    ([1.5], "seeds[0]: expected an integer"), ([True], "seeds[0]: expected a number"),
    ([-1], "seeds[0]: must be >= 0"), ([0, np.nan], "seeds[1]: expected a finite number"),
    (5, "seeds: expected a non-empty list"), (None, "seeds: expected a non-empty list"),
    ([1, 1], "seeds[1]: repeats seeds[0] (1)"),
], ids=["fractional", "bool", "negative", "nan-second", "int", "none", "repeated"])
def test_seed_that_is_not_a_non_negative_integer_is_refused_naming_it(setup, seeds, message):
    """A bool seed used to run as the seed True; 1.5 and -1 ended in numpy's errors,
    which name no seed; 5 and None ended in a TypeError; [1, 1] ran seed 1 twice."""
    mix, sched = setup
    args = ([0.5, 1.0], EstimatorKind.SDSE, uniform(1, 800, 20), mix, sched, 1e-2, 20)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        optimize_seeds(*args, seeds)
    if isinstance(seeds, list) and len(seeds) == 1:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            optimize_point(*args, seeds[0])


def test_integral_seed_and_steps_are_read_as_ints(setup):
    mix, sched = setup
    traj, = optimize_seeds([0.5, 1.0], EstimatorKind.SDSE, uniform(1, 800, 20), mix, sched,
                           1e-2, np.int64(20), [np.int64(3)])
    want = optimize_point([0.5, 1.0], EstimatorKind.SDSE, uniform(1, 800, 20), mix, sched,
                          lr=1e-2, steps=20, seed=3)
    assert type(traj.seed) is int and traj.seed == 3
    assert traj.thetas.tobytes() == want.thetas.tobytes()


def _reference_descent(theta0, kind, sampler, mix, sched, lr, steps, seed):
    """The descent written out step by step: diffuse with sqrt_ab[t-1] and sigma[t-1],
    take the residual, step, log the densities, stop once the guard trips."""
    oracle = NoiseOracle(mix, sched)
    rng = np.random.default_rng(seed)
    ts = timestep_sequence(sampler, rng, steps)
    eps = rng.standard_normal((steps, mix.dim))
    theta = np.asarray(theta0, dtype=float)
    thetas, residuals, timesteps = [theta], [np.zeros(mix.dim)], [0]
    densities = [oracle.density_bundle(theta)]
    tripped = False
    with np.errstate(over="ignore"):
        for t, epsilon in zip(ts.tolist(), eps):
            z_t = sched.sqrt_alphas_bar[t - 1] * theta + sched.sigmas[t - 1] * epsilon
            res = term_residual(kind, oracle, z_t, t, epsilon, GuidanceWeights(),
                                StageThresholds())
            theta = theta - lr * res
            thetas.append(theta)
            residuals.append(res)
            timesteps.append(t)
            densities.append(oracle.density_bundle(theta))
            if not theta @ theta <= DIVERGENCE_GUARD**2:
                tripped = True
                break
    return np.array(thetas), np.array(residuals), np.array(densities), timesteps, tripped


FULL_COV_MIXTURE = random_conditioned_mixture(np.random.default_rng(4), full_cov=True)


@pytest.mark.parametrize("lr", [1e-2, 3.0], ids=["settles", "trips-the-guard"])
@pytest.mark.parametrize("sampler_kind", list(SamplerKind), ids=lambda k: k.value)
@pytest.mark.parametrize("mixture", ["isotropic", "full_covariance"])
@pytest.mark.parametrize("kind", list(EstimatorKind), ids=lambda k: k.value)
def test_descent_matches_the_stepwise_reference(setup, kind, mixture, sampler_kind, lr):
    """Every logged array is bit for bit the reference loop's, on every estimator,
    for one seed and for each row of a stack of seeds; at lr = 3 most runs leave
    the guard part-way, and some stacked rows leave it while others run on."""
    mix, sched = setup
    if mixture == "full_covariance":
        mix = FULL_COV_MIXTURE
    steps = 60
    sampler = TimestepSampler(sampler_kind, 1, 800 if kind in STAGED else 1000, steps,
                              jitter=3.0 if sampler_kind is SamplerKind.NON_INCREASING else 0.0)
    traj = optimize_point([0.5, 1.0], kind, sampler, mix, sched, lr=lr, steps=steps, seed=5)
    stacked = optimize_seeds([0.5, 1.0], kind, sampler, mix, sched, lr=lr, steps=steps,
                             seeds=[5, 6, 7])
    assert [t.seed for t in stacked] == [5, 6, 7]
    for traj in [traj, *stacked]:
        thetas, residuals, densities, timesteps, tripped = _reference_descent(
            [0.5, 1.0], kind, sampler, mix, sched, lr, steps, seed=traj.seed)
        assert traj.num_rows == len(timesteps)
        assert traj.guard_tripped == tripped
        assert traj.steps.tolist() == list(range(len(timesteps)))
        assert traj.timesteps.tolist() == timesteps
        for got, want in ((traj.thetas, thetas), (traj.residuals, residuals),
                          (traj.densities, densities)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if lr == 3.0 and kind is EstimatorKind.SDS and traj.seed == 5:
            assert tripped and 2 < len(timesteps) < steps + 1
    if lr == 3.0 and kind is EstimatorKind.SDS and sampler_kind is SamplerKind.UNIFORM:
        assert len({t.num_rows for t in stacked}) > 1  # rows leave the stack at their own step


class _NaNOracle(NoiseOracle):
    def predict(self, z_t, t, cond):
        return np.full(np.shape(z_t), np.nan)


@pytest.mark.parametrize("other", ["mixture", "schedule"])
def test_oracle_on_other_inputs_is_rejected(setup, other):
    mix, sched = setup
    oracle = (NoiseOracle(toy_mixture(), sched) if other == "mixture" else
              NoiseOracle(mix, linear_beta_schedule()))
    with pytest.raises(ValueError, match="oracle"):
        optimize_point([0.5, 1.0], EstimatorKind.SDSE, uniform(1, 800, 20),
                       mix, sched, lr=1e-2, steps=20, seed=0, oracle=oracle)


def test_sampler_beyond_the_schedule_is_named(setup):
    mix, sched = setup
    with pytest.raises(ConfigError, match=r"^sampler\.t_max: must be <= 1000, the schedule's "
                                          r"last step$"):
        optimize_point([0.5, 1.0], EstimatorKind.SDS, uniform(1, 1001, 20),
                       mix, sched, lr=1e-2, steps=20, seed=0)


LINE_MIXTURE = ConditionedMixture([1.0], [[0.0]], [[[1.0]]], [FULL_COND])


@pytest.mark.parametrize("theta0, mix, dims", [
    ([0.5, 1.0], LINE_MIXTURE, (2, 1)),
    ([0.5, 1.0, 0.0], toy_mixture(), (3, 2)),
], ids=["2d-start-1d-mixture", "3d-start-2d-mixture"])
def test_start_point_of_another_dimension_is_refused(setup, theta0, mix, dims):
    """Refused before the descent, rather than broadcast against the means."""
    _, sched = setup
    message = f"theta0: has dimension {dims[0]}, not the mixture's {dims[1]}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        optimize_point(theta0, EstimatorKind.SDS, uniform(1, 800, 10), mix, sched,
                       lr=1e-2, steps=10, seed=0)


@pytest.mark.parametrize("theta0", [[1e200, 0.0], [1000.001, 0.0], [600.0, 800.001]],
                         ids=["overflowing-norm", "just-past-the-axis", "just-past-the-circle"])
def test_start_point_beyond_the_guard_is_refused(setup, theta0):
    """Row 0 is an iterate, so theta0 passes the guard's own test or the descent
    does not start (it would otherwise run into NaNs and warnings)."""
    mix, sched = setup
    with pytest.raises(ConfigError, match=r"^theta0: lies beyond the divergence guard: its "
                                          r"norm must be <= 1000$"):
        optimize_point(theta0, EstimatorKind.SDS, uniform(1, 800, 10), mix, sched,
                       lr=1e-2, steps=10, seed=0)


@pytest.mark.parametrize("theta0, message", [
    (["0.5", "1.0"], "theta0[0]: expected a number"),
    ([True, 1.0], "theta0[0]: expected a number"),
    (np.array(["0.5", "1.0"]), "theta0[0]: expected a number"),
    ([np.nan, 1.0], "theta0[0]: expected a finite number"),
    ([0.5, np.inf], "theta0[1]: expected a finite number"),
    ([[0.5, 1.0]], "theta0[0]: expected a number"),
    ("0.5", "theta0: expected a number"),
], ids=["strings", "bool", "string-array", "nan", "inf-second", "nested", "string"])
def test_start_point_that_is_not_numbers_is_refused_naming_it(setup, theta0, message):
    """theta0 is read by the config files' number rule: strings and bools used to be
    converted by numpy and run, and a nested point ended in numpy's matmul error."""
    mix, sched = setup
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        optimize_point(theta0, EstimatorKind.SDS, uniform(1, 800, 10), mix, sched,
                       lr=1e-2, steps=10, seed=0)


@pytest.mark.parametrize("theta0", [
    [0.5, 1], (0.5, 1.0), np.array([0.5, 1.0]), np.array([0.5, 1.0], dtype=np.float32),
    [np.float64(0.5), np.int64(1)],
], ids=["list", "tuple", "array", "float32-array", "numpy-scalars"])
def test_start_point_takes_every_numeric_shape(setup, theta0):
    mix, sched = setup
    want = np.asarray(theta0, dtype=float)
    assert start_point(theta0, 2).tobytes() == want.tobytes()
    traj = optimize_point(theta0, EstimatorKind.SDS, uniform(1, 800, 10), mix, sched,
                          lr=1e-2, steps=10, seed=0)
    assert traj.thetas[0].tobytes() == want.tobytes()
    for one in (0.5, np.float64(0.5), np.array(0.5), [0.5]):  # one number, for a 1-D mixture
        assert start_point(one, 1).tolist() == [0.5]


def test_start_point_on_the_guard_runs(setup):
    mix, sched = setup
    traj = optimize_point([600.0, 800.0], EstimatorKind.SDS, uniform(1, 800, 10), mix,
                          sched, lr=0.0, steps=10, seed=0)
    assert traj.num_rows == 11 and not traj.guard_tripped


@pytest.mark.parametrize("field, value, message", [
    ("weights", (7.5, 1.5), "expected a GuidanceWeights"),
    ("thresholds", (150, 800), "expected a StageThresholds"),
], ids=["weights-tuple", "thresholds-tuple"])
def test_record_argument_of_another_type_is_refused_before_any_draw(setup, monkeypatch, field,
                                                                     value, message):
    """A tuple thresholds reaches the t_max cap, which reads thresholds.middle_max."""
    def no_draw(*args):
        raise AssertionError("a timestep was drawn")

    monkeypatch.setattr(optimize, "timestep_sequence", no_draw)
    mix, sched = setup
    with pytest.raises(ConfigError, match=f"^{field}: {message}$"):
        optimize_seeds([0.5, 1.0], EstimatorKind.SDSE, uniform(1, 800, 10), mix, sched,
                       lr=1e-2, steps=10, seeds=[0, 1], **{field: value})


@pytest.mark.parametrize("kind", [EstimatorKind.SDSE, EstimatorKind.SDSE_PRIME])
def test_staged_estimator_beyond_middle_max_is_named(setup, kind):
    """Refused before the descent starts, against the thresholds it is given."""
    mix, sched = setup
    message = r"^sampler\.t_max: must be <= middle_max \({}\) when a staged estimator runs$"
    with pytest.raises(ConfigError, match=message.format(800)):
        optimize_point([0.5, 1.0], kind, uniform(1, 801, 10), mix, sched,
                       lr=1e-2, steps=10, seed=0)
    with pytest.raises(ConfigError, match=message.format(700)):
        optimize_point([0.5, 1.0], kind, uniform(1, 701, 10), mix, sched, lr=1e-2,
                       steps=10, seed=0, thresholds=StageThresholds(middle_max=700))


def test_guard_trips_on_non_finite_iterate(setup):
    mix, sched = setup
    traj = optimize_point([0.5, 1.0], EstimatorKind.SDS, uniform(1, 800, 20),
                          mix, sched, lr=1e-2, steps=20, seed=0,
                          oracle=_NaNOracle(mix, sched))
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


def test_trajectory_csv_round_trips_non_finite_values(tmp_path):
    traj = Trajectory(steps=np.arange(3), timesteps=np.array([0, 7, 3]),
                      thetas=np.array([[0.5, 1.0], [np.inf, -0.0], [np.nan, 2.0]]),
                      residuals=np.array([[0.0, 0.0], [-np.inf, 1e-300], [np.nan, 3.0]]),
                      densities=np.array([[1.0, 2.0, 3.0], [np.nan, 0.0, np.inf],
                                          [4.0, 5.0, 6.0]]), seed=3)
    path = tmp_path / "run.csv"
    traj.write_csv(path)
    back = trajectory_from_csv(path)
    assert back.to_csv() == traj.to_csv()
    np.testing.assert_array_equal(back.thetas, traj.thetas)


def per_value_csv(traj):
    """Trajectory.to_csv written one repr(float(v)) at a time, the reference text."""
    lines = [f"# digest={traj.config_digest}"] if traj.config_digest else []
    lines += [f"# seed={traj.seed}", "step,t,theta_0,theta_1,res_0,res_1,p,p_img,p_full"]
    for i in range(traj.num_rows):
        row = [str(int(traj.steps[i])), str(int(traj.timesteps[i]))]
        for block in (traj.thetas, traj.residuals, traj.densities):
            row += [repr(float(v)) for v in block[i]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def test_trajectory_csv_matches_per_value_formatting(setup):
    mix, sched = setup
    traj = optimize_point([0.5, 1.0], EstimatorKind.SDSE, uniform(1, 800, 60),
                          mix, sched, lr=1e-2, steps=60, seed=8, config_digest="d1")
    odd = Trajectory(steps=np.arange(4), timesteps=np.array([0, 7, 3, 1]),
                     thetas=np.array([[0.5, 1.0], [np.inf, -0.0], [np.nan, 2.0],
                                      [5e-324, 1e300]]),
                     residuals=np.array([[0.0, 0.0], [-np.inf, 1e-300], [np.nan, 3.0],
                                         [0.1, -2.5e-17]]),
                     densities=np.array([[1.0, 2.0, 3.0], [np.nan, 0.0, np.inf],
                                         [4.0, 5.0, 6.0], [1 / 3, 2 / 3, 1e-7]]), seed=3)
    for t in (traj, odd):
        assert t.to_csv() == per_value_csv(t)


@pytest.mark.parametrize("row,message", [
    ("1,5,0.5,1.0", "expected 9 columns, got 4"),
    ("1,5,0.5,1.0,0.0,0.0,0.1,0.2,0.3,9", "expected 9 columns, got 10"),
    ("1,5,abc,1.0,0.0,0.0,0.1,0.2,0.3", "could not convert string to float: 'abc'"),
    ("1,5.5,0.5,1.0,0.0,0.0,0.1,0.2,0.3", "invalid literal for int"),
    ("0,0,0.5,1.0,0.0,0.0,0.1,0.2,0.3", "steps must be strictly increasing"),
], ids=["short", "long", "not-a-number", "fractional-t", "repeated-step"])
def test_malformed_trajectory_csv_names_the_file_and_line(tmp_path, row, message):
    path = tmp_path / "run.csv"
    path.write_text("# seed=0\nstep,t,theta_0,theta_1,res_0,res_1,p,p_img,p_full\n"
                    "0,0,0.5,1.0,0.0,0.0,0.1,0.2,0.3\n" + row + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: {message}")):
        trajectory_from_csv(path)


def test_non_utf8_trajectory_csv_names_the_file(tmp_path):
    path = tmp_path / "run.csv"
    path.write_bytes(b"step,t\n\xff\xfe,1\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: not UTF-8 text (byte 7)")):
        trajectory_from_csv(path)


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
