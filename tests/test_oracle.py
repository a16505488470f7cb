import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdse_lab.mixtures import (
    ALL_CONDITIONS,
    Condition,
    ConditionedMixture,
    FULL_COND,
    IMAGE_COND,
    UNCONDITIONED,
    mixture_density,
    sub_mixture,
    toy_mixture,
)
from sdse_lab.oracle import NoiseOracle, forward_diffuse, predict_noise
from sdse_lab.schedule import NoiseSchedule, linear_beta_schedule
from sdse_lab.verify import finite_difference_score, random_conditioned_mixture

from mixture_helper import mixture_of


def test_forward_diffuse_identity_at_unit_alpha_bar():
    sched = NoiseSchedule(np.array([1.0, 0.5]))
    z = np.array([1.0, 2.0])
    np.testing.assert_array_equal(forward_diffuse(z, 1, np.array([9.0, -9.0]), sched), z)


def test_forward_diffuse_substitution():
    sched = NoiseSchedule(np.array([0.25]))
    out = forward_diffuse(np.array([1.0, 0.0]), 1, np.array([0.0, 2.0]), sched)
    np.testing.assert_allclose(out, [0.5, 1.7320508075688772])


def test_forward_diffuse_moment_check():
    sched = linear_beta_schedule()
    t = 400
    z = np.array([1.2, -0.7])
    rng = np.random.default_rng(0)
    n = 10**5
    eps = rng.standard_normal((n, 2))
    samples = np.sqrt(sched.alpha_bar(t)) * z + sched.sigma(t) * eps
    se = sched.sigma(t) / np.sqrt(n)
    np.testing.assert_allclose(samples.mean(axis=0), np.sqrt(sched.alpha_bar(t)) * z,
                               atol=3 * se)


def test_forward_diffuse_out_of_range():
    sched = NoiseSchedule(np.array([0.5]))
    with pytest.raises(ValueError):
        forward_diffuse(np.zeros(2), 2, np.zeros(2), sched)
    with pytest.raises(ValueError, match="timestep 0.99 is not an integer"):
        forward_diffuse(np.zeros(2), 0.99, np.zeros(2), sched)


def test_predict_zero_at_noised_mode():
    mix = mixture_of((1.0, [1.0, 1.0], 0.2, FULL_COND))
    sched = linear_beta_schedule()
    t = 300
    z_t = np.sqrt(sched.alpha_bar(t)) * np.array([1.0, 1.0])
    np.testing.assert_allclose(predict_noise(mix, sched, z_t, t, FULL_COND),
                               [0.0, 0.0], atol=1e-14)


def test_predict_pure_noise_limit():
    sched = NoiseSchedule(np.array([1e-8]))
    mix = toy_mixture()
    z_t = np.array([0.7, -1.3])
    eps_hat = predict_noise(mix, sched, z_t, 1, UNCONDITIONED)
    np.testing.assert_allclose(eps_hat, z_t, atol=1e-3)


def test_predict_matches_finite_difference_score():
    mix = toy_mixture()
    sched = linear_beta_schedule()
    t = 100
    z = np.array([0.5, 1.0])
    noised = sub_mixture(mix, IMAGE_COND)
    from sdse_lab.mixtures import noised_mixture
    target = noised_mixture(noised, sched, t)
    fd = finite_difference_score(target, z)
    got = predict_noise(mix, sched, z, t, IMAGE_COND)
    np.testing.assert_allclose(got, -sched.sigma(t) * fd, rtol=1e-5)


def test_sigma_scaling_via_direct_construction():
    """Two (mixture, schedule) pairs with identical noised mixtures but
    different noise scales give predictions in the exact sigma ratio."""
    mu = np.array([1.0, -0.5])
    ab1, ab2 = 0.8, 0.6
    mix1 = mixture_of((1.0, mu, 1.0, FULL_COND))
    mu2 = mu * np.sqrt(ab1 / ab2)
    var2 = (ab1 * 1.0 + (1 - ab1) - (1 - ab2)) / ab2
    mix2 = mixture_of((1.0, mu2, var2, FULL_COND))
    s1 = NoiseSchedule(np.array([ab1]))
    s2 = NoiseSchedule(np.array([ab2]))
    z = np.array([0.4, 0.9])
    e1 = predict_noise(mix1, s1, z, 1, FULL_COND)
    e2 = predict_noise(mix2, s2, z, 1, FULL_COND)
    ratio = np.sqrt((1 - ab2) / (1 - ab1))
    np.testing.assert_allclose(e2, ratio * e1, rtol=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_oracle_matches_pure_path(seed):
    rng = np.random.default_rng(seed)
    mix = random_conditioned_mixture(rng)
    sched = linear_beta_schedule(num_steps=50)
    oracle = NoiseOracle(mix, sched)
    z = rng.uniform(-2, 2, size=mix.dim)
    t = int(rng.integers(1, 51))
    for cond in ALL_CONDITIONS:
        fast = oracle.predict(z, t, cond)
        pure = predict_noise(mix, sched, z, t, cond)
        np.testing.assert_allclose(fast, pure, rtol=1e-10, atol=1e-12)


def test_oracle_equals_pure_path_bitwise_on_isotropic_mixtures():
    """Sub-mixture weights are normalized once, by `_log_weights`, so the cached
    oracle and `predict_noise` do the same float operations on isotropic mixtures."""
    rng = np.random.default_rng(2024)
    sched = linear_beta_schedule()
    differ = 0
    for _ in range(10):
        mix = random_conditioned_mixture(rng, max_components=8, full_cov=False)
        oracle = NoiseOracle(mix, sched)
        for _ in range(200):
            z = rng.uniform(-2.5, 2.5, size=mix.dim)
            t = int(rng.integers(1, 1001))
            for cond in ALL_CONDITIONS:
                fast = oracle.predict(z, t, cond)
                differ += fast.tobytes() != predict_noise(mix, sched, z, t, cond).tobytes()
    assert differ == 0


def test_density_bundle_matches_direct_densities():
    mix = toy_mixture()
    oracle = NoiseOracle(mix, linear_beta_schedule())
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = rng.uniform(-1, 3, size=2)
        p, p_img, p_full = oracle.density_bundle(z)
        assert p == pytest.approx(mixture_density(sub_mixture(mix, UNCONDITIONED), z), rel=1e-12)
        assert p_img == pytest.approx(mixture_density(sub_mixture(mix, IMAGE_COND), z), rel=1e-12)
        assert p_full == pytest.approx(mixture_density(sub_mixture(mix, FULL_COND), z), rel=1e-12)


def test_density_bundle_at_infinite_point_is_zero_without_warnings():
    oracle = NoiseOracle(toy_mixture(), linear_beta_schedule())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert oracle.density_bundle(np.array([np.inf, -np.inf])) == (0.0, 0.0, 0.0)


def test_predict_keys_conditions_by_value():
    """A freshly built condition hits the same cached support as FULL_COND."""
    sched = linear_beta_schedule()
    z = np.array([0.5, 1.0])
    for t in (1, 400, 1000):
        want = NoiseOracle(toy_mixture(), sched).predict(z, t, FULL_COND)
        cold = NoiseOracle(toy_mixture(), sched)
        got = cold.predict(z, t, Condition(text=True, image=True))
        assert got.tobytes() == want.tobytes()
        warm = NoiseOracle(toy_mixture(), sched)
        warm.predict(z, t, FULL_COND)
        got = warm.predict(z, t, Condition(text=True, image=True))
        assert got.tobytes() == want.tobytes()
        assert len(warm._supports) == 1


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warmed"])
@pytest.mark.parametrize("t", [
    0, 1001, pytest.param(500.5, id="500.5"), pytest.param(True, id="bool"),
    pytest.param(np.array([500, 0, 7]), id="rows-with-0"),
    pytest.param(np.array([500, 7, 1001]), id="rows-with-1001"),
])
def test_predict_rejects_a_timestep_outside_the_schedule(t, warm):
    """Refused before any table row is read (row t - 1 = -1 would wrap silently),
    also when the cache holds the same point at t = 1, which a bool equals."""
    oracle = NoiseOracle(toy_mixture(), linear_beta_schedule())
    stacked = isinstance(t, np.ndarray)
    z = np.tile([0.5, 1.0], (3, 1)) if stacked else np.array([0.5, 1.0])
    if warm:
        for s in (500, 1000, 1):
            for cond in ALL_CONDITIONS:
                oracle.predict(z, np.full(3, s) if stacked else s, cond)
        oracle.density_bundle(z)
    if stacked:
        message = rf"timestep {t[(t < 1) | (t > 1000)][0]} out of range \[1, 1000\]"
    elif t in (0, 1001) and not isinstance(t, bool):
        message = rf"timestep {t} out of range \[1, 1000\]"
    else:
        message = rf"timestep {t!r} is not an integer"
    for cond in ALL_CONDITIONS:
        with pytest.raises(ValueError, match=message):
            oracle.predict(z, t, cond)


def _joined(parts, var_scale):
    """One mixture holding every component of `parts`, covariances times var_scale."""
    return ConditionedMixture(np.concatenate([p.weights for p in parts]),
                              np.concatenate([p.means for p in parts]),
                              var_scale * np.concatenate([p.covariances for p in parts]),
                              sum((p.labels for p in parts), ()))


@settings(derandomize=True, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), parts=st.integers(1, 3), full_cov=st.booleans(),
       var_scale=st.sampled_from([1.0, 1e-6]), offset=st.sampled_from([0.0, 4.0, 40.0]))
def test_fast_paths_match_pure_path(seed, parts, full_cov, var_scale, offset):
    """The oracle's cached tables and masked density reduction against the pure
    functions, on mixtures of 4 to 24 components (8 or more regroup numpy's
    unrolled sums), tiny variances and far-off points."""
    rng = np.random.default_rng(seed)
    mix = _joined([random_conditioned_mixture(rng, max_components=8, full_cov=full_cov)
                   for _ in range(parts)], var_scale)
    sched = linear_beta_schedule()
    oracle = NoiseOracle(mix, sched)
    z = rng.uniform(-2.0, 2.0, size=mix.dim) + offset * rng.choice([-1.0, 1.0], size=mix.dim)
    for got, cond in zip(oracle.density_bundle(z), (UNCONDITIONED, IMAGE_COND, FULL_COND)):
        # below the normal range a float holds too few digits for a relative bound
        want = mixture_density(sub_mixture(mix, cond), z)
        assert got == pytest.approx(want, rel=1e-12, abs=np.finfo(float).tiny)
    for t in (1, int(rng.integers(2, 1000)), 1000):
        z_t = np.sqrt(sched.alpha_bar(t)) * z
        for cond in (*ALL_CONDITIONS, *reversed(ALL_CONDITIONS)):  # cold, then cached
            fast = oracle.predict(z_t, t, cond)
            pure = predict_noise(mix, sched, z_t, t, cond)
            scale = max(1.0, float(np.max(np.abs(pure))))
            assert np.max(np.abs(fast - pure)) <= 1e-9 * scale, (t, cond, fast, pure)


def _many_components(full_cov):
    rng = np.random.default_rng(8)
    return _joined([random_conditioned_mixture(rng, max_components=8, full_cov=full_cov)
                    for _ in range(3)], 1.0)


STACK_MIXTURES = {
    "isotropic": toy_mixture(),
    "full_covariance": random_conditioned_mixture(np.random.default_rng(4), full_cov=True),
    "many_isotropic": _many_components(False),
    "many_full_covariance": _many_components(True),
    # numpy's einsum sums a lone 2x2 quadratic form in its own order
    "one_full_planar_component": ConditionedMixture([1.0], [[0.3, -0.2]],
                                                    [[[1.0, 0.3], [0.3, 0.5]]], [FULL_COND]),
}


@pytest.mark.parametrize("name", list(STACK_MIXTURES))
def test_stacked_rows_equal_one_point_calls_bitwise(name):
    """Row s of predict(Z, ts, cond) is predict(Z[s], ts[s], cond), and row s of
    density_bundle(Z) is density_bundle(Z[s]), bit for bit."""
    mix = STACK_MIXTURES[name]
    if name.startswith("many"):
        assert mix.size >= 8
    sched = linear_beta_schedule()
    rng = np.random.default_rng(17)
    zs = rng.uniform(-3.0, 3.0, size=(40, mix.dim))
    zs[::7] *= 20.0  # far-off points
    ts = rng.integers(1, 1001, size=40)
    ts[:3] = (1, 1000, 1)
    stacked, single = NoiseOracle(mix, sched), NoiseOracle(mix, sched)
    for cond in ALL_CONDITIONS:
        got = stacked.predict(zs, ts, cond)
        assert got.shape == zs.shape
        for s in range(len(zs)):
            assert got[s].tobytes() == single.predict(zs[s], int(ts[s]), cond).tobytes()
    got = stacked.density_bundle(zs)
    assert got.shape == (len(zs), 3)
    for s in range(len(zs)):
        assert got[s].tobytes() == np.array(single.density_bundle(zs[s])).tobytes()


def test_stacked_predict_needs_one_timestep_per_point():
    oracle = NoiseOracle(toy_mixture(), linear_beta_schedule())
    with pytest.raises(ValueError, match=r"a stack of 3 points needs 3 timesteps, got shape \(2,\)"):
        oracle.predict(np.zeros((3, 2)), np.array([5, 6]), FULL_COND)
