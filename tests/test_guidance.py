import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from sdse_lab.guidance import (
    EstimatorKind,
    GuidanceWeights,
    StageThresholds,
    cfg_combine,
    decompose_terms,
    sdse_residual,
    term_residual,
)
from sdse_lab.mixtures import (
    FULL_COND,
    IMAGE_COND,
    UNCONDITIONED,
    toy_mixture,
)
from sdse_lab.oracle import NoiseOracle
from sdse_lab.schedule import linear_beta_schedule

from mixture_helper import mixture_of

W_DEFAULT = GuidanceWeights(omega_t=7.5, omega_i=1.5)

# Frozen regression vectors, computed once from the closed-form oracle
# (pure sub-mixture / noised-mixture / score composition).
SDS_GOLDEN = np.array([-0.2574039572654846, 0.7700756090322813])
SDSE_GOLDEN = np.array([0.5289626690831029, 0.5385390488014963])


@pytest.fixture(scope="module")
def oracle():
    return NoiseOracle(toy_mixture(), linear_beta_schedule())


vec2 = arrays(np.float64, (2,), elements=st.floats(-5, 5, allow_nan=False))


# ---------------------------------------------------------------------------
# cfg_combine
# ---------------------------------------------------------------------------

def test_cfg_unit_scales_collapse_to_full():
    eps_u, eps_i, eps_f = np.random.default_rng(0).standard_normal((3, 2))
    out = cfg_combine(eps_u, eps_i, eps_f, GuidanceWeights(omega_t=1.0, omega_i=1.0))
    np.testing.assert_array_equal(out, eps_f)


def test_cfg_zero_text_scale_collapses_to_image():
    eps_u, eps_i, eps_f = np.random.default_rng(1).standard_normal((3, 2))
    out = cfg_combine(eps_u, eps_i, eps_f, GuidanceWeights(omega_t=0.0, omega_i=1.0))
    np.testing.assert_array_equal(out, eps_i)


def test_cfg_direct_substitution():
    out = cfg_combine([0.0, 0.0], [1.0, 0.0], [1.0, 2.0],
                      GuidanceWeights(omega_t=7.5, omega_i=1.5))
    np.testing.assert_allclose(out, [1.5, 15.0])


def test_cfg_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        cfg_combine([0.0], [1.0, 0.0], [1.0, 2.0], W_DEFAULT)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_m4_vanishes_when_epsilon_equals_full_prediction():
    rng = np.random.default_rng(2)
    eps_u, eps_i, eps_f = rng.standard_normal((3, 2))
    bundle = decompose_terms(eps_u, eps_i, eps_f, eps_f, W_DEFAULT)
    np.testing.assert_array_equal(bundle.m4, np.zeros(2))


def test_m1_vanishes_when_image_equals_unconditional():
    rng = np.random.default_rng(3)
    eps_u = rng.standard_normal(2)
    eps_f, eps = rng.standard_normal((2, 2))
    bundle = decompose_terms(eps_u, eps_u, eps_f, eps, W_DEFAULT)
    np.testing.assert_array_equal(bundle.m1, np.zeros(2))


@given(vec2, vec2, vec2, vec2,
       st.floats(0, 12, allow_nan=False), st.floats(0, 4, allow_nan=False))
def test_decomposition_identities(eps_u, eps_i, eps_f, eps, omega_t, omega_i):
    w = GuidanceWeights(omega_t=omega_t, omega_i=omega_i)
    b = decompose_terms(eps_u, eps_i, eps_f, eps, w)
    np.testing.assert_allclose((w.omega_i - 1) * b.m1 + b.m2, b.cfg_residual,
                               atol=1e-12)
    np.testing.assert_allclose((w.omega_t - 1) * b.m3 + b.m4, b.m2, atol=1e-12)


def test_identity_on_100_random_configurations():
    rng = np.random.default_rng(7)
    for _ in range(100):
        eps_u, eps_i, eps_f, eps = rng.standard_normal((4, 2))
        w = GuidanceWeights(omega_t=float(10 * rng.random()),
                            omega_i=float(4 * rng.random()))
        b = decompose_terms(eps_u, eps_i, eps_f, eps, w)
        assert np.abs((w.omega_i - 1) * b.m1 + b.m2 - b.cfg_residual).max() < 1e-12


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def test_sds_zero_when_epsilon_is_the_guided_prediction(oracle):
    z, t = np.array([0.7, 0.8]), 420
    eps = oracle.predict(z, t, FULL_COND)
    w = GuidanceWeights(omega_t=1.0, omega_i=1.0)
    np.testing.assert_array_equal(term_residual(EstimatorKind.SDS, oracle, z, t, eps, w),
                                  np.zeros(2))


def test_sds_golden_vector(oracle):
    got = term_residual(EstimatorKind.SDS, oracle, np.array([0.5, 1.0]), 500, np.zeros(2),
                        W_DEFAULT)
    np.testing.assert_allclose(got, SDS_GOLDEN, rtol=1e-12)


def test_sds_matches_decomposition(oracle):
    rng = np.random.default_rng(11)
    for _ in range(100):
        z = rng.uniform(-1, 3, 2)
        t = int(rng.integers(1, 1001))
        eps = rng.standard_normal(2)
        w = GuidanceWeights(omega_t=float(10 * rng.random()),
                            omega_i=float(4 * rng.random()))
        b = decompose_terms(oracle.predict(z, t, UNCONDITIONED),
                            oracle.predict(z, t, IMAGE_COND),
                            oracle.predict(z, t, FULL_COND), eps, w)
        got = term_residual(EstimatorKind.SDS, oracle, z, t, eps, w)
        np.testing.assert_allclose(got, (w.omega_i - 1) * b.m1 + b.m2, atol=1e-12)


def test_ssd_small_timestep_drops_disengaging_term(oracle):
    th = StageThresholds()
    z, eps = np.array([1.0, 1.0]), np.array([0.3, -0.2])
    got = term_residual(EstimatorKind.SSD, oracle, z, th.small_max, eps,
                        GuidanceWeights(omega_t=7.5), th)
    np.testing.assert_array_equal(got, oracle.predict(z, th.small_max, FULL_COND) - eps)


def test_ssd_zero_omega_is_mode_seeking_only(oracle):
    z, t, eps = np.array([1.0, 1.0]), 700, np.array([0.1, 0.2])
    got = term_residual(EstimatorKind.SSD, oracle, z, t, eps, GuidanceWeights(omega_t=0.0))
    np.testing.assert_array_equal(got, oracle.predict(z, t, FULL_COND) - eps)


def test_ssd_identity_above_threshold(oracle):
    rng = np.random.default_rng(13)
    for _ in range(50):
        z = rng.uniform(-1, 3, 2)
        t = int(rng.integers(151, 1001))
        eps = rng.standard_normal(2)
        omega = float(10 * rng.random())
        eps_u = oracle.predict(z, t, UNCONDITIONED)
        eps_i = oracle.predict(z, t, IMAGE_COND)
        eps_f = oracle.predict(z, t, FULL_COND)
        b = decompose_terms(eps_u, eps_i, eps_f, eps, W_DEFAULT)
        expected = omega * (b.m1 + b.m3) + (eps_i + b.m3 - eps)
        got = term_residual(EstimatorKind.SSD, oracle, z, t, eps,
                            GuidanceWeights(omega_t=omega))
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_sdse_equals_m2_exactly(oracle):
    rng = np.random.default_rng(17)
    for _ in range(100):
        z = rng.uniform(-1, 3, 2)
        t = int(rng.integers(1, 801))
        eps = rng.standard_normal(2)
        w = GuidanceWeights(omega_t=float(10 * rng.random()), omega_i=1.5)
        b = decompose_terms(oracle.predict(z, t, UNCONDITIONED),
                            oracle.predict(z, t, IMAGE_COND),
                            oracle.predict(z, t, FULL_COND), eps, w)
        got = sdse_residual(oracle, z, t, eps, w)
        np.testing.assert_array_equal(got, b.m2)


def test_sdse_unit_text_scale_collapses_to_m4(oracle):
    z, t = np.array([1.2, 0.5]), 300
    eps = np.array([0.4, -0.1])
    got = sdse_residual(oracle, z, t, eps, GuidanceWeights(omega_t=1.0, omega_i=1.5))
    np.testing.assert_array_equal(got, oracle.predict(z, t, FULL_COND) - eps)


def test_sdse_golden_vector(oracle):
    got = sdse_residual(oracle, np.array([1.5, 0.9]), 400, np.zeros(2), W_DEFAULT)
    np.testing.assert_allclose(got, SDSE_GOLDEN, rtol=1e-12)


@pytest.mark.parametrize("t", [801, 900, 1000])
def test_sdse_rejects_large_timesteps(oracle, t):
    with pytest.raises(ValueError, match="large timesteps excluded"):
        sdse_residual(oracle, np.zeros(2), t, np.zeros(2), W_DEFAULT)
    with pytest.raises(ValueError, match="large timesteps excluded"):
        term_residual(EstimatorKind.SDSE_PRIME, oracle, np.zeros(2), t, np.zeros(2),
                      W_DEFAULT)


def test_sdse_prime_small_branch_boundary_inclusive(oracle):
    th = StageThresholds()
    z, eps = np.array([1.0, 0.7]), np.array([0.2, 0.2])
    got = term_residual(EstimatorKind.SDSE_PRIME, oracle, z, th.small_max, eps, W_DEFAULT, th)
    np.testing.assert_array_equal(got, oracle.predict(z, th.small_max, FULL_COND) - eps)


def test_sdse_prime_matches_sdse_above_boundary(oracle):
    th = StageThresholds()
    z, eps = np.array([1.0, 0.7]), np.array([0.2, 0.2])
    t = th.small_max + 1
    np.testing.assert_array_equal(
        term_residual(EstimatorKind.SDSE_PRIME, oracle, z, t, eps, W_DEFAULT, th),
        sdse_residual(oracle, z, t, eps, W_DEFAULT, th))


def test_sdse_prime_unit_scale_branches_agree(oracle):
    w = GuidanceWeights(omega_t=1.0, omega_i=1.5)
    z, eps = np.array([1.4, 0.6]), np.array([-0.3, 0.1])
    for t in (50, 150, 151, 500, 800):
        np.testing.assert_array_equal(
            term_residual(EstimatorKind.SDSE_PRIME, oracle, z, t, eps, w),
            sdse_residual(oracle, z, t, eps, w))


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def test_m4_only_zero_at_matching_epsilon(oracle):
    z, t = np.array([0.9, 1.1]), 200
    eps = oracle.predict(z, t, FULL_COND)
    got = term_residual(EstimatorKind.M4_ONLY, oracle, z, t, eps, W_DEFAULT)
    np.testing.assert_array_equal(got, np.zeros(2))


def test_m1_only_zero_for_identical_submixtures():
    mix = mixture_of(*((w, m, 0.2, IMAGE_COND)
                       for w, m in [(0.5, [0.0, 0.0]), (0.5, [2.0, 1.0])]))
    oracle = NoiseOracle(mix, linear_beta_schedule())
    got = term_residual(EstimatorKind.M1_ONLY, oracle, np.array([1.0, 0.3]), 400,
                        np.zeros(2), W_DEFAULT)
    np.testing.assert_array_equal(got, np.zeros(2))


def test_m3_only_near_zero_at_shared_mode():
    # the image-only component is so remote that the image-conditional and
    # fully-conditional noised mixtures coincide near the shared mode
    mix = mixture_of(
        (0.5, [0.0, 0.0], 0.05, FULL_COND),
        (0.5, [40.0, 0.0], 0.05, IMAGE_COND),
    )
    sched = linear_beta_schedule()
    oracle = NoiseOracle(mix, sched)
    t = 50
    z = np.sqrt(sched.alpha_bar(t)) * np.array([0.0, 0.0])
    got = term_residual(EstimatorKind.M3_ONLY, oracle, z, t, np.zeros(2), W_DEFAULT)
    assert np.linalg.norm(got) < 1e-6


def test_dispatcher_covers_every_kind(oracle):
    z, t, eps = np.array([0.5, 1.0]), 400, np.array([0.1, -0.2])
    for kind in EstimatorKind:
        out = term_residual(kind, oracle, z, t, eps, W_DEFAULT)
        assert out.shape == (2,)
        assert np.all(np.isfinite(out))
