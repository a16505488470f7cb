import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from sdse_lab.configs import parse_toy_config
from sdse_lab.experiments import MeshEditConfig, run_mesh_edit
from sdse_lab.guidance import (
    EstimatorKind,
    GuidanceWeights,
    StageThresholds,
    cfg_combine,
    decompose_terms,
    sdse_residual,
    term_residual,
)
from sdse_lab.fields import ConfigError
from sdse_lab.mesh import grid_mesh
from sdse_lab.mixtures import (
    FULL_COND,
    IMAGE_COND,
    UNCONDITIONED,
    toy_mixture,
)
from sdse_lab.optimize import optimize_point
from sdse_lab.oracle import NoiseOracle
from sdse_lab.samplers import SamplerKind, TimestepSampler
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


@pytest.mark.parametrize("field", ["omega_t", "omega_i"])
@pytest.mark.parametrize("value, message", [
    (np.nan, "expected a finite number"), (-np.inf, "expected a finite number"),
    (-1.0, "must be >= 0.0"), (True, "expected a number"),
], ids=["nan", "-inf", "negative", "bool"])
def test_guidance_scale_that_is_not_a_finite_number_of_at_least_zero_is_refused(
        field, value, message):
    with pytest.raises(ValueError, match=f"^{field}: {message}$"):
        GuidanceWeights(**{field: value})


@pytest.mark.parametrize("field", ["small_max", "middle_max"])
@pytest.mark.parametrize("value, message", [
    (2.5, "expected an integer"), (True, "expected a number"), ("800", "expected a number"),
    (np.nan, "expected a finite number"), (0, "must be >= 1"),
], ids=["fractional", "bool", "string", "nan", "zero"])
def test_stage_threshold_that_is_not_an_integer_of_at_least_one_is_refused(field, value,
                                                                           message):
    """small_max = 2.5 or True used to be accepted, and middle_max = "800" ended in
    a TypeError."""
    with pytest.raises(ConfigError, match=f"^{field}: {message}$"):
        StageThresholds(**{field: value})


@pytest.mark.parametrize("small, middle", [(800, 800), (801, 800), (150, 149)])
def test_stage_thresholds_need_middle_max_above_small_max(small, middle):
    with pytest.raises(ConfigError, match="^middle_max: must exceed small_max$"):
        StageThresholds(small_max=small, middle_max=middle)


def test_stage_thresholds_store_integral_values_as_ints():
    th = StageThresholds(small_max=150.0, middle_max=np.int64(800))
    assert (th.small_max, th.middle_max) == (150, 800)
    assert type(th.small_max) is int and type(th.middle_max) is int


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


@pytest.mark.parametrize("staged, middle_max, t_max, message", [
    (False, 800, 1000, None),
    (False, 800, 1001, "must be <= 1000, the schedule's last step"),
    (True, 800, 800, None),
    (True, 800, 801, "must be <= middle_max (800) when a staged estimator runs"),
    (True, 700, 700, None),
    (True, 700, 701, "must be <= middle_max (700) when a staged estimator runs"),
], ids=["at-num-steps", "past-num-steps", "at-middle-max", "past-middle-max",
        "at-custom-middle-max", "past-custom-middle-max"])
def test_every_run_caps_t_max_by_one_rule(staged, middle_max, t_max, message):
    """The toy config reader, the point descent and the mesh edit accept or refuse a t_max
    alike, with one message under their own path; a staged run is SDSE, or a mesh whose
    regions all target FULL_COND, and an unstaged one SDS, or all IMAGE_COND."""
    thresholds = StageThresholds(middle_max=middle_max)
    kind = EstimatorKind.SDSE if staged else EstimatorKind.SDS
    mix, sched = toy_mixture(), linear_beta_schedule()
    toy = {"mixture_path": "pkg:toy_gmm.json", "estimators": [kind.value], "steps": 1,
           "sampler": {"kind": "uniform", "t_min": 1, "t_max": t_max},
           "thresholds": {"M": 150, "L": middle_max}}
    edit = MeshEditConfig(steps=1, views_per_step=2, first_batch=5, t_max=t_max,
                          thresholds=thresholds)
    runs = [
        ("sampler.t_max", lambda: parse_toy_config(toy)),
        ("sampler.t_max", lambda: optimize_point(
            [0.5, 1.0], kind, TimestepSampler(SamplerKind.UNIFORM, 1, t_max, 1), mix, sched,
            lr=1e-2, steps=1, seed=0, thresholds=thresholds)),
        ("t_max", lambda: run_mesh_edit(
            grid_mesh(rows=5, cols=5, num_regions=5),
            dict.fromkeys(range(5), FULL_COND if staged else IMAGE_COND), mix, sched, [0],
            edit)),
    ]
    for path, run in runs:
        if message is None:
            run()
            continue
        with pytest.raises(ConfigError) as err:
            run()
        assert (err.value.field_path, str(err.value)) == (path, f"{path}: {message}")
