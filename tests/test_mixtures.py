import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdse_lab.fields import ConfigError
from sdse_lab.mixtures import (
    ALL_CONDITIONS,
    ConditionLabel,
    ConditionedMixture,
    FULL_COND,
    GaussianComponent,
    IMAGE_COND,
    TEXT_COND,
    UNCONDITIONED,
    mixture_density,
    mixture_from_dict,
    mixture_log_density,
    mixture_score,
    noised_mixture,
    sub_mixture,
    toy_mixture,
)
from sdse_lab.schedule import NoiseSchedule
from sdse_lab.verify import finite_difference_score, random_conditioned_mixture


# ---------------------------------------------------------------------------
# types and validation
# ---------------------------------------------------------------------------

def test_component_rejects_negative_weight():
    with pytest.raises(ValueError):
        GaussianComponent(-0.1, np.zeros(2), np.eye(2))


def test_component_rejects_non_spd_covariance():
    with pytest.raises(ValueError):
        GaussianComponent(1.0, np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        GaussianComponent(1.0, np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]))


def test_mixture_rejects_mixed_dimensions():
    a = GaussianComponent(1.0, [0.0, 0.0], 1.0)
    b = GaussianComponent(1.0, [0.0, 0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        ConditionedMixture(((a, ConditionLabel.BOTH), (b, ConditionLabel.BOTH)))


def test_mixture_rejects_zero_total_weight():
    a = GaussianComponent(0.0, [0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        ConditionedMixture(((a, ConditionLabel.BOTH),))


@pytest.mark.parametrize("cond,admitted", [
    (UNCONDITIONED, set(ConditionLabel)),
    (IMAGE_COND, {ConditionLabel.IMAGE_ONLY, ConditionLabel.BOTH}),
    (TEXT_COND, {ConditionLabel.TEXT_ONLY, ConditionLabel.BOTH}),
    (FULL_COND, {ConditionLabel.BOTH}),
])
def test_condition_membership_table(cond, admitted):
    for label in ConditionLabel:
        assert cond.admits(label) == (label in admitted)


# ---------------------------------------------------------------------------
# sub_mixture
# ---------------------------------------------------------------------------

def test_toy_full_condition_selects_the_two_joint_modes():
    sub = sub_mixture(toy_mixture(), FULL_COND)
    assert sub.size == 2
    means = sub.means()
    assert sorted(map(tuple, means.tolist())) == [(1.5, 0.4), (1.5, 1.4)]
    np.testing.assert_allclose(sub.weights(), [0.5, 0.5])


def test_toy_unconditioned_is_the_full_mixture():
    mix = toy_mixture()
    sub = sub_mixture(mix, UNCONDITIONED)
    assert sub.size == 5
    np.testing.assert_array_equal(sub.means(), mix.means())
    np.testing.assert_allclose(sub.weights(), mix.weights())


def test_single_both_component_renormalizes_to_one():
    comp = GaussianComponent(0.3, [1.0, 2.0], 0.5)
    mix = ConditionedMixture(((comp, ConditionLabel.BOTH),))
    sub = sub_mixture(mix, IMAGE_COND)
    assert sub.size == 1
    assert sub.weights()[0] == pytest.approx(1.0)


def test_unsupported_condition_errors():
    comp = GaussianComponent(1.0, [0.0, 0.0], 1.0)
    mix = ConditionedMixture(((comp, ConditionLabel.TEXT_ONLY),))
    with pytest.raises(ValueError, match="condition has no support"):
        sub_mixture(mix, IMAGE_COND)


@given(st.integers(0, 2**32 - 1))
def test_sub_mixture_idempotent(seed):
    mix = random_conditioned_mixture(np.random.default_rng(seed))
    for cond in ALL_CONDITIONS:
        once = sub_mixture(mix, cond)
        twice = sub_mixture(once, cond)
        assert once.labels() == twice.labels()
        np.testing.assert_allclose(twice.weights(), once.weights(), rtol=1e-15)
        np.testing.assert_array_equal(twice.means(), once.means())


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_toy_density_at_origin():
    # dominated by the unconditional mode: 0.1 / (2*pi*0.1) plus small terms
    val = mixture_density(toy_mixture(), [0.0, 0.0])
    assert val == pytest.approx(0.1596, abs=5e-5)
    assert val == pytest.approx(0.1596158051018039, rel=1e-12)


def test_single_gaussian_normalization():
    mix = ConditionedMixture(((GaussianComponent(1.0, [0.0, 0.0], 1.0),
                               ConditionLabel.BOTH),))
    assert mixture_density(mix, [0.0, 0.0]) == pytest.approx(1.0 / (2 * np.pi))


def test_far_tail_density_is_tiny():
    mix = toy_mixture()
    z = np.array([200.0, 200.0])  # hundreds of sigmas out
    assert mixture_density(mix, z) < 1e-12


def test_density_rejects_non_finite_points():
    with pytest.raises(ValueError):
        mixture_density(toy_mixture(), [np.nan, 0.0])
    with pytest.raises(ValueError):
        mixture_density(toy_mixture(), [np.inf, 0.0])


def test_log_density_survives_far_tail():
    mix = toy_mixture()
    val = mixture_log_density(mix, [50.0, -50.0])
    assert np.isfinite(val) and val < -1000


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def test_score_zero_at_isolated_mode():
    mix = ConditionedMixture(((GaussianComponent(1.0, [1.0, -2.0], 0.3),
                               ConditionLabel.BOTH),))
    np.testing.assert_allclose(mixture_score(mix, [1.0, -2.0]), [0.0, 0.0])


def test_single_gaussian_score_formula():
    c = 0.4
    mu = np.array([1.0, 2.0])
    mix = ConditionedMixture(((GaussianComponent(1.0, mu, c), ConditionLabel.BOTH),))
    z = np.array([0.3, -1.1])
    np.testing.assert_allclose(mixture_score(mix, z), (mu - z) / c, rtol=1e-12)


def test_toy_score_matches_finite_differences():
    mix = toy_mixture()
    z = np.array([1.0, 0.9])
    analytic = mixture_score(mix, z)
    fd = finite_difference_score(mix, z)
    rel = np.linalg.norm(analytic - fd) / np.linalg.norm(analytic)
    assert rel < 1e-5


@given(st.integers(0, 2**32 - 1))
def test_score_matches_finite_differences_on_random_mixtures(seed):
    rng = np.random.default_rng(seed)
    mix = random_conditioned_mixture(rng)
    z = rng.uniform(-2.5, 2.5, size=mix.dim)
    analytic = mixture_score(mix, z)
    fd = finite_difference_score(mix, z)
    rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-9)
    assert rel < 1e-5


# ---------------------------------------------------------------------------
# noised_mixture
# ---------------------------------------------------------------------------

def test_noised_identity_at_unit_alpha_bar():
    mix = toy_mixture()
    sched = NoiseSchedule(np.array([1.0, 0.5]))
    out = noised_mixture(mix, sched, 1)
    np.testing.assert_array_equal(out.means(), mix.means())
    np.testing.assert_array_equal(out.covariances(), mix.covariances())
    assert out.labels() == mix.labels()


def test_noised_component_substitution():
    comp = GaussianComponent(1.0, [2.0, -4.0], 0.2)
    mix = ConditionedMixture(((comp, ConditionLabel.BOTH),))
    sched = NoiseSchedule(np.array([0.25, 0.1]))
    out = noised_mixture(mix, sched, 1)
    np.testing.assert_allclose(out.means()[0], [1.0, -2.0])
    np.testing.assert_allclose(out.covariances()[0], (0.25 * 0.2 + 0.75) * np.eye(2))


def test_noised_preserves_weights_and_labels_exactly():
    mix = toy_mixture()
    sched = NoiseSchedule(np.array([0.9, 0.5, 0.1]))
    out = noised_mixture(mix, sched, 2)
    assert out.size == mix.size
    np.testing.assert_array_equal(out.weights(), mix.weights())
    assert out.labels() == mix.labels()


def test_noised_density_matches_quadrature_convolution():
    """Trapezoid convolution of the scaled raw density with the noise kernel."""
    mix = toy_mixture()
    ab = 0.5
    sched = NoiseSchedule(np.array([ab, 0.1]))
    out = noised_mixture(mix, sched, 1)
    grid = np.linspace(-6.0, 8.0, 281)
    dx = grid[1] - grid[0]
    xs, ys = np.meshgrid(grid, grid, indexing="ij")
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
    raw = np.array([mixture_density(mix, p) for p in pts])
    sig2 = 1.0 - ab
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = rng.uniform(-0.5, 3.5, size=2)
        d2 = ((g - np.sqrt(ab) * pts) ** 2).sum(axis=1)
        kernel = np.exp(-0.5 * d2 / sig2) / (2 * np.pi * sig2)
        convolved = float((raw * kernel).sum() * dx * dx)
        assert abs(convolved - mixture_density(out, g)) < 1e-3


def test_noised_out_of_range_timestep():
    sched = NoiseSchedule(np.array([0.5]))
    with pytest.raises(ValueError):
        noised_mixture(toy_mixture(), sched, 2)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def test_toy_file_encodes_the_benchmark_mixture():
    mix = toy_mixture()
    assert mix.size == 5
    labels = mix.labels()
    means = mix.means()
    by_label = {}
    for lab, mean in zip(labels, means):
        by_label.setdefault(lab, []).append(tuple(mean))
    assert by_label[ConditionLabel.UNCONDITIONAL] == [(0.0, 0.0)]
    assert by_label[ConditionLabel.TEXT_ONLY] == [(3.0, 1.0)]
    assert by_label[ConditionLabel.IMAGE_ONLY] == [(0.5, 1.0)]
    assert sorted(by_label[ConditionLabel.BOTH]) == [(1.5, 0.4), (1.5, 1.4)]
    np.testing.assert_allclose(sorted(mix.weights()), [0.1, 0.15, 0.15, 0.3, 0.3])


GOOD_ENTRY = {"weight": 1.0, "mean": [0, 0], "covariance": 0.1, "label": "both"}


@pytest.mark.parametrize("entry,field", [
    (5, "components[0]"),
    ({**GOOD_ENTRY, "weight": [1.0]}, "components[0].weight"),
    ({**GOOD_ENTRY, "mean": {}}, "components[0].mean"),
    ({**GOOD_ENTRY, "covariance": {}}, "components[0].covariance"),
    ({**GOOD_ENTRY, "label": ["both"]}, "components[0].label"),
])
def test_mixture_file_wrong_typed_field_is_named(entry, field):
    with pytest.raises(ConfigError, match=f"^{re.escape(field)}: "):
        mixture_from_dict({"components": [entry]})


@pytest.mark.parametrize("override", [{"covariance": -1}, {"weight": -1}])
def test_invalid_mixture_component_is_named(override):
    with pytest.raises(ValueError, match=re.escape("components[1]: ")):
        mixture_from_dict({"components": [GOOD_ENTRY, {**GOOD_ENTRY, **override}]})


def test_mixture_from_dict_rejects_bad_entries():
    with pytest.raises(ValueError):
        mixture_from_dict({"components": []})
    with pytest.raises(ValueError):
        mixture_from_dict({"components": [{"weight": 1.0, "mean": [0, 0]}]})
