import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp  # reference only; the package does not import it

from sdse_lab.fields import ConfigError
from sdse_lab.mesh import grid_mesh
from sdse_lab.mixtures import (
    ALL_CONDITIONS,
    ConditionedMixture,
    FULL_COND,
    FrozenMixture,
    IMAGE_COND,
    TEXT_COND,
    UNCONDITIONED,
    condition_support,
    mixture_density,
    mixture_from_dict,
    mixture_log_density,
    mixture_score,
    noised_mixture,
    sub_mixture,
    toy_mixture,
)
from sdse_lab.schedule import NoiseSchedule, linear_beta_schedule
from sdse_lab.verify import finite_difference_score, random_conditioned_mixture

from mixture_helper import mixture_of


# ---------------------------------------------------------------------------
# types and validation
# ---------------------------------------------------------------------------

GOOD = (1.0, [0.0, 0.0], 1.0, FULL_COND)


def test_mixture_rejects_negative_weight():
    with pytest.raises(ValueError, match=re.escape("components[0]: component weight")):
        mixture_of((-0.1, np.zeros(2), np.eye(2), FULL_COND))


def test_mixture_rejects_non_spd_covariance():
    with pytest.raises(ValueError, match=re.escape("components[0]: covariance must be pos")):
        mixture_of((1.0, np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]), FULL_COND))
    with pytest.raises(ValueError, match=re.escape("components[0]: covariance must be sym")):
        mixture_of((1.0, np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]), FULL_COND))


@pytest.mark.parametrize("k", [1, 2])
def test_bad_component_is_named_by_its_index(k):
    comps = [GOOD] * 3
    comps[k] = (1.0, [0.0, 0.0], -1.0, FULL_COND)
    with pytest.raises(ConfigError, match=re.escape(f"components[{k}]: covariance must be "
                                                    f"positive definite")):
        mixture_of(*comps)


def test_mixture_rejects_mixed_dimensions():
    """Means of one dimension and covariances of another; in a file, the first
    component whose mean differs from components[0]'s is named."""
    with pytest.raises(ValueError, match=r"got \(2,\), \(2, 2\) and \(2, 3, 3\)"):
        ConditionedMixture([1.0, 1.0], np.zeros((2, 2)), np.tile(np.eye(3), (2, 1, 1)),
                           [FULL_COND] * 2)
    entries = [{"weight": 1.0, "mean": mean, "covariance": 1.0, "label": "both"}
               for mean in ([0.0, 0.0], [0.0, 0.0, 0.0])]
    with pytest.raises(ConfigError, match=re.escape("components[1].mean: expected 2 numbers")):
        mixture_from_dict({"components": entries})


def test_mixture_rejects_zero_total_weight():
    with pytest.raises(ConfigError, match="^components: total mixture weight must be positive"):
        mixture_of((0.0, [0.0, 0.0], 1.0, FULL_COND))


def test_mixture_rejects_a_label_that_is_not_a_condition_label():
    with pytest.raises(ValueError, match=re.escape("components[1]: each component needs")):
        mixture_of(GOOD, (*GOOD[:3], "both"))


@pytest.mark.parametrize("weights, means, covs, labels", [
    ([1.0], np.zeros((2, 2)), np.tile(np.eye(2), (2, 1, 1)), [FULL_COND] * 2),
    ([1.0, 1.0], np.zeros((2, 2)), np.tile(np.eye(2), (2, 1, 1)), [FULL_COND]),
    ([1.0, 1.0], np.zeros(2), np.tile(np.eye(2), (2, 1, 1)), [FULL_COND] * 2),
    ([1.0, 1.0], np.zeros((2, 2)), np.eye(2), [FULL_COND] * 2),
    ([1.0], np.zeros((1, 2)), np.eye(2)[None], []),
], ids=["weights", "labels", "means", "covariances", "no-components"])
def test_mixture_rejects_mismatched_shapes(weights, means, covs, labels):
    with pytest.raises(ValueError):
        ConditionedMixture(weights, means, covs, labels)


def test_fields_are_read_only_copies_of_the_callers_arrays():
    weights, means, covs = np.array([0.5, 1.0]), np.zeros((2, 2)), np.tile(np.eye(2), (2, 1, 1))
    labels = [FULL_COND, IMAGE_COND]
    mix = ConditionedMixture(weights, means, covs, labels)
    for given, field in ((weights, mix.weights), (means, mix.means), (covs, mix.covariances)):
        assert not field.flags.writeable
        assert not np.shares_memory(given, field)
        np.testing.assert_array_equal(field, given)
        with pytest.raises(ValueError, match="read-only"):
            field[0] = 7.0
    weights[0] = means[0, 0] = covs[0, 0, 0] = 7.0
    labels[0] = TEXT_COND
    assert mix.weights[0] == 0.5 and mix.means[0, 0] == 0.0 and mix.covariances[0, 0, 0] == 1.0
    assert mix.labels == (FULL_COND, IMAGE_COND)


def test_sub_and_noised_mixtures_are_read_only():
    mix = toy_mixture()
    for out in (sub_mixture(mix, FULL_COND), noised_mixture(mix, linear_beta_schedule(), 300)):
        assert isinstance(out.labels, tuple)
        for field in (out.weights, out.means, out.covariances):
            assert not field.flags.writeable


@pytest.mark.parametrize("build", [toy_mixture, grid_mesh, linear_beta_schedule],
                         ids=["mixture", "mesh", "schedule"])
def test_array_records_compare_and_hash_by_identity(build):
    """Records of read-only arrays have no field-wise equality (numpy's would be
    ambiguous); two builds are two records, as the oracle's identity check has it."""
    a, b = build(), build()
    assert a == a and a != b
    assert len({a, b}) == 2


@pytest.mark.parametrize("cond,admitted", [
    (UNCONDITIONED, set(ALL_CONDITIONS)),
    (IMAGE_COND, {IMAGE_COND, FULL_COND}),
    (TEXT_COND, {TEXT_COND, FULL_COND}),
    (FULL_COND, {FULL_COND}),
])
def test_condition_membership_table(cond, admitted):
    for label in ALL_CONDITIONS:
        assert cond.admits(label) == (label in admitted)


# ---------------------------------------------------------------------------
# sub_mixture
# ---------------------------------------------------------------------------

def test_toy_full_condition_selects_the_two_joint_modes():
    sub = sub_mixture(toy_mixture(), FULL_COND)
    assert sub.size == 2
    means = sub.means
    assert sorted(map(tuple, means.tolist())) == [(1.5, 0.4), (1.5, 1.4)]
    w = sub.weights
    np.testing.assert_allclose(w / w.sum(), [0.5, 0.5])


def test_toy_unconditioned_is_the_full_mixture():
    mix = toy_mixture()
    sub = sub_mixture(mix, UNCONDITIONED)
    assert sub.size == 5
    np.testing.assert_array_equal(sub.means, mix.means)
    w, w_mix = sub.weights, mix.weights
    np.testing.assert_allclose(w / w.sum(), w_mix / w_mix.sum())


def test_single_both_component_renormalizes_to_one():
    mix = mixture_of((0.3, [1.0, 2.0], 0.5, FULL_COND))
    sub = sub_mixture(mix, IMAGE_COND)
    assert sub.size == 1
    w = sub.weights
    assert (w / w.sum())[0] == pytest.approx(1.0)


def test_unsupported_condition_errors():
    mix = mixture_of((1.0, [0.0, 0.0], 1.0, TEXT_COND))
    with pytest.raises(ValueError, match="condition has no support"):
        sub_mixture(mix, IMAGE_COND)


@given(st.integers(0, 2**32 - 1))
def test_sub_mixture_idempotent(seed):
    mix = random_conditioned_mixture(np.random.default_rng(seed))
    for cond in ALL_CONDITIONS:
        once = sub_mixture(mix, cond)
        twice = sub_mixture(once, cond)
        assert once.labels == twice.labels
        np.testing.assert_allclose(twice.weights, once.weights, rtol=1e-15)
        np.testing.assert_array_equal(twice.means, once.means)


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_toy_density_at_origin():
    # dominated by the unconditional mode: 0.1 / (2*pi*0.1) plus small terms
    val = mixture_density(toy_mixture(), [0.0, 0.0])
    assert val == pytest.approx(0.1596, abs=5e-5)
    assert val == pytest.approx(0.1596158051018039, rel=1e-12)


def test_single_gaussian_normalization():
    mix = mixture_of((1.0, [0.0, 0.0], 1.0, FULL_COND))
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
# the log-sum-exp kernel
# ---------------------------------------------------------------------------

def _scaled(mix, var_scale):
    return ConditionedMixture(mix.weights, mix.means, var_scale * mix.covariances, mix.labels)


def _assert_log_close(got, want):
    """Within 1e-14 relative, with a floor of 1e-14 absolute: an absolute error d
    in a log density is a relative error of about d in the density."""
    got, want = np.asarray(got), np.asarray(want)
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])
    err = np.abs(got[finite] - want[finite])
    assert np.all(err <= 1e-14 * np.maximum(1.0, np.abs(want[finite]))), err.max()


@settings(derandomize=True, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), full_cov=st.booleans(),
       var_scale=st.sampled_from([1.0, 1e-6]), offset=st.sampled_from([0.0, 4.0, 40.0]))
def test_density_kernel_matches_scipy_logsumexp(seed, full_cov, var_scale, offset):
    """log_density and density of points and stacks against scipy's logsumexp."""
    rng = np.random.default_rng(seed)
    mix = _scaled(random_conditioned_mixture(rng, max_components=12, full_cov=full_cov),
                  var_scale)
    frozen = FrozenMixture(mix)
    z = (rng.uniform(-2.0, 2.0, size=(3, 4, mix.dim))
         + offset * rng.choice([-1.0, 1.0], size=(3, 4, mix.dim)))
    for pts in (z[0, 0], z[0], z):
        want = logsumexp(frozen.log_wts + frozen.evaluate(pts)[0], axis=-1)
        got = frozen.log_density(pts)
        assert np.shape(got) == np.shape(want)
        _assert_log_close(got, want)
        dens = frozen.density(pts)
        assert np.shape(dens) == np.shape(want)
        normal = want > np.log(np.finfo(float).tiny)
        with np.errstate(divide="ignore"):
            _assert_log_close(np.log(dens)[normal], want[normal])
        # below the normal range a float holds too few digits for a relative bound
        assert np.all(np.abs(dens[~normal] - np.exp(want[~normal])) <= np.finfo(float).tiny)
    assert mixture_log_density(mix, z[0, 0]) == frozen.log_density(z[0, 0])
    assert mixture_density(mix, z[0, 0]) == frozen.density(z[0, 0])


@pytest.mark.parametrize("seed", range(6))
def test_density_of_masked_rows_equals_sub_mixture_densities(seed):
    rng = np.random.default_rng(seed)
    mix = random_conditioned_mixture(rng, max_components=12, full_cov=seed % 2 == 0)
    rows = np.full((len(ALL_CONDITIONS), mix.size), -np.inf)
    for row, cond in enumerate(ALL_CONDITIONS):
        idx, log_wts = condition_support(mix, cond)
        rows[row, idx] = log_wts
    frozen = FrozenMixture(mix)
    for _ in range(5):
        z = rng.uniform(-3.0, 3.0, size=mix.dim)
        got = frozen.density(z, rows)
        assert got.shape == (len(ALL_CONDITIONS),)
        for value, cond in zip(got, ALL_CONDITIONS):
            assert value == pytest.approx(mixture_density(sub_mixture(mix, cond), z),
                                          rel=1e-12)


def test_all_minus_inf_rows_give_zero_and_minus_inf_without_warnings():
    frozen = FrozenMixture(toy_mixture())
    far = np.array([np.inf, -np.inf])
    rows = np.stack([frozen.log_wts, np.full(frozen.log_wts.size, -np.inf)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frozen.density(far) == 0.0
        assert frozen.log_density(far) == -np.inf
        np.testing.assert_array_equal(frozen.density(far, rows), [0.0, 0.0])
        got = frozen.density(np.zeros(2), rows)
    assert got[0] > 0.0 and got[1] == 0.0
    stack = np.array([[0.0, 0.0], [np.inf, 0.0]])
    np.testing.assert_array_equal(frozen.log_density(stack)[1:], [-np.inf])
    assert np.isfinite(frozen.log_density(stack)[0])


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def test_score_zero_at_isolated_mode():
    mix = mixture_of((1.0, [1.0, -2.0], 0.3, FULL_COND))
    np.testing.assert_allclose(mixture_score(mix, [1.0, -2.0]), [0.0, 0.0])


def test_single_gaussian_score_formula():
    c = 0.4
    mu = np.array([1.0, 2.0])
    mix = mixture_of((1.0, mu, c, FULL_COND))
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
    np.testing.assert_array_equal(out.means, mix.means)
    np.testing.assert_array_equal(out.covariances, mix.covariances)
    assert out.labels == mix.labels


def test_noised_component_substitution():
    mix = mixture_of((1.0, [2.0, -4.0], 0.2, FULL_COND))
    sched = NoiseSchedule(np.array([0.25, 0.1]))
    out = noised_mixture(mix, sched, 1)
    np.testing.assert_allclose(out.means[0], [1.0, -2.0])
    np.testing.assert_allclose(out.covariances[0], (0.25 * 0.2 + 0.75) * np.eye(2))


def test_noised_preserves_weights_and_labels_exactly():
    mix = toy_mixture()
    sched = NoiseSchedule(np.array([0.9, 0.5, 0.1]))
    out = noised_mixture(mix, sched, 2)
    assert out.size == mix.size
    np.testing.assert_array_equal(out.weights, mix.weights)
    assert out.labels == mix.labels


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
    raw = FrozenMixture(mix).density(pts)
    sig2 = 1.0 - ab
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = rng.uniform(-0.5, 3.5, size=2)
        d2 = ((g - np.sqrt(ab) * pts) ** 2).sum(axis=1)
        kernel = np.exp(-0.5 * d2 / sig2) / (2 * np.pi * sig2)
        convolved = float((raw * kernel).sum() * dx * dx)
        assert abs(convolved - mixture_density(out, g)) < 1e-3


@pytest.mark.parametrize("mix, iso", [
    (toy_mixture(), True),
    (random_conditioned_mixture(np.random.default_rng(4)), False),
    (mixture_of((0.2, [0.0, 1.0, -1.0], 0.3, UNCONDITIONED),
                (0.5, [1.0, 0.5, 2.0], 1.7, FULL_COND),
                (0.3, [-2.0, 0.0, 0.5], 0.05, IMAGE_COND)), True),
], ids=["isotropic", "full_covariance", "isotropic_3d_unequal_variances"])
def test_pushforward_table_equals_frozen_noised_mixture_bitwise(mix, iso):
    """Row t - 1 of the stacked table, inverse variances for an isotropic table
    and inverse covariances for any other, is the table of the noised mixture
    at t, field for field."""
    sched = linear_beta_schedule()
    base = FrozenMixture(mix)
    assert base.iso is iso
    stack = base.pushforward(sched.alphas_bar)
    for t in range(1, sched.num_steps + 1):
        ref = FrozenMixture(noised_mixture(mix, sched, t))
        for name in FrozenMixture.__slots__:
            got, want = getattr(stack, name), getattr(ref, name)
            if isinstance(want, np.ndarray):
                if name != "log_wts":  # the one array every level shares
                    assert got.shape[0] == sched.num_steps, name
                    got = got[t - 1]
                assert (got.dtype, got.shape) == (want.dtype, want.shape), (t, name)
                assert got.tobytes() == want.tobytes(), (t, name)
            else:
                assert got == want and type(got) is type(want), (t, name)


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
    labels = mix.labels
    means = mix.means
    by_label = {}
    for lab, mean in zip(labels, means):
        by_label.setdefault(lab, []).append(tuple(mean))
    assert by_label[UNCONDITIONED] == [(0.0, 0.0)]
    assert by_label[TEXT_COND] == [(3.0, 1.0)]
    assert by_label[IMAGE_COND] == [(0.5, 1.0)]
    assert sorted(by_label[FULL_COND]) == [(1.5, 0.4), (1.5, 1.4)]
    np.testing.assert_allclose(sorted(mix.weights), [0.1, 0.15, 0.15, 0.3, 0.3])


GOOD_ENTRY = {"weight": 1.0, "mean": [0, 0], "covariance": 0.1, "label": "both"}


@pytest.mark.parametrize("entry,field", [
    (5, "components[0]"),
    ({**GOOD_ENTRY, "weight": [1.0]}, "components[0].weight"),
    ({**GOOD_ENTRY, "mean": {}}, "components[0].mean"),
    ({**GOOD_ENTRY, "covariance": {}}, "components[0].covariance"),
    ({**GOOD_ENTRY, "label": ["both"]}, "components[0].label"),
    ({**GOOD_ENTRY, "mean": [[0, 0]]}, "components[0].mean"),
    ({**GOOD_ENTRY, "mean": []}, "components[0].mean"),
    ({**GOOD_ENTRY, "covariance": np.eye(3).tolist()}, "components[0].covariance"),
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
