import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdse_lab.fields import ConfigError
from sdse_lab.samplers import SamplerKind, TimestepSampler, timestep_sequence


def test_envelope_endpoints_without_jitter():
    sampler = TimestepSampler(SamplerKind.NON_INCREASING, 1, 800, 257)
    ts = timestep_sequence(sampler, np.random.default_rng(0))
    assert ts[0] == 800
    assert ts[256] == 1


def test_single_step_sequence_is_t_max():
    sampler = TimestepSampler(SamplerKind.NON_INCREASING, 5, 300, 1)
    assert timestep_sequence(sampler, np.random.default_rng(0)).tolist() == [300]


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 100.0),
       st.integers(2, 400))
def test_non_increasing_for_every_seed_and_jitter(seed, jitter, steps):
    sampler = TimestepSampler(SamplerKind.NON_INCREASING, 1, 800, steps, jitter=jitter)
    ts = timestep_sequence(sampler, np.random.default_rng(seed))
    assert len(ts) == steps
    assert np.all(np.diff(ts) <= 0)
    assert ts.min() >= 1 and ts.max() <= 800


def test_uniform_range_respected():
    sampler = TimestepSampler(SamplerKind.UNIFORM, 150, 800, 5000)
    ts = timestep_sequence(sampler, np.random.default_rng(1))
    assert ts.min() >= 150 and ts.max() <= 800


def test_uniform_mean_moment_check():
    n = 10**5
    sampler = TimestepSampler(SamplerKind.UNIFORM, 150, 800, n)
    ts = timestep_sequence(sampler, np.random.default_rng(2))
    std = np.sqrt(((800 - 150 + 1) ** 2 - 1) / 12.0)
    assert abs(ts.mean() - 475.0) < 3 * std / np.sqrt(n)


def test_sequence_deterministic_given_seed():
    sampler = TimestepSampler(SamplerKind.NON_INCREASING, 1, 800, 100, jitter=10.0)
    a = timestep_sequence(sampler, np.random.default_rng(7))
    b = timestep_sequence(sampler, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("kwargs", [
    dict(kind=SamplerKind.UNIFORM, t_min=0, t_max=10, total_steps=5),
    dict(kind=SamplerKind.UNIFORM, t_min=10, t_max=5, total_steps=5),
    dict(kind=SamplerKind.UNIFORM, t_min=1, t_max=10, total_steps=0),
    dict(kind=SamplerKind.UNIFORM, t_min=1, t_max=10, total_steps=5, jitter=-1.0),
])
def test_invalid_sampler_configs(kwargs):
    with pytest.raises(ValueError):
        TimestepSampler(**kwargs)


def test_sampler_reads_a_kind_name_as_its_kind():
    """A name samples as its SamplerKind does; "uniform" used to run the non-increasing
    sampler ([10 8 6 3 1] on seed 0)."""
    sampler = TimestepSampler("uniform", 1, 10, 5)
    assert sampler == TimestepSampler(SamplerKind.UNIFORM, 1, 10, 5)
    assert timestep_sequence(sampler, np.random.default_rng(0)).tolist() == [9, 7, 6, 3, 4]
    assert TimestepSampler("non_increasing", 1, 10, 5).kind is SamplerKind.NON_INCREASING


@pytest.mark.parametrize("kind", [None, "bogus", "UNIFORM", ["uniform"], 1])
def test_sampler_refuses_a_kind_that_is_not_a_sampler_kind_or_its_name(kind):
    with pytest.raises(ConfigError, match=r"^kind: expected one of \['non_increasing', "
                                          r"'uniform'\], got "):
        TimestepSampler(kind, 1, 10, 5)


@pytest.mark.parametrize("field, value, message", [
    ("t_min", 1.5, "expected an integer"), ("t_max", 3.5, "expected an integer"),
    ("t_min", True, "expected a number"), ("t_max", np.True_, "expected a number"),
    ("total_steps", True, "expected a number"), ("t_max", "800", "expected a number"),
], ids=["t_min-1.5", "t_max-3.5", "t_min-True", "t_max-value4", "total_steps-True", "t_max-800"])
def test_sampler_refuses_a_field_that_is_not_an_integer(field, value, message):
    """rng.integers would truncate 1.5 and 3.5 and emit t = 1, below t_min."""
    kwargs = dict(kind=SamplerKind.UNIFORM, t_min=1, t_max=3, total_steps=5)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{field}: {message}$"):
        TimestepSampler(**kwargs)


def test_sampler_reads_an_integral_float_as_an_int():
    """The JSON rule: 5.0 is the integer 5."""
    sampler = TimestepSampler(SamplerKind.UNIFORM, t_min=1, t_max=3, total_steps=5.0)
    assert sampler.total_steps == 5 and type(sampler.total_steps) is int


@pytest.mark.parametrize("jitter, message", [
    (np.nan, "expected a finite number"), (np.inf, "expected a finite number"),
    (-1.0, "must be >= 0.0"), (True, "expected a number"),
], ids=["nan", "inf", "negative", "bool"])
def test_sampler_refuses_a_jitter_that_is_not_a_finite_number_of_at_least_zero(jitter, message):
    """A NaN jitter used to sample with no jitter at all (NaN > 0 is false)."""
    with pytest.raises(ValueError, match=f"^jitter: {message}$"):
        TimestepSampler(SamplerKind.NON_INCREASING, 1, 800, 100, jitter=jitter)


@pytest.mark.parametrize("steps, message", [
    (2.5, "expected an integer"), (0, "must be >= 1"), (True, "expected a number"),
], ids=["fractional", "zero", "bool"])
def test_sequence_refuses_steps_that_are_not_an_integer_of_at_least_one(steps, message):
    """2.5 used to cut the run to 2 steps; refused before any draw."""
    sampler = TimestepSampler(SamplerKind.UNIFORM, 1, 800, 100)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^steps: {message}$"):
        timestep_sequence(sampler, rng, steps)
    assert rng.bit_generator.state == state


def test_sampler_accepts_numpy_integers():
    sampler = TimestepSampler(SamplerKind.UNIFORM, np.int64(2), np.int32(4), np.int64(50))
    assert [type(v) for v in (sampler.t_min, sampler.t_max, sampler.total_steps)] == [int] * 3
    ts = timestep_sequence(sampler, np.random.default_rng(0))
    assert ts.min() >= 2 and ts.max() <= 4
