import numpy as np
import pytest
from hypothesis import given, strategies as st

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


@pytest.mark.parametrize("field, value", [
    ("t_min", 1.5), ("t_max", 3.5), ("total_steps", 5.0), ("t_min", True),
    ("t_max", np.True_), ("total_steps", True), ("t_max", "800"),
])
def test_sampler_refuses_a_field_that_is_not_an_integer(field, value):
    """rng.integers would truncate 1.5 and 3.5 and emit t = 1, below t_min."""
    kwargs = dict(kind=SamplerKind.UNIFORM, t_min=1, t_max=3, total_steps=5)
    kwargs[field] = value
    with pytest.raises(ValueError, match=rf"{field} must be an integer, got {value!r}"):
        TimestepSampler(**kwargs)


def test_sampler_accepts_numpy_integers():
    sampler = TimestepSampler(SamplerKind.UNIFORM, np.int64(2), np.int32(4), np.int64(50))
    ts = timestep_sequence(sampler, np.random.default_rng(0))
    assert ts.min() >= 2 and ts.max() <= 4
