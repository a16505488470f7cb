import numpy as np
import pytest

from sdse_lab.schedule import NoiseSchedule, linear_beta_schedule


def test_linear_schedule_basic():
    sched = linear_beta_schedule()
    assert sched.num_steps == 1000
    assert sched.alpha_bar(1) == pytest.approx(1.0 - 1e-4)
    assert 0.0 < sched.alpha_bar(1000) < 1e-4
    diffs = np.diff(sched.alphas_bar)
    assert np.all(diffs < 0)


def test_sigma_definition():
    sched = linear_beta_schedule()
    for t in (1, 100, 500, 1000):
        assert sched.sigma(t) == pytest.approx(np.sqrt(1.0 - sched.alpha_bar(t)))


def test_custom_schedule_allows_unit_alpha_bar():
    sched = NoiseSchedule(np.array([1.0, 0.5, 0.25]))
    assert sched.alpha_bar(1) == 1.0
    assert sched.sigma(1) == 0.0


@pytest.mark.parametrize("bad", [
    [0.5, 0.5],          # not strictly decreasing
    [0.5, 0.7],          # increasing
    [1.2, 0.5],          # above 1
    [0.5, 0.0],          # zero not allowed
    [],
])
def test_invalid_schedules_rejected(bad):
    with pytest.raises(ValueError):
        NoiseSchedule(np.asarray(bad, dtype=float))


@pytest.mark.parametrize("num_steps, message", [
    (2.5, "expected an integer"), (0, "must be >= 1"), (True, "expected a number"),
], ids=["fractional", "zero", "bool"])
def test_linear_schedule_refuses_a_step_count_that_is_not_an_integer_of_at_least_one(
        num_steps, message):
    """2.5 used to end in numpy's TypeError inside linspace."""
    with pytest.raises(ValueError, match=f"^num_steps: {message}$"):
        linear_beta_schedule(num_steps)


def test_timestep_range_checked():
    sched = linear_beta_schedule(num_steps=10)
    with pytest.raises(ValueError):
        sched.alpha_bar(0)
    with pytest.raises(ValueError):
        sched.alpha_bar(11)
