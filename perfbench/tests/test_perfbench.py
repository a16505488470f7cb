"""Exact count invariants of the benchmark's tracer, on small inputs.

A wrapper missing at one lookup site shows up here as a count that is off,
before it can skew a benchmark run. Run with:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import sdse_lab  # noqa: E402
from sdse_lab import cli, experiments, optimize, plots, views  # noqa: E402
from sdse_lab.guidance import EstimatorKind, GuidanceWeights, StageThresholds  # noqa: E402
from sdse_lab.mesh import grid_mesh  # noqa: E402
from sdse_lab.samplers import SamplerKind, TimestepSampler  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import (ESTIMATORS, DescentSpec, _load_common, check_trajectory,  # noqa: E402
                       descent_counts, mesh_counts)


@pytest.fixture(scope="module")
def common():
    return _load_common()


def test_wraps_every_lookup_site_and_restores_it():
    sites = [(optimize, "term_residual"), (experiments, "edit_step"),
             (cli, "optimize_point"), (plots, "density_grid"),
             (views, "forward_diffuse"), (sdse_lab, "term_residual"),
             (sdse_lab.NoiseOracle, "predict")]
    before = [getattr(obj, name) for obj, name in sites]
    with Tracer():
        for obj, name in sites:
            assert hasattr(getattr(obj, name), "__wrapped__"), name
    assert [getattr(obj, name) for obj, name in sites] == before


@pytest.mark.parametrize("kind", ESTIMATORS)
def test_descent_counts_are_exact(common, kind):
    mix, sched = common
    steps = 60
    sampler = TimestepSampler(SamplerKind.UNIFORM, t_min=1, t_max=800, total_steps=steps)
    spec = DescentSpec(mix, sched, sampler, 0.01, steps, GuidanceWeights(), StageThresholds())
    tracer = Tracer()
    with tracer:
        traj = optimize.optimize_point((0.5, 1.0), EstimatorKind(kind), sampler, mix, sched,
                                       lr=0.01, steps=steps, seed=7)
    snap = tracer.snapshot()
    assert (traj.timesteps[1:] <= 150).any() and (traj.timesteps[1:] > 150).any()
    expected = descent_counts([(kind, traj, 0.0)])
    expected["experiments.convergence_check.calls"] = 0
    for name, want in expected.items():
        assert snap[name] == want, name
    assert check_trajectory(spec, kind, traj, 0.0) == []


def test_mesh_counts_are_exact(common):
    mix, sched = common
    config = experiments.MeshEditConfig(steps=6, first_batch=20, views_per_step=7, w1=300.0)
    tracer = Tracer()
    with tracer:
        reports = experiments.run_mesh_edit(grid_mesh(10, 10), "head_dominant", mix, sched,
                                            [3, 4], config)
    snap = tracer.snapshot()
    runs = [{"counts": rep.allocation.counts,
             "to_threshold": rep.steps_to_threshold or config.steps} for rep in reports]
    expected = mesh_counts(runs, config.steps, config.first_batch, config.views_per_step,
                           1, "head_dominant")
    for name, want in expected.items():
        assert snap[name] == want, name
    assert snap["optimize.optimize_point.calls"] == 0


def test_plot_counters_and_traced_output_match(common):
    mix, _ = common
    thetas = [np.array([[0.5, 1.0], [1.0, 1.2], [1.4, 1.4]])]
    plain = plots.plot_trajectories_svg(mix, thetas, resolution=25)
    tracer = Tracer()
    with tracer:
        traced = plots.plot_trajectories_svg(mix, thetas, resolution=25)
    snap = tracer.snapshot()
    assert traced == plain
    assert snap["plots.density_grid.points"] == 25 * 25
    assert snap["plots.marching_squares.calls"] == 8
    assert snap["plots.marching_squares.segments"] == traced.count("<line ")
    assert len(tracer.spans) == 1 + 1 + 8
    assert all(parent == tracer.spans[-1][1] for _, _, parent, *_ in tracer.spans[:-1])
