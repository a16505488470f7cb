import numpy as np
import pytest

from sdse_lab.mixtures import FrozenMixture, mixture_density, toy_mixture
from sdse_lab.plots import density_grid, marching_squares, plot_trajectories_svg
from sdse_lab.verify import random_conditioned_mixture


def test_marching_squares_on_a_cone():
    xs = np.linspace(-1, 1, 41)
    ys = np.linspace(-1, 1, 41)
    grid = 1.0 - np.sqrt(xs[:, None] ** 2 + ys[None, :] ** 2)
    segments = marching_squares(xs, ys, grid, level=0.5)
    assert len(segments) > 20
    for (xa, ya), (xb, yb) in segments:
        # every contour point sits near the radius-0.5 circle
        for x, y in ((xa, ya), (xb, yb)):
            assert abs(np.hypot(x, y) - 0.5) < 0.06


def test_marching_squares_empty_above_max():
    xs = np.linspace(0, 1, 10)
    grid = np.zeros((10, 10))
    assert marching_squares(xs, xs, grid, level=1.0) == []


def test_density_grid_positive_at_modes():
    mix = toy_mixture()
    xs, ys, grid = density_grid(mix, (-1, 4, -1, 4), resolution=40)
    assert grid.max() > 0.3
    assert grid.min() >= 0.0


def test_svg_structure_and_determinism():
    mix = toy_mixture()
    traj = np.array([[0.5, 1.0], [1.0, 1.1], [1.5, 1.3]])
    a = plot_trajectories_svg(mix, [traj], labels=["run"], digest="d00d",
                              resolution=30)
    b = plot_trajectories_svg(mix, [traj], labels=["run"], digest="d00d",
                              resolution=30)
    assert a == b
    assert a.startswith('<?xml version="1.0"')
    assert a.rstrip().endswith("</svg>")
    assert "digest=d00d" in a
    assert a.count("<polyline") == 1
    assert a.count("<polygon") == 5  # one star per labeled mode


def test_svg_without_trajectories_is_valid():
    mix = toy_mixture()
    svg = plot_trajectories_svg(mix, [], resolution=20)
    assert "<svg" in svg and "</svg>" in svg


ISO_MIX = toy_mixture()


@pytest.mark.parametrize("mix", [ISO_MIX,
                                 random_conditioned_mixture(np.random.default_rng(4),
                                                            full_cov=True)],
                         ids=["isotropic", "full_covariance"])
def test_density_grid_matches_pointwise_density(mix):
    assert FrozenMixture(mix).iso == (mix is ISO_MIX)
    xs, ys, grid = density_grid(mix, (-1.5, 3.5, -1.0, 4.0), resolution=9)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            expected = mixture_density(mix, [x, y])
            assert grid[i, j] == pytest.approx(expected, rel=1e-12, abs=0.0)
