from xml.dom import minidom

import numpy as np
import pytest

from sdse_lab import plots
from sdse_lab.mixtures import (UNCONDITIONED, ConditionedMixture, FrozenMixture, mixture_density,
                               toy_mixture)
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
    assert marching_squares(xs, xs, grid, level=1.0).shape == (0, 2, 2)


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
    minidom.parseString(a)  # well-formed XML
    assert a.startswith('<?xml version="1.0"')
    assert a.rstrip().endswith("</svg>")
    assert "digest=d00d" in a
    assert a.count("<polyline") == 1
    assert a.count("<polygon") == 5  # one star per labeled mode


def test_svg_leaves_out_points_whose_canvas_coordinates_are_not_finite():
    """A diverged row (1e308 overflows the canvas scale) or an infinite one is
    dropped from the polyline and the end marker; the finite rows draw as they
    do alone."""
    mix = toy_mixture()
    finite = np.array([[0.5, 1.0], [1.0, 1.1]])
    alone = plot_trajectories_svg(mix, [finite], resolution=20)
    for tail in ([1e308, 0.5], [np.inf, -np.inf], [np.nan, 1.0]):
        svg = plot_trajectories_svg(mix, [np.vstack([finite, tail])], resolution=20)
        assert "inf" not in svg and "nan" not in svg
        polyline = [line for line in svg.splitlines() if "<polyline" in line]
        assert polyline == [line for line in alone.splitlines() if "<polyline" in line]
        assert svg.count("<circle") == 1  # the start marker; the end is not finite


def test_trajectory_points_map_as_they_do_one_python_float_at_a_time():
    """The overlay's text is the per-point Python-float mapping's, overflowing and
    NaN rows included: they are left out of the polyline and the markers."""
    mix = toy_mixture()
    rng = np.random.default_rng(3)
    traj = np.vstack([rng.normal(1.0, 1.5, (40, 2)), [[1e308, 0.5]], rng.normal(size=(5, 2)),
                      [[np.nan, 1.0]]])
    lines = plot_trajectories_svg(mix, [traj, traj[::-1]], resolution=20).splitlines()
    cv = plots._Canvas((float(mix.means[:, 0].min() - 1.2), float(mix.means[:, 0].max() + 1.2),
                        float(mix.means[:, 1].min() - 1.2), float(mix.means[:, 1].max() + 1.2)))
    for idx, rows in enumerate((traj, traj[::-1])):
        drawn = []
        for x, y in rows.tolist():
            px, py = cv.px(x), cv.py(y)  # Python floats: an overflow is inf, silently
            drawn.append((f"{px:.2f}", f"{py:.2f}") if np.isfinite([px, py]).all() else None)
        color = plots._TRAJ_COLORS[idx]
        start, end = drawn[0], drawn[-1]
        want = [f'<polyline points="{" ".join(map(",".join, filter(None, drawn)))}" '
                f'fill="none" stroke="{color}" stroke-width="1.2" opacity="0.85"/>']
        if start:
            want.append(f'<circle cx="{start[0]}" cy="{start[1]}" r="3" fill="none" '
                        f'stroke="{color}"/>')
        if end:
            want.append(f'<circle cx="{end[0]}" cy="{end[1]}" r="3" fill="{color}"/>')
        at = lines.index(want[0])
        assert lines[at:at + len(want)] == want
        assert (start is None) != (end is None)

def test_svg_escapes_title_and_labels():
    traj = np.array([[0.5, 1.0], [1.0, 1.1]])
    svg = plot_trajectories_svg(toy_mixture(), [traj], labels=["a&b<1>"], title="x < y & z",
                                resolution=20)
    texts = minidom.parseString(svg).getElementsByTagName("text")
    assert [node.firstChild.data for node in texts[:2]] == ["x < y & z", "a&b<1>"]
    assert "x &lt; y &amp; z" in svg and "a&amp;b&lt;1&gt;" in svg


@pytest.mark.parametrize("digest", ["ab--cd", "ab\x01cd"], ids=["double-hyphen", "control"])
def test_svg_refuses_a_digest_an_xml_comment_cannot_hold(digest):
    with pytest.raises(ValueError, match="^digest: "):
        plot_trajectories_svg(toy_mixture(), [], digest=digest, resolution=20)


@pytest.mark.parametrize("title, labels, name", [("x\x00", None, "title"),
                                                 ("", ["run", "a\x1bb"], r"labels\[1\]")],
                         ids=["title", "label"])
def test_svg_refuses_text_xml_cannot_hold(title, labels, name):
    traj = np.array([[0.5, 1.0], [1.0, 1.1]])
    with pytest.raises(ValueError, match=f"^{name}: "):
        plot_trajectories_svg(toy_mixture(), [traj, traj], labels=labels, title=title,
                              resolution=20)


def test_svg_without_trajectories_is_valid():
    mix = toy_mixture()
    svg = plot_trajectories_svg(mix, [], resolution=20)
    assert "<svg" in svg and "</svg>" in svg


# A stack of points (the grid) is evaluated components first, a single point as
# before; from 8 components up the two may round differently, within the bound.
MANY_MIX = random_conditioned_mixture(np.random.default_rng(7), max_components=12,
                                      full_cov=False)


@pytest.mark.parametrize("mix, iso", [(toy_mixture(), True), (MANY_MIX, True),
                                      (random_conditioned_mixture(np.random.default_rng(4),
                                                                  full_cov=True), False)],
                         ids=["isotropic", "isotropic_12_components", "full_covariance"])
def test_density_grid_matches_pointwise_density(mix, iso):
    assert FrozenMixture(mix).iso == iso
    if mix is MANY_MIX:
        assert mix.size >= 9  # numpy sums 8 or more components pairwise
    xs, ys, grid = density_grid(mix, (-1.5, 3.5, -1.0, 4.0), resolution=9)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            expected = mixture_density(mix, [x, y])
            assert grid[i, j] == pytest.approx(expected, rel=1e-12, abs=0.0)


def reference_marching_squares(xs, ys, grid, level):
    """The scalar per-cell loop that `marching_squares` must reproduce exactly."""

    def interp(pa, pb, va, vb):
        t = 0.5 if vb == va else (level - va) / (vb - va)
        return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))

    segments = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            corners = [(xs[i], ys[j]), (xs[i + 1], ys[j]),
                       (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1])]
            vals = [grid[i, j], grid[i + 1, j], grid[i + 1, j + 1], grid[i, j + 1]]
            case = sum(1 << k for k, v in enumerate(vals) if v > level)
            if case in (0, 15):
                continue
            edges = {
                0: interp(corners[0], corners[1], vals[0], vals[1]),
                1: interp(corners[1], corners[2], vals[1], vals[2]),
                2: interp(corners[3], corners[2], vals[3], vals[2]),
                3: interp(corners[0], corners[3], vals[0], vals[3]),
            }
            lookup = {
                1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
                6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(2, 0)],
                11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
            }
            if case in (5, 10):
                center = sum(vals) / 4.0
                if case == 5:
                    pairs = [(3, 0), (1, 2)] if center <= level else [(3, 2), (1, 0)]
                else:
                    pairs = [(0, 1), (2, 3)] if center <= level else [(0, 3), (2, 1)]
            else:
                pairs = lookup[case]
            for a, b in pairs:
                segments.append((edges[a], edges[b]))
    return segments


def assert_contours_exact(xs, ys, grid, level):
    got = marching_squares(xs, ys, grid, level)
    want = np.array(reference_marching_squares(xs, ys, grid, level), dtype=float)
    assert_bitwise(got, want.reshape(-1, 2, 2))
    return got


def toy_plot_grid(resolution=110):
    mix = toy_mixture()  # the frame plot_trajectories_svg draws
    means = mix.means
    lo, hi = means.min(axis=0) - 1.2, means.max(axis=0) + 1.2
    return density_grid(mix, (float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1])),
                        resolution)


def test_marching_squares_matches_reference_on_the_toy_levels():
    xs, ys, grid = toy_plot_grid()
    gmax = grid.max()
    counts = [len(assert_contours_exact(xs, ys, grid, gmax * k / 9)) for k in range(1, 9)]
    assert sum(counts) == 1128


# One cell per grid, corners in the order of grid[0, 0], grid[1, 0], grid[1, 1], grid[0, 1].
def one_cell(v0, v1, v2, v3):
    return np.array([[v0, v3], [v1, v2]], dtype=float)


@pytest.mark.parametrize("case", [5, 10])
def test_marching_squares_saddles_take_both_centre_branches(case):
    xs, ys = np.array([0.0, 1.0]), np.array([-1.0, 2.0])
    grid = one_cell(1, 0, 1, 0) if case == 5 else one_cell(0, 1, 0, 1)
    low = assert_contours_exact(xs, ys, grid, 0.5)   # centre 0.5 <= level
    high = assert_contours_exact(xs, ys, grid, 0.25)  # centre 0.5 > level
    assert len(low) == len(high) == 2 and not np.array_equal(low, high)


@pytest.mark.parametrize("seed", range(6))
def test_marching_squares_matches_reference_on_small_grids(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(2, 12, size=2))
    xs = np.cumsum(rng.uniform(0.1, 2.0, shape[0])) - 3.0  # non-uniform spacing
    ys = np.cumsum(rng.uniform(0.1, 2.0, shape[1]))
    # small integers: flat edges, saddles and corner values exactly at the level
    grid = rng.integers(0, 3, size=shape).astype(float)
    for level in (0.0, 0.5, 1.0, 1.5, 2.0):
        assert_contours_exact(xs, ys, grid, level)
    grid = rng.standard_normal(shape)
    for level in (-0.5, 0.0, float(grid[0, 0]), 0.7):
        assert_contours_exact(xs, ys, grid, level)


def broadcast_density(frozen, z):
    """The (..., K, d) broadcast formula that points and stacks of points went
    through before, which the components-first path must reproduce bit for bit
    on isotropic mixtures below 8 components."""
    d = frozen.means - z[..., None, :]
    maha = np.add.reduce(d * d, -1) * frozen.inv
    logp = frozen.log_wts + (frozen.log_norms - 0.5 * maha)
    m = np.maximum.reduce(logp, axis=-1)
    terms = np.exp(logp - np.maximum(m, -np.finfo(float).max)[..., None])
    return np.exp(m) * np.add.reduce(terms, axis=-1)


def assert_bitwise(got, want):
    """Equal shapes and float64 bit patterns, so -0.0 != 0.0 and NaN == NaN."""
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_one_row_density_equals_the_broadcast_formula_bitwise():
    """The toy plot's 110^2 grid, then random isotropic mixtures with K <= 7 and
    d <= 3 over the same frame (a third coordinate is x - y) and at one of its
    points."""
    xs, ys, grid = toy_plot_grid()
    x, y = np.meshgrid(xs, ys, indexing="ij")
    frame = np.stack([x, y, x - y], axis=-1)
    assert_bitwise(grid, broadcast_density(FrozenMixture(toy_mixture()), frame[..., :2]))
    rng = np.random.default_rng(0)
    for size in list(range(1, 8)) * 3:
        for dim in (1, 2, 3):
            mix = ConditionedMixture(rng.uniform(0.05, 1.0, size),
                                     rng.uniform(-1.0, 4.0, (size, dim)),
                                     rng.uniform(0.02, 1.0, size)[:, None, None] * np.eye(dim),
                                     (UNCONDITIONED,) * size)
            frozen = FrozenMixture(mix)
            assert frozen.iso
            points = frame[..., :dim]
            assert_bitwise(frozen.density(points), broadcast_density(frozen, points))
            point = points[37, 81]
            assert_bitwise(np.asarray(frozen.density(point)),
                           np.asarray(broadcast_density(frozen, point)))


def test_svg_is_identical_with_the_reference_contours(monkeypatch):
    mix = toy_mixture()
    traj = np.array([[0.5, 1.0], [1.0, 1.1], [1.5, 1.3]])
    fast = plot_trajectories_svg(mix, [traj], labels=["run"], digest="d00d")
    monkeypatch.setattr(plots, "marching_squares", lambda *args: np.array(
        reference_marching_squares(*args)).reshape(-1, 2, 2))
    assert plot_trajectories_svg(mix, [traj], labels=["run"], digest="d00d") == fast
