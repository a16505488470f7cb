"""Standalone SVG plots: density contours with trajectory overlays.

The emitter writes plain SVG text with fixed formatting so identical inputs
produce byte-identical files. Contour lines come from a marching-squares pass
over a density grid: numpy classifies every cell at once, and only the cells
a level crosses are interpolated and turned into segments. Trajectories are
polylines; labeled modes are drawn as markers.
"""

from __future__ import annotations

import re

import numpy as np

from .mixtures import (FULL_COND, IMAGE_COND, TEXT_COND, UNCONDITIONED, ConditionedMixture,
                       FrozenMixture)

_W, _H, _PAD = 560, 560, 42
_LEVELS = 8  # contour levels, evenly spaced below the grid maximum

_TRAJ_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
                "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


# Characters an XML 1.0 document cannot hold, escaped or not.
_NON_XML = re.compile("[^\t\n\r -\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _xml_text(value: str, name: str) -> str:
    """`value` as the text of an SVG element, with &, < and > escaped; a
    character XML cannot hold is a ValueError naming `name`."""
    if _NON_XML.search(value):
        raise ValueError(f"{name}: {value!r} holds a character XML cannot hold")
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def density_grid(mix: ConditionedMixture, bounds: tuple[float, float, float, float],
                 resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x0, x1, y0, y1 = bounds
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y0, y1, resolution)
    points = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    return xs, ys, FrozenMixture(mix).density(points)


# Marching-squares cells: corner k of cell (i, j) is 0 (xs[i], ys[j]), 1 (xs[i+1], ys[j]),
# 2 (xs[i+1], ys[j+1]), 3 (xs[i], ys[j+1]); bit k of a cell's case is set when
# corner k lies above the level. Edge e runs from corner _EDGE_CORNERS[e][0] to
# corner _EDGE_CORNERS[e][1], and each case emits its segments as (edge, edge) pairs.
_EDGE_CORNERS = ((0, 1), (1, 2), (3, 2), (0, 3))
_CASE_SEGMENTS = {
    1: ((3, 0),), 2: ((0, 1),), 3: ((3, 1),), 4: ((1, 2),),
    6: ((0, 2),), 7: ((3, 2),), 8: ((2, 3),), 9: ((2, 0),),
    11: ((2, 1),), 12: ((1, 3),), 13: ((1, 0),), 14: ((0, 3),),
}
# The saddles' segments, indexed by whether the cell's centre value is <= the level.
_SADDLE_SEGMENTS = {5: {True: ((3, 0), (1, 2)), False: ((3, 2), (1, 0))},
                    10: {True: ((0, 1), (2, 3)), False: ((0, 3), (2, 1))}}
# Both as one table [case, centre <= level, slot] -> (edge, edge); (-1, -1) is no segment.
_SEGMENT_TABLE = np.array(
    [[_SADDLE_SEGMENTS[case][low] if case in _SADDLE_SEGMENTS
      else (_CASE_SEGMENTS.get(case, ((-1, -1),))[0], (-1, -1))
      for low in (False, True)] for case in range(16)], dtype=np.intp)


def marching_squares(xs: np.ndarray, ys: np.ndarray, grid: np.ndarray,
                     level: float) -> np.ndarray:
    """Line segments of the iso-contour at `level` (linear edge interpolation), as
    an (n, 2, 2) array: segment s runs from (x, y) point [s, 0] to [s, 1].

    Cells are visited i-major, j-minor; only those the level crosses are interpolated.
    """
    xs, ys, grid = np.asarray(xs), np.asarray(ys), np.asarray(grid)
    corner_grids = (grid[:-1, :-1], grid[1:, :-1], grid[1:, 1:], grid[:-1, 1:])
    cases = sum((g > level).astype(np.uint8) << k for k, g in enumerate(corner_grids))
    i, j = np.nonzero((cases != 0) & (cases != 15))
    vals = [g[i, j] for g in corner_grids]
    x0, x1, y0, y1 = xs[i], xs[i + 1], ys[j], ys[j + 1]
    corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
    edges = []
    for a, b in _EDGE_CORNERS:
        va, vb = vals[a], vals[b]
        with np.errstate(divide="ignore", invalid="ignore"):  # where vb == va
            t = np.where(vb == va, 0.5, (level - va) / (vb - va))
        (xa, ya), (xb, yb) = corners[a], corners[b]
        edges.append(np.stack([xa + t * (xb - xa), ya + t * (yb - ya)], axis=-1))
    centre_low = (((vals[0] + vals[1]) + vals[2]) + vals[3]) / 4.0 <= level

    pairs = _SEGMENT_TABLE[cases[i, j], centre_low.astype(np.intp)]  # (cells, slot, end)
    cell, slot = np.nonzero(pairs[..., 0] >= 0)  # cell order, then slot order
    return np.stack(edges, axis=1)[cell[:, None], pairs[cell, slot]]


class _Canvas:
    def __init__(self, bounds):
        self.x0, self.x1, self.y0, self.y1 = bounds

    def px(self, x: float) -> float:
        return _PAD + (x - self.x0) / (self.x1 - self.x0) * (_W - 2 * _PAD)

    def py(self, y: float) -> float:
        return _H - _PAD - (y - self.y0) / (self.y1 - self.y0) * (_H - 2 * _PAD)


def _star(cx: float, cy: float, r: float, color: str) -> str:
    pts = []
    for k in range(10):
        rad = r if k % 2 == 0 else 0.4 * r
        ang = -np.pi / 2 + k * np.pi / 5
        pts.append(f"{_fmt(cx + rad * np.cos(ang))},{_fmt(cy + rad * np.sin(ang))}")
    return (f'<polygon points="{" ".join(pts)}" fill="{color}" '
            f'stroke="#333333" stroke-width="0.8"/>')


def plot_trajectories_svg(mix: ConditionedMixture, trajectories: list[np.ndarray],
                          labels: list[str] | None = None, title: str = "",
                          digest: str = "", resolution: int = 110) -> str:
    """SVG text: unconditional density contours, labeled modes, trajectory overlays."""
    if mix.dim != 2:
        raise ValueError(f"the plot draws a 2-D mixture, got a {mix.dim}-D one")
    lo = mix.means.min(axis=0) - 1.2  # the frame reaches 1.2 beyond every component mean
    hi = mix.means.max(axis=0) + 1.2
    bounds = (float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1]))
    cv = _Canvas(bounds)
    xs, ys, grid = density_grid(mix, bounds, resolution)
    gmax = grid.max()
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
    ]
    if digest:
        if "--" in digest or _NON_XML.search(digest):
            raise ValueError(f"digest: {digest!r} cannot go in an XML comment "
                             "(it holds '--' or a character XML cannot hold)")
        parts.append(f"<!-- digest={digest} -->")
    parts.append(f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>')
    parts.append(f'<rect x="{_PAD}" y="{_PAD}" width="{_W - 2 * _PAD}" '
                 f'height="{_H - 2 * _PAD}" fill="none" stroke="#888888"/>')
    if title:
        parts.append(f'<text x="{_W // 2}" y="24" text-anchor="middle" '
                     f'font-family="monospace" font-size="13">{_xml_text(title, "title")}</text>')

    for k in range(1, _LEVELS + 1):
        level = gmax * k / (_LEVELS + 1)
        shade = 230 - int(120 * k / _LEVELS)
        style = f'stroke="#{shade:02x}{shade:02x}f0" stroke-width="1"'
        ends = marching_squares(xs, ys, grid, level)
        parts.extend(f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}" {style}/>'
                     for (xa, xb), (ya, yb) in zip(cv.px(ends[..., 0]).tolist(),
                                                   cv.py(ends[..., 1]).tolist()))

    marker_styles = {UNCONDITIONED: "#777777", TEXT_COND: "#2ca02c", IMAGE_COND: "#e6b800",
                     FULL_COND: "#d62728"}
    for (x, y), label in zip(mix.means, mix.labels):
        parts.append(_star(cv.px(x), cv.py(y), 7.0, marker_styles[label]))

    for idx, traj in enumerate(trajectories):
        color = _TRAJ_COLORS[idx % len(_TRAJ_COLORS)]
        xy = np.asarray(traj, dtype=float)[:, :2]
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite points are left out
            xs_px, ys_px = cv.px(xy[:, 0]), cv.py(xy[:, 1])
        drawn = [(_fmt(x), _fmt(y)) if finite else None for x, y, finite in zip(
            xs_px.tolist(), ys_px.tolist(), (np.isfinite(xs_px) & np.isfinite(ys_px)).tolist())]
        pts = " ".join(f"{x},{y}" for x, y in filter(None, drawn))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2" opacity="0.85"/>')
        start, end = drawn[0], drawn[-1]
        if start:
            parts.append(f'<circle cx="{start[0]}" cy="{start[1]}" '
                         f'r="3" fill="none" stroke="{color}"/>')
        if end:
            parts.append(f'<circle cx="{end[0]}" cy="{end[1]}" r="3" fill="{color}"/>')
        if labels and idx < len(labels):
            parts.append(f'<text x="{_W - _PAD - 120}" y="{_PAD + 16 + 14 * idx}" '
                         f'font-family="monospace" font-size="11" fill="{color}">'
                         f'{_xml_text(labels[idx], f"labels[{idx}]")}</text>')

    for tick in range(5):
        fx = bounds[0] + tick * (bounds[1] - bounds[0]) / 4
        fy = bounds[2] + tick * (bounds[3] - bounds[2]) / 4
        parts.append(f'<text x="{_fmt(cv.px(fx))}" y="{_H - _PAD + 16}" '
                     f'text-anchor="middle" font-family="monospace" font-size="10">'
                     f'{fx:.1f}</text>')
        parts.append(f'<text x="{_PAD - 6}" y="{_fmt(cv.py(fy) + 3)}" '
                     f'text-anchor="end" font-family="monospace" font-size="10">'
                     f'{fy:.1f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(text: str, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
