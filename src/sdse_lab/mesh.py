"""Synthetic per-vertex latent meshes and the Laplacian smoothness regularizer.

The mesh is an undirected connected graph whose vertices carry latent codes
and region labels. Smoothness is measured through the combinatorial graph
Laplacian L = D - A: the loss is the mean squared row norm of L applied to a
matrix of per-vertex deltas, so constant fields cost nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ConfigError, array, choice, expect, get, known_fields, load_json, number
from .mixtures import START_POINT


@dataclass(frozen=True, eq=False)
class LatentMesh:
    """Connected vertex graph with per-vertex latent codes and region ids."""

    edges: np.ndarray          # (E, 2) vertex ids, read-only np.intp
    codes: np.ndarray          # (N, latent_dim)
    regions: np.ndarray        # (N,) integer region ids

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=float)
        regions = np.asarray(self.regions, dtype=int)
        if codes.ndim != 2:
            raise ValueError("codes must be an (N, latent_dim) matrix")
        n = codes.shape[0]
        if regions.shape != (n,):
            raise ValueError("every vertex needs a region id")
        if not np.all(np.isfinite(codes)):
            raise ValueError("codes must be finite")
        ends = np.asarray(self.edges)
        if ends.shape == (0,):  # no edges, given as an empty list
            ends = ends.astype(np.intp).reshape(0, 2)
        if ends.ndim != 2 or ends.shape[1] != 2 or ends.dtype.kind not in "iu":
            raise ValueError(f"edges must be an (E, 2) integer array of vertex pairs, "
                             f"got {ends.dtype} of shape {ends.shape}")
        bad = ((ends < 0) | (ends >= n)).any(axis=1) | (ends[:, 0] == ends[:, 1])
        if bad.any():
            i, j = ends[np.argmax(bad)].tolist()
            raise ValueError(f"edge ({i},{j}) references invalid vertices")
        ends = ends.astype(np.intp)  # a copy, so the caller's array stays theirs
        if not _is_connected(n, ends):
            raise ValueError("mesh graph must be connected")
        codes = codes.copy()
        regions = regions.copy()
        for a in (ends, codes, regions):
            a.flags.writeable = False
        object.__setattr__(self, "edges", ends)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "_region_index", _index_regions(regions))

    @property
    def num_vertices(self) -> int:
        return self.codes.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.codes.shape[1]

    def region_ids(self) -> np.ndarray:
        """The region ids in increasing order, read from the region index."""
        return np.array(list(self._region_index), dtype=np.intp)

    def region_vertices(self, region: int) -> np.ndarray:
        """The region's vertices in increasing order, read-only (empty if it has none)."""
        return self._region_index.get(region, _NO_VERTICES)

    def with_codes(self, codes: np.ndarray) -> "LatentMesh":
        """Same mesh with new codes of the same shape.

        The topology was validated when this mesh was built and cannot change,
        so the new mesh shares the edge array, the regions and their vertex
        index, and only the shape of the codes is checked.
        """
        codes = np.array(codes, dtype=float)
        if codes.shape != self.codes.shape:
            raise ValueError(f"codes must keep the mesh's {self.codes.shape} shape, "
                             f"got {codes.shape}")
        codes.flags.writeable = False
        mesh = object.__new__(type(self))
        object.__setattr__(mesh, "edges", self.edges)
        object.__setattr__(mesh, "codes", codes)
        object.__setattr__(mesh, "regions", self.regions)
        object.__setattr__(mesh, "_region_index", self._region_index)
        return mesh


_NO_VERTICES = np.empty(0, dtype=np.intp)
_NO_VERTICES.flags.writeable = False


def _index_regions(regions: np.ndarray) -> dict[int, np.ndarray]:
    """Each region id's vertices, as read-only slices of one region-sorted order.

    The sort is stable, so a slice equals np.flatnonzero(regions == region).
    """
    order = np.argsort(regions, kind="stable")
    order.flags.writeable = False
    ids, starts = np.unique(regions[order], return_index=True)
    ends = np.append(starts[1:], order.size)
    return {int(r): order[a:b] for r, a, b in zip(ids, starts, ends)}


def _is_connected(n: int, ends: np.ndarray) -> bool:
    """Whether n >= 1 vertices and the (E, 2) edge array form a connected graph.

    Min-label hooking with pointer jumping: each round hooks every edge end's
    root onto the other end's root where that is smaller, then jumps each label
    to its root, until every edge's ends share one. A label never leaves its
    component and vertex 0 keeps label 0, so all labels are 0 iff connected.
    """
    label = np.arange(n)
    while True:
        a, b = label[ends[:, 0]], label[ends[:, 1]]
        if np.array_equal(a, b):
            return n > 0 and not label.any()
        np.minimum.at(label, a, b)
        np.minimum.at(label, b, a)
        while not np.array_equal(up := label[label], label):
            label = up


def _laplacian(n: int, ends: np.ndarray) -> sp.csr_matrix:
    """Combinatorial Laplacian L = D - A of n vertices and an (E, 2) edge array (unchecked)."""
    import scipy.sparse as sp  # here: toy runs, plots and descents skip its ~0.2 s import

    diag = np.arange(n)
    rows = np.concatenate([ends[:, 0], ends[:, 1], diag])
    cols = np.concatenate([ends[:, 1], ends[:, 0], diag])
    vals = np.concatenate([np.full(2 * len(ends), -1.0),
                           np.bincount(ends.ravel(), minlength=n).astype(float)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def build_laplacian(mesh: LatentMesh) -> sp.csr_matrix:
    """Combinatorial Laplacian L = D - A of the mesh graph, connected since it was built."""
    return _laplacian(mesh.num_vertices, mesh.edges)


def squared_norms(x: np.ndarray) -> np.ndarray:
    """Squares of x summed over its last axis, one pass per column.

    Bitwise equal to (x * x).sum(axis=-1) while the last axis is narrower than
    8, where numpy also adds in column order (from 8 up it sums pairwise), and
    much cheaper on a narrow last axis than that strided row reduction.
    """
    total = np.zeros(x.shape[:-1])
    for j in range(x.shape[-1]):
        col = x[..., j]
        total += col * col
    return total


# Values per bincount pass in _exact_sum: sums of at most 2**26 parts below
# 2**27 stay below 2**53, so every one is exact.
_EXACT_CHUNK = 1 << 26


def _exact_sum(values: np.ndarray) -> float:
    """math.fsum(values) for a 1-D array of nonnegative values, without a Python
    list: nan if a value is nan, inf if one is or where the total overflows.

    frexp writes each finite value as (h + f) * 2**(e - 27), h an integer below
    2**27 and f a fraction in multiples of 2**-26. The per-exponent sums of h
    and of f are exact, so fsum over those few terms rounds the exact total
    once, as fsum over the values does. A term past the float range is inf;
    the caller silences that overflow warning.
    """
    top = values.max(initial=0.0)
    if not math.isfinite(top):  # nan if any value is nan, else inf, as fsum gives
        return float(top)
    terms = []
    for start in range(0, values.size, _EXACT_CHUNK):
        mant, exp = np.frexp(values[start:start + _EXACT_CHUNK])
        scaled = mant * 2.0 ** 27
        high = np.floor(scaled)
        low = int(exp.min())
        bucket = np.subtract(exp, low, dtype=np.intp)  # the index type bincount takes
        highs = np.bincount(bucket, high)
        scale = np.arange(low - 27, low - 27 + highs.size)
        terms += np.ldexp(highs, scale).tolist()
        terms += np.ldexp(np.bincount(bucket, scaled - high), scale).tolist()
    try:
        return math.fsum(terms)
    except OverflowError:  # finite terms whose total is not
        return math.inf


def smoothness_loss(lap: sp.spmatrix, delta: np.ndarray) -> float:
    """Mean squared row norm of L @ delta; zero exactly on per-component-constant
    fields, inf where the total overflows."""
    delta = np.asarray(delta, dtype=float)
    if delta.ndim != 2 or delta.shape[0] != lap.shape[0]:
        raise ValueError("delta must be (N, latent_dim) matching the Laplacian")
    rough = lap @ delta
    n = delta.shape[0]
    # The exact sum is correctly rounded, so the loss is exactly permutation
    # invariant. A row or sum past the float range is inf, and so is the loss.
    with np.errstate(over="ignore"):
        return _exact_sum(squared_norms(rough)) / n


def smoothness_gradient(lap: sp.spmatrix, delta: np.ndarray) -> np.ndarray:
    """Analytic gradient of the smoothness loss: (2/N) L^T L delta."""
    delta = np.asarray(delta, dtype=float)
    if delta.ndim != 2 or delta.shape[0] != lap.shape[0]:
        raise ValueError("delta must be (N, latent_dim) matching the Laplacian")
    n = delta.shape[0]
    return (2.0 / n) * (lap.T @ (lap @ delta))


# ---------------------------------------------------------------------------
# Mesh files and shipped fixtures
# ---------------------------------------------------------------------------

# The keys of a mesh file's `init.params` for each `init.mode`.
INIT_PARAMS = {"constant": ("value",), "gaussian": ("seed", "mean", "std")}


def mesh_from_dict(spec: dict) -> LatentMesh:
    known_fields(spec, "", ("vertices", "edges", "regions", "codes", "init"))
    n = get(spec, "vertices", number, integer=True, minimum=1)
    ends = get(spec, "edges", array, integer=True, minimum=0, maximum=n - 1)
    expect(ends.shape == (0,) or ends.shape[1:] == (2,), "edges",
           "expected a list of [i, j] pairs")
    regions = get(spec, "regions", array, integer=True)
    expect(regions.shape == (n,), "regions", f"expected a list of {n} region ids")
    expect(not ("codes" in spec and "init" in spec), "init", "give codes or init, not both")
    if "codes" in spec:
        codes = get(spec, "codes", array)
        expect(codes.ndim == 2 and len(codes) == n, "codes",
               f"expected a list of {n} code vectors, one per vertex")
    elif "init" in spec:
        init = spec["init"]
        known_fields(init, "init", ("mode", "params"))
        mode = get(init, "init.mode", choice, INIT_PARAMS)
        params = init.get("params", {})
        known_fields(params, "init.params", INIT_PARAMS[mode])
        if mode == "constant":
            codes = np.tile(get(params, "init.params.value", array), (n, 1))
        else:
            seed = get(params, "init.params.seed", number, default=0, integer=True, minimum=0)
            mean = get(params, "init.params.mean", array, default=np.zeros(2))
            std = float(get(params, "init.params.std", number, default=1.0))
            rng = np.random.default_rng(seed)
            # codes that overflow are rejected by LatentMesh
            with np.errstate(over="ignore", invalid="ignore"):
                codes = mean + std * rng.standard_normal((n, mean.size))
    else:
        raise ConfigError("codes", "missing required field (or give 'init')")
    return LatentMesh(edges=ends, codes=codes, regions=regions)


def load_mesh(path) -> LatentMesh:
    """The mesh in the file `path` names ('pkg:NAME' for a shipped file)."""
    return mesh_from_dict(load_json(path))


def mesh_to_dict(mesh: LatentMesh) -> dict:
    return {"vertices": mesh.num_vertices,
            "edges": mesh.edges.tolist(),
            "regions": mesh.regions.tolist(),
            "codes": mesh.codes.tolist()}


def grid_mesh(rows: int = 10, cols: int = 10, num_regions: int = 5,
              init_code=START_POINT) -> LatentMesh:
    """Banded grid graph: 4-connected lattice split into horizontal region bands."""
    n = rows * cols
    ids = np.arange(n).reshape(rows, cols)
    # each vertex's edges to its right and lower neighbours, in row-major order
    pairs = np.stack([np.stack([ids, ids + 1], 2), np.stack([ids, ids + cols], 2)], 2)
    has = np.stack(np.broadcast_arrays(np.arange(cols) + 1 < cols,
                                       np.arange(rows)[:, None] + 1 < rows), axis=2)
    band = max(1, rows // num_regions)
    regions = np.repeat(np.minimum(np.arange(rows) // band, num_regions - 1), cols)
    codes = np.tile(np.asarray(init_code, dtype=float), (n, 1))
    return LatentMesh(edges=pairs[has], codes=codes, regions=regions)

