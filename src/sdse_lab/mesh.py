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
import scipy.sparse as sp

from .fields import ConfigError, array, choice, expect, get, known_fields, load_json, number


@dataclass(frozen=True)
class LatentMesh:
    """Connected vertex graph with per-vertex latent codes and region ids."""

    edges: tuple[tuple[int, int], ...]
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
        edges = tuple((int(i), int(j)) for i, j in self.edges)
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"edge ({i},{j}) references invalid vertices")
        if not _connected(n, edges):
            raise ValueError("mesh graph must be connected")
        codes = codes.copy()
        regions = regions.copy()
        codes.flags.writeable = False
        regions.flags.writeable = False
        object.__setattr__(self, "edges", edges)
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
        return np.unique(self.regions)

    def region_vertices(self, region: int) -> np.ndarray:
        """The region's vertices in increasing order, read-only (empty if it has none)."""
        return self._region_index.get(region, _NO_VERTICES)

    def with_codes(self, codes: np.ndarray) -> "LatentMesh":
        """Same mesh with new codes of the same shape.

        The topology was validated when this mesh was built and cannot change,
        so the new mesh shares the edges, the regions and their vertex index,
        and only the shape of the codes is checked.
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


def _connected(n: int, edges) -> bool:
    if n == 0:
        return False
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                stack.append(u)
    return bool(seen.all())


def _laplacian(n: int, edges) -> sp.csr_matrix:
    """Combinatorial Laplacian L = D - A of an n-vertex edge list (no connectivity check)."""
    ends = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    diag = np.arange(n)
    rows = np.concatenate([ends[:, 0], ends[:, 1], diag])
    cols = np.concatenate([ends[:, 1], ends[:, 0], diag])
    vals = np.concatenate([np.full(2 * len(ends), -1.0),
                           np.bincount(ends.ravel(), minlength=n).astype(float)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def build_laplacian(mesh: LatentMesh) -> sp.csr_matrix:
    """Combinatorial Laplacian L = D - A of the mesh graph, connected since it was built."""
    return _laplacian(mesh.num_vertices, mesh.edges)


def smoothness_loss(lap: sp.spmatrix, delta: np.ndarray) -> float:
    """Mean squared row norm of L @ delta; zero exactly on per-component-constant fields."""
    delta = np.asarray(delta, dtype=float)
    if delta.ndim != 2 or delta.shape[0] != lap.shape[0]:
        raise ValueError("delta must be (N, latent_dim) matching the Laplacian")
    rough = lap @ delta
    n = delta.shape[0]
    # fsum keeps the total exactly permutation invariant
    return math.fsum((rough * rough).sum(axis=1).tolist()) / n


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
    edges = tuple((i, j) for i, j in ends.reshape(-1, 2).tolist())
    return LatentMesh(edges=edges, codes=codes, regions=regions)


def load_mesh(path) -> LatentMesh:
    """The mesh in the file `path` names ('pkg:NAME' for a shipped file)."""
    return mesh_from_dict(load_json(path))


def mesh_to_dict(mesh: LatentMesh) -> dict:
    return {"vertices": mesh.num_vertices,
            "edges": [list(e) for e in mesh.edges],
            "regions": mesh.regions.tolist(),
            "codes": mesh.codes.tolist()}


def grid_mesh(rows: int = 10, cols: int = 10, num_regions: int = 5,
              init_code=(0.5, 1.0)) -> LatentMesh:
    """Banded grid graph: 4-connected lattice split into horizontal region bands."""
    n = rows * cols
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    band = max(1, rows // num_regions)
    regions = np.array([min(r // band, num_regions - 1)
                        for r in range(rows) for _ in range(cols)])
    codes = np.tile(np.asarray(init_code, dtype=float), (n, 1))
    return LatentMesh(edges=tuple(edges), codes=codes, regions=regions)


def icosahedron_edges() -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """Vertices and the 30 shortest-distance edges of the unit icosahedron."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            verts += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    verts = np.asarray(verts)
    d2 = ((verts[:, None, :] - verts[None, :, :]) ** 2).sum(-1)
    min_d2 = d2[d2 > 1e-9].min()
    edges = []
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if abs(d2[i, j] - min_d2) < 1e-9:
                edges.append((i, j))
    return verts, tuple(edges)


def icosphere_mesh(num_regions: int = 5, init_code=(0.5, 1.0)) -> LatentMesh:
    """Once-subdivided icosahedron graph (42 vertices) with latitude-band regions."""
    verts, edges = icosahedron_edges()
    verts = [v / np.linalg.norm(v) for v in verts]
    midpoint: dict[tuple[int, int], int] = {}

    def mid(i: int, j: int) -> int:
        key = (min(i, j), max(i, j))
        if key not in midpoint:
            v = verts[i] + verts[j]
            verts.append(v / np.linalg.norm(v))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    # faces of the icosahedron: triangles among mutually adjacent vertices
    adj = {tuple(sorted(e)) for e in edges}
    faces = []
    n0 = 12
    for i in range(n0):
        for j in range(i + 1, n0):
            if (i, j) not in adj:
                continue
            for k in range(j + 1, n0):
                if (i, k) in adj and (j, k) in adj:
                    faces.append((i, j, k))
    new_edges = set()
    for i, j, k in faces:
        a, b, c = mid(i, j), mid(j, k), mid(i, k)
        for e in ((i, a), (a, j), (j, b), (b, k), (k, c), (c, i), (a, b), (b, c), (a, c)):
            new_edges.add((min(e), max(e)))
    pts = np.asarray(verts)
    n = len(pts)
    order = np.argsort(np.argsort(pts[:, 2]))  # rank by latitude
    band = np.ceil((order + 1) / (n / num_regions)).astype(int) - 1
    regions = np.clip(band, 0, num_regions - 1)
    codes = np.tile(np.asarray(init_code, dtype=float), (n, 1))
    return LatentMesh(edges=tuple(sorted(new_edges)), codes=codes, regions=regions)
