import json
import math
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from sdse_lab.experiments import region_dispersion
from sdse_lab.fields import ConfigError
from sdse_lab import mesh as mesh_module
from sdse_lab.mesh import (LatentMesh, _exact_sum, _laplacian, build_laplacian, grid_mesh,
                           load_mesh, mesh_from_dict, mesh_to_dict, smoothness_gradient,
                           smoothness_loss, squared_norms)
from sdse_lab.mixtures import START_POINT
from sdse_lab.verify import _random_connected_graph


def path_mesh(values):
    codes = np.asarray(values, dtype=float).reshape(-1, 1)
    n = codes.shape[0]
    edges = tuple((i, i + 1) for i in range(n - 1))
    return LatentMesh(edges=edges, codes=codes, regions=np.zeros(n, dtype=int))


def random_mesh(seed, n, dim=2):
    rng = np.random.default_rng(seed)
    edges = _random_connected_graph(rng, n)
    return LatentMesh(edges=tuple(edges), codes=rng.standard_normal((n, dim)),
                      regions=np.zeros(n, dtype=int)), rng


# ---------------------------------------------------------------------------
# Laplacian
# ---------------------------------------------------------------------------

def test_path_graph_laplacian_matrix():
    lap = build_laplacian(path_mesh([0.0, 0.0, 0.0]))
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    np.testing.assert_array_equal(lap.toarray(), expected)


@given(st.integers(0, 2**32 - 1))
def test_laplacian_annihilates_constants(seed):
    mesh, _ = random_mesh(seed, 15)
    lap = build_laplacian(mesh)
    np.testing.assert_array_equal(lap @ np.ones(15), np.zeros(15))


def test_disconnected_graph_rejected():
    with pytest.raises(ValueError, match="connected"):
        LatentMesh(edges=((0, 1),), codes=np.zeros((3, 1)),
                   regions=np.zeros(3, dtype=int))


def reference_connected(n, edges):
    """Depth-first search over adjacency lists: the rule the array check must match."""
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def is_mesh(n, edges):
    try:
        LatentMesh(edges=edges, codes=np.zeros((n, 1)), regions=np.zeros(n, dtype=int))
    except ValueError as err:
        assert str(err) == "mesh graph must be connected"
        return False
    return True


def connectivity_cases(seed):
    """Random connected graphs with some edges dropped or isolated vertices added,
    and randomly renumbered long paths."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    edges = np.array(_random_connected_graph(rng, n))
    yield n, edges
    yield n, edges[rng.random(len(edges)) < rng.uniform(0.3, 1.0)]
    yield n + int(rng.integers(1, 3)), edges
    perm = rng.permutation(2000)
    path = perm[np.stack([np.arange(1999), np.arange(1, 2000)], axis=1)]
    yield 2000, path[rng.permutation(1999)]
    yield 2000, np.delete(path, rng.integers(0, 1999), axis=0)


def test_connectivity_matches_a_reference_search():
    assert is_mesh(1, ())
    assert not is_mesh(0, ())
    assert not is_mesh(2, ())
    kinds = set()
    for seed in range(60):
        for n, edges in connectivity_cases(seed):
            want = reference_connected(n, edges.tolist())
            assert is_mesh(n, edges) == want, (seed, n)
            kinds.add(want)
    assert kinds == {True, False}


def per_edge_laplacian(n, edges):
    """Per-edge assembly the vectorised Laplacians must reproduce exactly."""
    rows, cols, vals = [], [], []
    deg = np.zeros(n)
    for i, j in edges:
        rows += [i, j]
        cols += [j, i]
        vals += [-1.0, -1.0]
        deg[i] += 1.0
        deg[j] += 1.0
    rows += list(range(n))
    cols += list(range(n))
    vals += list(deg)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype, attr
        np.testing.assert_array_equal(a, b, err_msg=attr)


def random_region_mesh(seed, n, repeat_edge=False):
    rng = np.random.default_rng(seed)
    edges = _random_connected_graph(rng, n)
    if repeat_edge:
        edges = edges + [edges[len(edges) // 2]]
    return LatentMesh(edges=tuple(edges), codes=np.zeros((n, 2)),
                      regions=rng.integers(0, 4, size=n))


LAPLACIAN_MESHES = {
    "random": lambda: random_region_mesh(7, 40),
    "repeated_edge": lambda: random_region_mesh(8, 25, repeat_edge=True),
    "grid": lambda: grid_mesh(rows=6, cols=7),
    "icosphere": lambda: load_mesh("pkg:icosphere_mesh.json"),
}


@pytest.mark.parametrize("name", sorted(LAPLACIAN_MESHES))
def test_laplacian_matches_per_edge_assembly(name):
    mesh = LAPLACIAN_MESHES[name]()
    want = per_edge_laplacian(mesh.num_vertices, mesh.edges)
    assert_same_csr(_laplacian(mesh.num_vertices, mesh.edges), want)
    assert_same_csr(build_laplacian(mesh), want)


def permuted_grid(rows, cols, seed):
    """grid_mesh(rows, cols) with its vertices renumbered at random, so regions
    are no longer contiguous runs of vertex ids."""
    grid = grid_mesh(rows=rows, cols=cols)
    perm = np.random.default_rng(seed).permutation(grid.num_vertices)
    regions = np.empty_like(grid.regions)
    regions[perm] = grid.regions
    return LatentMesh(edges=perm[grid.edges], codes=grid.codes, regions=regions)


DISPERSION_MESHES = {
    **LAPLACIAN_MESHES,
    "grid-10x10": lambda: grid_mesh(rows=10, cols=10),
    "grid-100x100": lambda: grid_mesh(rows=100, cols=100),
    "permuted-grid": lambda: permuted_grid(12, 9, seed=3),
}


@pytest.mark.parametrize("name", sorted(DISPERSION_MESHES))
def test_region_dispersion_matches_per_region_subgraphs(name):
    """Bitwise against each region's induced subgraph Laplacian, assembled on the
    region's own vertex numbering and applied to that region's codes."""
    base = DISPERSION_MESHES[name]()
    codes = np.random.default_rng(len(name)).standard_normal(base.codes.shape)
    mesh = base.with_codes(codes)
    want = {}
    for region in mesh.region_ids().tolist():
        verts = mesh.region_vertices(region)
        index = {int(v): k for k, v in enumerate(verts)}
        edges = [(index[i], index[j]) for i, j in mesh.edges.tolist()
                 if mesh.regions[i] == region and mesh.regions[j] == region]
        rough = per_edge_laplacian(len(verts), edges) @ codes[verts]
        want[region] = float((rough * rough).sum(axis=1).mean())
    got = region_dispersion(mesh)
    assert list(got) == list(want)
    assert [x.hex() for x in got.values()] == [x.hex() for x in want.values()]


@pytest.mark.parametrize("name", sorted(LAPLACIAN_MESHES))
def test_region_vertices_equal_flatnonzero_and_are_read_only(name):
    mesh = LAPLACIAN_MESHES[name]()
    for region in [-1, *mesh.region_ids().tolist(), 99]:
        got = mesh.region_vertices(region)
        want = np.flatnonzero(mesh.regions == region)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert not got.flags.writeable
    first = int(mesh.region_ids()[0])
    np.testing.assert_array_equal(mesh.region_vertices(np.int64(first)),
                                  mesh.region_vertices(first))


@pytest.mark.parametrize("name", sorted(LAPLACIAN_MESHES))
def test_edges_are_one_read_only_intp_array_shared_by_with_codes(name):
    mesh = LAPLACIAN_MESHES[name]()
    got = mesh.edges
    assert got.dtype == np.intp and got.ndim == 2 and got.shape[1] == 2
    assert not got.flags.writeable
    assert mesh.with_codes(np.ones(mesh.codes.shape)).edges is got


@pytest.mark.parametrize("rows,cols,num_regions", [(1, 1, 5), (1, 7, 5), (7, 1, 5), (3, 5, 2),
                                                   (13, 4, 5), (2, 2, 5), (10, 10, 5)])
def test_grid_mesh_matches_a_per_vertex_loop(rows, cols, num_regions):
    """Edges in row-major order, each vertex's right edge before its lower one."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    band = max(1, rows // num_regions)
    regions = [min(r // band, num_regions - 1) for r in range(rows) for _ in range(cols)]
    mesh = grid_mesh(rows, cols, num_regions)
    assert mesh.edges.tolist() == [list(e) for e in edges]
    assert mesh.regions.tolist() == regions


def test_mesh_copies_the_callers_edge_array():
    ends = np.array([[0, 1], [1, 2]])
    mesh = LatentMesh(edges=ends, codes=np.zeros((3, 1)), regions=np.zeros(3, dtype=int))
    assert not np.shares_memory(mesh.edges, ends)
    assert ends.flags.writeable


@pytest.mark.parametrize("width", range(1, 8))
def test_region_dispersion_matches_row_sums_bitwise_at_every_narrow_width(width):
    """The column pass against the (rough * rough).sum(axis=1) it replaced."""
    base = random_region_mesh(9, 30)
    mesh = LatentMesh(edges=base.edges, regions=base.regions,
                      codes=np.random.default_rng(width).standard_normal((30, width)))
    ends = mesh.regions[mesh.edges]
    lap = _laplacian(30, mesh.edges[ends[:, 0] == ends[:, 1]])
    rough = lap @ mesh.codes
    row_sq = (rough * rough).sum(axis=1)
    want = [float(row_sq[mesh.region_vertices(r)].mean()) for r in mesh.region_ids().tolist()]
    assert [x.hex() for x in region_dispersion(mesh).values()] == [x.hex() for x in want]


def test_with_codes_shares_the_region_index():
    mesh = random_region_mesh(7, 40)
    new = mesh.with_codes(np.zeros(mesh.codes.shape))
    for region in mesh.region_ids().tolist():
        assert new.region_vertices(region) is mesh.region_vertices(region)


@pytest.mark.parametrize("name", sorted(LAPLACIAN_MESHES))
def test_region_ids_equal_unique_regions(name):
    mesh = LAPLACIAN_MESHES[name]()
    got, want = mesh.region_ids(), np.unique(mesh.regions)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# with_codes
# ---------------------------------------------------------------------------

def test_with_codes_shares_topology_and_copies_codes():
    mesh, rng = random_mesh(9, 12)
    codes = rng.standard_normal((12, 2))
    new = mesh.with_codes(codes)
    assert new.edges is mesh.edges
    assert new.regions is mesh.regions
    np.testing.assert_array_equal(new.codes, codes)
    assert not new.codes.flags.writeable
    assert not np.shares_memory(new.codes, codes)
    codes[0, 0] = 99.0
    assert new.codes[0, 0] != 99.0
    assert new.with_codes(np.zeros((12, 2), dtype=int)).codes.dtype == float


@pytest.mark.parametrize("shape", [(11, 2), (13, 2), (24,), (12, 3)])
def test_with_codes_rejects_a_changed_shape(shape):
    mesh, _ = random_mesh(9, 12)
    with pytest.raises(ValueError, match=r"\(12, 2\)"):
        mesh.with_codes(np.zeros(shape))


# ---------------------------------------------------------------------------
# smoothness loss / gradient
# ---------------------------------------------------------------------------

def test_constant_deltas_cost_nothing():
    mesh, _ = random_mesh(1, 12)
    lap = build_laplacian(mesh)
    # dyadic constants make the row cancellation exact in floating point
    delta = np.tile([3.5, -1.25], (12, 1))
    assert smoothness_loss(lap, delta) == 0.0
    np.testing.assert_array_equal(smoothness_gradient(lap, delta), np.zeros((12, 2)))


def test_constant_deltas_near_zero_for_any_constant():
    mesh, _ = random_mesh(1, 12)
    lap = build_laplacian(mesh)
    delta = np.tile([3.7, -1.2], (12, 1))
    assert smoothness_loss(lap, delta) < 1e-24


def test_path_graph_hand_value():
    mesh = path_mesh([0.0, 1.0, 0.0])
    lap = build_laplacian(mesh)
    assert smoothness_loss(lap, mesh.codes) == pytest.approx(2.0)


def test_path_graph_hand_gradient():
    mesh = path_mesh([0.0, 1.0, 0.0])
    lap = build_laplacian(mesh)
    grad = smoothness_gradient(lap, mesh.codes)
    np.testing.assert_allclose(grad.ravel(), [-2.0, 4.0, -2.0])


def test_quadratic_homogeneity_exact_for_dyadic_scale():
    mesh, rng = random_mesh(2, 20)
    lap = build_laplacian(mesh)
    delta = rng.standard_normal((20, 2))
    assert smoothness_loss(lap, 2.0 * delta) == 4.0 * smoothness_loss(lap, delta)


@given(st.floats(0.1, 10.0, allow_nan=False))
def test_quadratic_homogeneity_general(c):
    mesh, rng = random_mesh(3, 15)
    lap = build_laplacian(mesh)
    delta = rng.standard_normal((15, 2))
    assert smoothness_loss(lap, c * delta) == pytest.approx(
        c * c * smoothness_loss(lap, delta), rel=1e-12)


def test_gradient_matches_finite_differences_random_graph():
    mesh, rng = random_mesh(4, 20)
    lap = build_laplacian(mesh)
    delta = rng.standard_normal((20, 2))
    grad = smoothness_gradient(lap, delta)
    step = 1e-6
    fd = np.zeros_like(delta)
    for i in range(20):
        for d in range(2):
            hi, lo = delta.copy(), delta.copy()
            hi[i, d] += step
            lo[i, d] -= step
            fd[i, d] = (smoothness_loss(lap, hi) - smoothness_loss(lap, lo)) / (2 * step)
    assert np.abs(grad - fd).max() / np.abs(grad).max() < 1e-5


def test_permutation_invariance_exact_on_integer_codes():
    mesh, rng = random_mesh(5, 16)
    lap = build_laplacian(mesh)
    delta = rng.integers(-4, 5, size=(16, 2)).astype(float)
    perm = rng.permutation(16)
    inv = np.argsort(perm)
    pmesh = LatentMesh(edges=perm[mesh.edges], codes=mesh.codes[inv],
                       regions=np.zeros(16, dtype=int))
    plap = build_laplacian(pmesh)
    assert smoothness_loss(plap, delta[inv]) == smoothness_loss(lap, delta)
    np.testing.assert_array_equal(smoothness_gradient(plap, delta[inv]),
                                  smoothness_gradient(lap, delta)[inv])


def test_permutation_invariance_general_floats():
    mesh, rng = random_mesh(6, 24)
    lap = build_laplacian(mesh)
    delta = rng.standard_normal((24, 2))
    perm = rng.permutation(24)
    inv = np.argsort(perm)
    pmesh = LatentMesh(edges=perm[mesh.edges], codes=mesh.codes[inv],
                       regions=np.zeros(24, dtype=int))
    plap = build_laplacian(pmesh)
    assert smoothness_loss(plap, delta[inv]) == pytest.approx(
        smoothness_loss(lap, delta), rel=1e-12)


def test_smoothness_loss_is_inf_where_the_total_overflows():
    # every row norm is finite, but their sum is not
    lap = build_laplacian(grid_mesh(1, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert smoothness_loss(lap, [[0.0, 0.0], [6e153, 0.0], [0.0, 0.0]]) == math.inf
        assert smoothness_loss(lap, [[0.0, 0.0], [1e200, 0.0], [0.0, 0.0]]) == math.inf


@pytest.mark.parametrize("column,want", [([math.inf, 0.0, 0.0], math.inf),
                                         ([-math.inf, 0.0, 0.0], math.inf),
                                         ([math.nan, 0.0, 0.0], math.nan),
                                         ([math.inf, math.inf, 0.0], math.nan)])
def test_smoothness_loss_of_nonfinite_rows_without_warnings(column, want):
    lap = build_laplacian(grid_mesh(1, 3))
    delta = np.zeros((3, 2))
    delta[:, 1] = column
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = smoothness_loss(lap, delta)
    assert got == pytest.approx(want, nan_ok=True)


def exact_sum_inputs(n, seed):
    """Nonnegative values with zeros, subnormals and magnitudes from 1e-300 to 1e3."""
    rng = np.random.default_rng(seed)
    spread = rng.random(n) * 10.0 ** rng.uniform(-300, 3, n)
    mixed = spread.copy()
    mixed[rng.random(n) < 0.3] = 0.0
    sub = rng.random(n) < 0.3
    mixed[sub] = 5e-324 * rng.integers(1, 1 << 52, size=int(sub.sum())).astype(float)
    return {"spread": spread, "squares": rng.standard_normal(n) ** 2, "mixed": mixed,
            "equal": np.full(n, rng.random()), "zeros": np.zeros(n),
            "subnormal": 5e-324 * rng.integers(1, 1 << 52, size=n).astype(float)}


@pytest.mark.parametrize("n", [1, 100, 10_000])
def test_exact_sum_equals_fsum_bitwise(n):
    for seed in range(5):
        for kind, q in exact_sum_inputs(n, seed).items():
            assert _exact_sum(q).hex() == math.fsum(q.tolist()).hex(), (kind, seed)


def test_exact_sum_over_several_chunks_equals_fsum_bitwise(monkeypatch):
    monkeypatch.setattr(mesh_module, "_EXACT_CHUNK", 7)
    for kind, q in exact_sum_inputs(100, 11).items():
        assert _exact_sum(q).hex() == math.fsum(q.tolist()).hex(), kind


def test_exact_sum_of_nonfinite_values_matches_fsum():
    assert _exact_sum(np.array([1.0, math.inf, 2.0])) == math.inf
    assert math.isnan(_exact_sum(np.array([1.0, math.inf, math.nan])))
    assert _exact_sum(np.empty(0)) == 0.0


@pytest.mark.parametrize("width", range(1, 8))
def test_squared_norms_equal_row_sums_and_norms_bitwise(width):
    rng = np.random.default_rng(width)
    x = rng.standard_normal((500, width)) * 10.0 ** rng.uniform(-150, 150, (500, 1))
    np.testing.assert_array_equal(squared_norms(x), (x * x).sum(axis=1))
    y = rng.standard_normal((40, 6, width))
    np.testing.assert_array_equal(np.sqrt(squared_norms(y)), np.linalg.norm(y, axis=2))


def test_squared_norms_of_an_empty_last_axis_are_zero():
    np.testing.assert_array_equal(squared_norms(np.zeros((4, 0))), np.zeros(4))


# ---------------------------------------------------------------------------
# files and fixtures
# ---------------------------------------------------------------------------

def test_mesh_round_trip(tmp_path):
    mesh = grid_mesh(rows=4, cols=5)
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(mesh_to_dict(mesh)))
    back = load_mesh(path)
    assert back.edges.dtype == mesh.edges.dtype
    np.testing.assert_array_equal(back.edges, mesh.edges)
    np.testing.assert_array_equal(back.codes, mesh.codes)
    np.testing.assert_array_equal(back.regions, mesh.regions)


def test_mesh_init_modes():
    base = {"vertices": 3, "edges": [[0, 1], [1, 2]], "regions": [0, 0, 1]}
    const = mesh_from_dict({**base, "init": {"mode": "constant",
                                             "params": {"value": [1.0, 2.0]}}})
    np.testing.assert_array_equal(const.codes, np.tile([1.0, 2.0], (3, 1)))
    gauss_a = mesh_from_dict({**base, "init": {"mode": "gaussian",
                                               "params": {"mean": [0.0, 0.0],
                                                          "std": 0.5, "seed": 7}}})
    gauss_b = mesh_from_dict({**base, "init": {"mode": "gaussian",
                                               "params": {"mean": [0.0, 0.0],
                                                          "std": 0.5, "seed": 7}}})
    np.testing.assert_array_equal(gauss_a.codes, gauss_b.codes)
    with pytest.raises(ValueError):
        mesh_from_dict({**base, "init": {"mode": "bogus"}})


def test_mesh_file_validation():
    with pytest.raises(ValueError):
        mesh_from_dict({"vertices": 3, "edges": [[0, 5]], "regions": [0, 0, 0],
                        "codes": [[0.0], [0.0], [0.0]]})
    with pytest.raises(ValueError):
        mesh_from_dict({"vertices": 2, "edges": [[0, 1]], "regions": [0],
                        "codes": [[0.0], [0.0]]})


@pytest.mark.parametrize("edges,message", [
    (((0, 1.7), (1, 2)),
     "edges must be an (E, 2) integer array of vertex pairs, got float64 of shape (2, 2)"),
    (((0, 1, 2),),
     "edges must be an (E, 2) integer array of vertex pairs, got int64 of shape (1, 3)"),
    ((0, 1), "edges must be an (E, 2) integer array of vertex pairs, got int64 of shape (2,)"),
    (((0, 1), (1, 3)), "edge (1,3) references invalid vertices"),
    (((0, 1), (-1, 2)), "edge (-1,2) references invalid vertices"),
    (((0, 1), (2, 2), (1, 2)), "edge (2,2) references invalid vertices"),
])
def test_malformed_edges_are_refused_naming_the_edge_or_shape(edges, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LatentMesh(edges=edges, codes=np.zeros((3, 1)), regions=np.zeros(3, dtype=int))


@pytest.mark.parametrize("override,field", [
    ({"vertices": [3]}, "vertices"),
    ({"edges": 5}, "edges"),
    ({"edges": [[0, 1, 2]]}, "edges"),
    ({"regions": {}}, "regions"),
    ({"codes": {}}, "codes"),
    ({"codes": None, "init": 5}, "init"),
    ({"codes": None, "init": {"mode": "constant", "params": []}}, "init.params"),
    ({"codes": None, "init": {"mode": "gaussian", "params": {"std": [1]}}},
     "init.params.std"),
    ({"vertices": 2.7}, "vertices"),
    ({"vertices": True}, "vertices"),
    ({"edges": [[0, 1], [1, 2.5]]}, "edges"),
    ({"regions": [0, 0, 1.5]}, "regions"),
    ({"codes": None, "init": {"mode": "gaussian", "params": {"seed": 2.7}}},
     "init.params.seed"),
    ({"codes": None, "init": {"mode": "gaussian", "params": {"seed": float("inf")}}},
     "init.params.seed"),
    ({"init": {"mode": "constant", "params": {"value": [1.0]}}}, "init"),  # with codes
    ({"codes": [[0.0], [0.0]]}, "codes"),
    ({"codes": [0.0, 0.0, 0.0]}, "codes"),
])
def test_mesh_file_wrong_typed_field_is_named(override, field):
    spec = {"vertices": 3, "edges": [[0, 1], [1, 2]], "regions": [0, 0, 1],
            "codes": [[0.0], [0.0], [0.0]], **override}
    if spec["codes"] is None:
        del spec["codes"]
    # the error names the field, or the list element inside it
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}(\[\d+\])*: "):
        mesh_from_dict(spec)


# The shipped mesh files are the one source of each mesh; these two tests pin them.

def test_shipped_grid_is_grid_mesh_bitwise():
    shipped, built = load_mesh("pkg:grid_mesh.json"), grid_mesh(10, 10, 5)
    for name in ("edges", "codes", "regions"):
        got, want = getattr(shipped, name), getattr(built, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_shipped_icosphere_degrees_and_regions():
    """The once-subdivided icosahedron: the 12 original vertices keep degree 5,
    the 30 edge midpoints have degree 6, in five latitude bands."""
    ico = load_mesh("pkg:icosphere_mesh.json")
    assert ico.num_vertices == 42
    assert len(ico.edges) == 120
    degrees = np.bincount(ico.edges.ravel(), minlength=42)
    assert np.count_nonzero(degrees == 5) == 12
    assert np.count_nonzero(degrees == 6) == 30
    assert [ico.region_vertices(r).size for r in ico.region_ids().tolist()] == [8, 8, 9, 8, 9]
    np.testing.assert_array_equal(ico.codes, np.tile(START_POINT, (42, 1)))
