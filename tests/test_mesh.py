import json
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from sdse_lab.experiments import region_subgraph_laplacians
from sdse_lab.fields import ConfigError
from sdse_lab.mesh import (LatentMesh, _laplacian, build_laplacian, grid_mesh,
                           icosahedron_edges, icosphere_mesh, load_mesh,
                           mesh_from_dict, mesh_to_dict, smoothness_gradient,
                           smoothness_loss)
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


def test_icosahedron_diagonal_is_five():
    _, edges = icosahedron_edges()
    assert len(edges) == 30
    mesh = LatentMesh(edges=edges, codes=np.zeros((12, 1)),
                      regions=np.zeros(12, dtype=int))
    lap = build_laplacian(mesh)
    np.testing.assert_array_equal(lap.diagonal(), np.full(12, 5.0))


def test_disconnected_graph_rejected():
    with pytest.raises(ValueError, match="connected"):
        LatentMesh(edges=((0, 1),), codes=np.zeros((3, 1)),
                   regions=np.zeros(3, dtype=int))


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
    "icosphere": icosphere_mesh,
}


@pytest.mark.parametrize("name", sorted(LAPLACIAN_MESHES))
def test_laplacian_matches_per_edge_assembly(name):
    mesh = LAPLACIAN_MESHES[name]()
    want = per_edge_laplacian(mesh.num_vertices, mesh.edges)
    assert_same_csr(_laplacian(mesh.num_vertices, mesh.edges), want)
    assert_same_csr(build_laplacian(mesh), want)


@pytest.mark.parametrize("name", sorted(LAPLACIAN_MESHES))
def test_region_subgraph_laplacians_match_per_edge_assembly(name):
    mesh = LAPLACIAN_MESHES[name]()
    got = region_subgraph_laplacians(mesh)
    assert list(got) == [int(r) for r in mesh.region_ids()]
    for region, lap in got.items():
        verts = mesh.region_vertices(region)
        index = {int(v): k for k, v in enumerate(verts)}
        edges = [(index[i], index[j]) for i, j in mesh.edges
                 if mesh.regions[i] == region and mesh.regions[j] == region]
        assert_same_csr(lap, per_edge_laplacian(len(verts), edges))


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


def test_with_codes_shares_the_region_index():
    mesh = random_region_mesh(7, 40)
    new = mesh.with_codes(np.zeros(mesh.codes.shape))
    for region in mesh.region_ids().tolist():
        assert new.region_vertices(region) is mesh.region_vertices(region)


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
    edges = tuple((int(perm[i]), int(perm[j])) for i, j in mesh.edges)
    pmesh = LatentMesh(edges=edges, codes=mesh.codes[inv],
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
    edges = tuple((int(perm[i]), int(perm[j])) for i, j in mesh.edges)
    pmesh = LatentMesh(edges=edges, codes=mesh.codes[inv],
                       regions=np.zeros(24, dtype=int))
    plap = build_laplacian(pmesh)
    assert smoothness_loss(plap, delta[inv]) == pytest.approx(
        smoothness_loss(lap, delta), rel=1e-12)


# ---------------------------------------------------------------------------
# files and fixtures
# ---------------------------------------------------------------------------

def test_mesh_round_trip(tmp_path):
    mesh = grid_mesh(rows=4, cols=5)
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(mesh_to_dict(mesh)))
    back = load_mesh(path)
    assert back.edges == mesh.edges
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
])
def test_mesh_file_wrong_typed_field_is_named(override, field):
    spec = {"vertices": 3, "edges": [[0, 1], [1, 2]], "regions": [0, 0, 1],
            "codes": [[0.0], [0.0], [0.0]], **override}
    if spec["codes"] is None:
        del spec["codes"]
    # the error names the field, or the list element inside it
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}(\[\d+\])*: "):
        mesh_from_dict(spec)


def test_shipped_fixtures_load():
    from sdse_lab.configs import resolve_data_path

    grid = load_mesh(resolve_data_path("pkg:grid_mesh.json"))
    assert grid.num_vertices == 100
    assert len(grid.region_ids()) == 5
    ico = load_mesh(resolve_data_path("pkg:icosphere_mesh.json"))
    assert ico.num_vertices == 42
    assert len(ico.edges) == 120
    assert len(ico.region_ids()) == 5
