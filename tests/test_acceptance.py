"""Acceptance gate: one test per criterion, each printing a PASS line.

Directional claims are fixed by design; lr/steps/classification settings come
from the frozen calibration shipped in the package data, so the whole suite is
reproducible run to run.
"""

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from importlib.resources import files
from itertools import repeat

import numpy as np
import pytest

from sdse_lab.experiments import MeshEditConfig, PROFILES, run_mesh_edit
from sdse_lab.guidance import GuidanceWeights, cfg_combine, decompose_terms, sdse_residual
from sdse_lab.mesh import LatentMesh, build_laplacian, load_mesh, smoothness_loss
from sdse_lab.mixtures import (FULL_COND, IMAGE_COND, UNCONDITIONED, noised_mixture,
                               toy_mixture)
from sdse_lab.oracle import NoiseOracle
from sdse_lab.schedule import NoiseSchedule, linear_beta_schedule
from sdse_lab.verify import (_random_connected_graph, decomposition_worst_error,
                             laplacian_fd_rel_error, score_fd_worst_error)

from acceptance_helper import (middle_trap, plain_guidance_distance, small_shift_decreased,
                               staged_distance)

CALIBRATION = json.loads(
    files("sdse_lab.data").joinpath("acceptance_calibration.json").read_text())

MIX = toy_mixture()
SCHED = linear_beta_schedule()
SEEDS = list(range(CALIBRATION["seeds"]))
TOL = CALIBRATION["tol"]


def report(criterion: str, detail: str):
    print(f"\n[{criterion}] PASS: {detail}")


# ---------------------------------------------------------------------------
# A1  oracle correctness
# ---------------------------------------------------------------------------

def test_a1_oracle_correctness():
    start = time.time()

    # analytic scores vs central differences of the log density
    rng = np.random.default_rng(2024)
    worst_rel = score_fd_worst_error(rng, 100)
    assert worst_rel < 1e-5

    # noised density vs Monte-Carlo convolution, 1e6 samples, 50x50 grid
    ab = 0.5
    noised = noised_mixture(MIX, NoiseSchedule(np.array([ab, 0.1])), 1)
    n = 10**6
    rng = np.random.default_rng(0)
    wts = MIX.weights
    comp = rng.choice(MIX.size, size=n, p=wts / wts.sum())
    stds = np.sqrt(MIX.covariances[:, 0, 0])
    samples = MIX.means[comp] + stds[comp][:, None] * rng.standard_normal((n, 2))
    scaled = np.sqrt(ab) * samples
    sig2 = 1.0 - ab
    grid = np.linspace(-1.0, 4.0, 50)
    ex = np.exp(-0.5 * (grid[None, :] - scaled[:, 0:1]) ** 2 / sig2)
    ey = np.exp(-0.5 * (grid[None, :] - scaled[:, 1:2]) ** 2 / sig2)
    mc = ex.T @ ey / (n * 2 * np.pi * sig2)
    from sdse_lab.mixtures import FrozenMixture
    frozen = FrozenMixture(noised)
    exact = np.array([[np.exp(frozen.log_density(np.array([x, y]))) for y in grid]
                      for x in grid])
    worst_abs = float(np.abs(mc - exact).max())
    assert worst_abs < 1e-3

    elapsed = time.time() - start
    assert elapsed < 60.0
    report("A1", f"score FD rel err {worst_rel:.2e} < 1e-5; "
                 f"MC convolution max abs err {worst_abs:.2e} < 1e-3; "
                 f"{elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# A2  decomposition identities
# ---------------------------------------------------------------------------

def test_a2_decomposition_identities():
    rng = np.random.default_rng(7)
    worst = decomposition_worst_error(rng, 1000)
    assert worst < 1e-12

    oracle = NoiseOracle(MIX, SCHED)
    w = GuidanceWeights()
    for k in range(100):
        z = rng.uniform(-1, 3, 2)
        t = int(rng.integers(1, 801))
        eps = rng.standard_normal(2)
        bundle = decompose_terms(oracle.predict(z, t, UNCONDITIONED),
                                 oracle.predict(z, t, IMAGE_COND),
                                 oracle.predict(z, t, FULL_COND), eps, w)
        assert np.array_equal(sdse_residual(oracle, z, t, eps, w), bundle.m2)

    for _ in range(100):
        eps_u, eps_i, eps_f = rng.standard_normal((3, 2))
        assert np.array_equal(
            cfg_combine(eps_u, eps_i, eps_f, GuidanceWeights(1.0, 1.0)), eps_f)

    report("A2", f"both identities <= {worst:.2e} over 1000 configs; "
                 "staged residual == m2 exactly; unit-scale collapse exact")


# ---------------------------------------------------------------------------
# A3  allocation table reproduction
# ---------------------------------------------------------------------------

def test_a3_allocation_table():
    from sdse_lab.views import allocate_views

    rows = [((0.04, 0.08, 0.47, 0.26, 0.15), (2000, 4000, 23500, 13000, 7500)),
            ((0.07, 0.20, 0.30, 0.31, 0.12), (3500, 10000, 15000, 15500, 6000))]
    for weights, expected in rows:
        alloc = allocate_views({i: w for i, w in enumerate(weights)}, 50_000)
        got = tuple(alloc.counts[i] for i in range(5))
        assert got == expected
    report("A3", "both region-weight rows reproduced bit-exactly at |V|=50000")


# ---------------------------------------------------------------------------
# A4  toy-phase reproduction (paired, 50 seeds, frozen calibration)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pool():
    """Worker processes for A4's per-seed descents, one per usable CPU: the seeds
    are independent, so each runs in a worker."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ProcessPoolExecutor(min(cpus or 1, len(SEEDS)),
                             mp_context=multiprocessing.get_context("spawn")) as workers:
        yield workers


@pytest.fixture(scope="module")
def staged_runs(pool):
    """Calibrated staged-schedule runs, shared by A4(ii)-(iv)."""
    cal = CALIBRATION["staged_schedule"]
    return dict(zip(SEEDS, pool.map(staged_distance, SEEDS, repeat(cal))))


def test_a4_toy_phase_reproduction(pool, staged_runs):
    start = time.time()
    # the three loops' seeds are queued at once; each result list is in seed order
    cal_i = CALIBRATION["phase_small_shift"]
    cal_ii = CALIBRATION["phase_middle_trap"]
    cal_iv = CALIBRATION["plain_guidance"]
    decreased = pool.map(small_shift_decreased, SEEDS, repeat(cal_i))
    traps = pool.map(middle_trap, SEEDS, repeat(cal_ii), repeat(TOL))
    sds_dists = pool.map(plain_guidance_distance, SEEDS, repeat(cal_iv))

    # (i) baseline-shift term at small timesteps pushes off the image mode
    frac_i = sum(decreased) / len(SEEDS)
    assert frac_i >= cal_i["min_fraction_decreasing"]

    # (ii) full-condition term at a fixed middle timestep stalls between the
    # joint modes; the staged estimator on the same seeds lands closer
    trapped, m4_dists = zip(*traps)
    frac_ii = sum(trapped) / len(SEEDS)
    assert frac_ii >= cal_ii["min_fraction_trapped"]
    mean_m4 = float(np.mean(m4_dists))
    mean_sdse = float(np.mean([staged_runs[s] for s in SEEDS]))
    assert mean_sdse < mean_m4

    # (iii) staged estimator under the non-increasing schedule converges
    cal_iii = CALIBRATION["staged_schedule"]
    frac_iii = np.mean([staged_runs[s] < TOL for s in SEEDS])
    assert frac_iii >= cal_iii["min_fraction_converged"]

    # (iv) plain guided residual with uniform sampling over every timestep
    mean_sds = float(np.mean(list(sds_dists)))
    assert mean_sds > mean_sdse

    elapsed = time.time() - start
    assert elapsed < 600.0
    report("A4", f"(i) image-density drop {frac_i:.0%} >= 80%; "
                 f"(ii) trapped {frac_ii:.0%} >= 50%, staged {mean_sdse:.3f} < "
                 f"stalled {mean_m4:.3f}; (iii) converged "
                 f"{frac_iii:.0%} >= 90% at tol {TOL}; (iv) plain guidance "
                 f"{mean_sds:.3f} > staged {mean_sdse:.3f}; {elapsed:.0f}s < 600s")


# ---------------------------------------------------------------------------
# A5  Laplacian suite
# ---------------------------------------------------------------------------

def test_a5_laplacian_suite():
    rng = np.random.default_rng(11)

    # constant deltas cost exactly nothing (dyadic constants: exact arithmetic)
    n = 30
    mesh = LatentMesh(edges=tuple(_random_connected_graph(rng, n)),
                      codes=np.zeros((n, 2)), regions=np.zeros(n, dtype=int))
    lap = build_laplacian(mesh)
    assert smoothness_loss(lap, np.tile([2.5, -0.75], (n, 1))) == 0.0

    # path-graph hand value
    path = LatentMesh(edges=((0, 1), (1, 2)),
                      codes=np.array([[0.0], [1.0], [0.0]]),
                      regions=np.zeros(3, dtype=int))
    assert smoothness_loss(build_laplacian(path), path.codes) == pytest.approx(2.0)

    # gradient vs finite differences on random 50-vertex graphs
    worst = max(laplacian_fd_rel_error(rng, 50) for _ in range(3))
    assert worst < 1e-5

    # homogeneity, exact for a power-of-two scale
    delta = rng.standard_normal((n, 2))
    lap_n = build_laplacian(LatentMesh(edges=tuple(_random_connected_graph(rng, n)),
                                       codes=np.zeros((n, 2)),
                                       regions=np.zeros(n, dtype=int)))
    assert smoothness_loss(lap_n, 2.0 * delta) == 4.0 * smoothness_loss(lap_n, delta)

    # permutation invariance, exact on integer codes
    base = LatentMesh(edges=tuple(_random_connected_graph(rng, 16)),
                      codes=np.zeros((16, 2)), regions=np.zeros(16, dtype=int))
    lap_b = build_laplacian(base)
    delta = rng.integers(-4, 5, size=(16, 2)).astype(float)
    perm = rng.permutation(16)
    inv = np.argsort(perm)
    pmesh = LatentMesh(edges=perm[base.edges],
                       codes=np.zeros((16, 2)), regions=np.zeros(16, dtype=int))
    assert smoothness_loss(build_laplacian(pmesh), delta[inv]) == \
        smoothness_loss(lap_b, delta)

    report("A5", f"constant zero, path value 2.0, gradient FD rel err "
                 f"{worst:.2e} < 1e-5, dyadic homogeneity and permutation "
                 "invariance exact")


# ---------------------------------------------------------------------------
# A6  mesh-edit ablations (paired seeds)
# ---------------------------------------------------------------------------

def test_a6_mesh_edit_ablations():
    start = time.time()
    cal = CALIBRATION["mesh_ablation"]
    from sdse_lab.configs import resolve_data_path

    mesh = load_mesh(resolve_data_path("pkg:grid_mesh.json"))
    seeds = cal["seeds"]
    base = dict(steps=cal["steps"], views_per_step=cal["views_per_step"],
                first_batch=cal["first_batch"], lr=cal["lr"],
                threshold_distance=cal["threshold_distance"])

    cfg_on = MeshEditConfig(**base, w1=cal["w1_smooth"], allocator=True)
    cfg_off = MeshEditConfig(**base, w1=cal["w1_smooth"], allocator=False)
    on = run_mesh_edit(mesh, cal["profile"], MIX, SCHED, seeds, cfg_on)
    off = run_mesh_edit(mesh, cal["profile"], MIX, SCHED, seeds, cfg_off)
    cap = cal["steps"]
    steps_on = [r.steps_to_threshold or cap for r in on]
    steps_off = [r.steps_to_threshold or cap for r in off]
    ratio = float(np.mean(steps_on) / np.mean(steps_off))
    assert ratio <= cal["max_step_ratio"]

    cfg_rough = MeshEditConfig(**base, w1=cal["w1_off"], allocator=True)
    rough = run_mesh_edit(mesh, cal["profile"], MIX, SCHED, seeds, cfg_rough)
    edited = [r for r, c in PROFILES[cal["profile"]].items() if c == FULL_COND]
    disp_rough = float(np.mean([[r.dispersion[e] for e in edited] for r in rough]))
    disp_smooth = float(np.mean([[r.dispersion[e] for e in edited] for r in on]))
    assert disp_rough > disp_smooth

    elapsed = time.time() - start
    assert elapsed < 600.0
    report("A6", f"allocator step ratio {ratio:.2f} <= 0.5 "
                 f"(on {np.mean(steps_on):.0f} vs off {np.mean(steps_off):.0f}); "
                 f"edited-region dispersion {disp_rough:.3f} (w1=0) > "
                 f"{disp_smooth:.3f} (w1=300); {elapsed:.0f}s < 600s")


# ---------------------------------------------------------------------------
# A7  manifest determinism
# ---------------------------------------------------------------------------

def test_a7_rerun_reproduces_csv_bytes(tmp_path):
    from sdse_lab.cli import main

    config = {
        "mixture_path": "pkg:toy_gmm.json",
        "estimators": ["m4", "sdse", "sds"],
        "sampler": {"kind": "non_increasing", "t_min": 1, "t_max": 800,
                    "jitter": 3.0},
        "lr": 0.01, "steps": 50, "seeds": [0, 1, 2],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["toy", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["toy", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b and len(names_a) == 9 + 3 + 1  # CSVs + SVGs + summary
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    report("A7", f"rerun reproduced {len(names_a)} output files byte-identically")
