"""The benchmark's four workloads: set-up, one workload call, and output checks.

A workload object is created, ``setup()`` does the imports and loading that
precede the first call (this is what ``setup_s`` times), and each
``call(index, seeds, workdir)`` runs the program once on seeds drawn by the
benchmark; ``index`` counts the calls of a run. ``inspect`` then
checks every output and returns a ``Checked`` record: operations attempted
and failed, steps completed, steps to the edit threshold per operation, the
exact per-layer counts a traced call must show, and a digest of the outputs
(traced and untraced calls on the same seeds must agree byte for byte).

An operation is one seed's trajectory, or one (w1, seed) mesh edit run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import TARGETS

# Distance to the nearest joint mode that counts as reaching the edit target.
# It is MeshEditConfig's default threshold_distance, applied to descents too.
THRESHOLD = 0.5

# Tolerances of the reference-path checks on sampled descent rows.
RESIDUAL_ATOL = 1e-9
DENSITY_RTOL = 1e-12

ESTIMATORS = ("sds", "ssd", "m1", "m3", "m4", "sdse", "sdse_prime")
SVG_RESOLUTION = 110          # plot_trajectories_svg's default grid
MIXTURE = "pkg:toy_gmm.json"


@dataclass
class Checked:
    """What ``inspect`` found in one call's outputs."""

    ops: int
    failed: int = 0
    steps: int = 0
    to_threshold: list[int] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    expected: dict[str, float] = field(default_factory=dict)
    digest: str = ""

    def fail_all(self, problem: str) -> "Checked":
        self.failed = self.ops
        self.problems.append(problem)
        return self


class Workload:
    """Shared part of the four workloads; ``ops_per_seed`` operations run per seed."""

    ops_per_seed = 1

    def crashed(self, seeds: list[int], err: Exception) -> Checked:
        """Every operation of a call that raised has failed."""
        return Checked(ops=len(seeds) * self.ops_per_seed).fail_all(
            f"call raised {type(err).__name__}: {err}")


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _dir_digest(path: Path) -> str:
    files = sorted(p for p in path.rglob("*") if p.is_file())
    return _digest(str(p.relative_to(path)).encode() + b"\0" + p.read_bytes()
                   for p in files)


def _run_cli(argv: list[str]) -> int:
    from sdse_lab import cli
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _load_common():
    from sdse_lab import configs, mixtures, schedule
    mix = mixtures.load_mixture(configs.resolve_data_path(MIXTURE))
    return mix, schedule.linear_beta_schedule()


def _zero_counts(expected: dict[str, float]) -> dict[str, float]:
    """Every traced function the workload does not reach must show zero calls."""
    out = {f"{name}.calls": 0 for _, _, name in TARGETS}
    out.update(expected)
    return out


# ---------------------------------------------------------------------------
# Descent checks shared by staged_descent and toy_cli
# ---------------------------------------------------------------------------

def predicts_per_step(kind: str, t: int, small_max: int = 150) -> int:
    """Oracle predictions one estimator step makes at timestep t."""
    if kind == "sds":
        return 3
    if kind == "m4":
        return 1
    if kind in ("ssd", "sdse_prime"):
        return 1 if t <= small_max else 2
    return 2            # sdse, m1, m3


class _ReferenceOracle:
    """The pure reference path: every prediction rebuilt by ``predict_noise``."""

    def __init__(self, mix, sched):
        self.mixture = mix
        self.schedule = sched

    def predict(self, z_t, t, cond):
        from sdse_lab.oracle import predict_noise
        return predict_noise(self.mixture, self.schedule, z_t, t, cond)


@dataclass
class DescentSpec:
    """What a descent run was asked to do, for checking its trajectory."""

    mix: object
    sched: object
    sampler: object
    lr: float
    steps: int
    weights: object
    thresholds: object

    def modes(self):
        from sdse_lab.mixtures import FULL_COND
        return self.mix.mode_points(FULL_COND)


def check_trajectory(spec: DescentSpec, kind: str, traj, distance: float) -> list[str]:
    """Problems found in one descent trajectory (empty when it is correct)."""
    from sdse_lab.guidance import EstimatorKind, term_residual
    from sdse_lab.mixtures import FULL_COND, IMAGE_COND, UNCONDITIONED, mixture_density, sub_mixture
    from sdse_lab.oracle import forward_diffuse
    from sdse_lab.samplers import timestep_sequence

    tag = f"{kind} seed {traj.seed}"
    arrays = (traj.thetas, traj.residuals, traj.densities)
    if not (math.isfinite(distance) and all(np.all(np.isfinite(a)) for a in arrays)):
        return [f"{tag}: non-finite output"]
    n = traj.num_rows
    if traj.guard_tripped or n != spec.steps + 1:
        return [f"{tag}: {n - 1} of {spec.steps} steps (guard {traj.guard_tripped})"]
    if not np.array_equal(traj.thetas[1:], traj.thetas[:-1] - spec.lr * traj.residuals[1:]):
        return [f"{tag}: thetas do not follow theta - lr * residual bitwise"]
    rng = np.random.default_rng(traj.seed)
    ts = timestep_sequence(spec.sampler, rng, spec.steps)
    eps = rng.standard_normal((spec.steps, traj.thetas.shape[1]))
    if not np.array_equal(ts, traj.timesteps[1:]):
        return [f"{tag}: timesteps differ from the seed's sampler draw"]
    ref_oracle = _ReferenceOracle(spec.mix, spec.sched)
    subs = [sub_mixture(spec.mix, c) for c in (UNCONDITIONED, IMAGE_COND, FULL_COND)]
    problems = []
    for row in sorted({1, n // 2, n - 1}):
        t = int(ts[row - 1])
        z_t = forward_diffuse(traj.thetas[row - 1], t, eps[row - 1], spec.sched)
        ref = term_residual(EstimatorKind(kind), ref_oracle, z_t, t, eps[row - 1],
                            spec.weights, spec.thresholds)
        if np.max(np.abs(ref - traj.residuals[row])) > RESIDUAL_ATOL:
            problems.append(f"{tag}: row {row} residual differs from predict_noise path")
        for col, sub in enumerate(subs):
            want = mixture_density(sub, traj.thetas[row])
            if abs(traj.densities[row, col] - want) > DENSITY_RTOL * abs(want):
                problems.append(f"{tag}: row {row} density column {col} differs "
                                f"from mixture_density")
    return problems


def steps_to_threshold(thetas: np.ndarray, modes: np.ndarray, cap: int) -> int:
    """First step whose iterate lies within THRESHOLD of a joint mode, else ``cap``."""
    dist = np.linalg.norm(thetas[:, None, :] - modes[None, :, :], axis=2).min(axis=1)
    hit = np.flatnonzero(dist < THRESHOLD)
    return int(hit[0]) if hit.size else cap


def descent_counts(runs: list[tuple[str, object, float]]) -> dict[str, float]:
    """Exact per-layer counts for (estimator, trajectory, distance) descents."""
    point_steps = sum(traj.num_rows - 1 for _, traj, _ in runs)
    predicts = sum(predicts_per_step(kind, int(t))
                   for kind, traj, _ in runs for t in traj.timesteps[1:])
    n = len(runs)
    return {"optimize.optimize_point.calls": n,
            "samplers.timestep_sequence.calls": n,
            "experiments.convergence_check.calls": n,
            "guidance.term_residual.calls": point_steps,
            "oracle.NoiseOracle.predict.calls": predicts,
            "oracle.NoiseOracle.density_bundle.calls": point_steps + n,
            "optimize.point_steps": point_steps}


def inspect_descents(spec: DescentSpec, runs: list[tuple[str, object, float]],
                     checked: Checked) -> Checked:
    modes = spec.modes()
    for kind, traj, distance in runs:
        problems = check_trajectory(spec, kind, traj, distance)
        if problems:
            checked.failed += 1
            checked.problems += problems
        checked.steps += traj.num_rows - 1
        checked.to_threshold.append(steps_to_threshold(traj.thetas, modes, spec.steps))
    return checked


# ---------------------------------------------------------------------------
# staged_descent: experiments.run_full_schedule, SDSE, 2000-step schedule
# ---------------------------------------------------------------------------

class StagedDescent(Workload):
    """Long scheduled SDSE descents; descent, oracle and density logging do the work.

    Five seeds per call keep a call near one second, so a run holds about
    twenty calls; the quality metric covers the first 50 seeds.
    """

    name = "staged_descent"
    seeds_per_call = 5
    min_calls = 10
    steps = 2000
    lr = 0.01

    def setup(self) -> None:
        from sdse_lab import experiments  # noqa: F401  (imported for set-up timing)
        from sdse_lab.guidance import EstimatorKind, GuidanceWeights, StageThresholds
        from sdse_lab.samplers import SamplerKind, TimestepSampler
        mix, sched = _load_common()
        sampler = TimestepSampler(SamplerKind.NON_INCREASING, t_min=1, t_max=800,
                                  total_steps=self.steps, jitter=0.0)
        self.kind = EstimatorKind.SDSE
        self.spec = DescentSpec(mix, sched, sampler, self.lr, self.steps,
                                GuidanceWeights(), StageThresholds())

    def call(self, index: int, seeds: list[int], workdir: Path):
        from sdse_lab import experiments
        s = self.spec
        return experiments.run_full_schedule(self.kind, s.sampler, s.mix, s.sched, seeds,
                                             lr=s.lr, steps=s.steps, theta0=(0.5, 1.0))

    def inspect(self, result, seeds: list[int]) -> Checked:
        checked = Checked(ops=len(seeds))
        runs = [(self.kind.value, traj, report.distance) for traj, report in result]
        if sorted(traj.seed for traj, _ in result) != sorted(seeds):
            return checked.fail_all("run_full_schedule did not return one run per seed")
        inspect_descents(self.spec, runs, checked)
        checked.expected = _zero_counts(descent_counts(runs))
        checked.expected["experiments.run_full_schedule.calls"] = 1
        checked.digest = _digest(a.tobytes() for _, t, _ in runs
                                 for a in (t.thetas, t.residuals, t.densities))
        return checked


# ---------------------------------------------------------------------------
# toy_cli: `sdse toy` in-process, seven estimators, SVG on
# ---------------------------------------------------------------------------

class ToyCli(Workload):
    """The shipped default toy config shape: every estimator, short runs, plots and CSVs.

    One `sdse toy` call over all seven estimators costs about 11 s on a 2-core
    box, nearly all of it the density grid behind each estimator's SVG, so a
    run would hold one or two samples. Each call therefore runs one estimator
    on one seed, estimators in turn, and every run covers all seven twice;
    the grid keeps the calls within about 2% of each other.
    """

    name = "toy_cli"
    seeds_per_call = 1
    min_calls = 2 * len(ESTIMATORS)
    steps = 400

    def setup(self) -> None:
        from sdse_lab import cli  # noqa: F401  (imported for set-up timing)
        from sdse_lab.configs import parse_toy_config
        self.config = {
            "mixture_path": MIXTURE, "estimators": list(ESTIMATORS),
            "omega_t": 7.5, "omega_i": 1.5,
            "sampler": {"kind": "non_increasing", "t_min": 1, "t_max": 800, "jitter": 0.0},
            "thresholds": {"M": 150, "L": 800}, "lr": 0.01, "steps": self.steps,
            "seeds": [0], "theta0": [0.5, 1.0], "noising": True,
        }
        parsed = parse_toy_config(self.config)
        mix, sched = _load_common()
        self.spec = DescentSpec(mix, sched, parsed.sampler(), parsed.lr, parsed.steps,
                                parsed.weights, parsed.thresholds)

    def call(self, index: int, seeds: list[int], workdir: Path):
        estimator = ESTIMATORS[index % len(ESTIMATORS)]
        cfg_path = workdir / "toy.json"
        cfg_path.write_text(json.dumps(dict(self.config, estimators=[estimator], seeds=seeds)),
                            encoding="utf-8")
        out = workdir / "out"
        rc = _run_cli(["toy", "--config", str(cfg_path), "--out", str(out)])
        return rc, out, estimator

    def inspect(self, result, seeds: list[int]) -> Checked:
        from sdse_lab.optimize import trajectory_from_csv
        rc, out, estimator = result
        checked = Checked(ops=len(seeds))
        if rc != 0:
            return checked.fail_all(f"sdse toy exited with {rc}")
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        listed = sorted((r["estimator"], r["seed"]) for r in summary["runs"])
        if listed != [(estimator, s) for s in sorted(seeds)]:
            return checked.fail_all("summary.json does not list estimators x seeds runs")
        runs = []
        for entry in summary["runs"]:
            path = out / entry["csv"]
            traj = trajectory_from_csv(path)
            text = path.read_text(encoding="utf-8")
            if traj.to_csv() != text or traj.seed != entry["seed"] \
                    or traj.config_digest != summary["digest"]:
                checked.failed += 1
                checked.problems.append(f"{entry['csv']}: CSV does not round-trip")
                continue
            runs.append((entry["estimator"], traj, entry["distance"]))
        svg = (out / f"toy_{estimator}.svg").read_text(encoding="utf-8")
        if not svg.rstrip().endswith("</svg>"):
            checked.fail_all(f"toy_{estimator}.svg is incomplete")
        inspect_descents(self.spec, runs, checked)
        checked.expected = _zero_counts(descent_counts(runs))
        checked.expected.update({
            "cli.cmd_toy.calls": 1, "configs.parse_toy_config.calls": 1,
            "optimize.Trajectory.to_csv.calls": len(runs),
            "plots.plot_trajectories_svg.calls": 1,
            "plots.density_grid.calls": 1,
            "plots.marching_squares.calls": 8,      # contour levels per plot
            "plots.density_grid.points": SVG_RESOLUTION ** 2,
        })
        checked.digest = _dir_digest(out)
        return checked


# ---------------------------------------------------------------------------
# Mesh edits: `sdse mesh-edit` on the 100-vertex grid, and a 10^4-vertex grid
# ---------------------------------------------------------------------------

def mesh_counts(runs: list[dict], steps: int, first_batch: int, views_per_step: int,
                n_solvers: int, profile: str) -> dict[str, float]:
    """Exact per-layer counts for mesh edit runs, from each run's allocation."""
    from sdse_lab.experiments import PROFILES
    from sdse_lab.mixtures import FULL_COND
    from sdse_lab.views import allocate_views

    targets = PROFILES[profile]
    per_view = {r: 2 if c == FULL_COND else 1 for r, c in targets.items()}   # SDSE vs image pull
    base = allocate_views({r: 1.0 for r in targets}, first_batch).counts
    base_predicts = sum(base[r] * per_view[r] for r in targets)
    predicts = sum(base_predicts + steps * sum(n * per_view[int(r)] for r, n in run["counts"].items())
                   for run in runs)
    n = len(runs)
    views = n * (first_batch + steps * views_per_step)
    return {
        "experiments.run_mesh_edit.calls": n_solvers,
        "views.SmoothedStepSolver.factor.calls": n_solvers,
        "mesh.build_laplacian.calls": n_solvers,
        "views.allocate_views.calls": 2 * n,
        "views.make_view.calls": views,
        "views.render_view.calls": views,
        "oracle.forward_diffuse.calls": views,
        "views.target_residual.calls": views,
        "views.backprop_view.calls": views,
        "oracle.NoiseOracle.predict.calls": predicts,
        "views.edit_step.calls": n * steps,
        "views.SmoothedStepSolver.step_delta.calls": n * steps,
        "mesh.LatentMesh.with_codes.calls": n * steps,
        "mesh.smoothness_loss.calls": n * steps,
        "views.region_weights.calls": n * (steps + 1),
        "experiments.region_dispersion.calls": n,
        "experiments.mode_distance_of_regions.calls": sum(r["to_threshold"] for r in runs),
    }


def _check_mesh_run(run: dict, steps: int, views_per_step: int) -> list[str]:
    problems = []
    if sum(run["counts"].values()) != views_per_step:
        problems.append("allocation counts do not sum to views_per_step")
    hit = run["steps_to_threshold"]
    if hit is not None and not 1 <= hit <= steps:
        problems.append(f"steps_to_threshold {hit} outside [1, {steps}]")
    if not run["finite"]:
        problems.append("non-finite output")
    return problems


class MeshEditCli(Workload):
    """`sdse mesh-edit` on the packaged default shape: w1 = 0 skips the solver, w1 = 300 uses it.

    200 steps per run, as in the packaged default config, keep a call near one second.
    """

    name = "mesh_edit"
    seeds_per_call = 1
    min_calls = 20
    config = {
        "mesh_path": "pkg:grid_mesh.json", "mixture_path": MIXTURE,
        "profile": "head_dominant", "w1": [0.0, 300.0], "allocator": True,
        "steps": 200, "views_per_step": 10, "first_batch": 250, "lr": 0.02,
        "t_min": 1, "t_max": 800, "support": 8, "threshold_distance": THRESHOLD,
        "omega_t": 7.5, "omega_i": 1.5, "thresholds": {"M": 150, "L": 800},
        "seeds": [0],
    }
    ops_per_seed = len(config["w1"])     # one edit run per w1 value

    def setup(self) -> None:
        from sdse_lab import cli  # noqa: F401  (imported for set-up timing)
        from sdse_lab.configs import parse_mesh_config, resolve_data_path
        from sdse_lab.mesh import load_mesh
        parse_mesh_config(self.config)
        self.num_regions = len(load_mesh(resolve_data_path(self.config["mesh_path"])).region_ids())

    def call(self, index: int, seeds: list[int], workdir: Path):
        cfg_path = workdir / "mesh.json"
        cfg_path.write_text(json.dumps(dict(self.config, seeds=seeds)), encoding="utf-8")
        out = workdir / "out"
        rc = _run_cli(["mesh-edit", "--config", str(cfg_path), "--out", str(out)])
        return rc, out

    def inspect(self, result, seeds: list[int]) -> Checked:
        rc, out = result
        cfg = self.config
        steps, vps, w1s = cfg["steps"], cfg["views_per_step"], cfg["w1"]
        checked = Checked(ops=self.ops_per_seed * len(seeds))
        if rc != 0:
            return checked.fail_all(f"sdse mesh-edit exited with {rc}")
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        listed = sorted((r["w1"], r["seed"]) for r in summary["runs"])
        if listed != sorted((w, s) for w in w1s for s in seeds):
            return checked.fail_all("summary.json does not list w1 x seeds runs")
        bad_w1 = set()
        for w1 in w1s:
            rows = (out / f"mesh_{cfg['profile']}_w1_{w1:g}.csv").read_text(
                encoding="utf-8").splitlines()[2:]
            values = [row.split(",") for row in rows]
            alloc = {}
            for step, _, _, views, _ in values:
                alloc[step] = alloc.get(step, 0) + int(views)
            if len(values) != len(seeds) * steps * self.num_regions \
                    or not all(math.isfinite(float(v[2])) and math.isfinite(float(v[4]))
                               for v in values) \
                    or any(total != vps * len(seeds) for total in alloc.values()):
                bad_w1.add(w1)
                checked.problems.append(f"w1={w1:g}: step report rows wrong or non-finite")
        alloc_rows = (out / "allocation.csv").read_text(encoding="utf-8").splitlines()
        if sum(int(v) for v in alloc_rows[-1].split(",")[2:]) != vps:
            checked.fail_all("allocation.csv counts do not sum to views_per_step")
        runs = []
        for entry in summary["runs"]:
            run = {"counts": entry["view_counts"],
                   "steps_to_threshold": entry["steps_to_threshold"],
                   "finite": all(math.isfinite(v) for v in (*entry["dispersion"].values(),
                                                            *entry["weights"].values()))}
            run["to_threshold"] = run["steps_to_threshold"] or steps
            problems = _check_mesh_run(run, steps, vps)
            if problems or entry["w1"] in bad_w1:
                checked.failed += 1
                checked.problems += [f"w1={entry['w1']:g} seed {entry['seed']}: {p}"
                                     for p in problems]
            checked.steps += steps
            checked.to_threshold.append(run["to_threshold"])
            runs.append(run)
        checked.expected = _zero_counts(mesh_counts(
            runs, steps, cfg["first_batch"], vps, len(w1s), cfg["profile"]))
        checked.expected.update({"cli.cmd_mesh_edit.calls": 1,
                                 "configs.parse_mesh_config.calls": 1})
        checked.digest = _dir_digest(out)
        return checked


class MeshEditLarge(Workload):
    """experiments.run_mesh_edit on a 100 x 100 grid, where per-vertex costs show.

    Twenty-five steps keep one call near 1.2 s, so a run holds over ten calls.
    """

    name = "mesh_edit_large"
    seeds_per_call = 1
    min_calls = 5
    side = 100
    profile = "head_dominant"

    def setup(self) -> None:
        from sdse_lab import experiments
        from sdse_lab.mesh import grid_mesh
        self.mix, self.sched = _load_common()
        self.mesh = grid_mesh(self.side, self.side)
        self.config = experiments.MeshEditConfig(steps=25, w1=300.0,
                                                 threshold_distance=THRESHOLD)

    def call(self, index: int, seeds: list[int], workdir: Path):
        from sdse_lab import experiments
        return experiments.run_mesh_edit(self.mesh, self.profile, self.mix, self.sched,
                                         seeds, self.config)

    def inspect(self, result, seeds: list[int]) -> Checked:
        cfg = self.config
        checked = Checked(ops=len(seeds))
        if sorted(rep.seed for rep in result) != sorted(seeds):
            return checked.fail_all("run_mesh_edit did not return one report per seed")
        runs = []
        for rep in result:
            run = {"counts": rep.allocation.counts,
                   "steps_to_threshold": rep.steps_to_threshold,
                   "finite": bool(np.all(np.isfinite(rep.final_mesh.codes))
                                  and np.all(np.isfinite(rep.smooth_losses))
                                  and all(map(math.isfinite, rep.dispersion.values())))}
            run["to_threshold"] = rep.steps_to_threshold or cfg.steps
            problems = _check_mesh_run(run, cfg.steps, cfg.views_per_step)
            if len(rep.grad_norm_rows) != cfg.steps or any(
                    sum(row["view_counts"].values()) != cfg.views_per_step
                    for row in rep.grad_norm_rows):
                problems.append("step rows wrong")
            if problems:
                checked.failed += 1
                checked.problems += [f"seed {rep.seed}: {p}" for p in problems]
            checked.steps += cfg.steps
            checked.to_threshold.append(run["to_threshold"])
            runs.append(run)
        checked.expected = _zero_counts(mesh_counts(
            runs, cfg.steps, cfg.first_batch, cfg.views_per_step, 1, self.profile))
        checked.digest = _digest(a.tobytes() for rep in result
                                 for a in (rep.final_mesh.codes, rep.smooth_losses))
        return checked


WORKLOADS = {cls.name: cls for cls in (StagedDescent, ToyCli, MeshEditCli, MeshEditLarge)}
