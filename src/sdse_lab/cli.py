"""Command-line entry point: verify | toy | mesh-edit | emit-plot.

Config files are authoritative; long-form flags mirror config keys and
override them. The SDSE_SEED environment variable replaces the seed list for
quick smoke runs. Every output file carries the resolved config digest and
reruns overwrite byte-identically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .configs import (SCHEDULE_STEPS, MeshRunConfig, ToyRunConfig, parse_mesh_config,
                      parse_thresholds, parse_toy_config)
from .experiments import (PROFILES, Phase, convergence_check, phase_band, profile_targets,
                          run_mesh_edit)
from .fields import ConfigError, expect, load_json, number
from .mesh import load_mesh
from .mixtures import FULL_COND, ConditionedMixture, condition_support, load_mixture
from .optimize import optimize_point, trajectory_from_csv
from .oracle import NoiseOracle
from .plots import plot_trajectories_svg, write_svg
from .schedule import linear_beta_schedule
from .verify import report_dict, run_all_checks


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _override_seeds(cfg: dict, seed: int | None) -> None:
    """--seed, then SDSE_SEED, replace the config's seed list."""
    source = "--seed"
    env = os.environ.get("SDSE_SEED")
    if env is not None:
        source = "SDSE_SEED"
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(source, f"expected an integer, got {env!r}") from None
    if seed is not None:
        cfg["seeds"] = [number(seed, source, integer=True, minimum=0)]


def cmd_verify(args: argparse.Namespace) -> int:
    checks = run_all_checks(args.mixture)
    report = report_dict(checks)
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}")
        if not check.passed:
            print(f"       {check.details}")
    if args.report:
        _write_json(report, Path(args.report))
        print(f"report written to {args.report}")
    return 0 if report["all_passed"] else 1


def _resolve_toy_config(args: argparse.Namespace) -> ToyRunConfig:
    cfg = load_json(args.config or "pkg:toy_default.json")
    if args.estimator:
        cfg["estimators"] = list(args.estimator)
    if args.phase:
        lo, hi = phase_band(Phase(args.phase), parse_thresholds(cfg), SCHEDULE_STEPS)
        expect(lo <= hi <= SCHEDULE_STEPS, "--phase", f"the {args.phase} band {lo}..{hi} of the "
               f"config's thresholds is empty or past the schedule's last step ({SCHEDULE_STEPS})")
        sampler = cfg.setdefault("sampler", {})
        expect(isinstance(sampler, dict), "sampler", "expected an object")
        sampler.update(kind="uniform", t_min=lo, t_max=hi)
    for key in ("lr", "omega_t", "omega_i"):
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    if args.steps is not None:
        cfg["steps"] = args.steps
    _override_seeds(cfg, args.seed)
    return parse_toy_config(cfg)


def _load_edit_mixture(path: str) -> ConditionedMixture:
    """The mixture at `path`; both edits descend toward the joint condition's modes,
    so it must reach a component of positive weight."""
    mixture = load_mixture(path)
    try:
        condition_support(mixture, FULL_COND)
    except ValueError:
        raise ConfigError("mixture_path", f"the joint condition {FULL_COND} reaches no "
                                          f"component of positive weight (label 'both')"
                          ) from None
    return mixture


def cmd_toy(args: argparse.Namespace) -> int:
    cfg = _resolve_toy_config(args)
    mixture = _load_edit_mixture(cfg.mixture_path)
    expect(mixture.dim == 2, "mixture_path",
           f"the toy run needs a 2-D mixture, got a {mixture.dim}-D one")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sched = linear_beta_schedule()
    oracle = NoiseOracle(mixture, sched)
    digest = cfg.digest
    modes = mixture.mode_points(FULL_COND)
    runs = []
    for estimator in cfg.estimators:
        trajs = []
        for seed in cfg.seeds:
            traj = optimize_point(cfg.theta0, estimator, cfg.sampler(), mixture, sched,
                                  lr=cfg.lr, steps=cfg.steps, seed=seed,
                                  weights=cfg.weights, thresholds=cfg.thresholds,
                                  config_digest=digest, oracle=oracle)
            name = f"{estimator.value}_seed{seed}.csv"
            traj.write_csv(out_dir / name)
            report = convergence_check(traj, modes)
            runs.append({"estimator": estimator.value, "seed": seed, "csv": name,
                         "final_theta": traj.final_theta.tolist(),
                         "distance": report.distance,
                         "classification": report.classification.value,
                         "guard_tripped": traj.guard_tripped})
            trajs.append(traj)
        if args.svg:
            svg = plot_trajectories_svg(
                mixture, [t.thetas for t in trajs],
                labels=[f"seed {t.seed}" for t in trajs],
                title=f"estimator={estimator.value}", digest=digest)
            write_svg(svg, out_dir / f"toy_{estimator.value}.svg")
    runs.sort(key=lambda r: (r["estimator"], r["seed"]))
    summary = {"command": "toy", "version": __version__, "digest": digest,
               "config": cfg.raw, "runs": runs}
    _write_json(summary, out_dir / "summary.json")
    print(f"{len(runs)} runs -> {out_dir}")
    return 0


def _resolve_mesh_config(args: argparse.Namespace) -> MeshRunConfig:
    cfg = load_json(args.config or "pkg:mesh_default.json")
    if args.profile:
        cfg["profile"] = args.profile
    if args.w1:
        cfg["w1"] = args.w1 if len(args.w1) > 1 else args.w1[0]
    if args.no_allocator:
        cfg["allocator"] = False
    if args.steps is not None:
        cfg["steps"] = args.steps
    _override_seeds(cfg, args.seed)
    return parse_mesh_config(cfg)


def _write_step_report(reports, path: Path, digest: str) -> None:
    """One row per (seed, step, region): the region's gradient norm and views."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# digest={digest}\n")
        fh.write("step,region,grad_norm,views_allocated,smooth_loss\n")
        for report in reports:
            for entry in report.grad_norm_rows:
                smooth = repr(float(entry["smooth_loss"]))
                for region in sorted(entry["grad_norms"]):
                    grad = repr(float(entry["grad_norms"][region]))
                    views = entry["view_counts"][region]
                    fh.write(f"{entry['step']},{region},{grad},{views},{smooth}\n")


def cmd_mesh_edit(args: argparse.Namespace) -> int:
    cfg = _resolve_mesh_config(args)
    mesh = load_mesh(cfg.mesh_path)
    mixture = _load_edit_mixture(cfg.mixture_path)
    targets = profile_targets(mesh, cfg.profile)
    sched = linear_beta_schedule()
    # Every w1 runs before --out is made, so a run refused at any w1 writes nothing.
    runs = [(edit, run_mesh_edit(mesh, cfg.profile, mixture, sched, list(cfg.seeds), edit))
            for edit in cfg.edits]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = cfg.digest
    edited = [r for r, c in targets.items() if c == FULL_COND]
    summary_runs = []
    dispersion_by_w1 = {}
    for edit, reports in runs:
        w1 = edit.w1
        tag = f"w1_{w1:g}" if len(runs) > 1 else "steps"
        _write_step_report(reports, out_dir / f"mesh_{cfg.profile}_{tag}.csv", digest)
        disp = [float(np.mean([rep.dispersion[r] for r in edited])) for rep in reports]
        dispersion_by_w1[w1] = disp
        for rep in reports:
            summary_runs.append({"w1": w1, "seed": rep.seed,
                                 "allocator": edit.allocator,
                                 "steps_to_threshold": rep.steps_to_threshold,
                                 "view_counts": rep.allocation.counts,
                                 "weights": rep.allocation.weights,
                                 "dispersion": rep.dispersion})
    # The first listed seed's allocation (summary.json holds each seed's); the
    # measuring pass that sets it does not depend on w1.
    alloc = runs[0][1][0].allocation
    regions = sorted(alloc.counts)
    with open(out_dir / "allocation.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# digest={digest}\n")
        fh.write("profile,metric," + ",".join(f"region_{r}" for r in regions) + "\n")
        weights_row = ",".join(repr(float(alloc.weights[r])) for r in regions)
        counts_row = ",".join(str(alloc.counts[r]) for r in regions)
        fh.write(f"{cfg.profile},weight,{weights_row}\n")
        fh.write(f"{cfg.profile},view_count,{counts_row}\n")
    summary = {"command": "mesh-edit", "version": __version__, "digest": digest,
               "config": cfg.raw, "runs": summary_runs}
    if len(runs) > 1:
        pairs = sorted(dispersion_by_w1)
        summary["dispersion_comparison"] = {
            "w1_values": list(pairs),
            "mean_dispersion": {str(w): float(np.mean(dispersion_by_w1[w]))
                                for w in pairs}}
    _write_json(summary, out_dir / "summary.json")
    print(f"mesh-edit runs -> {out_dir}")
    return 0


def cmd_emit_plot(args: argparse.Namespace) -> int:
    mixture = load_mixture(args.mixture)
    trajs = [trajectory_from_csv(p) for p in args.trajectory]
    svg = plot_trajectories_svg(mixture, [t.thetas for t in trajs],
                                labels=[Path(p).stem for p in args.trajectory],
                                title=args.title, digest=trajs[0].config_digest)
    write_svg(svg, args.out)
    print(f"plot -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdse",
        description="Score-distillation editing laboratory: verification, toy "
                    "phase runs, and synthetic mesh-edit ablations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the oracle/identity check suite")
    p_verify.add_argument("--mixture", default=None,
                          help="mixture JSON (default: shipped toy mixture)")
    p_verify.add_argument("--report", default=None, help="write a JSON report here")
    p_verify.set_defaults(func=cmd_verify)

    p_toy = sub.add_parser("toy", help="run toy optimization trajectories")
    p_toy.add_argument("--config", default=None, help="run config JSON")
    p_toy.add_argument("--out", default="out_toy", help="output directory")
    p_toy.add_argument("--estimator", action="append", default=None,
                       help="override estimator list (repeatable)")
    p_toy.add_argument("--phase", choices=[p.value for p in Phase], default=None,
                       help="restrict the sampler to one timestep band")
    p_toy.add_argument("--steps", type=int, default=None)
    p_toy.add_argument("--lr", type=float, default=None)
    p_toy.add_argument("--omega-t", dest="omega_t", type=float, default=None)
    p_toy.add_argument("--omega-i", dest="omega_i", type=float, default=None)
    p_toy.add_argument("--seed", type=int, default=None)
    svg = p_toy.add_mutually_exclusive_group()
    svg.add_argument("--svg", dest="svg", action="store_true", default=True)
    svg.add_argument("--no-svg", dest="svg", action="store_false")
    p_toy.set_defaults(func=cmd_toy)

    p_mesh = sub.add_parser("mesh-edit", help="run the synthetic mesh edit")
    p_mesh.add_argument("--config", default=None, help="run config JSON")
    p_mesh.add_argument("--out", default="out_mesh", help="output directory")
    p_mesh.add_argument("--profile", choices=tuple(PROFILES), default=None)
    p_mesh.add_argument("--w1", action="append", type=float, default=None,
                        help="smoothness weight; repeat for a paired comparison")
    p_mesh.add_argument("--no-allocator", action="store_true",
                        help="use uniform per-region view allocation")
    p_mesh.add_argument("--steps", type=int, default=None)
    p_mesh.add_argument("--seed", type=int, default=None)
    p_mesh.set_defaults(func=cmd_mesh_edit)

    p_plot = sub.add_parser("emit-plot", help="density contour + trajectory SVG")
    p_plot.add_argument("--trajectory", action="append", required=True,
                        help="trajectory CSV (repeatable)")
    p_plot.add_argument("--mixture", default="pkg:toy_gmm.json")
    p_plot.add_argument("--out", default="trajectories.svg")
    p_plot.add_argument("--title", default="")
    p_plot.set_defaults(func=cmd_emit_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
