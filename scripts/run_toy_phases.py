#!/usr/bin/env python3
"""Reproduce the three toy learning phases, one `sdse toy` run per phase.

Each phase runs its estimator set on matched seeds in <out>/<phase>/, next to
the config.json it ran from: one trajectory CSV per (estimator, seed), the
run's summary.json and, unless --no-svg, a density-contour overlay per
estimator. phase_summary.json collects, per phase and estimator, the mean
final mode distance and the mean p_img over each run's last ten steps.

Usage:
    python scripts/run_toy_phases.py --out out_phases --seeds 20
"""

import argparse
import json
from pathlib import Path

import numpy as np

from sdse_lab import cli
from sdse_lab.configs import default_toy_config
from sdse_lab.optimize import trajectory_from_csv

# Per phase: config overrides and `sdse toy` flags. Large and small t span their
# band under the config's thresholds; middle holds t fixed at 500.
PHASES = {
    "early_large": ({"estimators": ["m1", "m3", "m4", "sds"]}, ["--phase", "large"]),
    "middle": ({"estimators": ["m1", "m3", "m4", "sdse"],
                "sampler": {"kind": "uniform", "t_min": 500, "t_max": 500}}, []),
    "small": ({"estimators": ["m1", "m3", "m4", "sdse", "sdse_prime"]},
              ["--phase", "small"]),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out_phases")
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--steps", type=int, default=600)
    parser.add_argument("--lr", type=float, default=1e-2)
    parser.add_argument("--no-svg", action="store_true")
    args = parser.parse_args()

    out = Path(args.out)
    summary = {}
    for name, (overrides, flags) in PHASES.items():
        run_dir = out / name
        run_dir.mkdir(parents=True, exist_ok=True)
        cfg = {**default_toy_config(), **overrides, "lr": args.lr, "steps": args.steps,
               "seeds": list(range(args.seeds))}
        cfg_path = run_dir / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
        argv = ["toy", "--config", str(cfg_path), "--out", str(run_dir), *flags]
        rc = cli.main(argv + ["--no-svg"] if args.no_svg else argv)
        if rc != 0:
            return rc
        runs = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))["runs"]
        rows = []
        for estimator in cfg["estimators"]:
            mine = [r for r in runs if r["estimator"] == estimator]
            p_img = [float(trajectory_from_csv(run_dir / r["csv"]).densities[-10:, 1].mean())
                     for r in mine]
            rows.append({"estimator": estimator,
                         "mean_final_mode_distance": float(np.mean([r["distance"]
                                                                    for r in mine])),
                         "mean_final_p_img": float(np.mean(p_img))})
        summary[name] = rows
        print(f"{name}: " + "; ".join(
            f"{r['estimator']} dist={r['mean_final_mode_distance']:.3f}"
            for r in rows))

    (out / "phase_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
