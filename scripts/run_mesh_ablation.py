#!/usr/bin/env python3
"""Mesh-edit ablations: gradient-aware allocation on/off and smoothing on/off.

Two `sdse mesh-edit` runs on matched seeds, each in its own directory next to
the config.json it ran from. <out>/allocator_on/ runs w1 = W and w1 = 0 (arms
allocator_on and no_smoothing); <out>/allocator_off/ runs w1 = W with uniform
view allocation. Prints step-to-threshold ratios and edited-region dispersion
and writes ablation_summary.json.

Usage:
    python scripts/run_mesh_ablation.py --out out_ablation --seeds 4
"""

import argparse
import json
from pathlib import Path

import numpy as np

from sdse_lab import cli
from sdse_lab.experiments import PROFILES
from sdse_lab.fields import load_json
from sdse_lab.mixtures import FULL_COND


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out_ablation")
    parser.add_argument("--mesh", default="pkg:grid_mesh.json")
    parser.add_argument("--profile", default="head_dominant",
                        choices=tuple(PROFILES))
    parser.add_argument("--seeds", type=int, default=4)
    parser.add_argument("--steps", type=int, default=400)
    parser.add_argument("--w1", type=float, default=300.0)
    args = parser.parse_args()

    out = Path(args.out)
    cfg = {**load_json("pkg:mesh_default.json"), "mesh_path": args.mesh,
           "profile": args.profile, "steps": args.steps, "seeds": list(range(args.seeds))}
    w1 = str(args.w1)
    runs = {}
    for name, flags in {"allocator_on": ["--w1", w1, "--w1", "0"],
                        "allocator_off": ["--no-allocator", "--w1", w1]}.items():
        run_dir = out / name
        run_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = run_dir / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
        rc = cli.main(["mesh-edit", "--config", str(cfg_path), "--out", str(run_dir),
                       *flags])
        if rc != 0:
            return rc
        summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
        runs[name] = summary["runs"]     # w1 in flag order, then seed order

    n = args.seeds
    arms = {"allocator_on": runs["allocator_on"][:n],
            "allocator_off": runs["allocator_off"],
            "no_smoothing": runs["allocator_on"][n:]}
    edited = [r for r, c in PROFILES[args.profile].items() if c == FULL_COND]
    results = {}
    for name, arm in arms.items():
        steps_hit = [r["steps_to_threshold"] or args.steps for r in arm]
        disp = [float(np.mean([r["dispersion"][str(e)] for e in edited])) for r in arm]
        counts = dict(sorted((int(k), v) for k, v in arm[0]["view_counts"].items()))
        results[name] = {
            "steps_to_threshold": steps_hit,
            "edited_dispersion": disp,
            "allocation": counts,
        }
        print(f"{name}: steps-to-threshold {steps_hit}, "
              f"edited dispersion {np.mean(disp):.4f}, allocation {counts}")

    ratio = np.mean(results["allocator_on"]["steps_to_threshold"]) / \
        np.mean(results["allocator_off"]["steps_to_threshold"])
    results["allocator_step_ratio"] = float(ratio)
    print(f"allocator on/off step ratio: {ratio:.3f}")
    (out / "ablation_summary.json").write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
