"""Smoke runs of the experiment scripts, which drive `sdse toy` and `sdse mesh-edit`."""

import json
import runpy
import sys
from pathlib import Path

import pytest

from sdse_lab.guidance import EstimatorKind
from sdse_lab.mixtures import toy_mixture
from sdse_lab.optimize import optimize_point, trajectory_from_csv
from sdse_lab.samplers import SamplerKind, TimestepSampler
from sdse_lab.schedule import linear_beta_schedule

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, monkeypatch, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exc.value.code


def test_toy_phases_script(tmp_path, monkeypatch):
    out = tmp_path / "phases"
    assert run_script("run_toy_phases.py", monkeypatch, "--out", str(out), "--seeds", "1",
                      "--steps", "5", "--no-svg") == 0
    summary = json.loads((out / "phase_summary.json").read_text())
    assert {name: [row["estimator"] for row in rows] for name, rows in summary.items()} == {
        "early_large": ["m1", "m3", "m4", "sds"],
        "middle": ["m1", "m3", "m4", "sdse"],
        "small": ["m1", "m3", "m4", "sdse", "sdse_prime"]}
    assert all(set(row) == {"estimator", "mean_final_mode_distance", "mean_final_p_img"}
               for rows in summary.values() for row in rows)
    large = json.loads((out / "early_large" / "summary.json").read_text())
    assert (large["config"]["sampler"]["t_min"], large["config"]["sampler"]["t_max"]) == \
        (801, 1000)
    # the middle phase holds t at 500 through the config's sampler
    assert (out / "middle" / "config.json").exists()
    path = out / "middle" / "sdse_seed0.csv"
    traj = optimize_point((0.5, 1.0), EstimatorKind.SDSE,
                          TimestepSampler(SamplerKind.UNIFORM, 500, 500, 5),
                          toy_mixture(), linear_beta_schedule(), lr=1e-2, steps=5, seed=0,
                          config_digest=trajectory_from_csv(path).config_digest)
    assert traj.to_csv() == path.read_text()


def test_mesh_ablation_script(tmp_path, monkeypatch):
    out = tmp_path / "ablation"
    assert run_script("run_mesh_ablation.py", monkeypatch, "--out", str(out), "--seeds", "1",
                      "--steps", "2") == 0
    summary = json.loads((out / "ablation_summary.json").read_text())
    assert list(summary) == ["allocator_on", "allocator_off", "no_smoothing",
                             "allocator_step_ratio"]
    for arm in ("allocator_on", "allocator_off", "no_smoothing"):
        assert set(summary[arm]) == {"steps_to_threshold", "edited_dispersion", "allocation"}
        assert summary[arm]["steps_to_threshold"] == [2]
    assert summary["allocator_off"]["allocation"] == {str(r): 2 for r in range(5)}
    # the measuring pass that sets the allocation does not depend on w1
    assert summary["no_smoothing"]["allocation"] == summary["allocator_on"]["allocation"]
    assert (out / "allocator_on" / "mesh_head_dominant_w1_0.csv").exists()
    assert (out / "allocator_off" / "config.json").exists()
