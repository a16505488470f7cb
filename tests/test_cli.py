import json
import os
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

import sdse_lab
from sdse_lab.cli import main
from sdse_lab.experiments import run_full_schedule
from sdse_lab.guidance import EstimatorKind
from sdse_lab.mixtures import toy_mixture
from sdse_lab.optimize import trajectory_from_csv
from sdse_lab.samplers import SamplerKind, TimestepSampler
from sdse_lab.schedule import linear_beta_schedule
from sdse_lab.views import MAX_VIEWS_PER_STEP

TOY_CONFIG = {
    "mixture_path": "pkg:toy_gmm.json",
    "estimators": ["m4", "sdse"],
    "omega_t": 7.5,
    "omega_i": 1.5,
    "sampler": {"kind": "non_increasing", "t_min": 1, "t_max": 800, "jitter": 0.0},
    "thresholds": {"M": 150, "L": 800},
    "lr": 0.01,
    "steps": 8,
    "seeds": [0, 1],
    "theta0": [0.5, 1.0],
    "noising": True,
}

MESH_CONFIG = {
    "mesh_path": "pkg:grid_mesh.json",
    "mixture_path": "pkg:toy_gmm.json",
    "profile": "head_dominant",
    "w1": 300.0,
    "allocator": True,
    "steps": 3,
    "views_per_step": 10,
    "first_batch": 50,
    "lr": 0.02,
    "seeds": [0],
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_bytes_map(folder):
    return {p.name: p.read_bytes() for p in sorted(Path(folder).glob("*.csv"))}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_on_fresh_checkout(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["verify", "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] score_finite_difference" in out
    assert "[PASS] allocation_table" in out
    report = json.loads(report_path.read_text())
    assert report["all_passed"] is True
    table = [c for c in report["checks"] if c["name"] == "allocation_table"][0]
    got = {row["profile"]: row["got"] for row in table["details"]["rows"]}
    assert got["body_dominant"] == [2000, 4000, 23500, 13000, 7500]
    assert got["head_dominant"] == [3500, 10000, 15000, 15500, 6000]


def test_verify_fails_on_unsupported_mixture(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"components": [
        {"weight": 1.0, "mean": [0, 0], "covariance": 0.1, "label": "text_only"}]}))
    assert main(["verify", "--mixture", str(bad)]) == 1
    assert "condition has no support" in capsys.readouterr().out


def test_wrong_typed_mixture_component_is_named(tmp_path, capsys):
    bad = write_config(tmp_path, {"components": [5]}, name="bad.json")
    assert main(["verify", "--mixture", bad]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] mixture_file" in out and "'components[0]: expected an object'" in out
    cfg = write_config(tmp_path, {**TOY_CONFIG, "mixture_path": bad})
    assert main(["toy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: components[0]: ")


def test_verify_fails_on_parse_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["verify", "--mixture", str(bad)]) != 0


# ---------------------------------------------------------------------------
# toy
# ---------------------------------------------------------------------------

def test_toy_run_produces_expected_files(tmp_path):
    cfg = write_config(tmp_path, TOY_CONFIG)
    out = tmp_path / "out"
    assert main(["toy", "--config", cfg, "--out", str(out), "--no-svg"]) == 0
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert csvs == ["m4_seed0.csv", "m4_seed1.csv", "sdse_seed0.csv", "sdse_seed1.csv"]
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["runs"]) == 4
    assert summary["digest"]
    first_line = (out / "m4_seed0.csv").read_text().splitlines()[0]
    assert first_line == f"# digest={summary['digest']}"
    assert not list(out.glob("*.svg"))


def test_toy_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, TOY_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["toy", "--config", cfg, "--out", str(out_a), "--no-svg"]) == 0
    assert main(["toy", "--config", cfg, "--out", str(out_b), "--no-svg"]) == 0
    assert read_bytes_map(out_a) == read_bytes_map(out_b)
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


@pytest.mark.parametrize("estimator", ["sdse", "sds"])
def test_toy_csvs_equal_run_full_schedule(tmp_path, estimator):
    """`sdse toy` and `run_full_schedule` run the same per-seed descent."""
    steps, seeds = 60, [0, 3]
    cfg = write_config(tmp_path, {**TOY_CONFIG, "estimators": [estimator], "seeds": seeds,
                                  "steps": steps})
    out = tmp_path / "out"
    assert main(["toy", "--config", cfg, "--out", str(out), "--no-svg"]) == 0
    sampler = TimestepSampler(SamplerKind.NON_INCREASING, 1, 800, steps)
    runs = run_full_schedule(EstimatorKind(estimator), sampler, toy_mixture(),
                             linear_beta_schedule(), seeds, lr=0.01, steps=steps)
    assert [traj.seed for traj, _ in runs] == seeds
    for traj, _ in runs:
        written = trajectory_from_csv(out / f"{estimator}_seed{traj.seed}.csv")
        for name in ("thetas", "residuals", "densities", "timesteps"):
            assert np.array_equal(getattr(written, name), getattr(traj, name)), name


def test_toy_overflowing_divergence_is_named_without_warnings(tmp_path):
    """lr = 1e308 overflows the first step's iterate, its densities, the guard's
    norm and the plot's canvas scale; the guard names the run, nothing warns
    (RuntimeWarnings are errors here) and no file holds a non-finite point."""
    out = tmp_path / "out"
    assert main(["toy", "--estimator", "sds", "--lr", "1e308", "--steps", "20",
                 "--seed", "0", "--out", str(out)]) == 0
    run, = json.loads((out / "summary.json").read_text())["runs"]
    assert run["guard_tripped"] and run["classification"] == "diverged"
    assert trajectory_from_csv(out / "sds_seed0.csv").num_rows == 2
    plot = tmp_path / "plot.svg"
    assert main(["emit-plot", "--trajectory", str(out / "sds_seed0.csv"),
                 "--out", str(plot)]) == 0
    for svg in (out / "toy_sds.svg", plot):
        text = svg.read_text()
        assert "inf" not in text and "nan" not in text


def test_toy_default_config_runs_seven_estimators(tmp_path):
    out = tmp_path / "out"
    assert main(["toy", "--out", str(out), "--steps", "4", "--no-svg"]) == 0
    csvs = list(out.glob("*.csv"))
    assert len(csvs) == 7 * 20
    summary = json.loads((out / "summary.json").read_text())
    estimators = {r["estimator"] for r in summary["runs"]}
    assert estimators == {"sds", "ssd", "m1", "m3", "m4", "sdse", "sdse_prime"}


def test_toy_run_leaves_scipy_special_unloaded(tmp_path):
    """numpy and scipy.sparse are the only numeric imports, and scipy.sparse only
    for mesh edits; a fresh interpreter that imports the CLI and runs a short toy
    (SVG on) never loads scipy.special, nor any other scipy module."""
    code = ("import sys\n"
            "from sdse_lab.cli import main\n"
            f"assert main(['toy', '--out', {str(tmp_path / 'out')!r}, '--steps', '3',"
            " '--seed', '0']) == 0\n"
            "assert 'scipy.special' not in sys.modules, 'scipy.special was imported'\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, f'scipy modules were imported: {loaded}'\n")
    src = str(Path(sdse_lab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("SDSE_SEED", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(list((tmp_path / "out").glob("*.svg"))) == 7


def test_toy_svg_emission(tmp_path):
    cfg = write_config(tmp_path, {**TOY_CONFIG, "estimators": ["m4"], "seeds": [0]})
    out = tmp_path / "out"
    assert main(["toy", "--config", cfg, "--out", str(out), "--svg"]) == 0
    svgs = list(out.glob("*.svg"))
    assert [p.name for p in svgs] == ["toy_m4.svg"]
    text = svgs[0].read_text()
    assert text.startswith('<?xml') and "</svg>" in text


def test_toy_estimator_and_phase_flags(tmp_path):
    out = tmp_path / "out"
    assert main(["toy", "--estimator", "m1", "--phase", "small", "--steps", "5",
                 "--seed", "3", "--out", str(out), "--no-svg"]) == 0
    csvs = [p.name for p in out.glob("*.csv")]
    assert csvs == ["m1_seed3.csv"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["sampler"]["t_max"] == 150
    assert summary["config"]["sampler"]["kind"] == "uniform"


def test_toy_phase_band_follows_config_thresholds(tmp_path):
    cfg = write_config(tmp_path, {**TOY_CONFIG, "estimators": ["m1"], "seeds": [0],
                                  "thresholds": {"M": 100, "L": 500}})
    out = tmp_path / "out"
    assert main(["toy", "--config", cfg, "--phase", "middle", "--out", str(out),
                 "--no-svg"]) == 0
    sampler = json.loads((out / "summary.json").read_text())["config"]["sampler"]
    assert (sampler["t_min"], sampler["t_max"]) == (101, 500)
    timesteps = [int(row.split(",")[1]) for row in
                 (out / "m1_seed0.csv").read_text().splitlines()[4:]]
    assert min(timesteps) >= 101 and max(timesteps) <= 500


def test_toy_env_seed_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, TOY_CONFIG)
    out = tmp_path / "out"
    monkeypatch.setenv("SDSE_SEED", "77")
    assert main(["toy", "--config", cfg, "--out", str(out), "--no-svg"]) == 0
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert csvs == ["m4_seed77.csv", "sdse_seed77.csv"]


def test_toy_config_schema_error_has_field_path(tmp_path, capsys):
    cfg = write_config(tmp_path, {**TOY_CONFIG, "estimators": ["bogus"]})
    assert main(["toy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "estimators[0]" in err


def test_toy_sampler_schema_error(tmp_path, capsys):
    bad = dict(TOY_CONFIG)
    bad["sampler"] = {"kind": "uniform", "t_min": 100, "t_max": 5}
    cfg = write_config(tmp_path, bad)
    assert main(["toy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "sampler.t_max" in capsys.readouterr().err


def test_toy_sampler_beyond_schedule_is_config_error(tmp_path, capsys):
    bad = {**TOY_CONFIG, "sampler": {"kind": "uniform", "t_min": 1, "t_max": 1200}}
    cfg = write_config(tmp_path, bad)
    assert main(["toy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "sampler.t_max: must be <= 1000" in err
    assert "Traceback" not in err


def test_toy_infinite_lr_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TOY_CONFIG).replace('"lr": 0.01', '"lr": Infinity'))
    assert main(["toy", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "lr: expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_toy_large_phase_with_staged_estimators_is_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["toy", "--phase", "large", "--steps", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: sampler.t_max: must be <= middle_max "
                                       "(800) when a staged estimator runs\n")
    assert not (out / "summary.json").exists() and not list(out.glob("*.csv"))


def test_toy_phase_on_a_non_object_sampler_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {**TOY_CONFIG, "sampler": [1]})
    assert main(["toy", "--config", cfg, "--phase", "small", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: sampler: expected an object")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["toy", "--phase", "small"], ["mesh-edit", "--steps", "3"]])
def test_non_object_config_is_config_error(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, [1, 2])
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err


INF = float("inf")  # json.dumps writes it as Infinity, which json.loads accepts
NAN = float("nan")  # and NaN as NaN


@pytest.mark.parametrize("command,override,env,field", [
    pytest.param("toy", {"noising": "false"}, None, "noising", id="toy-noising-string"),
    pytest.param("toy", {"noising": False}, None, "noising", id="toy-noising-false"),
    pytest.param("toy", {"seeds": [1.5]}, None, "seeds[0]", id="toy-seed-fraction"),
    pytest.param("toy", {"seeds": [0, "a"]}, None, "seeds[1]", id="toy-seed-string"),
    pytest.param("toy", {"seeds": [-1]}, None, "seeds[0]", id="toy-seed-negative"),
    pytest.param("toy", {"theta0": ["x", 1]}, None, "theta0[0]", id="toy-theta0-string"),
    pytest.param("toy", {"theta0": [INF, 1]}, None, "theta0[0]", id="toy-theta0-infinite"),
    pytest.param("toy", {}, "abc", "SDSE_SEED", id="toy-env-seed-string"),
    pytest.param("toy", {}, "-1", "SDSE_SEED", id="toy-env-seed-negative"),
    pytest.param("toy", {"estimators": [["m4"]]}, None, "estimators[0]",
                 id="toy-estimator-list"),
    pytest.param("toy", {"sampler": {"kind": ["uniform"]}}, None, "sampler.kind",
                 id="toy-sampler-kind-list"),
    pytest.param("toy", {"steps": 10**400}, None, "steps", id="toy-steps-beyond-float"),
    pytest.param("toy", {"sampler": {"kind": "uniform", "t_min": 1, "t_max": 1000}}, None,
                 "sampler.t_max", id="toy-staged-beyond-threshold"),
    pytest.param("mesh-edit", {"w1": INF}, None, "w1", id="mesh-w1-infinite"),
    pytest.param("mesh-edit", {"w1": "abc"}, None, "w1", id="mesh-w1-string"),
    pytest.param("mesh-edit", {"w1": True}, None, "w1", id="mesh-w1-bool"),
    pytest.param("mesh-edit", {"w1": [0.0, INF]}, None, "w1[1]", id="mesh-w1-list-infinite"),
    pytest.param("mesh-edit", {"allocator": "no"}, None, "allocator", id="mesh-allocator-string"),
    pytest.param("mesh-edit", {}, "abc", "SDSE_SEED", id="mesh-env-seed-string"),
    pytest.param("mesh-edit", {}, "-1", "SDSE_SEED", id="mesh-env-seed-negative"),
    pytest.param("mesh-edit", {"w1": 10**400}, None, "w1", id="mesh-w1-beyond-float"),
    pytest.param("mesh-edit", {"t_max": 1000}, None, "t_max", id="mesh-t-beyond-threshold"),
    pytest.param("mesh-edit", {"views_per_step": 1e20}, None, "views_per_step",
                 id="mesh-views-per-step-beyond-view-total"),
    pytest.param("mesh-edit", {"first_batch": 2**40 + 1}, None, "first_batch",
                 id="mesh-first-batch-beyond-view-total"),
    pytest.param("mesh-edit", {"views_per_step": MAX_VIEWS_PER_STEP + 1}, None,
                 "views_per_step", id="mesh-views-per-step-beyond-step-limit"),
    pytest.param("mesh-edit", {"first_batch": MAX_VIEWS_PER_STEP + 1}, None, "first_batch",
                 id="mesh-first-batch-beyond-step-limit"),
    *[pytest.param(command, {"thresholds": thresholds}, None, field,
                   id=f"{command.partition('-')[0]}-{name}")
      for command in ("toy", "mesh-edit")
      for name, thresholds, field in [
          ("thresholds-M-not-below-L", {"M": 800, "L": 150}, "thresholds.L"),
          ("thresholds-M-zero", {"M": 0, "L": 800}, "thresholds.M"),
          ("thresholds-L-one", {"M": 150, "L": 1}, "thresholds.L"),
          ("thresholds-M-string", {"M": "150", "L": 800}, "thresholds.M")]],
    pytest.param("toy", {"sampler": {"kind": "uniform", "t_min": 100, "t_max": 5}}, None,
                 "sampler.t_max", id="toy-sampler-t-min-above-t-max"),
    pytest.param("toy", {"sampler": {"kind": "uniform", "t_min": 0, "t_max": 5}}, None,
                 "sampler.t_min", id="toy-sampler-t-min-zero"),
    pytest.param("toy", {"sampler": {"kind": "non_increasing", "jitter": -1.0}}, None,
                 "sampler.jitter", id="toy-sampler-jitter-negative"),
    pytest.param("toy", {"sampler": {"kind": "non_increasing", "jitter": NAN}}, None,
                 "sampler.jitter", id="toy-sampler-jitter-nan"),
    pytest.param("toy", {"stpes": 3}, None, "stpes", id="toy-unknown-key"),
    pytest.param("toy", {"sampler": {"kind": "uniform", "tmax": 5}}, None, "sampler.tmax",
                 id="toy-sampler-unknown-key"),
    pytest.param("toy", {"thresholds": {"M": 150, "L": 800, "m": 100}}, None, "thresholds.m",
                 id="toy-thresholds-unknown-key"),
    pytest.param("toy", {"estimator": "m1"}, None, "estimator", id="toy-estimator-alias"),
    pytest.param("toy", {"seed": 3}, None, "seed", id="toy-seed-alias"),
    pytest.param("mesh-edit", {"step": 2}, None, "step", id="mesh-unknown-key"),
    pytest.param("mesh-edit", {"seed": 3}, None, "seed", id="mesh-seed-alias"),
    pytest.param("toy", {"estimators": ["m4", "m4"]}, None, "estimators[1]",
                 id="toy-estimator-repeat"),
    pytest.param("toy", {"seeds": [1, 0, 1]}, None, "seeds[2]", id="toy-seed-repeat"),
    pytest.param("mesh-edit", {"seeds": [2, 2]}, None, "seeds[1]", id="mesh-seed-repeat"),
    pytest.param("mesh-edit", {"w1": [300, 300]}, None, "w1[1]", id="mesh-w1-repeat"),
    pytest.param("mesh-edit", {"w1": [0.0, -0.0]}, None, "w1[1]", id="mesh-w1-signed-zero"),
    pytest.param("mesh-edit", {"w1": [300, 300.0000001]}, None, "w1[1]",
                 id="mesh-w1-same-tag"),
])
def test_bad_field_is_config_error_naming_it(tmp_path, capsys, monkeypatch, command,
                                            override, env, field):
    base = TOY_CONFIG if command == "toy" else MESH_CONFIG
    cfg = write_config(tmp_path, {**base, **override})
    if env is not None:
        monkeypatch.setenv("SDSE_SEED", env)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["toy", "mesh-edit"])
def test_negative_seed_flag_is_config_error_naming_it(tmp_path, capsys, command):
    assert main([command, "--seed", "-2", "--steps", "3", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: --seed: must be >= 0")
    assert not (tmp_path / "o").exists()


GOOD_COMPONENT = {"weight": 1.0, "mean": [1.5, 1.4], "covariance": 0.05, "label": "both"}
GOOD_MESH = {"vertices": 3, "edges": [[0, 1], [1, 2]], "regions": [0, 1, 2],
             "codes": [[0.5, 1.0], [0.5, 1.0], [0.5, 1.0]]}


@pytest.mark.parametrize("kind,override,field", [
    pytest.param("mixture", {"weight": 10**400}, "components[0].weight", id="weight-beyond-float"),
    pytest.param("mixture", {"mean": [10**400, 0]}, "components[0].mean[0]",
                 id="mean-beyond-float"),
    pytest.param("mixture", {"weight": "1.5"}, "components[0].weight", id="weight-string"),
    pytest.param("mixture", {"weight": True}, "components[0].weight", id="weight-bool"),
    pytest.param("mixture", {"mean": ["1", "2"]}, "components[0].mean[0]", id="mean-strings"),
    pytest.param("mixture", {"label": "neither"}, "components[0].label", id="label-unknown"),
    pytest.param("mixture", {"covariance": -1}, "components[0]", id="covariance-negative"),
    pytest.param("mixture", {"weight": 0}, "components", id="weights-all-zero"),
    pytest.param("second-component", {"mean": [1.5, 1.4, 0.0]}, "components[1].mean",
                 id="mean-of-another-dimension"),
    pytest.param("mesh", {"regions": [0, 10**400, 2]}, "regions[1]",
                 id="region-beyond-float"),
    pytest.param("mesh", {"codes": [[0.5, 1.0], [NAN, 1.0], [0.5, 1.0]]}, "codes[1][0]",
                 id="codes-nan"),
    pytest.param("mesh", {"codes": None, "init": {"mode": "gaussian",
                                                  "params": {"std": INF}}},
                 "init.params.std", id="init-std-infinite"),
    pytest.param("mesh", {"codes": None, "init": {"mode": "random"}}, "init.mode",
                 id="init-mode-unknown"),
    pytest.param("mixture", {"covarance": 0.05}, "components[0].covarance",
                 id="component-unknown-key"),
    pytest.param("mesh", {"region": [0, 0, 0]}, "region", id="mesh-unknown-key"),
    pytest.param("mesh", {"codes": None, "init": {"mode": "constant", "value": [0.5, 1.0]}},
                 "init.value", id="init-unknown-key"),
    pytest.param("mesh", {"codes": None, "init": {"mode": "gaussian", "params": {"sd": 0.5}}},
                 "init.params.sd", id="init-params-unknown-key"),
    pytest.param("mesh", {"init": {"mode": "gaussian", "params": {"std": 5}}}, "init",
                 id="codes-and-init"),
])
def test_bad_data_file_field_is_config_error_naming_it(tmp_path, capsys, kind, override,
                                                      field):
    if kind == "mesh":
        data = {key: value for key, value in {**GOOD_MESH, **override}.items()
                if value is not None}
        command, base, key = "mesh-edit", MESH_CONFIG, "mesh_path"
    else:  # the overridden component, after a good one for "second-component"
        data = {"components": [{**GOOD_COMPONENT, **override}]}
        if kind == "second-component":
            data["components"].insert(0, GOOD_COMPONENT)
        command, base, key = "toy", {**TOY_CONFIG, "estimators": ["m4"]}, "mixture_path"
    path = write_config(tmp_path, data, name="data.json")
    cfg = write_config(tmp_path, {**base, key: path})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"],
                         ids=["missing", "not-json", "not-object"])
@pytest.mark.parametrize("kind", ["config", "mixture", "mesh"])
def test_unreadable_input_file_is_config_error_naming_it(tmp_path, capsys, kind, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    if kind == "config":
        command, cfg = "toy", str(path)
    elif kind == "mixture":
        command, cfg = "toy", write_config(tmp_path, {**TOY_CONFIG, "mixture_path": str(path)})
    else:
        command, cfg = "mesh-edit", write_config(tmp_path, {**MESH_CONFIG, "mesh_path": str(path)})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_deeply_nested_mixture_is_config_error_naming_it(tmp_path, capsys):
    path = tmp_path / "mixture.json"
    path.write_text('{"components": ' + "[" * 100_000 + "]" * 100_000 + "}")
    cfg = write_config(tmp_path, {**TOY_CONFIG, "mixture_path": str(path)})
    assert main(["toy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {path}: not valid JSON (nested too deeply)\n"
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# mesh-edit
# ---------------------------------------------------------------------------

def test_mesh_edit_outputs(tmp_path):
    cfg = write_config(tmp_path, MESH_CONFIG)
    out = tmp_path / "mesh_out"
    assert main(["mesh-edit", "--config", cfg, "--out", str(out)]) == 0
    alloc_lines = (out / "allocation.csv").read_text().splitlines()
    assert alloc_lines[1] == "profile,metric,region_0,region_1,region_2,region_3,region_4"
    counts = [int(v) for v in alloc_lines[3].split(",")[2:]]
    assert sum(counts) == MESH_CONFIG["views_per_step"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["runs"][0]["steps_to_threshold"] is None or \
        summary["runs"][0]["steps_to_threshold"] >= 1


def test_mesh_edit_no_allocator_flag(tmp_path):
    cfg = write_config(tmp_path, MESH_CONFIG)
    out = tmp_path / "mesh_out"
    assert main(["mesh-edit", "--config", cfg, "--out", str(out),
                 "--no-allocator"]) == 0
    alloc_lines = (out / "allocation.csv").read_text().splitlines()
    counts = [int(v) for v in alloc_lines[3].split(",")[2:]]
    assert counts == [2, 2, 2, 2, 2]


def test_mesh_edit_paired_w1_comparison(tmp_path):
    cfg = write_config(tmp_path, MESH_CONFIG)
    out = tmp_path / "mesh_out"
    assert main(["mesh-edit", "--config", cfg, "--out", str(out),
                 "--w1", "0", "--w1", "300"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    comp = summary["dispersion_comparison"]
    assert set(comp["mean_dispersion"]) == {"0.0", "300.0"}
    assert (out / "mesh_head_dominant_w1_0.csv").exists()
    assert (out / "mesh_head_dominant_w1_300.csv").exists()


def test_mesh_edit_sampler_beyond_schedule_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {**MESH_CONFIG, "t_max": 1200})
    assert main(["mesh-edit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "t_max: must be <= 1000" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_mesh_edit_wrong_typed_mesh_field_is_named(tmp_path, capsys):
    mesh = write_config(tmp_path, {"vertices": 2, "edges": 5, "regions": [0, 0],
                                   "codes": [[0.0], [0.0]]}, name="mesh.json")
    cfg = write_config(tmp_path, {**MESH_CONFIG, "mesh_path": mesh})
    assert main(["mesh-edit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: edges: ")


def test_mesh_edit_mesh_and_mixture_dimensions_must_match(tmp_path, capsys):
    # 3-D codes against the 2-D toy mixture: refused before the first step
    mesh = write_config(tmp_path, {**GOOD_MESH, "codes": [[0.5, 1.0, 0.0]] * 3},
                        name="mesh.json")
    cfg = write_config(tmp_path, {**MESH_CONFIG, "mesh_path": mesh})
    assert main(["mesh-edit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == \
        "error: mesh codes are 3-D but the mixture is 2-D; they must match\n"
    assert not (tmp_path / "o").exists()


def test_mesh_edit_profile_missing_a_region_fails_before_writing(tmp_path, capsys):
    mesh = write_config(tmp_path, {**GOOD_MESH, "regions": [7, 7, 7]}, name="mesh.json")
    cfg = write_config(tmp_path, {**MESH_CONFIG, "mesh_path": mesh})
    assert main(["mesh-edit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "profile missing target conditions for regions [7]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_mesh_edit_on_a_subset_of_the_profile_regions(tmp_path):
    # body_dominant edits regions 2-4; this mesh holds regions 0-2 only
    mesh = write_config(tmp_path, GOOD_MESH, name="mesh.json")
    cfg = write_config(tmp_path, {**MESH_CONFIG, "mesh_path": mesh, "profile": "body_dominant"})
    out = tmp_path / "o"
    assert main(["mesh-edit", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["runs"][0]["dispersion"].keys() == \
        {"0", "1", "2"}


MESH_EXAMPLE = json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "mesh_example.json").read_text())


@pytest.mark.parametrize("override", [{"lr": 1e200, "steps": 20},
                                      {"lr": 1e6, "w1": 0, "steps": 20},
                                      {"lr": 1e308, "w1": 0, "steps": 20}],
                         ids=["smoothed", "unsmoothed", "unsmoothed-overflowing"])
def test_diverging_mesh_edit_names_the_seed_and_step(tmp_path, capsys, override):
    cfg = write_config(tmp_path, {**MESH_EXAMPLE, **override})
    assert main(["mesh-edit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed 0, step 1: mesh codes diverged")
    assert not (tmp_path / "o" / "summary.json").exists()


def test_overflowing_smoothing_system_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path, {**MESH_CONFIG, "lr": 1e300, "w1": 1e10})
    assert main(["mesh-edit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == \
        ("error: lr * w1 = inf is outside the smoothing solve's accuracy range: "
         "kappa_bound = inf, and eps * kappa_bound must be <= 1e-06\n")


def test_mesh_edit_refused_at_a_later_w1_writes_nothing(tmp_path, capsys):
    # w1 = 0 runs fine; w1 = 1e12 is outside the smoothing solve's accuracy range
    out = tmp_path / "o"
    cfg = Path(__file__).resolve().parent.parent / "configs" / "mesh_example.json"
    assert main(["mesh-edit", "--config", str(cfg), "--out", str(out), "--steps", "2",
                 "--w1", "0", "--w1", "1e12"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: lr * w1 = 2e+10 is outside the smoothing solve's accuracy range")
    assert not out.exists()


def test_mesh_edit_missing_fixture(tmp_path, capsys):
    cfg = write_config(tmp_path, {**MESH_CONFIG, "mesh_path": "nope.json"})
    assert main(["mesh-edit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# emit-plot
# ---------------------------------------------------------------------------

def test_emit_plot_from_trajectory(tmp_path):
    cfg = write_config(tmp_path, {**TOY_CONFIG, "estimators": ["m4"], "seeds": [0]})
    out = tmp_path / "out"
    assert main(["toy", "--config", cfg, "--out", str(out), "--no-svg"]) == 0
    svg_path = tmp_path / "plot.svg"
    assert main(["emit-plot", "--trajectory", str(out / "m4_seed0.csv"),
                 "--out", str(svg_path)]) == 0
    assert svg_path.read_text().startswith('<?xml')


def test_emit_plot_escapes_title_and_file_names(tmp_path):
    cfg = write_config(tmp_path, {**TOY_CONFIG, "estimators": ["m4"], "seeds": [0]})
    out = tmp_path / "out"
    assert main(["toy", "--config", cfg, "--out", str(out), "--no-svg"]) == 0
    csv_path = tmp_path / "a&b<1>.csv"
    csv_path.write_bytes((out / "m4_seed0.csv").read_bytes())
    svg_path = tmp_path / "plot.svg"
    assert main(["emit-plot", "--trajectory", str(csv_path), "--title", "x < y & z",
                 "--out", str(svg_path)]) == 0
    texts = minidom.parse(str(svg_path)).getElementsByTagName("text")
    assert [node.firstChild.data for node in texts[:2]] == ["x < y & z", "a&b<1>"]


def test_emit_plot_refuses_a_digest_an_xml_comment_cannot_hold(tmp_path, capsys):
    path = tmp_path / "run.csv"
    path.write_text("# digest=ab--cd\n"
                    "step,t,theta_0,theta_1,res_0,res_1,p,p_img,p_full\n"
                    "0,0,0.5,1.0,0.0,0.0,0.1,0.2,0.3\n")
    svg_path = tmp_path / "plot.svg"
    assert main(["emit-plot", "--trajectory", str(path), "--out", str(svg_path)]) == 1
    assert capsys.readouterr().err.startswith("error: digest: 'ab--cd' cannot go in an XML "
                                              "comment")
    assert not svg_path.exists()


@pytest.mark.parametrize("mean", [[1.5], [1.5, 1.4, 0.0]], ids=["1d", "3d"])
def test_toy_on_a_mixture_that_is_not_2d_is_config_error(tmp_path, capsys, mean):
    mix = write_config(tmp_path, {"components": [{**GOOD_COMPONENT, "mean": mean}]},
                       name="mix.json")
    cfg = write_config(tmp_path, {**TOY_CONFIG, "mixture_path": mix})
    assert main(["toy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (f"config error: mixture_path: the toy run needs a "
                                       f"2-D mixture, got a {len(mean)}-D one\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, config", [("toy", TOY_CONFIG), ("mesh-edit", MESH_CONFIG)])
@pytest.mark.parametrize("components", [
    [{**GOOD_COMPONENT, "label": "text_only"}, {**GOOD_COMPONENT, "label": "unconditional"}],
    [{**GOOD_COMPONENT, "weight": 0.0}, {**GOOD_COMPONENT, "label": "image_only"}],
], ids=["no-joint-label", "joint-weight-zero"])
def test_mixture_the_joint_condition_does_not_reach_is_config_error(tmp_path, capsys,
                                                                    command, config,
                                                                    components):
    """Both edits descend toward the joint condition's modes: refused before any run."""
    mix = write_config(tmp_path, {"components": components}, name="mix.json")
    cfg = write_config(tmp_path, {**config, "mixture_path": mix})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("config error: mixture_path: the joint condition "
                                       "(y,I) reaches no component of positive weight "
                                       "(label 'both')\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("theta0", [[1e200, 0.0], [2000.0, 0.0]], ids=["overflowing", "past"])
def test_toy_start_point_beyond_the_guard_is_config_error(tmp_path, capsys, theta0):
    cfg = write_config(tmp_path, {**TOY_CONFIG, "theta0": theta0})
    assert main(["toy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("config error: theta0: lies beyond the divergence "
                                       "guard: its norm must be <= 1000\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mesh_override, largest", [
    ({"codes": None, "init": {"mode": "constant", "params": {"value": [1e200, 0.0]}}}, "1e+200"),
    ({"codes": [[0.5, 1.0], [2000.0, 0.0], [0.5, 1.0]]}, "2000"),
], ids=["init-value-overflowing", "codes-past"])
def test_mesh_edit_start_codes_beyond_the_guard_are_refused(tmp_path, capsys, mesh_override,
                                                             largest):
    mesh = {**GOOD_MESH, **mesh_override}
    mesh = write_config(tmp_path, {k: v for k, v in mesh.items() if v is not None},
                        name="mesh.json")
    cfg = write_config(tmp_path, {**MESH_CONFIG, "mesh_path": mesh})
    assert main(["mesh-edit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (f"error: mesh start codes lie beyond the divergence "
                                       f"guard: largest |code| is {largest}, beyond the "
                                       f"guard 1000\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mean", [[1.5], [1.5, 1.4, 0.0]], ids=["1d", "3d"])
def test_emit_plot_on_a_mixture_that_is_not_2d_is_refused(tmp_path, capsys, mean):
    mix = write_config(tmp_path, {"components": [{**GOOD_COMPONENT, "mean": mean}]},
                       name="mix.json")
    path = tmp_path / "run.csv"
    path.write_text("step,t,theta_0,theta_1,res_0,res_1,p,p_img,p_full\n"
                    "0,0,0.5,1.0,0.0,0.0,0.1,0.2,0.3\n")
    svg_path = tmp_path / "plot.svg"
    assert main(["emit-plot", "--trajectory", str(path), "--mixture", mix,
                 "--out", str(svg_path)]) == 1
    assert capsys.readouterr().err == (f"error: the plot draws a 2-D mixture, got a "
                                       f"{len(mean)}-D one\n")
    assert not svg_path.exists()


@pytest.mark.parametrize("row,message", [
    ("1,5,0.5", "expected 9 columns, got 3"),
    ("1,5,abc,1.0,0.0,0.0,0.1,0.2,0.3", "could not convert string to float: 'abc'"),
], ids=["three-columns", "not-a-number"])
def test_emit_plot_on_a_malformed_trajectory_names_the_line(tmp_path, capsys, row, message):
    path = tmp_path / "run.csv"
    path.write_text("step,t,theta_0,theta_1,res_0,res_1,p,p_img,p_full\n"
                    "0,0,0.5,1.0,0.0,0.0,0.1,0.2,0.3\n" + row + "\n")
    svg_path = tmp_path / "plot.svg"
    assert main(["emit-plot", "--trajectory", str(path), "--out", str(svg_path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:3: {message}\n"
    assert not svg_path.exists()
