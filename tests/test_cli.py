import json
from pathlib import Path

import pytest

from sdse_lab.cli import main

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
    assert "[FAIL] mixture_file" in out and "'components[0]': expected an object" in out
    cfg = write_config(tmp_path, {**TOY_CONFIG, "mixture_path": bad})
    assert main(["toy", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: field 'components[0]': ")


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


def test_toy_default_config_runs_seven_estimators(tmp_path):
    out = tmp_path / "out"
    assert main(["toy", "--out", str(out), "--steps", "4", "--no-svg"]) == 0
    csvs = list(out.glob("*.csv"))
    assert len(csvs) == 7 * 20
    summary = json.loads((out / "summary.json").read_text())
    estimators = {r["estimator"] for r in summary["runs"]}
    assert estimators == {"sds", "ssd", "m1", "m3", "m4", "sdse", "sdse_prime"}


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
    assert capsys.readouterr().err.startswith(
        "config error: sampler.t_max: must be <= thresholds.L (800) for sdse, sdse_prime")
    assert not (out / "summary.json").exists() and not list(out.glob("*.csv"))


@pytest.mark.parametrize("argv", [["toy", "--phase", "small"], ["mesh-edit", "--steps", "3"]])
def test_non_object_config_is_config_error(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, [1, 2])
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err


INF = float("inf")  # json.dumps writes it as Infinity, which json.loads accepts


@pytest.mark.parametrize("command,override,env,field", [
    pytest.param("toy", {"noising": "false"}, None, "noising", id="toy-noising-string"),
    pytest.param("toy", {"seeds": [1.5]}, None, "seeds[0]", id="toy-seed-fraction"),
    pytest.param("toy", {"seeds": [0, "a"]}, None, "seeds[1]", id="toy-seed-string"),
    pytest.param("toy", {"seeds": [-1]}, None, "seeds[0]", id="toy-seed-negative"),
    pytest.param("toy", {"theta0": ["x", 1]}, None, "theta0[0]", id="toy-theta0-string"),
    pytest.param("toy", {"theta0": [INF, 1]}, None, "theta0[0]", id="toy-theta0-infinite"),
    pytest.param("toy", {}, "abc", "SDSE_SEED", id="toy-env-seed-string"),
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
    pytest.param("mesh-edit", {"w1": 10**400}, None, "w1", id="mesh-w1-beyond-float"),
    pytest.param("mesh-edit", {"t_max": 1000}, None, "t_max", id="mesh-t-beyond-threshold"),
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
    assert main(["mesh-edit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: field 'edges': ")


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
