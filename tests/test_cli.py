"""Config parsing, command dispatch, report formats, and exit codes."""

import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest

from invpos.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_NUMERIC,
    EXIT_PASS,
    ConfigError,
    main,
    parse_config,
    run,
)


def _cfg(**over):
    base = {
        "command": "energy",
        "kernel": {"dim": 1, "lambda": 0.5},
        "grid": {"min": -8, "max": 8, "points": 64},
    }
    base.update(over)
    return json.dumps(base)


def test_parse_minimal_energy_config():
    cfg = parse_config(_cfg())
    assert cfg.command == "energy"
    assert cfg.dim == 1
    assert cfg.lam == 0.5
    assert cfg.points == [64]


def test_parse_rejects_unknown_keys_with_path():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(_cfg(bogus=1))
    with pytest.raises(ConfigError, match="kernel.extra"):
        parse_config(_cfg(kernel={"dim": 1, "lambda": 0.5, "extra": 1}))


def test_parse_rejects_lambda_out_of_range():
    with pytest.raises(ConfigError, match=r"lambda must lie in \(0, N\)"):
        parse_config(_cfg(kernel={"dim": 3, "lambda": 3.5}))


def test_parse_rejects_bad_point_counts():
    with pytest.raises(ConfigError, match="points"):
        parse_config(_cfg(grid={"min": -8, "max": 8, "points": 4}))
    with pytest.raises(ConfigError, match="points"):
        parse_config(_cfg(grid={"min": -8, "max": 8, "points": 8192}))


def test_parse_reports_json_location():
    with pytest.raises(ConfigError, match="line"):
        parse_config('{"command": "energy",}')


def test_parse_rejects_unknown_command():
    with pytest.raises(ConfigError, match="command"):
        parse_config(_cfg(command="frobnicate"))


def test_energy_run_writes_reports(tmp_path):
    cfg = parse_config(
        _cfg(
            grid={"min": -40, "max": 40, "points": 2048},
            function={"family": "extremizer"},
        )
    )
    code = run(cfg, str(tmp_path))
    assert code == EXIT_PASS
    report = (tmp_path / "report.csv").read_text().splitlines()
    summary = (tmp_path / "summary.txt").read_text()
    assert len(report) == 2
    header = report[0].split(",")
    values = report[1].split(",")
    assert len(header) == len(values)
    # Every numeric in summary.txt appears in report.csv.
    numbers = {v for v in values}
    for line in summary.splitlines():
        if " = " in line:
            rhs = line.split(" = ")[-1]
            if rhs not in ("direct", "radial"):
                assert rhs in numbers, line



def test_run_replaces_old_reports_instead_of_truncating_them(tmp_path):
    # A link to the old report keeps its text: the run wrote a new file.
    cfg = parse_config(json.dumps({"command": "sharp-constant", "kernel": {"dim": 3, "lambda": 1.0}}))
    assert run(cfg, str(tmp_path / "fresh")) == EXIT_PASS
    old = "stale,report,with,more,columns\n" * 40
    for name in ("report.csv", "summary.txt"):
        (tmp_path / name).write_text(old)
        os.link(tmp_path / name, tmp_path / f"old-{name}")
    assert run(cfg, str(tmp_path)) == EXIT_PASS
    for name in ("report.csv", "summary.txt"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
        assert (tmp_path / f"old-{name}").read_text() == old

def test_sharp_constant_command(tmp_path):
    cfg = parse_config(json.dumps({"command": "sharp-constant", "kernel": {"dim": 3, "lambda": 1.0}}))
    assert run(cfg, str(tmp_path)) == EXIT_PASS
    header, values = (tmp_path / "report.csv").read_text().splitlines()
    row = dict(zip(header.split(","), values.split(",")))
    assert abs(float(row["value"]) - 2.2940) < 2e-4


def test_positivity_suppresses_verdict_when_invalid(tmp_path):
    cfg = parse_config(
        json.dumps(
            {
                "command": "positivity",
                "kernel": {"dim": 3, "lambda": 0.5},
                "grid": {"min": -4, "max": 4, "points": 32},
                "function": {"family": "gaussian", "center": [0.0, 0.0, 1.0]},
                "region": {"halfspace": {"normal": [0.0, 0.0, 1.0], "offset": 0.0}},
            }
        )
    )
    code = run(cfg, str(tmp_path))
    assert code == EXIT_PASS  # no verdicts registered, nothing to fail
    header = (tmp_path / "report.csv").read_text().splitlines()[0].split(",")
    assert "positivity_valid" in header
    assert not any(h.startswith("defect_nonnegative") for h in header)


def test_hemiball_command_with_expected_value(tmp_path):
    cfg = parse_config(
        json.dumps(
            {
                "command": "hemiball",
                "kernel": {"dim": 1, "lambda": 0.5},
                "grid": {"min": -20, "max": 20, "points": 2048},
                "function": {"family": "extremizer"},
                "tolerances": {"expected": 1.0, "abs_tol": 1e-4},
            }
        )
    )
    assert run(cfg, str(tmp_path)) == EXIT_PASS


def test_hemiball_command_spreads_a_numeric_centre_over_every_axis(tmp_path):
    doc = {
        "command": "hemiball",
        "kernel": {"dim": 2, "lambda": 1.0},
        "grid": {"min": -4, "max": 4, "points": 48},
        "function": {"family": "gaussian"},
        "region": {"ball": {"center": 0.5}},
    }
    assert run(parse_config(json.dumps(doc)), str(tmp_path / "scalar")) == EXIT_PASS
    doc["region"]["ball"]["center"] = [0.5, 0.5]
    assert run(parse_config(json.dumps(doc)), str(tmp_path / "list")) == EXIT_PASS
    scalar = (tmp_path / "scalar" / "report.csv").read_text()
    assert scalar == (tmp_path / "list" / "report.csv").read_text()


_GAUSS_2D = {"family": "gaussian", "center": [0.5, -0.25]}


@pytest.mark.parametrize(
    "command, function, region, path, c",
    [
        ("energy", _GAUSS_2D, None, ("grid", "min"), -4.0),
        ("energy", _GAUSS_2D, None, ("grid", "max"), 4.0),
        ("energy", _GAUSS_2D, None, ("grid", "points"), 16),
        ("energy", {"family": "extremizer", "center": 0.5}, None, ("function", "center"), 0.5),
        ("energy", {"family": "gaussian", "center": 0.5}, None, ("function", "center"), 0.5),
        ("energy", {"family": "indicator", "lo": -1.5}, None, ("function", "lo"), -1.5),
        ("energy", {"family": "indicator", "hi": 2.0}, None, ("function", "hi"), 2.0),
        ("positivity", _GAUSS_2D, {"ball": {"center": 0.5, "radius": 1.5}}, ("region", "ball", "center"), 0.5),
        ("hemiball", _GAUSS_2D, {"ball": {"center": 0.5}}, ("region", "ball", "center"), 0.5),
        ("positivity", _GAUSS_2D, {"halfspace": {"normal": 1, "offset": 0.25}}, ("region", "halfspace", "normal"), 1),
    ],
    ids=["grid.min", "grid.max", "grid.points", "extremizer-center", "gaussian-center", "function.lo", "function.hi",
         "positivity-ball-center", "hemiball-ball-center", "halfspace-normal"],
)
def test_scalar_per_axis_value_runs_as_its_list(tmp_path, command, function, region, path, c):
    doc = {"command": command, "kernel": {"dim": 2, "lambda": 1.0}, "grid": {"min": -4, "max": 4, "points": 16},
           "function": function}
    if region is not None:
        doc["region"] = region
    doc = json.loads(json.dumps(doc))
    outcomes = []
    for form, value in (("scalar", c), ("list", [c, c])):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        code = run(parse_config(json.dumps(doc)), str(tmp_path / form))
        outcomes.append((code, (tmp_path / form / "report.csv").read_bytes()))
    assert outcomes[0][0] in (EXIT_PASS, EXIT_FAIL)
    assert outcomes[0] == outcomes[1]


def test_failing_verdict_yields_exit_one(tmp_path):
    cfg = parse_config(
        json.dumps(
            {
                "command": "hemiball",
                "kernel": {"dim": 1, "lambda": 0.5},
                "grid": {"min": -20, "max": 20, "points": 2048},
                "function": {"family": "extremizer"},
                "tolerances": {"expected": 2.0, "abs_tol": 1e-4},
            }
        )
    )
    assert run(cfg, str(tmp_path)) == EXIT_FAIL


def test_numerical_failure_yields_exit_three(tmp_path):
    # The witness search at the positivity boundary lambda = N - 2 finds
    # nothing, which the CLI maps to the numerical-failure exit code.
    cfg = parse_config(
        json.dumps({"command": "counterexample", "kernel": {"dim": 3, "lambda": 0.9999}})
    )
    assert run(cfg, str(tmp_path)) == EXIT_NUMERIC
    assert "NUMERICAL FAILURE" in (tmp_path / "summary.txt").read_text()


def _report_row(out_dir) -> dict:
    header, values = (out_dir / "report.csv").read_text().splitlines()
    return dict(zip(header.split(","), values.split(",")))


def test_counterexample_reports_the_grid_it_used(tmp_path):
    # The Newton example runs on its own 40^3 grid whatever the config says.
    cfg = parse_config(
        json.dumps(
            {
                "command": "counterexample",
                "kernel": {"dim": 3, "lambda": 1.0},
                "grid": {"min": -2, "max": 2, "points": 16},
            }
        )
    )
    assert run(cfg, str(tmp_path)) == EXIT_PASS
    row = _report_row(tmp_path)
    assert row["points_per_axis"] == "40"
    assert row["grid_shape"] == "40x40x40"
    assert float(row["grid_spacing"]) == 2.5 / 40
    assert row["est_kind"] == "richardson"
    assert "grid_shape = 40x40x40" in (tmp_path / "summary.txt").read_text()


def test_failed_witness_search_names_its_grid(tmp_path):
    cfg = parse_config(json.dumps({"command": "counterexample", "kernel": {"dim": 3, "lambda": 0.9999}}))
    assert run(cfg, str(tmp_path)) == EXIT_NUMERIC
    assert "on the 128x128x16 grid" in (tmp_path / "summary.txt").read_text()


def test_counterexample_below_n_minus_two_writes_both_witnesses(tmp_path):
    from invpos.fields import read_field_csv

    cfg = parse_config(json.dumps({"command": "counterexample", "kernel": {"dim": 3, "lambda": 0.5}}))
    assert run(cfg, str(tmp_path)) == EXIT_PASS
    row = _report_row(tmp_path)
    assert row["grid_shape"] == "128x128x16"
    for name in ("negative_witness.csv", "positive_witness.csv"):
        witness = read_field_csv(tmp_path / name)
        assert witness.grid.shape_text == "128x128x16"
        assert witness.grid.spacing == float(row["grid_spacing"])
    est = float(row["est_error"])
    assert float(row["negative_defect"]) < -3.0 * est
    assert float(row["positive_defect"]) > 3.0 * est


def test_positivity_reports_estimate_parts_and_kind(tmp_path):
    cfg = parse_config(
        json.dumps(
            {
                "command": "positivity",
                "kernel": {"dim": 1, "lambda": 0.5},
                "grid": {"min": -16, "max": 16, "points": 256},
                "function": {"family": "gaussian", "center": [1.5], "width": 0.8},
                "region": {"halfspace": {"normal": [1.0], "offset": 0.0}},
            }
        )
    )
    assert run(cfg, str(tmp_path)) == EXIT_PASS
    row = _report_row(tmp_path)
    assert row["est_kind"] == "richardson"
    assert float(row["est_error"]) == float(row["est_defect"]) + float(row["est_via_g"])


def test_represent_on_a_grid_without_an_edge_at_zero(tmp_path):
    # h = 17/512: the cell that holds x = 0 straddles it and is non-zero.
    doc = {
        "command": "represent",
        "kernel": {"dim": 1, "lambda": 0.5},
        "grid": {"min": -1, "max": 16, "points": 512},
        "function": {"family": "indicator", "lo": 0, "hi": 2},
    }
    assert run(parse_config(json.dumps(doc)), str(tmp_path)) == EXIT_PASS
    row = _report_row(tmp_path)
    assert abs(float(row["representation"]) - float(row["direct"])) <= 0.005 * float(row["representation"])


def test_cli_process_exit_code_for_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(_cfg(kernel={"dim": 3, "lambda": 3.5}))
    proc = subprocess.run(
        [sys.executable, "-m", "invpos.cli", "--config", str(bad), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_CONFIG
    assert "lambda must lie in (0, N)" in proc.stderr


def test_cli_missing_config_file(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "invpos.cli", "--config", str(tmp_path / "nope.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_CONFIG


def test_main_rejects_zero_threads(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "cfg.json"), "--threads", "0"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "--threads must be at least 1\n"


def test_main_without_config_exits_two_and_help_exits_zero(capsys):
    assert main([]) == EXIT_CONFIG
    assert "--config" in capsys.readouterr().err
    assert main(["--help"]) == EXIT_PASS
    assert "--threads" in capsys.readouterr().out


def test_main_verbose_prints_the_summary(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "sharp-constant", "kernel": {"dim": 3, "lambda": 1.0}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--verbose"]) == EXIT_PASS
    assert capsys.readouterr().out == (tmp_path / "out" / "summary.txt").read_text()


def test_importing_the_cli_loads_no_numpy():
    # --threads pins the BLAS/OpenMP pools through the environment, which
    # works only if numpy is first imported after main has set it.
    code = "import sys, invpos.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_reports_are_deterministic(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "command": "transform",
                "kernel": {"dim": 1, "lambda": 0.5},
                "grid": {"min": -16, "max": 16, "points": 1024},
                "function": {"family": "gaussian", "center": [3.0], "width": 0.8},
                "region": {"ball": {"center": [-6.0], "radius": 1.5}},
                "seed": 7,
            }
        )
    )
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "invpos.cli", "--config", str(cfg_path), "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == EXIT_PASS
        outs.append((out / "report.csv").read_bytes())
    assert outs[0] == outs[1]


def test_file_backed_function_round_trip(tmp_path):
    from invpos.fields import ExtremizerSpec, Field, box_grid, write_field_csv

    g = box_grid([-20.0], [20.0], 2048)
    x = g.axis_centers(0)
    tail = ExtremizerSpec(alpha=1.0, beta=1.0, center=np.array([0.0]), power=1.0)
    write_field_csv(Field(g, (1.0 + x**2) ** (-1.0), tail=tail), tmp_path / "density.csv")
    cfg = parse_config(
        json.dumps(
            {
                "command": "lizhu-check",
                "kernel": {"dim": 1, "lambda": 0.5},
                "grid": {"min": -20, "max": 20, "points": 2048},
                "function": {"file": str(tmp_path / "density.csv")},
            }
        )
    )
    assert run(cfg, str(tmp_path)) == EXIT_PASS


_SMALL = {"command": "energy", "kernel": {"dim": 1, "lambda": 0.5}, "grid": {"min": -8, "max": 8, "points": 16}}
_SMALL_2D = dict(_SMALL, command="positivity", kernel={"dim": 2, "lambda": 1.0})


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param(dict(_SMALL, command="positivity"), id="positivity-without-region"),
        pytest.param(dict(_SMALL_2D, grid={"min": -8, "max": [8, 4], "points": 16}), id="unequal-spacing"),
        pytest.param(dict(_SMALL, grid={"min": -8, "max": 8, "points": 16.7}), id="fractional-points"),
        pytest.param(dict(_SMALL_2D, command="energy", grid={"min": -8, "max": 8, "points": [16, 16.5]}), id="fractional-points-list"),
        pytest.param(dict(_SMALL, grid={"min": -8, "max": 8, "points": 10**400}), id="huge-points"),
        pytest.param(dict(_SMALL, grid={"min": 10**400, "max": 8, "points": 16}), id="huge-grid-min"),
        pytest.param(dict(_SMALL, kernel={"dim": 1, "lambda": 10**400}), id="huge-lambda"),
        pytest.param(dict(_SMALL, function={"file": "no-such-field.csv"}), id="missing-function-file"),
        pytest.param(dict(_SMALL_2D, region={"halfspace": {"normal": [0, 0]}}), id="zero-normal"),
        pytest.param(dict(_SMALL_2D, region={"ball": 5}), id="ball-not-an-object"),
        pytest.param(dict(_SMALL, function={"family": "extremizer", "center": [20.0]}), id="center-outside-grid"),
        pytest.param(dict(_SMALL, kernel={"dim": True, "lambda": 0.5}), id="bool-dim"),
        pytest.param(dict(_SMALL, kernel={"dim": 2, "lambda": True}), id="bool-lambda"),
        pytest.param(dict(_SMALL, grid={"min": -8, "max": True, "points": 16}), id="bool-grid-max"),
        pytest.param(dict(_SMALL_2D, grid={"min": [True, -8], "max": 8, "points": 16}), id="bool-grid-min"),
        pytest.param(dict(_SMALL, tolerances={"rel_tol": True}), id="bool-tolerance"),
        pytest.param(dict(_SMALL, seed=True), id="bool-seed"),
        pytest.param(dict(_SMALL, function={"family": "gaussian", "width": 0}), id="zero-width"),
        pytest.param(dict(_SMALL, function={"family": "indicator", "lo": 20, "hi": 30}), id="zero-field"),
        pytest.param(dict(_SMALL, command="represent", function={"family": "gaussian"}), id="represent-below-plane"),
        pytest.param(dict(_SMALL, command="lizhu-check", function={"family": "extremizer", "alpha": -1}), id="negative-density"),
        pytest.param(dict(_SMALL, command="symmetrize", function={"family": "gaussian", "amplitude": -1}), id="symmetrize-negative-function"),
        pytest.param(dict(_SMALL, command="transform", region={"ball": {"radius": 1e14}}), id="transform-every-cell-at-the-center"),
        pytest.param(dict(_SMALL, command="positivity", region={"ball": {"radius": 1e14}}), id="positivity-every-cell-at-the-center"),
        pytest.param(dict(_SMALL, command="transform", region={"ball": {"radius": 1e300}}), id="transform-radius-squared-overflows"),
        pytest.param(dict(_SMALL, command="positivity", region={"ball": {"radius": 1e300}}), id="positivity-radius-squared-overflows"),
    ],
)
def test_config_faults_exit_two_without_traceback(tmp_path, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "invpos.cli", "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error:") and proc.stderr.count("\n") == 1, proc.stderr


def test_symmetrize_of_one_edge_cell_runs_without_traceback(tmp_path):
    # The hemi-ball centered on the one non-zero cell leaves the splice f^o
    # identically 0; the step skips it.
    doc = dict(_SMALL, command="symmetrize", function={"family": "indicator", "lo": 7.5, "hi": 8})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "invpos.cli", "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_PASS, proc.stderr
    assert proc.stderr == ""
    assert (tmp_path / "out" / "final_field.csv").exists()


def test_unequal_grid_spacing_exits_two_with_its_message(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    doc = dict(_SMALL_2D, command="energy", grid={"min": [-8, -4], "max": [8, 4], "points": [64, 64]})
    cfg.write_text(json.dumps(doc))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: grid must have equal spacing on every axis\n"


@pytest.mark.parametrize(
    "command, region, message",
    [
        ("energy", {"ball": {"radius": 1.0}}, "command energy takes no region, got region.ball"),
        ("represent", {"halfspace": {}}, "command represent takes no region, got region.halfspace"),
        ("symmetrize", {"ball": {"radius": 1.0}}, "command symmetrize takes no region, got region.ball"),
        ("lizhu-check", {"halfspace": {"offset": 1.0}}, "command lizhu-check takes no region, got region.halfspace"),
        ("sharp-constant", {"ball": {"radius": 1.0}}, "command sharp-constant takes no region, got region.ball"),
        ("counterexample", {"halfspace": {}}, "command counterexample takes no region, got region.halfspace"),
        ("hemiball", {"halfspace": {"offset": 1.0}}, "command hemiball takes only region.ball, got region.halfspace"),
    ],
)
def test_a_region_the_command_does_not_read_exits_two(tmp_path, capsys, command, region, message):
    # Each config is valid but for its region, so only the region is refused.
    cfg = tmp_path / "cfg.json"
    doc = dict(_SMALL, command=command, region=region)
    assert parse_config(json.dumps(dict(_SMALL, command=command))).region is None
    cfg.write_text(json.dumps(doc))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_hemiball_takes_a_ball_region(tmp_path):
    doc = dict(_SMALL, command="hemiball", grid={"min": -8, "max": 8, "points": 64}, region={"ball": {"center": 0.5}})
    assert run(parse_config(json.dumps(doc)), str(tmp_path)) == EXIT_PASS
    shifted = float(_report_row(tmp_path)["radius"])
    assert run(parse_config(json.dumps(dict(doc, region=None))), str(tmp_path)) == EXIT_PASS
    assert shifted != float(_report_row(tmp_path)["radius"])


def test_a_radius_given_to_hemiball_exits_two(tmp_path, capsys):
    # hemiball computes the radius, so a given one would be silently ignored.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(_SMALL, command="hemiball", region={"ball": {"center": 0.5, "radius": 1.0}})))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: command hemiball takes a region.ball without a radius, got region.ball.radius\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["transform", "positivity"])
def test_a_ball_without_a_radius_exits_two_where_the_command_reads_it(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(_SMALL, command=command, region={"ball": {"center": 0.5}})))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: region.ball.radius must be a positive number\n"


def test_overflowing_grid_width_exits_two_with_its_message(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(_SMALL, grid={"min": -1e308, "max": 1e308, "points": 16})))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: grid.max - grid.min must be a finite number on every axis\n"


@pytest.mark.parametrize("points", [100.7, [64, 8.9]], ids=["scalar", "list"])
def test_fractional_grid_points_exit_two_with_their_message(tmp_path, capsys, points):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(_SMALL_2D, command="energy", grid={"min": -8, "max": 8, "points": points})))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    bad = points if isinstance(points, float) else points[1]
    assert capsys.readouterr().err == f"config error: grid.points must be whole numbers, got {bad}\n"


@pytest.mark.parametrize(
    "command, density",
    [("hemiball", "|f|^p: a 1-D tail (beta + y^2)^(-0.266667)"), ("lizhu-check", "a 1-D tail (beta + y^2)^(-0.2)"), ("symmetrize", "|f|^p: a 1-D tail (beta + y^2)^(-0.266667)")],
)
def test_tail_of_infinite_mass_exits_two_with_its_message(tmp_path, capsys, command, density):
    # (1 + x^2)^(-0.2) has infinite mass on the line; at lambda = 0.5 the
    # |f|^p of hemiball and symmetrize has power 0.2 p = 0.267.
    from invpos.fields import ExtremizerSpec, Field, box_grid, write_field_csv

    g = box_grid([-8.0], [8.0], 16)
    x = g.axis_centers(0)
    tail = ExtremizerSpec(alpha=1.0, beta=1.0, center=np.array([0.0]), power=0.2)
    write_field_csv(Field(g, (1.0 + x**2) ** (-0.2), tail=tail), tmp_path / "f.csv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(_SMALL, command=command, function={"file": str(tmp_path / "f.csv")})))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: function: {density} of power <= 1/2 has infinite mass\n"


def test_unread_tolerance_name_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(_SMALL, tolerances={"rel_tl": 1e-9})))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: unknown key tolerances.rel_tl\n"


def test_huge_halfspace_normal_is_normalized(tmp_path):
    doc = dict(_SMALL_2D, region={"halfspace": {"normal": [-1e300, -1e300], "offset": 0.5}})
    assert run(parse_config(json.dumps(doc)), str(tmp_path)) == EXIT_PASS


# --- fuzzing: mutated small configs exit with a documented code, never raise ---

_FUZZ_BASES = (
    {"command": "energy", "kernel": {"dim": 1, "lambda": 0.5}, "grid": {"min": -8, "max": 8, "points": 32},
     "function": {"family": "gaussian", "center": [0.5], "width": 1.0}},
    {"command": "transform", "kernel": {"dim": 1, "lambda": 0.5}, "grid": {"min": -8, "max": 8, "points": 32},
     "function": {"family": "gaussian", "center": [2.0], "width": 0.8}, "region": {"ball": {"center": [-3.0], "radius": 1.5}}},
    {"command": "positivity", "kernel": {"dim": 2, "lambda": 1.0}, "grid": {"min": -4, "max": 4, "points": 8},
     "function": {"family": "indicator", "lo": [-1, 0], "hi": [1, 2]}, "region": {"halfspace": {"normal": [0, 1], "offset": 0.5}}},
    {"command": "represent", "kernel": {"dim": 1, "lambda": 0.5}, "grid": {"min": 0, "max": 8, "points": 32},
     "function": {"family": "gaussian", "center": [3.0], "width": 0.7}},
    {"command": "hemiball", "kernel": {"dim": 1, "lambda": 0.5}, "grid": {"min": -8, "max": 8, "points": 64},
     "function": {"family": "extremizer"}, "tolerances": {"expected": 1.0, "abs_tol": 1e-2}},
    {"command": "lizhu-check", "kernel": {"dim": 1, "lambda": 0.5}, "grid": {"min": -8, "max": 8, "points": 64},
     "function": {"family": "extremizer", "alpha": 2.0}},
    {"command": "sharp-constant", "kernel": {"dim": 3, "lambda": 1.0}},
)
# "counterexample" searches fixed 40^3 and 128^2 x 16 grids whatever the
# config says, and "symmetrize" runs up to 50 sweeps: both are too slow to
# fuzz, so neither is a base nor a mutation target.
_FUZZ_COMMANDS = ("energy", "transform", "positivity", "represent", "hemiball", "lizhu-check", "sharp-constant")
_FUZZ_KEYS = ("command", "kernel", "grid", "function", "region", "tolerances", "seed", "dim", "lambda", "min",
              "max", "points", "family", "center", "width", "alpha", "beta", "amplitude", "lo", "hi", "ball",
              "halfspace", "radius", "normal", "offset", "file", "bogus")


def _fuzz_values():
    from hypothesis import strategies as st

    numbers = st.sampled_from([-1e300, -3, -1, -0.5, 0, 1e-300, 0.5, 1, 1.5, 2, 2.5, 3, 8, 16, 64, 1e9, 1e300])
    leaves = (
        numbers
        | st.sampled_from([True, False, None, "", "x", "1.0", "no-such-file.csv", float("nan"), float("inf")])
        | st.sampled_from(_FUZZ_COMMANDS + ("frobnicate",))
    )
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(_FUZZ_KEYS), inner, max_size=2), max_leaves=4)


def _paths(node, prefix=()):
    """Every key or index path below ``node``, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(doc: dict, data) -> None:
    """One edit of the nested config: a value replaced, a key dropped or a key added."""
    from hypothesis import strategies as st

    paths = list(_paths(doc))
    if not paths:
        doc[data.draw(st.sampled_from(_FUZZ_KEYS))] = data.draw(_fuzz_values())
        return
    path = data.draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    action = data.draw(st.sampled_from(("replace", "drop", "add")))
    if action == "drop" and isinstance(parent, dict):
        del parent[path[-1]]
    elif action == "add":
        target = parent[path[-1]] if isinstance(parent[path[-1]], dict) else doc
        target[data.draw(st.sampled_from(_FUZZ_KEYS))] = data.draw(_fuzz_values())
    else:
        parent[path[-1]] = data.draw(_fuzz_values())


def _cells(doc) -> int:
    """Grid cells of a config that parses, else 0."""
    try:
        cfg = parse_config(json.dumps(doc))
    except ConfigError:
        return 0
    return int(np.prod(cfg.points)) if cfg.command != "sharp-constant" else 0


def test_cli_fuzzed_configs_exit_with_a_documented_code():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(st.sampled_from(range(len(_FUZZ_BASES))), st.integers(1, 3), st.data())
    def check(base, edits, data):
        doc = json.loads(json.dumps(_FUZZ_BASES[base]))
        for _ in range(edits):
            _mutate(doc, data)
        # At most 64 points per axis come from the value pool, but a mutated
        # dim can still make a valid grid large; keep to 64^2 cells.
        hypothesis.assume(_cells(doc) <= 64 ** 2)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                fh.write(json.dumps(doc))
            code = main(["--config", path, "--out", os.path.join(tmp, "out")])
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_CONFIG, EXIT_NUMERIC), (doc, code)

    check()
