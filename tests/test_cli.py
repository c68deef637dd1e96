"""Command-line interface: outputs, exit codes, config files, determinism."""

import contextlib
import io
import json
import math
import re
import shlex
import subprocess
import sys
import tempfile
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from heatlab.cli import _parsers, main
from heatlab.content import bound_check_part_ii, heat_content
from heatlab.geometry import Ball, Box, radial_profile
from heatlab.kernel import KernelSpec, poisson_constant, unit_sphere_area
from heatlab.reporting import SCHEMA_LINE


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0] == SCHEMA_LINE
    meta = {}
    i = 1
    while lines[i].startswith("#"):
        key, _, value = lines[i][2:].partition("=")
        meta[key] = value
        i += 1
    header = lines[i].split(",")
    rows = [line.split(",") for line in lines[i + 1 :]]
    return meta, header, rows


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr().out
    return rc, out


def test_kernel_eval_poisson_closed_form(capsys):
    rc, out = run_cli(["kernel", "eval", "--family", "poisson", "--d", "2", "--r", "0,1,2"], capsys)
    assert rc == 0
    meta, header, rows = parse_csv(out)
    assert header == ["r", "p1"]
    assert float(rows[0][1]) == pytest.approx(poisson_constant(2), rel=1e-14)
    assert float(rows[1][1]) == pytest.approx(poisson_constant(2) / 2**1.5, rel=1e-14)
    assert float(meta["l1_norm_closed_form"]) == 1.0


def test_kernel_eval_stable_alpha_one_matches_poisson(capsys):
    r = "0,0.5,1,2,5"
    rc1, out1 = run_cli(["kernel", "eval", "--family", "stable", "--alpha", "1", "--d", "2", "--r", r], capsys)
    rc2, out2 = run_cli(["kernel", "eval", "--family", "poisson", "--d", "2", "--r", r], capsys)
    assert rc1 == 0 and rc2 == 0
    _, _, rows1 = parse_csv(out1)
    _, _, rows2 = parse_csv(out2)
    for a, b in zip(rows1, rows2):
        assert abs(float(a[1]) - float(b[1])) < 1e-8


def test_kernel_eval_with_time_column(capsys):
    rc, out = run_cli(
        ["kernel", "eval", "--family", "gaussian", "--d", "2", "--r", "0,1", "--t", "0.25"], capsys
    )
    assert rc == 0
    _, header, rows = parse_csv(out)
    assert header == ["t", "r", "p1", "pt"]
    # p_t(0) = (4 pi t)^{-d/2}
    assert float(rows[0][3]) == pytest.approx((4 * math.pi * 0.25) ** -1.0, rel=1e-12)


def test_kernel_eval_divergent_moment_exit_code(capsys):
    rc = main(["kernel", "eval", "--family", "stable", "--alpha", "0.5", "--d", "2", "--moment"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "moment" in err or "alpha" in err


def test_cov_eval_ball(capsys):
    rc, out = run_cli(
        ["cov", "eval", "--shape", "ball", "--radius", "1", "--d", "2", "--rho", "0,1,2.5"], capsys
    )
    assert rc == 0
    meta, header, rows = parse_csv(out)
    assert header == ["rho", "ghat"]
    assert meta["method"] == "exact-radial"
    assert float(meta["support_radius"]) == 2.0
    assert float(rows[0][1]) == pytest.approx(unit_sphere_area(2) * math.pi, rel=1e-12)
    assert float(rows[2][1]) == 0.0


def test_cov_eval_default_grid(capsys):
    rc, out = run_cli(["cov", "eval", "--shape", "box", "--sides", "1,2"], capsys)
    assert rc == 0
    meta, _, rows = parse_csv(out)
    # 513 radii from 0 to the diameter, where ghat has just vanished
    assert len(rows) == 513
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == float(meta["support_radius"]) == math.sqrt(5.0)
    assert float(rows[0][1]) == unit_sphere_area(2) * 2.0
    assert float(rows[-1][1]) == 0.0


def test_perimeter_routes_agree(capsys):
    rc, out = run_cli(["perimeter", "--shape", "box", "--sides", "1,2,3"], capsys)
    assert rc == 0
    _, header, rows = parse_csv(out)
    assert header == ["route", "perimeter"]
    values = {name: float(v) for name, v in rows}
    assert values["closed_form"] == 22.0
    assert values["directional"] == pytest.approx(22.0, rel=0.01)


def test_alpha_perimeter_with_mc(capsys):
    args = [
        "alpha-perimeter", "--shape", "ball", "--radius", "1", "--d", "2",
        "--alpha", "0.5", "--mc", "--samples", str(2**16), "--seed", "7",
    ]
    rc, out = run_cli(args, capsys)
    assert rc == 0
    _, header, rows = parse_csv(out)
    assert header == ["route", "value", "stderr"]
    byname = {r[0]: (float(r[1]), float(r[2])) for r in rows}
    quad_val, _ = byname["radial-quadrature"]
    mc_val, mc_err = byname["line-mc"]
    assert abs(mc_val - quad_val) < 4.0 * mc_err
    # byte-identical rerun with the same seed
    rc2, out2 = run_cli(args, capsys)
    assert rc2 == 0 and out2 == out


def test_alpha_perimeter_regime_exit_code(capsys):
    rc = main(["alpha-perimeter", "--shape", "ball", "--radius", "1", "--d", "2", "--alpha", "1.3"])
    assert rc == 2
    assert "alpha" in capsys.readouterr().err


def _strict_json(text):
    def refuse(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def _same(text, value):
    """Whether a CSV cell and the JSON value of the same cell agree."""
    if isinstance(value, bool):
        return text == ("true" if value else "false")
    if isinstance(value, (int, float)) or value in ("inf", "-inf"):
        return float(text) == float(value)
    return text == value


_POLY_BETA_M2 = ["--family", "poly", "--d", "2", "--kappa", "0.1", "--n", "2", "--m", "1.5", "--beta=-2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "eval", "--family", "gaussian", "--d", "2", "--r", "0,1,inf", "--t", "0.25"],
        ["cov", "eval", "--shape", "box", "--sides", "1,2", "--rho", "0,0.5,1,3"],
        ["perimeter", "--shape", "box", "--sides", "1,2,3"],
        ["alpha-perimeter", "--d", "2", "--alpha", "0.5", "--mc", "--samples", "4096", "--seed", "3"],
        ["bounds", "--which", "i", "--family", "gaussian", "--d", "2", "--t-grid", "0.1,0.01"],
        ["bounds", "--which", "ii", *_POLY_BETA_M2, "--gamma", "1", "--t-grid", "0.5,1e-3,1e-5"],
        ["bounds", "--which", "ii", *_POLY_BETA_M2, "--gamma", "0.5", "--t-grid", "0.5,0.1,1e-3"],  # fails: exit 4
    ],
    ids=["kernel-eval", "cov-eval", "perimeter", "alpha-perimeter", "bounds-i", "bounds-ii", "bounds-ii-fails"],
)
def test_json_and_csv_carry_the_same_table(argv, capsys):
    rc_csv, out_csv = run_cli(argv, capsys)
    rc_json, out_json = run_cli([*argv, "--format", "json"], capsys)
    assert rc_csv == rc_json and rc_csv in (0, 4)
    meta, header, rows = parse_csv(out_csv)
    payload = _strict_json(out_json)
    assert sorted(payload) == ["columns", "meta", "rows", "schema"]
    assert payload["schema"] == SCHEMA_LINE[2:]
    assert payload["columns"] == header
    assert sorted(payload["meta"]) == sorted(meta)
    assert all(_same(meta[key], value) for key, value in payload["meta"].items())
    assert len(payload["rows"]) == len(rows)
    for row, cells in zip(rows, payload["rows"]):
        assert len(cells) == len(row) and all(map(_same, row, cells))


def test_heat_sweep_writes_csv_and_summary(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    rc = main(
        [
            "heat", "sweep", "--family", "stable", "--alpha", "1.5", "--d", "2",
            "--shape", "ball", "--radius", "1",
            "--t-grid", "1e-2,1e-3,1e-4", "--out", str(out_path),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    meta, header, rows = parse_csv(out_path.read_text())
    assert meta["regime"] == "alpha_gt_1"
    assert meta["constant_tag"] == "limit"
    assert header == ["t", "H", "deficit", "scaled_deficit", "theoretical_constant", "rel_error"]
    assert len(rows) == 3
    # the scaled deficit should close in on the limit constant along the grid
    gaps = [abs(float(r[3]) - float(r[4])) for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    summary = json.loads((tmp_path / "sweep.csv.json").read_text())
    assert summary["schema"] == "heatlab-schema v1"
    assert summary["report"]["extrapolated_limit"] == pytest.approx(
        float(meta["extrapolated_limit"]), rel=1e-15
    )
    assert len(summary["results"]) == 3


def test_heat_sweep_json_format(capsys):
    rc, out = run_cli(
        [
            "heat", "sweep", "--family", "gaussian", "--d", "2",
            "--shape", "box", "--sides", "1,1",
            "--t-grid", "1e-3,1e-4,1e-5", "--format", "json",
        ],
        capsys,
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["report"]["regime"] == "gaussian"
    # Per(box)/sqrt(pi)
    assert payload["report"]["theoretical_constant"] == pytest.approx(
        4.0 / math.sqrt(math.pi), rel=1e-12
    )


def test_heat_sweep_columns_match_heat_content(capsys):
    # the sweep's H and deficit columns come from its single pass over D~(t);
    # they must be the numbers heat_content gives at each t, bit for bit
    rc, out = run_cli(
        ["heat", "sweep", "--family", "stable", "--alpha", "1.5", "--d", "3", "--shape", "box", "--sides", "1,2,3"],
        capsys,
    )
    assert rc == 0
    _, header, rows = parse_csv(out)
    assert header[:3] == ["t", "H", "deficit"]
    spec = KernelSpec.stable(1.5, 3)
    profile = radial_profile(Box((1.0, 2.0, 3.0)))
    assert len(rows) == 5
    for row in rows:
        res = heat_content(spec, profile, float(row[0]))
        assert float(row[1]) == res.H
        assert float(row[2]) == res.deficit


def test_kernel_eval_small_alpha_exit_codes(capsys):
    args = ["kernel", "eval", "--family", "stable", "--d", "2", "--r", "0.5", "--alpha"]
    rc, out = run_cli(args + ["0.3"], capsys)
    assert rc == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][1]) > 0
    # alpha = 0.2: the density peak is too sharp for the validated table
    rc = main(args + ["0.2"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "failed validation" in captured.err


@pytest.mark.parametrize(
    "args,t_grid,const",
    [
        (
            ["--family", "stable", "--alpha", "1.5", "--d", "3", "--shape", "box", "--sides", "1,2,3"],
            "1e-20,1e-30,1e-40",
            18.760117641676267,
        ),
        (
            ["--family", "gaussian", "--d", "2", "--shape", "ball", "--radius", "1"],
            "1e-100,1e-200,1e-300",
            2.0 * math.sqrt(math.pi),
        ),
    ],
)
def test_heat_sweep_at_deep_small_t_prints_the_constant(capsys, args, t_grid, const):
    rc, out = run_cli(["heat", "sweep", *args, "--t-grid", t_grid], capsys)
    assert rc == 0
    _, header, rows = parse_csv(out)
    col = header.index("scaled_deficit")
    for row in rows:
        assert float(row[col]) == pytest.approx(const, rel=1e-6)


def test_heat_sweep_starved_quadrature_exit_code(capsys):
    # tolerances no halving of the panels can meet: the deficit quadrature raises,
    # which the CLI reports as a numerical failure
    rc = main(
        [
            "heat", "sweep", "--family", "gaussian", "--d", "2", "--shape", "ball", "--radius", "1",
            "--t-grid", "0.5,0.25,0.125", "--abs-tol", "1e-300", "--rel-tol", "1e-300",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 3
    assert "did not settle" in captured.err
    assert captured.out == ""


def test_bounds_command_exit_codes(capsys):
    rc, out = run_cli(
        [
            "bounds", "--which", "i", "--family", "stable", "--alpha", "1.5", "--d", "2",
            "--shape", "ball", "--radius", "1", "--t-grid", "1e-1,1e-2,1e-3",
        ],
        capsys,
    )
    assert rc == 0
    meta, header, rows = parse_csv(out)
    assert header == ["t", "lhs", "rhs", "slack", "status"]
    assert (meta["bound"], meta["all_passed"], "failures" in meta) == ("perimeter-moment bound", "true", False)
    assert sorted(meta) == ["all_passed", "bound", "moment_d", "perimeter"]
    assert [row[0] for row in rows] == ["0.10000000000000001", "0.01", "0.001"]
    assert {row[4] for row in rows} == {"pass"}
    # divergent moment regime cannot run the moment bound
    bad = main(
        [
            "bounds", "--which", "i", "--family", "poisson", "--d", "2",
            "--shape", "ball", "--radius", "1",
        ]
    )
    assert bad == 2
    capsys.readouterr()


def test_bounds_envelope_for_poly_family(capsys):
    rc, out = run_cli(
        [
            "bounds", "--which", "ii", "--family", "poly", "--d", "2",
            "--kappa", repr(poisson_constant(2)), "--n", "2", "--m", "1.5",
            "--beta", "-2", "--gamma", "1",
            # the limsup side-check needs the grid to reach small t
            "--shape", "ball", "--radius", "1", "--t-grid", "0.5,0.1,1e-3,1e-5",
        ],
        capsys,
    )
    assert rc == 0
    meta, _, _ = parse_csv(out)
    assert float(meta["lambda"]) > 0.0 and float(meta["limsup_ratio"]) <= 1.1


def test_failed_bound_exits_4_with_every_number_and_verdict_in_its_csv(capsys):
    # gamma = 1/2 puts the smallest t's scaled deficit 31 % above the envelope
    kernel = ["--family", "poly", "--d", "2", "--kappa", "0.1", "--n", "2", "--m", "1.5", "--beta=-2", "--gamma", "0.5"]
    rc, out = run_cli(["bounds", "--which", "ii", *kernel, "--t-grid", "0.5,0.1,1e-3"], capsys)
    assert rc == 4
    meta, header, rows = parse_csv(out)
    spec = KernelSpec.poly_family(d=2, kappa=0.1, n=2, m=1.5, beta=-2.0, gamma=0.5)
    report = bound_check_part_ii(spec, Ball(1.0, 2), t_grid=(0.5, 0.1, 1e-3))
    assert not report.all_passed and report.failures
    assert meta.pop("bound") == report.name and meta.pop("all_passed") == "false"
    assert meta.pop("failures") == "; ".join(report.failures)
    assert {key: float(value) for key, value in meta.items()} == report.extra
    columns = (report.t_grid, report.lhs, report.rhs, report.slack)
    assert [[float(v) for v in row[:4]] for row in rows] == [list(c) for c in zip(*columns)]
    assert [row[4] for row in rows] == ["pass" if ok else "FAIL" for ok in report.passed]


def test_config_file_round_trip(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"family": "poisson", "d": 2, "r_values": [0.0, 1.0]}))
    rc, out = run_cli(["kernel", "eval", "--config", str(path)], capsys)
    assert rc == 0
    # the file's values are read: the same bytes as the same values given as flags
    assert run_cli(["kernel", "eval", "--family", "poisson", "--d", "2", "--r", "0,1"], capsys) == (0, out)
    # flags override config values
    rc, out = run_cli(["kernel", "eval", "--config", str(path), "--r", "0", "--d", "3"], capsys)
    assert rc == 0
    meta, _, rows = parse_csv(out)
    assert (meta["family"], meta["d"], len(rows)) == ("poisson", "3", 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["cov", "eval", "--shape", "box", "--sides", "1,2,3", "--rho", "nan,inf,0.5"],
        ["kernel", "eval", "--family", "stable", "--alpha", "1.5", "--d", "2", "--r", "nan,1"],
    ],
)
def test_nan_radius_exit_code(argv, capsys):
    assert main(argv) == 2
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "eval", "--family", "gaussian", "--d", "2", "--r", "1", "--t", "nan"],
        ["heat", "sweep", "--family", "poisson", "--d", "2", "--shape", "ball", "--radius", "1",
         "--t-grid", "0.1,nan,0.01"],
    ],
)
def test_nan_time_exit_code(argv, capsys):
    assert main(argv) == 2
    assert "config error: t must be positive, got nan" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "eval", "--family", "gaussian", "--d", "2", "--r", "1", "--t", "inf"],
        ["heat", "sweep", "--family", "gaussian", "--d", "2", "--shape", "ball", "--radius", "1",
         "--t-grid", "inf,0.1,0.01"],
    ],
)
def test_infinite_time_exit_code(argv, capfd):
    # capfd, not capsys: LAPACK would write to file descriptor 2 directly
    assert main(argv) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err == "config error: t must be finite, got inf\n"


@pytest.mark.parametrize(
    "alpha, power",
    [("1.5", "-1.33333"), ("0.5", "-4")],  # t**beta overflows; at 0.5 t**-gamma = t**-2 too
)
def test_tiny_time_overflow_exit_code(alpha, power, capfd):
    argv = ["kernel", "eval", "--family", "stable", "--alpha", alpha, "--d", "2", "--r", "1",
            "--t", "1e-300"]
    assert main(argv) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith(f"config error: t too small: t**{power} or t**")
    assert err.endswith("overflows, got 1e-300\n")


_POLY = ["--family", "poly", "--d", "2", "--kappa", "0.1", "--n", "2", "--m", "1.5"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["heat", "sweep", *_POLY, "--beta=nan", "--gamma", "1", "--shape", "ball", "--radius", "1"],
         "poly family requires a finite beta, got nan"),
        (["kernel", "eval", *_POLY, "--beta=-1", "--gamma", "inf", "--r", "1", "--t", "0.5"],
         "poly family requires a finite gamma, got inf"),
        (["kernel", "eval", "--family", "poly", "--d", "2", "--kappa", "0.1", "--n", "inf",
          "--m", "1.5", "--beta=-1", "--gamma", "0.5", "--r", "1"],
         "poly family requires a finite n, got inf"),
        (["heat", "sweep", "--family", "gaussian", "--d", "2", "--shape", "box", "--sides", "1,nan"],
         "box sides must be positive and finite, got (1.0, nan)"),
        (["heat", "sweep", "--family", "gaussian", "--d", "2", "--shape", "box", "--sides", "1,inf"],
         "box sides must be positive and finite, got (1.0, inf)"),
        (["heat", "sweep", "--family", "gaussian", "--d", "2", "--shape", "ball", "--radius", "inf"],
         "ball radius must be positive and finite, got inf"),
    ],
)
def test_non_finite_kernel_and_shape_parameters_exit_code(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["heat", "sweep", "--family", "stable", "--alpha", "1.5", "--d", "2", "--shape", "ball",
          "--radius", "1e200"], "of Ball(radius=1e+200, d=2) must be positive and finite"),
        (["heat", "sweep", "--family", "gaussian", "--d", "2", "--shape", "ball", "--radius", "1e-300"],
         "of Ball(radius=1e-300, d=2) must be positive and finite"),
        (["heat", "sweep", "--family", "gaussian", "--d", "2", "--shape", "box", "--sides", "1e-200,1e-200"],
         "of Box(sides=(1e-200, 1e-200)) must be positive and finite"),
    ],
)
def test_shape_whose_measures_leave_double_range_exit_code(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: volume, perimeter, diameter and A_d volume ")
    assert message in err


@pytest.mark.parametrize(
    "config, argv, message",
    [
        ({"family": "stable", "alpha": 1.5, "d": 2.5, "r_values": [0.5]}, ["kernel", "eval"],
         "dimension d must be an integer >= 2, got 2.5"),
        ({"d": 2, "alpha": 0.5, "mc": True, "samples": 2.5}, ["alpha-perimeter"],
         "samples must be an integer >= 1, got 2.5"),
    ],
)
def test_non_integral_config_counts_exit_code(config, argv, message, tmp_path, capsys):
    # the flags are int-typed, but a config file can carry any number
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main([*argv, "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_deficit_overflow_exit_code_names_the_scale(capsys):
    argv = ["heat", "sweep", "--family", "gaussian", "--d", "3", "--shape", "box", "--sides", "1e120,1,1"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "r* = ell t^-gamma = 3.16e+120 (shape diameter ell=1e+120, t=0.1, gamma=0.5)" in err


def test_config_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"family": "poisson", "d": 2, "quark": 3}))
    rc = main(["kernel", "eval", "--config", str(path)])
    assert rc == 2
    assert "quark" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config, unread",
    [
        (["heat", "sweep"], {"family": "gaussian", "t": 0.5}, "['t']"),
        (["verify", "--quick"], {"alpha": 0.2, "samples": 5, "mc": True}, "['alpha', 'mc', 'samples']"),
        (["cov", "eval"], {"shape": "box", "sides": [1, 2], "family": "stable", "alpha": 7}, "['alpha', 'family']"),
        (["perimeter"], {"config": "other.json"}, "['config']"),
    ],
)
def test_config_keys_the_command_does_not_read_exit_code(argv, config, unread, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main([*argv, "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: {' '.join(_command(argv))} reads no config key {unread}\n"


# the flags each command reads besides --config
_KERNEL = {"--family", "--alpha", "--d", "--kappa", "--n", "--m", "--beta", "--gamma"}
_SHAPE = {"--shape", "--radius", "--sides", "--d"}
_TOLS = {"--abs-tol", "--rel-tol"}
_OUTPUT = {"--out", "--format"}
FLAGS = {
    ("kernel", "eval"): _KERNEL | _TOLS | _OUTPUT | {"--r", "--t", "--moment"},
    ("cov", "eval"): _SHAPE | _OUTPUT | {"--rho"},
    ("perimeter",): _SHAPE | _OUTPUT,
    ("alpha-perimeter",): _SHAPE | _TOLS | _OUTPUT | {"--alpha", "--mc", "--samples", "--seed"},
    ("heat", "sweep"): _KERNEL | _SHAPE | _TOLS | _OUTPUT | {"--t-grid"},
    ("bounds",): _KERNEL | _SHAPE | _TOLS | _OUTPUT | {"--t-grid", "--which"},
    ("verify",): {"--seed", "--quick", "--abs-tol", "--rel-tol", "--out"},
}
# one valid value of every flag; None for a switch
_VALUE = {
    "--family": "gaussian", "--alpha": "0.5", "--d": "2", "--kappa": "0.1", "--n": "2", "--m": "1.5",
    "--beta": "-2", "--gamma": "1", "--shape": "ball", "--radius": "1", "--sides": "1,1", "--t": "0.5",
    "--t-grid": "0.1,0.01,0.001", "--r": "1", "--rho": "1", "--abs-tol": "1e-10", "--rel-tol": "1e-8",
    "--samples": "5", "--seed": "1", "--out": "x.csv", "--format": "csv", "--quick": None, "--which": "i",
    "--mc": None, "--moment": None,
}


def _flag(flag):
    return [flag] if _VALUE[flag] is None else [f"{flag}={_VALUE[flag]}"]


def _command(argv):
    return tuple(argv[:2]) if argv[0] in ("kernel", "cov", "heat") else (argv[0],)


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_each_command_accepts_exactly_the_flags_it_reads(command, capsys):
    assert set(_VALUE) == set().union(*FLAGS.values())
    assert sum(map(len, FLAGS.values())) == 78
    parser = _parsers()[0]
    parser.parse_args([*command, "--config", "run.json"])
    for flag in sorted(_VALUE):
        if flag in FLAGS[command]:
            parser.parse_args([*command, *_flag(flag)])
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([*command, *_flag(flag)])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {_flag(flag)[0]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["heat", "sweep", "--family", "gaussian", "--d", "2", "--shape", "ball", "--radius", "1", "--t", "0.5"],
        ["heat", "sweep", "--t-g", "0.1,0.01,0.001"],  # an abbreviation of a flag the command reads
        ["kernel", "eval", "--mom"],
        ["bounds", "--whi", "ii"],
        ["verify", "--qu"],
    ],
)
def test_abbreviated_or_foreign_flags_exit_code(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments" in err


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_foreign_flag_is_reported_against_the_command_usage(command, capsys):
    foreign = sorted(set(_VALUE) - FLAGS[command])[0]
    with pytest.raises(SystemExit) as exc:
        main([*command, *_flag(foreign)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    usage, _, message = err.partition(f"heatlab {' '.join(command)}: error: ")
    assert out == "" and usage.startswith(f"usage: heatlab {' '.join(command)} [-h] [--config CONFIG]")
    assert all(flag in usage for flag in FLAGS[command])
    assert message == f"unrecognized arguments: {_flag(foreign)[0]}\n"


@pytest.mark.parametrize(
    "config, message",
    [
        ({"shape": "box", "sides": 3}, "key 'sides' must be a list of numbers, got 3"),
        ({"radius": "1"}, 'key \'radius\' must be a number, got "1"'),
        ({"d": True}, "key 'd' must be a number, got true"),
        ({"t_grid": [0.1, "0.01"]}, 'key \'t_grid\' must be a list of numbers, got [0.1, "0.01"]'),
        ({"shape": "cube"}, "key 'shape' must be one of ['ball', 'box'], got \"cube\""),
        ({"out": 3}, "key 'out' must be a string, got 3"),
    ],
)
def test_config_value_of_the_wrong_kind_exit_code(config, message, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["heat", "sweep", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"config error: {message}\n"


def test_config_file_that_is_no_object_exit_code(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(["family", "d"]))
    assert main(["kernel", "eval", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f'config error: {path} must hold a JSON object, got ["family", "d"]\n'


@pytest.mark.parametrize(
    "argv, config",
    [
        (["cov", "eval", "--shape", "box", "--sides", "1,2", "--d", "3"], None),
        (["perimeter", "--shape", "box", "--sides", "1,2", "--d", "3"], None),
        (["perimeter"], {"shape": "box", "sides": [1.0, 2.0], "d": 3}),
        (["heat", "sweep", "--family", "gaussian", "--shape", "box", "--sides", "1,2"], {"d": 3}),
    ],
)
def test_box_dimension_other_than_its_sides_exit_code(argv, config, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: --d 3 differs from the 2 box sides (1.0, 2.0)\n"


def test_box_dimension_defaults_to_its_sides(capsys):
    rc, out = run_cli(["heat", "sweep", "--shape", "box", "--sides", "1,2,3", "--t-grid", "0.1,0.01,0.001"], capsys)
    assert rc == 0
    meta, _, _ = parse_csv(out)
    assert (meta["family"], meta["d"], meta["shape"]) == ("gaussian", "3", "box")


@pytest.mark.parametrize(
    "argv, message",
    [
        # the envelope's limsup side-check would read t=0.1 as the smallest time
        (["bounds", "--family", "poly", "--d", "2", "--kappa", "0.3183098861837907", "--n", "2", "--m", "1.5",
          "--beta=-2", "--gamma", "1", "--shape", "ball", "--radius", "1", "--which", "ii",
          "--t-grid", "1e-5,1e-3,0.1"], "(1e-05, 0.001, 0.1)"),
        (["bounds", "--family", "gaussian", "--d", "2", "--t-grid", "0.01,0.01"], "(0.01, 0.01)"),
    ],
)
def test_bounds_grid_that_is_not_strictly_decreasing_exit_code(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: t_grid must be strictly decreasing with >= 1 entries, got {message}\n"


def test_poly_prefactor_overflow_exit_code(capsys):
    argv = ["heat", "sweep", "--family", "poly", "--d", "2", "--kappa", "0.1", "--n", "2", "--m", "1.5",
            "--beta=1", "--gamma", "1", "--shape", "ball", "--radius", "1", "--t-grid", "1e150,1e100,1e50"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: t too large: t**3 overflows, got 1e+150\n"


def test_subnormal_shape_volume_exit_code(capsys):
    assert main(["heat", "sweep", "--family", "gaussian", "--d", "2", "--shape", "ball", "--radius", "1e-160"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: volume of Ball(radius=1e-160, d=2) is 3.14e-320, subnormal")


# -- the README's CLI examples run as documented ------------------------------------------

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
_CLI_SECTION = _README[_README.index("\n## CLI\n") : _README.index("\n## ", _README.index("\n## CLI\n") + 1)]


def _fenced(lang):
    start = _CLI_SECTION.index(f"```{lang}\n") + len(lang) + 4
    return _CLI_SECTION[start : _CLI_SECTION.index("```", start)]


_README_COMMANDS = [line for line in _fenced("sh").replace("\\\n", " ").splitlines() if line.startswith("heatlab ")]


@pytest.mark.parametrize("line", _README_COMMANDS)
def test_readme_cli_examples(line, tmp_path, monkeypatch, capsys):
    command, _, comment = line.partition("#")
    expected = re.search(r"exit (\d)", comment)
    monkeypatch.chdir(tmp_path)  # --out paths land here
    try:
        code = main(shlex.split(command)[1:])
    except SystemExit as exc:  # argparse rejects the line
        code = exc.code
    assert code == (int(expected.group(1)) if expected else 0), capsys.readouterr().err


def test_readme_config_example(tmp_path, capsys):
    assert len(_README_COMMANDS) >= 7
    path = tmp_path / "run.json"
    path.write_text(_fenced("json"))
    rc, out = run_cli(["heat", "sweep", "--config", str(path)], capsys)
    assert rc == 0
    meta, _, rows = parse_csv(out)
    assert (meta["family"], meta["alpha"], len(rows)) == ("stable", "1.5", 4)


def test_missing_shape_arguments_exit_code(capsys):
    rc = main(["cov", "eval", "--shape", "box", "--d", "2"])
    assert rc == 2
    assert "sides" in capsys.readouterr().err


def test_verify_quick_battery(tmp_path, capsys):
    out_path = tmp_path / "battery.csv"
    rc = main(["verify", "--quick", "--seed", "0", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[pass]") == 17
    assert "17/17 criteria passed" in out
    meta, _, rows = parse_csv(out_path.read_text())
    assert meta["quick"] == "true"
    assert len(rows) == 17
    payload = json.loads((tmp_path / "battery.csv.json").read_text())
    assert payload["failures"] == 0


def test_verify_out_repeats_its_bytes(tmp_path, capsys):
    # the per-criterion wall times go to stdout only, never into the files
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in paths:
        assert main(["verify", "--quick", "--seed", "0", "--out", str(path)]) == 0
    assert "seconds" not in Path(f"{paths[0]}.json").read_text()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert Path(f"{paths[0]}.json").read_bytes() == Path(f"{paths[1]}.json").read_bytes()


def test_verify_fails_under_sabotaged_tolerance(capsys):
    # designed-to-fail configuration: a huge abs_tol wrecks the
    # quadrature-vs-closed-form criteria and the battery must say so
    rc = main(["verify", "--quick", "--abs-tol", "1.0", "--rel-tol", "0.5"])
    out = capsys.readouterr().out
    assert rc == 4
    assert "[FAIL]" in out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "heatlab.cli", "--help"],
        capture_output=True,
        text=True,
    )
    # `python -m heatlab.cli` and the installed `heatlab` script share main()
    assert proc.returncode == 0
    assert "kernel" in proc.stdout


def test_no_command_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_parser_is_shared_and_parses_each_call_afresh():
    parser = _parsers()[0]
    assert _parsers()[0] is parser
    first = parser.parse_args(["heat", "sweep", "--alpha", "1.5", "--t-grid", "0.1,0.01"])
    second = parser.parse_args(["bounds"])
    assert (first.group, first.cmd, first.alpha, first.t_grid) == ("heat", "sweep", 1.5, (0.1, 0.01))
    assert second.group == "bounds" and second.alpha is None and second.t_grid is None
    assert not hasattr(second, "cmd")


# -- every argument vector ends in an exit code -----------------------------------

# sizes and times: half of them near 1, a quarter anywhere from 1e-320 to
# 1e308 and a quarter invalid
_MODERATE = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)
_SIZES = st.one_of(
    _MODERATE,
    _MODERATE,
    st.floats(-320.0, 308.0).map(lambda e: 10.0**e),
    st.sampled_from([math.nan, math.inf, 0.0, -1.0]),
)
# radii: +inf is a valid radius, but kernel eval echoes it in its r column
_RADII = st.one_of(st.floats(-320.0, 308.0).map(lambda e: 10.0**e), st.sampled_from([math.nan, -1.0]))
_ALPHAS = st.one_of(st.sampled_from([0.5, 1.0, 1.5]), st.sampled_from([0.0, 2.0, -1.0, math.nan, math.inf]))


# config values of the wrong kind for each kind of flag
_WRONG_KIND = {
    "number": ["1", True, None, [1.0], {}],
    "list": [3, "1,2", [True], ["0.1"], None],
    "switch": [1, "yes", None],
    "choice": ["nope", 1, True, None],
    "string": [1, False, []],
}
_KEY = {"--r": "r_values", "--rho": "rho_values"}


def _kind(flag):
    if _VALUE[flag] is None:
        return "switch"
    if flag in ("--sides", "--t-grid", "--r", "--rho"):
        return "list"
    if flag in ("--family", "--shape", "--format", "--which"):
        return "choice"
    return "string" if flag == "--out" else "number"


def _joined(values):
    return ",".join(repr(float(v)) for v in values)


def _t_grid(draw, size):
    t_grid = [draw(_SIZES)]
    for _ in range(size - 1):  # steps down by factors in [1.8, 1e4]
        t_grid.append(t_grid[-1] * 10.0 ** -draw(st.floats(0.25, 4.0)))
    return "--t-grid=" + _joined(t_grid)


@st.composite
def _cli_argv(draw):
    """An argument vector for any command but ``verify``; one time in five it
    also carries a flag of another command."""
    family = draw(st.sampled_from(["gaussian", "poisson", "stable", "poly"]))
    d = draw(st.one_of(st.sampled_from([2, 3]), st.integers(1, 12)))  # boxes have 2 or 3 sides
    kernel = [f"--family={family}", f"--d={d}"]
    if family == "stable":
        kernel.append(f"--alpha={draw(_ALPHAS)!r}")
    elif family == "poly":  # d - n m = -1, and beta + d gamma of either sign or 0
        beta = draw(st.one_of(st.just(-d), st.floats(-3.0 * d, 3.0 * d)))
        gamma = draw(st.sampled_from([0.5, 1.0, 2.0]))
        kernel += ["--kappa=0.1", "--n=2", f"--m={(d + 1) / 2!r}", f"--beta={beta!r}", f"--gamma={gamma!r}"]
    if draw(st.booleans()):
        shape = ["--shape=ball", f"--radius={draw(_SIZES)!r}"]
    else:
        n_sides = d if d in (2, 3) else draw(st.integers(2, 3))
        shape = ["--shape=box", "--sides=" + _joined(draw(st.lists(_SIZES, min_size=n_sides, max_size=n_sides)))]
    command = draw(st.sampled_from(["kernel", "cov", "perimeter", "alpha-perimeter", "heat", "heat", "bounds"]))
    if command == "kernel":
        argv = ["kernel", "eval", *kernel, f"--r=0,{draw(_RADII)!r}", f"--t={draw(_SIZES)!r}"]
    elif command == "cov":
        argv = ["cov", "eval", f"--d={d}", *shape]
    elif command == "perimeter":
        argv = ["perimeter", f"--d={d}", *shape]
    elif command == "alpha-perimeter":
        argv = ["alpha-perimeter", f"--d={d}", *shape, f"--alpha={draw(_ALPHAS) / 2!r}"]
        if draw(st.booleans()):
            argv += ["--mc", f"--samples={draw(st.integers(1, 500))}", f"--seed={draw(st.integers(0, 2**32 - 1))}"]
    elif command == "heat":
        argv = ["heat", "sweep", *kernel, *shape, _t_grid(draw, 3)]
    else:
        which = "ii" if family == "poly" else "i"  # the log-regime bound is for poly kernels only
        argv = ["bounds", *kernel, *shape, f"--which={which}", _t_grid(draw, draw(st.integers(1, 3)))]
    if draw(st.integers(0, 4)) == 0:
        argv += _flag(draw(st.sampled_from(sorted(set(_VALUE) - FLAGS[_command(argv)]))))
    if draw(st.integers(0, 4)) == 0:
        flag = draw(st.sampled_from(sorted(FLAGS[_command(argv)])))
        wrong = draw(st.sampled_from(_WRONG_KIND[_kind(flag)]))
        argv += ["--config", json.dumps({_KEY.get(flag, flag[2:].replace("-", "_")): wrong})]
    return argv


_SWEEP = ["heat", "sweep", "--t-grid=0.1,0.01,0.001"]


@settings(deadline=timedelta(seconds=20), suppress_health_check=[HealthCheck.too_slow])
@given(argv=_cli_argv())
# each of these once raised out of main or warned of an overflow
@example(argv=[*_SWEEP, "--family=stable", "--alpha=1.5", "--d=2", "--shape=ball", "--radius=1e+200"])
@example(argv=[*_SWEEP, "--family=stable", "--alpha=0.5", "--d=2", "--shape=box", "--sides=1.0,1e-190"])
@example(argv=["heat", "sweep", "--family=stable", "--alpha=0.5", "--d=2", "--shape=ball", "--radius=1.0",
               "--t-grid=1e+200,1e+100,1.0"])
@example(argv=["kernel", "eval", "--family=gaussian", "--d=2", "--r=0,1e+155", "--t=1.0"])
@example(argv=["cov", "eval", "--shape=box", "--sides=1.0,1.0,1e+103"])
@example(argv=["cov", "eval", "--d=5", "--shape=ball", "--radius=3.162277660168379e+61"])
@example(argv=["heat", "sweep", "--family=poly", "--d=2", "--kappa=0.1", "--n=2", "--m=1.5", "--beta=1.0",
               "--gamma=1.0", "--shape=ball", "--radius=1.0", "--t-grid=1e+150,1e+100,1e+50"])
@example(argv=["alpha-perimeter", "--d=3", "--shape=ball", "--radius=1e+55", "--alpha=0.25", "--mc", "--samples=1"])
@example(argv=["bounds", "--family=poly", "--d=2", "--kappa=0.1", "--n=2", "--m=1.5", "--beta=-2", "--gamma=0.5",
               "--which=ii", "--t-grid=1.0"])
@example(argv=["cov", "eval", "--d=2", "--shape=box", "--sides=1.0,1e+154"])
@example(argv=["bounds", "--family=poly", "--d=2", "--kappa=0.1", "--n=2", "--m=1.5", "--beta=-2", "--gamma=2.0",
               "--which=ii", "--t-grid=1e+200,0.1"])
@example(argv=["kernel", "eval", "--family=poly", "--d=2", "--kappa=0.1", "--n=2", "--m=1.5", "--beta=0.0",
               "--gamma=0.5", "--r=0,1e+202", "--t=1e-213"])
# a flag of another command: exit 2 where the parent ran on without it
@example(argv=["heat", "sweep", "--family=gaussian", "--d=2", "--shape=ball", "--radius=1.0", "--t=0.5"])
@example(argv=["cov", "eval", "--shape=box", "--sides=1.0,2.0", "--family=stable", "--alpha=7.0"])
# a config value of the wrong kind exits 2 where the parent raised out of main
@example(argv=["heat", "sweep", "--config", '{"shape": "box", "sides": 3}'])
# a seed that is no Philox key word exits 2: -3 failed criterion 3 in numpy's
# seeding (exit 4), and 2.5 ran as seed 2
@example(argv=["verify", "--quick", "--seed=-3"])
@example(argv=["alpha-perimeter", "--mc", "--config", '{"seed": 2.5}'])
def test_every_argument_vector_ends_in_an_exit_code(argv):
    # a drawn --config value is the file's JSON text, written out here
    config = json.loads(argv[argv.index("--config") + 1]) if "--config" in argv else {}
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if config:
            path = Path(tmp) / "run.json"
            path.write_text(json.dumps(config))
            argv = [str(path) if arg.startswith("{") else arg for arg in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the vector
            code = exc.code
    foreign = {arg.partition("=")[0] for arg in argv if arg.startswith("--")} - FLAGS[_command(argv)] - {"--config"}
    event(f"{argv[0]} exit {code}{' (foreign flag)' if foreign else ''}{' (wrong config)' if config else ''}")
    # bounds exits 4 when a bound fails on the drawn grid
    allowed = (2,) if foreign or config else (0, 2, 3, 4) if argv[0] == "bounds" else (0, 2, 3)
    assert code in allowed, (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if config and not foreign:  # the message names the key: its kind, or else the value's own check
        assert any(
            err.getvalue().startswith((f"config error: key {key!r} must be ", f"config error: {key} must be "))
            for key in config
        ), err.getvalue()
    if "--seed=-3" in argv:
        assert code == 2 and err.getvalue().startswith("config error: seed must be "), err.getvalue()
    if code == 0:
        assert re.search(r"\b(nan|inf)\b", out.getvalue(), re.IGNORECASE) is None
