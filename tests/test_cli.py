"""Command-line interface: outputs, exit codes, config files, determinism."""

import json
import math
import subprocess
import sys

import pytest

from heatlab.cli import RunConfig, build_parser, main, parse_config
from heatlab.content import heat_content
from heatlab.geometry import Box, radial_profile
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


def test_heat_sweep_starved_quadrature_exit_code(capsys):
    # tolerances no refinement level can meet: the deficit quadrature raises,
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
    ok = main(
        [
            "bounds", "--which", "i", "--family", "stable", "--alpha", "1.5", "--d", "2",
            "--shape", "ball", "--radius", "1", "--t-grid", "1e-1,1e-2,1e-3",
        ]
    )
    out = capsys.readouterr().out
    assert ok == 0
    assert "pass" in out
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
    rc = main(
        [
            "bounds", "--which", "ii", "--family", "poly", "--d", "2",
            "--kappa", repr(poisson_constant(2)), "--n", "2", "--m", "1.5",
            "--beta", "-2", "--gamma", "1",
            # the limsup side-check needs the grid to reach small t
            "--shape", "ball", "--radius", "1", "--t-grid", "0.5,0.1,1e-3,1e-5",
        ]
    )
    assert rc == 0
    assert "lambda" in capsys.readouterr().out


def test_config_file_round_trip(tmp_path, capsys):
    cfg = RunConfig(family="poisson", d=2, r_values=(0.0, 1.0))
    path = tmp_path / "run.json"
    path.write_text(cfg.serialize())
    assert parse_config(path) == cfg
    rc, out = run_cli(["kernel", "eval", "--config", str(path)], capsys)
    assert rc == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 2
    # flags override config values
    rc, out = run_cli(["kernel", "eval", "--config", str(path), "--r", "0"], capsys)
    assert rc == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 1


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


def test_config_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"family": "poisson", "d": 2, "quark": 3}))
    rc = main(["kernel", "eval", "--config", str(path)])
    assert rc == 2
    assert "quark" in capsys.readouterr().err


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
    parser = build_parser()
    assert build_parser() is parser
    first = parser.parse_args(["heat", "sweep", "--alpha", "1.5", "--t-grid", "0.1,0.01"])
    second = parser.parse_args(["bounds"])
    assert (first.group, first.cmd, first.alpha, first.t_grid) == ("heat", "sweep", 1.5, (0.1, 0.01))
    assert second.group == "bounds" and second.alpha is None and second.t_grid is None
    assert not hasattr(second, "cmd")
