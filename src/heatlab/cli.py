"""Command-line interface: configure a kernel/shape, run sweeps and checks.

Each command takes only the flags it reads:

  kernel eval      KERNEL TOLS OUTPUT --r --t --moment
  cov eval         SHAPE OUTPUT --rho
  perimeter        SHAPE OUTPUT
  alpha-perimeter  SHAPE TOLS OUTPUT --alpha --mc --samples --seed
  heat sweep       KERNEL SHAPE TOLS OUTPUT --t-grid
  bounds           KERNEL SHAPE TOLS OUTPUT --t-grid --which
  verify           --seed --quick --abs-tol --rel-tol --out

with KERNEL = --family --alpha --d --kappa --n --m --beta --gamma, SHAPE =
--shape --radius --sides --d, TOLS = --abs-tol --rel-tol and OUTPUT = --out
--format.  Every command also takes --config, a JSON file keyed by the flags'
destination names (t_grid, r_values, rho_values, abs_tol, ...); flags override
its values.  A flag or config key the command does not read exits 2, and so
does an abbreviated flag.  A box's dimension is its number of sides, and a --d
that differs exits 2.  Exit codes: 0 ok, 2 configuration/regime error,
3 numerical failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import content as hc
from .acceptance import run_battery
from .errors import QuadratureError, RegimeError, SamplingEfficiencyError, UnsupportedShapeError, _seed
from .geometry import Ball, Box, alpha_perimeter, perimeter, perimeter_via_directional, radial_profile
from .kernel import (
    KernelSpec,
    QuadratureConfig,
    eval_p1,
    eval_pt,
    l1_norm,
    l1_norm_closed_form,
    moment_d,
    moment_d_closed_form,
)
from .oracle import mc_alpha_perimeter
from .reporting import csv_table, json_report, write_text

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERICAL = 3
_EXIT_VERIFY = 4


def make_spec(cfg) -> KernelSpec:
    if cfg.family == "gaussian":
        return KernelSpec.gaussian(cfg.d)
    if cfg.family == "poisson":
        return KernelSpec.poisson(cfg.d)
    if cfg.family == "stable":
        return KernelSpec.stable(cfg.alpha, cfg.d)
    # --family's choices, on the command line and in a config file, leave "poly"
    return KernelSpec.poly_family(d=cfg.d, kappa=cfg.kappa, n=cfg.n, m=cfg.m, beta=cfg.beta, gamma=cfg.gamma)


def make_shape(cfg):
    if cfg.shape == "ball":
        return Ball(radius=cfg.radius, d=cfg.d)
    # --shape's choices leave "box"
    if not cfg.sides:
        raise ValueError("--shape box requires --sides")
    if cfg.d != len(cfg.sides):
        raise ValueError(f"--d {cfg.d} differs from the {len(cfg.sides)} box sides {tuple(cfg.sides)}")
    return Box(sides=tuple(cfg.sides))


def quad_config(cfg) -> QuadratureConfig:
    return QuadratureConfig(abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol)


def _emit(cfg, body, companion=None):
    """Write ``body`` to stdout, or to --out and then ``companion()`` to <out>.json."""
    if not cfg.out:
        sys.stdout.write(body)
        return
    write_text(cfg.out, body)
    if companion is None:
        print(f"wrote {cfg.out}")
    else:
        write_text(cfg.out + ".json", companion())
        print(f"wrote {cfg.out} and {cfg.out}.json")


def _emit_table(cfg, columns, rows, meta):
    """A command's table as schema-tagged CSV, or for --format json as
    ``{columns, rows, meta}``."""
    if cfg.format == "json":
        _emit(cfg, json_report({"columns": columns, "rows": rows, "meta": meta}))
    else:
        _emit(cfg, csv_table(columns, rows, meta=meta))


# --- commands ----------------------------------------------------------------


def cmd_kernel_eval(cfg) -> int:
    spec = make_spec(cfg)
    qc = quad_config(cfg)
    r = np.asarray(cfg.r_values if cfg.r_values is not None else np.linspace(0.0, 5.0, 21), dtype=float)
    meta = {"family": cfg.family, "d": cfg.d}
    if cfg.alpha is not None:
        meta["alpha"] = cfg.alpha
    meta["l1_norm"] = l1_norm(spec, qc)
    meta["l1_norm_closed_form"] = l1_norm_closed_form(spec)
    try:
        meta["moment_d"] = moment_d(spec, qc)
        meta["moment_d_closed_form"] = moment_d_closed_form(spec)
    except RegimeError:
        if cfg.moment:  # --moment asks for the rows: divergent regimes exit 2
            raise
    p1 = eval_p1(spec, r, qc)
    if cfg.t is not None:
        rows = [(cfg.t, *row) for row in zip(r, p1, eval_pt(spec, cfg.t, r, qc))]
        _emit_table(cfg, ("t", "r", "p1", "pt"), rows, meta)
    else:
        _emit_table(cfg, ("r", "p1"), list(zip(r, p1)), meta)
    return _EXIT_OK


def cmd_cov_eval(cfg) -> int:
    shape = make_shape(cfg)
    profile = radial_profile(shape)
    if cfg.rho_values is not None:
        rho = np.asarray(cfg.rho_values, dtype=float)
    else:
        rho = np.linspace(0.0, profile.support_radius, 513)
    meta = {
        "shape": cfg.shape,
        "method": profile.angular_method,
        "support_radius": profile.support_radius,
        "volume": profile.volume,
    }
    _emit_table(cfg, ("rho", "ghat"), list(zip(rho, profile.ghat(rho))), meta)
    return _EXIT_OK


def cmd_perimeter(cfg) -> int:
    shape = make_shape(cfg)
    rows = [("directional", perimeter_via_directional(shape)), ("closed_form", perimeter(shape))]
    _emit_table(cfg, ("route", "perimeter"), rows, {"shape": cfg.shape})
    return _EXIT_OK


def cmd_alpha_perimeter(cfg) -> int:
    shape = make_shape(cfg)
    rows = [("radial-quadrature", alpha_perimeter(shape, cfg.alpha, cfg=quad_config(cfg)), 0.0)]
    meta = {"shape": cfg.shape, "alpha": cfg.alpha}
    if cfg.mc:
        est = mc_alpha_perimeter(shape, cfg.alpha, samples=cfg.samples, seed=cfg.seed)
        rows.append(("line-mc", est.value, est.stderr))
        meta.update(seed=cfg.seed, samples=cfg.samples)
    _emit_table(cfg, ("route", "value", "stderr"), rows, meta)
    return _EXIT_OK


def cmd_heat_sweep(cfg) -> int:
    """One row per t, largest first, and a JSON summary of the whole report."""
    spec = make_spec(cfg)
    shape = make_shape(cfg)
    report, results = hc.heat_sweep(spec, shape, t_grid=cfg.t_grid or None, cfg=quad_config(cfg))
    summary = lambda: json_report(report, results=[dataclasses.asdict(r) for r in results])
    if cfg.format == "json":
        _emit(cfg, summary())
        return _EXIT_OK
    const = report.theoretical_constant
    rows = [
        (t, res.H, res.deficit, y, const, abs(y - const) / abs(const) if const else float("nan"))
        for t, y, res in zip(report.t_grid, report.scaled_deficits, results)
    ]
    meta = {
        "regime": report.regime,
        "constant_tag": report.constant_tag,
        "extrapolated_limit": report.extrapolated_limit,
        "family": cfg.family,
        "d": cfg.d,
        "shape": cfg.shape,
    }
    if cfg.alpha is not None:
        meta["alpha"] = cfg.alpha
    columns = ("t", "H", "deficit", "scaled_deficit", "theoretical_constant", "rel_error")
    _emit(cfg, csv_table(columns, rows, meta=meta), summary)
    return _EXIT_OK


def cmd_bounds(cfg) -> int:
    """One row per t; the bound's name, verdict, constants and failures as meta."""
    check = {"i": hc.bound_check_part_i, "ii": hc.bound_check_part_ii}[cfg.which]
    report = check(make_spec(cfg), make_shape(cfg), t_grid=cfg.t_grid or None, cfg=quad_config(cfg))
    rows = [
        (t, lhs, rhs, slack, "pass" if ok else "FAIL")
        for t, lhs, rhs, slack, ok in zip(report.t_grid, report.lhs, report.rhs, report.slack, report.passed)
    ]
    meta = {"bound": report.name, "all_passed": report.all_passed, **report.extra}
    if report.failures:
        meta["failures"] = "; ".join(report.failures)
    _emit_table(cfg, ("t", "lhs", "rhs", "slack", "status"), rows, meta)
    return _EXIT_OK if report.all_passed else _EXIT_VERIFY


def cmd_verify(cfg) -> int:
    results, body = run_battery(seed=cfg.seed, quick=cfg.quick, cfg=quad_config(cfg))
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] criterion {r.cid:2d} ({r.seconds:6.2f}s): {r.name}")
        if not r.passed:
            print(f"       {r.detail}")
    n_fail = sum(not r.passed for r in results)
    if cfg.out:
        # without the wall times, so identical runs write identical bytes
        criteria = [{"cid": r.cid, "name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
        _emit(cfg, body, lambda: json_report({"criteria": criteria, "failures": n_fail}))
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return _EXIT_OK if n_fail == 0 else _EXIT_VERIFY


# --- argument parsing ----------------------------------------------------------


def _float_list(text):
    return tuple(float(v) for v in text.split(","))


# add_argument keywords for every flag; each defaults to None, so a flag not
# given leaves the config file's value, or else the _DEFAULTS entry, in place
_OPTIONS = {
    **{f: dict(type=float) for f in ("--alpha", "--kappa", "--n", "--m", "--beta", "--gamma", "--radius", "--t")},
    **{f: dict(type=float) for f in ("--abs-tol", "--rel-tol")},
    **{f: dict(type=int) for f in ("--d", "--samples", "--seed")},
    **{f: dict(action="store_const", const=True) for f in ("--quick", "--mc", "--moment")},
    "--family": dict(choices=("gaussian", "poisson", "stable", "poly")),
    "--shape": dict(choices=("ball", "box")),
    "--format": dict(choices=("csv", "json")),
    "--which": dict(choices=("i", "ii")),
    "--sides": dict(type=_float_list, metavar="L1,L2[,L3]"),
    "--t-grid": dict(type=_float_list, metavar="T1,T2,..."),
    "--r": dict(dest="r_values", type=_float_list, metavar="R1,R2,..."),
    "--rho": dict(dest="rho_values", type=_float_list, metavar="P1,P2,..."),
    "--out": dict(),
}
# d has none: a box takes its number of sides, everything else 2
_DEFAULTS = {"family": "gaussian", "shape": "ball", "radius": 1.0, "abs_tol": 1e-10, "rel_tol": 1e-8,
             "samples": 10**6, "seed": 0, "format": "csv", "quick": False, "which": "i", "mc": False, "moment": False}

_KERNEL = ("--family", "--alpha", "--d", "--kappa", "--n", "--m", "--beta", "--gamma")
_SHAPE = ("--shape", "--radius", "--sides", "--d")
_TOLS = ("--abs-tol", "--rel-tol")
_OUTPUT = ("--out", "--format")

_GROUPS = {"kernel": "kernel tables and norms", "cov": "set-covariance profiles", "heat": "heat content sweeps"}
# (group, command): (help, the flags the command reads besides --config, the command)
_COMMANDS = {
    ("kernel", "eval"): (
        "tabulate p_1 / p_t with norm rows",
        (*_KERNEL, *_TOLS, *_OUTPUT, "--r", "--t", "--moment"),
        cmd_kernel_eval,
    ),
    ("cov", "eval"): ("tabulate the radial profile ghat", (*_SHAPE, *_OUTPUT, "--rho"), cmd_cov_eval),
    ("perimeter", None): ("perimeter via directional variation", (*_SHAPE, *_OUTPUT), cmd_perimeter),
    ("alpha-perimeter", None): (
        "nonlocal alpha-perimeter",
        (*_SHAPE, *_TOLS, *_OUTPUT, "--alpha", "--mc", "--samples", "--seed"),
        cmd_alpha_perimeter,
    ),
    ("heat", "sweep"): (
        "asymptotic sweep over a t grid",
        (*_KERNEL, *_SHAPE, *_TOLS, *_OUTPUT, "--t-grid"),
        cmd_heat_sweep,
    ),
    ("bounds", None): (
        "perimeter-type bound checks",
        (*_KERNEL, *_SHAPE, *_TOLS, *_OUTPUT, "--t-grid", "--which"),
        cmd_bounds,
    ),
    ("verify", None): ("run the acceptance battery", ("--seed", "--quick", *_TOLS, "--out"), cmd_verify),
}


@functools.cache
def _parsers():
    """The CLI parser and each command's subparser, keyed as ``_COMMANDS``."""
    parser = argparse.ArgumentParser(prog="heatlab", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="group", required=True)
    groups, commands = {}, {}
    for (group, cmd), (help_text, flags, _) in _COMMANDS.items():
        parent, name = sub, group
        if cmd is not None:
            if group not in groups:
                group_parser = sub.add_parser(group, help=_GROUPS[group], allow_abbrev=False)
                groups[group] = group_parser.add_subparsers(dest="cmd", required=True)
            parent, name = groups[group], cmd
        p = parent.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for flag in dict.fromkeys(flags):
            p.add_argument(flag, **_OPTIONS[flag])
        commands[group, cmd] = p
    return parser, commands


# each config key's add_argument keywords
_KEY_OPTIONS = {opts.get("dest", flag[2:].replace("-", "_")): opts for flag, opts in _OPTIONS.items()}


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _config_value(key, value):
    """``value`` of config key ``key`` if it is of the kind its flag takes (a list
    as the flag's tuple of floats), else ``ValueError`` naming the key.  An
    int-typed key takes any number: the command's own checks reject 2.5."""
    opts = _KEY_OPTIONS[key]
    if "choices" in opts:
        ok, kind = value in opts["choices"], f"one of {list(opts['choices'])}"
    elif opts.get("action") == "store_const":
        ok, kind = isinstance(value, bool), "true or false"
    elif opts.get("type") is _float_list:
        ok, kind = isinstance(value, list) and all(map(_is_number, value)), "a list of numbers"
    elif "type" in opts:
        ok, kind = _is_number(value), "a number"
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        raise ValueError(f"key {key!r} must be {kind}, got {json.dumps(value)}")
    return tuple(map(float, value)) if opts.get("type") is _float_list else value


def _resolve_config(args, command):
    """Fill each of ``args`` that no flag set from the --config file, else from _DEFAULTS;
    d, which has no default, is a box's number of sides or else 2."""
    reads = set(vars(args)) - {"group", "cmd", "config"}
    given = {}
    if args.config:
        with open(args.config) as fh:
            given = json.load(fh)
        if not isinstance(given, dict):
            raise ValueError(f"{args.config} must hold a JSON object, got {json.dumps(given)}")
        unread = sorted(set(given) - reads)
        if unread:
            raise ValueError(f"{command} reads no config key {unread}")
        given = {key: _config_value(key, value) for key, value in given.items()}
    for dest in reads:
        if getattr(args, dest) is None:
            setattr(args, dest, given.get(dest, _DEFAULTS.get(dest)))
    if "d" in reads and args.d is None:
        args.d = len(args.sides) if getattr(args, "shape", None) == "box" and args.sides else 2
    if "seed" in reads:  # also where alpha-perimeter runs without --mc
        args.seed = _seed(args.seed)
    return args


def main(argv=None) -> int:
    parser, commands = _parsers()
    args, unknown = parser.parse_known_args(argv)
    key = (args.group, getattr(args, "cmd", None))
    if unknown:  # against the command's usage, which lists the flags it takes; exits 2
        commands[key].error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return _COMMANDS[key][2](_resolve_config(args, " ".join(filter(None, key))))
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (ValueError, OSError, UnsupportedShapeError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (QuadratureError, SamplingEfficiencyError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
