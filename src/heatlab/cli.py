"""Command-line interface: configure a kernel/shape, run sweeps and checks.

Subcommands:  kernel eval | cov eval | perimeter | alpha-perimeter |
heat sweep | bounds | verify.  Options may come from a JSON config file
(--config) with individual flags overriding it.  Exit codes: 0 ok,
2 configuration/regime error, 3 numerical failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import content as hc
from .acceptance import run_battery
from .errors import QuadratureError, RegimeError, SamplingEfficiencyError, UnsupportedShapeError
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
from .reporting import bound_check_text, csv_table, json_report, sweep_csv, write_text

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERICAL = 3
_EXIT_VERIFY = 4


@dataclass
class RunConfig:
    """Declarative run description; JSON-round-trippable."""

    family: str = "gaussian"
    alpha: float = None
    d: int = 2
    kappa: float = None
    n: float = None
    m: float = None
    beta: float = None
    gamma: float = None
    shape: str = "ball"
    radius: float = 1.0
    sides: tuple = None
    t: float = None
    t_grid: tuple = None
    r_values: tuple = None
    rho_values: tuple = None
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    samples: int = 10**6
    seed: int = 0
    out: str = None
    format: str = "csv"
    quick: bool = False
    which: str = "i"
    mc: bool = False
    moment: bool = False

    def to_dict(self):
        out = dataclasses.asdict(self)
        for key in ("sides", "t_grid", "r_values", "rho_values"):
            if out[key] is not None:
                out[key] = list(out[key])
        return out

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
        for key in ("sides", "t_grid", "r_values", "rho_values"):
            val = getattr(cfg, key)
            if val is not None:
                setattr(cfg, key, tuple(float(v) for v in val))
        return cfg

    def serialize(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def parse_config(path) -> RunConfig:
    with open(path) as fh:
        return RunConfig.from_dict(json.load(fh))


def make_spec(cfg: RunConfig) -> KernelSpec:
    if cfg.family == "gaussian":
        return KernelSpec.gaussian(cfg.d)
    if cfg.family == "poisson":
        return KernelSpec.poisson(cfg.d)
    if cfg.family == "stable":
        return KernelSpec.stable(cfg.alpha, cfg.d)
    if cfg.family == "poly":
        return KernelSpec.poly_family(
            d=cfg.d, kappa=cfg.kappa, n=cfg.n, m=cfg.m, beta=cfg.beta, gamma=cfg.gamma
        )
    raise ValueError(f"unknown kernel family {cfg.family!r}")


def make_shape(cfg: RunConfig):
    if cfg.shape == "ball":
        return Ball(radius=cfg.radius, d=cfg.d)
    if cfg.shape == "box":
        if not cfg.sides:
            raise ValueError("--shape box requires --sides")
        return Box(sides=tuple(cfg.sides))
    raise ValueError(f"unknown shape {cfg.shape!r} (ball or box)")


def quad_config(cfg: RunConfig) -> QuadratureConfig:
    return QuadratureConfig(abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol)


def _emit(cfg, body):
    if cfg.out:
        write_text(cfg.out, body)
        print(f"wrote {cfg.out}")
    else:
        sys.stdout.write(body)


# --- commands ----------------------------------------------------------------


def cmd_kernel_eval(cfg: RunConfig) -> int:
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
        rows = [(cfg.t, ri, pi, pti) for ri, pi, pti in zip(r, p1, eval_pt(spec, cfg.t, r, qc))]
        cols = ("t", "r", "p1", "pt")
    else:
        rows = list(zip(r, p1))
        cols = ("r", "p1")
    if cfg.format == "json":
        body = json_report({"columns": list(cols), "rows": [list(map(float, row)) for row in rows], "meta": meta})
    else:
        body = csv_table(cols, rows, meta=meta)
    _emit(cfg, body)
    return _EXIT_OK


def cmd_cov_eval(cfg: RunConfig) -> int:
    shape = make_shape(cfg)
    profile = radial_profile(shape)
    if cfg.rho_values is not None:
        rho = np.asarray(cfg.rho_values, dtype=float)
    else:
        rho = np.linspace(0.0, profile.support_radius, 513)
    rows = list(zip(rho, profile.ghat(rho)))
    meta = {
        "shape": cfg.shape,
        "method": profile.angular_method,
        "support_radius": profile.support_radius,
        "volume": profile.volume,
    }
    if cfg.format == "json":
        body = json_report({"columns": ["rho", "ghat"], "rows": [list(map(float, r)) for r in rows], "meta": meta})
    else:
        body = csv_table(("rho", "ghat"), rows, meta=meta)
    _emit(cfg, body)
    return _EXIT_OK


def cmd_perimeter(cfg: RunConfig) -> int:
    shape = make_shape(cfg)
    rows = [("directional", perimeter_via_directional(shape)), ("closed_form", perimeter(shape))]
    body = (
        json_report({"rows": [[k, float(v)] for k, v in rows]})
        if cfg.format == "json"
        else csv_table(("route", "perimeter"), rows, meta={"shape": cfg.shape})
    )
    _emit(cfg, body)
    return _EXIT_OK


def cmd_alpha_perimeter(cfg: RunConfig) -> int:
    shape = make_shape(cfg)
    rows = [("radial-quadrature", alpha_perimeter(shape, cfg.alpha, cfg=quad_config(cfg)), 0.0)]
    meta = {"shape": cfg.shape, "alpha": cfg.alpha}
    if cfg.mc:
        est = mc_alpha_perimeter(shape, cfg.alpha, samples=cfg.samples, seed=cfg.seed)
        rows.append(("line-mc", est.value, est.stderr))
        meta.update(seed=cfg.seed, samples=cfg.samples)
    body = (
        json_report({"rows": [[k, float(v), float(e)] for k, v, e in rows], "meta": meta})
        if cfg.format == "json"
        else csv_table(("route", "value", "stderr"), rows, meta=meta)
    )
    _emit(cfg, body)
    return _EXIT_OK


def cmd_heat_sweep(cfg: RunConfig) -> int:
    spec = make_spec(cfg)
    shape = make_shape(cfg)
    qc = quad_config(cfg)
    report, results = hc.heat_sweep(spec, shape, t_grid=cfg.t_grid or None, cfg=qc)
    meta = {"family": cfg.family, "d": cfg.d, "shape": cfg.shape}
    if cfg.alpha is not None:
        meta["alpha"] = cfg.alpha
    summary = lambda: json_report(report, results=[dataclasses.asdict(r) for r in results])
    if cfg.format == "json":
        _emit(cfg, summary())
        return _EXIT_OK
    csv_body = sweep_csv(report, results, meta=meta)
    if cfg.out:
        write_text(cfg.out, csv_body)
        summary_path = cfg.out + ".json"
        write_text(summary_path, summary())
        print(f"wrote {cfg.out} and {summary_path}")
    else:
        sys.stdout.write(csv_body)
    return _EXIT_OK


def cmd_bounds(cfg: RunConfig) -> int:
    spec = make_spec(cfg)
    shape = make_shape(cfg)
    qc = quad_config(cfg)
    t_grid = cfg.t_grid or None
    if cfg.which == "i":
        report = hc.bound_check_part_i(spec, shape, t_grid=t_grid, cfg=qc)
    elif cfg.which == "ii":
        report = hc.bound_check_part_ii(spec, shape, t_grid=t_grid, cfg=qc)
    else:
        raise ValueError(f"--which must be i or ii, got {cfg.which!r}")
    if cfg.format == "json":
        _emit(cfg, json_report(report))
    else:
        _emit(cfg, bound_check_text(report))
    return _EXIT_OK if report.all_passed else _EXIT_VERIFY


def cmd_verify(cfg: RunConfig) -> int:
    results, body = run_battery(seed=cfg.seed, quick=cfg.quick, cfg=quad_config(cfg))
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] criterion {r.cid:2d} ({r.seconds:6.2f}s): {r.name}")
        if not r.passed:
            print(f"       {r.detail}")
    n_fail = sum(not r.passed for r in results)
    if cfg.out:
        write_text(cfg.out, body)
        write_text(cfg.out + ".json", json_report({"criteria": results, "failures": n_fail}))
        print(f"wrote {cfg.out} and {cfg.out}.json")
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return _EXIT_OK if n_fail == 0 else _EXIT_VERIFY


# --- argument parsing ----------------------------------------------------------


def _float_list(text):
    return tuple(float(v) for v in text.split(","))


def _add_common(p):
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--family", choices=("gaussian", "poisson", "stable", "poly"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--kappa", type=float)
    p.add_argument("--n", type=float)
    p.add_argument("--m", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--shape", choices=("ball", "box"))
    p.add_argument("--radius", type=float)
    p.add_argument("--sides", type=_float_list, metavar="L1,L2[,L3]")
    p.add_argument("--t", type=float)
    p.add_argument("--t-grid", dest="t_grid", type=_float_list, metavar="T1,T2,...")
    p.add_argument("--r", dest="r_values", type=_float_list, metavar="R1,R2,...")
    p.add_argument("--rho", dest="rho_values", type=_float_list, metavar="P1,P2,...")
    p.add_argument("--abs-tol", dest="abs_tol", type=float)
    p.add_argument("--rel-tol", dest="rel_tol", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--quick", action="store_const", const=True)
    p.add_argument("--which", choices=("i", "ii"))
    p.add_argument("--mc", action="store_const", const=True)
    p.add_argument("--moment", action="store_const", const=True)


@functools.cache
def build_parser():
    """The CLI parser, built once per process (``parse_args`` does not mutate it)."""
    parser = argparse.ArgumentParser(prog="heatlab", description=__doc__)
    sub = parser.add_subparsers(dest="group", required=True)

    kernel = sub.add_parser("kernel", help="kernel tables and norms")
    ksub = kernel.add_subparsers(dest="cmd", required=True)
    _add_common(ksub.add_parser("eval", help="tabulate p_1 / p_t with norm rows"))

    cov = sub.add_parser("cov", help="set-covariance profiles")
    csub = cov.add_subparsers(dest="cmd", required=True)
    _add_common(csub.add_parser("eval", help="tabulate the radial profile ghat"))

    _add_common(sub.add_parser("perimeter", help="perimeter via directional variation"))
    _add_common(sub.add_parser("alpha-perimeter", help="nonlocal alpha-perimeter"))

    heat = sub.add_parser("heat", help="heat content sweeps")
    hsub = heat.add_subparsers(dest="cmd", required=True)
    _add_common(hsub.add_parser("sweep", help="asymptotic sweep over a t grid"))

    _add_common(sub.add_parser("bounds", help="perimeter-type bound checks"))
    _add_common(sub.add_parser("verify", help="run the acceptance battery"))
    return parser


def _resolve_config(args) -> RunConfig:
    cfg = parse_config(args.config) if getattr(args, "config", None) else RunConfig()
    for f in dataclasses.fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    return cfg


_DISPATCH = {
    ("kernel", "eval"): cmd_kernel_eval,
    ("cov", "eval"): cmd_cov_eval,
    ("perimeter", None): cmd_perimeter,
    ("alpha-perimeter", None): cmd_alpha_perimeter,
    ("heat", "sweep"): cmd_heat_sweep,
    ("bounds", None): cmd_bounds,
    ("verify", None): cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    key = (args.group, getattr(args, "cmd", None))
    try:
        cfg = _resolve_config(args)
        return _DISPATCH[key](cfg)
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
