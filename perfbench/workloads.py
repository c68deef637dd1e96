"""Workload definitions: the operations each workload runs, the inputs drawn
from the seed, and the timing-independent correctness check of every
operation.

An operation is one ``heatlab`` CLI invocation made in-process through
``heatlab.cli.main`` with its standard output captured, so the command's own
argument handling, second D~ computation and report writers stay inside the
timed path.  The expected small-time constants are computed here from closed
forms, independently of the package, so a check does not trust the program's
own ``theoretical_constant`` column.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
import traceback
from dataclasses import dataclass

# Band the seed draws ball radii and box side scales from.
SCALE_BAND = (0.8, 1.25)

# The poly case draws its radius from a narrower band.  Its bound check
# (part ii) also requires D~(1e-5) / (t ln(1/t)) <= 1.1 x the envelope
# constant, and that finite-t ratio grows with ln R: 1.074 at R=0.8, 1.094 at
# R=1.0, 1.102 (a failed check) at R=1.1.
POLY_BAND = (0.8, 1.0)

# |extrapolated - expected| / expected allowed for limit-tagged sweeps.  The
# battery allows 5e-2 (criteria 6 and 8); every case here lands below 2e-4
# across the whole band, so 2e-3 is ten times tighter than the battery and
# still ten times above what the seed commit produces.
LIMIT_REL_TOL = 2e-3

# Upper-bound-only sweeps: the scaled deficit at the smallest t may exceed
# the constant by this factor at most (the same 10% headroom the package's
# log-regime bound check grants).
UPPER_BOUND_FACTOR = 1.1

# The program's theoretical_constant column must match the closed form here.
CONSTANT_REL_TOL = 1e-6

# P_alpha(B_1) of the unit ball in R^d, for the alpha < 1 law.  The
# alpha-perimeter has no elementary closed form; these are fixed reference
# values (radial quadrature, confirmed by the chord Monte Carlo of battery
# criterion 8 and by the exact scaling P_a(R B) = R^(d-a) P_a(B)).
UNIT_BALL_ALPHA_PERIMETER = {
    (0.5, 2): 62.1306388,
    (0.5, 3): 178.658924,
    (0.7, 2): 67.6778151,
    (0.7, 3): 201.257281,
}

# Battery seeds the verify workload draws from.  The battery's Monte Carlo
# criteria are about twenty 3-sigma z-tests, so some seeds fail one of them
# by chance: of seeds 0-23 with the full 10^6 samples, 10 (criterion 4,
# z=3.15), 13 (criterion 14, z=3.33) and 22 (criterion 4) fail.  The
# benchmark times the battery, so it runs only seeds on which all 17
# criteria passed when it was defined; the workload seed picks one.
VERIFY_SEEDS = tuple(s for s in range(24) if s not in (10, 13, 22))

BALL_ALPHAS = (1.5, 1.2, 1.0, 0.7, 0.5)
BOX_ALPHAS = (1.5, 1.2, 1.0)
VERIFY_CRITERIA = 17


# --- closed forms --------------------------------------------------------------


def unit_ball_volume(d):
    return math.pi ** (d / 2.0) / math.gamma(1.0 + d / 2.0)


def unit_sphere_area(d):
    return d * unit_ball_volume(d)


def poisson_constant(d):
    return math.gamma((d + 1) / 2.0) / math.pi ** ((d + 1) / 2.0)


def stable_tail_constant(alpha, d):
    return (
        alpha
        * 2.0 ** (alpha - 1.0)
        * math.pi ** (-1.0 - d / 2.0)
        * math.sin(math.pi * alpha / 2.0)
        * math.gamma((d + alpha) / 2.0)
        * math.gamma(alpha / 2.0)
    )


# --- operations ----------------------------------------------------------------


@dataclass(frozen=True)
class Operation:
    """One CLI invocation and what its output must satisfy.

    ``kind`` is ``sweep-limit``, ``sweep-upper`` or ``bounds`` for the sweep
    workloads and ``verify`` for the battery; ``expected`` is the closed-form
    small-time constant for sweeps and the criterion count for verify.
    """

    name: str
    argv: tuple
    kind: str
    expected: float = 0.0


def _kernel_args(family, d, alpha=None):
    args = ["--family", family, "--d", str(d)]
    if family == "stable":
        args += ["--alpha", repr(alpha)]
    elif family == "poly":
        # kappa_2 n=2 m=1.5: the Cauchy profile in d=2 with (beta, gamma) = (-2, 1)
        args += ["--kappa", repr(poisson_constant(d)), "--n", "2", "--m", "1.5", "--beta=-2", "--gamma", "1"]
    return args


def _limit_constant(family, alpha, d, per, ball_radius=None):
    """(constant, tag) of the scaled-deficit law for one kernel and shape."""
    if family == "gaussian":
        return per / math.sqrt(math.pi), "limit"
    if family == "poly":
        # kappa w_{d-1} Per gamma, with gamma = 1
        return poisson_constant(d) * unit_ball_volume(d - 1) * per, "upper"
    if family == "poisson" or alpha == 1.0:
        return per / math.pi, "limit" if ball_radius is not None else "upper"
    if alpha > 1.0:
        return math.gamma(1.0 - 1.0 / alpha) / math.pi * per, "limit"
    p_alpha = UNIT_BALL_ALPHA_PERIMETER[(alpha, d)] * ball_radius ** (d - alpha)
    return stable_tail_constant(alpha, d) * p_alpha, "limit"


def _case_ops(label, family, d, alpha, shape_args, per, ball_radius):
    const, tag = _limit_constant(family, alpha, d, per, ball_radius)
    kernel = _kernel_args(family, d, alpha)
    ops = [Operation(f"sweep {label}", ("heat", "sweep", *kernel, *shape_args), f"sweep-{tag}", const)]
    if family == "poly":
        ops.append(Operation(f"bounds {label}", ("bounds", *kernel, *shape_args, "--which", "ii"), "bounds"))
    elif family == "gaussian" or (family == "stable" and alpha > 1.0):
        # part (i) needs a finite d-th moment
        ops.append(Operation(f"bounds {label}", ("bounds", *kernel, *shape_args, "--which", "i"), "bounds"))
    return ops


def _ball_ops(rng):
    kernels = [("stable", a, d) for a in BALL_ALPHAS for d in (2, 3)]
    kernels += [(fam, None, d) for fam in ("gaussian", "poisson") for d in (2, 3)]
    kernels.append(("poly", None, 2))
    ops = []
    for family, alpha, d in kernels:
        radius = rng.uniform(*(POLY_BAND if family == "poly" else SCALE_BAND))
        per = unit_sphere_area(d) * radius ** (d - 1)
        label = f"{family}{'' if alpha is None else alpha} d={d} ball R={radius:.4f}"
        shape = ("--shape", "ball", "--radius", repr(radius))
        ops += _case_ops(label, family, d, alpha, shape, per, radius)
    return ops


def _box3d_ops(rng):
    kernels = [("stable", a) for a in BOX_ALPHAS] + [("gaussian", None)]
    ops = []
    for family, alpha in kernels:
        a = rng.uniform(*SCALE_BAND)
        sides = (a, 2.0 * a, 3.0 * a)
        per = 2.0 * (sides[0] * sides[1] + sides[0] * sides[2] + sides[1] * sides[2])
        label = f"{family}{'' if alpha is None else alpha} d=3 box a={a:.4f}"
        shape = ("--shape", "box", "--sides", ",".join(repr(s) for s in sides))
        ops += _case_ops(label, family, 3, alpha, shape, per, None)
    return ops


def sweep_ops(seed):
    """Ball cases, where the sweep pool costs time, then 3-D box cases, where it pays."""
    rng = random.Random(seed)
    return _ball_ops(rng) + _box3d_ops(rng)


def verify_ops(seed):
    battery_seed = VERIFY_SEEDS[seed % len(VERIFY_SEEDS)]
    return [Operation(f"verify seed={battery_seed}", ("verify", "--seed", str(battery_seed)), "verify", VERIFY_CRITERIA)]


WORKLOADS = {
    "sweep": sweep_ops,
    "verify": verify_ops,
}

# StableDensity (alpha, d) pairs each workload evaluates; set-up builds them
# through the package's cached factory before the first timed operation.
DENSITIES = {
    "sweep": [(a, d) for a in BALL_ALPHAS for d in (2, 3)],
    "verify": [(1.0, 2), (0.5, 2)] + [(a, d) for a in (1.2, 1.5, 1.8) for d in (2, 3)],
}


def run_operation(cli_main, op):
    """Run one operation; returns (exit code, captured stdout, error text)."""
    buf = io.StringIO()
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = cli_main(list(op.argv))
    except Exception:  # an operation that raises counts as failed, the run goes on
        return None, buf.getvalue(), traceback.format_exc(limit=-2)
    return code, buf.getvalue(), err.getvalue()


# --- correctness checks ----------------------------------------------------------


def parse_sweep_csv(text):
    """(meta dict, list of row dicts) of a schema-tagged sweep CSV body."""
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# ") and "=" in line:
            key, _, val = line[2:].partition("=")
            meta[key] = val
        elif line.startswith("#") or not line:
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, (float(v) for v in line.split(",")))))
    return meta, rows


def check_sweep(text, kind, expected):
    """None if the sweep output satisfies its law, else the reason it fails."""
    try:
        meta, rows = parse_sweep_csv(text)
    except ValueError as exc:
        return f"unparseable sweep CSV: {exc}"
    if len(rows) < 3 or "extrapolated_limit" not in meta:
        return "sweep CSV lacks rows or the extrapolated_limit line"
    want_tag = "limit" if kind == "sweep-limit" else "upper-bound-only"
    if meta.get("constant_tag") != want_tag:
        return f"constant_tag {meta.get('constant_tag')!r}, expected {want_tag!r}"
    const = rows[-1]["theoretical_constant"]
    if not abs(const - expected) <= CONSTANT_REL_TOL * abs(expected):
        return f"theoretical_constant {const!r} differs from closed form {expected!r}"
    if kind == "sweep-limit":
        limit = float(meta["extrapolated_limit"])
        rel = abs(limit - expected) / abs(expected)
        if not rel <= LIMIT_REL_TOL:
            return f"extrapolated {limit!r} vs {expected!r}: rel {rel:.3e} > {LIMIT_REL_TOL:g}"
        return None
    y_small = rows[-1]["scaled_deficit"]
    if not y_small <= UPPER_BOUND_FACTOR * expected:
        return f"scaled deficit {y_small!r} at t={rows[-1]['t']:g} above {UPPER_BOUND_FACTOR} x {expected!r}"
    return None


_CRITERION_LINE = re.compile(r"^\[(pass|FAIL)\] criterion\s+(\d+)", re.M)
_CRITERION_SECONDS = re.compile(r"^(\[(?:pass|FAIL)\] criterion\s+\d+) \(\s*[0-9.]+s\)", re.M)


def comparable(op, text):
    """Output bytes that must repeat exactly for the same seed.

    Sweep CSV bodies and bound reports repeat as printed; the battery's
    per-criterion lines carry their wall time, which is cut out.
    """
    return _CRITERION_SECONDS.sub(r"\1", text) if op.kind == "verify" else text


def verify_failures(text, expected_count):
    """Number of criteria that failed or did not report, out of ``expected_count``."""
    passed = {int(cid) for status, cid in _CRITERION_LINE.findall(text) if status == "pass"}
    return expected_count - len(passed & set(range(1, expected_count + 1)))


def failed_units(op, code, text):
    """(units attempted, units failed, reason) for one finished operation.

    A unit is the operation itself, except for verify where it is each
    criterion.  Exit code ``None`` means the call raised.
    """
    if op.kind == "verify":
        bad = op.expected if code is None else verify_failures(text, op.expected)
        if code not in (0, None) and bad == 0:
            bad = 1
        return op.expected, bad, None if bad == 0 else f"{bad} criteria failed (exit {code})"
    if code != 0:
        return 1, 1, f"exit code {code}"
    if op.kind == "bounds":
        return 1, 0, None
    reason = check_sweep(text, op.kind, op.expected)
    return 1, 0 if reason is None else 1, reason
