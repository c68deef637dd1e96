"""The built-in verification battery: 17 numbered pass/fail criteria.

Each criterion checks one headline identity, law, bound, or plumbing
guarantee against an independent route (closed form, Monte Carlo, or a
second quadrature), at a fixed tolerance.  ``run_battery`` executes them in
order with one shared context and renders a deterministic CSV body (no
timestamps, fixed formats) so that two runs with the same seed can be
compared byte for byte -- which is itself criterion 17.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import content as hc
from .errors import DivergentMomentError, HeatlabError, RegimeError, _seed
from .geometry import (
    Ball,
    Box,
    alpha_perimeter,
    covariance,
    covariance_ball,
    covariance_mc,
    diameter,
    perimeter,
    perimeter_via_directional,
    radial_profile,
    volume,
)
from .kernel import (
    _DEFAULT_CFG,
    KernelSpec,
    QuadratureConfig,
    eval_p1,
    moment_d,
    moment_d_closed_form,
    poisson_constant,
    stable_tail_constant,
    unit_ball_volume,
)
from .oracle import mc_alpha_perimeter, mc_heat_content
from .reporting import csv_table
from .stable import _gl_nodes_weights


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str
    seconds: float


@dataclass
class Context:
    """Shared state for one battery run: seed, sample sizes, tolerances."""

    seed: int = 0
    quick: bool = False
    cfg: QuadratureConfig = _DEFAULT_CFG

    @property
    def mc_samples(self):
        return 2**17 if self.quick else 10**6


def _rel(a, b):
    return abs(a - b) / abs(b)


# --- criteria ---------------------------------------------------------------


def criterion_01(ctx):
    """General-alpha evaluation at alpha=1 matches the closed Cauchy form."""
    r = np.arange(0.0, 20.0 + 1e-9, 0.25)
    stable = eval_p1(KernelSpec.stable(1.0, 2), r, ctx.cfg)
    closed = eval_p1(KernelSpec.poisson(2), r, ctx.cfg)
    worst = float(np.max(np.abs(stable - closed)))
    return worst <= 1e-8, f"max |stable(1) - cauchy| = {worst:.3e} on 81 radii (tol 1e-8)"


def criterion_02(ctx):
    """d-th moment quadrature matches Gamma((d+1)/2) pi^-((d+1)/2) Gamma(1-1/a)."""
    worst = 0.0
    for alpha in (1.2, 1.5, 1.8):
        for d in (2, 3):
            spec = KernelSpec.stable(alpha, d)
            worst = max(worst, _rel(moment_d(spec, ctx.cfg), moment_d_closed_form(spec)))
    return worst <= 1e-6, f"max rel moment error = {worst:.3e} over {{1.2,1.5,1.8}}x{{2,3}} (tol 1e-6)"


def criterion_03(ctx):
    """Covariance invariants: symmetry, bounds, support, integral, MC agreement."""
    shapes = [Ball(1.0, 2), Box((1.0, 2.0)), Ball(1.0, 3), Box((1.0, 2.0, 3.0))]
    msgs = []
    ok = True
    rng = np.random.default_rng(ctx.seed)
    for shape in shapes:
        d = shape.d
        vol = volume(shape)
        ell = diameter(shape)
        ys = rng.standard_normal((4, d)) * ell / 3.0
        g_plus = np.array([covariance(shape, y) for y in ys])
        g_minus = np.array([covariance(shape, -y) for y in ys])
        sym = float(np.max(np.abs(g_plus - g_minus)))
        bounds_ok = bool(np.all(g_plus >= 0.0) and np.all(g_plus <= vol + 1e-12))
        far = covariance(shape, np.ones(d) * (1.01 * ell / math.sqrt(d)))
        # integral of g over R^d equals |Omega|^2, via the radial profile
        prof = radial_profile(shape)
        edges = np.unique(np.concatenate([np.linspace(0.0, ell, 257), np.asarray(prof.kink_radii)]))
        nodes, weights = _gl_nodes_weights(edges)
        integral = float(np.sum(weights * nodes ** (d - 1) * prof.ghat(nodes)))
        int_rel = _rel(integral, vol * vol)
        ok &= sym <= 1e-10 and bounds_ok and abs(far) == 0.0 and int_rel <= 1e-6
        msgs.append(f"{type(shape).__name__}{d}d: sym={sym:.1e} int_rel={int_rel:.1e}")
        y_mc = ys[0]
        est, err = covariance_mc(shape, y_mc, samples=ctx.mc_samples, seed=ctx.seed)
        z = abs(est - covariance(shape, y_mc)) / max(err, 1e-300)
        ok &= z <= 3.0
        msgs.append(f"mc z={z:.2f}")
    return bool(ok), "; ".join(msgs)


def criterion_04(ctx):
    """Unit-disc lens value and ball covariance vs Monte Carlo."""
    lens = covariance_ball(2, 1.0, 1.0)
    exact = 2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0
    lens_err = abs(lens - exact)
    ok = lens_err <= 1e-10
    msgs = [f"lens |err|={lens_err:.2e} (tol 1e-10)"]
    ball = Ball(1.0, 2)
    for i, a in enumerate((0.2, 0.6, 1.0, 1.4, 1.8)):
        est, err = covariance_mc(ball, np.array([a, 0.0]), samples=ctx.mc_samples, seed=ctx.seed + i)
        z = abs(est - covariance_ball(2, 1.0, a)) / max(err, 1e-300)
        ok &= z <= 3.0
        msgs.append(f"a={a}: z={z:.2f}")
    return bool(ok), "; ".join(msgs)


def criterion_05(ctx):
    """Directional-variation perimeter reproduces three closed values."""
    cases = [
        (Ball(1.0, 2), 2.0 * math.pi),
        (Box((1.0, 1.0)), 4.0),
        (Box((1.0, 2.0, 3.0)), 22.0),
    ]
    worst = 0.0
    for shape, per in cases:
        worst = max(worst, _rel(perimeter_via_directional(shape), per))
    return worst <= 1e-2, f"max rel perimeter error = {worst:.3e} (tol 1e-2)"


def criterion_06(ctx):
    """alpha=1.5 ball: extrapolated deficit/t^(2/3) vs 2 Gamma(1/3)."""
    spec = KernelSpec.stable(1.5, 2)
    ball = Ball(1.0, 2)
    rep = hc.asymptotic_sweep(spec, ball, t_grid=(1e-2, 1e-3, 1e-4, 1e-5), cfg=ctx.cfg)
    target = 2.0 * math.gamma(1.0 / 3.0)
    rel = _rel(rep.extrapolated_limit, target)
    return rel <= 0.05, f"extrapolated {rep.extrapolated_limit:.6f} vs 2*Gamma(1/3)={target:.6f}, rel={rel:.2e} (tol 5e-2)"


def criterion_07(ctx):
    """alpha=1 ball: deficit/(t ln(1/t)) near 2, and under the finite-t bound.

    The finite-t cap comes from the logarithmic-regime inequality for the
    matching polynomial kernel: y(t) <= 2 + lambda(B)/ln(1/t), i.e. slack
    lambda(B)/(2 ln(1/t)) relative to the limit 2.
    """
    ball = Ball(1.0, 2)
    spec = KernelSpec.stable(1.0, 2)
    rep = hc.asymptotic_sweep(spec, ball, cfg=ctx.cfg)
    y_small = rep.scaled_deficits[-1]
    rel = _rel(y_small, 2.0)
    kd = poisson_constant(2)
    poly = KernelSpec.poly_family(d=2, kappa=kd, n=2.0, m=1.5, beta=-2.0, gamma=1.0)
    bc = hc.bound_check_part_ii(poly, ball, cfg=ctx.cfg)
    ok = rel <= 0.10 and bc.all_passed
    return bool(ok), (
        f"y(1e-5)={y_small:.5f} rel={rel:.2%} (tol 10%); finite-t bound all_passed={bc.all_passed}"
    )


def criterion_08(ctx):
    """alpha=0.5 ball: deficit/t limit vs C_{0.5,2} P_0.5(B), P by two routes."""
    ball = Ball(1.0, 2)
    spec = KernelSpec.stable(0.5, 2)
    p_quad = alpha_perimeter(ball, 0.5, cfg=ctx.cfg)
    est = mc_alpha_perimeter(ball, 0.5, samples=ctx.mc_samples, seed=ctx.seed)
    z = abs(est.value - p_quad) / max(est.stderr, 1e-300)
    rep = hc.asymptotic_sweep(spec, ball, cfg=ctx.cfg)
    target = stable_tail_constant(0.5, 2) * p_quad
    rel = _rel(rep.extrapolated_limit, target)
    ok = rel <= 0.05 and z <= 3.0
    return bool(ok), f"extrap rel={rel:.2e} (tol 5e-2); P quad={p_quad:.5f} vs mc={est.value:.5f}±{est.stderr:.5f} z={z:.2f}"


def criterion_09(ctx):
    """Gaussian law: deficit/sqrt(t) vs Per/sqrt(pi) at t=1e-6, ball and box."""
    spec = KernelSpec.gaussian(2)
    worst = 0.0
    msgs = []
    for shape, per in ((Ball(1.0, 2), 2.0 * math.pi), (Box((1.0, 1.0)), 4.0)):
        dtil, _ = hc.scaled_deficit(spec, radial_profile(shape), 1e-6, ctx.cfg)
        y = dtil / math.sqrt(1e-6)
        target = per / math.sqrt(math.pi)
        rel = _rel(y, target)
        worst = max(worst, rel)
        msgs.append(f"{type(shape).__name__}: y={y:.6f} vs {target:.6f} rel={rel:.2e}")
    return worst <= 0.02, "; ".join(msgs) + " (tol 2e-2)"


def criterion_10(ctx):
    """Non-asymptotic perimeter-moment bound over alpha, d, shape, t grids."""
    t_grid = (1e-1, 1e-2, 1e-3, 1e-4)
    ok = True
    worst_margin = -math.inf
    for alpha in (1.2, 1.8):
        for d in (2, 3):
            for shape in (Ball(1.0, d), Box((1.0, 2.0)) if d == 2 else Box((1.0, 2.0, 3.0))):
                spec = KernelSpec.stable(alpha, d)
                bc = hc.bound_check_part_i(spec, shape, t_grid=t_grid, cfg=ctx.cfg)
                ok &= bc.all_passed
                margin = max(l / r for l, r in zip(bc.lhs, bc.rhs))
                worst_margin = max(worst_margin, margin)
    return bool(ok), f"all hold; max lhs/rhs = {worst_margin:.4f} over 8 (alpha,d,shape) combos x 4 t"


def criterion_11(ctx):
    """Log-regime bound with lambda(B), plus its closed-form evaluation."""
    ball = Ball(1.0, 2)
    kd = poisson_constant(2)
    poly = KernelSpec.poly_family(d=2, kappa=kd, n=2.0, m=1.5, beta=-2.0, gamma=1.0)
    lam = hc.poly_lambda(poly, ball, cfg=ctx.cfg)
    head = math.log(1.0 + math.sqrt(2.0)) - 1.0 / math.sqrt(2.0)
    lam_closed = math.pi / 2.0 * 2.0 * math.pi * kd + kd * 2.0 * (2.0 * math.pi) * (math.log(2.0) + head)
    lam_err = abs(lam - lam_closed)
    bc = hc.bound_check_part_ii(poly, ball, t_grid=(0.5, 0.1, 1e-3), cfg=ctx.cfg)
    # pointwise bound only: the limsup side-check needs a grid reaching
    # t ~ 1e-5 to be meaningful and is exercised by criterion 7
    pointwise = all(bc.passed)
    ok = lam_err <= 1e-8 and pointwise
    return bool(ok), f"lambda={lam:.10f} |err|={lam_err:.1e} (tol 1e-8); pointwise bound holds: {pointwise}"


def criterion_12(ctx):
    """Cauchy-kernel ball decomposition identity and its two side conditions."""
    ok = True
    msgs = []
    for d in (2, 3):
        ball = Ball(1.0, d)
        prof = radial_profile(ball)
        spec = KernelSpec.poisson(d)
        per = perimeter(ball)
        volb = unit_ball_volume(d)
        worst = 0.0
        for res in hc.heat_contents(spec, prof, (0.5, 0.1, 0.01), ctx.cfg):
            n1, n2 = hc.ball_poisson_decomposition(d, res.t, ctx.cfg)
            ident = n1 - per / math.pi * res.t * n2
            worst = max(worst, abs(res.H - ident))
            ok &= n1 <= volb + 1e-12
        n2s = []
        for t in (1e-4, 1e-5, 1e-6):
            _, n2 = hc.ball_poisson_decomposition(d, t, ctx.cfg)
            n2s.append(n2)
        ratio = n2s[-1] / math.log(1e6)
        # N2 itself grows as t decreases (domain and integrand both grow);
        # the normalized ratio tends to 1 from above in d=2, below in d=3
        ok &= worst <= 1e-6 and ratio >= 0.9 and n2s[0] < n2s[1] < n2s[2]
        msgs.append(f"d={d}: max|H-ident|={worst:.2e}, N2/ln(1e6)={ratio:.4f}, N2 increasing: {n2s[0] < n2s[1] < n2s[2]}")
    return bool(ok), "; ".join(msgs) + " (tol 1e-6)"


def criterion_13(ctx):
    """Constant algebra: alpha=1 tail constant, kappa_d w_{d-1} = 1/pi, alpha=2."""
    worst = 0.0
    for d in (2, 3, 5):
        worst = max(worst, abs(stable_tail_constant(1.0, d) - poisson_constant(d)))
        worst = max(worst, abs(poisson_constant(d) * unit_ball_volume(d - 1) - 1.0 / math.pi))
    # Gamma(1/2) = sqrt(pi) holds bit-for-bit, and the Gaussian constant is
    # defined through the alpha=2 endpoint of the stable formula
    ball = Ball(1.0, 2)
    exact = (
        math.gamma(0.5) == math.sqrt(math.pi)
        and hc.theoretical_constant(KernelSpec.gaussian(2), ball)
        == hc.stable_limit_constant(2.0, perimeter(ball))
    )
    return worst <= 1e-12 and exact, f"max const dev = {worst:.2e} (tol 1e-12); alpha=2 identity exact: {exact}"


def criterion_14(ctx):
    """Monte Carlo pair estimator brackets the quadrature heat content."""
    ok = True
    msgs = []
    specs = [KernelSpec.stable(alpha, 2) for alpha in (1.0, 1.5)]
    cases = [(spec, t) for spec in specs for t in (0.1, 0.01)]
    for shape in (Ball(1.0, 2), Box((1.0, 1.0))):
        prof = radial_profile(shape)
        ests = mc_heat_content(shape, cases, samples=ctx.mc_samples, seed=ctx.seed)
        results = [res for spec in specs for res in hc.heat_contents(spec, prof, (0.1, 0.01), ctx.cfg)]
        for (spec, t), est, res in zip(cases, ests, results):
            z = abs(est.value - res.H) / max(est.stderr, 1e-300)
            ok &= abs(est.value - res.H) <= 3.0 * est.stderr + res.quad_error
            msgs.append(f"a={spec.alpha},t={t}: z={z:.2f}")
    return bool(ok), "; ".join(msgs) + " (3 sigma)"


def criterion_15(ctx):
    """alpha-perimeter scaling P_a(R B) = R^{d-a} P_a(B) at R=2, a=0.5, d=2."""
    p1 = alpha_perimeter(Ball(1.0, 2), 0.5, cfg=ctx.cfg)
    p2 = alpha_perimeter(Ball(2.0, 2), 0.5, cfg=ctx.cfg)
    rel = _rel(p2, 2.0**1.5 * p1)
    return rel <= 1e-3, f"P(2B)/P(B) = {p2 / p1:.8f} vs 2^1.5 = {2.0 ** 1.5:.8f}, rel={rel:.2e} (tol 1e-3)"


def criterion_16(ctx):
    """Out-of-regime requests raise typed errors instead of returning numbers."""
    ok_moment = ok_perim = False
    try:
        moment_d(KernelSpec.stable(0.8, 2), ctx.cfg)
    except DivergentMomentError:
        ok_moment = True
    try:
        alpha_perimeter(Ball(1.0, 2), 1.3, cfg=ctx.cfg)
    except RegimeError:
        ok_perim = True
    return ok_moment and ok_perim, f"moment alpha=0.8 raises: {ok_moment}; alpha_perimeter alpha=1.3 raises: {ok_perim}"


def criterion_17(ctx):
    """Two identical-seed battery runs emit byte-identical CSV bodies."""
    body1 = run_battery(seed=ctx.seed, quick=True, include_17=False, cfg=ctx.cfg)[1]
    body2 = run_battery(seed=ctx.seed, quick=True, include_17=False, cfg=ctx.cfg)[1]
    same = body1 == body2
    return same, f"quick battery CSV bodies identical: {same} ({len(body1)} bytes)"


_CRITERIA = {
    1: criterion_01,
    2: criterion_02,
    3: criterion_03,
    4: criterion_04,
    5: criterion_05,
    6: criterion_06,
    7: criterion_07,
    8: criterion_08,
    9: criterion_09,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
    13: criterion_13,
    14: criterion_14,
    15: criterion_15,
    16: criterion_16,
    17: criterion_17,
}


def run_criterion(cid, ctx) -> CriterionResult:
    fn = _CRITERIA[cid]
    t0 = time.perf_counter()
    try:
        passed, detail = fn(ctx)
    except (HeatlabError, ValueError, ArithmeticError) as exc:
        # a criterion that cannot even be evaluated (e.g. under a sabotaged
        # tolerance config) counts as failed, not as a battery crash
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    name = fn.__doc__.splitlines()[0].rstrip(".")
    return CriterionResult(cid=cid, name=name, passed=passed, detail=detail, seconds=dt)


def run_battery(seed=0, quick=False, include_17=True, cfg=None):
    """Run the numbered criteria in order; returns (results, csv_body).

    The CSV body holds no timings, so identical seeds give identical bytes.
    """
    seed = _seed(seed)
    ctx = Context(seed=seed, quick=quick, cfg=cfg or _DEFAULT_CFG)
    cids = [c for c in sorted(_CRITERIA) if include_17 or c != 17]
    results = [run_criterion(cid, ctx) for cid in cids]
    rows = [(r.cid, r.name, "pass" if r.passed else "FAIL", r.detail) for r in results]
    body = csv_table(
        ("criterion", "name", "status", "detail"),
        rows,
        meta={"seed": seed, "quick": quick, "mc_samples": ctx.mc_samples},
    )
    return results, body
