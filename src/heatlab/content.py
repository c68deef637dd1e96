"""Heat content of bounded sets under radial kernels, with small-time laws.

Everything is driven by the covariance representation: for a radial kernel
with scaling exponents (beta, gamma),

    t^{-(beta + d*gamma)} * H(t) = int_0^inf r^{d-1} p_1(r) ghat(t^gamma r) dr,

where ghat is the spherical integral of the set covariance.  Since ghat is
supported on [0, ell] the substitution confines everything to r <= ell *
t^{-gamma}, and the *deficit*

    D(t) = t^{beta+d*gamma} ||p_1||_1 |Omega| - H(t)
         = t^{beta+d*gamma} int_0^inf r^{d-1} p_1(r) (A_d |Omega| - ghat(t^gamma r)) dr

has a nonnegative integrand.  It is ``CovarianceProfile.ghat_deficit``, in
closed form, so small-t values carry no cancellation as computed either.  The
module computes H and the deficit on that route, extrapolates the scaled
deficit to its small-time limit per regime, evaluates the matching limit
constants, and runs the two perimeter-type upper-bound checks plus the
closed-form Cauchy-kernel ball decomposition used as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import QuadratureError, RegimeError, _check_time, _t_grid
from .geometry import (
    Ball,
    CovarianceProfile,
    alpha_perimeter,
    diameter,
    perimeter,
    radial_profile,
    theta,
    volume,
)
from .kernel import (
    _DEFAULT_CFG,
    _GK_NODES,
    _LEVELS,
    GAUSSIAN,
    POLY,
    STABLE,
    KernelSpec,
    _density,
    _gk_nodes,
    _gk_sums,
    _radial_integral,
    _refine,
    _settles,
    eval_p1,
    l1_norm_closed_form,
    moment_d,
    poisson_constant,
    stable_tail_constant,
    unit_ball_volume,
    unit_sphere_area,
)
from .kernel import tail_mass as _kernel_tail_mass

_LOG_MAX = math.log(np.finfo(float).max)  # the deficit integrand overflows beyond it

# Regime labels for the small-time law of the deficit.
REGIME_ALPHA_GT_1 = "alpha_gt_1"
REGIME_ALPHA_EQ_1 = "alpha_eq_1"
REGIME_ALPHA_LT_1 = "alpha_lt_1"
REGIME_GAUSSIAN = "gaussian"
REGIME_POLY = "poly_family"

# Default sweep grid: log-spaced, decreasing.
DEFAULT_T_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)

TAG_LIMIT = "limit"
TAG_UPPER_BOUND = "upper-bound-only"


@dataclass(frozen=True)
class HeatContentResult:
    """Heat content at one time, with the deficit and a quadrature error bar."""

    t: float
    H: float
    deficit: float
    quad_error: float

    def __post_init__(self):
        _check_time(self.t)


@dataclass(frozen=True)
class AsymptoticReport:
    """Scaled deficits over a decreasing t-grid and their extrapolated limit.

    ``scaled_deficits[i]`` is deficit(t_i) * t_i^{-(beta+d*gamma)} / s(t_i)
    with s the regime scaling; ``constant_tag`` is ``"limit"`` when the
    theoretical constant is an actual limit and ``"upper-bound-only"`` when
    only a one-sided comparison is available.  ``monotone`` flags whether the
    scaled sequence settled monotonically over the tail of the grid.
    """

    regime: str
    t_grid: tuple
    scaled_deficits: tuple
    extrapolated_limit: float
    theoretical_constant: float
    rel_error_at_smallest_t: float
    constant_tag: str = TAG_LIMIT
    monotone: bool = True

    def __post_init__(self):
        _t_grid(self.t_grid, 2)


@dataclass(frozen=True)
class BoundCheckReport:
    """Pointwise comparison lhs(t) <= rhs(t) + slack(t) over a t-grid."""

    name: str
    t_grid: tuple
    lhs: tuple
    rhs: tuple
    slack: tuple
    passed: tuple
    failures: tuple
    all_passed: bool
    extra: dict = field(default_factory=dict, compare=False)


def regime_of(spec: KernelSpec) -> str:
    if spec.family == GAUSSIAN:
        return REGIME_GAUSSIAN
    if spec.family == POLY:
        return REGIME_POLY
    alpha = spec.alpha
    if alpha > 1.0:
        return REGIME_ALPHA_GT_1
    if alpha == 1.0:
        return REGIME_ALPHA_EQ_1
    return REGIME_ALPHA_LT_1


def regime_scaling(spec: KernelSpec, t) -> np.ndarray:
    """The normalising s(t) the scaled deficit is divided by, per regime."""
    t = np.asarray(t, dtype=float)
    bad = ~((t > 0.0) & (t < math.inf))  # NaN included
    if bad.any():
        _check_time(t[bad][0])
    reg = regime_of(spec)
    if reg == REGIME_ALPHA_GT_1:
        return t ** (1.0 / spec.alpha)
    if reg == REGIME_GAUSSIAN:
        return np.sqrt(t)
    if reg == REGIME_ALPHA_LT_1:
        return t
    # log regimes need t < 1 for a positive normaliser
    if np.any(t >= 1.0):
        raise RegimeError("log-regime scaling t*ln(1/t) requires t < 1")
    logt = np.log(1.0 / t)
    if reg == REGIME_ALPHA_EQ_1:
        return t * logt
    gamma = spec.scaling().gamma
    return t**gamma * logt


# ---------------------------------------------------------------------------
# deficit quadrature


_GRID_CHUNK = 2**16  # nodes per p_1 and ghat_deficit call: a long t-grid keeps a bounded working set


def _deficit_plan(spec, profile, t, cfg):
    """(t, t^gamma, r*, panel breaks) of D~(t), after its range checks."""
    _check_time(t)
    if spec.d != profile.d:
        raise ValueError(f"kernel dimension {spec.d} != profile dimension {profile.d}")
    d, ell, gamma = spec.d, profile.support_radius, spec.scaling().gamma
    try:
        tg = float(t) ** gamma
    except OverflowError:
        raise ValueError(f"t too large: t**{gamma:g} overflows, got {t}") from None
    r_star = ell / tg if tg > 0.0 else math.inf
    if max(d, spec.n or 0) * math.log(r_star) >= _LOG_MAX:
        scale = f"shape diameter ell={ell:.3g}, t={t:g}, gamma={gamma:g}"
        raise QuadratureError(f"the deficit integrand overflows at r* = ell t^-gamma = {r_star:.3g} ({scale})")
    # p_1 jumps by the tail series' error at r_switch, so it is a break too
    breaks = [k / tg for k in profile.kink_radii]
    if spec.family == STABLE:
        breaks.append(_density(spec, cfg).r_switch)
    return t, tg, r_star, breaks


def _level_chunks(plans, found, level):
    """(entries (i, plan), nodes, half-widths, panel count per entry) of the
    unsettled times at ``level``, in chunks closed once they hold
    ``_GRID_CHUNK`` nodes: a chunk passes that by at most one time's nodes.

    A time's panel edges on [0, r*] are a linear head on [0, min(1, r*)], the
    geometric body 1.3^{k/level} below r*, r* and the breaks (the box kinks
    and r_switch, so each panel sees an analytic integrand), sorted, less the
    near-duplicates that would make zero-width panels (r* twice if <= 1).
    The body is one ``np.multiply.accumulate`` per level up to the largest r*:
    its products do not depend on its length, so each time's body is a prefix
    of it.  A chunk's Kronrod nodes come from one ``_gk_nodes`` call on its
    times' edges, less the panels joining one time's r* to the next one's 0.
    """
    todo = [i for i, f in enumerate(found) if f is None]
    if not todo:
        return
    ratio, head = 1.3 ** (1.0 / level), np.linspace(0.0, 1.0, 8 * level + 1)
    grow = np.full(int(math.log(max(1.0, *(plans[i][2] for i in todo))) / math.log(ratio)) + 3, ratio)
    grow[0] = 1.0
    body = np.multiply.accumulate(grow)[1:]
    entries, ends, size = [], [], 0
    for i, cut in zip(todo, np.searchsorted(body, [plans[i][2] for i in todo]).tolist()):
        r_star, breaks = plans[i][2:4]
        top = head if r_star >= 1.0 else np.linspace(0.0, r_star, 8 * level + 1)
        edges = np.sort(np.concatenate([top, body[:cut], [r_star], [k for k in breaks if 0.0 < k < r_star]]))
        ends.append(edges[np.concatenate([[True], edges[1:] - edges[:-1] > 1e-14 * edges[1:]])])
        entries.append((i, plans[i]))
        size += _GK_NODES.size * (ends[-1].size - 1)
        if size >= _GRID_CHUNK or i == todo[-1]:
            keep = np.ones(size // _GK_NODES.size + len(ends) - 1, dtype=bool)
            keep[np.cumsum([e.size for e in ends])[:-1] - 1] = False
            yield (entries, *_gk_nodes(np.concatenate(ends), keep), [e.size - 1 for e in ends])
            entries, ends, size = [], [], 0


def _level_values(spec, profile, cfg, chunk):
    """(i, D~, its Kronrod-Gauss error) at this level for each entry of
    ``chunk``: one eval_p1, one ghat_deficit and at most one tail-mass call for
    the whole chunk, the integrand formed once over it and each time's panel
    sums added over its own slice."""
    entries, nodes, half, counts = chunk
    f = nodes ** (spec.d - 1)
    p_vals = eval_p1(spec, nodes, cfg)
    f *= p_vals
    args = np.repeat([tg for _, (_, tg, *_) in entries], np.multiply(counts, _GK_NODES.size))
    args *= nodes
    f *= profile.ghat_deficit(args)
    sums, errs = _gk_sums(f, half)
    starts = np.cumsum([0, *counts[:-1]])
    # each time's smallest node where p_1 underflows (inf if none) bounds the tail it drops
    lost = np.minimum.reduceat(np.where(p_vals < np.finfo(float).tiny, nodes, math.inf), starts * _GK_NODES.size)
    bounds, some = np.zeros(len(counts)), lost < math.inf
    if some.any():
        bounds[some] = unit_sphere_area(spec.d) * profile.volume * _kernel_tail_mass(spec, lost[some], cfg)
    for (i, (t, *_, tail)), a, n, r_lost, bound in zip(entries, starts.tolist(), counts, lost.tolist(), bounds.tolist()):
        value = float(np.sum(sums[a : a + n])) + tail
        if bound > cfg.rel_tol * value:
            msg = f"t={t:g}: p_1 underflows from r={r_lost:.3g}, where its tail carries {bound:.2e}"
            raise QuadratureError(f"{msg} of D~={value:.2e}", residual=bound)
        yield i, value, float(np.sum(errs[a : a + n]))


def _scaled_deficits(spec, profile, t_grid, cfg):
    """[(D~(t), error bar)] for each t of ``t_grid``, the times refined together.

    D~(t) = deficit(t) t^{-(beta+d*gamma)} = int r^{d-1} p_1(r) ghat_deficit(t^g r) dr
    on panels of [0, r*], r* = ell t^-g, broken at the profile's kinks and at
    r_switch, plus A_d|Omega| times the tail mass beyond r*.  Each panel takes
    the Kronrod-33 sum and its distance from the embedded Gauss-16 sum; a t
    settles at the first level whose summed distances meet ``kernel._settles``
    (level 1 for every t of the perfbench sweeps; 2, 4 and 8 double the
    panels for a t that misses), with that sum plus abs_tol as its error bar.  The
    grid's tail masses come from one ``tail_mass`` call; a level's unsettled
    times share one node build, one ``eval_p1``, one ``ghat_deficit`` and at
    most one ``tail_mass`` call (where p_1 underflows) per ``_GRID_CHUNK``
    nodes, each radius and lower limit computed on its own, so each t keeps
    the bits it has alone.  Raises QuadratureError where no level settles,
    r^{max(d, n)} (n: the poly exponent) overflows at r*, or p_1 underflows
    where its tail carries rel_tol of D~: the first failing t's error.
    """
    try:
        plans = [_deficit_plan(spec, profile, t, cfg) for t in t_grid]
        # every time's tail term A_d |Omega| int_{r*}^inf r^{d-1} p_1 dr, from one call
        advol = unit_sphere_area(spec.d) * profile.volume
        tails = advol * _kernel_tail_mass(spec, np.array([plan[2] for plan in plans]), cfg)
        plans = [(*plan, tail) for plan, tail in zip(plans, tails.tolist())]
        found = [None] * len(plans)
        for level in _LEVELS:
            for chunk in _level_chunks(plans, found, level):
                for i, value, err in _level_values(spec, profile, cfg, chunk):
                    if _settles(value, err, level, cfg, f"deficit quadrature at t={plans[i][0]:g}"):
                        found[i] = (value, err + cfg.abs_tol)
        return found
    except Exception:  # of any type: re-raised, or raised again by the per-time loop
        if len(t_grid) == 1:
            raise
        # a later time may have failed first: the loop raises the first failing t's error
        return [_scaled_deficits(spec, profile, (t,), cfg)[0] for t in t_grid]


def scaled_deficit(spec: KernelSpec, profile: CovarianceProfile, t: float, cfg=None):
    """(D~(t), error bar): the one-point grid of ``_scaled_deficits``."""
    return _scaled_deficits(spec, profile, (t,), cfg or _DEFAULT_CFG)[0]


def _heat_content_result(spec, profile, t, dtil, err) -> HeatContentResult:
    """H(t), the deficit and its error bar from the scaled deficit D~(t)."""
    sc = spec.scaling()
    power = sc.beta + spec.d * sc.gamma
    try:
        pref = t**power
    except OverflowError:
        raise ValueError(f"t too {'large' if t > 1.0 else 'small'}: t**{power:g} overflows, got {t}") from None
    total = l1_norm_closed_form(spec) * profile.volume
    return HeatContentResult(t=t, H=pref * (total - dtil), deficit=pref * dtil, quad_error=pref * err)


def heat_contents(spec: KernelSpec, profile: CovarianceProfile, t_grid, cfg=None) -> list:
    """``heat_content`` at each t of ``t_grid``, the times refined together."""
    dtils = _scaled_deficits(spec, profile, t_grid, cfg or _DEFAULT_CFG)
    return [_heat_content_result(spec, profile, t, dtil, err) for t, (dtil, err) in zip(t_grid, dtils)]


def heat_content(spec: KernelSpec, profile: CovarianceProfile, t: float, cfg=None) -> HeatContentResult:
    """H(t) = int int_{Omega x Omega} p_t(x - y), via the covariance route."""
    return heat_contents(spec, profile, (t,), cfg)[0]


# ---------------------------------------------------------------------------
# limit constants


def stable_limit_constant(alpha: float, perimeter_value: float) -> float:
    """(1/pi) Gamma(1 - 1/alpha) Per(Omega) for alpha in (1, 2].

    At alpha = 2 this reduces algebraically to Per/sqrt(pi), the Gaussian
    constant, since Gamma(1/2) = sqrt(pi).
    """
    if not 1.0 < alpha <= 2.0:
        raise RegimeError(f"limit constant (1/pi)Gamma(1-1/alpha)Per needs alpha in (1,2], got {alpha}")
    return math.gamma(1.0 - 1.0 / alpha) / math.pi * perimeter_value


def constant_tag(spec: KernelSpec, shape) -> str:
    """Whether the theoretical constant is a sharp limit or only a bound."""
    reg = regime_of(spec)
    if reg == REGIME_POLY:
        return TAG_UPPER_BOUND
    if reg == REGIME_ALPHA_EQ_1 and not isinstance(shape, Ball):
        return TAG_UPPER_BOUND
    return TAG_LIMIT


def theoretical_constant(spec: KernelSpec, shape, cfg=None) -> float:
    """Small-time constant for the scaled deficit in the regime of ``spec``.

    alpha in (1,2): (1/pi) Gamma(1-1/alpha) Per; alpha = 1: (1/pi) Per (sharp
    only for balls -- see :func:`constant_tag`); alpha < 1: C_{alpha,d} times
    the alpha-perimeter; Gaussian: Per/sqrt(pi); polynomial family: the
    kappa * w_{d-1} * Per * gamma upper envelope of the log term.
    """
    cfg = cfg or _DEFAULT_CFG
    reg = regime_of(spec)
    d = spec.d
    w = unit_ball_volume(d - 1)
    if reg == REGIME_ALPHA_GT_1:
        return stable_limit_constant(spec.alpha, perimeter(shape))
    if reg == REGIME_GAUSSIAN:
        # Per/sqrt(pi), written as the alpha=2 endpoint of the stable formula
        # so the two regimes agree exactly, not just to rounding
        return stable_limit_constant(2.0, perimeter(shape))
    if reg == REGIME_ALPHA_EQ_1:
        return perimeter(shape) / math.pi
    if reg == REGIME_ALPHA_LT_1:
        return stable_tail_constant(spec.alpha, d) * alpha_perimeter(shape, spec.alpha, cfg=cfg)
    # polynomial family: coefficient of the t^gamma * ln(1/t) envelope
    return spec.kappa * w * perimeter(shape) * spec.gamma


# ---------------------------------------------------------------------------
# sweeps


def _sweep_inputs(shape, t_grid, least):
    """The checked grid (DEFAULT_T_GRID if None) of >= ``least`` times and the shape's profile."""
    return _t_grid(DEFAULT_T_GRID if t_grid is None else t_grid, least), radial_profile(shape)


def _fit_abscissa(spec, t):
    """Correction variable x(t) so that y(t) ~ c + a*x(t) near t = 0.

    Rates were calibrated against the closed-form Cauchy-kernel ball
    decomposition: the saturation of ghat at the diameter scale contributes
    O(t^{1-1/alpha}) relative corrections for alpha in (1,2), O(sqrt(t)) for
    the Gaussian, O(t^{min(1/alpha,2)-1}) for alpha < 1, and O(1/ln(1/t)) in
    the log regimes.
    """
    t = np.asarray(t, dtype=float)
    reg = regime_of(spec)
    if reg == REGIME_ALPHA_GT_1:
        return t ** (1.0 - 1.0 / spec.alpha)
    if reg == REGIME_GAUSSIAN:
        return np.sqrt(t)
    if reg == REGIME_ALPHA_LT_1:
        return t ** (min(1.0 / spec.alpha, 2.0) - 1.0)
    return 1.0 / np.log(1.0 / t)


def heat_sweep(spec: KernelSpec, shape, t_grid=None, cfg=None):
    """One pass over a decreasing grid: (AsymptoticReport, [HeatContentResult]).

    D~(t) is computed once per grid point, the times refined together; the
    report's scaled deficits and the per-t heat contents both derive from it.  The last three grid points
    are fit linearly against the regime's correction variable; the intercept
    is the extrapolated limit.
    """
    cfg = cfg or _DEFAULT_CFG
    t_grid, profile = _sweep_inputs(shape, t_grid, 3)
    dtils, errs = zip(*_scaled_deficits(spec, profile, t_grid, cfg))
    results = [_heat_content_result(spec, profile, t, v, e) for t, v, e in zip(t_grid, dtils, errs)]
    s_vals = regime_scaling(spec, np.asarray(t_grid))
    y = np.asarray(dtils) / s_vals
    x = _fit_abscissa(spec, np.asarray(t_grid))
    coef = np.polyfit(x[-3:], y[-3:], 1)
    limit = float(coef[1])
    const = theoretical_constant(spec, shape, cfg=cfg)
    rel = abs(y[-1] - const) / abs(const) if const != 0.0 else math.inf
    tail_diffs = np.diff(y[1:]) if len(y) > 3 else np.diff(y)
    mono = bool(np.all(tail_diffs >= 0.0) or np.all(tail_diffs <= 0.0))
    report = AsymptoticReport(
        regime=regime_of(spec),
        t_grid=t_grid,
        scaled_deficits=tuple(float(v) for v in y),
        extrapolated_limit=limit,
        theoretical_constant=const,
        rel_error_at_smallest_t=float(rel),
        constant_tag=constant_tag(spec, shape),
        monotone=mono,
    )
    return report, results


def asymptotic_sweep(spec: KernelSpec, shape, t_grid=None, cfg=None) -> AsymptoticReport:
    """Scaled deficits over a decreasing grid, extrapolated to t -> 0."""
    return heat_sweep(spec, shape, t_grid=t_grid, cfg=cfg)[0]


# ---------------------------------------------------------------------------
# bound checks


def _bound_check(name, spec, shape, t_grid, cfg, rhs_of, extra) -> BoundCheckReport:
    """Pointwise D~(t) <= rhs_of(t) + slack, slack twice the quadrature error."""
    t_grid, profile = _sweep_inputs(shape, t_grid, 1)
    rhs = [rhs_of(t) for t in t_grid]
    lhs, errs = zip(*_scaled_deficits(spec, profile, t_grid, cfg))
    slack = [2.0 * (e + cfg.abs_tol) + 1e-12 * abs(r) for e, r in zip(errs, rhs)]
    passed = [l <= r + s for l, r, s in zip(lhs, rhs, slack)]
    failures = tuple(
        f"t={t:g}: lhs {l:.6e} > rhs {r:.6e} + slack {s:.1e}"
        for t, l, r, s, ok in zip(t_grid, lhs, rhs, slack, passed)
        if not ok
    )
    return BoundCheckReport(
        name=name,
        t_grid=t_grid,
        lhs=tuple(lhs),
        rhs=tuple(rhs),
        slack=tuple(slack),
        passed=tuple(passed),
        failures=failures,
        all_passed=all(passed),
        extra=extra,
    )


def bound_check_part_i(spec: KernelSpec, shape, t_grid=None, cfg=None) -> BoundCheckReport:
    """Checks D~(t) <= t^gamma * w_{d-1} * Per(Omega) * int r^d p_1 for all t.

    The right side is finite only when the kernel has a finite d-th radial
    moment (alpha > 1, Gaussian); the comparison allows twice the summed
    quadrature error as slack.
    """
    cfg = cfg or _DEFAULT_CFG
    gamma = spec.scaling().gamma
    w = unit_ball_volume(spec.d - 1)
    per = perimeter(shape)
    mom = moment_d(spec, cfg)
    rhs_of = lambda t: t**gamma * w * per * mom
    extra = {"moment_d": mom, "perimeter": per}
    return _bound_check("perimeter-moment bound", spec, shape, t_grid, cfg, rhs_of, extra)


def poly_lambda(spec: KernelSpec, shape, cfg=None) -> float:
    """The t-independent coefficient lambda(Omega) in the log-regime bound.

    lambda = |Omega| * ell^{-1} * A_d * kappa
           + kappa * w_{d-1} * Per * (ln ell + int_0^1 r^d (1+r^n)^{-m} dr),

    the integral being ``kernel._radial_integral`` of r^d p_1 / kappa under
    ``cfg``.
    """
    cfg = cfg or _DEFAULT_CFG
    if spec.family != POLY:
        raise RegimeError("poly_lambda is defined for the polynomial family only")
    d, kappa = spec.d, spec.kappa
    vol = volume(shape)
    ell = diameter(shape)
    w = unit_ball_volume(d - 1)
    per = perimeter(shape)
    head = _radial_integral(spec, d, 0.0, 1.0, cfg) / kappa
    return vol / ell * unit_sphere_area(d) * kappa + kappa * w * per * (math.log(ell) + head)


def bound_check_part_ii(spec: KernelSpec, shape, t_grid=None, cfg=None) -> BoundCheckReport:
    """Log-regime bound D~(t) <= t^gamma (lambda + kappa w_{d-1} Per gamma ln(1/t)).

    Valid for the polynomial family whenever t^gamma < ell; also reports the
    limsup comparison of the scaled deficit at the smallest t against the
    envelope constant kappa * w_{d-1} * Per * gamma (10% headroom).
    """
    cfg = cfg or _DEFAULT_CFG
    if spec.family != POLY:
        raise RegimeError("bound_check_part_ii applies to the polynomial family only")
    gamma = spec.scaling().gamma
    ell = diameter(shape)
    lam = poly_lambda(spec, shape, cfg=cfg)
    w = unit_ball_volume(spec.d - 1)
    env = spec.kappa * w * perimeter(shape) * gamma

    def rhs_of(t):
        try:
            tg = t**gamma
        except OverflowError:
            tg = math.inf
        if tg >= ell:
            raise RegimeError(f"bound requires t^gamma < ell; violated at t={t:g}")
        return tg * (lam + env * math.log(1.0 / t))

    extra = {"lambda": lam, "envelope_constant": env}
    rep = _bound_check("log-regime bound", spec, shape, t_grid, cfg, rhs_of, extra)
    t_min = rep.t_grid[-1]
    if t_min >= 1.0:
        raise RegimeError(f"the limsup side-check needs a smallest t below 1, got t={t_min:g}")
    limsup_ratio = rep.lhs[-1] / (t_min**gamma * math.log(1.0 / t_min)) / env
    limsup_ok = limsup_ratio <= 1.1
    failures = rep.failures
    if not limsup_ok:
        failures += (f"limsup ratio {limsup_ratio:.4f} > 1.1 at t={t_min:g}",)
    return replace(
        rep,
        failures=failures,
        all_passed=rep.all_passed and limsup_ok,
        extra={**rep.extra, "limsup_ratio": limsup_ratio},
    )


# ---------------------------------------------------------------------------
# Cauchy-kernel ball decomposition (closed-form oracle)


def ball_poisson_decomposition(d: int, t: float, cfg=None):
    """(N1, N2) in the unit-ball Cauchy-kernel identity H = N1 - Per/pi * t * N2.

    N1 = 2 A_d A_{d-1} kappa_d int_0^{2/t} r^{d-1} (1+r^2)^{-(d+1)/2}
         Theta(sqrt(1 - t^2 r^2/4)) dr, and
    N2 = int_0^{2/t} r^d (1+r^2)^{-(d+1)/2} (1 - t^2 r^2/4)^{(d-1)/2} dr.
    Requires 0 < t < 2 (the covariance support).  Composite Gauss-Kronrod
    (G16/K33) on 60 panels per level, at the first level whose Kronrod-Gauss
    errors settle (``kernel._refine``).
    """
    cfg = cfg or _DEFAULT_CFG
    if not 0.0 < t < 2.0:
        raise ValueError(f"decomposition needs 0 < t < 2, got {t}")
    pref = 2.0 * unit_sphere_area(d) * unit_sphere_area(d - 1) * poisson_constant(d)

    def once(level):
        # substitute r = (2/t) sin(psi): the (1 - t^2 r^2 / 4)^{(d-1)/2} factor
        # becomes cos^{d-1}(psi), smooth up to the endpoint
        psi_edges = np.concatenate([[0.0], np.geomspace(1e-9, 1.0, 60 * level)]) * (math.pi / 2.0)
        nodes, half = _gk_nodes(psi_edges)
        s, c = np.sin(nodes), np.cos(nodes)
        r = (2.0 / t) * s
        base = r ** (d - 1) * (1.0 + r * r) ** (-(d + 1) / 2.0) * ((2.0 / t) * c)
        n1, e1 = _gk_sums(base * theta(d, np.clip(c, 0.0, 1.0)), half)
        n2, e2 = _gk_sums(base * r * c ** (d - 1), half)
        return (pref * float(n1.sum()), float(n2.sum())), (pref * float(e1.sum()), float(e2.sum()))

    return _refine(once, cfg, "ball decomposition quadrature")[0]
