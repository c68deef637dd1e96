"""Heat content engine: deficit route, regimes, sweeps, bounds, decomposition."""

import math
import warnings

import numpy as np
import pytest

from heatlab import content
from heatlab.content import (
    DEFAULT_T_GRID,
    HeatContentResult,
    REGIME_ALPHA_EQ_1,
    REGIME_ALPHA_GT_1,
    REGIME_ALPHA_LT_1,
    REGIME_GAUSSIAN,
    REGIME_POLY,
    TAG_LIMIT,
    TAG_UPPER_BOUND,
    asymptotic_sweep,
    ball_poisson_decomposition,
    bound_check_part_i,
    bound_check_part_ii,
    constant_tag,
    heat_content,
    poly_lambda,
    regime_of,
    regime_scaling,
    scaled_deficit,
    stable_limit_constant,
    theoretical_constant,
)
from heatlab.errors import DivergentMomentError, QuadratureError, RegimeError
from heatlab.geometry import Ball, Box, perimeter, radial_profile, volume
from heatlab.kernel import KernelSpec, QuadratureConfig, l1_norm_closed_form, poisson_constant

BALL = Ball(1.0, 2)
BALL_PROFILE = radial_profile(BALL)


def poly_poisson_spec(d=2):
    # the Cauchy kernel written as a poly-family member: same exponents,
    # same constants, so every poisson result must reproduce exactly
    return KernelSpec.poly_family(
        d, kappa=poisson_constant(d), n=2.0, m=(d + 1) / 2.0, beta=-d, gamma=1.0
    )


# -- regimes --------------------------------------------------------------------


def test_regime_classification():
    assert regime_of(KernelSpec.stable(1.5, 2)) == REGIME_ALPHA_GT_1
    assert regime_of(KernelSpec.poisson(2)) == REGIME_ALPHA_EQ_1
    assert regime_of(KernelSpec.stable(1.0, 2)) == REGIME_ALPHA_EQ_1
    assert regime_of(KernelSpec.stable(0.5, 2)) == REGIME_ALPHA_LT_1
    assert regime_of(KernelSpec.gaussian(2)) == REGIME_GAUSSIAN
    assert regime_of(poly_poisson_spec()) == REGIME_POLY


def test_regime_scaling_values():
    t = 1e-4
    assert regime_scaling(KernelSpec.stable(1.5, 2), t) == pytest.approx(t ** (1 / 1.5))
    assert regime_scaling(KernelSpec.gaussian(2), t) == pytest.approx(math.sqrt(t))
    assert regime_scaling(KernelSpec.stable(0.5, 2), t) == pytest.approx(t)
    assert regime_scaling(KernelSpec.poisson(2), t) == pytest.approx(t * math.log(1 / t))
    assert regime_scaling(poly_poisson_spec(), t) == pytest.approx(t * math.log(1 / t))


def test_log_regime_scaling_needs_small_t():
    for spec in (KernelSpec.poisson(2), poly_poisson_spec()):
        with pytest.raises(RegimeError):
            regime_scaling(spec, 1.0)
    # power regimes have no such restriction
    assert regime_scaling(KernelSpec.gaussian(2), 2.0) == pytest.approx(math.sqrt(2.0))


# -- heat content and deficit ------------------------------------------------------


def test_heat_content_invariants():
    # n < 1: the algebraic tail mass of the poly member is an incomplete Beta
    # function, not a series in R^{-n}
    heavy = KernelSpec.poly_family(2, kappa=1.0, n=0.25, m=12.0, beta=-2.0, gamma=1.0)
    for spec in (KernelSpec.gaussian(2), KernelSpec.poisson(2), KernelSpec.stable(1.5, 2), heavy):
        sc = spec.scaling()
        for t in (0.5, 1e-1, 1e-3):
            res = heat_content(spec, BALL_PROFILE, t)
            cap = t ** (sc.beta + 2 * sc.gamma) * l1_norm_closed_form(spec) * volume(BALL)
            assert 0.0 <= res.H <= cap + res.quad_error
            assert res.deficit >= 0.0
            assert res.H + res.deficit == pytest.approx(cap, rel=1e-12)
            assert res.quad_error < 1e-6 * max(res.deficit, 1e-30)


def test_deficit_decreases_with_t():
    spec = KernelSpec.stable(1.5, 2)
    assert heat_content(spec, BALL_PROFILE, 1e-5).deficit < heat_content(spec, BALL_PROFILE, 1e-2).deficit


def test_positive_time_required():
    with pytest.raises(ValueError):
        heat_content(KernelSpec.gaussian(2), BALL_PROFILE, 0.0)
    with pytest.raises(ValueError):
        heat_content(KernelSpec.gaussian(2), BALL_PROFILE, -1.0)


_TIME_CALLS = [
    lambda t: scaled_deficit(KernelSpec.gaussian(2), BALL_PROFILE, t),
    lambda t: HeatContentResult(t=t, H=1.0, deficit=0.0, quad_error=0.0),
    lambda t: regime_scaling(KernelSpec.gaussian(2), t),
    lambda t: regime_scaling(KernelSpec.gaussian(2), [0.1, t, 0.01]),
]
_TIME_CALL_IDS = ["scaled_deficit", "HeatContentResult", "regime_scaling", "regime_scaling_grid"]


@pytest.mark.parametrize("call", _TIME_CALLS, ids=_TIME_CALL_IDS)
def test_nan_time_rejected(call):
    with pytest.raises(ValueError, match="t must be positive, got nan"):
        call(math.nan)


@pytest.mark.parametrize("call", _TIME_CALLS, ids=_TIME_CALL_IDS)
def test_infinite_time_rejected(call):
    with pytest.raises(ValueError, match="t must be finite, got inf"):
        call(math.inf)


def test_profile_dimension_must_match_spec():
    prof3 = radial_profile(Ball(1.0, 3))
    with pytest.raises(ValueError):
        heat_content(KernelSpec.gaussian(2), prof3, 0.1)


def test_scaled_deficit_raises_when_refinement_cannot_settle():
    # at t=0.5 the level-8 Kronrod-Gauss error is ~1e-11 (the covariance's
    # endpoint root at r*), far above roundoff, so tolerances of 1e-300
    # cannot be met
    starved = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)
    with pytest.raises(QuadratureError) as exc:
        scaled_deficit(KernelSpec.gaussian(2), BALL_PROFILE, 0.5, starved)
    assert exc.value.residual > 1e-12


def test_gaussian_ball_small_t_deficit():
    # leading term Per(B)/sqrt(pi) * sqrt(t) = 2 sqrt(pi t)
    t = 1e-8
    d = heat_content(KernelSpec.gaussian(2), BALL_PROFILE, t).deficit
    assert d == pytest.approx(2.0 * math.sqrt(math.pi * t), rel=1e-3)


def test_poly_instance_reproduces_poisson():
    spec_poisson = KernelSpec.poisson(2)
    spec_poly = poly_poisson_spec()
    for t in (0.5, 0.05):
        a = heat_content(spec_poisson, BALL_PROFILE, t)
        b = heat_content(spec_poly, BALL_PROFILE, t)
        assert b.H == pytest.approx(a.H, rel=1e-11)


def test_poisson_decomposition_identity():
    # independent closed-form route for the Cauchy kernel on a ball
    spec = KernelSpec.poisson(2)
    for t in (0.5, 0.01):
        res = heat_content(spec, BALL_PROFILE, t)
        n1, n2 = ball_poisson_decomposition(2, t)
        recon = n1 - (1.0 / math.pi) * perimeter(BALL) * t * n2
        assert res.H == pytest.approx(recon, abs=1e-8, rel=1e-8)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("t", [0.5, 0.1, 0.01])
def test_poisson_decomposition_identity_to_1e_11(d, t):
    # both sides to near rounding: H from the deficit grid, N1 and N2 from
    # the closed-form decomposition
    ball = Ball(1.0, d)
    n1, n2 = ball_poisson_decomposition(d, t)
    H = heat_content(KernelSpec.poisson(d), radial_profile(ball), t).H
    assert abs(H - (n1 - perimeter(ball) / math.pi * t * n2)) <= 1e-11


def test_decomposition_domain():
    for bad_t in (0.0, -0.5, 2.0, 2.5):
        with pytest.raises(ValueError):
            ball_poisson_decomposition(2, bad_t)


def test_scaled_deficit_reports_error_estimate():
    val, err = scaled_deficit(KernelSpec.stable(1.5, 2), BALL_PROFILE, 1e-3)
    assert val > 0.0
    assert 0.0 < err < 1e-6 * val


def test_decomposition_raises_when_levels_disagree(monkeypatch):
    # Theta off by 1e-7 at the Kronrod-only nodes (every other of a panel's 33,
    # from the first), which the embedded Gauss sum does not see: every level's
    # error lies between the tolerance (3e-8 here) and 1e-6, and none may be returned
    exact = content.theta
    kronrod_only = lambda c: np.arange(c.size) % 33 % 2 == 0
    monkeypatch.setattr(content, "theta", lambda d, c: exact(d, c) * (1.0 + 1e-7 * kronrod_only(c)))
    with pytest.raises(QuadratureError, match="did not settle") as exc:
        ball_poisson_decomposition(2, 0.01)
    assert 3.1e-8 < exc.value.residual < 1e-6


# -- deep small t: the complement keeps the digits, double range is guarded ---------


def _scaled(spec, shape, t):
    val, _ = scaled_deficit(spec, radial_profile(shape), t)
    return val / float(regime_scaling(spec, t))


def test_box_d3_deep_small_t_deficit_reaches_its_constant():
    # near-duplicate panel edges are measured against the local edge: at
    # t = 1e-30 a gap relative to r* ~ 1e20 dropped the whole head, and the
    # sweep read 0.0759 and 3.5e-5 at 1e-30 and 1e-40
    spec, box = KernelSpec.stable(1.5, 3), Box((1.0, 2.0, 3.0))
    const = theoretical_constant(spec, box)
    for t in (1e-20, 1e-30, 1e-40):
        assert _scaled(spec, box, t) == pytest.approx(const, rel=1e-6)


@pytest.mark.parametrize("t", [1e-100, 1e-200, 1e-300])
def test_gaussian_disc_deficit_at_extreme_t_is_per_over_sqrt_pi(t):
    # advol - ghat(rho) was 0 or an ulp of ghat(0) for rho below ~1e-16
    want = perimeter(BALL) / math.sqrt(math.pi)
    assert _scaled(KernelSpec.gaussian(2), BALL, t) == pytest.approx(want, rel=1e-15)


def test_stable_disc_deep_small_t_deficits():
    # alpha = 1.5 read 0.031 at t = 1e-30 before the complement
    assert _scaled(KernelSpec.stable(1.5, 2), BALL, 1e-30) == pytest.approx(
        2.0 * math.gamma(1.0 / 3.0), rel=1e-8
    )
    spec = KernelSpec.stable(0.5, 2)
    const = theoretical_constant(spec, BALL)
    for t in (1e-30, 1e-50):
        assert _scaled(spec, BALL, t) == pytest.approx(const, rel=1e-9)


def _gaussian_box_deficit(sides, t):
    """The Gaussian box deficit in closed form: with the 1-D deficit
    delta(L, t) = L erfc(L / 2 sqrt t) + 2 sqrt(t / pi) (1 - exp(-L^2 / 4t)),
    D_k = L_k D_{k-1} + delta_k prod_{j<k} (L_j - delta_j), a recursion that only adds."""
    deficit, inner = 0.0, 1.0
    for side in sides:
        head = side * math.erfc(side / (2.0 * math.sqrt(t)))
        delta = head - 2.0 * math.sqrt(t / math.pi) * math.expm1(-side * side / (4.0 * t))
        deficit = side * deficit + delta * inner
        inner *= side - delta
    return deficit


@pytest.mark.parametrize("sides", [(1.0, 2.0), (0.5, 1.5), (1.0, 2.0, 3.0)])
def test_gaussian_box_deficit_matches_its_closed_form(sides):
    spec, profile = KernelSpec.gaussian(len(sides)), radial_profile(Box(sides))
    # small t, down to where a 3-D box's integrand still fits in double range:
    # a few ulps, which the double recursion itself rounds by
    for t in np.geomspace(1e-3, 1e-300 if len(sides) == 2 else 1e-200, 25):
        want = _gaussian_box_deficit(sides, float(t))
        got = heat_content(spec, profile, float(t)).deficit
        assert got == pytest.approx(want, rel=4 * np.finfo(float).eps, abs=0)
    # moderate and large t: the quadrature's error, which its bar covers
    for t in (0.1, 1.0, 10.0):
        res, want = heat_content(spec, profile, t), _gaussian_box_deficit(sides, t)
        assert abs(res.deficit - want) <= min(1e-9 * want, res.quad_error)


def test_gaussian_3d_box_deficit_at_t_1e_300_raises():
    # the integrand overflows at r* = ell t^-gamma = 3.7e150 though D is a
    # normal double: kept as found until the deficit has a far field in rho
    with pytest.raises(QuadratureError, match="overflows"):
        heat_content(KernelSpec.gaussian(3), radial_profile(Box((1.0, 2.0, 3.0))), 1e-300)


@pytest.mark.parametrize(
    "spec,t",
    [
        (KernelSpec.stable(0.5, 2), 1e-70),  # p_1 underflows where its tail still counts
        (KernelSpec.stable(0.5, 2), 1e-80),  # r^{d-1} p_1 would overflow
        (KernelSpec.stable(1.5, 2), 1e-300),
        (KernelSpec.poisson(2), 1e-150),
        (KernelSpec.poisson(2), 1e-200),
        (KernelSpec.gaussian(3), 1e-300),
    ],
)
def test_deficit_outside_double_range_raises_without_warning(spec, t):
    # no NaN, no truncated value, no warning: a typed error
    prof = radial_profile(Ball(1.0, spec.d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError):
            scaled_deficit(spec, prof, t)


@pytest.mark.parametrize("alpha, d", [(1.8, 5), (1.9, 5), (1.95, 5), (1.5, 8)])
def test_default_grid_ball_sweep_settles_across_r_switch(alpha, d):
    # p_1 jumps by the tail series' error at r_switch; with no panel edge
    # there the Kronrod-Gauss errors stall near 1e-7 and no level settles
    _, results = content.heat_sweep(KernelSpec.stable(alpha, d), Ball(1.0, d))
    assert max(r.quad_error for r in results) < 1e-9


def test_deficit_at_huge_t_raises_value_error():
    with pytest.raises(ValueError, match=r"t too large: t\*\*2 overflows, got 1e\+200"):
        scaled_deficit(KernelSpec.stable(0.5, 2), radial_profile(Ball(1.0, 2)), 1e200)


def test_poly_prefactor_overflow_raises_value_error():
    # beta + d gamma = 3: t**3 leaves double range before the deficit does
    spec = KernelSpec.poly_family(2, kappa=0.1, n=2.0, m=1.5, beta=1.0, gamma=1.0)
    with pytest.raises(ValueError, match=r"t too large: t\*\*3 overflows, got 1e\+150"):
        heat_content(spec, BALL_PROFILE, 1e150)


def test_deficit_overflow_names_the_shape_scale():
    prof = radial_profile(Box((1e120, 1.0, 1.0)))
    with pytest.raises(QuadratureError) as info:
        scaled_deficit(KernelSpec.gaussian(3), prof, 0.1)
    assert str(info.value).startswith(
        "the deficit integrand overflows at r* = ell t^-gamma = 3.16e+120 (shape diameter ell=1e+120, "
        "t=0.1, gamma=0.5)"
    )


# -- limit constants -----------------------------------------------------------------


def test_stable_limit_constant_formula():
    per = perimeter(BALL)
    assert stable_limit_constant(1.5, per) == pytest.approx(
        math.gamma(1 - 1 / 1.5) / math.pi * per, rel=1e-14
    )
    with pytest.raises(RegimeError):
        stable_limit_constant(1.0, per)


def test_theoretical_constants_and_tags():
    # Cauchy kernel on the ball: (1/pi) Per = 2, a sharp limit
    assert theoretical_constant(KernelSpec.poisson(2), BALL) == pytest.approx(2.0, rel=1e-14)
    assert constant_tag(KernelSpec.poisson(2), BALL) == TAG_LIMIT
    # same constant on a box is only an upper bound
    assert constant_tag(KernelSpec.poisson(2), Box((1.0, 1.0))) == TAG_UPPER_BOUND
    # gaussian: Per / sqrt(pi)
    assert theoretical_constant(KernelSpec.gaussian(2), BALL) == pytest.approx(
        2.0 * math.sqrt(math.pi), rel=1e-14
    )
    assert constant_tag(KernelSpec.gaussian(2), BALL) == TAG_LIMIT
    # poly family: envelope constant, bound only
    assert constant_tag(poly_poisson_spec(), BALL) == TAG_UPPER_BOUND


# -- sweeps ----------------------------------------------------------------------------


def test_sweep_report_shape_and_extrapolation():
    spec = KernelSpec.gaussian(2)
    rep = asymptotic_sweep(spec, BALL, t_grid=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
    assert rep.regime == REGIME_GAUSSIAN
    assert rep.constant_tag == TAG_LIMIT
    assert len(rep.scaled_deficits) == 5
    assert rep.monotone
    assert rep.extrapolated_limit == pytest.approx(rep.theoretical_constant, rel=1e-3)
    assert rep.rel_error_at_smallest_t < 0.02


def test_sweep_requires_three_decreasing_points():
    spec = KernelSpec.gaussian(2)
    with pytest.raises(ValueError):
        asymptotic_sweep(spec, BALL, t_grid=(1e-2, 1e-3))
    with pytest.raises(ValueError):
        asymptotic_sweep(spec, BALL, t_grid=(1e-3, 1e-2, 1e-4))


@pytest.mark.parametrize("t_grid", [(1e-5, 1e-3, 0.1), (0.01, 0.01), ()])
def test_bound_checks_require_a_strictly_decreasing_grid(t_grid):
    # the envelope's limsup side-check reads the last grid point as the smallest t
    with pytest.raises(ValueError, match="t_grid must be strictly decreasing with >= 1 entries"):
        bound_check_part_ii(poly_poisson_spec(), BALL, t_grid=t_grid)
    with pytest.raises(ValueError, match="t_grid must be strictly decreasing with >= 1 entries"):
        bound_check_part_i(KernelSpec.gaussian(2), BALL, t_grid=t_grid)


def test_envelope_limsup_needs_a_smallest_time_below_one():
    # ln(1/t) vanishes at t = 1, where the limsup ratio would divide by zero
    with pytest.raises(RegimeError, match="the limsup side-check needs a smallest t below 1, got t=1"):
        bound_check_part_ii(poly_poisson_spec(), BALL, t_grid=(1.0,))


def test_default_grid_is_decreasing():
    assert all(a > b for a, b in zip(DEFAULT_T_GRID, DEFAULT_T_GRID[1:]))


# -- bounds ------------------------------------------------------------------------------


def test_moment_bound_holds_on_ball():
    spec = KernelSpec.stable(1.5, 2)
    rep = bound_check_part_i(spec, BALL, t_grid=(1e-1, 1e-2, 1e-3))
    assert rep.all_passed
    assert not rep.failures
    assert np.all(np.asarray(rep.lhs) <= np.asarray(rep.rhs))


def test_moment_bound_needs_finite_moment():
    with pytest.raises(DivergentMomentError):
        bound_check_part_i(KernelSpec.poisson(2), BALL)


def test_envelope_bound_is_poly_only():
    with pytest.raises(RegimeError):
        bound_check_part_ii(KernelSpec.gaussian(2), BALL)


def test_envelope_bound_needs_subdiameter_window():
    spec = poly_poisson_spec()
    with pytest.raises(RegimeError):
        # t^gamma beyond the covariance support radius
        bound_check_part_ii(spec, BALL, t_grid=(3.0, 0.1))


def test_envelope_bound_window_holds_where_t_to_the_gamma_overflows():
    spec = KernelSpec.poly_family(2, kappa=0.1, n=2.0, m=1.5, beta=-2.0, gamma=2.0)
    with pytest.raises(RegimeError, match=r"t\^gamma < ell; violated at t=1e\+200"):
        bound_check_part_ii(spec, BALL, t_grid=(1e200, 0.1))


def test_envelope_bound_holds_for_cauchy_instance():
    spec = poly_poisson_spec()
    rep = bound_check_part_ii(spec, BALL, t_grid=(0.5, 0.1, 1e-3, 1e-5))
    assert rep.all_passed
    assert rep.extra["limsup_ratio"] <= 1.1
    assert rep.extra["envelope_constant"] == pytest.approx(2.0, rel=1e-12)


def test_poly_lambda_closed_form():
    # d=2 Cauchy instance: lambda = |B| kappa A_2 / ell
    #                             + kappa w_1 Per (ln ell + asinh(1) - 1/sqrt(2))
    spec = poly_poisson_spec()
    kappa = poisson_constant(2)
    ell = 2.0
    head = math.pi * kappa * 2.0 * math.pi / ell
    tail = kappa * 2.0 * perimeter(BALL) * (math.log(ell) + math.asinh(1.0) - 1.0 / math.sqrt(2.0))
    assert poly_lambda(spec, BALL) == pytest.approx(head + tail, rel=1e-10)
