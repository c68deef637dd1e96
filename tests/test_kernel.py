"""Kernel families: closed forms, self-similar scaling, moments, tails."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from heatlab import kernel
from heatlab.errors import DivergentMomentError, QuadratureError, RegimeError
from heatlab.kernel import (
    KernelSpec,
    QuadratureConfig,
    eval_p1,
    eval_pt,
    l1_norm,
    l1_norm_closed_form,
    moment_d,
    moment_d_closed_form,
    poisson_constant,
    stable_tail_constant,
    tail_mass,
    unit_ball_volume,
    unit_sphere_area,
)
from heatlab.stable import _gl_nodes_weights, density

R_GRID = np.linspace(0.0, 6.0, 25)

# pinned t=1 profile values for alpha=1.999, d=2, from high-precision
# quadrature of the oscillatory Fourier-Bessel integral (mpmath, 13 digits)
ALPHA_1999_D2 = {
    0.5: 7.476864375319e-02,
    1.0: 6.197757548769e-02,
    2.0: 2.926439602354e-02,
    3.0: 8.382893478988e-03,
    4.0: 1.459068760099e-03,
    4.5: 5.058195053750e-04,
    5.0: 1.554600751811e-04,
}


def gaussian_profile(d, r):
    return (4.0 * math.pi) ** (-d / 2.0) * np.exp(-np.asarray(r, float) ** 2 / 4.0)


def poisson_profile(d, r):
    return poisson_constant(d) / (1.0 + np.asarray(r, float) ** 2) ** ((d + 1) / 2.0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gaussian_profile_closed_form(d):
    spec = KernelSpec.gaussian(d)
    np.testing.assert_allclose(eval_p1(spec, R_GRID), gaussian_profile(d, R_GRID), rtol=1e-14)


@pytest.mark.parametrize("d", [2, 3])
def test_poisson_profile_closed_form(d):
    spec = KernelSpec.poisson(d)
    np.testing.assert_allclose(eval_p1(spec, R_GRID), poisson_profile(d, R_GRID), rtol=1e-14)


@pytest.mark.parametrize(
    "spec",
    [
        KernelSpec.gaussian(2),
        KernelSpec.poisson(3),
        KernelSpec.stable(1.4, 2),
        KernelSpec.poly_family(2, kappa=0.1, n=2.0, m=1.5, beta=-1.0, gamma=0.5),
    ],
)
def test_self_similar_scaling(spec):
    # p_t(x) = t^beta p_1(t^{-gamma} x) must hold exactly by construction
    sc = spec.scaling()
    for t in (0.3, 1.0, 4.0):
        lhs = eval_pt(spec, t, R_GRID)
        rhs = t**sc.beta * eval_p1(spec, t**-sc.gamma * R_GRID)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-300)


def test_stable_scaling_exponents():
    sc = KernelSpec.stable(1.25, 3).scaling()
    assert sc.beta == -3 / 1.25 and sc.gamma == 1 / 1.25
    sc = KernelSpec.gaussian(2).scaling()
    assert sc.beta == -1.0 and sc.gamma == 0.5


@pytest.mark.parametrize(
    "spec",
    [
        KernelSpec.gaussian(3),
        KernelSpec.poisson(2),
        KernelSpec.stable(0.8, 2),
        KernelSpec.stable(1.7, 3),
        KernelSpec.poly_family(3, kappa=0.05, n=4.0, m=1.0, beta=-2.0, gamma=0.5),
    ],
)
def test_l1_norm_matches_closed_form(spec):
    # numeric route is tabulated to rel_tol=1e-8; stay just above that
    assert l1_norm(spec) == pytest.approx(l1_norm_closed_form(spec), rel=2e-8)


def test_probability_normalization():
    # the stable/gaussian/poisson kernels are probability densities at t=1
    for spec in (KernelSpec.gaussian(2), KernelSpec.poisson(3), KernelSpec.stable(1.3, 2)):
        assert l1_norm_closed_form(spec) == 1.0


@pytest.mark.parametrize("alpha", [1.2, 1.8])
@pytest.mark.parametrize("d", [2, 3])
def test_first_moment_quadrature_vs_closed_form(alpha, d):
    spec = KernelSpec.stable(alpha, d)
    closed = moment_d_closed_form(spec)
    assert closed == pytest.approx(
        math.gamma((d + 1) / 2) * math.pi ** (-(d + 1) / 2) * math.gamma(1 - 1 / alpha), rel=1e-14
    )
    assert moment_d(spec) == pytest.approx(closed, rel=1e-7)


def test_gaussian_first_moment():
    for d in (2, 3):
        spec = KernelSpec.gaussian(d)
        closed = math.gamma((d + 1) / 2) * math.pi ** (-(d + 1) / 2) * math.sqrt(math.pi)
        assert moment_d_closed_form(spec) == pytest.approx(closed, rel=1e-14)
        assert moment_d(spec) == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize(
    "spec",
    [
        KernelSpec.poisson(2),
        KernelSpec.stable(0.8, 2),
        KernelSpec.stable(1.0 - 1e-12, 3),
        KernelSpec.poly_family(2, kappa=0.1, n=2.0, m=1.5, beta=-1.0, gamma=0.5),
    ],
)
def test_divergent_first_moment_raises(spec):
    with pytest.raises(DivergentMomentError):
        moment_d(spec)


@pytest.mark.parametrize(
    "spec",
    [
        KernelSpec.gaussian(2),
        KernelSpec.poisson(3),
        KernelSpec.stable(1.5, 2),
        KernelSpec.stable(0.7, 2),
        KernelSpec.poly_family(2, kappa=0.1, n=2.0, m=1.5, beta=-1.0, gamma=0.5),
    ],
)
def test_tail_mass_consistency(spec):
    # tail_mass is computed analytically or via the cached table; check it
    # against direct Gauss-Legendre integration of r^{d-1} p_1 on a segment
    r1, r2 = 2.0, 7.0
    nodes, weights = _gl_nodes_weights(np.linspace(r1, r2, 11))
    seg = float(np.sum(weights * nodes ** (spec.d - 1) * eval_p1(spec, nodes)))
    assert tail_mass(spec, r1) - tail_mass(spec, r2) == pytest.approx(seg, rel=1e-8)
    assert tail_mass(spec, r2) < tail_mass(spec, r1)
    assert tail_mass(spec, 80.0) < tail_mass(spec, r2)


def test_tail_mass_total_equals_l1_norm():
    for spec in (KernelSpec.gaussian(2), KernelSpec.poisson(2), KernelSpec.stable(1.5, 3)):
        total = tail_mass(spec, 0.0) * unit_sphere_area(spec.d)
        assert total == pytest.approx(l1_norm_closed_form(spec), rel=1e-9)


def test_stable_near_two_pinned_values():
    spec = KernelSpec.stable(1.999, 2)
    for r, ref in ALPHA_1999_D2.items():
        assert float(eval_p1(spec, r)) == pytest.approx(ref, rel=1e-8)


def test_stable_near_two_tracks_gaussian():
    # continuity in alpha at the gaussian endpoint; the gap grows with r and
    # genuinely reaches 1.20% at r=5 (checked against mpmath), so the 1%
    # window is asserted on [0, 4.5] and the r=5 edge is pinned separately
    spec = KernelSpec.stable(1.999, 2)
    g = KernelSpec.gaussian(2)
    r = np.linspace(0.0, 4.5, 46)
    rel = np.abs(eval_p1(spec, r) - eval_p1(g, r)) / eval_p1(g, r)
    assert rel.max() < 0.01
    edge = abs(float(eval_p1(spec, 5.0)) - float(eval_p1(g, 5.0))) / float(eval_p1(g, 5.0))
    assert edge < 0.0125


def test_profile_nonnegative_and_decreasing():
    spec = KernelSpec.stable(0.7, 3)
    vals = eval_p1(spec, np.linspace(0.0, 12.0, 60))
    assert np.all(vals >= 0.0)
    assert np.all(np.diff(vals) < 0.0)


@pytest.mark.parametrize(
    "spec", [KernelSpec.gaussian(2), KernelSpec.poisson(3), KernelSpec.stable(1.5, 2)]
)
def test_eval_p1_rejects_nan_radius(spec):
    with pytest.raises(ValueError):
        eval_p1(spec, np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        eval_p1(spec, float("nan"))
    with pytest.raises(ValueError):
        tail_mass(spec, float("nan"))
    assert eval_p1(spec, math.inf) == 0.0


@pytest.mark.parametrize(
    "spec",
    [KernelSpec.gaussian(2), KernelSpec.poisson(3), KernelSpec.poly_family(2, 0.1, 2.0, 1.5, -2.0, 1.0)],
)
def test_eval_p1_is_zero_where_r_squared_overflows(spec):
    # r^2 (or r^n) leaves double range; p_1 is 0 there, with no overflow warning
    assert eval_p1(spec, 1e155) == 0.0
    assert list(eval_p1(spec, np.array([1e155, 1e300]))) == [0.0, 0.0]


def test_eval_pt_is_zero_where_the_stretched_radius_overflows():
    # beta = 0, so t**beta stays 1 while r t^-gamma = 1e202 * 1e106.5 leaves double range
    spec = KernelSpec.poly_family(2, 0.1, 2.0, 1.5, 0.0, 0.5)
    assert list(eval_pt(spec, 1e-213, np.array([0.0, 1e202]))) == [0.1, 0.0]


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, -math.inf])
def test_eval_pt_rejects_nonpositive_and_nan_time(t):
    with pytest.raises(ValueError, match=f"t must be positive, got {t}"):
        eval_pt(KernelSpec.gaussian(2), t, 1.0)


def test_eval_pt_rejects_infinite_time():
    # p_inf would read 0 for every r
    with pytest.raises(ValueError, match="t must be finite, got inf"):
        eval_pt(KernelSpec.gaussian(2), math.inf, 1.0)


def test_eval_pt_rejects_overflowing_numpy_time():
    # a NumPy scalar t would overflow t**(-d/alpha) = 1e400 to inf, not raise
    with pytest.raises(ValueError, match="t too small: .* overflows, got 1e-300"):
        eval_pt(KernelSpec.stable(1.5, 2), np.float64(1e-300), np.array([0.0, 1.0]))


def test_poisson_constant_identity():
    # kappa_d * w_{d-1} = 1/pi for every d
    for d in range(2, 7):
        w = unit_ball_volume(d - 1)
        assert poisson_constant(d) * w == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_stable_tail_constant_at_one_is_poisson():
    for d in (2, 3, 5):
        assert stable_tail_constant(1.0, d) == pytest.approx(poisson_constant(d), rel=1e-13)


def test_stable_tail_constant_domain():
    with pytest.raises(RegimeError):
        stable_tail_constant(2.0, 2)
    with pytest.raises(RegimeError):
        stable_tail_constant(0.0, 2)


def test_unit_ball_and_sphere_values():
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-15)
    assert unit_sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert unit_sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-15)


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec.gaussian(1)
    with pytest.raises(RegimeError):
        KernelSpec.stable(2.0, 2)
    with pytest.raises(RegimeError):
        KernelSpec.stable(0.0, 2)
    with pytest.raises(ValueError):
        # integrability requires d - n m = -1
        KernelSpec.poly_family(2, kappa=0.1, n=2.0, m=2.0, beta=-1.0, gamma=0.5)
    with pytest.raises(ValueError):
        KernelSpec.poly_family(2, kappa=-0.1, n=2.0, m=1.5, beta=-1.0, gamma=0.5)


@pytest.mark.parametrize("name", ["kappa", "n", "m", "beta", "gamma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_poly_spec_rejects_non_finite_parameters(name, value):
    params = dict(kappa=0.1, n=2.0, m=1.5, beta=-1.0, gamma=0.5)
    KernelSpec.poly_family(2, **params)
    params[name] = value
    with pytest.raises(ValueError, match=f"poly family requires a finite {name}, got {value}"):
        KernelSpec.poly_family(2, **params)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1e-8)


def test_starved_quadrature_raises_instead_of_returning(monkeypatch):
    # on one uniform panel, halved three times, no Kronrod-Gauss error comes
    # within 1e-300, so no value comes back
    monkeypatch.setattr(kernel, "_graded_edges", lambda breaks: np.linspace(breaks[0], breaks[-1], 2))
    starved = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)
    with pytest.raises(QuadratureError) as info:
        moment_d(KernelSpec.gaussian(3), starved)
    assert info.value.residual > 0.0
    with pytest.raises(QuadratureError):
        l1_norm(KernelSpec.poisson(2), starved)


@pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0, 1.5, 1.8])
@pytest.mark.parametrize("d", [2, 3])
def test_stable_kernel_two_sided_bound_and_tail_limit(alpha, d):
    # p_t(r) is comparable to min{t^{-d/alpha}, t r^{-d-alpha}} with constants
    # in [1/100, 100] (worst seen on this grid: 67.7) ...
    spec = KernelSpec.stable(alpha, d)
    r = np.geomspace(0.05, 50.0, 61)
    for t in np.geomspace(1e-4, 1.0, 9):
        env = np.minimum(t ** (-d / alpha), t * r ** (-d - alpha))
        ratio = eval_pt(spec, t, r) / env
        assert np.all((ratio >= 1e-2) & (ratio <= 1e2))
    # ... and p_t(r) / (t C_{alpha,d} r^{-d-alpha}) -> 1 as t -> 0 at fixed r
    t, r = 1e-6, np.array([2.0, 4.0, 8.0])
    limit = eval_pt(spec, t, r) / (t * stable_tail_constant(alpha, d) * r ** (-d - alpha))
    assert np.all(np.abs(limit - 1.0) <= 1e-5)


@pytest.mark.parametrize("n", [0.25, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("d", [2, 3])
def test_algebraic_tail_mass_matches_quad(n, d):
    # n < 1 is where a series in R^{-n} converged slowly or not at all
    spec = KernelSpec.poly_family(d, kappa=1.0, n=n, m=(d + 1) / n, beta=-d, gamma=1.0)
    for R in (0.0, 0.1, 0.5, 1.0, 1.5, 2.0, 5.0, 10.0):
        ref, _ = quad(lambda r: r ** (d - 1) * eval_p1(spec, r), R, np.inf, epsabs=0.0, epsrel=1e-13, limit=500)
        assert tail_mass(spec, R) == pytest.approx(ref, rel=1e-12)
    # r_star = ell / t^gamma can be far beyond the range of a float R^n
    assert 0.0 <= tail_mass(spec, 1e300) < 1e-100


def test_l1_norm_of_heavy_tailed_poly_kernel():
    # r^{1/4} is not smooth at 0: the panels graded toward 0 resolve it
    spec = KernelSpec.poly_family(2, kappa=1.0, n=0.25, m=12.0, beta=-2.0, gamma=1.0)
    assert l1_norm(spec) == pytest.approx(l1_norm_closed_form(spec), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.8])
@pytest.mark.parametrize("d", [2, 3])
def test_stable_tail_mass_from_zero_is_the_l1_norm(alpha, d):
    # both sum the same table head and the same series tail
    spec = KernelSpec.stable(alpha, d)
    assert unit_sphere_area(d) * tail_mass(spec, 0.0) == l1_norm(spec)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.8])
@pytest.mark.parametrize("d", [2, 3])
def test_stable_tail_mass_is_continuous_and_nonincreasing_at_the_switch(alpha, d):
    spec = KernelSpec.stable(alpha, d)
    r_s = density(alpha, d).r_switch
    below = tail_mass(spec, float(np.nextafter(r_s, 0.0)))
    assert 0.0 <= below - tail_mass(spec, r_s) <= 1e-14
    radii = r_s * (1.0 + np.array([-1e-2, -1e-4, -1e-8, -1e-12, 0.0, 1e-12, 1e-8, 1e-4, 1e-2]))
    masses = [tail_mass(spec, float(R)) for R in radii]
    assert all(b <= a for a, b in zip(masses, masses[1:]))


ARRAY_TAIL_SPECS = [
    *(KernelSpec.stable(alpha, d) for alpha in (0.5, 0.7, 1.0, 1.2, 1.5, 1.8) for d in (2, 3)),
    KernelSpec.gaussian(2),
    KernelSpec.poisson(3),
    KernelSpec.poly_family(2, kappa=0.1, n=2.0, m=1.5, beta=-1.0, gamma=0.5),
]


@pytest.mark.parametrize("spec", ARRAY_TAIL_SPECS, ids=lambda s: f"{s.family}-{s.alpha}-d{s.d}")
def test_array_tail_mass_equals_the_scalar_calls(spec):
    # lower limits at 0, below, at and above r_switch (a stand-in radius for
    # the closed-form families), far out and at infinity, in mixed order
    r_s = density(spec.alpha, spec.d).r_switch if spec.family == "stable" else 2.0
    limits = np.array([r_s, 0.0, 3.0 * r_s, 0.5 * r_s, math.inf, 1e12, 1.7 * r_s, r_s])
    masses = tail_mass(spec, limits)
    assert isinstance(masses, np.ndarray) and masses.shape == limits.shape
    assert masses.tolist() == [tail_mass(spec, float(a)) for a in limits]
    assert tail_mass(spec, np.empty(0)).shape == (0,)
    if spec.family != "stable":
        return
    dens = density(spec.alpha, spec.d)
    for q in (spec.d - 1, spec.d):
        if spec.alpha <= q + 1 - spec.d:  # the integral diverges: the array raises what a scalar raises
            with pytest.raises(RegimeError) as scalar:
                dens.radial_integral(q, 1.0)
            with pytest.raises(RegimeError, match=re.escape(str(scalar.value))):
                dens.radial_integral(q, limits)
            continue
        values, bounds = dens.radial_integral(q, limits)
        assert list(zip(values.tolist(), bounds.tolist())) == [dens.radial_integral(q, float(a)) for a in limits]
        values, bounds = dens.radial_integral(q, np.empty(0))
        assert values.shape == bounds.shape == (0,)


# -- the G16/K33 Gauss-Kronrod rule ---------------------------------------------------


def _legendre(k, x):
    return np.polynomial.legendre.legval(x, np.eye(k + 1)[k])


def test_kronrod_rule_integrates_legendre_polynomials_to_degree_49_only():
    # K33 is exact to degree 3n + 1 = 49; monomials cannot show where that
    # stops (x^50 is off by only 8e-17), P_50 can
    x, w = kernel._GK_NODES, kernel._GK_WEIGHTS
    assert abs(w @ _legendre(0, x) - 2.0) <= 1e-13
    assert max(abs(w @ _legendre(k, x)) for k in range(1, 50)) <= 1e-13
    assert abs(w @ _legendre(50, x)) > 1e-6


def test_kronrod_weights_are_positive_and_nodes_interlace_with_gauss():
    x = kernel._GK_NODES
    assert np.all(kernel._GK_WEIGHTS > 0.0)
    assert -1.0 < x[0] and x[-1] < 1.0 and np.all(np.diff(x) > 0.0)
    # every other node, from the second, is the stable module's Gauss node, bit for bit
    assert np.array_equal(x[1::2], np.polynomial.legendre.leggauss(16)[0])


def test_gk_sums_embed_gauss_16_with_leggauss_weights():
    g, gw = np.polynomial.legendre.leggauss(16)
    for k in (31, 32, 40):
        sums, errs = kernel._gk_panels(np.array([-1.0]), np.array([1.0]), lambda x, _: _legendre(k, x))
        assert abs(sums[0]) <= 1e-13
        # K is exact here, so |K - G| is G16's own error on P_k (nil for k = 31)
        assert errs[0] == pytest.approx(abs(gw @ _legendre(k, g)), rel=1e-12, abs=1e-14)
    assert abs(gw @ _legendre(32, g)) > 1e-3


def _finish(_, k, err):
    return k, err


def test_settle_halves_only_the_panel_over_its_share():
    # a peak of width 0.05 inside the sixth of 16 unit panels: after the first
    # pass each round evaluates only the two halves of one of its descendants
    calls = []

    def peak(x, own):
        calls.append(x)
        return np.exp(-(((x - 5.3) / 0.05) ** 2))

    lo = np.arange(16.0)
    cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-10)
    [(value, err)] = kernel._settle(lo, lo + 1.0, np.zeros(16, dtype=int), peak, _finish, cfg, str)
    assert [x.size for x in calls] == [16 * 33, 66, 66]
    assert all(5.0 < x.min() and x.max() < 6.0 for x in calls[1:])
    exact = 0.025 * math.sqrt(math.pi) * (math.erf(10.7 / 0.05) + math.erf(5.3 / 0.05))
    assert abs(value - exact) <= err


def test_settle_names_the_integral_that_cannot_settle():
    # the first integral is smooth; the second has a jump inside its panel,
    # whose Kronrod-Gauss error halving cannot bring down to 1e-12
    def integrand(x, own):
        own = np.repeat(own, 33)
        return np.where(own == 0, x * x, (x > 2.0 + 1.0 / 3.0).astype(float))

    lo, hi = np.array([0.0, 0.5, 2.0]), np.array([0.5, 1.0, 3.0])
    cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)
    with pytest.raises(QuadratureError, match="^second did not settle after 3 halvings$") as info:
        kernel._settle(lo, hi, np.array([0, 0, 1]), integrand, _finish, cfg, ("first", "second").__getitem__)
    assert info.value.residual > 1e-6


def test_settle_returns_the_first_pass_sum_where_it_settles():
    edges = kernel._graded_edges(np.array([0.0, 1.0, 4.0]))
    lo, hi = edges[:-1], edges[1:]
    integrand = lambda x, _: np.exp(-x) * np.sqrt(x)
    [(value, err)] = kernel._settle(lo, hi, np.zeros(lo.size, dtype=int), integrand, _finish, kernel._DEFAULT_CFG, str)
    sums, errs = kernel._gk_panels(lo, hi, integrand)
    assert (value, err) == (float(np.sum(sums)), float(np.sum(errs)))
