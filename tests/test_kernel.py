"""Kernel families: closed forms, self-similar scaling, moments, tails."""

import math

import numpy as np
import pytest

from heatlab.errors import DivergentMomentError, RegimeError
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
    tail_bound_check,
    tail_mass,
    unit_ball_volume,
    unit_sphere_area,
)
from heatlab.stable import _gl_nodes_weights

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


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)


def test_tail_bound_report():
    spec = KernelSpec.stable(1.5, 2)
    rep = tail_bound_check(spec, t_grid=(1e-2, 1e-3, 1e-4), r_grid=(2.0, 4.0, 8.0))
    # p_t(r) / (t C r^{-d-alpha}) -> 1 as t -> 0 at fixed r
    assert rep.max_limit_deviation < 0.05
    assert np.all(np.isfinite(rep.limit_ratios))
    # two-sided envelope constant for min{t^{-d/alpha}, t r^{-d-alpha}}
    assert 1.0 <= rep.envelope_constant < 10.0
