"""Set covariance, spherical profiles, directional variation, perimeters."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatlab import geometry
from heatlab.errors import QuadratureError, RegimeError, UnsupportedShapeError
from heatlab.geometry import (
    Ball,
    Box,
    Indicator,
    alpha_perimeter,
    covariance,
    covariance_ball,
    covariance_box,
    covariance_mc,
    diameter,
    directional_variation,
    perimeter,
    perimeter_via_directional,
    radial_profile,
    theta,
    volume,
)
from heatlab.kernel import unit_ball_volume, unit_sphere_area
from heatlab.stable import _gl_nodes_weights


def indicator_ball(radius=1.0, d=2, declared_volume=True):
    return Indicator(
        d=d,
        contains=lambda x: np.sum(x * x, axis=-1) <= radius * radius,
        bbox_lo=(-radius,) * d,
        bbox_hi=(radius,) * d,
        volume=unit_ball_volume(d) * radius**d if declared_volume else None,
    )


# -- closed forms --------------------------------------------------------------


def test_disk_lens_value():
    # two unit disks at center distance 1 overlap in a lens of area
    # 2 pi / 3 - sqrt(3) / 2
    assert covariance_ball(2, 1.0, 1.0) == pytest.approx(
        2 * math.pi / 3 - math.sqrt(3) / 2, abs=1e-12
    )


def test_ball_overlap_d3():
    # |B_R cap (B_R + a)| = (pi / 12) (4 R + a)(2 R - a)^2
    R = 1.3
    for a in (0.0, 0.4, 1.9, 2.6):
        closed = math.pi / 12 * (4 * R + a) * max(2 * R - a, 0.0) ** 2
        assert covariance_ball(3, R, a) == pytest.approx(closed, abs=1e-12)


def test_box_covariance_is_product_of_side_overlaps():
    sides = (1.0, 2.0, 3.0)
    y = np.array([[0.2, -1.1, 0.7], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    expect = np.prod([np.maximum(s - np.abs(y[:, i]), 0.0) for i, s in enumerate(sides)], axis=0)
    np.testing.assert_allclose(covariance_box(sides, y), expect, rtol=1e-15)


def test_covariance_symmetry_and_bounds():
    rng = np.random.default_rng(3)
    for shape in (Ball(1.0, 2), Box((1.0, 2.0))):
        for y in rng.normal(size=(40, 2)):
            g = float(covariance(shape, y))
            assert g == pytest.approx(float(covariance(shape, -y)), rel=1e-14, abs=1e-300)
            assert 0.0 <= g <= volume(shape) + 1e-14
        assert covariance(shape, np.zeros(2)) == pytest.approx(volume(shape), rel=1e-14)


def test_covariance_vanishes_beyond_diameter():
    shape = Box((1.0, 2.0))
    assert float(covariance(shape, np.array([diameter(shape) + 0.01, 0.0]))) == 0.0


def test_closed_forms_reject_nan():
    nan = float("nan")
    with pytest.raises(ValueError):
        covariance_ball(2, 1.0, nan)
    with pytest.raises(ValueError):
        covariance_ball(3, 1.0, np.array([0.5, nan]))
    with pytest.raises(ValueError):
        covariance_box((1.0, 2.0), [nan, 0.1])
    with pytest.raises(ValueError):
        covariance_box((1.0, 2.0), np.array([[0.1, 0.2], [0.3, nan]]))
    with pytest.raises(ValueError):
        theta(3, nan)
    with pytest.raises(ValueError):
        theta(2, np.array([0.5, nan]))


def test_box_covariance_accepts_negative_and_infinite_displacements():
    assert covariance_box((1.0, 2.0), [-0.5, 0.1]) == pytest.approx(0.5 * 1.9, rel=1e-15)
    assert covariance_box((1.0, 2.0), [math.inf, 0.1]) == 0.0
    assert covariance_box((1.0, 2.0), [0.1, -math.inf]) == 0.0
    assert covariance_ball(2, 1.0, math.inf) == 0.0


# -- spherically averaged profile ----------------------------------------------


@pytest.mark.parametrize(
    "shape", [Ball(1.0, 2), Ball(0.7, 3), Box((1.0, 2.0)), Box((1.0, 2.0, 3.0))]
)
def test_profile_mass_identity(shape):
    # int_0^ell rho^{d-1} ghat(rho) drho = |Omega|^2
    prof = radial_profile(shape)
    edges = np.concatenate(
        [
            np.linspace(0.0, prof.support_radius, 257),
            np.asarray(prof.kink_radii, dtype=float),
        ]
    )
    edges = np.unique(edges)
    nodes, weights = _gl_nodes_weights(edges)
    mass = float(np.sum(weights * nodes ** (shape.d - 1) * prof.ghat(nodes)))
    assert mass == pytest.approx(volume(shape) ** 2, rel=1e-8)


def test_profile_endpoints_and_support():
    prof = radial_profile(Box((1.0, 2.0)))
    assert prof.ghat(0.0) == pytest.approx(unit_sphere_area(2) * 2.0, rel=1e-12)
    assert prof.ghat(prof.support_radius) == 0.0
    assert prof.ghat(prof.support_radius + 1.0) == 0.0
    assert prof.support_radius == pytest.approx(math.sqrt(5.0), rel=1e-15)
    with pytest.raises(ValueError):
        prof.ghat(-0.5)


def test_box_profile_kinks_at_side_lengths():
    prof = radial_profile(Box((1.0, 2.0)))
    assert 1.0 in prof.kink_radii and 2.0 in prof.kink_radii
    assert all(0.0 < k < prof.support_radius for k in prof.kink_radii)
    assert radial_profile(Ball(1.0, 2)).kink_radii == ()


def test_ball_profile_matches_lens_formula():
    prof = radial_profile(Ball(1.0, 2))
    rho = np.array([0.3, 1.0, 1.7])
    expect = unit_sphere_area(2) * np.array([covariance_ball(2, 1.0, a) for a in rho])
    np.testing.assert_allclose(prof.ghat(rho), expect, rtol=1e-12)
    assert prof.ghat(0.0) == pytest.approx(unit_sphere_area(2) * math.pi, rel=1e-15)
    assert prof.angular_method == "exact-radial"


def test_box_d3_profile_method_tag():
    assert radial_profile(Box((1.0, 1.0, 1.0))).angular_method == "exact-radial"


def test_profile_rejects_nan_radius():
    prof = radial_profile(Box((1.0, 2.0, 3.0)))
    with pytest.raises(ValueError):
        prof.ghat(float("nan"))
    with pytest.raises(ValueError):
        prof.ghat(np.array([0.5, np.nan]))
    assert prof.ghat(math.inf) == 0.0


@pytest.mark.parametrize("rho", [1e-300, 4e-313, 5e-324])
def test_box_d3_profile_at_tiny_radius_warns_nothing(rho):
    # 1e-300 overflowed L/s in the azimuthal integral, subnormal radii also L/r
    prof = radial_profile(Box((1.0, 2.0, 3.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = prof.ghat(rho)
    assert value == pytest.approx(prof.ghat(0.0), rel=1e-14)


# -- box ghat: closed-form pieces against the general expressions ----------------


def _reference_azimuth_integral(s, L1, L2):
    """The general closed form of the azimuthal integral at every s, inverse
    trigonometric support angles included: the reference for
    ``_box_azimuth_integral``, which skips them on the whole quarter circle."""
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phi0 = np.arccos(np.minimum(np.where(s > 0, L1 / np.where(s > 0, s, 1.0), 1.0), 1.0))
        phi1 = np.arcsin(np.minimum(np.where(s > 0, L2 / np.where(s > 0, s, 1.0), 1.0), 1.0))
    phi0 = np.where(s <= L1, 0.0, phi0)
    phi1 = np.where(s <= L2, math.pi / 2.0, phi1)
    live = phi1 > phi0
    p0, p1 = np.where(live, phi0, 0.0), np.where(live, phi1, 0.0)
    val = (
        L1 * L2 * (p1 - p0)
        + L1 * s * (np.cos(p1) - np.cos(p0))
        - L2 * s * (np.sin(p1) - np.sin(p0))
        + 0.25 * s * s * (np.cos(2.0 * p0) - np.cos(2.0 * p1))
    )
    return np.where(live, val, 0.0)


D2_SIDES = [(1.0, 2.0), (2.0, 1.0), (1.0, 1.0), (3.0, 0.5)]


def _d2_radii(L1, L2):
    m = min(L1, L2)
    return np.concatenate(
        [
            [0.0, 5e-324, 1e-300],
            np.linspace(0.0, m, 1001),
            [m, np.nextafter(m, -np.inf), np.nextafter(m, np.inf), math.hypot(L1, L2)],
            np.linspace(m, math.hypot(L1, L2), 1001),
        ]
    )


@pytest.mark.parametrize("sides", D2_SIDES)
def test_box_azimuth_integral_matches_general_form_bitwise(sides):
    # above min(L), where the 2-D complement is A_2 L1 L2 - ghat, bit for bit
    L1, L2 = sides
    s = _d2_radii(L1, L2)
    s = s[s > min(sides)]
    want = _reference_azimuth_integral(s, L1, L2)
    assert geometry._box_azimuth_integral(s, L1, L2).tobytes() == want.tobytes()
    full = unit_sphere_area(2) * (L1 * L2)
    assert geometry._box_deficit_d2(s, L1, L2).tobytes() == (full - 4.0 * want).tobytes()


def test_box_d2_ghat_of_a_long_thin_box_stays_finite_without_warning():
    # near the diameter 1e154 the short-radius form 4 s (L1 + L2 - s/2) would overflow
    prof = radial_profile(Box((1.0, 1e154)))
    g = prof.ghat(np.linspace(0.0, prof.support_radius, 9))
    assert np.all(np.isfinite(g)) and g[0] == unit_sphere_area(2) * 1e154 and g[-1] == 0.0


@pytest.mark.parametrize("sides", D2_SIDES)
def test_box_deficit_d2_below_shortest_side_is_elementary(sides):
    # 2 Per s - 2 s^2 to full relative precision at normal s; the ghat it
    # gives is within four ulps of ghat(0) of the general form (each side rounds)
    L1, L2 = sides
    s = _d2_radii(L1, L2)
    s = s[s <= min(sides)]
    got = geometry._box_deficit_d2(s, L1, L2)
    assert np.all(got >= 0.0)
    full = unit_sphere_area(2) * (L1 * L2)
    want = _reference_azimuth_integral(s, L1, L2)
    np.testing.assert_allclose(full - got, 4.0 * want, rtol=0.0, atol=4.0 * np.spacing(full))
    normal = s >= np.finfo(float).tiny
    elementary = 4.0 * (L1 + L2) * s[normal] - 2.0 * s[normal] ** 2
    np.testing.assert_allclose(got[normal], elementary, rtol=1e-15, atol=0.0)


BOX_SIDES = [(1.0, 2.0, 3.0), (3.0, 1.0, 2.0), (1.0, 1.0, 1.0), (2.0, 2.0, 0.5)]


def _box_ghat_d3(rho, *sides):
    """ghat of a 3-D box through its profile, A_3 |Omega| - ghat_deficit."""
    return radial_profile(Box(sides)).ghat(np.asarray(rho, dtype=float))


def _ghat0(sides):
    return unit_sphere_area(3) * float(np.prod(sides))


def _cut_radii(sides):
    """The sides, the three face diagonals and the full diagonal."""
    L1, L2, L3 = sides
    ell = math.sqrt(L1 * L1 + L2 * L2 + L3 * L3)
    return np.array([L1, L2, L3, math.hypot(L1, L2), math.hypot(L1, L3), math.hypot(L2, L3), ell])


def _mp_box_ghat_d3(rho, L1, L2, L3):
    """30-digit reference: 8 int_0^{min(1, L3/rho)} (L3 - rho z) I2(rho sqrt(1 - z^2)) dz
    with z = cos(theta) and I2 the azimuthal closed form, by ``mpmath.quad``
    split where rho sqrt(1 - z^2) crosses L1, L2 or hypot(L1, L2)."""
    with mpmath.workdps(30):
        rho, L1, L2, L3 = (mpmath.mpf(x) for x in (rho, L1, L2, L3))
        if rho == 0:
            return float(4 * mpmath.pi * L1 * L2 * L3)
        top = min(mpmath.mpf(1), L3 / rho)
        cuts = [mpmath.sqrt(1 - (c / rho) ** 2) for c in (L1, L2, mpmath.hypot(L1, L2)) if c < rho]
        pts = [mpmath.mpf(0)] + sorted(z for z in cuts if 0 < z < top) + [top]
        f = lambda z: (L3 - rho * z) * _mp_azimuth(rho * mpmath.sqrt(1 - z * z), L1, L2)
        return float(8 * mpmath.quad(f, pts))


def _mp_azimuth(s, L1, L2):
    """int_0^{pi/2} (L1 - s cos phi)^+ (L2 - s sin phi)^+ dphi in mpmath."""
    p0 = mpmath.acos(L1 / s) if s > L1 else mpmath.mpf(0)
    p1 = mpmath.asin(L2 / s) if s > L2 else mpmath.pi / 2
    if p1 <= p0:
        return mpmath.mpf(0)
    return (
        L1 * L2 * (p1 - p0)
        + L1 * s * (mpmath.cos(p1) - mpmath.cos(p0))
        - L2 * s * (mpmath.sin(p1) - mpmath.sin(p0))
        + s * s * (mpmath.cos(2 * p0) - mpmath.cos(2 * p1)) / 4
    )


def _assert_matches_mp_reference(sides, rho, rtol, atol):
    ell = math.sqrt(sum(s * s for s in sides))
    got = _box_ghat_d3(rho, *sides)
    want = np.array([_mp_box_ghat_d3(x, *sides) if x < ell else 0.0 for x in rho])
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol * _ghat0(sides))


@pytest.mark.parametrize("sides", BOX_SIDES)
def test_box_d3_ghat_matches_mpmath_reference(sides):
    cuts = _cut_radii(sides)
    rho = np.concatenate(
        [
            cuts,
            np.nextafter(cuts, 0.0),
            np.nextafter(cuts, np.inf),
            np.linspace(0.0, cuts[-1], 10)[1:-1],
        ]
    )
    _assert_matches_mp_reference(sides, rho, rtol=1e-14, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    sides=st.tuples(*[st.floats(0.2, 5.0)] * 3),
    frac=st.floats(0.0, 1.0),
)
def test_box_d3_ghat_matches_mpmath_reference_property(sides, frac):
    ell = math.sqrt(sum(s * s for s in sides))
    _assert_matches_mp_reference(sides, np.array([frac * ell]), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("sides", BOX_SIDES)
def test_box_d3_ghat_continuous_across_kinks(sides):
    cuts = _cut_radii(sides)[:-1]
    below, at, above = (
        _box_ghat_d3(x, *sides)
        for x in (np.nextafter(cuts, 0.0), cuts, np.nextafter(cuts, np.inf))
    )
    atol = 4e-15 * _ghat0(sides)
    np.testing.assert_allclose(below, at, rtol=0.0, atol=atol)
    np.testing.assert_allclose(above, at, rtol=0.0, atol=atol)


@pytest.mark.parametrize("sides", BOX_SIDES)
def test_box_d3_ghat_vanishes_at_and_beyond_diagonal(sides):
    ell = _cut_radii(sides)[-1]
    beyond = np.array([ell, np.nextafter(ell, np.inf), 1.5 * ell, 10.0 * ell])
    assert np.all(_box_ghat_d3(beyond, *sides) == 0.0)
    just_below = _box_ghat_d3(np.array([np.nextafter(ell, 0.0)]), *sides)[0]
    assert abs(just_below) <= 1e-15 * _ghat0(sides)


@pytest.mark.parametrize("sides", BOX_SIDES)
def test_box_d3_ghat_mass_identity(sides):
    # int_0^ell rho^2 ghat(rho) drho = |Omega|^2.  Between cut radii ghat is
    # analytic except for half-integer powers of (rho - left cut), which
    # rho = a + (b - a) s^2 turns smooth, so Gauss-Legendre in s converges.
    edges = np.concatenate([[0.0], np.unique(_cut_radii(sides))])
    s, w = np.polynomial.legendre.leggauss(40)
    s, w = 0.5 * (s + 1.0), 0.5 * w
    mass = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        rho = a + (b - a) * s * s
        mass += float(np.sum(w * 2.0 * (b - a) * s * rho * rho * _box_ghat_d3(rho, *sides)))
    assert mass == pytest.approx(volume(Box(sides)) ** 2, rel=1e-13)


# A polar Gauss rule, 48 nodes per segment between the angles where
# rho sin(psi) = L3 or rho cos(psi) meets L1, L2 or hypot(L1, L2): an
# independent cross-check whose own error bounds the comparison.  Its
# psi-integrand has square-root kinks at the segment ends, so against
# ``_mp_box_ghat_d3`` it is off by up to 9.96e-11 ghat(0) on BOX_SIDES and
# 9.1e-10 ghat(0) on sides in [0.2, 5]^3; below min(L) it is exact.
_POLAR_NODES, _POLAR_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _reference_box_ghat_d3(rho, L1, L2, L3):
    """The piecewise Gauss loop over all five polar segments at every rho > 0."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    pos = rho > 0
    if pos.any():
        r = rho[pos]
        half_pi = math.pi / 2.0
        with np.errstate(over="ignore"):
            cuts = [np.arcsin(np.minimum(L3 / r, 1.0))]
            for c in (L1, L2, math.hypot(L1, L2)):
                cuts.append(np.arccos(np.minimum(c / r, 1.0)))
        cuts = np.stack([np.zeros_like(r)] + cuts + [np.full_like(r, half_pi)], axis=-1)
        cuts = np.sort(np.clip(cuts, 0.0, half_pi), axis=-1)
        acc = np.zeros_like(r)
        for j in range(cuts.shape[-1] - 1):
            half = 0.5 * (cuts[:, j + 1] - cuts[:, j])
            mid = 0.5 * (cuts[:, j + 1] + cuts[:, j])
            psi = mid[:, None] + half[:, None] * _POLAR_NODES[None, :]
            s = r[:, None] * np.cos(psi)
            f = (
                np.maximum(L3 - r[:, None] * np.sin(psi), 0.0)
                * _reference_azimuth_integral(s, L1, L2)
                * np.cos(psi)
            )
            acc += half * (f @ _POLAR_WEIGHTS)
        out[pos] = 8.0 * acc
    out[~pos] = unit_sphere_area(3) * L1 * L2 * L3
    return out


def _assert_matches_reference(sides, rho, atol=1e-15):
    got = _box_ghat_d3(rho, *sides)
    want = _reference_box_ghat_d3(rho, *sides)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=atol * _ghat0(sides))


@pytest.mark.parametrize("sides", BOX_SIDES)
def test_box_d3_ghat_matches_all_segment_loop(sides):
    cut_radii = _cut_radii(sides)
    rho = np.concatenate(
        [
            [0.0, 1e-300, 5e-324],
            cut_radii,
            np.nextafter(cut_radii, 0.0),
            np.nextafter(cut_radii, np.inf),
            np.linspace(0.0, cut_radii[-1], 2001),
        ]
    )
    _assert_matches_reference(sides, rho, atol=2e-10)


@settings(max_examples=100, deadline=None)
@given(
    sides=st.tuples(*[st.floats(0.2, 5.0)] * 3),
    frac=st.floats(0.0, 1.0),
)
def test_box_d3_ghat_matches_all_segment_loop_property(sides, frac):
    ell = math.sqrt(sum(s * s for s in sides))
    _assert_matches_reference(sides, np.array([frac * ell]), atol=2e-9)


@settings(max_examples=100, deadline=None)
@given(
    sides=st.tuples(*[st.floats(0.2, 5.0)] * 3),
    frac=st.floats(0.0, 1.0),
)
def test_box_d3_ghat_cubic_matches_all_segment_loop_property(sides, frac):
    # rho <= min(L) is the closed-form cubic branch, where the loop is exact
    _assert_matches_reference(sides, np.array([frac * min(sides)]))


@pytest.mark.parametrize("sides", BOX_SIDES)
def test_box_d3_ghat_continuous_at_shortest_side(sides):
    # the cubic at min(L) against the slab integral one ulp above it
    m = min(sides)
    at, above = _box_ghat_d3(np.array([m, np.nextafter(m, np.inf)]), *sides)
    atol = 1e-15 * unit_sphere_area(3) * float(np.prod(sides))
    np.testing.assert_allclose(at, above, rtol=1e-14, atol=atol)


@pytest.mark.parametrize("sides", BOX_SIDES)
def test_box_d3_ghat_slope_at_zero_is_pi_perimeter(sides):
    # ghat_deficit(h) / h -> w_2 Per = pi Per (the paper's expansion).  The
    # quotient is off by the h^2 term, (8/3) h sum(L); the complement carries
    # no rounding of ghat(0), so the ulp allowance is slack.
    h = 1e-9 * min(sides)
    g0 = _ghat0(sides)
    bound = 8.0 / 3.0 * h * sum(sides) + 2.0 * np.spacing(g0) / h
    deficit = radial_profile(Box(sides)).ghat_deficit(h)
    assert abs(deficit / h - math.pi * perimeter(Box(sides))) <= bound


@pytest.mark.parametrize("sides", [(1.0, 2.0, 3.0), (0.3, 0.7, 1.1), (1.0, 1.0, 1.0), (2.0, 2.0, 0.5)])
def test_box_d3_ghat_at_zero_is_sphere_area_times_volume(sides):
    g0 = _box_ghat_d3(np.array([0.0]), *sides)[0]
    assert g0 == unit_sphere_area(3) * volume(Box(sides))
    assert radial_profile(Box(sides)).ghat(0.0) == g0


def test_box_d3_ghat_matches_sphere_quadrature_of_covariance():
    # ghat(rho) = int_{S^2} g(rho u) dH(u) by brute force: Gauss in cos(theta)
    # on each hemisphere times the midpoint rule in phi, on covariance_box.
    sides = (1.0, 2.0, 3.0)
    x, w = np.polynomial.legendre.leggauss(400)
    cos_t = np.concatenate([0.5 * (x - 1.0), 0.5 * (x + 1.0)])
    w_t = np.concatenate([0.5 * w, 0.5 * w])
    n_phi = 800
    phi = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
    sin_t = np.sqrt(1.0 - cos_t * cos_t)
    u = np.stack(
        [
            np.outer(sin_t, np.cos(phi)),
            np.outer(sin_t, np.sin(phi)),
            np.broadcast_to(cos_t[:, None], (cos_t.size, n_phi)),
        ],
        axis=-1,
    ).reshape(-1, 3)
    prof = radial_profile(Box(sides))
    for rho in (0.3, 0.9, 1.5, 2.1, 2.6, 3.3):
        g = covariance_box(sides, rho * u).reshape(cos_t.size, n_phi)
        brute = (2.0 * math.pi / n_phi) * float(w_t @ g.sum(axis=1))
        assert brute == pytest.approx(prof.ghat(rho), rel=1e-4)


def test_indicator_has_no_profile():
    # an Indicator has no closed-form ghat; the calls raise before sampling
    def untouchable(x):
        raise AssertionError("membership must not be evaluated")

    shape = Indicator(
        d=2, contains=untouchable, bbox_lo=(-1.0, -1.0), bbox_hi=(1.0, 1.0), volume=math.pi
    )
    with pytest.raises(UnsupportedShapeError):
        radial_profile(shape)
    with pytest.raises(UnsupportedShapeError):
        alpha_perimeter(shape, 0.5)
    # the bounding-box diagonal is only an upper bound for the diameter
    with pytest.raises(UnsupportedShapeError):
        diameter(shape)


# -- Monte Carlo covariance ------------------------------------------------------


def test_covariance_mc_matches_closed_form():
    shape = Box((1.0, 2.0))
    y = np.array([0.3, -0.4])
    value, stderr = covariance_mc(shape, y, samples=2**18, seed=11)
    closed = float(covariance(shape, y))
    assert abs(value - closed) <= 3.0 * stderr
    assert stderr > 0.0


def test_covariance_mc_reproducible():
    shape = Ball(1.0, 2)
    y = np.array([0.5, 0.0])
    a = covariance_mc(shape, y, samples=2**16, seed=4)
    b = covariance_mc(shape, y, samples=2**16, seed=4)
    c = covariance_mc(shape, y, samples=2**16, seed=5)
    assert a == b
    assert c[0] != a[0]


@pytest.mark.parametrize("shape", [Ball(1.0, 2), Box((1.0, 2.0))])
def test_covariance_mc_rejects_nan_and_zeroes_infinite_displacement(shape):
    with pytest.raises(ValueError, match="NaN"):
        covariance_mc(shape, [math.nan, 0.0], samples=2**10, seed=0)
    assert covariance_mc(shape, [math.inf, 0.0], samples=2**10, seed=0) == (0.0, 0.0)
    assert covariance_mc(shape, [0.1, -math.inf], samples=2**10, seed=0) == (0.0, 0.0)


# -- the complement ghat_deficit ------------------------------------------------


def test_ghat_deficit_matches_elementary_ball_forms():
    # disc: R^2 (2 arcsin(s/2) + (s/2) sqrt(4 - s^2)); 3-ball: R^3 pi s (12 - s^2) / 12,
    # both times A_d, with s = rho / R
    R = 1.7
    s = np.concatenate([[1e-300, 1e-20, 1e-8], np.linspace(0.0, 2.0, 401)[1:-1], [np.nextafter(2.0, 0.0)]])
    disc = R**2 * (2.0 * np.arcsin(s / 2.0) + (s / 2.0) * np.sqrt(4.0 - s * s))
    np.testing.assert_allclose(
        radial_profile(Ball(R, 2)).ghat_deficit(R * s), unit_sphere_area(2) * disc, rtol=2e-15, atol=0.0
    )
    ball = R**3 * math.pi * s * (12.0 - s * s) / 12.0
    np.testing.assert_allclose(
        radial_profile(Ball(R, 3)).ghat_deficit(R * s), unit_sphere_area(3) * ball, rtol=2e-15, atol=0.0
    )
    assert radial_profile(Ball(R, 2)).ghat_deficit(0.0) == 0.0


_PROFILE_SHAPES = st.one_of(
    st.builds(Ball, st.floats(0.1, 10.0), st.sampled_from([2, 3, 5])),
    st.builds(lambda sides: Box(sides), st.lists(st.floats(0.1, 10.0), min_size=2, max_size=3)),
)


@settings(max_examples=200, deadline=None)
@given(shape=_PROFILE_SHAPES, frac=st.floats(0.0, 1.5))
def test_ghat_and_its_deficit_add_to_sphere_area_times_volume(shape, frac):
    prof = radial_profile(shape)
    rho = frac * prof.support_radius
    full = unit_sphere_area(shape.d) * volume(shape)
    deficit = prof.ghat_deficit(rho)
    assert 0.0 <= deficit <= full
    assert abs(prof.ghat(rho) + deficit - full) <= 2.0 * np.spacing(full)
    if frac >= 1.0:
        assert prof.ghat(rho) == 0.0 and deficit == full


def _mp_alpha_perimeter(complement, breaks, alpha):
    """30-digit int_0^inf rho^{-1-alpha} complement(rho) drho, complement(rho)
    = A_d |Omega| beyond breaks[-1].  On [0, breaks[1]] the substitution
    rho = u^{1/(1-alpha)} absorbs the rho^{-alpha} head: a plain mp.quad from
    0 misses it (5e-5 off at alpha = 0.9)."""
    with mpmath.workdps(30):
        alpha = mpmath.mpf(alpha)
        breaks = [mpmath.mpf(b) for b in breaks]
        m = 1 / (1 - alpha)
        head = m * mpmath.quad(lambda u: complement(u**m) / u**m, [0, breaks[1] ** (1 / m)])
        body = mpmath.quad(lambda r: r ** (-1 - alpha) * complement(r), breaks[1:])
        tail = complement(breaks[-1]) * breaks[-1] ** (-alpha) / alpha
        return float(head + body + tail)


ALPHAS = [0.3, 0.5, 0.7, 0.9, 0.99]


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("d", [2, 3])
def test_alpha_perimeter_ball_matches_mpmath_reference(d, alpha):
    if d == 2:
        complement = lambda r: 2 * mpmath.pi * (2 * mpmath.asin(r / 2) + (r / 2) * mpmath.sqrt(4 - r * r))
    else:
        complement = lambda r: 4 * mpmath.pi * mpmath.pi * r * (12 - r * r) / 12
    want = _mp_alpha_perimeter(complement, [0, 1, 2], alpha)
    assert alpha_perimeter(Ball(1.0, d), alpha) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_alpha_perimeter_box_d2_matches_mpmath_reference(alpha):
    # 2 Per rho - 2 rho^2 below the shorter side, A_2 |Omega| - ghat above it
    L1, L2 = mpmath.mpf(1), mpmath.mpf(2)

    def complement(r):
        if r <= 1:
            return 12 * r - 2 * r * r
        return 4 * mpmath.pi - 4 * _mp_azimuth(r, L1, L2)

    want = _mp_alpha_perimeter(complement, [0, 1, 2, math.sqrt(5.0)], alpha)
    assert alpha_perimeter(Box((1.0, 2.0)), alpha) == pytest.approx(want, rel=1e-13)


# -- directional variation and perimeters ----------------------------------------


def test_directional_variation_ball():
    # V_u of a ball is twice the measure of its equatorial projection
    for d, R in [(2, 1.0), (3, 0.8)]:
        u = np.zeros(d)
        u[0] = 1.0
        closed = 2.0 * unit_ball_volume(d - 1) * R ** (d - 1)
        assert directional_variation(Ball(R, d), u) == pytest.approx(closed, rel=1e-9)


def test_directional_variation_box_axis_and_diagonal():
    box = Box((1.0, 2.0))
    assert directional_variation(box, np.array([1.0, 0.0])) == pytest.approx(4.0, rel=1e-9)
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    # |u_1| L_2 + |u_2| L_1 crossings per unit length, doubled
    closed = 2.0 * (u[0] * 2.0 + u[1] * 1.0)
    assert directional_variation(box, u) == pytest.approx(closed, rel=1e-9)
    with pytest.raises(ValueError):
        directional_variation(box, np.array([1.0, 1.0]))


@pytest.mark.parametrize(
    "shape,closed",
    [
        (Ball(1.0, 2), 2 * math.pi),
        (Box((1.0, 1.0)), 4.0),
        (Box((1.0, 2.0, 3.0)), 22.0),
    ],
)
def test_perimeter_identity(shape, closed):
    assert perimeter(shape) == pytest.approx(closed, rel=1e-12)
    assert perimeter_via_directional(shape) == pytest.approx(closed, rel=0.01)


def test_indicator_has_no_closed_perimeter():
    with pytest.raises(UnsupportedShapeError):
        perimeter(indicator_ball())
    with pytest.raises(UnsupportedShapeError):
        directional_variation(indicator_ball(), np.array([1.0, 0.0]))
    with pytest.raises(UnsupportedShapeError):
        perimeter_via_directional(indicator_ball())


# -- alpha-perimeter ---------------------------------------------------------------


def test_alpha_perimeter_pinned_values():
    # regression values from the radial quadrature at default tolerances,
    # independently confirmed by the chord Monte Carlo estimator
    assert alpha_perimeter(Ball(1.0, 2), 0.5) == pytest.approx(62.13063880, rel=1e-7)
    assert alpha_perimeter(Box((1.0, 1.0)), 0.5) == pytest.approx(27.21190837, rel=1e-7)


def test_alpha_perimeter_scaling_law():
    # P_alpha(R Omega) = R^{d - alpha} P_alpha(Omega)
    for d in (2, 3):
        base = alpha_perimeter(Ball(1.0, d), 0.5)
        scaled = alpha_perimeter(Ball(2.0, d), 0.5)
        assert scaled / base == pytest.approx(2.0 ** (d - 0.5), rel=1e-6)


def test_alpha_perimeter_regime_domain():
    for bad in (1.0, 1.3, 0.0):
        with pytest.raises(RegimeError):
            alpha_perimeter(Ball(1.0, 2), bad)


# -- shape plumbing ------------------------------------------------------------------


def test_volume_closed_forms_and_mc():
    assert volume(Ball(2.0, 3)) == pytest.approx(4 / 3 * math.pi * 8.0, rel=1e-15)
    assert volume(Box((1.0, 2.0, 3.0))) == 6.0
    bare = indicator_ball(declared_volume=False)
    est, err = covariance_mc(bare, np.zeros(2))
    assert abs(est - math.pi) <= 3.0 * err
    with pytest.raises(UnsupportedShapeError):
        volume(bare)
    assert volume(indicator_ball()) == pytest.approx(math.pi, rel=1e-15)


def test_shape_validation():
    with pytest.raises(ValueError):
        Ball(0.0, 2)
    with pytest.raises(ValueError):
        Ball(1.0, 1)
    with pytest.raises(ValueError):
        Box((1.0,))
    with pytest.raises(ValueError):
        Box((1.0, -2.0))
    with pytest.raises(ValueError):
        Indicator(d=2, contains=lambda x: x, bbox_lo=(0.0,), bbox_hi=(1.0, 1.0))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_shapes_reject_non_finite_sizes(value):
    with pytest.raises(ValueError, match=f"ball radius must be positive and finite, got {value}"):
        Ball(value, 2)
    with pytest.raises(ValueError, match=rf"box sides must be positive and finite, got \(1.0, {value}\)"):
        Box((1.0, value))
    for lo, hi in [((-1.0, value), (1.0, 1.0)), ((-1.0, -1.0), (1.0, value)), ((-value, -1.0), (1.0, 1.0))]:
        with pytest.raises(ValueError, match="bounding box corners must be finite"):
            Indicator(d=2, contains=lambda x: x, bbox_lo=lo, bbox_hi=hi)


@pytest.mark.parametrize("sides", [(1e-80, 1e-80, 1e-80), (1.0, 1.0, 1e90), (1e100, 1e100, 1e100)])
def test_box_ghat_outside_double_range_raises(sides):
    # the cap integrals are of order ell^4: past double range they read
    # NaN or inf, and as subnormals they lose their digits
    prof = radial_profile(Box(sides))
    with pytest.raises(QuadratureError, match="3-D box ghat leaves double range"):
        prof.ghat(np.array([0.0, prof.support_radius / 2]))


@pytest.mark.parametrize("short", [1e-190, 1e-308])
def test_alpha_perimeter_of_a_box_past_double_range_raises(short):
    # rho^(-1-alpha) overflows on the panels graded toward the short side; the
    # long side 4 keeps the volume 4 short a normal double
    with pytest.raises(FloatingPointError):
        alpha_perimeter(Box((4.0, short)), 0.5)


@pytest.mark.parametrize("declared", [-5.0, 0.0, 4.5, math.nan, math.inf])
def test_indicator_rejects_impossible_declared_volume(declared):
    # the bounding box [-1, 1]^2 has volume 4
    square = dict(d=2, contains=lambda x: x, bbox_lo=(-1.0, -1.0), bbox_hi=(1.0, 1.0))
    with pytest.raises(ValueError):
        Indicator(**square, volume=declared)
    assert volume(Indicator(**square, volume=4.0)) == 4.0
