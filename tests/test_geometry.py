"""Set covariance, spherical profiles, directional variation, perimeters."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatlab import geometry
from heatlab.errors import RegimeError, UnsupportedShapeError
from heatlab.geometry import (
    AngularConfig,
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
    assert radial_profile(Box((1.0, 1.0, 1.0))).angular_method == "angular-quadrature"


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


# -- 3-D box ghat: segment skipping against the all-segment loop ------------------


def _reference_box_ghat_d3(rho, L1, L2, L3):
    """The piecewise Gauss loop over all five polar segments, zero-width ones
    included: the reference for ``_box_ghat_d3``, which skips those."""
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
            psi = mid[:, None] + half[:, None] * geometry._POLAR_NODES[None, :]
            s = r[:, None] * np.cos(psi)
            f = (
                np.maximum(L3 - r[:, None] * np.sin(psi), 0.0)
                * geometry._box_azimuth_integral(s, L1, L2)
                * np.cos(psi)
            )
            acc += half * (f @ geometry._POLAR_WEIGHTS)
        out[pos] = 8.0 * acc
    out[~pos] = unit_sphere_area(3) * L1 * L2 * L3
    return out


def _assert_matches_reference(sides, rho):
    got = geometry._box_ghat_d3(rho, *sides)
    want = _reference_box_ghat_d3(rho, *sides)
    atol = 1e-15 * unit_sphere_area(3) * float(np.prod(sides))
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=atol)


@pytest.mark.parametrize("sides", [(1.0, 2.0, 3.0), (3.0, 1.0, 2.0), (1.0, 1.0, 1.0), (2.0, 2.0, 0.5)])
def test_box_d3_ghat_matches_all_segment_loop(sides):
    L1, L2, L3 = sides
    ell = math.sqrt(L1 * L1 + L2 * L2 + L3 * L3)
    cut_radii = np.array(
        [L1, L2, L3, math.hypot(L1, L2), math.hypot(L1, L3), math.hypot(L2, L3), ell]
    )
    rho = np.concatenate(
        [
            [0.0, 1e-300, 5e-324],
            cut_radii,
            np.nextafter(cut_radii, 0.0),
            np.nextafter(cut_radii, np.inf),
            np.linspace(0.0, ell, 2001),
        ]
    )
    _assert_matches_reference(sides, rho)


@settings(max_examples=100, deadline=None)
@given(
    sides=st.tuples(*[st.floats(0.2, 5.0)] * 3),
    frac=st.floats(0.0, 1.0),
)
def test_box_d3_ghat_matches_all_segment_loop_property(sides, frac):
    ell = math.sqrt(sum(s * s for s in sides))
    _assert_matches_reference(sides, np.array([frac * ell]))


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


def test_indicator_profile_tracks_ball():
    # sphere-direction MC profile of a disk given as a bare indicator
    cfg = AngularConfig(samples=2**14, seed=5)
    prof = radial_profile(indicator_ball(), angular_cfg=cfg)
    assert prof.angular_method == "sphere-MC"
    ref = radial_profile(Ball(1.0, 2))
    rho = np.linspace(0.0, 1.8, 10)
    scale = unit_sphere_area(2) * math.pi
    err = np.abs(prof.ghat(rho) - ref.ghat(rho)) / scale
    assert err.max() < 0.02


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


def test_alpha_perimeter_rejects_mismatched_profile():
    prof = radial_profile(Ball(1.0, 2))
    with pytest.raises(ValueError):
        alpha_perimeter(Ball(2.0, 2), 0.5, profile=prof)


# -- shape plumbing ------------------------------------------------------------------


def test_volume_closed_forms_and_mc():
    assert volume(Ball(2.0, 3)) == pytest.approx(4 / 3 * math.pi * 8.0, rel=1e-15)
    assert volume(Box((1.0, 2.0, 3.0))) == 6.0
    est = volume(indicator_ball(declared_volume=False), samples=2**18, seed=0)
    assert est == pytest.approx(math.pi, rel=5e-3)
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
