"""Radial alpha-stable density engine: table, series, tails, cache."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatlab import stable
from heatlab.errors import QuadratureError, RegimeError
from heatlab.kernel import moment_d_closed_form, KernelSpec, poisson_constant, unit_sphere_area
from heatlab.stable import (
    StableDensity,
    _gl_nodes_weights,
    cutoff_radius,
    density,
    hankel_p1_adaptive,
    p1_at_zero,
    series_coefficients,
    series_eval,
    switch_radius,
)


def test_value_at_origin_closed_form():
    # p_1(0) = (2 pi)^{-d} A_d Gamma(d/alpha) / alpha
    for alpha, d in [(0.6, 2), (1.0, 2), (1.5, 3), (1.9, 4)]:
        closed = (
            (2 * math.pi) ** -d * unit_sphere_area(d) * math.gamma(d / alpha) / alpha
        )
        assert p1_at_zero(alpha, d) == pytest.approx(closed, rel=1e-14)
        assert density(alpha, d).evaluate(0.0) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_alpha_one_matches_poisson(d):
    dens = density(1.0, d)
    r = np.linspace(0.0, 15.0, 61)
    closed = poisson_constant(d) / (1.0 + r**2) ** ((d + 1) / 2.0)
    np.testing.assert_allclose(dens.evaluate(r), closed, atol=1e-10, rtol=1e-8)


@pytest.mark.parametrize("alpha,d", [(0.6, 2), (1.5, 2), (1.5, 3), (1.2, 4)])
def test_table_matches_adaptive_hankel(alpha, d):
    dens = density(alpha, d)
    for r in np.linspace(0.05, min(dens.r_switch, 8.0), 9):
        ref, _ = hankel_p1_adaptive(alpha, d, float(r))
        assert dens.evaluate(float(r)) == pytest.approx(ref, rel=3e-8, abs=1e-12)


@pytest.mark.parametrize("alpha,d", [(0.6, 2), (1.5, 2), (1.9, 3)])
def test_series_branch_matches_adaptive_hankel(alpha, d):
    dens = density(alpha, d)
    for fac in (1.01, 1.5, 3.0):
        r = dens.r_switch * fac
        ref, ref_err = hankel_p1_adaptive(alpha, d, r, abs_tol=1e-14, rel_tol=1e-11)
        val, err = dens.value_and_error(r)
        assert val == pytest.approx(ref, rel=1e-7, abs=2 * (ref_err + err))


def test_series_error_bound_is_honest():
    dens = density(1.5, 2)
    r = dens.r_switch * 1.2
    val, err = dens.value_and_error(r)
    ref, _ = hankel_p1_adaptive(1.5, 2, r, abs_tol=1e-14, rel_tol=1e-11)
    assert abs(val - ref) <= 10 * err + 1e-13


def test_tail_mass_closed_form_alpha_one():
    # d=2: int_R^inf r kappa_2 (1+r^2)^{-3/2} dr = kappa_2 / sqrt(1+R^2)
    dens = density(1.0, 2)
    R = max(dens.r_switch, 3.0)
    val, err = dens.tail_mass(R)
    closed = poisson_constant(2) / math.sqrt(1.0 + R**2)
    assert val == pytest.approx(closed, rel=1e-10, abs=err)
    # d=3: antiderivative of r^2 (1+r^2)^{-2} is (arctan r)/2 - r/(2(1+r^2))
    dens3 = density(1.0, 3)
    R = max(dens3.r_switch, 3.0)
    val3, err3 = dens3.tail_mass(R)
    closed3 = poisson_constant(3) * (math.pi / 4 - math.atan(R) / 2 + R / (2 * (1 + R**2)))
    assert val3 == pytest.approx(closed3, rel=1e-10, abs=err3)


def test_tail_mass_matches_segment_quadrature():
    dens = density(1.5, 2)
    r1 = max(dens.r_switch, 2.0)
    r2 = 4.0 * r1
    nodes, weights = _gl_nodes_weights(np.geomspace(r1, r2, 12))
    seg = float(np.sum(weights * nodes * dens.evaluate(nodes)))
    assert dens.tail_mass(r1)[0] - dens.tail_mass(r2)[0] == pytest.approx(seg, rel=1e-9)


def test_tail_moment_completes_first_moment():
    alpha, d = 1.5, 2
    dens = density(alpha, d)
    R = max(dens.r_switch, 2.0)
    nodes, weights = _gl_nodes_weights(np.linspace(0.0, R, 25))
    head = float(np.sum(weights * nodes**d * dens.evaluate(nodes)))
    tail, _ = dens.tail_moment(R)
    closed = moment_d_closed_form(KernelSpec.stable(alpha, d))
    assert head + tail == pytest.approx(closed, rel=1e-8)


def test_tail_requires_series_region():
    dens = density(1.5, 2)
    with pytest.raises(ValueError):
        dens.tail_mass(0.5 * dens.r_switch)
    with pytest.raises(ValueError):
        dens.tail_moment(0.5 * dens.r_switch)


def test_tail_moment_divergence_flagged():
    for alpha in (0.7, 1.0):
        dens = density(alpha, 2)
        with pytest.raises(RegimeError):
            dens.tail_moment(dens.r_switch + 1.0)


def test_cutoff_radius_meets_tolerance():
    for alpha in (0.5, 1.3, 1.95):
        R = cutoff_radius(alpha, 2, 1e-12)
        assert math.exp(-(R**alpha)) <= 1e-12


def test_series_eval_is_vectorized():
    dens = density(1.4, 2)
    r = dens.r_switch * np.array([1.1, 2.0, 5.0])
    vals, err = series_eval(1.4, 2, dens._scaled, dens.r_switch, r)
    assert vals.shape == err.shape == r.shape
    scalar, scalar_err = series_eval(1.4, 2, dens._scaled, dens.r_switch, float(r[1]))
    assert scalar == vals[1] and scalar_err == err[1]


def _log_form_sum(alpha, d, K, r):
    """sum_{k<=K} c_k r^{-d-alpha k} term by term from the log-form coefficients."""
    sign, logmag = series_coefficients(alpha, d)
    k = np.arange(1, K + 1, dtype=float)
    logr = np.log(np.atleast_1d(r))[:, None]
    terms = sign[:K] * np.exp(logmag[:K] - (d + alpha * k) * logr)
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0, 1.2, 1.5, 1.9, 1.99])
def test_horner_matches_log_form_sum(alpha, d):
    r_s, K, _, scaled = switch_radius(alpha, d, 1e-10, 1e-8)
    r = np.geomspace(r_s * (1.0 + 1e-12), 1e6, 400)
    vals, _ = series_eval(alpha, d, scaled, r_s, r)
    ref, _ = _log_form_sum(alpha, d, K, r)
    np.testing.assert_allclose(vals, ref, rtol=1e-13, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.5, 1.99),
    d=st.sampled_from([2, 3, 5]),
    frac=st.floats(0.0, 1.0),
)
def test_horner_matches_log_form_sum_property(alpha, d, frac):
    # Measured against the term magnitudes: for alpha just below 1 the switch
    # radius is 0.8, where the alternating series cancels ~3.5 digits in any
    # summation order (alpha=0.913, d=5: both sums sit 5e-13 and 8e-13 from
    # a 40-digit reference).  Elsewhere the two scales coincide.
    r_s, K, _, scaled = switch_radius(alpha, d, 1e-10, 1e-8)
    r = r_s * (1.0 + 1e-12) * (1e6 / r_s) ** frac
    val, _ = series_eval(alpha, d, scaled, r_s, r)
    ref, mag = _log_form_sum(alpha, d, K, r)
    assert abs(val - ref[0]) <= 1e-13 * mag[0]


def test_series_error_is_next_two_neglected_terms():
    alpha, d = 1.2, 3
    r_s, K, err_s, scaled = switch_radius(alpha, d, 1e-10, 1e-8)
    assert len(scaled) == K + 2
    r = 1.7 * r_s
    _, err = series_eval(alpha, d, scaled, r_s, r)
    _, logmag = series_coefficients(alpha, d)
    neglected = np.exp(logmag[K : K + 2] - (d + alpha * np.arange(K + 1, K + 3)) * math.log(r))
    assert err == pytest.approx(neglected.max(), rel=1e-13)
    _, err_at_switch = series_eval(alpha, d, scaled, r_s, r_s)
    assert err_at_switch == pytest.approx(err_s, rel=1e-13)


def test_scalar_and_batch_evaluation_agree_bitwise():
    dens = density(1.0, 2)
    r = dens.r_switch * np.concatenate([np.linspace(0.0, 1.0, 7), np.geomspace(1.0 + 1e-12, 1e4, 41)])
    batch = dens.evaluate(r)
    singles = np.array([dens.evaluate(float(x)) for x in r])
    np.testing.assert_array_equal(batch, singles)
    np.testing.assert_array_equal(dens.evaluate(r[::-1])[::-1], batch)
    for x, b in zip(r[7:], batch[7:]):
        assert dens.value_and_error(x)[0] == b


def test_series_branch_memory_is_bounded():
    dens = density(1.0, 2)
    r = dens.r_switch * np.geomspace(1.0 + 1e-12, 50.0, 2**18)
    tracemalloc.start()
    try:
        dens.evaluate(r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


def test_table_that_fails_validation_raises(monkeypatch):
    monkeypatch.setattr(StableDensity, "_validate", lambda self, spline: (0.25, False))
    with pytest.raises(QuadratureError) as info:
        StableDensity(1.5, 2)
    assert info.value.residual == 0.25


def test_switch_radius_scan_edge_raises(monkeypatch):
    monkeypatch.setattr(stable, "series_truncation", lambda alpha, d, coeffs, r, tol: (5, 0.5))
    with pytest.raises(QuadratureError) as info:
        StableDensity(1.5, 2)
    assert info.value.residual == 0.5


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        density(1.5, 2).evaluate(-0.1)


def test_nan_radius_rejected():
    dens = density(1.5, 2)
    with pytest.raises(ValueError):
        dens.evaluate(float("nan"))
    with pytest.raises(ValueError):
        dens.evaluate(np.array([1.0, np.nan]))
    assert dens.evaluate(math.inf) == 0.0


def test_constructor_validation():
    with pytest.raises(RegimeError):
        StableDensity(2.0, 2)
    with pytest.raises(RegimeError):
        StableDensity(0.0, 2)
    with pytest.raises(ValueError):
        StableDensity(1.5, 1)


def test_factory_caches_per_key():
    a = density(1.5, 2)
    b = density(1.5, 2)
    assert a is b
    c = density(1.5, 2, abs_tol=1e-9)
    assert c is not a


def test_quadrature_error_carries_residual():
    err = QuadratureError("did not converge", 0.25)
    assert err.residual == 0.25
