"""Radial alpha-stable density engine: table, series, tails, cache."""

import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline, PPoly

from heatlab import stable
from heatlab.errors import QuadratureError, RegimeError
from heatlab.kernel import moment_d_closed_form, KernelSpec, poisson_constant, unit_sphere_area
from heatlab.stable import (
    StableDensity,
    _clamped_spline,
    _gl_nodes_weights,
    density,
    p1_at_zero,
    series_coefficients,
    series_bound,
    series_eval,
    subordination_p1,
    switch_radius,
)
from hankel_reference import cutoff_radius, hankel_p1_adaptive


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
    # the table serves [0, r_switch ~ 1.9] at K <= 40; past r_switch the
    # series is held to its own truncation bound, which just beyond r_switch
    # (~3e-12) exceeds the table's error
    dens = density(1.0, d)
    r = np.linspace(0.0, 20.0, 4001)
    closed = poisson_constant(d) / (1.0 + r**2) ** ((d + 1) / 2.0)
    err = np.abs(dens.evaluate(r) - closed)
    near = r <= dens.r_switch
    assert r[near][-1] > 1.89
    assert err[near].max() <= 2e-12
    bound = series_bound(1.0, d, dens._scaled, dens.r_switch, r[~near])
    assert np.all(err[~near] <= bound + 1e-15)


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


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("alpha", [0.2, 0.25, 0.3, 0.4, 0.5, 0.7, 1.0, 1.5, 1.9])
def test_every_alpha_builds_or_raises_in_bounded_time(alpha, d):
    # the smallest alpha have peaks too sharp for the spline table, which then
    # fails validation after its four builds instead of hanging or lying
    t0 = time.perf_counter()
    try:
        dens = StableDensity(alpha, d)
    except QuadratureError as exc:
        assert exc.residual > 0
    else:
        defect, ok = dens._validate()
        assert ok and defect == dens.table_error
        # the join at r_switch: a short series, meeting the table within the
        # density's tolerance, with its truncation bound a tenth of it
        r_s = dens.r_switch
        target = dens._target(subordination_p1(alpha, d, np.array([r_s]))[0])
        assert dens.series_K <= stable.MAX_SERIES_TERMS
        table = dens._table(np.array([r_s]))[0]
        assert abs(table - series_eval(alpha, d, dens._scaled, r_s, r_s)) <= target
        assert series_bound(alpha, d, dens._scaled, r_s, r_s) < 0.1 * target
    assert time.perf_counter() - t0 <= 5.0


@pytest.mark.parametrize("d", [2, 3])
def test_small_alpha_builds(d):
    dens = density(0.3, d)
    r = np.linspace(0.0, dens.r_switch, 33)
    assert np.all(np.diff(dens.evaluate(r)) < 0)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("alpha", [0.2, 0.3])
def test_subordination_matches_convergent_series(alpha, d):
    # below alpha = 1 the full series converges at every r > 0; all 220
    # coefficients leave a remainder below 1e-250 on [0.05, 0.8]
    r = np.geomspace(0.05, 0.8, 13)
    ref, mag = _log_form_sum(alpha, d, 220, r)
    assert np.all(mag <= 400 * ref)
    np.testing.assert_allclose(subordination_p1(alpha, d, r), ref, rtol=1e-11, atol=0.0)


def test_subordination_rules_agree_near_two():
    # alpha -> 2 confines the heavy tail to a thin layer at phi = pi
    for alpha in (1.99, 1.999, 1.9999):
        r = np.linspace(0.0, 9.0, 19)
        coarse = subordination_p1(alpha, 2, r)
        fine = subordination_p1(alpha, 2, r, refine=2)
        np.testing.assert_allclose(coarse, fine, rtol=1e-13, atol=1e-14)


def test_tail_mass_closed_form_alpha_one():
    # d=2: int_R^inf r kappa_2 (1+r^2)^{-3/2} dr = kappa_2 / sqrt(1+R^2)
    dens = density(1.0, 2)
    R = max(dens.r_switch, 3.0)
    val, err = dens.radial_integral(1, R)
    closed = poisson_constant(2) / math.sqrt(1.0 + R**2)
    assert val == pytest.approx(closed, rel=1e-10, abs=err)
    # d=3: antiderivative of r^2 (1+r^2)^{-2} is (arctan r)/2 - r/(2(1+r^2))
    dens3 = density(1.0, 3)
    R = max(dens3.r_switch, 3.0)
    val3, err3 = dens3.radial_integral(2, R)
    closed3 = poisson_constant(3) * (math.pi / 4 - math.atan(R) / 2 + R / (2 * (1 + R**2)))
    assert val3 == pytest.approx(closed3, rel=1e-10, abs=err3)


def test_tail_mass_matches_segment_quadrature():
    dens = density(1.5, 2)
    r1 = max(dens.r_switch, 2.0)
    r2 = 4.0 * r1
    nodes, weights = _gl_nodes_weights(np.geomspace(r1, r2, 12))
    seg = float(np.sum(weights * nodes * dens.evaluate(nodes)))
    assert dens.radial_integral(1, r1)[0] - dens.radial_integral(1, r2)[0] == pytest.approx(seg, rel=1e-9)


def test_tail_moment_completes_first_moment():
    alpha, d = 1.5, 2
    dens = density(alpha, d)
    R = max(dens.r_switch, 2.0)
    nodes, weights = _gl_nodes_weights(np.linspace(0.0, R, 25))
    head = float(np.sum(weights * nodes**d * dens.evaluate(nodes)))
    tail, _ = dens.radial_integral(d, R)
    closed = moment_d_closed_form(KernelSpec.stable(alpha, d))
    assert head + tail == pytest.approx(closed, rel=1e-8)
    assert dens.radial_integral(d, 0.0)[0] == pytest.approx(closed, rel=1e-8)


def test_radial_integral_below_switch_is_table_head_plus_series_tail():
    # below r_switch: Gauss-Legendre-16 on the table's intervals clipped to
    # [a, r_switch], plus the series tail from r_switch and its bound
    for alpha, d in ((1.5, 2), (1.2, 3)):
        dens = density(alpha, d)
        r_s, x = dens.r_switch, dens.table_nodes
        for q in (d - 1, d):
            tail, err = dens.radial_integral(q, r_s)
            for a in (0.0, 0.3 * r_s, float(np.nextafter(r_s, 0.0))):
                nodes, weights = _gl_nodes_weights(np.concatenate([[a], x[(x > a) & (x < r_s)], [r_s]]))
                head = float(weights @ (nodes**q * dens.evaluate(nodes)))
                assert dens.radial_integral(q, a) == (head + tail, err), (alpha, d, q, a)


def test_radial_integral_from_infinity_is_zero():
    dens = density(1.5, 2)
    for q in (1, 2):
        assert dens.radial_integral(q, math.inf) == (0.0, 0.0)
    for a in (math.nan, -1.0):
        with pytest.raises(ValueError, match="nonnegative"):
            dens.radial_integral(1, a)


def test_tail_moment_divergence_flagged():
    for alpha in (0.7, 1.0):
        dens = density(alpha, 2)
        for a in (0.5 * dens.r_switch, dens.r_switch + 1.0):
            with pytest.raises(RegimeError):
                dens.radial_integral(2, a)


def test_cutoff_radius_meets_tolerance():
    for alpha in (0.5, 1.3, 1.95):
        R = cutoff_radius(alpha, 2, 1e-12)
        assert math.exp(-(R**alpha)) <= 1e-12


def test_series_eval_is_vectorized():
    dens = density(1.4, 2)
    r = dens.r_switch * np.array([1.1, 2.0, 5.0])
    vals = series_eval(1.4, 2, dens._scaled, dens.r_switch, r)
    err = series_bound(1.4, 2, dens._scaled, dens.r_switch, r)
    assert vals.shape == err.shape == r.shape
    scalar = series_eval(1.4, 2, dens._scaled, dens.r_switch, float(r[1]))
    scalar_err = series_bound(1.4, 2, dens._scaled, dens.r_switch, float(r[1]))
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
    vals = series_eval(alpha, d, scaled, r_s, r)
    ref, _ = _log_form_sum(alpha, d, K, r)
    np.testing.assert_allclose(vals, ref, rtol=1e-13, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.5, 1.99),
    d=st.sampled_from([2, 3, 5]),
    frac=st.floats(0.0, 1.0),
)
def test_horner_matches_log_form_sum_property(alpha, d, frac):
    # Measured against the term magnitudes: for alpha just below 1 the
    # alternating series cancels up to ~1.5 digits at the switch radius in any
    # summation order (sum |terms| / |sum| = 29 at alpha=0.8, d=5).
    # Elsewhere the two scales coincide.
    r_s, K, _, scaled = switch_radius(alpha, d, 1e-10, 1e-8)
    r = r_s * (1.0 + 1e-12) * (1e6 / r_s) ** frac
    val = series_eval(alpha, d, scaled, r_s, r)
    ref, mag = _log_form_sum(alpha, d, K, r)
    assert abs(val - ref[0]) <= 1e-13 * mag[0]


def test_series_error_is_next_two_neglected_terms():
    alpha, d = 1.2, 3
    r_s, K, err_s, scaled = switch_radius(alpha, d, 1e-10, 1e-8)
    assert len(scaled) == K + 2
    r = 1.7 * r_s
    err = series_bound(alpha, d, scaled, r_s, r)
    _, logmag = series_coefficients(alpha, d)
    neglected = np.exp(logmag[K : K + 2] - (d + alpha * np.arange(K + 1, K + 3)) * math.log(r))
    assert err == pytest.approx(neglected.max(), rel=1e-13)
    err_at_switch = series_bound(alpha, d, scaled, r_s, r_s)
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


@pytest.mark.parametrize(
    "alpha,d",
    [(a, d) for a in (0.5, 0.7, 0.9, 1.0, 1.2, 1.5, 1.8) for d in (2, 3, 5)] + [(0.3, 2)],
)
def test_table_lookup_matches_scipy_bitwise(alpha, d):
    # CubicSpline.__call__ is PPoly.__call__ on the spline's coefficients;
    # alpha = 0.3, d = 2 needs a second table build, so n is neither 520 nor 700
    dens = density(alpha, d)
    x = dens.table_nodes
    if (alpha, d) == (0.3, 2):
        assert len(x) not in (520, 700)
    rng = np.random.default_rng(11)
    r = np.concatenate(
        [
            rng.uniform(0.0, dens.r_switch, 10**5),
            x,
            np.nextafter(x[1:], -np.inf),
            np.nextafter(x[:-1], np.inf),
            [0.0, dens.r_switch],
        ]
    )
    expected = PPoly.construct_fast(dens._coef, x)(r)
    np.testing.assert_array_equal(dens._table(r), expected)
    np.testing.assert_array_equal(dens.evaluate(r), expected)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("alpha", [round(0.3 + 0.1 * i, 1) for i in range(17)])
def test_clamped_spline_matches_scipy_bitwise_on_every_table(alpha, d, monkeypatch):
    # every table a build forms, rejected ones included, against scipy's
    # clamped CubicSpline on the same nodes, values and end slopes
    calls = []

    def spy(x, y, end_slope):
        calls.append((x, y, end_slope, _clamped_spline(x, y, end_slope)))
        return calls[-1][-1]

    monkeypatch.setattr(stable, "_clamped_spline", spy)
    try:
        dens = StableDensity(alpha, d)
    except QuadratureError:
        dens = None
    for x, y, end_slope, coef in calls:
        expected = CubicSpline(x, y, bc_type=((1, 0.0), (1, end_slope))).c
        np.testing.assert_array_equal(coef, expected)
    if dens is not None:
        assert dens._coef is calls[-1][-1]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 300),
    grade=st.floats(1.0, 2.0),
    spacing=st.floats(1e-3, 1.0),
    seed=st.integers(0, 2**32 - 1),
    end_slope=st.floats(-1e3, 1e3),
)
def test_clamped_spline_matches_scipy_bitwise_property(n, grade, spacing, seed, end_slope):
    # graded grids L (j/m)^grade with every spacing at most `spacing` <= 1, on
    # which LAPACK's tridiagonal solver interchanges no rows
    m = n - 1
    x = (m * spacing / grade) * (np.arange(n) / m) ** grade
    y = np.random.default_rng(seed).uniform(-1e3, 1e3, n)
    expected = CubicSpline(x, y, bc_type=((1, 0.0), (1, end_slope))).c
    np.testing.assert_array_equal(_clamped_spline(x, y, end_slope), expected)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_series_branch_memory_is_bounded():
    # 2^18 radii: a 2 MiB result, and 65536-radius blocks beside it (the
    # whole-array evaluation peaked at 9.3 MiB)
    dens = density(1.0, 2)
    r = dens.r_switch * np.geomspace(1.0 + 1e-12, 50.0, 2**18)
    assert _traced_peak(dens.evaluate, r) <= 8 * 2**20


def test_table_build_memory_is_bounded():
    # one exponent buffer of <= 3 * 2^16 elements (1.5 MiB) per call; a fresh
    # block per row block, with its exponent arrays copied, peaked at
    # 5.7-6.6 MiB for these (alpha, d), and 4e6-element blocks at 61 MiB
    for alpha, d in [(0.5, 2), (1.8, 2), (1.8, 3), (1.95, 5)]:
        peak = _traced_peak(StableDensity, alpha, d)
        assert peak <= 3 * 2**20, (alpha, d, peak)


_BUDGET_CASES = [(0.5, 2), (1.5, 3), (1.8, 2)]


def _table_values_by_rows(rows_per_block):
    """subordination_p1 on each case's table nodes with ``_P1_BLOCK`` set to
    each given number of rows (and half a row) of its columns."""
    values = {}
    for alpha, d in _BUDGET_CASES:
        nodes = density(alpha, d).table_nodes
        columns = stable._p1_columns(alpha, d, float(nodes.max()), 1)[1].size
        for rows in rows_per_block:
            stable._P1_BLOCK, budget = rows * columns + columns // 2, stable._P1_BLOCK
            try:
                values[alpha, d, rows] = subordination_p1(alpha, d, nodes)
            finally:
                stable._P1_BLOCK = budget
    return values


def test_table_values_do_not_depend_on_the_block_budget():
    # budgets of 4, 8 and 14 rows (taken as 12) against the default budget's
    # 8 to 12 rows for these tables
    defaults = {(alpha, d): subordination_p1(alpha, d, density(alpha, d).table_nodes) for alpha, d in _BUDGET_CASES}
    for (alpha, d, rows), values in _table_values_by_rows((4, 8, 14)).items():
        np.testing.assert_array_equal(values, defaults[alpha, d], err_msg=f"{alpha, d, rows}")


def test_table_values_in_64_row_blocks_on_one_blas_thread():
    # blocks of 64 rows are large enough for OpenBLAS to split a dgemv between
    # threads, which moves the leftover rows, so this one runs on one thread
    script = (
        "import numpy as np, test_stable as t\n"
        "v = t._table_values_by_rows((4, 64))\n"
        "assert all(np.array_equal(v[a, d, 4], v[a, d, 64]) for a, d in t._BUDGET_CASES)\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=os.path.dirname(__file__), capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]


@settings(max_examples=8, deadline=None)
@given(
    alpha=st.sampled_from([0.5, 1.0, 1.5]),
    extra=st.integers(1, stable._SERIES_BLOCK + 100),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_blocks_change_no_bit(alpha, extra, seed):
    # table and series radii in random order, across one or two block edges
    dens = density(alpha, 2)
    edge = stable._SERIES_BLOCK
    r = dens.r_switch * np.random.default_rng(seed).uniform(0.0, 3.0, edge + extra)
    blocks = [dens.evaluate(r[i : i + edge]) for i in range(0, len(r), edge)]
    np.testing.assert_array_equal(dens.evaluate(r), np.concatenate(blocks))


def test_table_that_fails_validation_raises(monkeypatch):
    monkeypatch.setattr(StableDensity, "_validate", lambda self: (0.25, False))
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


@pytest.mark.parametrize("r", [math.nan, -0.1, -math.inf])
def test_value_and_error_rejects_nan_and_negative_radius(r):
    dens = density(1.5, 2)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        dens.value_and_error(r)
    assert dens.value_and_error(math.inf) == (0.0, 0.0)


def test_constructor_validation():
    with pytest.raises(RegimeError):
        StableDensity(2.0, 2)
    with pytest.raises(RegimeError):
        StableDensity(0.0, 2)
    with pytest.raises(ValueError):
        StableDensity(1.5, 1)


def test_factory_result_does_not_depend_on_call_order(monkeypatch):
    # 1.5 + 1e-14 shares the cache key of 1.5; whichever comes first, the
    # cached density is the one built at the key's alpha
    fresh = StableDensity(1.5, 2)
    for first, second in [(1.5 + 1e-14, 1.5), (1.5, 1.5 + 1e-14)]:
        monkeypatch.setattr(stable, "_cache", {})
        density(first, 2)
        dens = density(second, 2)
        assert dens.alpha == 1.5
        assert dens.evaluate(2.0) == fresh.evaluate(2.0)
        np.testing.assert_array_equal(dens._coef, fresh._coef)


def test_factory_caches_per_key():
    a = density(1.5, 2)
    b = density(1.5, 2)
    assert a is b
    c = density(1.5, 2, abs_tol=1e-9)
    assert c is not a


def test_quadrature_error_carries_residual():
    err = QuadratureError("did not converge", 0.25)
    assert err.residual == 0.25
