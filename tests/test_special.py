"""heatlab._special against 30-digit mpmath references: the ball lens and
Theta, the Gaussian, Poisson and poly tail masses, log-Gamma and w_d."""

import math

import mpmath as mp
import numpy as np
import pytest

from heatlab import _special
from heatlab.errors import QuadratureError
from heatlab.geometry import _lens_deficit, theta
from heatlab.kernel import (
    KernelSpec,
    _algebraic_tail_mass,
    l1_norm_closed_form,
    moment_d_closed_form,
    poisson_constant,
    stable_tail_constant,
    tail_mass,
    unit_ball_volume,
)
from heatlab.stable import p1_at_zero

DIMENSIONS = range(2, 9)
# q = s^2/4 for the lens and z^2 for Theta: geometric from 1e-12, and linear
SQUARES = np.concatenate([np.geomspace(1e-12, 1.0, 60), np.linspace(0.0, 1.0, 41)[1:]])
RADII = np.concatenate([[0.0], np.geomspace(1e-6, 60.0, 40), np.linspace(0.5, 60.0, 120)])


@pytest.fixture(autouse=True)
def _thirty_digits():
    with mp.workdps(30):
        yield


def _rel(value, ref):
    return float(abs(mp.mpf(float(value)) - ref) / ref)


@pytest.mark.parametrize("d", DIMENSIONS)
def test_lens_deficit_matches_mpmath(d):
    a = mp.mpf(d - 1) / 2
    area, vol = 2 * mp.pi**a / mp.gamma(a), mp.pi**a / mp.gamma(a + 1)
    s = 2.0 * np.sqrt(SQUARES)
    got = _lens_deficit(d, s)
    for si, gi in zip(s, got):
        q = mp.mpf(si) ** 2 / 4
        ref = area * mp.betainc(1.5, a, 0, q) + mp.mpf(si) * vol * (1 - q) ** a
        assert _rel(gi, ref) <= 2e-15, (d, si)


@pytest.mark.parametrize("d", DIMENSIONS)
def test_theta_matches_mpmath(d):
    z = np.sqrt(SQUARES)
    got = theta(d, z)
    for zi, gi in zip(z, got):
        ref = mp.betainc(mp.mpf(d - 1) / 2, 1.5, 0, mp.mpf(zi) ** 2) / 2
        assert _rel(gi, ref) <= 2e-15, (d, zi)
    assert theta(d, 0.0) == 0.0 and isinstance(theta(d, 0.5), float)


@pytest.mark.parametrize("d", DIMENSIONS)
def test_gaussian_and_poisson_tail_masses_match_mpmath(d):
    gaussian, poisson = KernelSpec.gaussian(d), KernelSpec.poisson(d)
    kappa = mp.gamma(mp.mpf(d + 1) / 2) / mp.pi ** (mp.mpf(d + 1) / 2)
    for R in RADII:
        ref = mp.gammainc(mp.mpf(d) / 2, mp.mpf(R) ** 2 / 4) / (2 * mp.pi ** (mp.mpf(d) / 2))
        if ref > np.finfo(float).tiny:  # below, the double result is subnormal
            assert _rel(tail_mass(gaussian, R), ref) <= 2e-15, (d, R)
        ref = kappa / 2 * mp.betainc(0.5, mp.mpf(d) / 2, 0, 1 / (1 + mp.mpf(R) ** 2))
        assert _rel(tail_mass(poisson, R), ref) <= 2e-15, (d, R)
    assert tail_mass(gaussian, math.inf) == 0.0 and tail_mass(poisson, math.inf) == 0.0


def test_gaussian_tail_underflows_only_with_its_value():
    # at R = 54.63, e^{-R^2/4} alone is 0, but the d = 8 tail is the subnormal 1.99e-318
    R = 54.63
    ref = mp.gammainc(4, mp.mpf(R) ** 2 / 4) / (2 * mp.pi**4)
    assert math.exp(-R * R / 4) == 0.0
    assert abs(tail_mass(KernelSpec.gaussian(8), R) - ref) <= 1e-323


@pytest.mark.parametrize("n", [0.25, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("d", [2, 3])
def test_poly_tail_mass_matches_mpmath(n, d):
    # kappa = 1, m = (d + 1)/n: (1/n) B_x(1/n, d/n) at x = 1/(1 + R^n), over the
    # radii r* = ell t^(-gamma) of sweeps, and below 1
    a, b = mp.mpf(1) / n, mp.mpf(d) / n
    for R in np.concatenate([np.geomspace(0.01, 1e6, 40), np.linspace(0.05, 3.0, 20)]):
        ref = mp.betainc(a, b, 0, 1 / (1 + mp.mpf(R) ** n)) / n
        assert _rel(_algebraic_tail_mass(d, 1.0, n, (d + 1) / n, R), ref) <= 1e-14, (n, d, R)


def test_starved_continued_fraction_raises(monkeypatch):
    assert _special.incomplete_beta(2.0, 30.0, 0.05, 0.95) == pytest.approx(
        float(mp.betainc(2, 30, 0, mp.mpf(0.05))), rel=1e-14
    )
    monkeypatch.setattr(_special, "_CF_TERMS", 2)
    with pytest.raises(QuadratureError, match="did not settle in 2 terms"):
        _special.incomplete_beta(2.0, 30.0, 0.05, 0.95)


def test_log_gamma_of_the_series_is_as_accurate_as_scipy():
    # the 3 x 220 arguments of the stable tail series' coefficients
    gammaln = pytest.importorskip("scipy.special").gammaln
    k = np.arange(1, 221, dtype=float)
    for alpha, d in [(0.5, 2), (1.5, 3), (1.9, 5)]:
        args = np.concatenate([(d + alpha * k) / 2, 1 + alpha * k / 2, k + 1])
        refs = [mp.loggamma(mp.mpf(x)) for x in args]
        ours = max(abs(mp.mpf(float(v)) - r) for v, r in zip(_special.lgamma(args), refs))
        theirs = max(abs(mp.mpf(float(v)) - r) for v, r in zip(gammaln(args), refs))
        assert ours <= theirs and ours <= 2e-13, (alpha, d)


def test_unit_ball_volume_recurrence():
    assert unit_ball_volume(1) == 2.0 and unit_ball_volume(2) == math.pi
    for d in range(1, 9):
        ref = mp.pi ** (mp.mpf(d) / 2) / mp.gamma(1 + mp.mpf(d) / 2)
        assert _rel(unit_ball_volume(d), ref) <= 2e-16, d
    assert unit_ball_volume(10**9) == 0.0


@pytest.mark.parametrize("d", [2, 3, 5])
def test_gamma_constants_match_mpmath(d):
    half = mp.mpf(d) / 2
    kappa = mp.gamma(half + mp.mpf(1) / 2) / mp.pi ** (half + mp.mpf(1) / 2)
    assert _rel(poisson_constant(d), kappa) <= 4e-16
    for alpha in (0.5, 0.7, 1.0, 1.2, 1.5, 1.8):
        a = mp.mpf(alpha)
        tail = a * 2 ** (a - 1) * mp.pi ** (-1 - half) * mp.sin(mp.pi * a / 2) * mp.gamma(half + a / 2) * mp.gamma(a / 2)
        assert _rel(stable_tail_constant(alpha, d), tail) <= 1e-15, alpha
        peak = mp.gamma(d / a) / (a * mp.gamma(half) * 2 ** (d - 1) * mp.pi**half)
        assert _rel(p1_at_zero(alpha, d), peak) <= 1e-15, alpha
        if alpha > 1.0:
            assert _rel(moment_d_closed_form(KernelSpec.stable(alpha, d)), kappa * mp.gamma(1 - 1 / a)) <= 1e-15
    for n in (0.5, 1.0, 2.0, 3.0):
        spec = KernelSpec.poly_family(d, 0.1, n, (d + 1) / n, -d, 1.0)
        total = d * mp.pi**half / mp.gamma(1 + half) * mp.mpf(0.1) * mp.beta(d / mp.mpf(n), 1 / mp.mpf(n)) / n
        assert _rel(l1_norm_closed_form(spec), total) <= 1e-15, n
