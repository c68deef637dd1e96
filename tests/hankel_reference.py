"""Independent reference for the radial alpha-stable density: panel
Gauss-Legendre quadrature of the oscillatory Hankel integral

    p_1(r) = (2 pi)^{-d/2} int_0^inf exp(-s^alpha) s^{d-1} [J_nu(sr)/(sr)^nu] ds,

with nu = d/2 - 1.  Panels are graded geometrically near s=0 to absorb the
endpoint kink of exp(-s^alpha) for alpha < 1 and are at most one oscillation
period wide further out.  The cutoff S grows like (ln 1/tol)^{1/alpha}, so
this route is usable only for alpha >= 0.5 or so; the tests use it to check
the subordination table and the tail series, which share no code with it.
"""

import math

import numpy as np
from scipy.special import gammaln, j0, jv

from heatlab.errors import QuadratureError
from heatlab.stable import _gl_nodes_weights, p1_at_zero


def cutoff_radius(alpha, d, tol):
    """Upper truncation S of the Hankel integral with a certified remainder.

    The remainder beyond S is bounded by a constant times
    exp(-S^alpha) S^{d/2} (the Bessel factor is O(1)), so S is grown until
    exp(-S^alpha) (1+S)^{d/2+1} < tol.
    """
    s = max(1.0, (-math.log(min(tol, 0.1))) ** (1.0 / alpha))
    for _ in range(80):
        resid = math.exp(-s**alpha) * (1.0 + s) ** (d / 2.0 + 1.0)
        if resid < tol:
            return s
        s *= 1.25
    raise QuadratureError("could not certify an oscillatory truncation radius", resid)


def _bessel_ratio(d, x):
    """J_nu(x)/x^nu for nu = d/2-1, continuous at x=0 (value 1/(2^nu Gamma(nu+1)))."""
    x = np.asarray(x, dtype=float)
    if d == 2:
        return j0(x)
    if d == 3:
        # J_{1/2}(x)/x^{1/2} = sqrt(2/pi) sin(x)/x
        return math.sqrt(2.0 / math.pi) * np.sinc(x / math.pi)
    nu = d / 2.0 - 1.0
    at_zero = math.exp(-nu * math.log(2.0) - gammaln(nu + 1.0))
    small = x < 1e-6
    xs = np.where(small, 1.0, x)
    out = jv(nu, xs) / xs**nu
    # quadratic Taylor term keeps ~1e-12 accuracy through the switch point
    return np.where(small, at_zero * (1.0 - x * x / (4.0 * (nu + 1.0))), out)


def _panel_edges(alpha, S, r, n_per_period):
    """Panel edges on [0, S]: geometric grading near 0 (integrand kink for
    alpha<1), geometric growth capped at one oscillation period / n_per_period."""
    s0 = min(1.0, S)
    head = s0 * np.geomspace(1e-6, 1.0, 18)
    edges = [0.0] + list(head)
    period = (2.0 * math.pi / r) / n_per_period if r > 0 else math.inf
    s = s0
    while s < S:
        s = min(s + period, s * 1.45)  # cap width by oscillation and by growth
        s = min(s, S)
        edges.append(s)
    edges = np.asarray(edges)
    if math.isfinite(period):
        # enforce the period cap everywhere (the geometric head panels can
        # span many oscillations when r is large)
        nsub = np.maximum(1, np.ceil(np.diff(edges) / period).astype(int))
        if (nsub > 1).any():
            pieces = [edges[:1]]
            for a, b, n in zip(edges[:-1], edges[1:], nsub):
                pieces.append(np.linspace(a, b, n + 1)[1:])
            edges = np.concatenate(pieces)
    return edges


def hankel_p1(alpha, d, r, tol=1e-12, n_per_period=2):
    """Single-r panel Gauss-Legendre evaluation of the Hankel integral."""
    if r == 0.0:
        return p1_at_zero(alpha, d)
    S = cutoff_radius(alpha, d, tol * 0.1)
    nodes, weights = _gl_nodes_weights(_panel_edges(alpha, S, r, n_per_period))
    f = np.exp(-(nodes**alpha)) * nodes ** (d - 1) * _bessel_ratio(d, nodes * r)
    return (2.0 * math.pi) ** (-d / 2.0) * float(weights @ f)


def hankel_p1_adaptive(alpha, d, r, abs_tol=1e-12, rel_tol=1e-10, max_doublings=4):
    """Hankel evaluation with error estimate from panel-density doubling."""
    if r == 0.0:
        return p1_at_zero(alpha, d), 0.0
    prev = hankel_p1(alpha, d, r, tol=abs_tol, n_per_period=1)
    npp, err = 2, math.inf
    for _ in range(max_doublings):
        cur = hankel_p1(alpha, d, r, tol=abs_tol, n_per_period=npp)
        err = abs(cur - prev)
        if err < max(abs_tol, rel_tol * abs(cur)):
            return cur, err
        prev, npp = cur, npp * 2
    raise QuadratureError(
        f"Hankel quadrature for alpha={alpha}, d={d}, r={r} did not converge", err
    )
