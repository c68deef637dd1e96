"""Numerical evaluation of the radial profile of the rotationally invariant
alpha-stable density, i.e. the inverse Fourier transform of exp(-|xi|^alpha).

The d-dimensional inversion reduces to a one-dimensional Hankel-type integral

    p_1(r) = (2 pi)^{-d/2} int_0^inf exp(-s^alpha) s^{d-1} [J_nu(sr)/(sr)^nu] ds,

with nu = d/2 - 1.  Two complementary evaluation routes are used:

* panel Gauss-Legendre quadrature of the oscillatory integral (accurate at
  small and moderate r; panels are graded geometrically near s=0 to absorb
  the endpoint kink of exp(-s^alpha) for alpha < 1 and are at most one
  oscillation period wide further out);
* the large-r inverse-power series
      p_1(r) = sum_{k>=1} c_k r^{-d-alpha k},
      c_k = (-1)^{k+1} 2^{alpha k} Gamma((d+alpha k)/2) Gamma(1+alpha k/2)
            sin(k pi alpha/2) / (pi^{d/2+1} k!),
  convergent for alpha < 1 and asymptotic (truncated at the smallest term)
  for alpha >= 1.  Its K kept coefficients are rescaled once to the switch
  radius r_s, c'_k = c_k r_s^{-d-alpha k}, so that beyond r_s the partial sum
  is (r_s/r)^d sum_{k<=K} c'_k v^k with v = (r_s/r)^alpha <= 1, evaluated by
  Horner's rule in O(K) in-place array updates per batch.  The same c'_k
  give the truncation bound, the spline's end slope and the analytic tail
  integrals.

``StableDensity`` glues the two together behind a cubic-spline table on
[0, r_switch] whose accuracy is validated at construction time, so that bulk
evaluation (heat-content quadrature, Monte Carlo) is vectorized and cheap.
"""

import math
import threading

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import gammaln, j0, jv

from .errors import QuadratureError, RegimeError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# Magnitudes below this never matter at the supported tolerances.
_TINY = 1e-300


def p1_at_zero(alpha, d):
    """Closed form p_1(0) = A_d Gamma(d/alpha) / (alpha (2 pi)^d)."""
    log_ad = math.log(2.0) + (d / 2.0) * math.log(math.pi) - gammaln(d / 2.0)
    return math.exp(log_ad + gammaln(d / alpha) - math.log(alpha) - d * math.log(2 * math.pi))


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


def _gl_nodes_weights(edges):
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


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


def series_coefficients(alpha, d, kmax=220):
    """Tail-series coefficients c_k in log form: (sign_k, log|c_k|), k=1..kmax.

    Log form is mandatory: |c_k| itself overflows for alpha near 2 long before
    the terms c_k r^{-d-alpha k} stop mattering.
    """
    k = np.arange(1, kmax + 1, dtype=float)
    logmag = (
        alpha * k * math.log(2.0)
        + gammaln((d + alpha * k) / 2.0)
        + gammaln(1.0 + alpha * k / 2.0)
        - gammaln(k + 1.0)
        - (d / 2.0 + 1.0) * math.log(math.pi)
    )
    sinfac = np.sin(k * math.pi * alpha / 2.0)
    alt = np.where(np.arange(1, kmax + 1) % 2 == 1, 1.0, -1.0)
    sign = alt * np.sign(sinfac)
    with np.errstate(divide="ignore"):
        logmag = logmag + np.log(np.abs(sinfac))
    return sign, logmag


def _term_logmags(alpha, d, logmag, r):
    """log |c_k r^{-d-alpha k}| for k=1..len(logmag) at scalar radius r."""
    k = np.arange(1, len(logmag) + 1, dtype=float)
    return logmag + (-d - alpha * k) * math.log(r)


def series_truncation(alpha, d, coeffs, r, tol):
    """Usable truncation order K at radius r and the resulting error bound.

    For alpha >= 1 the series is asymptotic: terms are used only up to the
    onset of magnitude growth.  Zero terms (sin factor vanishing, e.g. even k
    at alpha=1) are skipped by working with the pairwise envelope
    max(|term_k|, |term_{k+1}|); adjacent terms never vanish together for
    alpha < 2.
    """
    _, logmag = coeffs
    # cap keeps exp finite past the divergence onset without disturbing the
    # valley ordering (valley magnitudes sit far below e^400)
    mags = np.exp(np.minimum(_term_logmags(alpha, d, logmag, r), 400.0))
    pair = np.maximum(mags[:-1], mags[1:])
    j_min = int(np.argmin(pair))  # optimal asymptotic truncation point
    cand = np.nonzero(pair[: j_min + 1] < tol)[0]
    if cand.size:
        K, err = int(cand[0]), float(pair[cand[0]])
    else:
        K, err = j_min, float(pair[j_min])
    return max(K, 1), err


def rescaled_coefficients(alpha, d, coeffs, r_ref, n):
    """c'_k = c_k r_ref^{-d-alpha k} for k=1..n: the series terms at r_ref.

    Formed from the log form, so the overflowing |c_k| themselves never appear.
    """
    sign, logmag = coeffs
    return sign[:n] * np.exp(np.minimum(_term_logmags(alpha, d, logmag[:n], r_ref), 700.0))


def _horner(coef, v):
    """sum_{k=1}^{len(coef)} coef[k-1] v^k by Horner's rule, for an array v,
    updating one accumulator array in place."""
    acc = np.full_like(v, coef[-1])
    for c in coef[-2::-1]:
        acc *= v
        acc += c
    acc *= v
    return acc


def series_eval(alpha, d, scaled, r_ref, r):
    """Vectorized partial sum  sum_{k<=K} c_k r^{-d-alpha k}.

    ``scaled`` holds c'_1..c'_{K+2} rescaled to ``r_ref`` (see
    ``rescaled_coefficients``); with u = r_ref/r and v = u^alpha the sum is
    u^d sum_{k<=K} c'_k v^k.  Each radius is computed on its own, so a scalar
    and the same radius inside a batch agree bit for bit.  ``series_bound``
    gives the truncation bound.
    """
    arr = np.asarray(r, dtype=float)
    u = r_ref / np.atleast_1d(arr)
    vals = _horner(scaled[:-2], u**alpha)
    vals *= u**d
    return float(vals[0]) if arr.ndim == 0 else vals


def series_bound(alpha, d, scaled, r_ref, r):
    """Truncation bound of ``series_eval``: u^d max(|c'_{K+1}| v^{K+1},
    |c'_{K+2}| v^{K+2}), the next two neglected magnitudes (robust to a zero
    term)."""
    arr = np.asarray(r, dtype=float)
    u = r_ref / np.atleast_1d(arr)
    v = u**alpha
    err = v ** (len(scaled) - 1)
    err *= np.maximum(abs(scaled[-2]), abs(scaled[-1]) * v)
    err *= u**d
    return float(err[0]) if arr.ndim == 0 else err


def switch_radius(alpha, d, abs_tol, rel_tol):
    """(r_s, K, err, c'_1..c'_{K+2}) at the smallest scanned radius r_s in
    [0.8, 60] where the truncated series meets a tenth of the mixed target
    max(abs_tol, rel_tol |p_1(r_s)|); raises if no scanned radius does."""
    coeffs = series_coefficients(alpha, d)
    floor = 0.1 * abs_tol
    for r in np.geomspace(0.8, 60.0, 36):
        r = float(r)
        K, err = series_truncation(alpha, d, coeffs, r, floor)
        scaled = rescaled_coefficients(alpha, d, coeffs, r, K + 2)
        val = series_eval(alpha, d, scaled, r, r)
        if err < 0.1 * max(abs_tol, rel_tol * abs(val)):
            return r, K, err, scaled
    raise QuadratureError(
        f"tail series for alpha={alpha}, d={d} misses its tolerance at every "
        "switch radius up to 60",
        err,
    )


class StableDensity:
    """Tabulated radial alpha-stable density on [0, r_switch] with an
    inverse-power series continuation beyond.

    Thread-safe for reads after construction; negative quadrature noise in
    [-10*abs_tol, 0) is clamped to 0 and counted in ``clamped``.
    """

    def __init__(self, alpha, d, abs_tol=1e-10, rel_tol=1e-8):
        if not 0.0 < alpha < 2.0:
            raise RegimeError(f"stable index alpha={alpha} outside (0, 2)")
        if d < 2:
            raise ValueError(f"dimension d={d} must be >= 2")
        self.alpha = float(alpha)
        self.d = int(d)
        self.abs_tol = float(abs_tol)
        self.rel_tol = float(rel_tol)
        self.clamped = 0
        self.r_switch, self.series_K, self.series_err, self._scaled = switch_radius(
            self.alpha, self.d, self.abs_tol, self.rel_tol
        )
        self._build_table()

    # -- construction -----------------------------------------------------

    def _target(self, value):
        return max(self.abs_tol, self.rel_tol * abs(value))

    def _table_values(self, r_nodes, n_per_period):
        """Shared-panel vectorized Hankel evaluation at all table nodes."""
        S = cutoff_radius(self.alpha, self.d, 0.01 * self.abs_tol)
        r_max = float(r_nodes[-1])
        nodes, weights = _gl_nodes_weights(
            _panel_edges(self.alpha, S, r_max, n_per_period)
        )
        base = weights * np.exp(-(nodes**self.alpha)) * nodes ** (self.d - 1)
        # (n_r, n_nodes) Bessel matrix; chunk to keep memory modest
        out = np.empty_like(r_nodes)
        chunk = max(1, int(4e6 // max(nodes.size, 1)))
        for i in range(0, r_nodes.size, chunk):
            block = _bessel_ratio(self.d, r_nodes[i : i + chunk, None] * nodes[None, :])
            out[i : i + chunk] = block @ base
        return (2.0 * math.pi) ** (-self.d / 2.0) * out

    def _build_table(self):
        # node grading: quadratic clustering toward 0 for alpha < 1 where the
        # peak curvature scale Gamma((d+4)/alpha) is large
        n = 700 if self.alpha < 1.0 else 520
        grade = 2.0 if self.alpha < 1.0 else 1.4
        # the spline ends with the partial sum's slope, -sum (d + alpha k) c'_k / r_switch
        expo = self.d + self.alpha * np.arange(1, self.series_K + 1, dtype=float)
        deriv_end = -float(np.sum(expo * self._scaled[: self.series_K])) / self.r_switch
        for _ in range(4):
            u = np.linspace(0.0, 1.0, n)
            r_nodes = self.r_switch * u**grade
            vals = self._table_values(r_nodes, n_per_period=2)
            vals[0] = p1_at_zero(self.alpha, self.d)
            spline = CubicSpline(r_nodes, vals, bc_type=((1, 0.0), (1, deriv_end)))
            defect, ok = self._validate(spline)
            if ok:
                break
            n = int(n * 1.7)
        else:
            raise QuadratureError(
                f"stable density table for alpha={self.alpha}, d={self.d} "
                "failed validation after 4 table builds",
                defect,
            )
        self._spline = spline
        self.table_nodes = r_nodes
        self.table_error = defect
        self._lock = threading.Lock()

    def _validate(self, spline):
        """Check the spline against fresh adaptive Hankel values at probe
        radii spread across the table (including the peaked head).  Returns
        (max absolute defect, all probes within their local mixed tolerance)."""
        probes = self.r_switch * np.array(
            [1e-4, 3e-3, 0.017, 0.047, 0.11, 0.23, 0.41, 0.63, 0.82, 0.95, 0.995]
        )
        worst, ok = 0.0, True
        for r in probes:
            ref, err = hankel_p1_adaptive(
                self.alpha, self.d, float(r), abs_tol=0.01 * self.abs_tol, rel_tol=0.01 * self.rel_tol
            )
            defect = max(abs(float(spline(r)) - ref) - err, 0.0)
            worst = max(worst, defect)
            if defect > 0.5 * self._target(ref):
                ok = False
        return worst, ok

    # -- evaluation --------------------------------------------------------

    def _clamp(self, out):
        """Zero negative quadrature noise in ``out`` (in place, counted in
        ``clamped``); values below the negativity floor raise."""
        neg = out < 0.0
        if neg.any():
            floor = -10.0 * self.abs_tol
            if np.any(out < floor):
                raise QuadratureError(
                    "stable density evaluation produced values below the "
                    "negativity floor; quadrature breakdown",
                    float(out.min()),
                )
            with self._lock:
                self.clamped += int(neg.sum())
            out[neg] = 0.0
        return out

    def evaluate(self, r):
        """Vectorized p_1(r); r may be scalar or array, entries >= 0."""
        arr = np.asarray(r, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if not np.all(arr >= 0):  # also rejects NaN
            raise ValueError("radius must be nonnegative")
        out = np.empty_like(arr)
        near = arr <= self.r_switch
        if near.any():
            out[near] = self._spline(arr[near])
        if not near.all():
            out[~near] = series_eval(self.alpha, self.d, self._scaled, self.r_switch, arr[~near])
        self._clamp(out)
        return float(out[0]) if scalar else out

    __call__ = evaluate

    def value_and_error(self, r):
        """Scalar evaluation with an error estimate (table defect or series
        truncation bound, whichever branch applies)."""
        r = float(r)
        if r <= self.r_switch:
            return self.evaluate(r), self.table_error
        args = (self.alpha, self.d, self._scaled, self.r_switch, np.array([r]))
        return float(self._clamp(series_eval(*args))[0]), float(series_bound(*args)[0])

    # -- analytic tail integrals -------------------------------------------

    def _tail_integral(self, R, shift):
        """(int_R^inf r^{d-1+shift} S_K(r) dr, error bound) for the partial sum S_K.

        Term by term this is sum_k c_k R^{shift-alpha k} / (alpha k - shift)
        = r_s^{d+shift} u^{-shift} sum_k c'_k v^k / (alpha k - shift) with
        u = r_s/R and v = u^alpha: the series of ``series_eval`` with weights
        c'_k / (alpha k - shift) and exponent -shift in place of d, whose bound
        is the larger of the next two neglected term integrals.
        """
        expo = self.alpha * np.arange(1, len(self._scaled) + 1, dtype=float) - shift
        args = (self.alpha, -shift, self._scaled / expo, self.r_switch, float(R))
        scale = self.r_switch ** (self.d + shift)
        return scale * series_eval(*args), scale * series_bound(*args)

    def tail_mass(self, R):
        """(int_R^inf r^{d-1} p_1(r) dr, error bound), valid for R >= r_switch."""
        if R < self.r_switch:
            raise ValueError("tail_mass requires R >= r_switch")
        return self._tail_integral(R, 0.0)

    def tail_moment(self, R):
        """(int_R^inf r^d p_1(r) dr, error bound); requires alpha > 1."""
        if self.alpha <= 1.0:
            raise RegimeError("radial d-th moment tail diverges for alpha <= 1")
        if R < self.r_switch:
            raise ValueError("tail_moment requires R >= r_switch")
        return self._tail_integral(R, 1.0)


_cache = {}
_cache_lock = threading.Lock()


def density(alpha, d, abs_tol=1e-10, rel_tol=1e-8):
    """Process-wide cached StableDensity factory."""
    key = (round(float(alpha), 12), int(d), float(abs_tol), float(rel_tol))
    with _cache_lock:
        hit = _cache.get(key)
    if hit is not None:
        return hit
    dens = StableDensity(alpha, d, abs_tol=abs_tol, rel_tol=rel_tol)
    with _cache_lock:
        _cache.setdefault(key, dens)
    return _cache[key]
