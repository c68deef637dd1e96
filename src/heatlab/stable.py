"""Numerical evaluation of the radial profile of the rotationally invariant
alpha-stable density, i.e. the inverse Fourier transform of exp(-|xi|^alpha).

Two complementary evaluation routes are used:

* Bochner subordination (accurate at small and moderate r).  With beta =
  alpha/2, X = sqrt(A) G where G ~ N(0, 2I) and A is positive beta-stable,
  which Kanter's formula writes as A = a(phi) E^{-kappa} with U ~ U(0, pi),
  E ~ Exp(1), kappa = (1 - beta)/beta and
      a(phi) = sin(beta phi) sin((1 - beta) phi)^kappa / sin(phi)^{1/beta}.
  Averaging the Gaussian density over (phi, s = ln E) gives the positive,
  non-oscillatory double integral
      p_1(r) = (1/pi) int_0^pi int_R (4 pi a(phi))^{-d/2}
               exp(p s - e^s - r^2 e^{kappa s} / (4 a(phi))) ds dphi,
  p = 1 + kappa d/2, evaluated on one fixed product rule for every alpha:
  Gauss-Legendre panels in w with phi = pi (1 - w^3) (nodes clustered at
  phi = pi, where the heavy tail lives) and a trapezoid rule in s, which
  converges geometrically for this smooth, doubly decaying integrand.
* the large-r inverse-power series
      p_1(r) = sum_{k>=1} c_k r^{-d-alpha k},
      c_k = (-1)^{k+1} 2^{alpha k} Gamma((d+alpha k)/2) Gamma(1+alpha k/2)
            sin(k pi alpha/2) / (pi^{d/2+1} k!),
  convergent for alpha < 1 and asymptotic (truncated at the smallest term)
  for alpha >= 1.  Its K kept coefficients are rescaled once to the switch
  radius r_s, c'_k = c_k r_s^{-d-alpha k}, so that beyond r_s the partial sum
  is (r_s/r)^d sum_{k<=K} c'_k v^k with v = (r_s/r)^alpha <= 1, evaluated by
  Horner's rule in O(K) in-place array updates per batch.  The same c'_k
  give the truncation bound, the spline's end slope and the tail of
  ``StableDensity.radial_integral``.

``StableDensity`` glues the two together behind a clamped cubic-spline table
on [0, r_switch] whose accuracy is validated at construction time against the
same integral on a rule twice as fine, so that bulk evaluation (heat-content
quadrature, Monte Carlo) is vectorized and cheap.  The spline's node slopes
come from one tridiagonal solve in numpy (``_clamped_spline``), and its Gamma
functions from ``math``, so the module needs nothing of scipy.
"""

import math

import numpy as np

from ._special import lgamma
from .errors import QuadratureError, RegimeError, _dimension, _radii, _stable_index

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def p1_at_zero(alpha, d):
    """Closed form p_1(0) = A_d Gamma(d/alpha) / (alpha (2 pi)^d)."""
    return math.gamma(d / alpha) / (alpha * math.gamma(d / 2.0) * 2.0 ** (d - 1) * math.pi ** (d / 2.0))


def _gl_nodes_weights(edges):
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


# Panel edges in w, phi = pi (1 - w^3): graded toward w = 0 (phi = pi), where
# a(phi) turns from O(1) to infinity within pi - phi ~ (1 - beta) pi, a layer
# that gets thin as alpha -> 2.
_W_EDGES = np.array([0.0, 1 / 256, 1 / 64, 1 / 16, 1 / 4, 1 / 2, 3 / 4, 1.0])


def _trapezoid_step(q):
    """Step in u for the trapezoid rule on exp(q u - e^u): its aliasing error,
    ~ |Gamma(q + 2 pi i/h)| / Gamma(q), stays below ~1e-15 for every q > 0."""
    return 0.25 / max(1.0, math.sqrt(q / 2.0))


# 1.5 MiB: freeing blocks of <= 1.25 MiB leaves glibc's trim threshold so low
# that later Monte Carlo passes unmap and fault in their temporaries again
_P1_BLOCK = 3 * 2**16


def _p1_columns(alpha, d, r_max, refine):
    """(w_j, -b_j) on the (phi, s) columns of ``subordination_p1`` for r <= r_max."""
    beta = alpha / 2.0
    kappa = (1.0 - beta) / beta
    p = 1.0 + kappa * d / 2.0
    n = len(_W_EDGES) - 1
    edges = np.interp(np.arange(n * refine + 1) / refine, np.arange(n + 1), _W_EDGES)
    w, gw = _gl_nodes_weights(edges)
    phi = math.pi * (1.0 - w**3)
    log_a = (
        np.log(np.sin(beta * phi))
        + kappa * np.log(np.sin((1.0 - beta) * phi))
        - np.log(np.sin(phi)) / beta
    )
    c_max = r_max**2 / (4.0 * math.exp(log_a.min()))
    s_star = math.log(p)
    if c_max > 0.0:
        s_star = min(s_star, math.log(p / (kappa * c_max)) / kappa)
    h = min(_trapezoid_step(p), _trapezoid_step(p / kappa) / kappa) / refine
    s = np.arange(s_star - 40.0 / p, math.log(40.0 + 2.0 * p) + h, h)
    # dphi/pi = 3 w^2 dw; the (phi, s) columns are laid out row-major
    log_w = np.log(3.0 * h * w**2 * gw) - (d / 2.0) * (math.log(4.0 * math.pi) + log_a)
    weights = np.add.outer(log_w, p * s - np.exp(s)).ravel()
    np.exp(weights, out=weights)
    neg_b = np.add.outer(-math.log(4.0) - log_a, kappa * s).ravel()
    np.negative(np.exp(neg_b, out=neg_b), out=neg_b)
    return weights, neg_b


def subordination_p1(alpha, d, r, refine=1):
    """p_1 at the radii ``r`` (1-D array) from the subordination integral, as
    sum_j w_j exp(-r^2 b_j) over fixed (phi, s) columns sized for max(r).

    Gauss-Legendre-16 on the ``_W_EDGES`` panels in w, each split into
    ``refine`` equal parts; trapezoid rule in s on [s* - 40/p, ln(40 + 2p)],
    where s* is the leftmost peak of the s-integrand (at the largest
    r^2 / (4 a)).  The s step resolves both Gamma-like factors, e^{ps - e^s}
    and, in u = kappa s, e^{(p/kappa) u - c e^u}, and is divided by ``refine``.

    The exponents r^2 b_j are formed, exponentiated and reduced against the
    weights in row blocks of at most ``_P1_BLOCK`` elements, each in turn in
    one buffer allocated per call, so the exp and the matrix-vector product
    work on a block that stays in cache.  A block holds a multiple of 4 rows:
    BLAS's dgemv forms the dot products of 4 rows at a time and the rows left
    over with another kernel, whose last bit can differ, so with 4-row blocks
    only the last <= 3 radii of the whole input take the other kernel,
    whatever the block size, while each block runs on one thread (OpenBLAS
    splits a dgemv of ~2^19 elements between threads).  Where 4 rows exceed
    the budget, beyond 49152 columns (only in the ``refine=2`` validation
    reference), the rows go one at a time.
    """
    r = np.asarray(r, dtype=float)
    weights, neg_b = _p1_columns(alpha, d, float(r.max()), refine)
    r2 = r * r
    out = np.empty_like(r)
    # rows per block: a multiple of 4 when 4 rows fit the budget, else 1
    chunk = _P1_BLOCK // neg_b.size
    chunk = chunk - chunk % 4 if chunk >= 4 else 1
    buf = np.empty((min(chunk, r.size), neg_b.size))
    # matmul would send a single row to BLAS's ddot, which OpenBLAS spreads
    # over threads that then spin on; einsum sums it on this thread
    reduce = np.matmul if chunk > 1 else lambda a, b, out: np.einsum("ij,j->i", a, b, out=out)
    for i in range(0, r.size, chunk):
        block = np.multiply(r2[i : i + chunk, None], neg_b, out=buf[: min(chunk, r.size - i)])
        reduce(np.exp(block, out=block), weights, out=out[i : i + chunk])
    return out


def series_coefficients(alpha, d, kmax=220):
    """Tail-series coefficients c_k in log form: (sign_k, log|c_k|), k=1..kmax.

    Log form is mandatory: |c_k| itself overflows for alpha near 2 long before
    the terms c_k r^{-d-alpha k} stop mattering.
    """
    k = np.arange(1, kmax + 1, dtype=float)
    logmag = (
        alpha * k * math.log(2.0)
        + lgamma((d + alpha * k) / 2.0)
        + lgamma(1.0 + alpha * k / 2.0)
        - lgamma(k + 1.0)
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


def _horner(coef, v, out):
    """sum_{k=1}^{len(coef)} coef[k-1] v^k by Horner's rule, for an array v,
    accumulated in place in ``out``, which it returns."""
    out.fill(coef[-1])
    for c in coef[-2::-1]:
        out *= v
        out += c
    out *= v
    return out


# Radii per Horner pass in series_eval: each of the ~K passes then sweeps a
# 512 KiB block held in cache instead of streaming the whole array.
_SERIES_BLOCK = 65536


def series_eval(alpha, d, scaled, r_ref, r):
    """Vectorized partial sum  sum_{k<=K} c_k r^{-d-alpha k}.

    ``scaled`` holds c'_1..c'_{K+2} rescaled to ``r_ref`` (see
    ``rescaled_coefficients``); with u = r_ref/r and v = u^alpha the sum is
    u^d sum_{k<=K} c'_k v^k, accumulated in the output a block of
    ``_SERIES_BLOCK`` radii at a time.  Each radius is computed on its own,
    so a scalar and the same radius inside a batch of any length agree bit
    for bit.  ``series_bound`` gives the truncation bound.
    """
    arr = np.asarray(r, dtype=float)
    flat = np.atleast_1d(arr)
    vals = np.empty_like(flat)
    for i in range(0, len(flat), _SERIES_BLOCK):
        u = r_ref / flat[i : i + _SERIES_BLOCK]
        block = _horner(scaled[:-2], u**alpha, vals[i : i + _SERIES_BLOCK])
        block *= u**d
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


def _clamped_spline(x, y, end_slope):
    """Coefficients c, shape (4, n-1), of the cubic spline through (x_i, y_i)
    with slope 0 at x_0 (a radial profile is even in r) and ``end_slope`` at
    x_{n-1}: c[0] s^3 + c[1] s^2 + c[2] s + c[3] on [x_i, x_{i+1}] with
    s = r - x_i, the layout of scipy's ``PPoly.c``.

    The node slopes s_i solve the tridiagonal system (de Boor, *A Practical
    Guide to Splines*, ch. IV)
        dx_i s_{i-1} + 2 (dx_{i-1} + dx_i) s_i + dx_{i-1} s_{i+1}
            = 3 (dx_i m_{i-1} + dx_{i-1} m_i),   m_i = (y_{i+1} - y_i) / dx_i,
    by elimination without row interchanges (stable: the system is
    diagonally dominant) in LAPACK dgtsv's order, and the cubics are then
    formed as scipy's ``CubicHermiteSpline`` forms them.  Where dgtsv would
    interchange no rows, as on the graded grids of ``StableDensity``, the
    result is bit for bit ``CubicSpline(x, y, bc_type=((1, 0.0),
    (1, end_slope))).c``.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    n = len(x)
    diag = [1.0, *(2 * (dx[:-1] + dx[1:])).tolist(), 1.0]
    upper = [0.0, *dx[:-1].tolist()]  # row i's entry in column i + 1
    lower = [*dx[1:].tolist(), 0.0]  # row i + 1's entry in column i
    b = [0.0, *(3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])).tolist(), end_slope]
    # both sweeps are sequential recurrences: run them on Python floats
    for i in range(n - 1):
        fact = lower[i] / diag[i]
        diag[i + 1] -= fact * upper[i]
        b[i + 1] -= fact * b[i]
    b[-1] /= diag[-1]
    for i in range(n - 2, -1, -1):
        b[i] = (b[i] - upper[i] * b[i + 1]) / diag[i]
    s = np.array(b)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


# Longest tail series switch_radius accepts: at ~40 terms a Horner radius
# costs about as much as a table radius, so near alpha = 1, where the series
# meets its target at r ~ 1.2 only with K ~ 170, the table is extended instead.
MAX_SERIES_TERMS = 40


def switch_radius(alpha, d, abs_tol, rel_tol):
    """(r_s, K, err, c'_1..c'_{K+2}) at the smallest scanned radius r_s in
    [0.8, 60] where the truncated series meets a tenth of the mixed target
    max(abs_tol, rel_tol |p_1(r_s)|) with K <= MAX_SERIES_TERMS; raises if no
    scanned radius does."""
    coeffs = series_coefficients(alpha, d)
    floor = 0.1 * abs_tol
    for r in np.geomspace(0.8, 60.0, 36):
        r = float(r)
        K, err = series_truncation(alpha, d, coeffs, r, floor)
        if K > MAX_SERIES_TERMS:
            continue
        scaled = rescaled_coefficients(alpha, d, coeffs, r, K + 2)
        val = series_eval(alpha, d, scaled, r, r)
        if err < 0.1 * max(abs_tol, rel_tol * abs(val)):
            return r, K, err, scaled
    raise QuadratureError(
        f"tail series for alpha={alpha}, d={d} misses its tolerance within "
        f"{MAX_SERIES_TERMS} terms at every switch radius up to 60",
        err,
    )


class StableDensity:
    """Tabulated radial alpha-stable density on [0, r_switch] with an
    inverse-power series continuation beyond.

    alpha in (0, 2) and the integer dimension d >= 2 are checked at
    construction (2.0 passes, 2.5 raises).  Negative quadrature noise in
    [-10*abs_tol, 0) is clamped to 0 and counted in ``clamped``.
    """

    def __init__(self, alpha, d, abs_tol=1e-10, rel_tol=1e-8):
        self.alpha = _stable_index(alpha)
        self.d = _dimension(d)
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

    def _build_table(self):
        # node grading: quadratic clustering toward 0 for alpha < 1 where the
        # peak curvature scale Gamma((d+4)/alpha) is large
        n = 700 if self.alpha < 1.0 else 520
        self._grade = 2.0 if self.alpha < 1.0 else 1.4
        # the spline ends with the partial sum's slope, -sum (d + alpha k) c'_k / r_switch
        expo = self.d + self.alpha * np.arange(1, self.series_K + 1, dtype=float)
        deriv_end = -float(np.sum(expo * self._scaled[: self.series_K])) / self.r_switch
        try:
            peak = p1_at_zero(self.alpha, self.d)
        except OverflowError:
            raise QuadratureError(
                f"stable density peak p_1(0) for alpha={self.alpha}, d={self.d} "
                "overflows double precision",
                math.inf,
            ) from None
        for _ in range(4):
            u = np.linspace(0.0, 1.0, n)
            self.table_nodes = self.r_switch * u**self._grade
            vals = subordination_p1(self.alpha, self.d, self.table_nodes)
            vals[0] = peak
            self._coef = _clamped_spline(self.table_nodes, vals, deriv_end)
            defect, ok = self._validate()
            if ok:
                break
            n = int(n * 1.7)
        else:
            raise QuadratureError(
                f"stable density table for alpha={self.alpha}, d={self.d} "
                "failed validation after 4 table builds",
                defect,
            )
        self.table_error = defect

    def _validate(self):
        """Check the table, through the runtime evaluator ``_table``, at probe
        radii spread across it (including the peaked head) against the
        subordination integral on the twice finer rule, whose gap to the
        table's rule is the reference error.
        Returns (max absolute defect, all probes within their local mixed
        tolerance); raises if the two rules disagree beyond a hundredth of
        the tolerance."""
        probes = self.r_switch * np.array(
            [1e-4, 3e-3, 0.017, 0.047, 0.11, 0.23, 0.41, 0.63, 0.82, 0.95, 0.995]
        )
        refs = subordination_p1(self.alpha, self.d, probes, refine=2)
        errs = np.abs(refs - subordination_p1(self.alpha, self.d, probes))
        worst, ok = 0.0, True
        for r, ref, err, val in zip(probes, refs, errs, self._table(probes)):
            if err > 0.01 * self._target(ref):
                raise QuadratureError(
                    f"subordination quadrature for alpha={self.alpha}, d={self.d}, "
                    f"r={r} did not converge",
                    float(err),
                )
            defect = max(abs(float(val) - ref) - err, 0.0)
            worst = max(worst, defect)
            if defect > 0.5 * self._target(ref):
                ok = False
        return worst, ok

    # -- evaluation --------------------------------------------------------

    def _table(self, r):
        """The cubic table at radii 0 <= r <= r_switch (1-D array), bit for bit
        what scipy's ``PPoly.__call__`` returns on the same coefficients.

        The nodes sit on the graded grid r_switch (j/m)^grade, so the interval
        index comes from inverting the grading instead of a binary search; one
        comparison each way against the nodes corrects its rounding, giving
        searchsorted(nodes, r, 'right') - 1 with r_switch in the last interval.
        The cubic is summed in scipy's order, c3 + c2 s + c1 s^2 + c0 (s^2 s).
        """
        x, c = self.table_nodes, self._coef
        m = len(x) - 1
        i = ((r / self.r_switch) ** (1.0 / self._grade) * m).astype(np.intp)
        np.minimum(i, m - 1, out=i)
        i -= x[i] > r
        i += x[i + 1] <= r
        np.minimum(i, m - 1, out=i)
        s = r - x[i]
        return c[3][i] + c[2][i] * s + c[1][i] * (s * s) + c[0][i] * (s * s * s)

    def _clamp(self, out):
        """Zero negative quadrature noise in ``out`` (in place, counted in
        ``clamped``); values below the negativity floor raise."""
        low = float(out.min()) if out.size else 0.0
        if low < 0.0:
            if low < -10.0 * self.abs_tol:
                raise QuadratureError(
                    "stable density evaluation produced values below the "
                    "negativity floor; quadrature breakdown",
                    low,
                )
            neg = out < 0.0
            self.clamped += int(neg.sum())
            out[neg] = 0.0
        return out

    def evaluate(self, r):
        """Vectorized p_1(r); r may be scalar or array, entries >= 0, taken in
        blocks of ``_SERIES_BLOCK`` radii, each computed on its own."""
        arr = _radii(r)
        flat = arr.ravel()
        out = np.empty_like(flat)
        for j in range(0, len(flat), _SERIES_BLOCK):
            x, y = flat[j : j + _SERIES_BLOCK], out[j : j + _SERIES_BLOCK]
            # one partition by index: on radii in random order, gathers and
            # scatters through index arrays cost a fraction of boolean masks
            near = x <= self.r_switch
            i_near, i_far = np.flatnonzero(near), np.flatnonzero(~near)
            if len(i_near):
                y[i_near] = self._table(x[i_near])
            if len(i_far):
                y[i_far] = series_eval(self.alpha, self.d, self._scaled, self.r_switch, x[i_far])
        self._clamp(out)
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    __call__ = evaluate

    def value_and_error(self, r):
        """Scalar evaluation with an error estimate (table defect or series
        truncation bound, whichever branch applies)."""
        r = float(_radii(r))
        if r <= self.r_switch:
            return self.evaluate(r), self.table_error
        args = (self.alpha, self.d, self._scaled, self.r_switch, np.array([r]))
        return float(self._clamp(series_eval(*args))[0]), float(series_bound(*args)[0])

    # -- radial integrals ----------------------------------------------------

    def radial_integral(self, q, a):
        """(int_a^inf r^q p_1(r) dr, truncation bound of its series part) for
        a >= 0, floats for a scalar a and new arrays for an array of them;
        raises ``RegimeError`` unless alpha > s = q + 1 - d, where it converges.

        The head on [a, r_switch], when a lies below r_switch, is composite
        Gauss-Legendre-16 on the table's intervals clipped to it, exact for
        r^q times the cubic (integer q <= 28), one such a at a time.  The tail
        from b = max(a, r_switch) integrates the partial sum term by term,
        sum_k c_k b^{s-alpha k} / (alpha k - s) = r_s^{d+s} u^{-s} sum_k
        c'_k v^k / (alpha k - s) with u = r_s/b and v = u^alpha: the series of
        ``series_eval`` with weights c'_k / (alpha k - s) and exponent -s in
        place of d, whose bound is the larger of the next two neglected term
        integrals: one ``series_eval`` call for all finite a, each on its own
        (the bits of a scalar call).  From a = inf the integral is (0.0, 0.0).
        """
        arr = _radii(a, "lower limit a")
        shift = float(q + 1 - self.d)
        if self.alpha <= shift:
            raise RegimeError(
                f"int r^{q} p_1 dr diverges at infinity for alpha={self.alpha} <= q + 1 - d = {shift:g}"
            )
        flat = arr.ravel()
        value, err = np.zeros_like(flat), np.zeros_like(flat)
        finite = flat < math.inf
        expo = self.alpha * np.arange(1, len(self._scaled) + 1, dtype=float) - shift
        args = (self.alpha, -shift, self._scaled / expo, self.r_switch, np.maximum(flat[finite], self.r_switch))
        scale = self.r_switch ** (self.d + shift)
        value[finite], err[finite] = scale * series_eval(*args), scale * series_bound(*args)
        x = self.table_nodes
        for i in np.flatnonzero(flat < self.r_switch):
            edges = np.concatenate([flat[i : i + 1], x[(x > flat[i]) & (x < self.r_switch)], [self.r_switch]])
            nodes, weights = _gl_nodes_weights(edges)
            value[i] += float(weights @ (nodes**q * self.evaluate(nodes)))
        if arr.ndim == 0:
            return float(value[0]), float(err[0])
        return value.reshape(arr.shape), err.reshape(arr.shape)


_cache = {}


def density(alpha, d, abs_tol=1e-10, rel_tol=1e-8):
    """Process-wide cached StableDensity factory."""
    key = (round(_stable_index(alpha), 12), _dimension(d), float(abs_tol), float(rel_tol))
    if key not in _cache:
        # built from the key's alpha, so the entry does not depend on which
        # caller's alpha within the rounding reached the cache first
        _cache[key] = StableDensity(key[0], key[1], abs_tol=abs_tol, rel_tol=rel_tol)
    return _cache[key]
