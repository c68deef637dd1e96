"""Shapes, set covariance, perimeter functionals.

The covariance of a bounded set is g(y) = |Omega ∩ (Omega + y)|; everything
downstream (heat content, alpha-perimeter, directional variation) consumes its
spherical average ghat(rho) = int_{S^{d-1}} g(rho u) dH(u).

Balls and boxes have closed-form covariance; for a box the spherical average
reduces per octant to an integral of (L1 - s cos phi)^+ (L2 - s sin phi)^+
over the azimuth, which integrates in closed form between the support angles.
Generic indicator shapes fall back to Monte Carlo.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.special import betainc, betaln

from .errors import QuadratureError, RegimeError, UnsupportedShapeError
from .kernel import QuadratureConfig, unit_ball_volume, unit_sphere_area


# -- shapes ----------------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    """Ball of radius R centered at the origin in R^d."""

    radius: float
    d: int

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")
        if self.d < 2:
            raise ValueError("dimension must be >= 2")


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with side lengths L_i, centered at the origin."""

    sides: tuple

    def __post_init__(self):
        object.__setattr__(self, "sides", tuple(float(s) for s in self.sides))
        if len(self.sides) < 2:
            raise ValueError("box needs at least two sides")
        if any(s <= 0 for s in self.sides):
            raise ValueError("box sides must be positive")

    @property
    def d(self):
        return len(self.sides)


@dataclass(frozen=True)
class Indicator:
    """Generic bounded shape given by a membership predicate.

    ``contains`` maps an (n, d) array of points to a boolean array; the
    bounding box must cover the support.  ``volume`` may be supplied when
    known exactly; otherwise it is Monte Carlo estimated on demand and all
    derived quantities inherit that error.
    """

    d: int
    contains: callable
    bbox_lo: tuple
    bbox_hi: tuple
    volume: float = None

    def __post_init__(self):
        if self.d < 2 or len(self.bbox_lo) != self.d or len(self.bbox_hi) != self.d:
            raise ValueError("bounding box must match the dimension (d >= 2)")
        if any(h <= l for l, h in zip(self.bbox_lo, self.bbox_hi)):
            raise ValueError("bounding box must have positive extent")


def volume(shape, samples=2**20, seed=0):
    """|Omega|: closed form for Ball/Box, declared or MC for Indicator."""
    if isinstance(shape, Ball):
        return unit_ball_volume(shape.d) * shape.radius**shape.d
    if isinstance(shape, Box):
        return float(np.prod(shape.sides))
    if shape.volume is not None:
        return float(shape.volume)
    lo = np.asarray(shape.bbox_lo, dtype=float)
    hi = np.asarray(shape.bbox_hi, dtype=float)
    box_vol = float(np.prod(hi - lo))
    hits = 0
    for start, stop, batch_rng in _batches(samples, seed):
        x = lo + (hi - lo) * batch_rng.random((stop - start, shape.d))
        hits += int(np.count_nonzero(shape.contains(x)))
    return box_vol * hits / samples


def diameter(shape):
    """Diameter of the shape; for Indicator this is the bounding-box diagonal
    (an upper bound for the true diameter)."""
    if isinstance(shape, Ball):
        return 2.0 * shape.radius
    if isinstance(shape, Box):
        return math.sqrt(sum(s * s for s in shape.sides))
    lo = np.asarray(shape.bbox_lo, dtype=float)
    hi = np.asarray(shape.bbox_hi, dtype=float)
    return float(np.linalg.norm(hi - lo))


def perimeter(shape):
    """Per(Omega) = H^{d-1}(boundary): A_d R^{d-1} for a ball, the surface
    area 2 sum_i prod_{j != i} L_j for a box."""
    if isinstance(shape, Ball):
        return unit_sphere_area(shape.d) * shape.radius ** (shape.d - 1)
    if isinstance(shape, Box):
        L = shape.sides
        total = 0.0
        for i in range(len(L)):
            prod = 1.0
            for j, s in enumerate(L):
                if j != i:
                    prod *= s
            total += prod
        return 2.0 * total
    raise UnsupportedShapeError(
        "no closed-form perimeter for Indicator shapes; use perimeter_via_directional"
    )


# -- covariance closed forms -------------------------------------------------


def theta(d, z):
    """Theta(z) = int_0^{arcsin z} sin^{d-2}(t) cos^2(t) dt
    = (1/2) B(z^2; (d-1)/2, 3/2)."""
    zz = np.asarray(z, dtype=float)
    if np.any(zz < 0) or np.any(zz > 1):
        raise ValueError("theta argument must lie in [0, 1]")
    if d < 2:
        raise ValueError("dimension must be >= 2")
    a, b = (d - 1) / 2.0, 1.5
    out = 0.5 * math.exp(betaln(a, b)) * betainc(a, b, zz**2)
    return float(out) if np.isscalar(z) else out


def covariance_ball(d, R, a):
    """g_B(a) for a ball of radius R: volume of the lens of two balls at
    distance a.  Vectorized in a."""
    if not R > 0:
        raise ValueError("ball radius must be positive")
    aa = np.asarray(a, dtype=float)
    if np.any(aa < 0):
        raise ValueError("covariance argument must be nonnegative")
    s = np.minimum(aa / R, 2.0)
    disc = np.maximum(1.0 - s * s / 4.0, 0.0)
    val = 2.0 * unit_sphere_area(d - 1) * theta(d, np.sqrt(disc)) - s * unit_ball_volume(
        d - 1
    ) * disc ** ((d - 1) / 2.0)
    val = R**d * np.maximum(val, 0.0)
    return float(val) if np.isscalar(a) else val


def covariance_box(L, y):
    """g_Box(y) = prod_i (L_i - |y_i|)^+ for side lengths L."""
    yy = np.atleast_2d(np.asarray(y, dtype=float))
    Ls = np.asarray(L, dtype=float)
    if yy.shape[-1] != Ls.size:
        raise ValueError("point dimension does not match box dimension")
    val = np.prod(np.maximum(Ls[None, :] - np.abs(yy), 0.0), axis=-1)
    return float(val[0]) if np.asarray(y).ndim == 1 else val


def covariance(shape, y):
    """Closed-form covariance for Ball/Box at displacement y (vector)."""
    y = np.asarray(y, dtype=float)
    if isinstance(shape, Ball):
        return covariance_ball(shape.d, shape.radius, float(np.linalg.norm(y)))
    if isinstance(shape, Box):
        return covariance_box(shape.sides, y)
    raise UnsupportedShapeError("closed-form covariance exists only for Ball/Box")


_MC_BATCH = 262144


def _batches(samples, seed):
    """Deterministic counter-based batch streams: Philox keyed (seed, batch)."""
    for b, start in enumerate(range(0, samples, _MC_BATCH)):
        stop = min(start + _MC_BATCH, samples)
        yield start, stop, np.random.Generator(np.random.Philox(key=[seed, b]))


def _membership(shape):
    if isinstance(shape, Ball):
        R2 = shape.radius**2
        return lambda x: np.einsum("ij,ij->i", x, x) <= R2
    if isinstance(shape, Box):
        half = np.asarray(shape.sides, dtype=float) / 2.0
        return lambda x: np.all(np.abs(x) <= half[None, :], axis=-1)
    return shape.contains


def _bounding_box(shape):
    if isinstance(shape, Ball):
        r = shape.radius
        return -r * np.ones(shape.d), r * np.ones(shape.d)
    if isinstance(shape, Box):
        half = np.asarray(shape.sides, dtype=float) / 2.0
        return -half, half
    return np.asarray(shape.bbox_lo, dtype=float), np.asarray(shape.bbox_hi, dtype=float)


def covariance_mc(shape, y, samples=2**20, seed=0):
    """Monte Carlo |Omega ∩ (Omega + y)|: uniform x in the bounding box,
    average 1(x in Omega) 1(x - y in Omega), scaled by the box volume.
    Returns (estimate, stderr)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    y = np.asarray(y, dtype=float)
    lo, hi = _bounding_box(shape)
    member = _membership(shape)
    box_vol = float(np.prod(hi - lo))
    hits = 0
    for start, stop, rng in _batches(int(samples), seed):
        x = lo + (hi - lo) * rng.random((stop - start, len(lo)))
        hits += int(np.count_nonzero(member(x) & member(x - y[None, :])))
    p = hits / samples
    return box_vol * p, box_vol * math.sqrt(max(p * (1.0 - p), 0.0) / samples)


# -- spherical average of the covariance -------------------------------------


def _box_azimuth_integral(s, L1, L2):
    """int_0^{pi/2} (L1 - s cos phi)^+ (L2 - s sin phi)^+ dphi, closed form.

    The integrand is supported on (phi0, phi1) with phi0 = arccos(min(L1/s,1)),
    phi1 = arcsin(min(L2/s,1)); expanding the product gives elementary
    antiderivatives.  Vectorized in s.
    """
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


def _box_ghat_d2(rho, L1, L2):
    """ghat(rho) for a 2-D box: four symmetric quadrants."""
    return 4.0 * _box_azimuth_integral(rho, L1, L2)


_POLAR_NODES, _POLAR_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _box_ghat_d3(rho, L1, L2, L3):
    """ghat(rho) for a 3-D box.

    Per octant, substituting the polar angle t = cos(theta) = sin(psi):
        ghat = 8 int_0^{pi/2} (L3 - rho sin psi)^+ I2(rho cos psi; L1, L2)
               cos(psi) dpsi,
    with I2 the closed-form azimuthal integral.  The psi-integrand is
    trigonometric (no endpoint branch points) and smooth between the
    breakpoints where rho sin psi = L3 or rho cos psi hits L1, L2 or
    sqrt(L1^2+L2^2); piecewise Gauss-Legendre there is spectrally accurate.
    Cuts that fall outside (0, pi/2) clip to an end and leave segments of
    zero width (for rho < min(L) all but one); only segments of positive
    width are integrated, since the others add exactly 0.
    """
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    pos = rho > 0
    if pos.any():
        r = rho[pos]
        half_pi = math.pi / 2.0
        with np.errstate(over="ignore"):  # subnormal r: c / r = inf clips to 1
            cuts = [np.arcsin(np.minimum(L3 / r, 1.0))]
            for c in (L1, L2, math.hypot(L1, L2)):
                cuts.append(np.arccos(np.minimum(c / r, 1.0)))
        cuts = np.stack([np.zeros_like(r)] + cuts + [np.full_like(r, half_pi)], axis=-1)
        cuts = np.sort(np.clip(cuts, 0.0, half_pi), axis=-1)  # (n, 6) edges
        acc = np.zeros_like(r)
        for j in range(cuts.shape[-1] - 1):
            half = 0.5 * (cuts[:, j + 1] - cuts[:, j])
            live = np.flatnonzero(half > 0)
            if live.size == 0:
                continue
            rl, hl = r[live, None], half[live]
            mid = 0.5 * (cuts[live, j + 1] + cuts[live, j])
            psi = mid[:, None] + hl[:, None] * _POLAR_NODES[None, :]
            cos_psi = np.cos(psi)
            f = (
                np.maximum(L3 - rl * np.sin(psi), 0.0)
                * _box_azimuth_integral(rl * cos_psi, L1, L2)
                * cos_psi
            )
            acc[live] += hl * (f @ _POLAR_WEIGHTS)
        out[pos] = 8.0 * acc
    if (~pos).any():
        out[~pos] = _box_ghat_zero((L1, L2, L3))
    return out


def _box_ghat_zero(sides):
    return unit_sphere_area(len(sides)) * float(np.prod(sides))


@dataclass(frozen=True)
class AngularConfig:
    """Controls for the spherical averaging of non-radial covariances."""

    n_phi: int = 4096  # circle nodes (d=2 trapezoid cross-checks)
    n_polar: int = 48  # Gauss nodes per smooth polar segment (d=3)
    samples: int = 2**18  # MC pairs per grid point (Indicator)
    seed: int = 0


@dataclass(frozen=True)
class CovarianceProfile:
    """Spherical average ghat(rho) = int_{S^{d-1}} g(rho u) dH(u).

    ``ghat`` evaluates at arbitrary radii (exact closed form where available,
    monotone interpolation of Monte Carlo values otherwise); it vanishes at
    and beyond ``support_radius`` and equals A_d |Omega| at 0.
    """

    support_radius: float
    volume: float
    angular_method: str
    d: int
    kink_radii: tuple = ()  # radii where ghat loses smoothness (box corners)
    _evaluator: callable = field(default=None, repr=False, compare=False)

    def ghat(self, rho):
        arr = np.asarray(rho, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if not np.all(arr >= 0):  # also rejects NaN
            raise ValueError("radius must be nonnegative")
        out = np.zeros_like(arr)
        inside = arr < self.support_radius
        if inside.any():
            out[inside] = np.maximum(self._evaluator(arr[inside]), 0.0)
        return float(out[0]) if scalar else out


def radial_profile(shape, angular_cfg=AngularConfig()):
    """Wrap an evaluator for ghat, supported on [0, diameter(shape)).

    Ball: exact radial symmetry.  Box: the azimuthal integral is exact and
    the d=3 polar integral uses piecewise Gauss between breakpoints.
    Indicator: sphere-direction Monte Carlo combined with pair sampling.
    """
    ell = diameter(shape)
    vol = volume(shape)
    d = shape.d

    if isinstance(shape, Ball):
        evaluator = lambda r: unit_sphere_area(d) * covariance_ball(d, shape.radius, r)
        method = "exact-radial"
    elif isinstance(shape, Box):
        if d == 2:
            L1, L2 = shape.sides
            evaluator = lambda r: _box_ghat_d2(np.asarray(r, dtype=float), L1, L2)
            method = "exact-radial"
        elif d == 3:
            L1, L2, L3 = shape.sides
            evaluator = lambda r: _box_ghat_d3(np.asarray(r, dtype=float), L1, L2, L3)
            method = "angular-quadrature"
        else:
            raise UnsupportedShapeError("box profiles implemented for d in {2, 3}")
    else:
        evaluator = _indicator_profile_evaluator(shape, ell, vol, angular_cfg)
        method = "sphere-MC"

    kinks = tuple(sorted(b for b in _profile_breakpoints(shape) if 0.0 < b < ell))
    return CovarianceProfile(
        support_radius=ell,
        volume=vol,
        angular_method=method,
        d=d,
        kink_radii=kinks,
        _evaluator=evaluator,
    )


def _indicator_profile_evaluator(shape, ell, vol, cfg):
    """Monte Carlo ghat on a fixed grid + monotone interpolation between."""
    grid = np.linspace(0.0, ell, 65)
    lo, hi = _bounding_box(shape)
    member = _membership(shape)
    box_vol = float(np.prod(hi - lo))
    area = unit_sphere_area(shape.d)
    vals = np.empty_like(grid)
    vals[0] = area * vol
    for i, rho in enumerate(grid[1:], start=1):
        hits = 0
        n = int(cfg.samples)
        for start, stop, rng in _batches(n, cfg.seed + 7919 * i):
            u = rng.standard_normal((stop - start, shape.d))
            u /= np.linalg.norm(u, axis=-1, keepdims=True)
            x = lo + (hi - lo) * rng.random((stop - start, shape.d))
            hits += int(np.count_nonzero(member(x) & member(x - rho * u)))
        vals[i] = area * box_vol * hits / n
    vals[grid >= ell] = 0.0
    interp = PchipInterpolator(grid, vals, extrapolate=False)
    return lambda r: np.nan_to_num(interp(np.asarray(r, dtype=float)), nan=0.0)


# -- directional variation and perimeter identities ---------------------------


def _variation_batch(shape, U, h_grid):
    """V_u for unit directions U (n, d) by extrapolating the one-sided
    difference quotient 2 (g(0) - g(h u)) / h to h = 0."""
    g0 = volume(shape)
    hs = np.asarray(h_grid, dtype=float)
    quotients = np.empty((U.shape[0], hs.size))
    for j, h in enumerate(hs):
        if isinstance(shape, Ball):
            g = covariance_ball(shape.d, shape.radius, np.full(U.shape[0], h))
        else:
            g = covariance_box(shape.sides, h * U)
        quotients[:, j] = 2.0 * (g0 - g) / h
    # Lagrange extrapolation of the quotient polynomial to h = 0
    w = np.ones(hs.size)
    for i in range(hs.size):
        for j in range(hs.size):
            if j != i:
                w[i] *= -hs[j] / (hs[i] - hs[j])
    return quotients @ w, quotients


def directional_variation(shape, u, h_grid=None):
    """V_u(Omega) = 2 lim_{r->0+} (g(0) - g(r u)) / r via Richardson-style
    extrapolation over h_grid (default ell * geomspace(1e-2, 1e-6, 5))."""
    u = np.asarray(u, dtype=float)
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    if not isinstance(shape, (Ball, Box)):
        raise UnsupportedShapeError(
            "directional variation needs the closed-form covariance of Ball/Box"
        )
    if h_grid is None:
        h_grid = diameter(shape) * np.geomspace(1e-2, 1e-6, 5)
    val, quotients = _variation_batch(shape, u[None, :], h_grid)
    q = quotients[0]
    # the quotient should settle monotonically; wild non-monotonicity signals
    # cancellation in g(0) - g(hu)
    dq = np.abs(np.diff(q))
    if dq.size >= 2 and dq[-1] > 10.0 * (dq[0] + 1e-14) and dq[-1] > 1e-6 * abs(val[0]):
        warnings.warn("difference quotients are not settling; result may be noisy")
    return float(val[0])


def perimeter_via_directional(shape, angular_cfg=AngularConfig()):
    """Per(Omega) = (1 / 2 w_{d-1}) int_{S^{d-1}} V_u(Omega) dH(u)."""
    d = shape.d
    h_grid = diameter(shape) * np.geomspace(1e-2, 1e-6, 5)
    if d == 2:
        n = int(angular_cfg.n_phi)
        phi = 2.0 * math.pi * np.arange(n) / n
        U = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        vals, _ = _variation_batch(shape, U, h_grid)
        integral = 2.0 * math.pi * float(vals.mean())
    elif d == 3:
        # product rule: Gauss in t = cos(theta) per hemisphere (|t| kink at 0),
        # uniform trapezoid in phi (nodes sit on the |cos|,|sin| kinks)
        nt = int(angular_cfg.n_polar)
        t_nodes, t_w = np.polynomial.legendre.leggauss(nt)
        integral = 0.0
        nphi = max(64, int(angular_cfg.n_phi) // 16)
        phi = 2.0 * math.pi * np.arange(nphi) / nphi
        for sign in (-1.0, 1.0):
            t = 0.5 * (t_nodes + 1.0) * sign  # map to (0, 1) or (-1, 0)
            w = 0.5 * t_w
            st = np.sqrt(np.maximum(1.0 - t * t, 0.0))
            U = np.stack(
                [
                    (st[:, None] * np.cos(phi)[None, :]).ravel(),
                    (st[:, None] * np.sin(phi)[None, :]).ravel(),
                    np.repeat(t, nphi),
                ],
                axis=-1,
            )
            vals, _ = _variation_batch(shape, U, h_grid)
            vals = vals.reshape(nt, nphi)
            integral += float((w @ vals).sum()) * (2.0 * math.pi / nphi)
    else:
        raise UnsupportedShapeError("perimeter identity implemented for d in {2, 3}")
    return integral / (2.0 * unit_ball_volume(d - 1))


# -- alpha-perimeter ----------------------------------------------------------


def alpha_perimeter(shape, alpha, profile=None, cfg=None):
    """P_alpha(Omega) = int_0^inf rho^{-1-alpha} (A_d |Omega| - ghat(rho)) drho.

    Finite exactly when alpha in (0,1) for sets of finite perimeter; the
    integrand behaves like rho^{-alpha} w_{d-1} Per near 0, handled with a
    weighted (algebraic-singularity) quadrature on the first segment, and the
    exact power tail A_d |Omega| ell^{-alpha} / alpha beyond the support.
    """
    if not 0.0 < alpha < 1.0:
        raise RegimeError(
            f"alpha-perimeter is finite only for alpha in (0, 1); got alpha={alpha}"
        )
    cfg = cfg if cfg is not None else QuadratureConfig()
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    if profile is None:
        profile = radial_profile(shape)
    ell = profile.support_radius
    if abs(ell - diameter(shape)) > 1e-9 * max(1.0, ell):
        raise ValueError("profile support radius does not match the shape diameter")
    advol = unit_sphere_area(shape.d) * profile.volume
    r_floor = 1e-9 * ell

    def smooth_part(rho):
        # bounded factor f(rho) = (A_d|Omega| - ghat)/rho of the weighted
        # integrand, with f(0+) = w_{d-1} Per; the floor keeps the endpoint
        # evaluation of the weighted rule finite
        rho = max(rho, r_floor)
        return (advol - profile.ghat(rho)) / rho

    cuts = sorted({c for c in _profile_breakpoints(shape) if 1e-12 < c < ell})
    edges = [0.0] + cuts + [ell]
    total = 0.0
    # first segment carries the rho^{-alpha} singularity
    head, err = quad(
        smooth_part,
        0.0,
        edges[1],
        weight="alg",
        wvar=(-alpha, 0.0),
        epsabs=0.1 * abs_tol,
        epsrel=0.1 * rel_tol,
        limit=300,
    )
    total += head
    for a, b in zip(edges[1:-1], edges[2:]):
        part, perr = quad(
            lambda r: r**-alpha * smooth_part(r),
            a,
            b,
            epsabs=0.1 * abs_tol,
            epsrel=0.1 * rel_tol,
            limit=300,
        )
        total += part
        err += perr
    total += advol * ell ** (-alpha) / alpha
    if err > 1e-4 * max(abs(total), 1.0):
        raise QuadratureError("alpha-perimeter quadrature did not converge", err)
    return total


def _profile_breakpoints(shape):
    """Radii where ghat loses smoothness (box side/diagonal combinations)."""
    if isinstance(shape, Box):
        L = shape.sides
        pts = set()
        for i in range(len(L)):
            pts.add(L[i])
            for j in range(i + 1, len(L)):
                pts.add(math.hypot(L[i], L[j]))
        if len(L) == 3:
            pts.add(math.sqrt(sum(s * s for s in L)))
        return pts
    return set()
