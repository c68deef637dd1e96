"""Shapes, set covariance, perimeter functionals.

The covariance of a bounded set is g(y) = |Omega ∩ (Omega + y)|; the heat
content and the alpha-perimeter consume the complement A_d |Omega| - ghat(rho)
of its spherical average ghat(rho) = int_{S^{d-1}} g(rho u) dH(u).

Balls and boxes have closed-form covariance; for a box the spherical average
reduces per octant to an integral of (L1 - s cos phi)^+ (L2 - s sin phi)^+
over the azimuth, which integrates in closed form between the support angles.
For a 3-D box, ghat is a closed-form cubic in rho up to the shortest side
and, above it, a sum of closed-form integrals over caps of the octant of S^2.

A generic ``Indicator`` shape has no closed form, so it is served only by the
Monte Carlo estimators that report a stderr: ``covariance_mc`` here and
``oracle.mc_heat_content``.  Both work on coordinate columns, in buffers that
outlive the call (``_scratch``) and in sub-blocks of ``_MC_BLOCK`` points, with
the bits of the row-wise form that allocates every batch afresh.  A batch's
stream is counter-based (Philox keyed (seed, batch)), so ``_ahead`` opens a
copy of it at any offset: a sub-block reads its points straight from the
stream, and a draw that follows n others in it (y after x) is read from a
copy moved n doubles on, with no batch-long buffer for what comes first.
Every route that would return a bare Monte Carlo number or a bound in place
of the value for it -- ``radial_profile`` (hence ``alpha_perimeter``),
``perimeter``, ``perimeter_via_directional``, ``directional_variation``,
``covariance``, ``diameter`` and ``volume`` without a declared volume --
raises ``UnsupportedShapeError``.
"""

import functools
import math
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _special
from .errors import QuadratureError, UnsupportedShapeError, _dimension, _perimeter_index, _radii, _sample_count, _seed, _size
from .kernel import _DEFAULT_CFG, _gk_panels, _graded_edges, _refine, unit_ball_volume, unit_sphere_area


# -- shapes ----------------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    """Ball of radius R centered at the origin in R^d."""

    radius: float
    d: int

    def __post_init__(self):
        _size(self.radius, "ball radius")
        object.__setattr__(self, "d", _dimension(self.d))
        _check_measures(self)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with side lengths L_i, centered at the origin."""

    sides: tuple

    def __post_init__(self):
        object.__setattr__(self, "sides", tuple(float(s) for s in self.sides))
        _dimension(len(self.sides))
        _size(self.sides, "box sides")
        _check_measures(self)

    @property
    def d(self):
        return len(self.sides)


@dataclass(frozen=True)
class Indicator:
    """Generic bounded shape given by a membership predicate.

    ``contains`` maps an (n, d) array of points to a bool array of shape
    (n,), which the estimators check; the bounding box must cover the
    support.  ``volume`` may be supplied when known exactly (finite, positive
    and at most the bounding-box volume), and ``volume()`` then returns it.
    The shape is accepted by ``covariance_mc`` and ``oracle.mc_heat_content``,
    which return an estimate with its stderr (``covariance_mc(shape,
    np.zeros(d))`` estimates |Omega|); every closed-form or profile-based
    call, ``diameter`` included, raises ``UnsupportedShapeError``.
    """

    d: int
    contains: callable
    bbox_lo: tuple
    bbox_hi: tuple
    volume: float = None

    def __post_init__(self):
        object.__setattr__(self, "d", _dimension(self.d))
        if len(self.bbox_lo) != self.d or len(self.bbox_hi) != self.d:
            raise ValueError("bounding box must match the dimension")
        if not all(math.isfinite(x) for x in (*self.bbox_lo, *self.bbox_hi)):
            raise ValueError(
                f"bounding box corners must be finite, got {self.bbox_lo} and {self.bbox_hi}"
            )
        extent = tuple(h - l for l, h in zip(self.bbox_lo, self.bbox_hi))
        box = _size(math.prod(_size(extent, "bounding box extent")), "bounding box volume")
        if self.volume is not None and _size(self.volume, "declared volume") > box:
            raise ValueError(f"declared volume {self.volume} exceeds the bounding-box volume {box}")


def _check_measures(shape):
    """Raise ValueError unless the volume, perimeter, diameter and ghat(0) = A_d |Omega|
    of a Ball or Box are finite normal doubles; one that overflows counts as inf."""
    values = []
    for measure in (volume, perimeter, diameter, lambda s: unit_sphere_area(s.d) * volume(s)):
        try:
            with np.errstate(over="ignore"):
                values.append(float(measure(shape)))
        except OverflowError:
            values.append(math.inf)
    _size(tuple(values), f"volume, perimeter, diameter and A_d volume of {shape}")
    tiny = np.finfo(float).tiny
    for name, value in zip(("volume", "perimeter", "diameter", "A_d volume"), values):
        if value < tiny:
            raise ValueError(f"{name} of {shape} is {value:.3g}, subnormal (below {tiny:.3g})")


def volume(shape):
    """|Omega|: closed form for Ball/Box, the declared volume for Indicator."""
    if isinstance(shape, Ball):
        return unit_ball_volume(shape.d) * shape.radius**shape.d
    if isinstance(shape, Box):
        return float(np.prod(shape.sides))
    if shape.volume is not None:
        return float(shape.volume)
    raise UnsupportedShapeError(
        "Indicator has no declared volume; covariance_mc(shape, np.zeros(d)) estimates it "
        "with a stderr"
    )


def diameter(shape):
    """Diameter of a Ball or Box; an Indicator raises, since its bounding-box
    diagonal is only an upper bound."""
    if isinstance(shape, Ball):
        return 2.0 * shape.radius
    if isinstance(shape, Box):
        return math.sqrt(sum(s * s for s in shape.sides))
    raise UnsupportedShapeError("no closed-form diameter for Indicator shapes")


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
    raise UnsupportedShapeError("no closed-form perimeter for Indicator shapes")


# -- covariance closed forms -------------------------------------------------


def theta(d, z):
    """Theta(z) = int_0^{arcsin z} sin^{d-2}(t) cos^2(t) dt
    = (1/2) B(z^2; (d-1)/2, 3/2)."""
    zz = np.asarray(z, dtype=float)
    if not np.all((zz >= 0) & (zz <= 1)):  # also rejects NaN
        raise ValueError("theta argument must lie in [0, 1]")
    out = _special.theta(_dimension(d), zz)
    return float(out) if np.isscalar(z) else out


@functools.cache
def _lens_weights(d):
    """(A_{d-1}, w_{d-1}): the weights of ``_lens_deficit``'s two terms."""
    return unit_sphere_area(d - 1), unit_ball_volume(d - 1)


def _lens_deficit(d, s):
    """w_d - g_B(s) for the unit ball, s in [0, 2], as a sum of positive terms:
    A_{d-1} B_q(3/2, (d-1)/2) + s w_{d-1} (1 - q)^{(d-1)/2} with
    q = s^2/4 = sin^2 phi, ``theta``'s Beta function taken from the other end."""
    area, vol = _lens_weights(d)
    sin_phi = 0.5 * s
    cos_phi = np.sqrt((1.0 - sin_phi) * (1.0 + sin_phi))
    phi = None if d % 2 else np.arcsin(sin_phi)  # read for even d only
    return area * _special.sine_beta(3, d - 1, sin_phi, cos_phi, phi) + vol * s * cos_phi ** (d - 1)


def covariance_ball(d, R, a):
    """g_B(a) for a ball of radius R: volume of the lens of two balls at
    distance a, R^d (w_d - ``_lens_deficit``); exactly 0 at and beyond 2R.
    Vectorized in a."""
    s = _radii(a, "covariance argument") / _size(R, "ball radius")
    lens = np.maximum(unit_ball_volume(d) - _lens_deficit(d, np.minimum(s, 2.0)), 0.0)
    val = np.where(s < 2.0, R**d * lens, 0.0)
    return float(val) if np.isscalar(a) else val


def covariance_box(L, y):
    """g_Box(y) = prod_i (L_i - |y_i|)^+ for side lengths L."""
    yy = np.atleast_2d(np.asarray(y, dtype=float))
    Ls = np.asarray(L, dtype=float)
    if yy.shape[-1] != Ls.size:
        raise ValueError("point dimension does not match box dimension")
    if np.isnan(yy).any():  # any sign is valid, and +-inf gives 0
        raise ValueError("displacement must not be NaN")
    val = np.prod(np.maximum(Ls[None, :] - np.abs(yy), 0.0), axis=-1)
    return float(val[0]) if np.asarray(y).ndim == 1 else val


def _displacement(shape, y):
    """y as a float vector of shape (d,); anything else, a scalar or a
    vector of another length included, raises ValueError instead of
    broadcasting."""
    y = np.asarray(y, dtype=float)
    if y.shape != (shape.d,):
        raise ValueError(f"displacement must have shape ({shape.d},), got {y.shape}")
    return y


def covariance(shape, y):
    """Closed-form covariance for Ball/Box at displacement y, a vector of
    shape (d,)."""
    if isinstance(shape, Ball):
        y = _displacement(shape, y)
        return covariance_ball(shape.d, shape.radius, float(np.linalg.norm(y)))
    if isinstance(shape, Box):
        return covariance_box(shape.sides, _displacement(shape, y))
    raise UnsupportedShapeError("closed-form covariance exists only for Ball/Box")


_MC_BATCH = 262144
# points per sub-block: its arrays, 256 KiB a coordinate, stay in cache
_MC_BLOCK = 32768
_scratch_buffers = threading.local()


def _scratch(name, shape, dtype=float):
    """This thread's buffer ``name``, viewed as an uninitialised array of ``shape``.

    The buffer outlives the call and grows only when a view needs more, so a
    run of Monte Carlo calls reuses memory that is already paged in rather
    than mapping (and faulting in) fresh pages for every batch of every call.
    Each name holds one dtype, and a caller must be done with a view before
    it asks for the same name again.
    """
    size = math.prod(shape)
    buf = getattr(_scratch_buffers, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype)
        setattr(_scratch_buffers, name, buf)
    return buf[:size].reshape(shape)


def _batches(samples, seed):
    """Deterministic counter-based batch streams: yields (start, stop, rng)
    per batch, with rng the Philox generator keyed (seed, batch)."""
    for b, start in enumerate(range(0, samples, _MC_BATCH)):
        yield start, min(start + _MC_BATCH, samples), np.random.Generator(np.random.Philox(key=[seed, b]))


def _ahead(rng, count):
    """A copy of the Philox generator ``rng`` moved on by ``count`` doubles;
    ``rng`` itself does not move.

    A double takes one 64-bit word, and Philox makes four words per counter
    step: the words left of the current step are drawn, whole steps are
    skipped by ``advance`` (which drops the words it holds) and the rest are
    drawn, so the next double is the one ``count`` draws would have reached.
    """
    bits = np.random.Philox(key=0)
    bits.state = rng.bit_generator.state
    ahead = np.random.Generator(bits)
    head = min(count, 4 - bits.state["buffer_pos"])
    ahead.random(head)
    if count > head:
        bits.advance((count - head) // 4)
        ahead.random((count - head) % 4)
    return ahead


def _draw(rng, lo, width, out):
    """Fill ``out`` (n, d) with the uniform points lo + width * rng.random((n, d)),
    bit for bit: the same draws, scaled in place one coordinate column at a
    time."""
    rng.random(out=out)
    for j in range(out.shape[1]):
        col = out[:, j]
        col *= width[j]
        col += lo[j]
    return out


def _membership(shape):
    """member(x, out=None) -> bool (n,): which rows of the points x (n, d) lie
    in ``shape``, written into ``out`` when it is given.

    Ball and Box work in this thread's ``_scratch`` columns ``member_r2``,
    ``member_col`` and ``member_hit``, so a run of batches allocates them
    once.  A Box tests |x_i| <= L_i / 2 column by column.  A Ball sums the
    squared coordinates with ``einsum`` into its scratch column: a plain
    column sum would not reproduce einsum's SIMD summation order, and with it,
    to the last bit, which points on the sphere count as inside.  An
    Indicator's ``contains`` receives the whole array and must return a bool
    array of shape (n,); anything else raises ValueError.
    """
    if isinstance(shape, Ball):
        R2 = shape.radius**2

        def member(x, out=None):
            r2 = np.einsum("ij,ij->i", x, x, out=_scratch("member_r2", (len(x),)))
            return np.less_equal(r2, R2, out=out)

        return member
    if isinstance(shape, Box):
        half = np.asarray(shape.sides, dtype=float) / 2.0

        def member(x, out=None):
            col, hit = _scratch("member_col", (len(x),)), _scratch("member_hit", (len(x),), bool)
            out = np.less_equal(np.abs(x[:, 0], out=col), half[0], out=out)
            for j in range(1, len(half)):
                out &= np.less_equal(np.abs(x[:, j], out=col), half[j], out=hit)
            return out

        return member

    def member(x, out=None):
        inside = np.asarray(shape.contains(x))
        if inside.dtype != bool or inside.shape != (len(x),):
            raise ValueError(
                f"Indicator.contains must return a bool array of shape ({len(x)},), "
                f"got {inside.dtype} {inside.shape}"
            )
        if out is None:
            return inside
        np.copyto(out, inside)
        return out

    return member


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
    ``y`` is a vector of shape (d,).  Returns (estimate, stderr).

    Each batch is drawn and tested in sub-blocks of ``_MC_BLOCK`` points, one
    after another from the batch's stream, so they are the batch's points in
    order; x - y is formed column by column.  The hit count is an exact
    integer, so the estimate is bit-identical to the row-wise form that
    draws and allocates a whole batch at once."""
    samples, seed = _sample_count(samples), _seed(seed)
    y = _displacement(shape, y)
    if np.isnan(y).any():  # +-inf is valid and gives 0
        raise ValueError("displacement must not be NaN")
    lo, hi = _bounding_box(shape)
    width = hi - lo
    member = _membership(shape)
    box_vol = float(np.prod(width))
    rows = min(samples, _MC_BLOCK)
    points, shifted = _scratch("x", (rows, shape.d)), _scratch("y", (rows, shape.d))
    inside, inside_shifted = _scratch("in_x", (rows,), bool), _scratch("in_y", (rows,), bool)
    hits = 0
    for start, stop, rng in _batches(samples, seed):
        for first in range(start, stop, _MC_BLOCK):
            n = min(_MC_BLOCK, stop - first)
            x = _draw(rng, lo, width, points[:n])
            xs = shifted[:n]
            for j in range(shape.d):
                np.subtract(x[:, j], y[j], out=xs[:, j])
            both = member(x, inside[:n])
            both &= member(xs, inside_shifted[:n])
            hits += int(np.count_nonzero(both))
    p = hits / samples
    return box_vol * p, box_vol * math.sqrt(max(p * (1.0 - p), 0.0) / samples)


# -- spherical average of the covariance -------------------------------------


def _box_azimuth_integral(s, L1, L2):
    """int_0^{pi/2} (L1 - s cos phi)^+ (L2 - s sin phi)^+ dphi for s > min(L1, L2).

    The integrand is supported on (phi0, phi1) with phi0 = arccos(min(L1/s,1)),
    phi1 = arcsin(min(L2/s,1)); expanding the product gives elementary
    antiderivatives.  Vectorized in s.
    """
    phi0 = np.where(s <= L1, 0.0, np.arccos(np.minimum(L1 / s, 1.0)))
    phi1 = np.where(s <= L2, math.pi / 2.0, np.arcsin(np.minimum(L2 / s, 1.0)))
    live = phi1 > phi0
    p0, p1 = np.where(live, phi0, 0.0), np.where(live, phi1, 0.0)
    val = (
        L1 * L2 * (p1 - p0)
        + L1 * s * (np.cos(p1) - np.cos(p0))
        - L2 * s * (np.sin(p1) - np.sin(p0))
        + 0.25 * s * s * (np.cos(2.0 * p0) - np.cos(2.0 * p1))
    )
    return np.where(live, val, 0.0)


def _box_deficit_d2(rho, L1, L2):
    """A_2 L1 L2 - ghat(rho) for a 2-D box, four symmetric quadrants: for
    rho <= min(L1, L2), where the support is the whole quarter circle, the
    rho-dependent part 2 Per rho - 2 rho^2 of the azimuthal integrals; above
    it, where nothing cancels, A_2 L1 L2 minus them.  Vectorized in rho."""
    s = np.asarray(rho, dtype=float)
    with np.errstate(over="ignore"):  # only where rho > min(L1, L2), which is overwritten below
        out = 4.0 * s * (L1 + L2 - 0.5 * s)
    far = s > min(L1, L2)
    if far.any():
        out[far] = unit_sphere_area(2) * (L1 * L2) - 4.0 * _box_azimuth_integral(s[far], L1, L2)
    return out


# Pieces of the 3-D box ghat above the shortest side: each is r^4 times the
# integral of prod_m (c_m - u_m), c_m = L_m / r, over a region of the positive
# octant of S^2 (z = u_i and the azimuth phi are area coordinates there).
# Every root is a difference of squares of lengths and every angle an arctan2,
# so no piece loses digits next to the radius where it appears.


def _cap(r, Li, Lj, Lk, D, W, m1):
    """Cap u_i > c_i, given D = r - Li, W = sqrt(r^2 - Li^2) and
    m1 = r^2 arccos(c_i) - Li W."""
    return (
        -(math.pi / 4.0) * (Lj * Lk) * D * D
        - (Lj + Lk) * (0.5 * Li * m1 - W**3 / 3.0)
        - D**3 * (4.0 * r - D) / 24.0
    )


def _slab(r, Lm, Lj, Lk, A, theta):
    """Slab u_m <= c_m, given A = sqrt(r^2 - Lm^2) and theta = arcsin(c_m)."""
    r3_a3 = Lm * Lm / (r + A) * (r * r + r * A + A * A)
    return (
        (math.pi / 4.0) * (Lj * Lk) * (Lm * Lm)
        - (Lj + Lk) * (0.5 * Lm * (Lm * A + r * r * theta) - r3_a3 / 3.0)
        + 0.25 * (Lm * r) ** 2
        - Lm**4 / 24.0
    )


def _slab_cap(r, Li, Lm, Lk, A, theta):
    """Cap u_i > c_i inside the slab u_m <= c_m, for r > hypot(Li, Lm), with
    A and theta as for ``_slab``.

    With a = A / r = sqrt(1 - c_m^2), the azimuth from the m axis starts at
    arccos(c_m / w) for z in [c_i, a]; on [a, 1] the slab is slack and the
    slice is whole."""
    m1 = r * r * theta - A * Lm
    h = math.hypot(Li, Lm)
    Q2 = (r - h) * (r + h)
    Q = np.sqrt(Q2)
    W = np.sqrt((r - Li) * (r + Li))
    WQ = W + Q
    psi, phi, gam = np.arctan2(Lm, Q), np.arctan2(Q, Lm), np.arctan2(Q, Li)
    DA = Lm * Lm / (r + A)  # r (1 - a)
    DL = Q2 / (A + Li)  # r (a - c_i)
    # [c_i, a]: int arcsin(c_m / w), its z-moment, int (w - q), its z-moment
    K = r * np.arctan2(Lm * Li, r * Q) - math.pi * Lm * Lm / (2.0 * (r + A)) + Lm * gam - Li * psi
    Kz = 0.5 * (Q2 * psi - Lm * Lm * phi + Lm * Q)
    J = 0.5 * (Lm * Lm * (gam - Li / WQ) - m1 + r * r * np.arctan2(Li * Lm * Lm / WQ, Q * W + Li * Li))
    Jz = Lm * Lm * ((W * W + W * Q + Q2) / WQ - Lm) / 3.0
    # [a, 1]: the cap u_i > a, shifted from (a - z) to (c_i - z) by DL times the slice integral
    int_f = 0.5 * math.pi * Lm * Lk * DA - 0.5 * (Lm + Lk) * m1 + DA * DA * (2.0 * r + A) / 6.0
    return (
        Lm * Lk * (Li * K - Kz)
        - Lk * (Li * J - Jz)
        + 0.25 * (Lm * DL) ** 2
        + _cap(r, A, Lm, Lk, DA, Lm, m1)
        - DL * int_f
    )


def _pair_cap(r, Li, Lj, Lk):
    """Pair cap u_i > c_i, u_j > c_j, for r > hypot(Li, Lj): z = u_i in
    [c_i, a], a = sqrt(1 - c_j^2), azimuth from the j axis up to arccos(c_j / w)."""
    h = math.hypot(Li, Lj)
    Q2 = (r - h) * (r + h)
    Q = np.sqrt(Q2)
    W = np.sqrt((r - Li) * (r + Li))
    A = np.sqrt((r - Lj) * (r + Lj))
    phi, gam = np.arctan2(Q, Lj), np.arctan2(Q, Li)
    # arcsin(a) - arcsin(c_i)
    beta = np.arctan2(r * r * Q2, (A * W + Li * Lj) * (Lj * W + A * Li))
    DL = Q2 / (A + Li)
    return (
        Li * Lj * Lk * (r * np.arctan2(r * Q, Li * Lj) - Li * phi - Lj * gam)
        - 0.5 * Lj * Lk * (W * W * phi - Lj * Q)
        - 0.5 * Lk * Li * (A * A * gam - Li * Q)
        + Lk * Q2 * Q / 3.0
        - 0.5 * Lj * Li * ((Lj - Li) * (Lj + Li) * Q2 / (A * Lj + Li * W) + r * r * beta)
        + Lj * Q2 / (W + Lj) * (W * W + W * Lj + Lj * Lj) / 3.0
        - 0.5 * (Lj * DL) ** 2
        - DL**3 * (2.0 * (A + Li) + DL) / 24.0
    )


def _box_deficit_d3(rho, L1, L2, L3):
    """A_3 |Omega| - ghat(rho) for a 3-D box and 0 <= rho < ell, in closed form.

    ghat = 8 int P dsigma over the part of the positive octant of S^2 where
    every factor of P(u) = prod (L_i - rho u_i) is nonnegative.  For
    rho <= min(L) that is the whole octant, and term by term
        ghat = 4 pi L1 L2 L3 - 2 pi rho (L1 L2 + L1 L3 + L2 L3)
               + (8/3) rho^2 (L1 + L2 + L3) - rho^3,
    whose linear coefficient is pi Per; the complement is the cubic without
    its constant.  Above the shortest side Lm (sides sorted Lm <= Lj <= Lk),
    inclusion-exclusion from the slab u_m <= c_m: minus the cap u_j > c_j and
    the cap u_k > c_k, each taken inside the slab once rho passes its diagonal
    with Lm, plus the pair cap of j and k above hypot(Lj, Lk); three caps never
    meet below the diagonal ell, where ghat vanishes.  Each piece integrates in
    elementary functions, and each is small where the next kink makes it
    appear, so the sum keeps its digits up to the diagonal (within 5e-15
    ghat(0) of a 30-digit reference for sides in [0.2, 5]^3), and the
    complement A_3 |Omega| - ghat there loses nothing.
    """
    ell2 = L1 * L1 + L2 * L2 + L3 * L3
    if not np.finfo(float).tiny <= ell2 * ell2 < math.inf:
        raise QuadratureError(f"3-D box ghat leaves double range: its caps are of order ell^4={ell2 * ell2:.3g}")
    rho = np.asarray(rho, dtype=float)
    c1 = 2.0 * math.pi * (L1 * L2 + L1 * L3 + L2 * L3)
    c2 = 8.0 / 3.0 * (L1 + L2 + L3)
    out = np.asarray(rho * (c1 - rho * (c2 - rho)))
    Lm, Lj, Lk = sorted((L1, L2, L3))
    far = rho > Lm
    if far.any():
        r = rho[far]
        A = np.sqrt((r - Lm) * (r + Lm))
        theta = np.arctan2(Lm, A)
        acc = _slab(r, Lm, Lj, Lk, A, theta)
        for Li, Lo in ((Lj, Lk), (Lk, Lj)):
            h = math.hypot(Li, Lm)
            whole = (r > Li) & (r <= h)  # the cap lies inside the slab
            if whole.any():
                rw = r[whole]
                D = rw - Li
                W = np.sqrt(D * (rw + Li))
                acc[whole] -= _cap(rw, Li, Lm, Lo, D, W, rw * rw * np.arctan2(W, Li) - Li * W)
            cut = r > h
            if cut.any():
                acc[cut] -= _slab_cap(r[cut], Li, Lm, Lo, A[cut], theta[cut])
        pair = r > math.hypot(Lj, Lk)
        if pair.any():
            acc[pair] += _pair_cap(r[pair], Lj, Lk, Lm)
        # A_3 |Omega| with the bits of A_3 * volume(Box)
        out[far] = unit_sphere_area(3) * (L1 * L2 * L3) - 8.0 * acc / r
    return out


# spherical rules of perimeter_via_directional: circle nodes (d = 2; a
# sixteenth of them per azimuth ring for d = 3) and Gauss nodes in cos(theta)
# per hemisphere (d = 3)
_N_PHI = 4096
_N_POLAR = 48


@dataclass(frozen=True)
class CovarianceProfile:
    """Spherical average ghat(rho) = int_{S^{d-1}} g(rho u) dH(u).

    The primitive is the complement ``ghat_deficit`` = A_d |Omega| - ghat, in
    closed form without cancellation (w_{d-1} Per rho as rho -> 0), and
    ``ghat`` is A_d |Omega| minus it (``angular_method`` is always
    "exact-radial"); ghat vanishes at and beyond ``support_radius``.  Profiles
    exist for balls and for boxes in d = 2, 3 only; ``radial_profile`` raises
    ``UnsupportedShapeError`` for an ``Indicator``, whose covariance is
    estimated, with a stderr, by ``covariance_mc``.
    """

    support_radius: float
    volume: float
    angular_method: str
    d: int
    kink_radii: tuple = ()  # radii where ghat loses smoothness (box corners)
    _evaluator: callable = field(default=None, repr=False, compare=False)

    def ghat_deficit(self, rho):
        """A_d |Omega| - ghat(rho), in [0, A_d |Omega|]; all of it beyond the support."""
        arr = _radii(rho)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        full = unit_sphere_area(self.d) * self.volume
        out = np.full_like(arr, full)
        inside = arr < self.support_radius
        if inside.any():
            out[inside] = np.clip(self._evaluator(arr[inside]), 0.0, full)
        return float(out[0]) if scalar else out

    def ghat(self, rho):
        return unit_sphere_area(self.d) * self.volume - self.ghat_deficit(rho)


def radial_profile(shape):
    """Wrap the complement evaluator of ghat, supported on [0, diameter(shape)).

    Ball: exact radial symmetry, ``_lens_deficit``.  Box: closed form, from the
    azimuthal integral for d=2 and from octant cap integrals for d=3 (a
    polynomial for rho <= min(L)).  Indicator: raises ``UnsupportedShapeError``.
    """
    d = shape.d
    if isinstance(shape, Ball):
        R, scale = shape.radius, unit_sphere_area(d) * shape.radius**d
        evaluator = lambda r: scale * _lens_deficit(d, r / R)
    elif isinstance(shape, Box) and d in (2, 3):
        complement = _box_deficit_d2 if d == 2 else _box_deficit_d3
        evaluator = lambda r: complement(r, *shape.sides)
    elif isinstance(shape, Box):
        raise UnsupportedShapeError("box profiles implemented for d in {2, 3}")
    else:
        raise UnsupportedShapeError(
            "no closed-form ghat for Indicator shapes; covariance_mc estimates g with a stderr"
        )

    ell = diameter(shape)
    kinks = tuple(sorted(b for b in _profile_breakpoints(shape) if 0.0 < b < ell))
    return CovarianceProfile(
        support_radius=ell,
        volume=volume(shape),
        angular_method="exact-radial",
        d=d,
        kink_radii=kinks,
        _evaluator=evaluator,
    )


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


def directional_variation(shape, u):
    """V_u(Omega) = 2 lim_{r->0+} (g(0) - g(r u)) / r via Richardson-style
    extrapolation over h = ell * geomspace(1e-2, 1e-6, 5)."""
    u = np.asarray(u, dtype=float)
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    if not isinstance(shape, (Ball, Box)):
        raise UnsupportedShapeError(
            "directional variation needs the closed-form covariance of Ball/Box"
        )
    h_grid = diameter(shape) * np.geomspace(1e-2, 1e-6, 5)
    val, quotients = _variation_batch(shape, u[None, :], h_grid)
    q = quotients[0]
    # the quotient should settle monotonically; wild non-monotonicity signals
    # cancellation in g(0) - g(hu)
    dq = np.abs(np.diff(q))
    if dq.size >= 2 and dq[-1] > 10.0 * (dq[0] + 1e-14) and dq[-1] > 1e-6 * abs(val[0]):
        warnings.warn("difference quotients are not settling; result may be noisy")
    return float(val[0])


def perimeter_via_directional(shape):
    """Per(Omega) = (1 / 2 w_{d-1}) int_{S^{d-1}} V_u(Omega) dH(u)."""
    if not isinstance(shape, (Ball, Box)):
        raise UnsupportedShapeError(
            "the perimeter identity needs the closed-form covariance of Ball/Box"
        )
    d = shape.d
    h_grid = diameter(shape) * np.geomspace(1e-2, 1e-6, 5)
    if d == 2:
        n = _N_PHI
        phi = 2.0 * math.pi * np.arange(n) / n
        U = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        vals, _ = _variation_batch(shape, U, h_grid)
        integral = 2.0 * math.pi * float(vals.mean())
    elif d == 3:
        # product rule: Gauss in t = cos(theta) per hemisphere (|t| kink at 0),
        # uniform trapezoid in phi (nodes sit on the |cos|,|sin| kinks)
        nt = _N_POLAR
        t_nodes, t_w = np.polynomial.legendre.leggauss(nt)
        integral = 0.0
        nphi = max(64, _N_PHI // 16)
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


def alpha_perimeter(shape, alpha, cfg=None):
    """P_alpha(Omega) = int_0^inf rho^{-1-alpha} (A_d |Omega| - ghat(rho)) drho.

    Finite exactly when alpha in (0,1) for sets of finite perimeter.
    Composite Gauss-Kronrod (G16/K33) integrates ``ghat_deficit`` on panels
    graded toward 0, each kink and ell, at the first level whose Kronrod-Gauss
    error settles (``kernel._refine``).  On the first panel [0, rho0], rho0 ~
    1e-16 of the first break, the integral is the exact w_{d-1} Per
    rho0^{1-alpha} / (1 - alpha) of the leading term; beyond ell,
    A_d |Omega| ell^{-alpha} / alpha.
    """
    alpha = _perimeter_index(alpha)
    cfg = cfg or _DEFAULT_CFG
    profile = radial_profile(shape)
    ell = profile.support_radius
    slope = unit_ball_volume(shape.d - 1) * perimeter(shape)
    tail = unit_sphere_area(shape.d) * profile.volume * ell ** (-alpha) / alpha
    breaks = np.array([0.0, *profile.kink_radii, ell])

    def level_values(level, todo):
        edges = _graded_edges(breaks, level)
        body, err = _gk_panels(edges[1:-1], edges[2:], lambda rho, _: rho ** (-1.0 - alpha) * profile.ghat_deficit(rho))
        return [(slope * edges[1] ** (1.0 - alpha) / (1.0 - alpha) + float(body.sum()) + tail, float(err.sum()))]

    with np.errstate(over="raise", divide="raise"):  # rho^(-1-alpha) past double range
        return float(_refine(level_values, 1, cfg, lambda _: "alpha-perimeter quadrature")[0][0])


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
