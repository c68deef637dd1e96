"""Brute-force Monte Carlo estimators, independent of the quadrature stack.

These share no evaluation route with the covariance/quadrature pipeline:
heat content is a plain pair average of the kernel over the bounding box,
and the alpha-perimeter integrates the exact chord-length power along
uniformly random lines.  Both use counter-based streams (Philox keyed by
(seed, batch)) with a fixed batch size and ordered reduction, so estimates
are bit-identical for a given (seed, samples, inputs).

The pair estimator draws one pair stream per call and returns one estimate
per (kernel, t) case evaluated on it.  A case's reduction reads only the
shared distances and its own kernel values, never another case's, so each
estimate is bit-identical to the one a call with that case alone returns.

Both estimators work through each batch in sub-blocks of ``_MC_BLOCK``
points, in buffers that outlive the call (``geometry._scratch``).  The pair
estimator reads a sub-block's x and y straight from the batch's stream: its
n points x come first in the stream and its y follow them, so y is read from
a copy of the generator moved n d doubles on (``geometry._ahead``), and no
batch-long x or y is ever held.  The chord estimator draws its batch of
normals whole (the ziggurat takes a varying number of words per normal, so
where the uniforms after them start is known only once they are drawn), then
reads the uniforms that follow one sub-block at a time: row 0 from the same
generator, row 1 (d = 3) from a copy of it n doubles ahead.  Distances,
kernel values and chords are formed one cache-sized sub-block at a time and
written into a batch-long array of values, whose sums run over the whole
zero-padded batch as before.  Every operation is elementwise or per point,
so the estimates keep the bits of the row-wise form that draws and allocates
every batch afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SamplingEfficiencyError, UnsupportedShapeError, _check_time, _perimeter_index, _sample_count, _seed
from .geometry import _MC_BLOCK, Ball, Box, _ahead, _batches, _bounding_box, _draw, _membership, _scratch
from .kernel import eval_pt, unit_ball_volume, unit_sphere_area

_MIN_EFFICIENCY = 1e-3


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo value with its standard error and provenance."""

    value: float
    stderr: float
    samples: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "samples", _sample_count(self.samples))
        if not self.stderr >= 0.0:
            raise ValueError(f"stderr must be >= 0, got {self.stderr}")


def _finalize(total, total_sq, samples, seed):
    mean = total / samples
    if samples > 1:
        # stderr of the mean: sqrt( (E[z^2] - mean^2) / (N - 1) )
        err = math.sqrt(max(total_sq / samples - mean * mean, 0.0) / (samples - 1))
    else:
        err = 0.0
    return McEstimate(value=float(mean), stderr=float(err), samples=samples, seed=seed)


def mc_heat_content(shape, cases, samples=2**20, seed=0) -> list[McEstimate]:
    """Pair estimates of H(t) = V_box^2 * mean( 1_O(x) 1_O(y) p_t(x - y) ).

    ``cases`` is a sequence of ``(spec, t)``; one McEstimate is returned per
    case, in order.  Each batch of pairs is drawn, tested for membership and
    turned into distances once, and every case then evaluates its own p_t on
    those distances.  A case's values and its two running sums go through
    the same operations in the same order as a call made with that case
    alone, so each estimate is bit-identical to it.  The cases share their
    draws (common random numbers), so the sampling cost is paid once.

    Equivalent to rejection-sampling x, y uniform in Omega and averaging
    p_t(x - y) times |Omega|^2, but keeping the rejection randomness inside
    the estimator so the stderr reflects it.  Every case is validated before
    any pair is drawn.  Raises when the bounding-box acceptance rate falls
    below 1e-3.
    """
    samples, seed = _sample_count(samples), _seed(seed)
    cases = list(cases)
    for spec, t in cases:
        _check_time(t)
        if spec.d != shape.d:
            raise ValueError("kernel and shape dimensions differ")
    lo, hi = _bounding_box(shape)
    width = hi - lo
    member = _membership(shape)
    box_vol = float(np.prod(width))
    scale = box_vol * box_vol
    totals = [0.0] * len(cases)
    totals_sq = [0.0] * len(cases)
    accepted = 0
    first_batch = None
    block, d = min(samples, _MC_BLOCK), len(lo)
    x, y = _scratch("x", (block, d)), _scratch("y", (block, d))
    inside_y = _scratch("in_y", (block,), bool)
    dist, step = _scratch("dist", (block,)), _scratch("step", (block,))
    # x takes the first n d doubles of a batch's stream and y the next n d
    for start, stop, rng in _batches(samples, seed):
        n = stop - start
        y_rng = _ahead(rng, n * d)
        # which pairs are in, and the distances of those that are, packed in
        # order: the only batch-long arrays besides the values
        inside, r = _scratch("in_x", (n,), bool), _scratch("r", (n,))
        m = 0
        for first in range(0, n, _MC_BLOCK):
            k = min(_MC_BLOCK, n - first)
            xb = _draw(rng, lo, width, x[:k])
            yb = _draw(y_rng, lo, width, y[:k])
            both = member(xb, inside[first : first + k])
            both &= member(yb, inside_y[:k])
            # gathers and scatters through an index array beat a random
            # boolean mask several times over
            hit = np.flatnonzero(both)
            # |x - y| with its squares added coordinate by coordinate, the
            # order in which np.linalg.norm sums a row of fewer than eight
            # coordinates, then gathered and rooted
            r2 = np.subtract(xb[:, 0], yb[:, 0], out=dist[:k])
            r2 *= r2
            for j in range(1, d):
                dj = np.subtract(xb[:, j], yb[:, j], out=step[:k])
                dj *= dj
                r2 += dj
            got = r[m : m + len(hit)]
            np.sqrt(np.take(r2, hit, out=got), out=got)
            m += len(hit)
        vals = _scratch("vals", (n,))
        for i, (spec, t) in enumerate(cases):
            vals.fill(0.0)
            at = 0
            for first in range(0, n, _MC_BLOCK):
                hit = np.flatnonzero(inside[first : first + _MC_BLOCK])
                if len(hit):
                    p = eval_pt(spec, t, r[at : at + len(hit)])
                    p *= scale
                    vals[first : first + _MC_BLOCK][hit] = p
                    at += len(hit)
            totals[i] += float(vals.sum())
            vals *= vals
            totals_sq[i] += float(vals.sum())
        accepted += m
        if first_batch is None:
            first_batch = (accepted, n)
            if n >= 4096 and accepted < n * _MIN_EFFICIENCY / 10.0:
                raise SamplingEfficiencyError(
                    f"bounding-box pair acceptance {accepted / n:.2e} after first batch"
                )
    if accepted < samples * _MIN_EFFICIENCY:
        raise SamplingEfficiencyError(
            f"bounding-box pair acceptance {accepted / samples:.2e} < {_MIN_EFFICIENCY:g}"
        )
    return [_finalize(s, sq, samples, seed) for s, sq in zip(totals, totals_sq)]


def _perp_points(u, uniforms):
    """Uniform points on the radius-1 disk of u-perp in R^3, from two uniforms
    per point, radius then angle: ``uniforms`` has shape (2, n).  A
    per-sample orthonormal frame comes from the least-aligned axis."""
    n = len(u)
    e = np.zeros((n, 3))
    e[np.arange(n), np.argmin(np.abs(u), axis=1)] = 1.0
    b1 = np.cross(u, e)
    b1 /= np.linalg.norm(b1, axis=1, keepdims=True)
    b2 = np.cross(u, b1)
    rad = np.sqrt(uniforms[0])
    phi = 2.0 * math.pi * uniforms[1]
    return rad[:, None] * (np.cos(phi)[:, None] * b1 + np.sin(phi)[:, None] * b2)


def _chord_lengths(shape, q, u):
    """Exact length of Omega intersected with the line {q + s u}."""
    if isinstance(shape, Ball):
        h2 = shape.radius**2 - np.einsum("ij,ij->i", q, q)
        return 2.0 * np.sqrt(np.maximum(h2, 0.0))
    if isinstance(shape, Box):
        half = np.asarray(shape.sides, dtype=float) / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (-half[None, :] - q) / u
            t2 = (half[None, :] - q) / u
        t_lo = np.minimum(t1, t2)
        t_hi = np.maximum(t1, t2)
        parallel = np.abs(u) < 1e-300
        if np.any(parallel):
            inside = np.abs(q) <= half[None, :]
            t_lo = np.where(parallel, np.where(inside, -np.inf, np.inf), t_lo)
            t_hi = np.where(parallel, np.where(inside, np.inf, -np.inf), t_hi)
        enter = t_lo.max(axis=1)
        exit_ = t_hi.min(axis=1)
        return np.maximum(exit_ - enter, 0.0)
    raise UnsupportedShapeError(f"chord lengths unavailable for {type(shape).__name__}")


def mc_alpha_perimeter(shape, alpha, samples=2**20, seed=0) -> McEstimate:
    """Monte Carlo alpha-perimeter via random lines and exact chord powers.

    Writing the pair integral over Omega x Omega^c in line coordinates, a
    convex body contributes L^{1-alpha} / (alpha(1-alpha)) per line of chord
    length L, so

        P_alpha = A_d * w_{d-1} T^{d-1} * E[ L^{1-alpha} ] / (alpha (1-alpha))

    with (u, w) a uniform direction and a uniform point on the radius-T disk
    of u-perp, T the circumradius.  The per-sample value is bounded by
    diam^{1-alpha}, so the variance is finite for every alpha in (0,1) --
    unlike naive pair sampling of |x-y|^{-d-alpha}, whose second moment
    diverges along the boundary.

    A batch draws its n directions whole into a reused buffer, then reads
    the uniforms that follow them and forms the chords and values one
    sub-block of ``_MC_BLOCK`` lines at a time.
    """
    alpha, samples, seed = _perimeter_index(alpha), _sample_count(samples), _seed(seed)
    if not isinstance(shape, (Ball, Box)):
        raise UnsupportedShapeError("line sampling needs a convex closed-form shape")
    d = shape.d
    if d not in (2, 3):
        raise UnsupportedShapeError("line sampling implemented for d in {2, 3}")
    lo, hi = _bounding_box(shape)
    T = float(np.sqrt(np.sum(np.maximum(lo**2, hi**2))))
    pref = unit_sphere_area(d) * unit_ball_volume(d - 1) * T ** (d - 1) / (alpha * (1.0 - alpha))
    peak = pref * (2.0 * T) ** (1.0 - alpha)  # a chord is at most 2T long
    if not peak * peak * samples < np.finfo(float).max:
        raise FloatingPointError(f"{samples} squared chord values up to {peak:.3g} overflow their sum")
    total = 0.0
    total_sq = 0.0
    uniforms = _scratch("y", (d - 1, min(samples, _MC_BLOCK)))
    for start, stop, rng in _batches(samples, seed):
        n = stop - start
        u = rng.standard_normal(out=_scratch("x", (n, d)))
        # uniform row 0 goes on from the normals; row 1 (d = 3) follows it
        rows = [rng] if d == 2 else [rng, _ahead(rng, n)]
        vals = _scratch("vals", (n,))
        for first in range(0, n, _MC_BLOCK):
            lines = slice(first, first + _MC_BLOCK)
            ub = u[lines]
            k = len(ub)
            for row, row_rng in zip(uniforms, rows):
                row_rng.random(out=row[:k])
            if d == 2:
                # |u| with its squares added column by column (np.linalg.norm's
                # order for a short row), then q = T s (-u_1, u_0), s = 2 uniform - 1,
                # in buffers that outlive the call (q in the pair distances')
                norm = np.multiply(ub[:, 0], ub[:, 0], out=_scratch("dist", (k,)))
                norm += np.multiply(ub[:, 1], ub[:, 1], out=_scratch("step", (k,)))
                np.sqrt(norm, out=norm)
                ub[:, 0] /= norm
                ub[:, 1] /= norm
                s = uniforms[0, :k]
                s *= 2.0
                s -= 1.0
                q = _scratch("r", (k, 2))
                np.multiply(ub[:, 1], s, out=q[:, 0])
                q[:, 0] *= -T
                np.multiply(ub[:, 0], s, out=q[:, 1])
                q[:, 1] *= T
            else:
                ub /= np.linalg.norm(ub, axis=1, keepdims=True)
                q = T * _perp_points(ub, uniforms[:, :k])
            L = _chord_lengths(shape, q, ub)
            vals[lines] = pref * np.where(L > 0.0, L ** (1.0 - alpha), 0.0)
        total += float(vals.sum())
        vals *= vals
        total_sq += float(vals.sum())
    return _finalize(total, total_sq, samples, seed)
