"""Row-wise reference for the Monte Carlo estimators: ``covariance_mc`` and
``oracle.mc_heat_content`` as they were before their batches were drawn into
reused buffers and worked on column by column, and ``oracle.mc_alpha_perimeter``
as it was before it drew into reused buffers and formed its chords in
sub-blocks.

Every batch here is allocated afresh, membership is tested on whole rows
(``einsum`` for a ball, ``np.all`` for a box), distances come from
``np.linalg.norm`` over the accepted rows and chords are formed for a whole
batch at once.  The estimators in ``heatlab`` must return exactly the same
bits; the tests compare them with ``==``.
"""

import math

import numpy as np

from heatlab.errors import SamplingEfficiencyError, UnsupportedShapeError, _check_time, _perimeter_index, _sample_count
from heatlab.geometry import Ball, Box, _batches, _bounding_box
from heatlab.kernel import eval_pt, unit_ball_volume, unit_sphere_area
from heatlab.oracle import _MIN_EFFICIENCY, McEstimate, _finalize


def membership_rows(shape):
    if isinstance(shape, Ball):
        R2 = shape.radius**2
        return lambda x: np.einsum("ij,ij->i", x, x) <= R2
    if isinstance(shape, Box):
        half = np.asarray(shape.sides, dtype=float) / 2.0
        return lambda x: np.all(np.abs(x) <= half[None, :], axis=-1)
    return shape.contains


def covariance_mc_rows(shape, y, samples=2**20, seed=0):
    """Monte Carlo |Omega ∩ (Omega + y)|: uniform x in the bounding box,
    average 1(x in Omega) 1(x - y in Omega), scaled by the box volume.
    Returns (estimate, stderr)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    y = np.asarray(y, dtype=float)
    if np.isnan(y).any():  # +-inf is valid and gives 0
        raise ValueError("displacement must not be NaN")
    lo, hi = _bounding_box(shape)
    member = membership_rows(shape)
    box_vol = float(np.prod(hi - lo))
    hits = 0
    for start, stop, rng in _batches(int(samples), seed):
        x = lo + (hi - lo) * rng.random((stop - start, len(lo)))
        hits += int(np.count_nonzero(member(x) & member(x - y[None, :])))
    p = hits / samples
    return box_vol * p, box_vol * math.sqrt(max(p * (1.0 - p), 0.0) / samples)


def mc_heat_content_rows(shape, cases, samples=2**20, seed=0):
    """Pair estimates of H(t) = V_box^2 * mean( 1_O(x) 1_O(y) p_t(x - y) ),
    one McEstimate per ``(spec, t)`` case."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    cases = list(cases)
    for spec, t in cases:
        _check_time(t)
        if spec.d != shape.d:
            raise ValueError("kernel and shape dimensions differ")
    lo, hi = _bounding_box(shape)
    member = membership_rows(shape)
    box_vol = float(np.prod(hi - lo))
    scale = box_vol * box_vol
    totals = [0.0] * len(cases)
    totals_sq = [0.0] * len(cases)
    accepted = 0
    samples = int(samples)
    first_batch = None
    for start, stop, rng in _batches(samples, seed):
        n = stop - start
        x = lo + (hi - lo) * rng.random((n, len(lo)))
        y = lo + (hi - lo) * rng.random((n, len(lo)))
        inside = member(x) & member(y)
        any_inside = bool(np.any(inside))
        if any_inside:
            r = np.linalg.norm(x[inside] - y[inside], axis=1)
        for i, (spec, t) in enumerate(cases):
            vals = np.zeros(n)
            if any_inside:
                vals[inside] = scale * eval_pt(spec, t, r)
            totals[i] += float(vals.sum())
            totals_sq[i] += float((vals * vals).sum())
        accepted += int(np.count_nonzero(inside))
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


def _perp_points(u, rng, n, d):
    """Uniform points on the radius-1 disk (segment for d=2) of u-perp."""
    if d == 2:
        perp = np.stack([-u[:, 1], u[:, 0]], axis=1)
        s = 2.0 * rng.random(n) - 1.0
        return s[:, None] * perp, np.abs(s)
    # d == 3: per-sample orthonormal frame via the least-aligned axis
    e = np.zeros((n, 3))
    e[np.arange(n), np.argmin(np.abs(u), axis=1)] = 1.0
    b1 = np.cross(u, e)
    b1 /= np.linalg.norm(b1, axis=1, keepdims=True)
    b2 = np.cross(u, b1)
    rad = np.sqrt(rng.random(n))
    phi = 2.0 * math.pi * rng.random(n)
    w = rad[:, None] * (np.cos(phi)[:, None] * b1 + np.sin(phi)[:, None] * b2)
    return w, rad


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


def mc_alpha_perimeter_rows(shape, alpha, samples=2**20, seed=0) -> McEstimate:
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
    """
    alpha, samples = _perimeter_index(alpha), _sample_count(samples)
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
    for start, stop, rng in _batches(samples, seed):
        n = stop - start
        u = rng.standard_normal((n, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        w_unit, _ = _perp_points(u, rng, n, d)
        q = T * w_unit
        L = _chord_lengths(shape, q, u)
        vals = pref * np.where(L > 0.0, L ** (1.0 - alpha), 0.0)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    return _finalize(total, total_sq, samples, seed)
