"""Row-wise reference for the Monte Carlo estimators: ``covariance_mc`` and
``oracle.mc_heat_content`` as they were before their batches were drawn into
reused buffers and worked on column by column.

Every batch here is allocated afresh, membership is tested on whole rows
(``einsum`` for a ball, ``np.all`` for a box) and distances come from
``np.linalg.norm`` over the accepted rows.  The estimators in ``heatlab``
must return exactly the same bits; the tests compare them with ``==``.
"""

import math

import numpy as np

from heatlab.errors import SamplingEfficiencyError, _check_time
from heatlab.geometry import Ball, Box, _batches, _bounding_box
from heatlab.kernel import eval_pt
from heatlab.oracle import _MIN_EFFICIENCY, _finalize


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
