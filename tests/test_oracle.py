"""Monte Carlo oracles: independent estimates of heat content and P_alpha."""

import math

import numpy as np
import pytest

from heatlab.content import heat_content
from heatlab import oracle
from heatlab.errors import RegimeError, SamplingEfficiencyError, UnsupportedShapeError
from heatlab.geometry import (
    Ball,
    Box,
    Indicator,
    _batches,
    _bounding_box,
    _membership,
    alpha_perimeter,
    radial_profile,
    volume,
)
from heatlab.kernel import KernelSpec, eval_pt
from heatlab.oracle import McEstimate, mc_alpha_perimeter, mc_heat_content

BALL = Ball(1.0, 2)


def _reference_pair_estimate(spec, shape, t, samples, seed):
    """The single-case pair loop: one stream per (spec, t), drawn afresh."""
    lo, hi = _bounding_box(shape)
    member = _membership(shape)
    box_vol = float(np.prod(hi - lo))
    scale = box_vol * box_vol
    total = 0.0
    total_sq = 0.0
    for start, stop, rng in _batches(samples, seed):
        n = stop - start
        x = lo + (hi - lo) * rng.random((n, len(lo)))
        y = lo + (hi - lo) * rng.random((n, len(lo)))
        inside = member(x) & member(y)
        vals = np.zeros(n)
        if np.any(inside):
            r = np.linalg.norm(x[inside] - y[inside], axis=1)
            vals[inside] = scale * eval_pt(spec, t, r)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    mean = total / samples
    err = math.sqrt(max(total_sq / samples - mean * mean, 0.0) / (samples - 1))
    return McEstimate(value=float(mean), stderr=float(err), samples=samples, seed=seed)


def test_estimate_validation():
    with pytest.raises(ValueError):
        McEstimate(value=1.0, stderr=-0.1, samples=10, seed=0)
    with pytest.raises(ValueError):
        McEstimate(value=1.0, stderr=0.1, samples=0, seed=0)


def test_heat_content_estimate_matches_quadrature():
    spec = KernelSpec.poisson(2)
    t = 0.1
    est, = mc_heat_content(BALL, [(spec, t)], samples=2**18, seed=3)
    ref = heat_content(spec, radial_profile(BALL), t)
    z = abs(est.value - ref.H) / est.stderr
    assert z < 4.0
    assert est.samples == 2**18 and est.seed == 3


def test_heat_content_estimate_reproducible():
    spec = KernelSpec.gaussian(2)
    a, = mc_heat_content(BALL, [(spec, 0.5)], samples=2**17, seed=9)
    b, = mc_heat_content(BALL, [(spec, 0.5)], samples=2**17, seed=9)
    c, = mc_heat_content(BALL, [(spec, 0.5)], samples=2**17, seed=10)
    assert (a.value, a.stderr) == (b.value, b.stderr)
    assert c.value != a.value


def test_flat_kernel_calibration():
    # at t = 1e6 the Gaussian is flat on the disc: 4 pi t p_t(r) = e^{-r^2/4t}
    # lies in [1 - 1e-6, 1], so 4 pi t H(t) = pi^2 (1 + O(1e-6)) = |Omega|^2;
    # the stderr must shrink like samples^{-1/2} since the indicator
    # randomness stays inside the average
    t = 1e6
    ns = [2**14, 2**16, 2**18]
    ests = [
        mc_heat_content(BALL, [(KernelSpec.gaussian(2), t)], samples=n, seed=21)[0] for n in ns
    ]
    norm = 4.0 * math.pi * t
    for est in ests:
        assert abs(norm * est.value - math.pi**2) <= 4.0 * norm * est.stderr
    slope = np.polyfit(np.log(ns), np.log([e.stderr for e in ests]), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.1)


_MIXED_CASES = [
    (spec, t)
    for t in (0.1, 0.01)
    for spec in (
        KernelSpec.gaussian(2),
        KernelSpec.poisson(2),
        KernelSpec.stable(1.0, 2),
        KernelSpec.stable(1.5, 2),
    )
]


@pytest.mark.parametrize("shape", [Ball(1.0, 2), Box((1.0, 1.0))])
def test_shared_stream_matches_single_case_reference(shape):
    # two batches, the last one partial: every case's sums must come out
    # bit-identical to a loop that draws its own stream
    samples = 2**18 + 5
    ests = mc_heat_content(shape, _MIXED_CASES, samples=samples, seed=4)
    assert len(ests) == len(_MIXED_CASES)
    for (spec, t), est in zip(_MIXED_CASES, ests):
        ref = _reference_pair_estimate(spec, shape, t, samples, 4)
        assert est.value == ref.value
        assert est.stderr == ref.stderr
        assert est.samples == ref.samples
        assert est.seed == ref.seed


def test_case_order_only_permutes_estimates():
    cases = _MIXED_CASES[:4]
    forward = mc_heat_content(BALL, cases, samples=2**14, seed=5)
    backward = mc_heat_content(BALL, cases[::-1], samples=2**14, seed=5)
    assert forward == backward[::-1]


@pytest.mark.parametrize(
    "bad, message",
    [
        ((KernelSpec.poisson(2), 0.0), "t must be positive, got 0.0"),
        ((KernelSpec.poisson(2), math.nan), "t must be positive, got nan"),
        ((KernelSpec.poisson(3), 0.1), "dimensions differ"),
        ((KernelSpec.poisson(2), math.inf), "t must be finite, got inf"),
    ],
)
def test_invalid_case_raises_before_sampling(bad, message, monkeypatch):
    def no_draws(*_args):
        raise AssertionError("pairs drawn before every case was validated")

    monkeypatch.setattr(oracle, "_batches", no_draws)
    with pytest.raises(ValueError, match=message):
        mc_heat_content(BALL, [(KernelSpec.gaussian(2), 0.1), bad], samples=2**10, seed=0)


def test_rejection_efficiency_guard():
    # a tiny set in a huge declared bounding box: pair acceptance collapses
    # and the estimator must refuse rather than return garbage
    needle = Indicator(
        d=2,
        contains=lambda x: np.sum(x * x, axis=-1) <= 0.25,
        bbox_lo=(-50.0, -50.0),
        bbox_hi=(50.0, 50.0),
        volume=math.pi * 0.25,
    )
    with pytest.raises(SamplingEfficiencyError):
        mc_heat_content(needle, [(KernelSpec.poisson(2), 0.1)], samples=2**20, seed=0)


@pytest.mark.parametrize(
    "shape",
    [Ball(1.0, 2), Box((1.0, 1.0)), Ball(1.0, 3), Box((1.0, 2.0, 3.0))],
)
def test_alpha_perimeter_estimate_matches_quadrature(shape):
    est = mc_alpha_perimeter(shape, 0.5, samples=2**17, seed=1)
    ref = alpha_perimeter(shape, 0.5)
    z = abs(est.value - ref) / est.stderr
    assert z < 4.0


def test_alpha_perimeter_estimate_reproducible():
    a = mc_alpha_perimeter(BALL, 0.5, samples=2**16, seed=2)
    b = mc_alpha_perimeter(BALL, 0.5, samples=2**16, seed=2)
    assert (a.value, a.stderr) == (b.value, b.stderr)


def test_alpha_perimeter_estimate_whose_squares_overflow_raises():
    # per-line values reach A_d w_{d-1} T^{d-1} (2T)^{1-alpha} / (alpha (1-alpha)) ~ 3e154
    with pytest.raises(FloatingPointError, match="1 squared chord values up to 2.85e\\+154 overflow their sum"):
        mc_alpha_perimeter(Ball(1e55, 3), 0.25, samples=1, seed=1)
    est = mc_alpha_perimeter(Ball(1e50, 3), 0.25, samples=5, seed=1)
    assert math.isfinite(est.value) and math.isfinite(est.stderr)


def test_alpha_perimeter_estimator_domain():
    with pytest.raises(RegimeError):
        mc_alpha_perimeter(BALL, 1.3, samples=2**10, seed=0)
    with pytest.raises(UnsupportedShapeError):
        mc_alpha_perimeter(
            Indicator(
                d=2,
                contains=lambda x: np.sum(x * x, axis=-1) <= 1.0,
                bbox_lo=(-1.0, -1.0),
                bbox_hi=(1.0, 1.0),
                volume=math.pi,
            ),
            0.5,
            samples=2**10,
            seed=0,
        )


def test_seed_streams_are_comparable():
    # independent seeds should scatter consistently with the quoted stderr
    vals, errs = [], []
    for seed in range(6):
        est = mc_alpha_perimeter(BALL, 0.5, samples=2**14, seed=seed)
        vals.append(est.value)
        errs.append(est.stderr)
    spread = float(np.std(vals, ddof=1))
    quoted = float(np.mean(errs))
    assert 0.4 < spread / quoted < 2.5
