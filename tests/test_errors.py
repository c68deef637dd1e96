"""The validation layer: every public entry point checks its dimension,
stable index, sample count and sizes through the helpers of heatlab.errors,
and so accepts and rejects the same values with the same message."""

import math
import re

import numpy as np
import pytest

from heatlab.acceptance import run_battery
from heatlab.content import AsymptoticReport
from heatlab.errors import RegimeError, _t_grid
from heatlab.geometry import Ball, Box, Indicator, covariance_ball, covariance_mc, theta, volume
from heatlab.kernel import (
    KernelSpec,
    poisson_constant,
    stable_tail_constant,
    unit_ball_volume,
    unit_sphere_area,
)
from heatlab.oracle import McEstimate, mc_alpha_perimeter, mc_heat_content
from heatlab.stable import StableDensity, density

_SQUARE = dict(contains=lambda x: np.ones(len(x), dtype=bool), bbox_lo=(0.0, 0.0), bbox_hi=(1.0, 1.0))

# (entry point of d, attribute holding d or None)
_BY_DIMENSION = {
    "KernelSpec.gaussian": (KernelSpec.gaussian, "d"),
    "KernelSpec.poisson": (KernelSpec.poisson, "d"),
    "KernelSpec.stable": (lambda d: KernelSpec.stable(1.5, d), "d"),
    "KernelSpec.poly_family": (lambda d: KernelSpec.poly_family(d, 0.1, 2.0, (d + 1) / 2, -d, 1.0), "d"),
    "StableDensity": (lambda d: StableDensity(1.5, d), "d"),
    "density": (lambda d: density(1.5, d), "d"),
    "Ball": (lambda d: Ball(1.0, d), "d"),
    "Indicator": (lambda d: Indicator(d=d, **_SQUARE) if d == 2 else Indicator(d=d, contains=None,
                  bbox_lo=(0.0,) * 3, bbox_hi=(1.0,) * 3), "d"),
    "theta": (lambda d: theta(d, 0.5), None),
    "poisson_constant": (poisson_constant, None),
    "stable_tail_constant": (lambda d: stable_tail_constant(0.5, d), None),
    "unit_ball_volume": (unit_ball_volume, None),
    "unit_sphere_area": (unit_sphere_area, None),
}


@pytest.mark.parametrize("name", sorted(_BY_DIMENSION))
def test_dimension_is_an_integer_everywhere(name):
    call, attr = _BY_DIMENSION[name]
    for d in (2.5, 2.7, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"dimension d must be an integer >= [12], got {d}"):
            call(d)
    # an integral float or NumPy integer is the integer itself
    for d in (2.0, np.int64(3)):
        value = call(d)
        if attr is None:
            assert value == call(int(d))
        else:
            assert getattr(value, attr) == int(d) and type(getattr(value, attr)) is int


def test_unit_ball_and_sphere_take_d_minus_one():
    assert unit_ball_volume(1) == 2.0 and unit_sphere_area(1) == 2.0
    with pytest.raises(ValueError, match="dimension d must be an integer >= 1, got 0"):
        unit_sphere_area(0)


@pytest.mark.parametrize(
    "call",
    [lambda a: StableDensity(a, 2), lambda a: density(a, 2), lambda a: stable_tail_constant(a, 2)],
    ids=["StableDensity", "density", "stable_tail_constant"],
)
@pytest.mark.parametrize("alpha", [0.0, 2.0, -1.0, math.nan, math.inf])
def test_stable_index_is_checked_with_the_message_of_kernel_spec(call, alpha):
    message = f"stable index alpha={alpha} outside (0, 2); use the gaussian family for alpha=2"
    with pytest.raises(RegimeError) as info:
        call(alpha)
    assert str(info.value) == message


_BALL = Ball(1.0, 2)
_GAUSSIAN = [(KernelSpec.gaussian(2), 0.1)]


@pytest.mark.parametrize(
    "call",
    [
        lambda n: covariance_mc(_BALL, np.zeros(2), samples=n),
        lambda n: mc_heat_content(_BALL, _GAUSSIAN, samples=n),
        lambda n: mc_alpha_perimeter(_BALL, 0.5, samples=n),
        lambda n: McEstimate(value=1.0, stderr=0.0, samples=n, seed=0),
    ],
    ids=["covariance_mc", "mc_heat_content", "mc_alpha_perimeter", "McEstimate"],
)
def test_sample_count_is_an_integer(call):
    # 2.5 samples once drew 2 points and divided their hits by 2.5
    for n in (2.5, 0.5, 0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"samples must be an integer >= 1, got {n}"):
            call(n)
    assert call(64.0) == call(64)


_SEEDED = {
    "covariance_mc": lambda s: covariance_mc(_BALL, np.zeros(2), samples=64, seed=s),
    "mc_heat_content": lambda s: mc_heat_content(_BALL, _GAUSSIAN, samples=64, seed=s),
    "mc_alpha_perimeter": lambda s: mc_alpha_perimeter(_BALL, 0.5, samples=64, seed=s),
    "run_battery": lambda s: run_battery(seed=s),
}


@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_seed_is_a_philox_key_word(name):
    # -3 keyed the stream as 2**64 - 3 (run_battery failed in numpy's seeding)
    # and 2.5 ran as seed 2
    call = _SEEDED[name]
    for seed in (-3, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed}"):
            call(seed)
    with pytest.raises(ValueError, match=re.escape(f"seed must be < 2**63, got {2**63}")):
        call(2**63)
    if name != "run_battery":  # a whole battery is too slow here
        assert call(7.0) == call(np.int64(7)) == call(7)
        call(2**63 - 1)  # no double holds it, yet it is an integer


@pytest.mark.parametrize(
    "make, shown",
    [
        (lambda: Ball(1e200, 2), "Ball(radius=1e+200, d=2)"),  # radius**d overflows
        (lambda: Ball(1e-300, 2), "Ball(radius=1e-300, d=2)"),  # the volume underflows to 0
        (lambda: Ball(10**61.5, 5), "Ball(radius=3.162277660168379e+61, d=5)"),  # A_d |Omega| overflows
        (lambda: Box((1e-200, 1e-200)), "Box(sides=(1e-200, 1e-200))"),
        (lambda: Box((1e200, 1e200)), "Box(sides=(1e+200, 1e+200))"),
    ],
)
def test_shape_measures_are_positive_and_finite(make, shown):
    with pytest.raises(ValueError, match=f"volume, perimeter, diameter and A_d volume of {re.escape(shown)}"):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Ball(1e-160, 2), "volume of Ball(radius=1e-160, d=2) is 3.14e-320, subnormal"),
        (lambda: Box((1e-160, 1e-160, 1.0)), "volume of Box(sides=(1e-160, 1e-160, 1.0)) is 1e-320, subnormal"),
    ],
)
def test_shape_measures_are_normal_doubles(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_shape_measures_just_above_the_normal_floor_are_kept():
    # volume pi 1e-300 and 1e-300: above the least normal double, 2.2e-308
    assert volume(Ball(1e-150, 2)) == math.pi * 1e-300
    assert volume(Box((1e-150, 1e-150, 1.0))) == 1e-300


def test_sizes_are_positive_and_finite():
    with pytest.raises(ValueError, match="ball radius must be positive and finite, got inf"):
        covariance_ball(2, math.inf, 1.0)
    with pytest.raises(ValueError, match=r"bounding box extent must be positive and finite, got \(inf, 1.0\)"):
        Indicator(d=2, contains=None, bbox_lo=(-1e308, 0.0), bbox_hi=(1e308, 1.0))
    with pytest.raises(ValueError, match="declared volume must be positive and finite, got nan"):
        Indicator(d=2, **_SQUARE, volume=math.nan)


@pytest.mark.parametrize(
    "grid, least, message",
    [
        ((0.1, 0.01), 3, "t_grid must be strictly decreasing with >= 3 entries, got (0.1, 0.01)"),
        ((0.01, 0.01), 1, "t_grid must be strictly decreasing with >= 1 entries, got (0.01, 0.01)"),
        ((1e-5, 1e-3, 0.1), 1, "t_grid must be strictly decreasing with >= 1 entries, got (1e-05, 0.001, 0.1)"),
        ((), 1, "t_grid must be strictly decreasing with >= 1 entries, got ()"),
        ((0.1, math.nan, 0.01), 3, "t must be positive, got nan"),
        ((math.inf, 0.1), 2, "t must be finite, got inf"),
        ((0.1, 0.0), 1, "t must be positive, got 0.0"),
    ],
)
def test_t_grid_is_checked_entry_by_entry_then_as_a_decreasing_grid(grid, least, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _t_grid(grid, least)


def test_t_grid_returns_floats_and_guards_the_sweep_report():
    assert _t_grid(np.array([0.1, 0.01]), 2) == (0.1, 0.01)
    assert _t_grid([1, 0.5], 1) == (1.0, 0.5)
    report = dict(regime="gaussian", scaled_deficits=(1.0, 1.0), extrapolated_limit=1.0,
                  theoretical_constant=1.0, rel_error_at_smallest_t=0.0)
    AsymptoticReport(t_grid=(0.1, 0.01), **report)
    with pytest.raises(ValueError, match="t must be positive, got nan"):
        AsymptoticReport(t_grid=(0.1, math.nan), **report)
