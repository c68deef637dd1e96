"""The buffered, column-wise Monte Carlo kernels return the bits of their
row-wise references, a repeated call allocates no batch-sized memory, and
malformed inputs to them raise."""

import math
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatlab import geometry
from heatlab.errors import SamplingEfficiencyError
from heatlab.geometry import Ball, Box, Indicator, _ahead, covariance, covariance_mc
from heatlab.kernel import KernelSpec
from heatlab.oracle import mc_alpha_perimeter, mc_heat_content
from heatlab.stable import _SERIES_BLOCK, _horner, density, series_eval
from mc_reference import covariance_mc_rows, mc_alpha_perimeter_rows, mc_heat_content_rows


def _ellipse(x):
    # off centre, so that g(y) != g(-y)
    return (x[:, 0] - 0.2) ** 2 + 4.0 * x[:, 1] ** 2 <= 1.0


ELLIPSE = Indicator(d=2, contains=_ellipse, bbox_lo=(-0.8, -0.5), bbox_hi=(1.2, 0.5))
SHAPES = [Ball(1.0, 2), Ball(0.8, 3), Box((1.0, 2.0)), Box((0.5, 1.0, 1.5)), ELLIPSE]
# one sample, a partial batch, whole batches, a single extra sample and 10^6
SAMPLES = [1, 1000, 2**17, 262144, 262145, 10**6]
_COORD = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([math.inf, -math.inf]))


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    samples=st.sampled_from(SAMPLES),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_covariance_mc_matches_row_reference(shape, samples, seed, data):
    y = np.array(data.draw(st.lists(_COORD, min_size=shape.d, max_size=shape.d)))
    assert covariance_mc(shape, y, samples, seed) == covariance_mc_rows(shape, y, samples, seed)


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=6, deadline=None)
@given(
    samples=st.sampled_from(SAMPLES),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(1e-3, 1.0),
)
def test_mc_heat_content_matches_row_reference(shape, samples, seed, t):
    # kernels steep in r at several times, so that a distance one ulp off
    # shows in the sums
    d = shape.d
    cases = [
        (KernelSpec.stable(1.5, d), t),
        (KernelSpec.stable(1.5, d), 1e-3 * t),
        (KernelSpec.stable(1.0, d), 0.1 * t),
        (KernelSpec.gaussian(d), 1e-2 * t),
        (KernelSpec.poisson(d), 1e-2 * t),
    ]
    try:
        ref = mc_heat_content_rows(shape, cases, samples, seed)
    except SamplingEfficiencyError as exc:  # e.g. no pair accepted in a single sample
        with pytest.raises(SamplingEfficiencyError, match=re.escape(str(exc))):
            mc_heat_content(shape, cases, samples, seed)
        return
    assert mc_heat_content(shape, cases, samples, seed) == ref


@pytest.mark.parametrize("shape", [Ball(1.0, 2), Ball(0.8, 3), Box((1.0, 2.0)), Box((0.5, 1.0, 1.5))])
@settings(max_examples=5, deadline=None)
@given(
    samples=st.sampled_from([1, 1000, 2**17, 262145, 10**6]),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.05, 0.95),
)
def test_mc_alpha_perimeter_matches_row_reference(shape, samples, seed, alpha):
    assert mc_alpha_perimeter(shape, alpha, samples, seed) == mc_alpha_perimeter_rows(shape, alpha, samples, seed)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    batch=st.integers(0, 2**20),
    n=st.integers(0, 500).map(lambda i: 2 * i + 1),
    d=st.sampled_from([2, 3]),
    data=st.data(),
)
def test_ahead_copies_a_generator_moved_on_by_any_count(seed, batch, n, d, data):
    count = data.draw(st.sampled_from([0, 1, 2, 3, 5, n * d]))
    size = 2 * n * d + 16
    whole = np.random.Generator(np.random.Philox(key=[seed, batch])).random(size)
    # from any position, as the chord estimator moves a copy of a generator
    # that has drawn normals on: the words left in the current Philox step first
    drawn = data.draw(st.integers(0, 9))
    rng = np.random.Generator(np.random.Philox(key=[seed, batch]))
    rng.random(drawn)
    ahead = _ahead(rng, count)
    np.testing.assert_array_equal(ahead.random(size - count - drawn), whole[drawn + count :])
    # the original has not moved, and the copy's draws did not move it
    np.testing.assert_array_equal(rng.random(size - drawn), whole[drawn:])


# A repeated call reuses its batch buffers and works in cache-sized
# sub-blocks, so it allocates far less than one 2 MiB batch-long array per
# coordinate; allocating whole batches afresh took 15-63 MiB per call.
_REPEAT_BOUND = 8 * 2**20


def _peak_of_repeat(call):
    """tracemalloc peak, in bytes, of ``call()`` made a second time."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_covariance_mc_memory_is_bounded():
    y = np.array([0.3, 0.2, 0.1])
    assert _peak_of_repeat(lambda: covariance_mc(Box((1.0, 2.0, 3.0)), y, 2**20, 1)) <= _REPEAT_BOUND


@pytest.mark.parametrize("shape", [Ball(1.0, 2), Box((1.0, 1.0))])
def test_mc_heat_content_memory_is_bounded(shape):
    # the four cases of acceptance criterion 14
    cases = [(KernelSpec.stable(alpha, 2), t) for alpha in (1.0, 1.5) for t in (0.1, 0.01)]
    assert _peak_of_repeat(lambda: mc_heat_content(shape, cases, 2**20, 1)) <= _REPEAT_BOUND


def test_mc_alpha_perimeter_memory_is_bounded():
    assert _peak_of_repeat(lambda: mc_alpha_perimeter(Box((1.0, 2.0, 3.0)), 0.5, 2**20, 1)) <= _REPEAT_BOUND


def test_scratch_footprint_after_the_three_estimators():
    # the estimators keep batch-long only the chord normals, the pair
    # distances, their membership and the values; whatever else they hold is
    # one sub-block long.  Batch-long x, y and uniforms held 14.84 MiB here.
    def run():
        cases = [(KernelSpec.stable(alpha, 2), t) for alpha in (1.0, 1.5) for t in (0.1, 0.01)]
        mc_heat_content(Box((1.0, 1.0)), cases, 2**20, 1)
        covariance_mc(Box((1.0, 2.0, 3.0)), np.array([0.3, 0.2, 0.1]), 2**20, 1)
        mc_alpha_perimeter(Ball(1.0, 2), 0.5, 2**20, 1)
        return sum(buf.nbytes for buf in vars(geometry._scratch_buffers).values())

    with ThreadPoolExecutor(max_workers=1) as pool:  # a thread with no buffers yet
        held = pool.submit(run).result(timeout=120)
    assert held <= 10.5 * 2**20


def test_threads_draw_into_their_own_buffers():
    # the reused buffers are per thread: estimators running at once in more
    # threads than cores return the bits of the same calls made one by one
    def calls(seed):
        return (
            covariance_mc(Box((1.0, 2.0, 3.0)), np.array([0.3, 0.2, 0.1]), 2**17 + 5, seed),
            mc_heat_content(Ball(1.0, 2), [(KernelSpec.gaussian(2), 0.1)], 2**17 + 5, seed),
            mc_alpha_perimeter(Box((1.0, 2.0)), 0.5, 2**17 + 5, seed),
        )

    seeds = range(6)
    expected = [calls(seed) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
            futures = [pool.submit(calls, seed) for seed in seeds]
            got = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


@pytest.mark.parametrize(
    "size", [_SERIES_BLOCK - 1, _SERIES_BLOCK, _SERIES_BLOCK + 1, 3 * _SERIES_BLOCK + 7]
)
def test_blocked_series_eval_matches_unblocked(size):
    dens = density(1.0, 2)
    r = dens.r_switch * (1.0 + np.abs(np.random.default_rng(size).standard_cauchy(size)))
    u = dens.r_switch / r
    unblocked = _horner(dens._scaled[:-2], u**dens.alpha, np.empty_like(u)) * u**dens.d
    blocked = series_eval(dens.alpha, dens.d, dens._scaled, dens.r_switch, r)
    np.testing.assert_array_equal(blocked, unblocked)


def test_density_evaluate_keeps_the_input_shape():
    dens = density(1.5, 2)
    r = dens.r_switch * np.linspace(0.0, 3.0, 12)
    np.testing.assert_array_equal(dens.evaluate(r.reshape(3, 4)), dens.evaluate(r).reshape(3, 4))


@pytest.mark.parametrize("shape", [Ball(1.0, 2), Box((1.0, 2.0))])
@pytest.mark.parametrize("y", [[0.5], [0.5, 0.1, 0.2], 0.5, [[0.5, 0.1]]])
def test_displacement_must_be_a_vector_of_the_dimension(shape, y):
    # a 1-vector used to broadcast, giving g at (0.5, 0.5) from covariance_mc
    # but g at |y| = 0.5 from covariance; a scalar died with IndexError
    with pytest.raises(ValueError, match="displacement must have shape"):
        covariance(shape, y)
    with pytest.raises(ValueError, match="displacement must have shape"):
        covariance_mc(shape, y, samples=2**10, seed=0)


@pytest.mark.parametrize(
    "contains",
    [
        lambda x: _ellipse(x).astype(int),  # 0/1 ints would index rows 0 and 1
        lambda x: _ellipse(x)[:-1],
        lambda x: _ellipse(x)[:, None],
    ],
)
def test_indicator_must_return_one_bool_per_point(contains):
    shape = Indicator(d=2, contains=contains, bbox_lo=ELLIPSE.bbox_lo, bbox_hi=ELLIPSE.bbox_hi)
    with pytest.raises(ValueError, match="must return a bool array"):
        covariance_mc(shape, np.zeros(2), samples=2**10, seed=0)
    with pytest.raises(ValueError, match="must return a bool array"):
        mc_heat_content(shape, [(KernelSpec.gaussian(2), 0.1)], samples=2**10, seed=0)
