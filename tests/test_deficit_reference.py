"""A grid's times refined together give, bit for bit, the values, error bars
and errors of each time refined on its own on the same Gauss-Kronrod rule
(``tests/deficit_reference.py``)."""

import numpy as np
import pytest

from deficit_reference import scaled_deficit_alone, scaled_deficits_loop
from heatlab import content
from heatlab.cli import main
from heatlab.content import DEFAULT_T_GRID, _scaled_deficits, scaled_deficit
from heatlab.errors import QuadratureError
from heatlab.geometry import Ball, Box, CovarianceProfile, radial_profile
from heatlab.kernel import _DEFAULT_CFG, KernelSpec, QuadratureConfig, poisson_constant

SHAPES = (Ball(1.0, 2), Ball(1.3, 3), Box((1.0, 2.0)), Box((1.0, 2.0, 3.0)))


def _specs(d):
    poly = (
        KernelSpec.poly_family(2, kappa=poisson_constant(2), n=2.0, m=1.5, beta=-2.0, gamma=1.0)
        if d == 2
        else KernelSpec.poly_family(3, kappa=0.1, n=2.0, m=2.0, beta=-3.0, gamma=1.0)
    )
    stable = [KernelSpec.stable(alpha, d) for alpha in (0.5, 0.7, 1.0, 1.2, 1.5, 1.8)]
    return [KernelSpec.gaussian(d), KernelSpec.poisson(d), poly, *stable]


def _wide_grid(spec):
    """Seven times whose r* = ell t^-gamma runs from below r_switch and the box
    kinks (t = 10) to 1e10 and beyond."""
    if spec.family == "stable" and spec.alpha < 1.0:
        return (10.0, 3.0, 1.0, 0.3, 1e-2, 1e-5, 1e-10)
    return (10.0, 3.0, 1.0, 0.3, 1e-2, 1e-6, 1e-20)


CASES = [
    pytest.param(shape, spec, id=f"{shape!r}-{spec.family}-{spec.alpha}")
    for shape in SHAPES
    for spec in _specs(shape.d)
]


@pytest.mark.parametrize("shape, spec", CASES)
def test_grid_equals_the_per_time_loop(shape, spec):
    profile = radial_profile(shape)
    for grid in (DEFAULT_T_GRID, (1e-3,), _wide_grid(spec)):
        assert _scaled_deficits(spec, profile, grid, _DEFAULT_CFG) == scaled_deficits_loop(spec, profile, grid)


def _count_calls(monkeypatch):
    """Sizes of the radius arrays passed to eval_p1 and to ghat_deficit, and
    of the lower limits passed to tail_mass."""
    p1_sizes, ghat_sizes, tail_sizes = [], [], []
    p1, ghat, tail = content.eval_p1, CovarianceProfile.ghat_deficit, content._kernel_tail_mass
    monkeypatch.setattr(content, "eval_p1", lambda spec, r, cfg: p1_sizes.append(r.size) or p1(spec, r, cfg))
    monkeypatch.setattr(CovarianceProfile, "ghat_deficit", lambda self, r: ghat_sizes.append(r.size) or ghat(self, r))
    monkeypatch.setattr(content, "_kernel_tail_mass", lambda spec, R, cfg: tail_sizes.append(np.size(R)) or tail(spec, R, cfg))
    return p1_sizes, ghat_sizes, tail_sizes


def test_a_grid_makes_one_p1_and_one_ghat_call_per_level(monkeypatch):
    # the grid path itself, not the per-time loop it falls back to on an error:
    # every time settles at level 1, in one chunk
    p1_sizes, ghat_sizes, tail_sizes = _count_calls(monkeypatch)
    spec, profile = KernelSpec.stable(1.5, 2), radial_profile(Box((1.0, 2.0)))
    _scaled_deficits(spec, profile, DEFAULT_T_GRID, _DEFAULT_CFG)
    assert len(p1_sizes) == 1
    assert ghat_sizes == p1_sizes
    assert tail_sizes == [len(DEFAULT_T_GRID)]  # p_1 has a power tail: it never underflows here


def test_a_grid_makes_one_tail_mass_call_plus_one_per_chunk_where_p1_underflows(monkeypatch):
    # the Gaussian p_1 underflows beyond r ~ 54, inside r* of t <= 1e-3 on Ball(1, 2)
    p1_sizes, _, tail_sizes = _count_calls(monkeypatch)
    _scaled_deficits(KernelSpec.gaussian(2), radial_profile(Ball(1.0, 2)), DEFAULT_T_GRID, _DEFAULT_CFG)
    assert tail_sizes[0] == len(DEFAULT_T_GRID)
    assert 2 <= len(tail_sizes) <= 1 + len(p1_sizes)


def test_a_long_grid_is_evaluated_in_chunks(monkeypatch):
    spec, profile = KernelSpec.stable(1.5, 3), radial_profile(Ball(1.3, 3))
    grid = tuple(np.geomspace(1e-1, 1e-12, 200))
    expected = scaled_deficits_loop(spec, profile, grid)
    p1_sizes, _, _ = _count_calls(monkeypatch)
    assert _scaled_deficits(spec, profile, grid, _DEFAULT_CFG) == expected
    assert len(p1_sizes) > 4
    assert max(p1_sizes) < content._GRID_CHUNK + 20000  # one time's nodes at most past the chunk


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value), getattr(info.value, "residual", None)


STARVED = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)
BALL2, BALL3 = radial_profile(Ball(1.0, 2)), radial_profile(Ball(1.0, 3))

# (spec, profile, t, cfg) where scaled_deficit raises
ONE_POINT_ERRORS = [
    (KernelSpec.gaussian(2), BALL2, 0.5, STARVED),  # no level settles
    (KernelSpec.stable(0.5, 2), BALL2, 1e-70, None),  # p_1 underflows where its tail counts
    (KernelSpec.stable(0.5, 2), BALL2, 1e-80, None),  # the integrand overflows
    (KernelSpec.gaussian(3), BALL3, 1e-300, None),
    (KernelSpec.stable(0.5, 2), BALL2, 1e200, None),  # t**gamma overflows
    (KernelSpec.gaussian(2), BALL3, 0.1, None),  # dimensions differ
]


@pytest.mark.parametrize("spec, profile, t, cfg", ONE_POINT_ERRORS)
def test_one_point_grid_raises_what_a_lone_time_raises(spec, profile, t, cfg):
    expected = _raised(lambda: scaled_deficit_alone(spec, profile, t, cfg))
    assert _raised(lambda: scaled_deficit(spec, profile, t, cfg)) == expected
    assert _raised(lambda: _scaled_deficits(spec, profile, (t,), cfg or _DEFAULT_CFG)) == expected


def test_an_earlier_time_that_cannot_settle_wins_over_a_later_overflow():
    # r* = 2e155 at t = 1e-310: r^{d-1} p_1 would overflow there
    spec, grid = KernelSpec.gaussian(2), (0.5, 1e-2, 1e-310)
    raised = _raised(lambda: _scaled_deficits(spec, BALL2, grid, STARVED))
    assert raised == _raised(lambda: scaled_deficits_loop(spec, BALL2, grid, STARVED))
    assert raised[:2] == (QuadratureError, "deficit quadrature at t=0.5 did not settle by level 8")


def test_an_evaluation_error_is_charged_to_its_own_time(monkeypatch):
    # p_1 fails on any call that reaches r = 100, as the stable density's
    # negativity floor would: t = 1e-4 raises, t = 0.1 and 1e-2 settle
    exact = content.eval_p1

    def failing(spec, r, cfg):
        if r.max() >= 100.0:
            raise QuadratureError("stable density evaluation produced values below the negativity floor", -1.0)
        return exact(spec, r, cfg)

    monkeypatch.setattr(content, "eval_p1", failing)
    monkeypatch.setattr("deficit_reference.eval_p1", failing)
    spec = KernelSpec.stable(1.5, 2)
    for grid in ((0.1, 1e-2, 1e-4), (0.1, 1e-4, 1e-300), (1e-4, 0.1)):
        raised = _raised(lambda: _scaled_deficits(spec, BALL2, grid, _DEFAULT_CFG))
        assert raised == _raised(lambda: scaled_deficits_loop(spec, BALL2, grid))
        assert raised[0] is QuadratureError and "negativity floor" in raised[1]
    # a time before the failing one that cannot settle still wins
    spec = KernelSpec.gaussian(2)
    raised = _raised(lambda: _scaled_deficits(spec, BALL2, (0.5, 1e-4), STARVED))
    assert raised == _raised(lambda: scaled_deficits_loop(spec, BALL2, (0.5, 1e-4), STARVED))
    assert raised[1] == "deficit quadrature at t=0.5 did not settle by level 8"


def test_sweep_to_an_overflowing_time_exits_3_naming_it(capsys):
    args = "heat sweep --family stable --alpha 1.5 --d 3 --shape ball --radius 1 --t-grid 1e-1,1e-2,1e-200"
    assert main(args.split()) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: the deficit integrand overflows at r* = ")
    assert "t=1e-200" in err
