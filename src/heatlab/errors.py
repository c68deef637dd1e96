"""Typed exceptions shared across heatlab modules, and the input checks.

Callers are expected to branch on the regime errors (divergent moments,
alpha-perimeter outside (0,1)) rather than on sentinel values.  Public entry
points check their inputs with the ``_`` helpers at the end, one per concept:
each returns the value or raises ``ValueError`` naming the parameter.
"""

import math

import numpy as np


class HeatlabError(Exception):
    """Base class for all heatlab-specific errors."""


class RegimeError(HeatlabError, ValueError):
    """An operation was requested outside the parameter regime where the
    underlying quantity is defined or finite."""


class DivergentMomentError(RegimeError):
    """The d-th radial moment of the kernel diverges (alpha <= 1 or the
    polynomial family, whose moment integrand decays like 1/r)."""


class QuadratureError(HeatlabError, RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the best residual estimate so callers can report it.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class UnsupportedShapeError(HeatlabError, TypeError):
    """The requested operation has no evaluation path for this shape variant."""


class SamplingEfficiencyError(HeatlabError, RuntimeError):
    """Monte Carlo rejection efficiency fell below the usable threshold
    (pathological bounding box)."""


def _integer(value, least, what):
    """``value`` as an int >= ``least``: 2.0, np.int64(3) and 2**63 - 1 pass, 2.5, NaN and inf raise."""
    try:
        if int(value) == value >= least:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be an integer >= {least}, got {value}")


def _dimension(d, least=2):
    """d as an int >= ``least``, 1 for the d - 1 given to ``unit_ball_volume``."""
    return _integer(d, least, "dimension d")


def _sample_count(samples):
    return _integer(samples, 1, "samples")


def _seed(seed):
    """seed as an int in [0, 2^63), a Philox key word numpy takes as it is:
    -3 would wrap to 2^64 - 3 and 2.5 truncate to 2."""
    seed = _integer(seed, 0, "seed")
    if seed >= 2**63:
        raise ValueError(f"seed must be < 2**63, got {seed}")
    return seed


def _stable_index(alpha):
    """alpha as a float in (0, 2), else ``RegimeError``."""
    if alpha is None or not 0.0 < alpha < 2.0:
        raise RegimeError(f"stable index alpha={alpha} outside (0, 2); use the gaussian family for alpha=2")
    return float(alpha)


def _perimeter_index(alpha):
    """alpha as a float in (0, 1), where the alpha-perimeter is finite, else ``RegimeError``."""
    if alpha is None or not 0.0 < alpha < 1.0:
        raise RegimeError(f"alpha-perimeter is finite only for alpha in (0, 1); got alpha={alpha}")
    return float(alpha)


def _radii(r, what="radius"):
    """``r`` as a float array of entries >= 0, +inf included: one pass, which also rejects NaN."""
    arr = np.asarray(r, dtype=float)
    if not (arr >= 0).all():
        raise ValueError(f"{what} must be nonnegative")
    return arr


def _size(value, what):
    """A size, or a tuple of sizes, each positive and finite (NaN rejected)."""
    if not all(0 < v < math.inf for v in (value if isinstance(value, tuple) else (value,))):
        raise ValueError(f"{what} must be positive and finite, got {value}")
    return value


def _check_time(t):
    """Raise ValueError unless 0 < t < inf (NaN included)."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be {'finite' if t == math.inf else 'positive'}, got {t}")


def _t_grid(t_grid, least):
    """The grid as a tuple of valid times, strictly decreasing, with >= ``least`` entries."""
    grid = tuple(float(t) for t in t_grid)
    for t in grid:
        _check_time(t)
    if len(grid) < least or any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"t_grid must be strictly decreasing with >= {least} entries, got {grid}")
    return grid
