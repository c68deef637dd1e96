"""Per-time reference for the scaled deficit: the Gauss-Kronrod rule of
``content.scaled_deficit`` applied to one time at a time.

Each t is settled on its own through ``kernel._settle``, with its own panel
edges (``_deficit_edges``, the per-time builder the package no longer has),
its own integrand calls and scalar ``tail_mass`` calls.  ``content._scaled_deficits`` must return exactly the
same values and error bars, and raise the same errors, as
``scaled_deficits_loop``; the tests compare them with ``==``.
"""

import math

import numpy as np

from heatlab.content import _LOG_MAX
from heatlab.errors import QuadratureError, _check_time
from heatlab.kernel import (
    _DEFAULT_CFG,
    STABLE,
    _density,
    _settle,
    eval_p1,
    tail_mass,
    unit_sphere_area,
)


def _deficit_edges(r_star, breaks):
    """First-pass panel edges on [0, r_star]: linear head + geometric body +
    break splits.

    The breaks (box corner scales mapped into r-space, and the stable table's
    r_switch) are inserted exactly so each panel sees an analytic integrand.
    """
    head_top = min(1.0, r_star)
    # the body head_top 1.3^k, k = 1, 2, ..., multiplied in sequence as far as r_star
    grow = np.full(int(math.log(r_star / head_top) / math.log(1.3)) + 3, 1.3)
    grow[0] = head_top
    body = np.multiply.accumulate(grow)[1:]
    head = np.linspace(0.0, head_top, 9)
    interior = [k for k in breaks if 0.0 < k < r_star]
    edges = np.sort(np.concatenate([head, body[body < r_star], [r_star], interior]))
    # drop near-duplicate edges that would make zero-width panels (r_star twice if <= 1)
    keep = np.concatenate([[True], np.diff(edges) > 1e-14 * edges[1:]])
    return edges[keep]


def scaled_deficit_alone(spec, profile, t, cfg=None):
    """(D~(t), error bar) of one time, settled on its own."""
    cfg = cfg or _DEFAULT_CFG
    _check_time(t)
    if spec.d != profile.d:
        raise ValueError(f"kernel dimension {spec.d} != profile dimension {profile.d}")
    d, ell, gamma = spec.d, profile.support_radius, spec.scaling().gamma
    try:
        tg = float(t) ** gamma
    except OverflowError:
        raise ValueError(f"t too large: t**{gamma:g} overflows, got {t}") from None
    r_star = ell / tg if tg > 0.0 else math.inf
    if max(d, spec.n or 0) * math.log(r_star) >= _LOG_MAX:
        scale = f"shape diameter ell={ell:.3g}, t={t:g}, gamma={gamma:g}"
        raise QuadratureError(f"the deficit integrand overflows at r* = ell t^-gamma = {r_star:.3g} ({scale})")
    advol = unit_sphere_area(d) * profile.volume
    tail = advol * tail_mass(spec, r_star, cfg)
    breaks = [k / tg for k in profile.kink_radii]
    if spec.family == STABLE:
        breaks.append(_density(spec, cfg).r_switch)

    edges, lost = _deficit_edges(r_star, breaks), []

    def integrand(nodes, _):
        p_vals = eval_p1(spec, nodes, cfg)
        lost.extend(nodes[p_vals < np.finfo(float).tiny].tolist())
        return nodes ** (d - 1) * p_vals * profile.ghat_deficit(tg * nodes)

    [(value, err)] = _settle(
        edges[:-1],
        edges[1:],
        np.zeros(edges.size - 1, dtype=int),
        integrand,
        lambda _, k, e: (k + tail, e),
        cfg,
        lambda _: f"deficit quadrature at t={t:g}",
    )
    bound = advol * tail_mass(spec, min(lost), cfg) if lost else 0.0
    if bound > cfg.rel_tol * value:
        msg = f"t={t:g}: p_1 underflows from r={min(lost):.3g}, where its tail carries {bound:.2e}"
        raise QuadratureError(f"{msg} of D~={value:.2e}", residual=bound)
    return value, err + cfg.abs_tol


def scaled_deficits_loop(spec, profile, t_grid, cfg=None):
    """[(D~(t), error bar)] over the grid, one time after the other."""
    return [scaled_deficit_alone(spec, profile, t, cfg) for t in t_grid]
