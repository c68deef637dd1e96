"""Radial heat-kernel families and their basic radial integrals.

Supported families (all rotationally invariant, normalized at t=1):

* ``gaussian``   p_1(r) = (4 pi)^{-d/2} exp(-r^2/4)
* ``poisson``    p_1(r) = kappa_d (1 + r^2)^{-(d+1)/2}
* ``stable``     inverse Fourier transform of exp(-|xi|^alpha), 0 < alpha < 2,
                 evaluated numerically (see ``heatlab.stable``)
* ``poly``       p_1(r) = kappa (1 + r^n)^{-m} with d - n m = -1

Each family scales as p_t(x) = t^beta p_1(t^{-gamma} x); for the alpha-stable
trio beta = -d/alpha and gamma = 1/alpha, so the L1 norm is t-independent.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._special import beta, incomplete_beta, sine_beta, upper_gamma
from .errors import DivergentMomentError, QuadratureError, _check_time, _dimension, _radii, _size, _stable_index
from .stable import _GL_NODES, _GL_WEIGHTS, density

GAUSSIAN = "gaussian"
POISSON = "poisson"
STABLE = "stable"
POLY = "poly"

_FAMILIES = (GAUSSIAN, POISSON, STABLE, POLY)


def unit_ball_volume(d):
    """w_d = pi^{d/2} / Gamma(1 + d/2), the volume of the unit ball, by
    w_k = (2 pi / k) w_{k-2} from w_0 = 1 or w_1 = 2 (exact there, and within
    1.6e-16 for d <= 8); it stops once w underflows to 0."""
    d = _dimension(d, least=1)
    w, k = (2.0, 1) if d % 2 else (1.0, 0)
    while k < d and w > 0.0:
        k += 2
        w *= 2.0 * math.pi / k
    return w


def unit_sphere_area(d):
    """A_d = d w_d, the surface area of the unit sphere in R^d."""
    return d * unit_ball_volume(d)


def poisson_constant(d):
    """kappa_d = Gamma((d+1)/2) / pi^{(d+1)/2} = 2 / ((d+1) w_{d+1})."""
    d = _dimension(d)
    return 2.0 / ((d + 1) * unit_ball_volume(d + 1))


def stable_tail_constant(alpha, d):
    """C_{alpha,d} = alpha 2^{alpha-1} pi^{-1-d/2} sin(pi alpha/2)
    Gamma((d+alpha)/2) Gamma(alpha/2): the coefficient of the t r^{-d-alpha}
    small-t tail of the stable kernel."""
    alpha, d = _stable_index(alpha), _dimension(d)
    return (
        alpha
        * 2.0 ** (alpha - 1.0)
        * math.pi ** (-1.0 - d / 2.0)
        * math.sin(math.pi * alpha / 2.0)
        * math.gamma((d + alpha) / 2.0)
        * math.gamma(alpha / 2.0)
    )


@dataclass(frozen=True)
class ScalingExponents:
    """p_t(x) = t^beta p_1(t^{-gamma} x)."""

    beta: float
    gamma: float

    def __post_init__(self):
        _size(self.gamma, "scaling exponent gamma")


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the numerical kernel paths."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def __post_init__(self):
        _size((self.abs_tol, self.rel_tol), "tolerances")


@dataclass(frozen=True)
class KernelSpec:
    """One member of a radial heat-kernel family.

    Use the classmethod constructors; validation happens in __post_init__.
    For the poly family the scaling exponents (beta, gamma) are part of the
    specification and must be supplied.
    """

    family: str
    d: int
    alpha: float = None
    kappa: float = None
    n: float = None
    m: float = None
    beta: float = None
    gamma: float = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        object.__setattr__(self, "d", _dimension(self.d))
        if self.family == STABLE:
            object.__setattr__(self, "alpha", _stable_index(self.alpha))
        elif self.family == POLY:
            for name in ("kappa", "n", "m", "beta", "gamma"):
                value = getattr(self, name)
                if value is None or not math.isfinite(value):
                    raise ValueError(f"poly family requires a finite {name}, got {value}")
                object.__setattr__(self, name, float(value))
            _size((self.kappa, self.n, self.m), "poly family kappa, n and m")
            if abs(self.d - self.n * self.m + 1.0) > 1e-12 * (1.0 + abs(self.n * self.m)):
                raise ValueError(
                    f"poly family requires d - n*m = -1 exactly, got {self.d - self.n * self.m}"
                )
            self.scaling()  # gamma > 0

    @classmethod
    def gaussian(cls, d):
        return cls(family=GAUSSIAN, d=d, alpha=2.0)

    @classmethod
    def poisson(cls, d):
        return cls(family=POISSON, d=d, alpha=1.0)

    @classmethod
    def stable(cls, alpha, d):
        return cls(family=STABLE, d=d, alpha=alpha)

    @classmethod
    def poly_family(cls, d, kappa, n, m, beta, gamma):
        return cls(family=POLY, d=d, kappa=kappa, n=n, m=m, beta=beta, gamma=gamma)

    def scaling(self):
        if self.family == POLY:
            return ScalingExponents(beta=self.beta, gamma=self.gamma)
        return ScalingExponents(beta=-self.d / self.alpha, gamma=1.0 / self.alpha)


_DEFAULT_CFG = QuadratureConfig()

# Radius where l1_norm hands the closed-form families from quadrature to
# their analytic tail mass.
_L1_TAIL_SPLIT = 10.0


def _density(spec, cfg):
    return density(spec.alpha, spec.d, abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol)


def eval_p1(spec, r, cfg=_DEFAULT_CFG):
    """p_1(r e_d); r may be a scalar or an array of nonnegative radii.  The
    result is a float for a scalar r and a new array otherwise."""
    if spec.family == STABLE:  # the density checks the radii itself
        return _density(spec, cfg).evaluate(r)
    arr = _radii(r)
    with np.errstate(over="ignore"):  # r^2 or r^n past double range: p_1 is 0 there
        if spec.family == GAUSSIAN:
            out = (4.0 * math.pi) ** (-spec.d / 2.0) * np.exp(-(arr**2) / 4.0)
        elif spec.family == POISSON:
            out = poisson_constant(spec.d) * (1.0 + arr**2) ** (-(spec.d + 1) / 2.0)
        else:
            out = spec.kappa * (1.0 + arr**spec.n) ** (-spec.m)
    return float(out) if arr.ndim == 0 else out


def eval_pt(spec, t, r, cfg=_DEFAULT_CFG):
    """p_t(r e_d) = t^beta p_1(t^{-gamma} r)."""
    _check_time(t)
    sc = spec.scaling()
    t = float(t)  # a NumPy scalar would overflow to inf instead of raising
    try:
        scale, stretch = t**sc.beta, t**-sc.gamma
    except OverflowError:
        raise ValueError(
            f"t too small: t**{sc.beta:g} or t**{-sc.gamma:g} overflows, got {t}"
        ) from None
    with np.errstate(over="ignore"):  # a radius past double range is +inf, where p_1 is 0
        radii = np.asarray(r, dtype=float) * stretch
    p = eval_p1(spec, radii, cfg)
    if isinstance(p, float):
        return scale * p
    p *= scale
    return p


def _algebraic_tail_mass(d, kappa, n, m, R):
    """kappa int_R^inf r^{d-1} (1+r^n)^{-m} dr = kappa/n B_x(a, b), a = m - d/n,
    b = d/n, x = 1/(1 + R^n): u = r^n turns the integral into an incomplete
    Beta function.  x and 1 - x are formed from R^n only for R <= 1 and from
    R^{-n} otherwise, so neither power overflows."""
    if R <= 1.0:
        u = R**n
        x, y = 1.0 / (1.0 + u), u / (1.0 + u)
    else:
        v = R**-n
        x, y = v / (1.0 + v), 1.0 / (1.0 + v)
    return kappa / n * incomplete_beta(m - d / n, d / n, x, y)


def tail_mass(spec, R, cfg=_DEFAULT_CFG):
    """int_R^inf r^{d-1} p_1(r) dr: Gamma(d/2, R^2/4) / (2 pi^{d/2}) for the
    Gaussian; kappa_d/2 B_x(1/2, d/2) at x = 1/(1 + R^2) = sin^2(arccot R) for
    the Poisson kernel; the continued fraction of ``_algebraic_tail_mass`` for
    the poly family; ``StableDensity.radial_integral`` for the stable family.
    R may be a scalar or an array of lower limits: a float for a scalar and a
    new array otherwise, one ``radial_integral`` call for the stable family
    and one closed form per entry for the others, each with its scalar bits."""
    arr = _radii(R)
    if spec.family == STABLE:
        return _density(spec, cfg).radial_integral(spec.d - 1, arr)[0]
    if arr.ndim:
        return np.array([tail_mass(spec, r, cfg) for r in arr.ravel()], dtype=float).reshape(arr.shape)
    d, R = spec.d, float(arr)
    if spec.family == GAUSSIAN:
        return upper_gamma(d, 0.5 * R, 0.5 * math.pi ** (-d / 2.0))
    if spec.family == POISSON:
        h = math.hypot(1.0, R)
        cos_phi = R / h if R <= 1.0 else 1.0 / math.hypot(1.0, 1.0 / R)
        return 0.5 * poisson_constant(d) * sine_beta(1, d, 1.0 / h, cos_phi, math.atan2(1.0, R))
    return _algebraic_tail_mass(d, spec.kappa, spec.n, spec.m, R)


def _graded_edges(breaks, level):
    """Panel edges on [breaks[0], breaks[-1]], graded geometrically toward
    every break: from each end of a segment the panels shrink by
    4^{-1/level}, from half its length down to about 1e-16 of it."""
    n = int(level * math.log(0.5e16) / math.log(4.0)) + 1
    frac = 0.5 * 4.0 ** (-np.arange(n) / level)
    parts = [breaks[:1]]
    for a, b in zip(breaks[:-1], breaks[1:]):
        parts += [a + (b - a) * frac[::-1], b - (b - a) * frac[1:], [b]]
    return np.concatenate(parts)


def _kronrod(gauss):
    """(nodes, weights) on [-1, 1] of the 2n+1-point Kronrod extension of the
    n-point Gauss-Legendre nodes ``gauss`` (n even): the Gauss rule of the
    Jacobi matrix whose Legendre recurrence coefficients b_0 = 2,
    b_k = k^2/(4k^2 - 1) run on past k = 3n/2 by Laurie's (1997) algorithm
    (the weight is even, so every a_k is 0).  The Gauss nodes are ``gauss``
    itself, the others its eigenvalues after one Newton step, the weights
    its Christoffel numbers; nodes and weights are made exactly symmetric."""
    n = gauss.size
    b = np.zeros(2 * n + 1)
    k = np.arange(1.0, (3 * n + 1) // 2 + 1)
    b[0], b[1 : k.size + 1] = 2.0, k * k / (4.0 * k * k - 1.0)
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    s[1 : n // 2 + 2] = s[: n // 2 + 1]
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - 1 - m + k
        s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    # c[j + 1] q_{j+1} = x q_j - c[j] q_{j-1}: the matrix's orthonormal
    # polynomials q_0 .. q_2n, then (c = 1) its characteristic polynomial's multiple
    c = np.concatenate([[0.0], np.sqrt(b[1:]), [1.0]])

    def recurrence(x):
        """Rows q_-1 = 0, q_0, .. q_2n and the characteristic multiple at x,
        and their derivatives."""
        q, dq = np.zeros((2 * n + 3, x.size)), np.zeros((2 * n + 3, x.size))
        q[1] = 1.0 / math.sqrt(b[0])
        for j in range(2 * n + 1):
            q[j + 2] = (x * q[j + 1] - c[j] * q[j]) / c[j + 1]
            dq[j + 2] = (q[j + 1] + x * dq[j + 1] - c[j] * dq[j]) / c[j + 1]
        return q, dq

    # eigvalsh leaves the Kronrod-only nodes ~1 ulp off, which moves the
    # weights near +-1 by hundreds of ulps; one Newton step rounds them
    x = np.linalg.eigvalsh(np.diag(c[1:-1], 1) + np.diag(c[1:-1], -1))
    q, dq = recurrence(x[::2])
    x[::2] -= q[-1] / dq[-1]
    x = 0.5 * (x - x[::-1])
    x[1::2] = gauss
    # Christoffel numbers 1 / sum_k q_k(x)^2, in place of eigenvectors, whose
    # LAPACK path adds ~0.4 MiB of resident memory to every process
    w = 1.0 / np.sum(recurrence(x)[0][1:-1] ** 2, axis=0)
    return x, 0.5 * (w + w[::-1])


# the G16/K33 pair: the Gauss nodes are every other Kronrod node, from the second
_GK_NODES, _GK_WEIGHTS = _kronrod(_GL_NODES)


_CHUNK = 2**16  # nodes per integrand call: a long t-grid keeps a bounded working set


def _gk_panels(lo, hi, integrand):
    """(K_p, |K_p - G_p|) per panel [lo_p, hi_p]: the 33-point Kronrod sum of
    the integrand and its distance from the embedded Gauss-16 sum.
    ``integrand(nodes, panels)`` gets the Kronrod nodes, panel by panel, of
    the panels of the slice ``panels``, at most ``_CHUNK`` nodes at a time.
    By einsum, not matmul: BLAS's dgemv rounds a row by a kernel chosen by the
    row's place (and may split rows between threads), so a panel's sum would
    depend on the panels beside it."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    k, err, step = np.empty(lo.size), np.empty(lo.size), _CHUNK // _GK_NODES.size
    for a in range(0, lo.size, step):
        panels = slice(a, a + step)
        f = integrand((mid[panels, None] + half[panels, None] * _GK_NODES).ravel(), panels)
        f = f.reshape(-1, _GK_NODES.size)
        k[panels] = np.einsum("ij,j->i", f, _GK_WEIGHTS)
        err[panels] = np.abs(np.einsum("ij,j->i", f[:, 1::2], _GL_WEIGHTS) - k[panels])
    return k * half, err * half


_LEVELS = (1, 2, 4, 8)  # panel densities: the later ones catch an integral that misses at level 1


def _refine(level_values, n, cfg, what):
    """[(value, error)] of n integrals, each at the first of ``_LEVELS`` where
    its Kronrod-Gauss error is within max(abs_tol, rel_tol |value|).
    ``level_values(level, todo)`` gives (value, error) at ``level`` of each
    integral of the list ``todo`` not yet settled; raises ``QuadratureError``
    naming ``what(i)`` for the first integral i unsettled at the last level."""
    found = [None] * n
    for level in _LEVELS:
        todo = [i for i, f in enumerate(found) if f is None]
        if not todo:
            break
        for i, (value, err) in zip(todo, level_values(level, todo)):
            if err <= max(cfg.abs_tol, cfg.rel_tol * abs(value)):
                found[i] = (value, err)
            elif level == _LEVELS[-1]:
                raise QuadratureError(f"{what(i)} did not settle by level {level}", residual=err)
    return found


def _radial_integral(spec, q, b, cfg):
    """int_0^b r^q p_1(r) dr for a closed-form family by composite
    Gauss-Kronrod (G16/K33) on ``_graded_edges([0, b], level)``, at the first
    level whose Kronrod-Gauss error settles (``_refine``).  The stable family
    integrates its table and series itself (``StableDensity.radial_integral``)."""

    def level_values(level, todo):
        edges = _graded_edges(np.array([0.0, b]), level)
        k, err = _gk_panels(edges[:-1], edges[1:], lambda r, _: r**q * eval_p1(spec, r, cfg))
        return [(float(k.sum()), float(err.sum()))]

    return _refine(level_values, 1, cfg, lambda _: f"radial integral of r^{q:g} p_1 on [0, {b:g}]")[0][0]


def l1_norm(spec, cfg=_DEFAULT_CFG):
    """A_d int_0^inf r^{d-1} p_1(r) dr: A_d ``tail_mass`` from 0 for the
    stable family; for the others ``_radial_integral`` up to
    ``_L1_TAIL_SPLIT`` plus ``tail_mass`` beyond."""
    if spec.family == STABLE:
        return unit_sphere_area(spec.d) * tail_mass(spec, 0.0, cfg)
    head = _radial_integral(spec, spec.d - 1, _L1_TAIL_SPLIT, cfg)
    return unit_sphere_area(spec.d) * (head + tail_mass(spec, _L1_TAIL_SPLIT, cfg))


def l1_norm_closed_form(spec):
    """Exact L1 norm: 1 for the Fourier-normalized families, the Beta-integral
    value A_d kappa B(d/n, m - d/n)/n for the poly family."""
    if spec.family == POLY:
        d, n = spec.d, spec.n
        return unit_sphere_area(d) * spec.kappa * beta(d / n, spec.m - d / n) / n
    return 1.0


def moment_d(spec, cfg=_DEFAULT_CFG):
    """int_0^inf r^d p_1(r) dr; finite only for alpha in (1, 2] (Gaussian =
    alpha 2 endpoint).  ``_radial_integral`` on [0, 42] for the Gaussian (the
    rest is below e^{-441}); ``StableDensity.radial_integral`` from 0 for the
    stable family.  Divergent regimes raise."""
    d = spec.d
    if spec.family == GAUSSIAN:
        return _radial_integral(spec, d, 42.0, cfg)
    if spec.family in (POISSON, POLY) or spec.alpha <= 1.0:
        raise DivergentMomentError(
            "the d-th radial moment diverges unless alpha is in (1, 2) "
            "(Gaussian included as the alpha=2 endpoint)"
        )
    return _density(spec, cfg).radial_integral(d, 0.0)[0]


def moment_d_closed_form(spec):
    """Gamma((d+1)/2) pi^{-(d+1)/2} Gamma(1 - 1/alpha), valid for stable
    alpha in (1,2) and for Gaussian (alpha=2, where Gamma(1/2)=sqrt(pi)
    collapses it to pi^{-d/2} Gamma((d+1)/2))."""
    alpha = 2.0 if spec.family == GAUSSIAN else spec.alpha
    if spec.family in (POISSON, POLY) or alpha <= 1.0:
        raise DivergentMomentError(
            "the d-th radial moment diverges unless alpha is in (1, 2]"
        )
    return poisson_constant(spec.d) * math.gamma(1.0 - 1.0 / alpha)
