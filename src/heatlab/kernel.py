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
from scipy.integrate import quad
from scipy.special import gammaincc, gammaln

from .errors import DivergentMomentError, QuadratureError, RegimeError
from .stable import _gl_nodes_weights, density

GAUSSIAN = "gaussian"
POISSON = "poisson"
STABLE = "stable"
POLY = "poly"

_FAMILIES = (GAUSSIAN, POISSON, STABLE, POLY)


def unit_ball_volume(d):
    """w_d = pi^{d/2} / Gamma(1 + d/2), the volume of the unit ball."""
    if d < 1:
        raise ValueError(f"dimension d={d} must be >= 1")
    return math.exp((d / 2.0) * math.log(math.pi) - gammaln(1.0 + d / 2.0))


def unit_sphere_area(d):
    """A_d = d w_d, the surface area of the unit sphere in R^d."""
    if d < 1:
        raise ValueError(f"dimension d={d} must be >= 1")
    return d * unit_ball_volume(d)


def poisson_constant(d):
    """kappa_d = Gamma((d+1)/2) / pi^{(d+1)/2}."""
    if d < 2:
        raise ValueError(f"dimension d={d} must be >= 2")
    return math.exp(gammaln((d + 1) / 2.0) - ((d + 1) / 2.0) * math.log(math.pi))


def stable_tail_constant(alpha, d):
    """C_{alpha,d} = alpha 2^{alpha-1} pi^{-1-d/2} sin(pi alpha/2)
    Gamma((d+alpha)/2) Gamma(alpha/2): the coefficient of the t r^{-d-alpha}
    small-t tail of the stable kernel."""
    if not 0.0 < alpha < 2.0:
        raise RegimeError(f"stable index alpha={alpha} outside (0, 2)")
    if d < 2:
        raise ValueError(f"dimension d={d} must be >= 2")
    return (
        alpha
        * 2.0 ** (alpha - 1.0)
        * math.pi ** (-1.0 - d / 2.0)
        * math.sin(math.pi * alpha / 2.0)
        * math.exp(gammaln((d + alpha) / 2.0) + gammaln(alpha / 2.0))
    )


@dataclass(frozen=True)
class ScalingExponents:
    """p_t(x) = t^beta p_1(t^{-gamma} x)."""

    beta: float
    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("scaling exponent gamma must be positive")


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and subdivision limit for the numerical kernel paths."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


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
        if self.d < 2:
            raise ValueError(f"dimension d={self.d} must be >= 2")
        if self.family == STABLE:
            if self.alpha is None or not 0.0 < self.alpha < 2.0:
                raise RegimeError(
                    f"stable index alpha={self.alpha} outside (0, 2); "
                    "use the gaussian family for alpha=2"
                )
        elif self.family == POLY:
            if not (self.kappa and self.kappa > 0 and self.n and self.n > 0 and self.m and self.m > 0):
                raise ValueError("poly family requires kappa > 0, n > 0, m > 0")
            if abs(self.d - self.n * self.m + 1.0) > 1e-12 * (1.0 + abs(self.n * self.m)):
                raise ValueError(
                    f"poly family requires d - n*m = -1 exactly, got {self.d - self.n * self.m}"
                )
            if self.beta is None or self.gamma is None or not self.gamma > 0:
                raise ValueError("poly family requires scaling exponents beta and gamma > 0")

    @classmethod
    def gaussian(cls, d):
        return cls(family=GAUSSIAN, d=int(d), alpha=2.0)

    @classmethod
    def poisson(cls, d):
        return cls(family=POISSON, d=int(d), alpha=1.0)

    @classmethod
    def stable(cls, alpha, d):
        return cls(family=STABLE, d=int(d), alpha=float(alpha))

    @classmethod
    def poly_family(cls, d, kappa, n, m, beta, gamma):
        return cls(
            family=POLY,
            d=int(d),
            kappa=float(kappa),
            n=float(n),
            m=float(m),
            beta=float(beta),
            gamma=float(gamma),
        )

    def scaling(self):
        if self.family == POLY:
            return ScalingExponents(beta=self.beta, gamma=self.gamma)
        return ScalingExponents(beta=-self.d / self.alpha, gamma=1.0 / self.alpha)


_DEFAULT_CFG = QuadratureConfig()

# Radius where l1_norm hands the non-stable families from quadrature to
# their analytic tail mass.
_L1_TAIL_SPLIT = 10.0


def _density(spec, cfg):
    return density(spec.alpha, spec.d, abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol)


def eval_p1(spec, r, cfg=_DEFAULT_CFG):
    """p_1(r e_d); r may be a scalar or an array of nonnegative radii."""
    arr = np.asarray(r, dtype=float)
    if not np.all(arr >= 0):  # also rejects NaN
        raise ValueError("radius must be nonnegative")
    scalar = arr.ndim == 0
    if spec.family == GAUSSIAN:
        out = (4.0 * math.pi) ** (-spec.d / 2.0) * np.exp(-(arr**2) / 4.0)
    elif spec.family == POISSON:
        out = poisson_constant(spec.d) * (1.0 + arr**2) ** (-(spec.d + 1) / 2.0)
    elif spec.family == POLY:
        out = spec.kappa * (1.0 + arr**spec.n) ** (-spec.m)
    else:
        out = np.asarray(_density(spec, cfg).evaluate(arr))
    return float(out) if scalar else out


def eval_pt(spec, t, r, cfg=_DEFAULT_CFG):
    """p_t(r e_d) = t^beta p_1(t^{-gamma} r)."""
    if t <= 0:
        raise ValueError(f"time t={t} must be positive")
    sc = spec.scaling()
    return t**sc.beta * eval_p1(spec, np.asarray(r, dtype=float) * t**-sc.gamma, cfg)


def _integrate_power_against_table(dens, q):
    """int_0^{r_switch} r^q p_1(r) dr, exact for the piecewise-cubic table.

    Gauss-Legendre 16 per table interval integrates r^q * (cubic) exactly for
    q <= 28, far above any moment used here.
    """
    nodes, weights = _gl_nodes_weights(dens.table_nodes)
    return float(weights @ (nodes**q * dens.evaluate(nodes)))


def _poly_tail_mass(d, kappa, n, m, R, shift=0.0):
    """int_R^inf r^{d-1+shift} (1+r^n)^{-m} dr * kappa via the binomial series
    in r^{-n}; requires R > 1 (used with R >= 2) and convergent exponents."""
    j = np.arange(0, 60, dtype=float)
    expo = n * m + n * j - d - shift
    # (-1)^j binom(m+j-1, j): pole-free form of binom(-m, j) for integer m
    coeff = (-1.0) ** j * np.exp(gammaln(m + j) - gammaln(m) - gammaln(j + 1.0))
    terms = coeff * R ** (-expo) / expo
    return kappa * float(terms.sum())


def tail_mass(spec, R, cfg=_DEFAULT_CFG):
    """int_R^inf r^{d-1} p_1(r) dr, via analytic tails (power series for the
    algebraic families, incomplete Gamma for Gaussian, the stable inverse-power
    series beyond the table)."""
    d = spec.d
    if not R >= 0:
        raise ValueError("radius must be nonnegative")
    if spec.family == GAUSSIAN:
        return (
            (4.0 * math.pi) ** (-d / 2.0)
            * 2.0 ** (d - 1)
            * math.exp(gammaln(d / 2.0))
            * float(gammaincc(d / 2.0, R * R / 4.0))
        )
    if spec.family == POISSON:
        return _series_or_quad_tail(d, poisson_constant(d), 2.0, (d + 1) / 2.0, R, 0.0, cfg)
    if spec.family == POLY:
        return _series_or_quad_tail(d, spec.kappa, spec.n, spec.m, R, 0.0, cfg)
    dens = _density(spec, cfg)
    if R >= dens.r_switch:
        return dens.tail_mass(R)[0]
    # complement against the exact unit L1 norm of the stable density
    nodes, weights = _gl_nodes_weights(np.linspace(0.0, R, 200))
    head = float(weights @ (nodes ** (d - 1) * dens.evaluate(nodes)))
    return 1.0 / unit_sphere_area(d) - head


def _series_or_quad_tail(d, kappa, n, m, R, shift, cfg):
    Rs = max(R, 2.0)
    val = _poly_tail_mass(d, kappa, n, m, Rs, shift)
    if Rs > R:
        bridge, err = quad(
            lambda r: kappa * r ** (d - 1 + shift) * (1.0 + r**n) ** (-m),
            R,
            Rs,
            epsabs=0.1 * cfg.abs_tol,
            epsrel=0.1 * cfg.rel_tol,
            limit=cfg.max_subdivisions,
        )
        val += bridge
    return val


def tail_moment(spec, R, cfg=_DEFAULT_CFG):
    """int_R^inf r^d p_1(r) dr; finite only for Gaussian and stable alpha>1."""
    d = spec.d
    if spec.family == GAUSSIAN:
        return (
            (4.0 * math.pi) ** (-d / 2.0)
            * 2.0**d
            * math.exp(gammaln((d + 1) / 2.0))
            * float(gammaincc((d + 1) / 2.0, R * R / 4.0))
        )
    if spec.family in (POISSON, POLY) or spec.alpha <= 1.0:
        raise DivergentMomentError(
            "the d-th radial moment diverges unless alpha is in (1, 2) "
            "(Gaussian included as the alpha=2 endpoint)"
        )
    dens = _density(spec, cfg)
    if R >= dens.r_switch:
        return dens.tail_moment(R)[0]
    nodes, weights = _gl_nodes_weights(np.linspace(0.0, R, 200))
    head = float(weights @ (nodes**d * dens.evaluate(nodes)))
    return moment_d(spec, cfg) - head


def l1_norm(spec, cfg=_DEFAULT_CFG):
    """A_d int_0^inf r^{d-1} p_1(r) dr by quadrature with analytic tails."""
    d = spec.d
    if spec.family == STABLE:
        dens = _density(spec, cfg)
        head = _integrate_power_against_table(dens, d - 1)
        radial = head + dens.tail_mass(dens.r_switch)[0]
        return unit_sphere_area(d) * radial
    head, err = quad(
        lambda r: r ** (d - 1) * eval_p1(spec, r, cfg),
        0.0,
        _L1_TAIL_SPLIT,
        epsabs=0.1 * cfg.abs_tol,
        epsrel=0.1 * cfg.rel_tol,
        limit=cfg.max_subdivisions,
    )
    if err > max(cfg.abs_tol, cfg.rel_tol * abs(head)):
        raise QuadratureError("L1-norm quadrature did not converge", err)
    return unit_sphere_area(d) * (head + tail_mass(spec, _L1_TAIL_SPLIT, cfg))


def l1_norm_closed_form(spec):
    """Exact L1 norm: 1 for the Fourier-normalized families, the Beta-integral
    value A_d kappa B(d/n, m - d/n)/n for the poly family."""
    if spec.family == POLY:
        d, n, m = spec.d, spec.n, spec.m
        logb = gammaln(d / n) + gammaln(m - d / n) - gammaln(m)
        return unit_sphere_area(d) * spec.kappa * math.exp(logb) / n
    return 1.0


def moment_d(spec, cfg=_DEFAULT_CFG):
    """int_0^inf r^d p_1(r) dr by quadrature; finite only for alpha in (1, 2]
    (Gaussian = alpha 2 endpoint).  Divergent regimes raise."""
    d = spec.d
    if spec.family == GAUSSIAN:
        val, err = quad(
            lambda r: r**d * eval_p1(spec, r, cfg),
            0.0,
            42.0,
            epsabs=0.1 * cfg.abs_tol,
            epsrel=0.1 * cfg.rel_tol,
            limit=cfg.max_subdivisions,
        )
        return val
    if spec.family in (POISSON, POLY) or spec.alpha <= 1.0:
        raise DivergentMomentError(
            "the d-th radial moment diverges unless alpha is in (1, 2) "
            "(Gaussian included as the alpha=2 endpoint)"
        )
    dens = _density(spec, cfg)
    head = _integrate_power_against_table(dens, d)
    return head + dens.tail_moment(dens.r_switch)[0]


def moment_d_closed_form(spec):
    """Gamma((d+1)/2) pi^{-(d+1)/2} Gamma(1 - 1/alpha), valid for stable
    alpha in (1,2) and for Gaussian (alpha=2, where Gamma(1/2)=sqrt(pi)
    collapses it to pi^{-d/2} Gamma((d+1)/2))."""
    alpha = 2.0 if spec.family == GAUSSIAN else spec.alpha
    if spec.family in (POISSON, POLY) or alpha <= 1.0:
        raise DivergentMomentError(
            "the d-th radial moment diverges unless alpha is in (1, 2]"
        )
    d = spec.d
    return math.exp(
        gammaln((d + 1) / 2.0)
        - ((d + 1) / 2.0) * math.log(math.pi)
        + gammaln(1.0 - 1.0 / alpha)
    )


@dataclass(frozen=True)
class TailBoundReport:
    """Empirical check of the small-t tail behaviour of a stable kernel."""

    alpha: float
    d: int
    t_grid: tuple
    r_grid: tuple
    limit_ratios: tuple  # p_t(r) / (t C_{alpha,d} r^{-d-alpha}) at smallest t
    max_limit_deviation: float
    envelope_constant: float  # smallest two-sided c for min{t^{-d/a}, t r^{-d-a}}


def tail_bound_check(spec, t_grid, r_grid, cfg=_DEFAULT_CFG):
    """Report (a) convergence of p_t(r)/(t C r^{-d-alpha}) to 1 at the smallest
    t and (b) the smallest empirical two-sided constant for the
    min{t^{-d/alpha}, t r^{-d-alpha}} envelope over the sampled grid."""
    if spec.family != STABLE:
        raise RegimeError("tail_bound_check applies to the stable family")
    ts = np.sort(np.asarray(t_grid, dtype=float))
    rs = np.asarray(r_grid, dtype=float)
    if np.any(ts <= 0) or np.any(rs <= 0):
        raise ValueError("tail check requires positive times and radii")
    C = stable_tail_constant(spec.alpha, spec.d)
    d, alpha = spec.d, spec.alpha
    c_env = 1.0
    for t in ts:
        p = np.asarray(eval_pt(spec, float(t), rs, cfg))
        env = np.minimum(t ** (-d / alpha), t * rs ** (-d - alpha))
        ratio = p / env
        pos = ratio > 0
        c_env = max(c_env, float(ratio[pos].max()), float((1.0 / ratio[pos]).max()))
    t0 = float(ts[0])
    lim = np.asarray(eval_pt(spec, t0, rs, cfg)) / (t0 * C * rs ** (-d - alpha))
    return TailBoundReport(
        alpha=alpha,
        d=d,
        t_grid=tuple(float(t) for t in ts),
        r_grid=tuple(float(r) for r in rs),
        limit_ratios=tuple(float(x) for x in lim),
        max_limit_deviation=float(np.max(np.abs(lim - 1.0))),
        envelope_constant=float(c_env),
    )
