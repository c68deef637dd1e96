"""The special functions heatlab needs, on numpy and ``math`` alone.

Log-Gamma is ``math.lgamma`` (``lgamma`` maps it over an array), and
``beta`` is the complete Beta function.  The incomplete Beta and Gamma
functions of the paper's balls and kernels have integer or half-integer
parameters, so each has an elementary form that sums positive terms only:

* ``sine_beta``: B_x(p, b) = int_0^x t^{p-1} (1-t)^{b-1} dt at x = sin^2 phi,
  for p = 1/2 or 3/2 and b a positive multiple of 1/2 -- the ball lens
  (p = 3/2, b = (d-1)/2) and the Poisson tail mass (p = 1/2, b = d/2);
* ``theta``: (1/2) B_{z^2}((d-1)/2, 3/2), the Theta of the ball's Cauchy
  decomposition;
* ``upper_gamma``: Gamma(d/2, y^2), the Gaussian tail mass.

Only the poly family's B_x(1/n, d/n) has general parameters;
``incomplete_beta`` sums its continued fraction.
"""

import functools
import math

import numpy as np

from .errors import QuadratureError

# fdlibm's split of ln 2: k * _LN2_HI is exact for |k| < 2^21
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter

# terms the continued fraction of ``incomplete_beta`` may take before it raises
_CF_TERMS = 1000
_CF_TINY = 1e-300


def lgamma(x):
    """``math.lgamma`` over a 1-d array."""
    return np.fromiter(map(math.lgamma, x), float, len(x))


def beta(a, b):
    """B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b) for a, b > 0, from ``math.gamma``
    (within a few ulp) where no factor can overflow, else from log-Gamma."""
    if min(a, b) > 1e-3 and a + b < 171.0:
        return math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def sine_beta(p2, b2, sn, cs, phi):
    """B_x(p2/2, b2/2) at x = sn^2, given cs = sqrt(1 - x) >= 0 and phi =
    arcsin sn (read only for odd b2), for p2 in {1, 3} and an integer b2 >= 1;
    sn, cs and phi are floats or arrays.

    With x = sin^2 phi, B_x(p, b) = 2 int_0^phi sin^{2p-1} t cos^{2b-1} t dt:
    the base b = 1/2 is 2 phi (p = 1/2) or phi - sn cs (p = 3/2), and b = 1 is
    2 sn or (2/3) sn^3.  Then
    B_x(p, b + 1) = (x^p (1-x)^b + b B_x(p, b)) / (p + b)
    adds positive terms only.  The p = 3/2, b = 1/2 base loses relative
    accuracy as phi -> 0 (phi - sin phi cos phi ~ (2/3) phi^3); the ball lens
    adds it to a term of order phi, which it does not disturb."""
    p = p2 / 2.0
    if b2 % 2:
        b = 0.5
        out = 2.0 * phi if p2 == 1 else phi - sn * cs
    else:
        b = 1.0
        out = 2.0 * sn if p2 == 1 else (2.0 / 3.0) * (sn * sn * sn)
    if b2 > 2:
        y = cs * cs
        power = (sn if p2 == 1 else sn * sn * sn) * (cs if b2 % 2 else y)  # x^p (1-x)^b
        for _ in range((b2 - 1) // 2):
            out = (power + b * out) / (p + b)
            power = power * y
            b += 1.0
    return out


@functools.cache
def _gl_unit(panels):
    """A composite 12-node Gauss-Legendre rule on [0, 1] (numpy's rules of 18
    and more nodes are off by 1e-14)."""
    nodes, weights = np.polynomial.legendre.leggauss(12)
    starts = np.arange(panels)[:, None]
    return ((starts + 0.5 * (nodes + 1.0)) / panels).ravel(), np.tile(0.5 * weights / panels, panels)


def theta(d, z):
    """Theta(z) = int_0^{arcsin z} sin^{d-2} t cos^2 t dt = (1/2) B_{z^2}((d-1)/2, 3/2)
    for an integer d >= 2 and z in [0, 1] (float or array).

    d = 2: (arcsin z + z c) / 2 with c = sqrt(1 - z^2); d = 3: (1 - c^3) / 3,
    written z^2 (1 + c + c^2) / (3 (1 + c)) so that it does not cancel as
    z -> 0.  From d = 4 on every recurrence in (d-1)/2 subtracts, so the
    integral runs on 1 + d // 6 panels of a 12-node Gauss-Legendre rule over
    [0, arcsin z], which integrate the degree-d trigonometric polynomial to
    rounding."""
    c = np.sqrt((1.0 - z) * (1.0 + z))
    if d == 2:
        return 0.5 * (np.arcsin(z) + z * c)
    if d == 3:
        return z * z * (1.0 + c + c * c) / (3.0 * (1.0 + c))
    phi = np.arcsin(z)
    acc = 0.0
    for u, w in zip(*_gl_unit(1 + d // 6)):
        t = u * phi
        cs = np.cos(t)
        acc = acc + w * np.sin(t) ** (d - 2) * (cs * cs)
    return phi * acc


def _times_exp_neg(factor, hi, lo):
    """factor e^{-(hi + lo)} for hi >= 0, with exp's range reduction done here
    so that it underflows only when the product does."""
    k = round(hi / math.log(2.0))
    r = (hi - k * _LN2_HI) - k * _LN2_LO + lo
    mantissa, exponent = math.frexp(factor)
    return math.ldexp(mantissa * math.exp(-r), exponent - k)


def upper_gamma(d, y, scale=1.0):
    """scale Gamma(d/2, y^2) for an integer d >= 1 and y >= 0, as a finite sum.

    With s = d/2 and x = y^2,
    Gamma(s, x) = e^{-x} sum_j Gamma(s)/Gamma(j+1) x^j  (+ Gamma(s) erfc(y) for odd d),
    j = s-1, s-2, ... down to 0 (even d) or 1/2 (odd d).  x enters e^{-x} as
    the exact sum hi + lo of Dekker's product, so the result keeps its relative
    accuracy where x is large, and ``_times_exp_neg`` lets it underflow only
    with the product."""
    if y > 1e3:  # e^{-10^6}: nothing of any scale survives
        return 0.0
    hi = y * y
    c = _SPLIT * y
    y_hi = c - (c - y)
    y_lo = y - y_hi
    lo = ((y_hi * y_hi - hi) + 2.0 * y_hi * y_lo) + y_lo * y_lo
    odd = d % 2
    acc, coef, j = 1.0, 1.0, d / 2.0 - 1.0
    while j > 0.5 * odd:  # Horner over the coefficients Gamma(s)/Gamma(j+1), top one 1
        coef *= j
        acc = acc * hi + coef
        j -= 1.0
    out = _times_exp_neg(scale * acc * (y if odd else 1.0), hi, lo)
    if odd:  # coef = Gamma(s)/Gamma(3/2)
        out += scale * coef * (0.5 * math.sqrt(math.pi)) * math.erfc(y)
    return out


def _beta_fraction(a, b, x):
    """The continued fraction of B_x(a, b) / (x^a (1-x)^b / a), by modified Lentz."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0

    def step(value):
        return value if abs(value) > _CF_TINY else _CF_TINY

    c = 1.0
    den = 1.0 / step(1.0 - qab * x / qap)
    h = den
    for m in range(1, _CF_TERMS + 1):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            den = 1.0 / step(1.0 + aa * den)
            c = step(1.0 + aa / c)
            delta = den * c
            h *= delta
        if abs(delta - 1.0) <= np.finfo(float).eps:
            return h
    raise QuadratureError(
        f"incomplete Beta continued fraction at a={a:g}, b={b:g}, x={x:g} "
        f"did not settle in {_CF_TERMS} terms",
        residual=abs(delta - 1.0),
    )


def incomplete_beta(a, b, x, y):
    """B_x(a, b) = int_0^x t^{a-1} (1-t)^{b-1} dt for a, b > 0, x in [0, 1]
    and y = 1 - x (given, so that neither loses digits), by the continued
    fraction of Numerical Recipes §6.4 from the end where it converges fast:
    B(a, b) - B_y(b, a) for x > (a+1)/(a+b+2).  Raises ``QuadratureError``
    if ``_CF_TERMS`` terms do not settle it."""
    if x > (a + 1.0) / (a + b + 2.0):
        return beta(a, b) - incomplete_beta(b, a, y, x)
    if x == 0.0:
        return 0.0
    return x**a * y**b / a * _beta_fraction(a, b, x)
