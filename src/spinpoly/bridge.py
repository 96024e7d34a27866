"""Laplace-transform bridge between the exponential and Cayley coefficients,
plus the eigenvalue-dependent parameter map alpha(theta) ("parameter shear").

B_k(alpha) = (1/k!) * integral_0^inf e^{-t} A_k(2*alpha*t) dt.  The primary
path is fully analytic: the central-factorial expansion of A_k turns the
integral into closed-form products, term by term.  Gauss-Legendre
quadrature of the defining integral is kept as an independent oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Tuple

from .cayley import scaled_b
from .cfn import cfn_pair
from .expcoeffs import exp_grid
from .halfint import HalfInt

# ((m, c_m) for m = col, col + 2, ..., 2j; top): see laplace_column
LaplaceColumn = Tuple[Tuple[Tuple[int, int], ...], int]


def b_from_a_laplace(j: HalfInt, k: int, alpha) -> Fraction:
    """B_k(alpha) by transforming the exponential coefficient analytically.

    Even 2j-k substitutes the central-factorial sum of A_k directly; odd
    2j-k first rewrites A_k through the derivative relation, which lands
    every term in the sin/cos-power integral family.  alpha is any exact
    rational (a float is taken at its exact value); the result is exact.
    It is _laplace_ints in lowest terms.
    """
    return Fraction(*_laplace_ints(j.two_j, k, *Fraction(alpha).as_integer_ratio()))


def _laplace_ints(two_j: int, k: int, p: int, q: int) -> Tuple[int, int]:
    """scaled_laplace's unreduced pair for B_k at alpha = p/q, over k's own column.

    Raises ValueError on a k outside 0..2j.
    """
    if not 0 <= k <= two_j:
        raise ValueError(f"k must lie in 0..{two_j}, got {k}")
    return scaled_laplace(two_j, k, laplace_column(two_j, k + (two_j - k) % 2), p, q)


def laplace_column(two_j: int, col: int) -> LaplaceColumn:
    """The alpha-independent part of the transform through column col: (terms, top).

    top is the largest power of 4 under the t(m, col), m = col, col + 2,
    ..., 2j, and terms pairs each such m with |t(m, col)| 2**(m - col) top,
    an integer.  B_k reads column k when 2j - k is even and k + 1 when it
    is odd, so one column serves k = col and k = col - 1.
    """
    pairs = [(m, *cfn_pair(m, col)) for m in range(col, two_j + 1, 2)]
    top = max(den for _, _, den in pairs)
    return tuple((m, (abs(num) << m - col) * (top // den)) for m, num, den in pairs), top


def scaled_laplace(two_j: int, k: int, column: LaplaceColumn, p: int, q: int) -> Tuple[int, int]:
    """B_k at alpha = p/q as an unreduced integer pair (num, den > 0).

    column is laplace_column(two_j, col), col = k + (2j - k) % 2.  With
    delta = col - k and F_r = q^2 + r^2 p^2, the term of index m is
    c_m alpha**(m - delta) / prod (1 + r^2 alpha^2)
    = c_m p**(m - delta) q**e / prod F_r over 0 < r <= m, r = m mod 2, where
    e = m % 2 + delta is the same for every term.  So the sum has one
    integer denominator, top times prod F_r up to r = 2j, and one Horner
    pass over m builds its numerator.
    """
    delta = (two_j - k) % 2  # 1: the sin**(m-1) cos family of column k + 1
    col = k + delta
    terms, top = column
    num = 0
    den = top
    for r in range(2 - col % 2, col, 2):
        den *= q * q + r * r * p * p
    for m, c in terms:
        f = q * q + m * m * p * p if m else 1  # r = 0 is no factor
        num = num * f + c * p ** (m - delta)
        den *= f
    return num * q ** (col % 2 + delta), den


class LaplacePair(NamedTuple):
    """A single (j, k, alpha) comparison between the exact Cayley table
    and the Laplace transform of the exponential coefficient."""

    j: HalfInt
    k: int
    alpha: float
    b_direct: float
    b_via_laplace: float

    @property
    def consistent(self) -> bool:
        # each side is the exact B_k(alpha) rounded once: any gap is a fault
        return self.b_direct == self.b_via_laplace


def laplace_pair(j: HalfInt, k: int, alpha: float) -> LaplacePair:
    """B_k(alpha) from the Cayley table and from the Laplace transform, as floats.

    alpha is taken at its exact value p/q.  The direct value is scaled_b's
    one numerator for k over its denominator, the transformed one the pair
    that b_from_a_laplace reduces: each one int/int division, so each is
    the exact B_k(alpha) rounded once, eval_coeffs(j, alpha)[0][k] and
    float(b_from_a_laplace(j, k, alpha)) bit for bit.  Raises ValueError
    on a k outside 0..2j.
    """
    p, q = Fraction(alpha).as_integer_ratio()
    via_num, via_den = _laplace_ints(j.two_j, k, p, q)
    (num,), den = scaled_b(j.two_j, p, q, (k,))
    return LaplacePair(j, k, alpha, num / den, via_num / via_den)


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    by Newton iteration from Chebyshev-angle starting guesses."""
    nodes = []
    weights = []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        dp = 0.0
        for _ in range(100):
            p0, p1 = 1.0, x
            for m in range(2, n + 1):
                p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            dx = p1 / dp
            x -= dx
            if abs(dx) < 1e-15:
                break
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return tuple(nodes), tuple(weights)


QUADRATURE_T = 40.0
QUADRATURE_PANELS = 64
QUADRATURE_MAX_PANELS = 4096


def _quadrature_panels(two_j: int, alpha: float) -> int:
    # quadrature_check's panel rule, clamped as a float: an inf count is the cap
    periods = abs(alpha) * (two_j * QUADRATURE_T / (2.0 * math.pi))
    if not periods < QUADRATURE_MAX_PANELS:
        return QUADRATURE_MAX_PANELS
    return max(QUADRATURE_PANELS, math.ceil(periods))


def quadrature_check(j: HalfInt, k: int, alpha: float) -> float:
    """Composite Gauss-Legendre value of (1/k!) int_0^T e^{-t} A_k(2*alpha*t) dt.

    T is QUADRATURE_T, cut into panels of 8 nodes each: one panel per
    period of the integrand's fastest term, whose angular frequency in t is
    |alpha| 2j, so ceil(|alpha| 2j T / (2 pi)) panels, but at least
    QUADRATURE_PANELS = 64 and at most QUADRATURE_MAX_PANELS = 4096.  The
    dropped tail is below e^-T ~ 4e-18 times the integrand scale;
    agreement with b_from_a_laplace within 1e-7 + e^-T is the acceptance
    bar, which an integrand with more periods than the cap may miss.  A_k
    is evaluated at points up to 2*|alpha|*T, so that product must be
    finite.  The weighted sum is divided by k! exactly, so no k overflows
    a float factorial.
    """
    nodes, weights = gauss_legendre(8)
    panels = _quadrature_panels(j.two_j, alpha)
    h = QUADRATURE_T / panels
    points = [
        ((p + 0.5) * h + 0.5 * h * x, w)
        for p in range(panels)
        for x, w in zip(nodes, weights)
    ]
    values = exp_grid(j, [2.0 * alpha * t for t, _ in points], (k,))
    total = 0.0
    for (t, w), (a,) in zip(points, values):
        total += w * math.exp(-t) * a
    return float(Fraction(total * 0.5 * h) / math.factorial(k))


def alpha_from_theta(m_eig: float, theta: float) -> float:
    """alpha(theta) = tan(m*theta/2) / (2m) for the eigenvalue m of n.J."""
    if m_eig == 0:
        raise ValueError("the m = 0 eigenstate fixes no relation between the parameters")
    half = (m_eig / 2.0) * theta  # halving m first, so m*theta cannot overflow alone
    if abs(math.cos(half)) < 1e-15:
        raise ValueError(f"tan pole: m*theta/2 = {half} is an odd multiple of pi/2")
    return math.tan(half) / (2.0 * m_eig)
