"""Angle-dependent coefficients of the spin rotation polynomial.

For spin j the rotation exp(i*theta*n.J) equals
sum_k (1/k!) A_k(theta) (2i n.J)**k with k = 0..2j.  Each A_k is
sin(theta/2)**k times an optional cos(theta/2) factor times a truncated
power series in x = sin(theta/2)**2 whose Taylor coefficients are exact
rationals read off one column of the central factorial table: column k
when 2j - k is even, column k + 1 when it is odd, through the identity
(arcsin s)**k / sqrt(1 - s**2) = d/ds (arcsin s)**(k+1) / (k+1).  Three
generation paths are provided (truncated series, direct central-factorial
sum, derivative relation); they must agree and are tested against each
other.

The series cache is exact and per (j, k); floats enter only when a table
is evaluated at a concrete angle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Tuple

from .cfn import cfn
from .exact import Poly, i_power_sum, poly, poly_eval
from .halfint import HalfInt


def epsilon(j: HalfInt, k: int) -> int:
    """Parity marker: 0 when 2j - k is even, 1 when odd."""
    if not 0 <= k <= j.two_j:
        raise ValueError(f"k must lie in 0..{j.two_j}, got {k}")
    return (j.two_j - k) % 2


@lru_cache(maxsize=None)
def _series(two_j: int, k: int) -> Poly:
    """Exact truncation entering A_k for spin two_j/2, at order floor(j - k/2).

    Coefficient r is k! 4**r / (k + 2r)! * |t(col + 2r, col)|.  With
    col = k this is the series of (arcsin(sqrt x)/sqrt x)**k; with
    col = k + 1, used when 2j - k is odd, it is that series times
    (1 - x)**(-1/2), since (arcsin s)**k / sqrt(1 - s**2) is the
    derivative of (arcsin s)**(k+1) / (k+1).
    """
    col = k + (two_j - k) % 2
    kfact = math.factorial(k)
    coeffs = []
    for r in range((two_j - k) // 2 + 1):
        t = cfn(col + 2 * r, col)
        num = kfact * 4**r * abs(t.numerator)
        coeffs.append(Fraction(num, math.factorial(k + 2 * r) * t.denominator))
    return poly(coeffs)


@lru_cache(maxsize=None)
def _series_float(two_j: int, k: int) -> Tuple[float, ...]:
    return tuple(float(c) for c in _series(two_j, k))


def a_coeff_trunc(j: HalfInt, k: int, theta: float) -> float:
    """A_k(theta) from the truncated-series formula (the canonical path)."""
    eps = epsilon(j, k)
    s = math.sin(theta / 2.0)
    val = poly_eval(_series_float(j.two_j, k), s * s)
    val *= s**k
    if eps:
        val *= math.cos(theta / 2.0)
    return val


@lru_cache(maxsize=None)
def _cfn_sum_terms(two_j: int, k: int) -> Tuple[Tuple[int, float], ...]:
    # (m, k!/2^k * 2^m/m! * |t(m,k)|) for m = k..2j with the parity of k
    kfact = math.factorial(k)
    terms = []
    for m in range(k, two_j + 1, 2):
        c = Fraction(kfact * 2**m, 2**k * math.factorial(m)) * abs(cfn(m, k))
        if c:
            terms.append((m, float(c)))
    return tuple(terms)


def a_coeff_cfn_series(j: HalfInt, k: int, theta: float) -> float:
    """A_k(theta) by the direct central-factorial sum; needs 2j - k even."""
    if epsilon(j, k):
        raise ValueError(f"2j - k must be even, got 2j={j.two_j}, k={k}")
    s = math.sin(theta / 2.0)
    return math.fsum(c * s**m for m, c in _cfn_sum_terms(j.two_j, k))


def a_coeff_derivative_path(j: HalfInt, k: int, thetas: Iterable[float]) -> list[float]:
    """A_{k-1} on a grid, from the derivative relation A_{k-1} = (2/k) dA_k/dtheta.

    Requires 2j - k even (so A_k carries the central-factorial sum); the
    differentiation is done analytically term by term.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if epsilon(j, k):
        raise ValueError(f"2j - k must be even, got 2j={j.two_j}, k={k}")
    terms = _cfn_sum_terms(j.two_j, k)
    out = []
    for theta in thetas:
        s = math.sin(theta / 2.0)
        c = math.cos(theta / 2.0)
        # (2/k) d/dtheta [coef * s**m] = (coef * m / k) * s**(m-1) * c
        out.append(math.fsum(co * m / k * s ** (m - 1) * c for m, co in terms))
    return out


@dataclass(frozen=True)
class ExpCoeffTable:
    """A_0..A_2j at a fixed angle, plus the matrix-power normalization."""

    j: HalfInt
    theta: float
    A: Tuple[float, ...]

    def matrix_coefficients(self) -> Tuple[complex, ...]:
        """Coefficients of (n.J)**k, i.e. (1/k!) A_k (2i)**k."""
        return tuple(
            a * (2j) ** k / math.factorial(k) for k, a in enumerate(self.A)
        )


def exp_poly(j: HalfInt, theta: float) -> ExpCoeffTable:
    """Full coefficient table at one angle, via the truncated-series path."""
    return ExpCoeffTable(
        j, theta, tuple(a_coeff_trunc(j, k, theta) for k in range(j.two_j + 1))
    )


# ---------------------------------------------------------------------------
# exact reconstruction oracle
#
# Floats are ill-conditioned here: at large 2j the terms of the
# reconstruction sum reach ~1e14 before cancelling to unit modulus.  The
# oracle therefore evaluates everything over exact rationals, entering
# through a rational point (s, c) that lies *exactly* on the unit circle
# (tan-half-angle parameterization), where the polynomial identity
# sum_k (1/k!) A_k (i*M)**k == (c + i s)**M holds exactly per eigenvalue
# M of S.  Floats appear only in the final comparison against exp.
# ---------------------------------------------------------------------------


def circle_point(theta: float) -> tuple[Fraction, Fraction]:
    """Rational (sin(theta/2), cos(theta/2)) exactly on the unit circle."""
    t = Fraction(math.tan(theta / 4.0)).limit_denominator(10**12)
    d = 1 + t * t
    return 2 * t / d, (1 - t * t) / d


def a_coeff_exact(j: HalfInt, k: int, s: Fraction, c: Fraction) -> Fraction:
    """A_k evaluated exactly at a rational circle point (s, c)."""
    val = poly_eval(_series(j.two_j, k), s * s) * s**k
    if epsilon(j, k):
        val *= c
    return val


def _unit_cpow(re: Fraction, im: Fraction, n: int) -> tuple[Fraction, Fraction]:
    # (re + i*im)**n for a point on the unit circle; negative n conjugates
    if n < 0:
        re, im, n = re, -im, -n
    out = (Fraction(1), Fraction(0))
    base = (re, im)
    while n:
        if n & 1:
            out = (out[0] * base[0] - out[1] * base[1], out[0] * base[1] + out[1] * base[0])
        base = (base[0] ** 2 - base[1] ** 2, 2 * base[0] * base[1])
        n >>= 1
    return out


@dataclass(frozen=True)
class ExpReconstruction:
    j: HalfInt
    theta: float
    max_error: float   # worst |sum - exp(i theta m)| over the spectrum
    exact: bool        # whether the rational identity held bit-exactly


def exp_reconstruction(j: HalfInt, theta: float) -> ExpReconstruction:
    """Check sum_k (1/k!) A_k (2i m)**k == e^{i theta m} on the spectrum."""
    s, c = circle_point(theta)
    avals = [a_coeff_exact(j, k, s, c) for k in range(j.two_j + 1)]
    max_err = 0.0
    exact = True
    for m2 in range(j.two_j, -j.two_j - 1, -2):  # M = 2m runs over eigvals of S
        re, im = i_power_sum(
            a * Fraction(m2) ** k / math.factorial(k) for k, a in enumerate(avals)
        )
        ere, eim = _unit_cpow(c, s, m2)
        if (re, im) != (ere, eim):
            exact = False
        err = abs(complex(float(re), float(im)) - cmath.exp(1j * theta * m2 / 2.0))
        max_err = max(max_err, err)
    return ExpReconstruction(j, theta, max_err, exact)
