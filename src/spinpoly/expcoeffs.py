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
other.  The truncated series is the production path: exp_grid evaluates
it over a grid of angles, and a_coeff_trunc and exp_poly are exp_grid at
one point.

Each coefficient is built once, down its column: coefficient r of column
col shares the running product (k + 1)...(k + 2r) with coefficient r - 1,
so it costs one shift and one small multiply, never a factorial.  It is
cached as the exact integer pair (num, den) together with num/den, one
float shared by every spin whose series reaches it; the float series is
those floats, the exact coefficients correctly rounded.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Tuple

from .cfn import cfn_pair
from .exact import Poly, i_power_parts, poly_eval
from .halfint import HalfInt


def epsilon(j: HalfInt, k: int) -> int:
    """Parity marker: 0 when 2j - k is even, 1 when odd."""
    if not 0 <= k <= j.two_j:
        raise ValueError(f"k must lie in 0..{j.two_j}, got {k}")
    return (j.two_j - k) % 2


@lru_cache(maxsize=None)
def _coef(k: int, col: int, r: int) -> Tuple[int, int, float]:
    """Coefficient r of the series for A_k read off column col, as (num, den, num/den).

    It is k! 4**r / (k + 2r)! * |t(col + 2r, col)|.  With col = k this is
    the series of (arcsin(sqrt x)/sqrt x)**k; with col = k + 1, used when
    2j - k is odd, it is that series times (1 - x)**(-1/2), since
    (arcsin s)**k / sqrt(1 - s**2) is the derivative of
    (arcsin s)**(k+1) / (k+1).

    With P_r = (k + 1)...(k + 2r) and |t| the row's integer (cfn_pair's
    num), the pair is (|t| << 2r, P_r) for even col.  For odd col the row
    integer carries 4**(r + (col - 1)/2), which cancels the 4**r, so the
    pair is (|t|, P_r << (col - 1)).  Either den is coefficient r - 1's
    times (k + 2r - 1)(k + 2r); _terms builds r - 1 first, so a miss
    recurses one level.  The pair is left unreduced: int/int division and
    Fraction both accept it, and a gcd would cost more.
    """
    t = abs(cfn_pair(col + 2 * r, col)[0])
    if r:
        den = _coef(k, col, r - 1)[1] * ((k + 2 * r - 1) * (k + 2 * r))
    else:
        den = 1 << (col - 1) if col % 2 else 1
    num = t if col % 2 else t << 2 * r
    return num, den, num / den


def _terms(two_j: int, k: int) -> list[Tuple[int, int, float]]:
    # the truncation entering A_k for spin two_j/2 has order floor(j - k/2),
    # built up r in order; its only exact zeros are the tail t(2r, 0) = 0
    # for k = col = 0, dropped
    col = k + (two_j - k) % 2
    terms = [_coef(k, col, r) for r in range((two_j - k) // 2 + 1)]
    while not terms[-1][0]:
        terms.pop()
    return terms


@lru_cache(maxsize=None)
def _series(two_j: int, k: int) -> Poly:
    """Exact truncation entering A_k for spin two_j/2 (see _coef)."""
    return tuple(Fraction(num, den) for num, den, _ in _terms(two_j, k))


@lru_cache(maxsize=None)
def _series_float(two_j: int, k: int) -> Tuple[float, ...]:
    """The truncation entering A_k, each coefficient its exact value correctly rounded.

    The floats are _coef's own, one int/int division per coefficient,
    shared with every other spin whose series reaches that coefficient.
    """
    return tuple([value for _, _, value in _terms(two_j, k)])


def exp_grid(
    j: HalfInt, thetas: Iterable[float], ks: Iterable[int] | None = None
) -> list[Tuple[float, ...]]:
    """A_k(theta) for each theta and each k in ks (default 0..2j): the one series evaluator.

    Returns one tuple per theta, in the order of ks.  Each series is
    fetched once per call; per point, the half-angle sine s and cosine c
    are taken once, and each A_k is Horner in s*s from the top coefficient
    down, times s**k, times c when 2j - k is odd.  a_coeff_trunc, exp_poly
    and every grid of the truncated series come through here, so they
    agree bit for bit.  Raises ValueError on a k outside 0..2j.
    """
    two_j = j.two_j
    ks = range(two_j + 1) if ks is None else ks
    # epsilon checks k before the series is read
    plan = [(k, epsilon(j, k), _series_float(two_j, k)[::-1]) for k in ks]
    out = []
    for theta in thetas:
        s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
        s2 = s * s
        row = []
        for k, odd, coeffs in plan:
            acc = 0 * s2
            for co in coeffs:
                acc = acc * s2 + co
            acc *= s**k
            if odd:
                acc *= c
            row.append(acc)
        out.append(tuple(row))
    return out


def a_coeff_trunc(j: HalfInt, k: int, theta: float) -> float:
    """A_k(theta) from the truncated-series formula: exp_grid at one point."""
    return exp_grid(j, (theta,), (k,))[0][0]


@lru_cache(maxsize=None)
def _cfn_sum_terms(two_j: int, k: int) -> Tuple[Tuple[int, float], ...]:
    # (m, k!/2^k * 2^m/m! * |t(m,k)|) for m = k..2j with the parity of k,
    # each one int/int division of cfn_pair's integers, so correctly rounded
    kfact = math.factorial(k)
    terms = []
    for m in range(k, two_j + 1, 2):
        num, den = cfn_pair(m, k)
        if num:
            terms.append((m, (kfact * abs(num) << m) / (math.factorial(m) * den << k)))
    return tuple(terms)


def a_coeff_cfn_series(j: HalfInt, k: int, thetas: Iterable[float]) -> list[float]:
    """A_k on a grid, by the direct central-factorial sum; needs 2j - k even."""
    if epsilon(j, k):
        raise ValueError(f"2j - k must be even, got 2j={j.two_j}, k={k}")
    terms = _cfn_sum_terms(j.two_j, k)
    out = []
    for theta in thetas:
        s = math.sin(theta / 2.0)
        out.append(math.fsum(c * s**m for m, c in terms))
    return out


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


class ExpCoeffTable(NamedTuple):
    """A_0..A_2j at a fixed angle."""

    j: HalfInt
    theta: float
    A: Tuple[float, ...]


def exp_poly(j: HalfInt, theta: float) -> ExpCoeffTable:
    """Full coefficient table at one angle: exp_grid at one point."""
    return ExpCoeffTable(j, theta, exp_grid(j, (theta,))[0])


# ---------------------------------------------------------------------------
# exact reconstruction oracle
#
# Floats are ill-conditioned here: at large 2j the terms of the
# reconstruction sum reach ~1e14 before cancelling to unit modulus.  The
# oracle therefore checks the identity exactly, entering through a rational
# point (s, c) = (2ab, b^2 - a^2) / (a^2 + b^2) that lies *exactly* on the
# unit circle (t = tan(theta/4) = a/b), where
# sum_k (1/k!) A_k (i*M)**k == (c + i s)**M holds per eigenvalue M of S.
# Scaled by L * (a^2 + b^2)**2j, with L the common denominator of the
# series coefficients, both sides are Gaussian integers.  Floats appear only
# in the final comparison against exp, each one int/int division.
# ---------------------------------------------------------------------------


def quarter_tan(theta: float) -> tuple[int, int]:
    """t = tan(theta/4) as a/b in lowest terms, b > 0: the rational point of theta."""
    return Fraction(math.tan(theta / 4.0)).limit_denominator(10**12).as_integer_ratio()


@lru_cache(maxsize=None)
def _recon_weights(two_j: int) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """(L, w): A_k/k! = sum_r w[k][r]/L * s**(k+2r) * c**eps, all integers.

    L is the least common denominator of the reduced coefficients
    num/(den k!) over every _terms pair of the spin.
    """
    fracs = [
        [Fraction(num, den * math.factorial(k)) for num, den, _ in _terms(two_j, k)]
        for k in range(two_j + 1)
    ]
    lcm = math.lcm(*(f.denominator for row in fracs for f in row))
    return lcm, tuple(
        tuple(f.numerator * (lcm // f.denominator) for f in row) for row in fracs
    )


def _recon_numerators(two_j: int, s: int, c: int, d: int) -> list[int]:
    """X_k = L d**2j A_k/k! at (sin, cos)(theta/2) = (s, c)/d, for k = 0..2j.

    X_k = c**eps s**k sum_r w_r s**2r d**(2j-k-eps-2r) with L and w from
    _recon_weights.  The sum runs by Horner in d**2 from r = 0 up, one
    big product w_r s**2r per term, and is then multiplied by d**2 once
    for each coefficient the zero tail of the series dropped from w.
    """
    w_all = _recon_weights(two_j)[1]
    s2, d2 = s * s, d * d
    s2_pow = [1]
    for _ in range(two_j // 2):
        s2_pow.append(s2_pow[-1] * s2)
    xs = []
    s_pow = 1
    for k, w in enumerate(w_all):
        acc = 0
        for wr, s2r in zip(w, s2_pow):
            acc = acc * d2 + wr * s2r
        x = s_pow * acc * d2 ** ((two_j - k) // 2 + 1 - len(w))
        xs.append(x * c if (two_j - k) % 2 else x)
        s_pow *= s
    return xs


class ExpReconstruction(NamedTuple):
    j: HalfInt
    theta: float
    max_error: float   # worst |sum - exp(i theta m)| over the spectrum
    exact: bool        # whether the rational identity held bit-exactly


def exp_reconstruction(
    j: HalfInt, theta: float, point: tuple[int, int] | None = None
) -> ExpReconstruction:
    """Check sum_k (1/k!) A_k (2i m)**k == e^{i theta m} on the spectrum.

    point is quarter_tan(theta), taken when not given; a caller checking
    many spins at one theta passes it to find it once.
    """
    two_j = j.two_j
    lcm = _recon_weights(two_j)[0]
    a, b = quarter_tan(theta) if point is None else point
    s, c, d = 2 * a * b, b * b - a * a, a * a + b * b  # (sin, cos)(theta/2) * d
    d2_pow = [1]
    for _ in range(two_j // 2):
        d2_pow.append(d2_pow[-1] * d * d)
    even, odd = i_power_parts(_recon_numerators(two_j, s, c, d))
    den = lcm * d**two_j
    max_err = 0.0
    exact = True
    # |M| = 2|m| runs up from 0 or 1; the target is L (c + i s)**|M| d**(2j-|M|)
    ere, eim = (c, s) if two_j % 2 else (1, 0)
    step = (c * c - s * s, 2 * c * s)
    for m in range(two_j % 2, two_j + 1, 2):
        re = poly_eval(even, m * m)
        im = m * poly_eval(odd, m * m)
        scale = lcm * d2_pow[(two_j - m) // 2]
        if re != scale * ere or im != scale * eim:
            exact = False
        for m2 in (m, -m) if m else (m,):  # M and -M share re and -im
            got = complex(re / den, (im if m2 > 0 else -im) / den)
            max_err = max(max_err, abs(got - cmath.exp(1j * theta * m2 / 2.0)))
        ere, eim = ere * step[0] - eim * step[1], ere * step[1] + eim * step[0]
    return ExpReconstruction(j, theta, max_err, exact)
