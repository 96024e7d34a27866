"""Central factorial numbers of the first kind, exactly.

t(n, k) is the coefficient of x**k in the generating product of degree n:
even rows expand prod_{l=0}^{m-1} (x^2 - l^2) for n = 2m, odd rows expand
x * prod_{l=0}^{m-1} (x^2 - (l + 1/2)^2) for n = 2m + 1.  Each row is kept
as integers and memoized: even rows are the product itself, odd rows are
4**m times it, i.e. x * prod (4x^2 - (2l + 1)^2).  So t(even, even) are
integers, t(odd, odd) are rationals whose denominators divide 4**m, and
mixed-parity entries come out zero structurally.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Tuple

from .halfint import HalfInt


@lru_cache(maxsize=None)
def _row(n: int) -> Tuple[int, ...]:
    """Integer coefficients of the degree-n generating product, by power.

    Row n is t(n, k) scaled by 4**(n//2) when n is odd, and unscaled when
    n is even.  Each row extends the same-parity predecessor by one
    quadratic factor: x^2 - (n/2 - 1)^2 for even n, 4x^2 - (n - 2)^2 for
    odd n.  Filling the table through degree n costs O(n^2) integer
    multiplies.
    """
    if n < 2:
        return (1,) if n == 0 else (0, 1)
    a, c = (1, (n // 2 - 1) ** 2) if n % 2 == 0 else (4, (n - 2) ** 2)
    prev = _row(n - 2)
    return tuple(a * hi - c * lo for lo, hi in zip(prev + (0, 0), (0, 0) + prev))


def cfn_pair(n: int, k: int) -> Tuple[int, int]:
    """t(n, k) as an unreduced integer pair (num, den), den a power of 4.

    The only reader of the integer rows: den undoes the row's 4**(n//2)
    scale for odd n and is 1 for even n.
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got ({n}, {k})")
    if k > n:
        return 0, 1
    return _row(n)[k], 4 ** (n // 2) if n % 2 else 1


def cfn(n: int, k: int) -> Fraction:
    """t(n, k); zero for mixed parity or k > n, with t(0, 0) = 1."""
    return Fraction(*cfn_pair(n, k))


def cfn_even(m: int, k: int) -> Fraction:
    """t(2m, 2k) for 1 <= k <= m."""
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    return cfn(2 * m, 2 * k)


def cfn_odd(m: int, k: int) -> Fraction:
    """t(2m+1, 2k+1) for 0 <= k <= m; generally a non-integer rational."""
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    return cfn(2 * m + 1, 2 * k + 1)


def det_cfn_row(j: HalfInt) -> list[Fraction]:
    """Magnitudes |t(2j+2, 2j+2-2k)| for k = 0 .. floor(j + 1/2).

    These are the coefficients of 4**k * alpha**(2k) in the characteristic
    determinant for spin j.
    """
    n = j.two_j + 2
    return [abs(cfn(n, n - 2 * k)) for k in range((j.two_j + 1) // 2 + 1)]


def cfn_t2(j: int) -> Fraction:
    """|t(2j+2, 2)| in closed form: (j!)**2, for integer j >= 0."""
    if j < 0:
        raise ValueError("j must be a nonnegative integer")
    return Fraction(math.factorial(j) ** 2)


def _trigamma(x: float) -> float:
    """Second logarithmic derivative of the gamma function, for x > 0.

    Upward recurrence into the asymptotic region, then the Bernoulli
    series through x**-9; good to ~1e-15 absolute for the arguments used.
    """
    acc = 0.0
    while x < 16.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = inv * (1.0 + inv * (0.5 + inv * (
        1.0 / 6 + inv2 * (-1.0 / 30 + inv2 * (1.0 / 42 + inv2 * (-1.0 / 30))))))
    return acc + tail


class T4Pair(NamedTuple):
    value: float      # (j!)^2 * (pi^2/6 - trigamma(j+1)), numeric route
    exact: Fraction   # |t(2j+2, 4)| from the generating product


def cfn_t4(j: int) -> T4Pair:
    """|t(2j+2, 4)| two ways, for integer j >= 1.

    The float route goes through a numeric trigamma so the two entries are
    genuinely independent; they must agree to 1e-12 relative.
    """
    if j < 1:
        raise ValueError("j must be a positive integer")
    fact2 = math.factorial(j) ** 2
    value = fact2 * (math.pi * math.pi / 6.0 - _trigamma(j + 1.0))
    return T4Pair(value, abs(cfn(2 * j + 2, 4)))


def cfn_asymptotic_ratio(l: int, j: int, alpha: float) -> float:
    """(2*alpha)**(2*(1-l)) * |t(2j+2, 2l)| / (j!)**2.

    The huge factorial cancellation is done exactly in rational arithmetic
    before any float conversion, so there is no overflow at large j.  As
    j grows this approaches (pi/(2*alpha))**(2*(l-1)) / (2l-1)!.
    """
    if l < 1:
        raise ValueError("l must be a positive integer")
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    ratio = abs(cfn(2 * j + 2, 2 * l)) / Fraction(math.factorial(j) ** 2)
    return float(ratio) * (2.0 * alpha) ** (2 * (1 - l))
