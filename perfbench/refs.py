"""Reference values computed without spinpoly.

These routes share no code with the library, so a rewrite of a library
kernel cannot break its own reference:

- Cayley: B_k(alpha) = alpha**k * Trunc_{2j-k}[det] / det with the
  determinant in the product form det = prod_n (1 + m_n**2 alpha**2),
  m_n = 2(j + 1 - n), evaluated in exact integers at the rational alpha.
- Exponential: the positive-term central-factorial sum, with |t(m, k)|
  from the sign-free recurrence |t(n, k)| = |t(n-2, k-2)| +
  ((n-2)/2)**2 |t(n-2, k)|.
- Vandermonde: the matrix of eigenvalue powers of S = 2*J3.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def cayley_masses(two_j: int) -> list[int]:
    """m_n = 2(j + 1 - n) for n = 1 .. floor(j + 1/2)."""
    return [two_j + 2 - 2 * n for n in range(1, (two_j + 1) // 2 + 1)]


@lru_cache(maxsize=None)
def _det_elementary(two_j: int) -> tuple[int, ...]:
    # e_i of the weights m_n**2: det = sum_i e_i alpha**(2i)
    e = [1]
    for m in cayley_masses(two_j):
        w = m * m
        e = [a + w * b for a, b in zip(e + [0], [0] + e)]
    return tuple(e)


def cayley_b(two_j: int, k: int, alpha: Fraction) -> Fraction:
    """B_k(alpha) exactly, from the product form of the determinant."""
    if not 0 <= k <= two_j:
        raise ValueError(f"k must lie in 0..{two_j}, got {k}")
    p, q = alpha.numerator, alpha.denominator
    masses = cayley_masses(two_j)
    e = _det_elementary(two_j)
    top = len(masses)
    p2, q2 = p * p, q * q
    # numerator and determinant both scaled by q**(2*top)
    trunc = sum(e[i] * p2**i * q2 ** (top - i) for i in range((two_j - k) // 2 + 1))
    det = math.prod(q2 + m * m * p2 for m in masses)
    return Fraction(trunc * p**k, det * q**k)


def cayley_a(two_j: int, k: int, alpha: Fraction) -> Fraction:
    """A_k(alpha) = 2 B_k(alpha), minus 1 for k = 0."""
    b2 = 2 * cayley_b(two_j, k, alpha)
    return b2 - 1 if k == 0 else b2


@lru_cache(maxsize=None)
def cfn_abs(n: int) -> tuple[Fraction, ...]:
    """|t(n, k)| for k = 0 .. n."""
    if n == 0:
        return (Fraction(1),)
    if n == 1:
        return (Fraction(0), Fraction(1))
    prev = cfn_abs(n - 2)
    shift = Fraction(n - 2, 2) ** 2
    return tuple(
        (prev[k - 2] if k >= 2 else 0) + (shift * prev[k] if k < len(prev) else 0)
        for k in range(n + 1)
    )


@lru_cache(maxsize=None)
def _exp_terms(two_j: int, k: int) -> tuple[tuple[int, float], ...]:
    # (power of s, coefficient): for 2j - k even, A_k = sum c_m s**m with
    # c_m = k!/2**k * 2**m/m! * |t(m, k)|; for 2j - k odd, A_k is
    # (2/(k+1)) d/dtheta of the even-parity sum for k + 1, which gives
    # cos(theta/2) * sum c_m m/(k+1) s**(m-1)
    odd = (two_j - k) % 2
    kk = k + odd
    kfact = math.factorial(kk)
    terms = []
    for m in range(kk, two_j + 1, 2):
        c = Fraction(kfact * 2**m, 2**kk * math.factorial(m)) * cfn_abs(m)[kk]
        if odd:
            terms.append((m - 1, float(c * m / kk)))
        else:
            terms.append((m, float(c)))
    return tuple(terms)


def exp_a(two_j: int, k: int, theta: float) -> float:
    """A_k(theta) for spin two_j/2, as a sum of same-signed terms."""
    if not 0 <= k <= two_j:
        raise ValueError(f"k must lie in 0..{two_j}, got {k}")
    s = math.sin(theta / 2.0)
    total = math.fsum(c * s**m for m, c in _exp_terms(two_j, k))
    if (two_j - k) % 2:
        total *= math.cos(theta / 2.0)
    return total


def vandermonde(two_j: int) -> list[list[int]]:
    """Row i holds the powers 0..2j of the eigenvalue 2j - 2i of S."""
    return [[(two_j - 2 * i) ** p for p in range(two_j + 1)] for i in range(two_j + 1)]
