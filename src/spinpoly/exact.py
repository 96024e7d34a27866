"""Exact rational scalars and dense univariate polynomial algebra.

Scalars are ``fractions.Fraction``.  A polynomial is a tuple of Fractions
indexed by power, with no trailing zeros; the zero polynomial is the empty
tuple.  Everything here is immutable and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Tuple, Union

Poly = Tuple[Fraction, ...]
Scalar = Union[Fraction, int, float, complex]

ZERO = Fraction(0)
ONE = Fraction(1)


def poly(coeffs: Iterable) -> Poly:
    """Normalize a coefficient sequence: Fraction-ify, strip trailing zeros."""
    out = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_degree(p: Sequence[Fraction]) -> int:
    """Degree of p, with deg(0) = -1."""
    return len(p) - 1


def poly_add(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    n = max(len(p), len(q))
    return poly((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def poly_sub(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    n = max(len(p), len(q))
    return poly((p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0) for i in range(n))


def poly_scale(p: Sequence[Fraction], c) -> Poly:
    return poly(ci * c for ci in p)


def poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return poly(out)


def poly_shift(p: Sequence[Fraction], k: int) -> Poly:
    """Multiply by x**k."""
    if not p:
        return ()
    return poly([ZERO] * k + list(p))


def poly_truncate(p: Sequence[Fraction], n: int) -> Poly:
    """Taylor truncation: keep powers 0..n, drop everything above."""
    if n < 0:
        return ()
    return poly(p[: n + 1])


def poly_eval(p: Sequence[Fraction], x: Scalar):
    """Horner evaluation; exact for exact x, float/complex otherwise."""
    acc = 0 * x
    for c in reversed(p):
        acc = acc * x + c
    return acc


def i_power_parts(coeffs: Iterable) -> tuple[list, list]:
    """(E, O) with sum_k coeffs[k] (i*x)**k = E(x**2) + i*x*O(x**2), real coeffs."""
    even, odd = [], []
    for k, c in enumerate(coeffs):
        (odd if k % 2 else even).append(-c if k % 4 > 1 else c)
    return even, odd


def poly_negate_arg(p: Sequence[Fraction]) -> Poly:
    """p(-x)."""
    return poly(-c if i % 2 else c for i, c in enumerate(p))


def poly_divmod(p: Sequence[Fraction], q: Sequence[Fraction]) -> tuple[Poly, Poly]:
    p = poly(p)
    q = poly(q)
    if not q:
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    if len(p) < len(q):
        return (), p
    rem = list(p)
    lead = q[-1]
    dq = len(q) - 1
    quot = [ZERO] * (len(p) - dq)
    for i in range(len(p) - 1, dq - 1, -1):
        c = rem[i] / lead
        if c:
            quot[i - dq] = c
            for k, qk in enumerate(q):
                rem[i - dq + k] -= c * qk
    return poly(quot), poly(rem[:dq])


def poly_gcd(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    """Monic Euclidean GCD; degrees here are tiny, simplicity wins."""
    a, b = poly(p), poly(q)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return ()
    return poly_scale(a, 1 / a[-1])


def poly_series_div(num: Sequence[Fraction], den: Sequence[Fraction], order: int) -> Poly:
    """Power-series quotient num/den through x**order; needs den(0) != 0."""
    den = poly(den)
    if not den or den[0] == 0:
        raise ZeroDivisionError("series division needs a unit constant term")
    out = []
    for m in range(order + 1):
        c = num[m] if m < len(num) else ZERO
        for i, oi in enumerate(out):
            k = m - i
            if 1 <= k < len(den):
                c -= oi * den[k]
        out.append(c / den[0])
    return poly(out)


def _primitive_scale(p: Poly) -> Fraction:
    # scalar s with s*p having coprime integer coefficients, positive leading
    lcm = math.lcm(*(c.denominator for c in p))
    gcd = math.gcd(*(abs(int(c * lcm)) for c in p))
    s = Fraction(lcm, gcd)
    return -s if p[-1] < 0 else s


def _cleared(rf: "RationalFunction") -> tuple[list[int], list[int]]:
    # num and den times the lcm of all their denominators: the same function
    lcm = math.lcm(*(c.denominator for c in rf.num + rf.den))
    return (
        [c.numerator * (lcm // c.denominator) for c in rf.num],
        [c.numerator * (lcm // c.denominator) for c in rf.den],
    )


def _int_poly_mul(p: Sequence[int], q: Sequence[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return out


@dataclass(frozen=True)
class RationalFunction:
    """A quotient of two exact polynomials, stored as given.

    ``canonical()`` returns the unique reduced representative whose
    denominator has coprime integer coefficients and a positive leading
    coefficient.  Two RationalFunctions are equal *as functions* iff
    ``equivalent`` holds; dataclass equality is structural.
    """

    num: Poly
    den: Poly

    def __post_init__(self) -> None:
        object.__setattr__(self, "num", poly(self.num))
        object.__setattr__(self, "den", poly(self.den))
        if not self.den:
            raise ZeroDivisionError("rational function with zero denominator")

    def __call__(self, x: Scalar):
        return poly_eval(self.num, x) / poly_eval(self.den, x)

    def equivalent(self, other: "RationalFunction") -> bool:
        n1, d1 = _cleared(self)
        n2, d2 = _cleared(other)
        return _int_poly_mul(n1, d2) == _int_poly_mul(n2, d1)

    def canonical(self) -> "RationalFunction":
        if not self.num:
            return RationalFunction((), (ONE,))
        g = poly_gcd(self.num, self.den)
        num = poly_divmod(self.num, g)[0]
        den = poly_divmod(self.den, g)[0]
        s = _primitive_scale(den)
        return RationalFunction(poly_scale(num, s), poly_scale(den, s))

    def series(self, order: int) -> Poly:
        """Taylor coefficients through x**order (den(0) must be nonzero)."""
        return poly_series_div(self.num, self.den, order)


def ratfunc_reduce(rf: RationalFunction) -> RationalFunction:
    """Canonical form of a rational function (idempotent)."""
    return rf.canonical()
