"""Exact scalars and the few dense polynomial helpers the library uses.

Scalars are exact: ints or ``fractions.Fraction``.  A polynomial is a tuple
of them indexed by power, with no trailing zeros; the zero polynomial is
the empty tuple.  The helpers normalize, multiply and evaluate such
tuples, and integer polynomials stay integer through each of them.
Everything is immutable and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Tuple, Union

Poly = Tuple[Union[int, Fraction], ...]
Scalar = Union[Fraction, int, float, complex]


def poly(coeffs: Iterable) -> Poly:
    """Normalize a coefficient sequence: ints and Fractions are kept, any
    other scalar becomes a Fraction, and trailing zeros are stripped."""
    out = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_mul(p: Sequence, q: Sequence) -> Poly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return poly(out)


def poly_eval(p: Sequence, x: Scalar):
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


class _RationalFields(NamedTuple):
    num: Poly
    den: Poly


class RationalFunction(_RationalFields):
    """A quotient of two exact polynomials, normalized but not reduced.

    cayley.a_coeffs returns them in lowest terms; calling one evaluates
    the quotient.  Equality is structural, so two of them are
    equal exactly when their coefficient tuples are.
    """

    __slots__ = ()

    def __new__(cls, num: Iterable, den: Iterable) -> "RationalFunction":
        num, den = poly(num), poly(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        return super().__new__(cls, num, den)

    @classmethod
    def _make(cls, iterable) -> "RationalFunction":
        # NamedTuple's _replace builds through _make: check the fields here too
        return cls(*iterable)

    def __call__(self, x: Scalar):
        if isinstance(x, int):  # int/int would be a float; the value is exact
            x = Fraction(x)
        return poly_eval(self.num, x) / poly_eval(self.den, x)
