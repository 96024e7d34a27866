"""Spin-j spectrum, exact Vandermonde inversion, and coefficient projection.

Everything is built in the basis where the doubled spin component
S = 2*J3 is diagonal with integer eigenvalues [2j, 2j-2, ..., -2j].
Storage is 0-based tuples; the closed-form entry at 1-based (k, l), the
independent check of V^-1, is findumonde_entry in tests/oracles.py.  The
nodes, V and every Lagrange factor are integers, and the cache of V^-1
holds those integers: each entry is one integer ratio, a coefficient of a
Lagrange factor over the factor's value at its node.  vandermonde_inverse
makes the Fractions on each call; the CLI prints the ratios without them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterator, NamedTuple, Sequence, Tuple

from .cfn import cfn_pair
from .exact import poly_eval
from .halfint import HalfInt

Matrix = Tuple[Tuple[Fraction, ...], ...]
IntMatrix = Tuple[Tuple[int, ...], ...]


def spectrum(j: HalfInt) -> Tuple[int, ...]:
    """Eigenvalues of S = 2*J3 for spin j, strictly decreasing by 2."""
    return tuple(range(j.two_j, -j.two_j - 1, -2))


def vandermonde(j: HalfInt) -> IntMatrix:
    """Row k holds the powers 0..2j of the k-th eigenvalue of S."""
    return tuple(tuple(e**p for p in range(j.two_j + 1)) for e in spectrum(j))


@lru_cache(maxsize=None)
def _vandermonde_inverse(two_j: int) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    # column m of V^-1 is the Lagrange basis polynomial of the m-th node, the
    # deflated node polynomial q_m over its value at that node, so the entry
    # at (n, m) is q_m[n] / q_m(lambda_m); both stay integers
    return tuple(_lagrange_factors(spectrum(HalfInt(two_j))))


def vandermonde_inverse(j: HalfInt) -> Matrix:
    """Exact inverse; vandermonde(j) @ vandermonde_inverse(j) == identity.

    The Fractions are made from the cached integers on each call.
    """
    factors = _vandermonde_inverse(j.two_j)
    return tuple(tuple(Fraction(q[n], d) for q, d in factors) for n in range(j.two_j + 1))


def vandermonde_inverse_text(j: HalfInt) -> Iterator[list[str]]:
    """The rows of vandermonde_inverse(j), each entry as its str: "n" or "n/d".

    Each is written from the cached integer ratio in lowest terms, the
    sign on the numerator, as str(Fraction) writes it, with no Fraction made.
    """
    factors = _vandermonde_inverse(j.two_j)
    for n in range(j.two_j + 1):
        yield [_ratio_text(q[n], d) for q, d in factors]


def _ratio_text(num: int, den: int) -> str:
    g = gcd(num, den)
    if den < 0:
        g = -g
    num //= g
    den //= g
    return str(num) if den == 1 else f"{num}/{den}"


def dual_matrices(j: HalfInt) -> Matrix:
    """Diagonals of the trace-orthonormal dual matrices T_0 .. T_2j.

    The diagonal of T_n is row n+1 (1-based) of the inverse Vandermonde
    matrix, so these are its rows; Trace(T_n S^m) = delta_{nm} holds
    exactly.
    """
    return vandermonde_inverse(j)


def project_coefficients(j: HalfInt, fvals: Sequence) -> list:
    """Matrix-polynomial coefficients [f_0 .. f_2j] of f(S).

    ``fvals`` must list f on the spectrum in decreasing order:
    f(2j), f(2j-2), ..., f(-2j).  Exact inputs give exact output; float or
    complex inputs give float/complex output.
    """
    n = j.two_j + 1
    if len(fvals) != n:
        raise ValueError(f"expected {n} sample values, got {len(fvals)}")
    vinv = vandermonde_inverse(j)
    return [sum(row[i] * fvals[i] for i in range(n)) for row in vinv]


def _lagrange_factors(eigs: Sequence[int]):
    """(q_m, q_m(lambda_m)) per node, q_m = prod_{i != m} (x - lambda_i).

    Both are integers: q_m as its coefficient tuple by power.  The columns
    of V^-1 are these Lagrange-Sylvester projectors over their values, so
    the independent oracles for both are V @ V^-1 = I and the closed-form
    findumonde_entry of tests/oracles.py.
    """
    full: Tuple[int, ...] = (1,)
    for lam in eigs:
        # full(x) * (x - lam)
        full = tuple(lo - lam * hi for lo, hi in zip((0,) + full, full + (0,)))
    for lam in eigs:
        quotient = _deflate(full, lam)
        yield quotient, poly_eval(quotient, lam)


def _deflate(p: Tuple[int, ...], root: int) -> Tuple[int, ...]:
    # synthetic division of p by (x - root); the remainder vanishes because
    # root is one of the nodes used to build p
    d = len(p) - 1
    q = [0] * d
    q[d - 1] = p[d]
    for i in range(d - 1, 0, -1):
        q[i - 1] = p[i] + root * q[i]
    return tuple(q)


class FundamentalIdentityReport(NamedTuple):
    j: HalfInt
    passed: bool
    failing_eigenvalue: int | None = None
    lhs: Fraction | None = None
    rhs: Fraction | None = None


def verify_fundamental_identity(j: HalfInt) -> FundamentalIdentityReport:
    """Exact check that S**(2j+1) reduces to lower powers of S.

    Row form: for every eigenvalue lam of S,
    lam**(2j+1) == -sum_{k=0}^{2j} 2**(1+2j-k) t(2j+2, 1+k) lam**k.
    A failure points at a bug in the central-factorial table or spectrum.
    The row's entries share one denominator, t(2j+2, 1+k) = num_k / den
    (cfn_pair), so each eigenvalue is checked in integers:
    lam**(2j+1) * den == -sum_k 2**(1+2j-k) num_k lam**k.
    """
    two_j = j.two_j
    row = [cfn_pair(two_j + 2, 1 + k) for k in range(two_j + 1)]
    den = row[0][1]
    coeffs = [-(2 ** (1 + two_j - k)) * num for k, (num, _) in enumerate(row)]
    for lam in spectrum(j):
        lhs, rhs = lam ** (two_j + 1), poly_eval(coeffs, lam)
        if lhs * den != rhs:
            return FundamentalIdentityReport(j, False, lam, Fraction(lhs), Fraction(rhs, den))
    return FundamentalIdentityReport(j, True)
