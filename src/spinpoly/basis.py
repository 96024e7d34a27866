"""Spin-j spectrum, exact Vandermonde inversion, and coefficient projection.

Everything is built in the basis where the doubled spin component
S = 2*J3 is diagonal with integer eigenvalues [2j, 2j-2, ..., -2j].
Rows/columns of the Vandermonde matrix follow the 1-based convention
(k, l = 1..2j+1) in the public closed-form entry; internal storage is
0-based tuples of Fractions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Tuple

from .cfn import cfn
from .exact import Poly, poly, poly_eval
from .halfint import HalfInt

Matrix = Tuple[Tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class DiagSpectrum:
    """Eigenvalues of S = 2*J3 for spin j, strictly decreasing by 2."""

    j: HalfInt
    eigs: Tuple[int, ...]


def spectrum(j: HalfInt) -> DiagSpectrum:
    return DiagSpectrum(j, tuple(range(j.two_j, -j.two_j - 1, -2)))


@lru_cache(maxsize=None)
def _vandermonde(two_j: int) -> Matrix:
    eigs = spectrum(HalfInt(two_j)).eigs
    return tuple(
        tuple(Fraction(e) ** p for p in range(two_j + 1)) for e in eigs
    )


def vandermonde(j: HalfInt) -> Matrix:
    """Row k holds the powers 0..2j of the k-th eigenvalue of S."""
    return _vandermonde(j.two_j)


@lru_cache(maxsize=None)
def _vandermonde_inverse(two_j: int) -> Matrix:
    # column m holds the Lagrange basis polynomial of the m-th node, the
    # deflated characteristic polynomial over its value at that node
    columns = [
        tuple(c / denom for c in quotient)
        for quotient, denom in _lagrange_factors(spectrum(HalfInt(two_j)).eigs)
    ]
    return tuple(zip(*columns))


def vandermonde_inverse(j: HalfInt) -> Matrix:
    """Exact inverse; vandermonde(j) @ vandermonde_inverse(j) == identity."""
    return _vandermonde_inverse(j.two_j)


def findumonde_entry(j: HalfInt, k: int, l: int) -> Fraction:
    """Closed-form inverse-Vandermonde entry at 1-based (k, l).

    Evaluates the nested-sum numerator directly; the subset enumeration is
    exponential in 2j+1-k, so this is a cross-check for small spins, not
    the production path.
    """
    n = j.two_j + 1
    if not (1 <= k <= n and 1 <= l <= n):
        raise ValueError(f"indices must lie in 1..{n}, got ({k}, {l})")
    size = n - k
    if size == 0:
        numerator = Fraction(1)
    else:
        others = [m for m in range(1, n + 1) if m != l]
        total = Fraction(0)
        for subset in itertools.combinations(others, size):
            term = Fraction(1)
            for m in subset:
                term *= Fraction(j.two_j + 2 - 2 * m, 2)  # j + 1 - m
            total += term
        numerator = -total if (k - j.two_j - 1) % 2 else total
    sign = -1 if (1 - l) % 2 else 1
    return (
        Fraction(sign, 2 ** (k - 1))
        * numerator
        / (math.factorial(n - l) * math.factorial(l - 1))
    )


@dataclass(frozen=True)
class DualMatrixSet:
    """Diagonals of the trace-orthonormal dual matrices T_0 .. T_2j.

    The diagonal of T_n is row n+1 (1-based) of the inverse Vandermonde
    matrix; Trace(T_n S^m) = delta_{nm} holds exactly.
    """

    j: HalfInt
    diags: Tuple[Tuple[Fraction, ...], ...]

    def row(self, n: int) -> Tuple[Fraction, ...]:
        return self.diags[n]


def dual_matrices(j: HalfInt) -> DualMatrixSet:
    return DualMatrixSet(j, vandermonde_inverse(j))


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


def lagrange_sylvester(j: HalfInt, fvals: Sequence) -> list:
    """Same coefficients via eigenprojector (Frobenius covariant) expansion.

    Each projector prod_{i != m} (S - lambda_i)/(lambda_m - lambda_i) is
    expanded to monomial coefficients exactly and weighted by f(lambda_m).
    The columns of vandermonde_inverse are these same projectors, so the
    independent oracles for both are findumonde_entry and V @ V^-1 = I.
    """
    n = j.two_j + 1
    if len(fvals) != n:
        raise ValueError(f"expected {n} sample values, got {len(fvals)}")
    coeffs: list = [Fraction(0)] * n
    for m, (quotient, denom) in enumerate(_lagrange_factors(spectrum(j).eigs)):
        weight = fvals[m] / denom
        for power, c in enumerate(quotient):
            coeffs[power] = coeffs[power] + c * weight
    return coeffs


def _lagrange_factors(eigs: Sequence[int]):
    """(q_m, q_m(lambda_m)) per node, q_m = prod_{i != m} (x - lambda_i)."""
    full: Poly = poly([1])
    for lam in eigs:
        full = _mul_linear(full, lam)
    for lam in eigs:
        quotient = _deflate(full, lam)
        yield quotient, poly_eval(quotient, lam)


def _mul_linear(p: Poly, root: int) -> Poly:
    # p(x) * (x - root)
    out = [Fraction(0)] * (len(p) + 1)
    for i, c in enumerate(p):
        out[i + 1] += c
        out[i] -= c * root
    return poly(out)


def _deflate(p: Poly, root: int) -> Poly:
    # synthetic division of p by (x - root); the remainder vanishes because
    # root is one of the nodes used to build p
    d = len(p) - 1
    q = [Fraction(0)] * d
    q[d - 1] = p[d]
    for i in range(d - 1, 0, -1):
        q[i - 1] = p[i] + root * q[i]
    return poly(q)


@dataclass(frozen=True)
class FundamentalIdentityReport:
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
    """
    two_j = j.two_j
    n = two_j + 2
    for lam in spectrum(j).eigs:
        lhs = Fraction(lam) ** (two_j + 1)
        rhs = Fraction(0)
        for k in range(two_j + 1):
            t = cfn(n, 1 + k)
            if t:
                rhs -= Fraction(2) ** (1 + two_j - k) * t * Fraction(lam) ** k
        if lhs != rhs:
            return FundamentalIdentityReport(j, False, lam, lhs, rhs)
    return FundamentalIdentityReport(j, True)
