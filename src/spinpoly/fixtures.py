"""Golden fixtures: hand-embedded exact values the library must reproduce.

Each fixture freezes an independently known result — inverse Vandermonde
matrices and dual diagonals for the four smallest spins, characteristic
determinants, and the full Cayley coefficient tables through spin 3 —
and compares bit-exactly against the computed objects.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import basis, cayley
from .exact import RationalFunction, poly
from .halfint import HalfInt

F = Fraction


def _mat(scale, rows):
    return tuple(tuple(F(x) * F(scale) for x in row) for row in rows)


# inverse Vandermonde matrices for j = 1/2, 1, 3/2, 2
VINV_GOLDEN = {
    1: _mat(F(1, 2), [[1, 1], [1, -1]]),
    2: _mat(F(1, 8), [[0, 8, 0], [2, 0, -2], [1, -2, 1]]),
    3: _mat(
        F(1, 48),
        [[-3, 27, 27, -3], [-1, 27, -27, 1], [3, -3, -3, 3], [1, -3, 3, -1]],
    ),
    4: _mat(
        F(1, 384),
        [
            [0, 0, 384, 0, 0],
            [-16, 128, 0, -128, 16],
            [-4, 64, -120, 64, -4],
            [4, -8, 0, 8, -4],
            [1, -4, 6, -4, 1],
        ],
    ),
}

# dual-matrix diagonals displayed explicitly for j = 1/2, 1, 3/2; the j = 2
# duals are the rows of the j = 2 inverse above.
DUALS_GOLDEN = {
    1: _mat(F(1, 2), [[1, 1], [1, -1]]),
    2: (
        tuple(F(x) for x in (0, 1, 0)),
        tuple(F(x, 4) for x in (1, 0, -1)),
        tuple(F(x, 8) for x in (1, -2, 1)),
    ),
    3: (
        tuple(F(x, 16) for x in (-1, 9, 9, -1)),
        tuple(F(x, 48) for x in (-1, 27, -27, 1)),
        tuple(F(x, 16) for x in (1, -1, -1, 1)),
        tuple(F(x, 48) for x in (1, -3, 3, -1)),
    ),
    4: VINV_GOLDEN[4],
}

# determinants det(1 - 2i*alpha*n.J) for j = 1/2 .. 3, even coefficients only
DET_GOLDEN = {
    1: [1, 1],
    2: [1, 4],
    3: [1, 10, 9],
    4: [1, 20, 64],
    5: [1, 35, 259, 225],
    6: [1, 56, 784, 2304],
}

# Cayley coefficient tables: A_k as reduced rational functions of alpha,
# read off the displayed transforms after the (2i n.J)**k normalization.
# Entries are (numerator coefficients, denominator coefficients) by power.
CAYLEY_GOLDEN = {
    1: [
        ([1, 0, -1], [1, 0, 1]),
        ([0, 2], [1, 0, 1]),
    ],
    2: [
        ([1], [1]),
        ([0, 2], [1, 0, 4]),
        ([0, 0, 2], [1, 0, 4]),
    ],
    3: [
        ([1, 0, 10, 0, -9], [1, 0, 10, 0, 9]),
        ([0, 2, 0, 20], [1, 0, 10, 0, 9]),
        ([0, 0, 2], [1, 0, 10, 0, 9]),
        ([0, 0, 0, 2], [1, 0, 10, 0, 9]),
    ],
    4: [
        ([1], [1]),
        ([0, 2, 0, 40], [1, 0, 20, 0, 64]),
        ([0, 0, 2, 0, 40], [1, 0, 20, 0, 64]),
        ([0, 0, 0, 2], [1, 0, 20, 0, 64]),
        ([0, 0, 0, 0, 2], [1, 0, 20, 0, 64]),
    ],
    5: [
        ([1, 0, 35, 0, 259, 0, -225], [1, 0, 35, 0, 259, 0, 225]),
        ([0, 2, 0, 70, 0, 518], [1, 0, 35, 0, 259, 0, 225]),
        ([0, 0, 2, 0, 70], [1, 0, 35, 0, 259, 0, 225]),
        ([0, 0, 0, 2, 0, 70], [1, 0, 35, 0, 259, 0, 225]),
        ([0, 0, 0, 0, 2], [1, 0, 35, 0, 259, 0, 225]),
        ([0, 0, 0, 0, 0, 2], [1, 0, 35, 0, 259, 0, 225]),
    ],
    6: [
        ([1], [1]),
        ([0, 2, 0, 112, 0, 1568], [1, 0, 56, 0, 784, 0, 2304]),
        ([0, 0, 2, 0, 112, 0, 1568], [1, 0, 56, 0, 784, 0, 2304]),
        ([0, 0, 0, 2, 0, 112], [1, 0, 56, 0, 784, 0, 2304]),
        ([0, 0, 0, 0, 2, 0, 112], [1, 0, 56, 0, 784, 0, 2304]),
        ([0, 0, 0, 0, 0, 2], [1, 0, 56, 0, 784, 0, 2304]),
        ([0, 0, 0, 0, 0, 0, 2], [1, 0, 56, 0, 784, 0, 2304]),
    ],
}


class FixtureResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _compare(name: str, got, want) -> FixtureResult:
    if got == want:
        return FixtureResult(name, True)
    return FixtureResult(name, False, f"computed {got} != golden {want}")


def run_fixtures() -> list[FixtureResult]:
    """Run every embedded fixture; exact comparisons only."""
    # DET_GOLDEN lists the even coefficients; the odd ones are 0
    dets = {two_j: poly(c for x in even for c in (x, 0)) for two_j, even in DET_GOLDEN.items()}
    cayleys = {
        two_j: tuple(RationalFunction(num, den) for num, den in rows)
        for two_j, rows in CAYLEY_GOLDEN.items()
    }
    # fixture kind, the computed object for a spin, golden values by 2j
    table = (
        ("inverse-vandermonde", basis.vandermonde_inverse, VINV_GOLDEN),
        ("dual-diagonals", basis.dual_matrices, DUALS_GOLDEN),
        ("determinant", cayley.det_poly, dets),
        ("cayley-coefficients", cayley.a_coeffs, cayleys),
    )
    return [
        _compare(f"{kind} j={HalfInt(two_j)}", compute(HalfInt(two_j)), want)
        for kind, compute, golden in table
        for two_j, want in golden.items()
    ]
