import cmath
import math
import random
from fractions import Fraction as F

import pytest

from spinpoly import basis
from spinpoly.basis import (
    dual_matrices,
    project_coefficients,
    spectrum,
    vandermonde,
    vandermonde_inverse,
    verify_fundamental_identity,
)
from spinpoly.halfint import HalfInt, half_integers

from oracles import findumonde_entry


def test_spectrum():
    assert spectrum(HalfInt(1)) == (1, -1)
    assert spectrum(HalfInt(0)) == (0,)
    assert spectrum(HalfInt(4)) == (4, 2, 0, -2, -4)
    for j in half_integers(12):
        eigs = spectrum(j)
        assert eigs == tuple(-e for e in reversed(eigs))
        assert all(a - b == 2 for a, b in zip(eigs, eigs[1:]))


def test_vandermonde_entries():
    assert vandermonde(HalfInt(1)) == ((F(1), F(1)), (F(1), F(-1)))
    v1 = vandermonde(HalfInt(2))
    assert [row[2] for row in v1] == [4, 0, 4]
    for j in half_integers(12):
        v = vandermonde(j)
        assert all(row[0] == 1 for row in v)
        assert all(type(x) is int for row in v for x in row)


def test_inverse_fixtures():
    assert vandermonde_inverse(HalfInt(1)) == (
        (F(1, 2), F(1, 2)),
        (F(1, 2), F(-1, 2)),
    )
    assert vandermonde_inverse(HalfInt(2)) == (
        (F(0), F(1), F(0)),
        (F(1, 4), F(0), F(-1, 4)),
        (F(1, 8), F(-1, 4), F(1, 8)),
    )
    want_j2 = tuple(
        tuple(F(x, 384) for x in row)
        for row in [
            [0, 0, 384, 0, 0],
            [-16, 128, 0, -128, 16],
            [-4, 64, -120, 64, -4],
            [4, -8, 0, 8, -4],
            [1, -4, 6, -4, 1],
        ]
    )
    assert vandermonde_inverse(HalfInt(4)) == want_j2


def test_inverse_exact_up_to_two_j_40():
    # also certifies trace orthonormality: row n of V^-1 against column m of V.
    # V holds powers of integer eigenvalues; each row of V^-1, scaled by the
    # lcm d of its denominators, must give d times row r of the identity in
    # exact integer dot products.
    for j in half_integers(40):
        v = vandermonde(j)
        assert all(x.denominator == 1 for row in v for x in row)
        columns = [[x.numerator for x in col] for col in zip(*v)]
        for r, row in enumerate(vandermonde_inverse(j)):
            d = math.lcm(*(x.denominator for x in row))
            scaled = [x.numerator * (d // x.denominator) for x in row]
            for c, col in enumerate(columns):
                assert sum(a * b for a, b in zip(scaled, col)) == d * (r == c), (j, r, c)


def test_findumonde_matches_elimination_high_rows():
    for two_j in range(0, 9):
        j = HalfInt(two_j)
        vinv = vandermonde_inverse(j)
        n = two_j + 1
        for k in range(max(1, n - 2), n + 1):
            for l in range(1, n + 1):
                assert findumonde_entry(j, k, l) == vinv[k - 1][l - 1], (two_j, k, l)


def test_findumonde_matches_elimination_all_rows_small():
    for two_j in range(0, 7):
        j = HalfInt(two_j)
        vinv = vandermonde_inverse(j)
        n = two_j + 1
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                assert findumonde_entry(j, k, l) == vinv[k - 1][l - 1]


def test_findumonde_numerator_closed_forms():
    # N_{2j+1} = 1, N_{2j} = 1-l+j, N_{2j-1} = (1-l)^2 + 2(1-l)j + (1-j)(2j-1)j/6,
    # folded through the prefactor and compared entry by entry
    for two_j in range(1, 9):
        j = HalfInt(two_j)
        n = two_j + 1
        jf = F(two_j, 2)
        for l in range(1, n + 1):
            sign = 1 if l % 2 else -1  # (-1)**(1-l)
            pref = F(sign, math.factorial(n - l) * math.factorial(l - 1))
            top = findumonde_entry(j, n, l)
            assert top == F(1, 2**two_j) * pref * 1
            second = findumonde_entry(j, n - 1, l)
            assert second == F(1, 2 ** (two_j - 1)) * pref * (1 - l + jf)
            if n >= 3:
                third = findumonde_entry(j, n - 2, l)
                n_poly = (1 - l) ** 2 + 2 * (1 - l) * jf + F(1, 6) * (1 - jf) * (2 * jf - 1) * jf
                assert third == F(1, 2 ** (two_j - 2)) * pref * n_poly


def test_findumonde_range_errors():
    with pytest.raises(ValueError):
        findumonde_entry(HalfInt(2), 0, 1)
    with pytest.raises(ValueError):
        findumonde_entry(HalfInt(2), 1, 4)


def test_dual_fixtures():
    assert dual_matrices(HalfInt(3))[0] == tuple(F(x, 16) for x in (-1, 9, 9, -1))
    assert dual_matrices(HalfInt(2))[0] == (F(0), F(1), F(0))
    assert dual_matrices(HalfInt(1))[1] == (F(1, 2), F(-1, 2))
    # the diagonal of T_n is row n of V^-1
    for j in half_integers(12):
        assert dual_matrices(j) == vandermonde_inverse(j)


def test_projection_rotation_spin_half():
    theta = 1.234
    j = HalfInt(1)
    fvals = [cmath.exp(1j * theta * m / 2) for m in spectrum(j)]
    f0, f1 = project_coefficients(j, fvals)
    assert abs(f0 - math.cos(theta / 2)) < 1e-15
    assert abs(f1 - 1j * math.sin(theta / 2)) < 1e-15


def test_projection_constant_and_monomial():
    j = HalfInt(4)
    const = project_coefficients(j, [F(7)] * 5)
    assert const == [7, 0, 0, 0, 0]
    j1 = HalfInt(2)
    fvals = [F(m) ** 2 for m in spectrum(j1)]
    assert project_coefficients(j1, fvals) == [0, 0, 1]


def test_projection_length_mismatch():
    with pytest.raises(ValueError):
        project_coefficients(HalfInt(2), [1, 2])


def test_lagrange_covariants_sum_to_identity():
    for j in half_integers(8):
        coeffs = project_coefficients(j, [F(1)] * (j.two_j + 1))
        assert coeffs == [1] + [0] * j.two_j


def test_lagrange_indicator_gives_projector():
    j = HalfInt(3)
    eigs = spectrum(j)
    fvals = [F(1), F(0), F(0), F(0)]
    proj = project_coefficients(j, fvals)
    # the projector takes value 1 on its own eigenvalue, 0 on the others
    for i, lam in enumerate(eigs):
        value = sum(c * lam**p for p, c in enumerate(proj))
        assert value == (1 if i == 0 else 0)


def test_polynomial_reconstruction_property():
    rng = random.Random(99)
    for _ in range(25):
        two_j = rng.randrange(0, 13)
        j = HalfInt(two_j)
        fvals = [F(rng.randrange(-9, 10)) for _ in range(two_j + 1)]
        coeffs = project_coefficients(j, fvals)
        for lam, want in zip(spectrum(j), fvals):
            assert sum(c * lam**p for p, c in enumerate(coeffs)) == want


def test_euler_rodrigues_match():
    theta = 0.71
    j = HalfInt(2)
    fvals = [cmath.exp(1j * theta * m / 2) for m in spectrum(j)]
    got = project_coefficients(j, fvals)
    # f(S) = I + (i sin theta)/2 S + (cos theta - 1)/4 S^2 in powers of S = 2 n.J
    assert abs(got[0] - 1) < 1e-15
    assert abs(got[1] - 1j * math.sin(theta) / 2) < 1e-15
    assert abs(got[2] - (math.cos(theta) - 1) / 4) < 1e-15


def test_fundamental_identity_small_and_sweep():
    assert verify_fundamental_identity(HalfInt(0)).passed
    assert verify_fundamental_identity(HalfInt(1)).passed
    assert verify_fundamental_identity(HalfInt(2)).passed
    for j in half_integers(16):
        report = verify_fundamental_identity(j)
        assert report.passed, (j, report)


def test_fundamental_identity_reports_a_wrong_row_entry(monkeypatch):
    # one wrong t(2j+2, 1+k) for one spin must fail that spin, and only it
    real = basis.cfn_pair

    def wrong_at_spin_two(n, k):
        num, den = real(n, k)
        return (num + 1, den) if (n, k) == (6, 3) else (num, den)

    monkeypatch.setattr(basis, "cfn_pair", wrong_at_spin_two)
    assert verify_fundamental_identity(HalfInt(3)).passed
    report = verify_fundamental_identity(HalfInt(4))
    assert not report.passed
    assert report.failing_eigenvalue in spectrum(HalfInt(4))
    assert isinstance(report.lhs, F) and isinstance(report.rhs, F)
    assert report.lhs != report.rhs
    assert report.lhs == F(report.failing_eigenvalue) ** 5
