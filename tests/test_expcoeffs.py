import cmath
import math
from fractions import Fraction

import pytest

from spinpoly import expcoeffs
from spinpoly.basis import project_coefficients, spectrum
from spinpoly.cfn import cfn
from spinpoly.exact import poly, poly_mul, poly_truncate
from spinpoly.expcoeffs import (
    a_coeff_cfn_series,
    a_coeff_derivative_path,
    a_coeff_trunc,
    circle_point,
    epsilon,
    exp_poly,
    exp_reconstruction,
)
from spinpoly.halfint import HalfInt, half_integers

THETAS = [(-2.0 + 4.0 * i / 99) * math.pi for i in range(100)]


def test_epsilon_values():
    assert epsilon(HalfInt(2), 0) == 0
    assert epsilon(HalfInt(1), 0) == 1
    assert epsilon(HalfInt(2), 1) == 1
    with pytest.raises(ValueError):
        epsilon(HalfInt(2), 3)


def test_spin_half_coefficients():
    j = HalfInt(1)
    for theta in THETAS:
        assert a_coeff_trunc(j, 0, theta) == pytest.approx(math.cos(theta / 2), abs=1e-15)
        assert a_coeff_trunc(j, 1, theta) == pytest.approx(math.sin(theta / 2), abs=1e-15)


def _series_by_product(two_j, k):
    # (arcsin(sqrt x)/sqrt x)**k, times (1 - x)**(-1/2) = sum C(2m,m)/4**m x**m
    # when 2j - k is odd, truncated at order (2j - k)//2
    order = (two_j - k) // 2
    arcsin_power = [
        Fraction(math.factorial(k) * 4**r, math.factorial(k + 2 * r)) * abs(cfn(k + 2 * r, k))
        for r in range(order + 1)
    ]
    if (two_j - k) % 2 == 0:
        return poly(arcsin_power)
    half = [Fraction(math.comb(2 * m, m), 4**m) for m in range(order + 1)]
    return poly_truncate(poly_mul(arcsin_power, half), order)


def test_series_equals_arcsin_power_times_binomial_product():
    for two_j in range(61):
        for k in range(two_j + 1):
            assert expcoeffs._series(two_j, k) == _series_by_product(two_j, k), (two_j, k)


def test_spin_one_coefficients():
    j = HalfInt(2)
    for theta in THETAS:
        s, c = math.sin(theta / 2), math.cos(theta / 2)
        assert a_coeff_trunc(j, 0, theta) == pytest.approx(1.0, abs=1e-15)
        assert a_coeff_trunc(j, 1, theta) == pytest.approx(s * c, abs=1e-15)
        assert a_coeff_trunc(j, 2, theta) == pytest.approx(s * s, abs=1e-15)


def test_spin_three_half_k1_series():
    # A_1 = sin(theta/2) + sin^3(theta/2)/6 for spin 3/2
    j = HalfInt(3)
    for theta in (0.3, 1.1, 2.9):
        s = math.sin(theta / 2)
        assert a_coeff_cfn_series(j, 1, theta) == pytest.approx(s + s**3 / 6, rel=1e-14)


def test_zero_angle_is_identity_column():
    for j in half_integers(9):
        table = exp_poly(j, 0.0)
        assert table.A[0] == 1.0
        assert all(a == 0.0 for a in table.A[1:])


def test_cfn_series_matches_trunc():
    for j in half_integers(12):
        for k in range(j.two_j + 1):
            if epsilon(j, k):
                continue
            for theta in THETAS:
                a = a_coeff_trunc(j, k, theta)
                b = a_coeff_cfn_series(j, k, theta)
                assert a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b)), (j, k, theta)


def test_derivative_path_matches_trunc():
    for j in half_integers(12):
        for k in range(1, j.two_j + 1):
            if epsilon(j, k):
                continue
            derived = a_coeff_derivative_path(j, k, THETAS)
            for theta, b in zip(THETAS, derived):
                a = a_coeff_trunc(j, k - 1, theta)
                assert a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b)), (j, k, theta)


def test_derivative_path_parity_errors():
    with pytest.raises(ValueError):
        a_coeff_derivative_path(HalfInt(2), 1, [0.1])
    with pytest.raises(ValueError):
        a_coeff_cfn_series(HalfInt(2), 1, 0.1)


def test_float_reconstruction_small_spins():
    thetas = [(-4.0 + 8.0 * i / 49) * math.pi for i in range(50)]
    for j in half_integers(10):
        for theta in thetas:
            table = exp_poly(j, theta)
            for m2 in spectrum(j).eigs:
                got = sum(
                    a * (1j * m2) ** k / math.factorial(k) for k, a in enumerate(table.A)
                )
                assert abs(got - cmath.exp(1j * theta * m2 / 2)) < 1e-9, (j, theta, m2)


def test_exact_reconstruction_spot_checks():
    for two_j, theta in [(25, math.pi), (24, 3 * math.pi), (13, -2.0), (0, 5.0)]:
        rep = exp_reconstruction(HalfInt(two_j), theta)
        assert rep.exact
        assert rep.max_error < 1e-12


def test_two_pi_rotation_signs():
    # +identity for integer spin, -identity for semi-integer spin
    table_int = exp_poly(HalfInt(10), 2 * math.pi)
    assert table_int.A[0] == pytest.approx(1.0, abs=1e-12)
    table_half = exp_poly(HalfInt(5), 2 * math.pi)
    assert table_half.A[0] == pytest.approx(-1.0, abs=1e-12)
    for two_j in (5, 10):
        rep = exp_reconstruction(HalfInt(two_j), 2 * math.pi)
        assert rep.max_error < 1e-12


def test_periodicity_4pi():
    for j in half_integers(9):
        for theta in (0.4, 2.0, -1.3):
            before = exp_poly(j, theta).A
            after = exp_poly(j, theta + 4 * math.pi).A
            assert all(abs(a - b) < 1e-9 for a, b in zip(before, after))


def test_matches_basis_projection():
    # projecting e^{i theta m} onto powers of S gives f_k = i^k A_k / k!
    for two_j in (3, 6, 9):
        j = HalfInt(two_j)
        for theta in (0.8, 2.4):
            fvals = [cmath.exp(1j * theta * m2 / 2) for m2 in spectrum(j).eigs]
            projected = project_coefficients(j, fvals)
            table = exp_poly(j, theta)
            for k, (fk, ak) in enumerate(zip(projected, table.A)):
                want = 1j**k * ak / math.factorial(k)
                assert abs(fk - want) < 1e-10, (two_j, theta, k)


def test_matrix_coefficients_euler_rodrigues():
    theta = 1.37
    table = exp_poly(HalfInt(2), theta)
    c0, c1, c2 = table.matrix_coefficients()
    assert abs(c0 - 1.0) < 1e-15
    assert abs(c1 - 1j * math.sin(theta)) < 1e-15
    assert abs(c2 - (math.cos(theta) - 1.0)) < 1e-15


def test_circle_point_is_on_circle():
    for theta in (0.0, 0.5, math.pi, 2 * math.pi, -9.4):
        s, c = circle_point(theta)
        assert s * s + c * c == 1
        assert abs(float(s) - math.sin(theta / 2)) < 1e-12
        assert abs(float(c) - math.cos(theta / 2)) < 1e-12


def test_large_spin_tables_evaluate():
    # the two large spins used for the coefficient figures
    for two_j in (138, 137):
        j = HalfInt(two_j)
        for k in range(6):
            val = a_coeff_trunc(j, k, 2.2)
            assert math.isfinite(val)
