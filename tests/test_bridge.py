import math
import random
from fractions import Fraction as F

import pytest
from scipy.integrate import quad

from spinpoly.bridge import (
    alpha_from_theta,
    b_from_a_laplace,
    gauss_legendre,
    laplace_pair,
    quadrature_check,
)
from spinpoly.cayley import b_coeffs, eval_coeffs
from spinpoly.exact import RationalFunction
from spinpoly.halfint import HalfInt, half_integers

from oracles import theta_from_alpha, verify_exp_equal_cayley
from test_cayley import KS_ALPHAS
from test_integer_identities import laplace_sin_cos_power, laplace_sin_power


def test_sin_power_basic_values():
    assert laplace_sin_power(0, F(3)) == 1
    assert laplace_sin_power(1, F(1, 2)) == F(2, 5)  # a/(1+a^2)
    assert laplace_sin_power(2, F(1)) == F(1, 5)
    assert laplace_sin_power(1, 1.0) == pytest.approx(0.5)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("m", range(13))
def test_sin_power_against_quadrature(m, alpha):
    integral, _err = quad(
        lambda t: math.exp(-t) * math.sin(alpha * t) ** m, 0.0, 60.0, limit=800
    )
    want = integral / math.factorial(m)
    assert abs(laplace_sin_power(m, alpha) - want) <= 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", range(12))
def test_sin_cos_power_against_quadrature(n, alpha):
    integral, _err = quad(
        lambda t: math.exp(-t) * math.sin(alpha * t) ** n * math.cos(alpha * t),
        0.0,
        60.0,
        limit=800,
    )
    want = integral / math.factorial(n)
    assert abs(laplace_sin_cos_power(n, alpha) - want) <= 1e-10 * max(1.0, abs(want))


def test_b_from_a_closed_forms():
    # spin 1/2, k=0: Laplace of cos
    a = F(2, 5)
    assert b_from_a_laplace(HalfInt(1), 0, a) == 1 / (1 + a * a)
    # spin 1, k=1: Laplace of sin(2 alpha t)/2
    assert b_from_a_laplace(HalfInt(2), 1, a) == a / (1 + 4 * a * a)
    # spin 3/2, k=0 matches the exact table
    table = b_coeffs(HalfInt(3))
    want = RationalFunction(table.b_num(0), table.den)(F(1, 3))
    assert b_from_a_laplace(HalfInt(3), 0, F(1, 3)) == want


def test_b_from_a_matches_table_everywhere():
    alphas = [F(n, 7) for n in (-9, -4, -1, 2, 5, 13)]
    for j in half_integers(8):
        table = b_coeffs(j)
        for k, num in enumerate(map(table.b_num, range(j.two_j + 1))):
            b = RationalFunction(num, table.den)
            for alpha in alphas:
                assert b_from_a_laplace(j, k, alpha) == b(alpha), (j, k, alpha)


def test_b_from_a_at_zero_alpha():
    for j in half_integers(6):
        for k in range(j.two_j + 1):
            assert b_from_a_laplace(j, k, F(0)) == (1 if k == 0 else 0)


def test_b_from_a_range_error():
    with pytest.raises(ValueError):
        b_from_a_laplace(HalfInt(2), 3, F(1))


def test_laplace_pair_consistency():
    pair = laplace_pair(HalfInt(3), 2, 0.45)
    assert pair.consistent
    assert pair.b_direct == pytest.approx(pair.b_via_laplace, rel=1e-12)


@pytest.mark.parametrize("two_j, k", [(2, -1), (2, 3), (3, -1), (3, 4)])
def test_laplace_pair_range_error(two_j, k):
    with pytest.raises(ValueError, match=rf"^k must lie in 0\.\.{two_j}, got {k}$"):
        laplace_pair(HalfInt(two_j), k, 0.5)


def test_laplace_pair_rounds_each_exact_side_once():
    # direct is the Cayley table's entry and via the exact transform, each rounded once
    for two_j in range(61):
        j = HalfInt(two_j)
        for alpha in KS_ALPHAS:
            direct = eval_coeffs(j, alpha)[0]
            ks = range(two_j + 1)
            if alpha == 1e-300:  # q = 2**1049: each exact transform takes milliseconds
                ks = sorted({0, 1, 2, two_j} & set(ks))
            for k in ks:
                pair = laplace_pair(j, k, alpha)
                assert pair.b_direct.hex() == direct[k].hex(), (two_j, k, alpha)
                via = float(b_from_a_laplace(j, k, alpha))
                assert pair.b_via_laplace.hex() == via.hex(), (two_j, k, alpha)


def test_gauss_legendre_rule():
    nodes, weights = gauss_legendre(8)
    assert sum(weights) == pytest.approx(2.0, rel=1e-14)
    # integrates x^10 over [-1, 1] well inside the degree-15 exactness bound
    got = sum(w * x**10 for x, w in zip(nodes, weights))
    assert got == pytest.approx(2.0 / 11.0, rel=1e-13)


def test_quadrature_check_values():
    assert quadrature_check(HalfInt(1), 1, 1.0) == pytest.approx(0.5, abs=1e-7)
    # alpha = 0 collapses to the k = 0 Kronecker column
    assert quadrature_check(HalfInt(4), 0, 0.0) == pytest.approx(1.0, abs=1e-9)
    assert quadrature_check(HalfInt(4), 2, 0.0) == pytest.approx(0.0, abs=1e-12)
    table = b_coeffs(HalfInt(4))
    want = float(RationalFunction(table.b_num(3), table.den)(F(7, 10)))
    assert quadrature_check(HalfInt(4), 3, 0.7) == pytest.approx(want, abs=1e-7 + math.exp(-40))


def test_shear_maps_spin_half_form():
    for theta in (0.4, 1.9, -2.6):
        assert alpha_from_theta(0.5, theta) == pytest.approx(math.tan(theta / 4), rel=1e-14)
    for alpha in (0.2, -1.4):
        assert theta_from_alpha(0.5, alpha) == pytest.approx(4 * math.atan(alpha), rel=1e-14)


def test_shear_round_trip():
    for m in (0.5, 1.0, 1.5, 2.0):
        for theta in (0.3, 0.9, -0.7):
            alpha = alpha_from_theta(m, theta)
            assert theta_from_alpha(m, alpha) == pytest.approx(theta, rel=1e-12)
    with pytest.raises(ValueError):
        theta_from_alpha(0.0, 0.5)


def test_shear_disagreement_above_spin_one():
    theta = 1.0
    for two_j in (3, 4, 5):
        magnitudes = sorted({abs(m2) / 2.0 for m2 in range(two_j, -two_j - 1, -2)} - {0.0})
        alphas = [alpha_from_theta(m, theta) for m in magnitudes]
        assert len(magnitudes) > 1
        assert max(alphas) - min(alphas) > 1e-6, (two_j, alphas)


def test_shear_pole_raises():
    with pytest.raises(ValueError):
        alpha_from_theta(1.0, math.pi)
    with pytest.raises(ValueError):
        alpha_from_theta(0.0, 0.3)


def test_eigenstate_identity_examples():
    assert verify_exp_equal_cayley(1.0, math.pi / 3)
    assert verify_exp_equal_cayley(0.5, math.pi / 2)
    assert verify_exp_equal_cayley(0.0, 123.4)


def test_eigenstate_identity_random():
    rng = random.Random(431)
    ms = [0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 2.0, -2.0]
    checked = 0
    while checked < 200:
        m = rng.choice(ms)
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        if abs(math.cos(m * theta / 2)) < 0.1:
            continue
        assert verify_exp_equal_cayley(m, theta), (m, theta)
        checked += 1
