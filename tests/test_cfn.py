import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from spinpoly.cayley import det_cfn_poly
from spinpoly.cfn import cfn
from spinpoly.exact import poly, poly_mul
from spinpoly.halfint import HalfInt

from oracles import cfn_asymptotic_ratio, cfn_t2, cfn_t4


def test_even_values():
    # x^2(x^2-1) = x^4 - x^2 and x^2(x^2-1)(x^2-4) = x^6 - 5x^4 + 4x^2
    assert cfn(4, 2) == -1
    assert cfn(4, 4) == 1
    assert cfn(2, 2) == 1
    assert cfn(6, 4) == -5
    assert cfn(6, 2) == 4


def test_odd_values():
    # x(x^2-1/4) = x^3 - x/4; x(x^2-1/4)(x^2-9/4) = x^5 - 5/2 x^3 + 9/16 x
    assert cfn(1, 1) == 1
    assert cfn(3, 1) == F(-1, 4)
    assert cfn(5, 3) == F(-5, 2)
    assert cfn(5, 1) == F(9, 16)


def test_dispatch():
    assert cfn(5, 2) == 0
    assert cfn(4, 2) == -1
    assert cfn(6, 6) == 1
    assert cfn(0, 0) == 1
    assert cfn(4, 9) == 0


def test_index_errors():
    with pytest.raises(ValueError):
        cfn(-1, 0)
    with pytest.raises(ValueError):
        cfn(3, -1)


def test_row_eight_by_hand():
    # x^2(x^2-1)(x^2-4)(x^2-9) = x^8 - 14x^6 + 49x^4 - 36x^2
    assert [cfn(8, k) for k in (2, 4, 6, 8)] == [-36, 49, -14, 1]


def test_row_seven_by_hand():
    # x(x^2-1/4)(x^2-9/4)(x^2-25/4) = x^7 - 35/4 x^5 + 259/16 x^3 - 225/64 x
    assert [cfn(7, k) for k in (1, 3, 5, 7)] == [F(-225, 64), F(259, 16), F(-35, 4), 1]


def _rows_by_fraction_product(max_n):
    # row n expands x^(n%2) * prod (x^2 - (l + n%2/2)^2), one Fraction
    # quadratic factor at a time; unscaled, unlike the library's integer rows
    rows = [poly([1]), poly([0, 1])]
    for n in range(2, max_n + 1):
        root = F(n - 2, 2)  # l = n//2 - 1, plus 1/2 for odd n
        rows.append(poly_mul(rows[n - 2], poly([-root * root, 0, 1])))
    return rows


def test_integer_rows_match_fraction_product():
    for n, row in enumerate(_rows_by_fraction_product(200)):
        assert [cfn(n, k) for k in range(n + 1)] == list(row), n


def test_det_row_values():
    assert det_cfn_poly(HalfInt(3)) == (1, 0, 10, 0, 9)
    assert det_cfn_poly(HalfInt(1)) == (1, 0, 1)
    assert det_cfn_poly(HalfInt(2)) == (1, 0, 4)


@given(st.integers(0, 60), st.integers(0, 60))
def test_mixed_parity_vanishes(n, k):
    if (n + k) % 2:
        assert cfn(n, k) == 0


@given(st.integers(1, 20), st.integers(1, 20))
def test_even_sign_law(m, k):
    if k <= m:
        value = cfn(2 * m, 2 * k)
        assert value != 0
        assert (value > 0) == ((m - k) % 2 == 0)


@given(st.integers(0, 20), st.integers(0, 20))
def test_odd_sign_law_and_denominators(m, k):
    if k <= m:
        value = cfn(2 * m + 1, 2 * k + 1)
        assert value != 0
        assert (value > 0) == ((m - k) % 2 == 0)
        # denominators come from clearing the (2l+1)^2/4 factors: a power
        # of two dividing 4**m (e.g. t(5,3) = -5/2 after reduction)
        den = value.denominator
        assert den & (den - 1) == 0
        assert 4**m % den == 0


def test_diagonal_is_one():
    for n in range(0, 40):
        assert cfn(n, n) == 1


def test_t2_closed_form():
    assert cfn_t2(0) == 1
    assert cfn_t2(3) == 36
    assert cfn_t2(5) == 14400
    for j in range(0, 21):
        assert cfn_t2(j) == abs(cfn(2 * j + 2, 2))


def test_t4_values_and_agreement():
    assert cfn_t4(1).exact == 1
    assert cfn_t4(2).exact == 5
    assert cfn_t4(3).exact == 49
    for j in (1, 2, 3, 7, 15, 40):
        pair = cfn_t4(j)
        assert abs(pair.value - float(pair.exact)) <= 1e-12 * float(pair.exact)


def test_asymptotic_ratio_l1_exact():
    for j in (1, 5, 60, 150):
        assert cfn_asymptotic_ratio(1, j, 0.7) == 1.0


def test_asymptotic_ratio_limit():
    limit = math.pi**2 / 24
    at_200 = cfn_asymptotic_ratio(2, 200, 1.0)
    assert abs(at_200 - limit) < 0.01 * limit
    # monotone approach from below
    at_5 = cfn_asymptotic_ratio(2, 5, 1.0)
    at_50 = cfn_asymptotic_ratio(2, 50, 1.0)
    assert at_5 < at_50 < at_200 < limit


def test_asymptotic_ratio_rejects_zero_alpha():
    with pytest.raises(ValueError):
        cfn_asymptotic_ratio(2, 5, 0.0)


def test_submodule_is_not_shadowed_by_the_function():
    import spinpoly.cfn as m

    assert m is sys.modules["spinpoly.cfn"]
    assert m.cfn(4, 2) == -1  # x^2 (x^2 - 1)
