from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from spinpoly.exact import (
    RationalFunction,
    poly,
    poly_add,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_series_div,
    poly_truncate,
    ratfunc_reduce,
)

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)
small_polys = st.lists(rationals, max_size=6).map(poly)


def test_truncate_examples():
    assert poly_truncate(poly([1, 10, 9]), 1) == poly([1, 10])
    assert poly_truncate(poly([3, 2, 7]), 0) == poly([3])
    assert poly_truncate(poly([0, 0, 0, 1]), 5) == poly([0, 0, 0, 1])
    assert poly_truncate(poly([1, 2]), -1) == ()


def test_eval_examples():
    assert poly_eval(poly([1, 0, 4]), F(1)) == 5
    assert poly_eval((), 7) == 0
    assert poly_eval(poly([1, 0, 10, 0, 9]), F(1)) == 20
    assert poly_eval(poly([1, 0, 10, 0, 9]), 1.0) == pytest.approx(20.0)


def test_mul_add_examples():
    assert poly_mul(poly([1, 0, 1]), poly([1, 0, 9])) == poly([1, 0, 10, 0, 9])
    p = poly([2, -3, 5])
    assert poly_add(p, ()) == p
    assert poly_mul(p, ()) == ()


def test_ratfunc_reduce_common_factor():
    rf = RationalFunction(poly([0, 1, 1]), poly([0, 1]))  # (x^2 + x)/x
    assert ratfunc_reduce(rf) == RationalFunction(poly([1, 1]), poly([1]))


def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(poly([1]), ())


def test_ratfunc_canonical_makes_den_primitive_integer():
    rf = RationalFunction(poly([F(1, 3), F(2, 3)]), poly([F(2, 3), F(4, 3)]))
    canon = rf.canonical()
    assert canon == RationalFunction(poly([F(1, 2)]), poly([1]))


def test_series_div_geometric():
    # 1/(1-x) = 1 + x + x^2 + ...
    assert poly_series_div(poly([1]), poly([1, -1]), 4) == poly([1, 1, 1, 1, 1])


@given(small_polys, small_polys, small_polys)
def test_ring_distributivity(p, q, r):
    assert poly_mul(poly_add(p, q), r) == poly_add(poly_mul(p, r), poly_mul(q, r))


@given(small_polys)
def test_truncate_at_degree_is_identity(p):
    assert poly_truncate(p, len(p)) == p


@given(small_polys, small_polys)
def test_divmod_roundtrip(p, q):
    if not q:
        return
    quot, rem = poly_divmod(p, q)
    assert poly_add(poly_mul(quot, q), rem) == p
    assert len(rem) < len(q)


@given(small_polys, small_polys)
def test_reduce_idempotent(p, q):
    if not q:
        return
    once = ratfunc_reduce(RationalFunction(p, q))
    assert ratfunc_reduce(once) == once
    assert once.equivalent(RationalFunction(p, q))


def test_gcd_of_known_factors():
    shared = poly([1, 2])
    a = poly_mul(shared, poly([3, 0, 1]))
    b = poly_mul(shared, poly([-1, 1]))
    g = poly_gcd(a, b)
    assert g == poly([F(1, 2), 1])  # monic multiple of (1 + 2x)


@given(small_polys, small_polys, small_polys, small_polys)
def test_equivalent_is_the_fraction_cross_product(p, q, r, s):
    # the integer cross-multiplication decides as poly_mul over Fractions does
    if not q or not s:
        return
    left, right = RationalFunction(p, q), RationalFunction(r, s)
    assert left.equivalent(right) == (poly_mul(p, s) == poly_mul(r, q))
    assert left.equivalent(RationalFunction(poly_mul(p, s), poly_mul(q, s)))


def test_equivalent_examples():
    half = RationalFunction(poly([F(1, 2), F(1, 3)]), poly([1, 0, F(2, 5)]))
    assert half.equivalent(RationalFunction(poly([15, 10]), poly([30, 0, 12])))
    assert not half.equivalent(RationalFunction(poly([15, 10]), poly([30, 0, 13])))
    assert not half.equivalent(RationalFunction(poly([15, 10, 1]), poly([30, 0, 12])))
    assert RationalFunction((), (3,)).equivalent(RationalFunction((), poly([1, 1])))
    assert not RationalFunction((), (3,)).equivalent(RationalFunction((1,), (3,)))
