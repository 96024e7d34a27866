"""Polynomial helpers, RationalFunction, and the Euclidean oracle.

The Euclidean reduction (poly_divmod, poly_gcd, canonical in
tests/oracles.py) is the general route to lowest terms over Q.  The
library needs none: cayley.a_coeffs reads every Cayley coefficient in
lowest terms off the table, and this oracle must agree with it on every
entry.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from spinpoly.cayley import a_coeffs, b_coeffs
from spinpoly.exact import RationalFunction, poly, poly_eval, poly_mul
from spinpoly.halfint import half_integers

from oracles import canonical, poly_divmod, poly_gcd


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def same_function(r, s):
    """r == s as functions: the cross products of the quotients agree."""
    return poly_mul(r.num, s.den) == poly_mul(s.num, r.den)


rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)
small_polys = st.lists(rationals, max_size=6).map(poly)


def test_eval_examples():
    assert poly_eval(poly([1, 0, 4]), F(1)) == 5
    assert poly_eval((), 7) == 0
    assert poly_eval(poly([1, 0, 10, 0, 9]), F(1)) == 20
    assert poly_eval(poly([1, 0, 10, 0, 9]), 1.0) == pytest.approx(20.0)
    # integer coefficients at an int argument: the exact value, not a float
    value = RationalFunction((0, 1), (1, 0, 1))(2)
    assert value == F(2, 5) and type(value) is F


def test_mul_add_examples():
    assert poly_mul(poly([1, 0, 1]), poly([1, 0, 9])) == poly([1, 0, 10, 0, 9])
    p = poly([2, -3, 5])
    assert poly_add(p, ()) == p
    assert poly_mul(p, ()) == ()


def test_ratfunc_reduce_common_factor():
    rf = RationalFunction(poly([0, 1, 1]), poly([0, 1]))  # (x^2 + x)/x
    assert canonical(rf) == RationalFunction(poly([1, 1]), poly([1]))


def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(poly([1]), ())


def test_ratfunc_canonical_makes_den_primitive_integer():
    rf = RationalFunction(poly([F(1, 3), F(2, 3)]), poly([F(2, 3), F(4, 3)]))
    canon = canonical(rf)
    assert canon == RationalFunction(poly([F(1, 2)]), poly([1]))


@given(small_polys, small_polys, small_polys)
def test_ring_distributivity(p, q, r):
    assert poly_mul(poly_add(p, q), r) == poly_add(poly_mul(p, r), poly_mul(q, r))


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
    once = canonical(RationalFunction(p, q))
    assert canonical(once) == once
    assert same_function(once, RationalFunction(p, q))


def test_gcd_of_known_factors():
    shared = poly([1, 2])
    a = poly_mul(shared, poly([3, 0, 1]))
    b = poly_mul(shared, poly([-1, 1]))
    g = poly_gcd(a, b)
    assert g == poly([F(1, 2), 1])  # monic multiple of (1 + 2x)


def test_reduction_over_det_equals_euclidean_oracle():
    # every A_k for 2j <= 30, and B_0, which is 1/1 for integer spin
    for j in half_integers(30):
        table = b_coeffs(j)
        # the unreduced numerators over den: A_k = 2 B_k, A_0 = 2 B_0 - 1
        nums = [tuple(2 * c for c in num) for num in map(table.b_num, range(j.two_j + 1))]
        nums[0] = poly_add(nums[0], [-c for c in table.den])
        for k, (a, num) in enumerate(zip(a_coeffs(j), nums, strict=True)):
            assert a == canonical(RationalFunction(num, table.den)), (j, k)
        if j.is_integer:
            b0 = canonical(RationalFunction(table.b_num(0), table.den))
            assert b0 == RationalFunction((1,), (1,)), j


def test_cayley_tables_are_in_lowest_terms():
    # each B_k over den, but B_0 = den/den at integer spin, and each A_k of
    # a_coeffs is its own Euclidean reduced form
    for j in half_integers(40):
        table = b_coeffs(j)
        nums = map(table.b_num, range(j.is_integer, j.two_j + 1))
        rfs = [RationalFunction(num, table.den) for num in nums]
        for rf in rfs + list(a_coeffs(j)):
            assert canonical(rf) == rf, (j, rf)
