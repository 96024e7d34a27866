"""Polynomial helpers, RationalFunction, and the Euclidean oracle.

The Euclidean reduction below (poly_divmod, poly_gcd, canonical) is the
general route to lowest terms over Q; it brings its own scaling and
cross-multiplication helpers.  The library reduces its Cayley
tables through the determinant's known factors instead
(cayley.reduce_over_det); this oracle must agree with it on every entry.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from spinpoly.cayley import b_coeffs, det_poly, reduce_over_det
from spinpoly.exact import RationalFunction, poly, poly_eval, poly_mul
from spinpoly.halfint import HalfInt, half_integers


# ---------------------------------------------------------------------------
# Euclidean oracle over Fractions
# ---------------------------------------------------------------------------


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def poly_scale(p, c):
    return poly(pi * c for pi in p)


def same_function(r, s):
    """r == s as functions: the cross products of the quotients agree."""
    return poly_mul(r.num, s.den) == poly_mul(s.num, r.den)


def poly_divmod(p, q):
    p = poly(map(F, p))
    q = poly(map(F, q))
    if not q:
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    if len(p) < len(q):
        return (), p
    rem = list(p)
    lead = q[-1]
    dq = len(q) - 1
    quot = [F(0)] * (len(p) - dq)
    for i in range(len(p) - 1, dq - 1, -1):
        c = rem[i] / lead
        if c:
            quot[i - dq] = c
            for k, qk in enumerate(q):
                rem[i - dq + k] -= c * qk
    return poly(quot), poly(rem[:dq])


def poly_gcd(p, q):
    """Monic Euclidean GCD."""
    a, b = poly(map(F, p)), poly(map(F, q))
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return ()
    return poly_scale(a, 1 / a[-1])


def _primitive_scale(p):
    # scalar s with s*p having coprime integer coefficients, positive leading
    lcm = math.lcm(*(c.denominator for c in p))
    gcd = math.gcd(*(abs(int(c * lcm)) for c in p))
    s = F(lcm, gcd)
    return -s if p[-1] < 0 else s


def canonical(rf):
    """The reduced form whose denominator is primitive integer, positive leading."""
    if not rf.num:
        return RationalFunction((), (1,))
    g = poly_gcd(rf.num, rf.den)
    num = poly_divmod(rf.num, g)[0]
    den = poly_divmod(rf.den, g)[0]
    s = _primitive_scale(den)
    return RationalFunction(poly_scale(num, s), poly_scale(den, s))


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
        for k, num in enumerate(table.A):
            assert reduce_over_det(j, num) == canonical(RationalFunction(num, table.den)), (j, k)
        b0 = reduce_over_det(j, table.B[0])
        assert b0 == canonical(RationalFunction(table.B[0], table.den)), j
        if j.is_integer:
            assert b0 == RationalFunction((1,), (1,)), j


@given(
    st.integers(min_value=0, max_value=9),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=5),
    st.lists(st.booleans(), min_size=5, max_size=5),
)
def test_reduction_over_det_equals_oracle_on_any_numerator(two_j, rest, keep):
    # rest times a chosen subset of det's factors 1 + M^2 alpha^2 over det
    j = HalfInt(two_j)
    num = tuple(rest)
    for m, chosen in zip(range(two_j, 0, -2), keep):
        if chosen:
            num = poly_mul(num, (1, 0, m * m))
    rf = RationalFunction(num, det_poly(j))
    assert reduce_over_det(j, num) == canonical(rf)
