"""The result records are immutable NamedTuples.

HalfInt, GridSpec and RationalFunction check (and RationalFunction
normalizes) their fields when built and when _replace copies them, with
the exception types and messages they had as frozen dataclasses.  Every
record keeps its field names, defaults and repr, refuses assignment, and
HalfInt hashes and sorts by two_j.
"""

from fractions import Fraction as F

import pytest

from spinpoly import basis, bridge, cayley, expcoeffs, fixtures
from spinpoly.exact import RationalFunction
from spinpoly.halfint import HalfInt
from spinpoly.plots import GridSpec


def test_checked_records_repr():
    assert repr(HalfInt(3)) == "HalfInt(two_j=3)"
    assert repr(GridSpec(0.0, 1.5, 4)) == "GridSpec(start=0.0, stop=1.5, count=4)"
    assert repr(RationalFunction((1, 2), (3,))) == "RationalFunction(num=(1, 2), den=(3,))"


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: HalfInt(True), TypeError, "two_j must be an int, got True"),
        (lambda: HalfInt(1.5), TypeError, "two_j must be an int, got 1.5"),
        (lambda: HalfInt(-1), ValueError, "two_j must be nonnegative, got -1"),
        (lambda: GridSpec(0, 1, 0), ValueError, "grid count must be at least 1"),
        (lambda: GridSpec(1, 0, 2), ValueError, "grid stop must not precede start"),
        (lambda: RationalFunction((1,), (0,)), ZeroDivisionError, "rational function with zero denominator"),
        # _replace builds through the same checks
        (lambda: HalfInt(2)._replace(two_j=True), TypeError, "two_j must be an int, got True"),
        (lambda: HalfInt(2)._replace(two_j=-1), ValueError, "two_j must be nonnegative, got -1"),
        (lambda: GridSpec(0, 1, 3)._replace(count=-5), ValueError, "grid count must be at least 1"),
        (lambda: GridSpec(0, 1, 3)._replace(stop=-1), ValueError, "grid stop must not precede start"),
        (lambda: RationalFunction((1,), (1,))._replace(den=()), ZeroDivisionError, "rational function with zero denominator"),
    ],
    ids=[
        "bool", "float", "negative", "count", "order", "zero-den",
        "replace-bool", "replace-negative", "replace-count", "replace-order", "replace-zero-den",
    ],
)
def test_checked_records_refuse_bad_fields(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_rational_function_strips_trailing_zeros():
    rf = RationalFunction([1, 2, 0, 0], (F(1, 2), 0))
    assert rf.num == (1, 2) and rf.den == (F(1, 2),)
    assert rf == RationalFunction((1, 2), (F(1, 2),))
    assert RationalFunction(num=(0,), den=(1,)).num == ()
    assert RationalFunction((1,), (1,))._replace(num=[1, 0], den=[2, 0]) == RationalFunction((1,), (2,))


def test_replace_keeps_the_record_type():
    assert type(HalfInt(2)._replace(two_j=3)) is HalfInt and HalfInt._make([4]) == HalfInt(4)
    assert GridSpec(0.0, 1.0, 3)._replace(count=2) == GridSpec(0.0, 1.0, 2)
    with pytest.raises(ValueError, match="unexpected field names"):
        HalfInt(2)._replace(two=3)


def test_half_int_hashes_and_sorts_by_two_j():
    assert hash(HalfInt(5)) == hash(HalfInt(5)) == hash((5,))
    assert len({HalfInt(2), HalfInt(2), HalfInt(3)}) == 2
    assert sorted([HalfInt(5), HalfInt(0), HalfInt(2)]) == [HalfInt(0), HalfInt(2), HalfInt(5)]
    assert HalfInt(1) < HalfInt(2) <= HalfInt(2) and max(HalfInt(7), HalfInt(4)) == HalfInt(7)


def test_record_defaults():
    assert fixtures.FixtureResult("x", True) == fixtures.FixtureResult("x", True, "")
    report = basis.FundamentalIdentityReport(HalfInt(1), True)
    assert (report.failing_eigenvalue, report.lhs, report.rhs) == (None, None, None)


def _records():
    j = HalfInt(2)
    return [
        j,
        GridSpec(0.0, 1.0, 2),
        RationalFunction((1,), (1, 1)),
        cayley.b_coeffs(j),
        cayley.cayley_reconstruction(j, F(1, 2)),
        expcoeffs.exp_reconstruction(j, 0.5),
        basis.verify_fundamental_identity(j),
        bridge.laplace_pair(j, 1, 0.5),
        fixtures.FixtureResult("x", True),
    ]


def test_records_refuse_assignment():
    for record in _records():
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1
