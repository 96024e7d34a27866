"""Central factorial numbers of the first kind, exactly.

t(n, k) is the coefficient of x**k in the generating product of degree n:
even rows expand prod_{l=0}^{m-1} (x^2 - l^2) for n = 2m, odd rows expand
x * prod_{l=0}^{m-1} (x^2 - (l + 1/2)^2) for n = 2m + 1.  Each row is kept
as integers and memoized: even rows are the product itself, odd rows are
4**m times it, i.e. x * prod (4x^2 - (2l + 1)^2).  So t(even, even) are
integers, t(odd, odd) are rationals whose denominators divide 4**m, and
mixed-parity entries come out zero structurally.  The closed forms the
tests check rows against (cfn_t2, cfn_t4, cfn_asymptotic_ratio) live in
tests/oracles.py.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Tuple


@lru_cache(maxsize=None)
def _row(n: int) -> Tuple[int, ...]:
    """Integer coefficients of the degree-n generating product, by power.

    Row n is t(n, k) scaled by 4**(n//2) when n is odd, and unscaled when
    n is even.  Each row extends the same-parity predecessor by one
    quadratic factor (_next_row).  Filling the table through degree n
    costs O(n^2) integer multiplies.  A call that misses first asks for
    the same-parity rows below n, lowest first, so each finds its
    predecessor cached and no call recurses more than one level, however
    cold the table.
    """
    if n < 2:
        return _next_row((), n)
    for m in range(n % 2 + 2, n - 2, 2):
        _row(m)
    return _next_row(_row(n - 2), n)


def _next_row(prev: Tuple[int, ...], n: int) -> Tuple[int, ...]:
    """Row n from prev, row n - 2: one factor x^2 - (n/2 - 1)^2 for even n,
    4x^2 - (n - 2)^2 for odd n.  Rows 0 and 1 ignore prev.

    The one recurrence of the table: _row memoizes its rows, and the exp
    series frontiers (expcoeffs._Frontier) keep only the last.
    """
    if n < 2:
        return (1,) if n == 0 else (0, 1)
    a, c = (1, (n // 2 - 1) ** 2) if n % 2 == 0 else (4, (n - 2) ** 2)
    return tuple(a * hi - c * lo for lo, hi in zip(prev + (0, 0), (0, 0) + prev))


def cfn_pair(n: int, k: int) -> Tuple[int, int]:
    """t(n, k) as an unreduced integer pair (num, den), den a power of 4.

    The only reader of the integer rows: den undoes the row's 4**(n//2)
    scale for odd n, formed as the shift 1 << (n - 1), and is 1 for even n.
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got ({n}, {k})")
    if k > n:
        return 0, 1
    return _row(n)[k], 1 << (n - 1) if n % 2 else 1


def cfn(n: int, k: int) -> Fraction:
    """t(n, k); zero for mixed parity or k > n, with t(0, 0) = 1."""
    return Fraction(*cfn_pair(n, k))

