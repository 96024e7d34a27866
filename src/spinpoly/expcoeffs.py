"""Angle-dependent coefficients of the spin rotation polynomial.

For spin j the rotation exp(i*theta*n.J) equals
sum_k (1/k!) A_k(theta) (2i n.J)**k with k = 0..2j.  Each A_k is
sin(theta/2)**k times an optional cos(theta/2) factor times a truncated
power series in x = sin(theta/2)**2 whose Taylor coefficients are exact
rationals read off one column of the central factorial table: column k
when 2j - k is even, column k + 1 when it is odd, through the identity
(arcsin s)**k / sqrt(1 - s**2) = d/ds (arcsin s)**(k+1) / (k+1).  Three
generation paths are provided (truncated series, direct central-factorial
sum, derivative relation); they must agree and are tested against each
other.  The truncated series is the production path: exp_grid evaluates
it over a grid of angles, coeffs exp at one angle included, and
a_coeff_trunc is exp_grid at one point.

Coefficient r of column col sits in row col + 2r, and every column a
spin reads has the parity of 2j, so the float series of all spins of one
parity come from one sweep down the rows of that parity.  Each parity
keeps a frontier (_Frontier): the last row swept, and for each k the
running denominator (k + 1)...(k + 2r) and the list of floats built so
far.  A row extends every k's list by one coefficient, each one shift,
one small multiply and one int/int division, so correctly rounded; the
frontier only moves past the highest row any spin has asked for, and a
spin's series is a prefix of each list, float objects shared with every
other spin; a row is added whole or not at all.  The exact coefficients
(_series, the reconstruction weights) are the same pairs, built by the
same _next_pair down cfn_pair's memoized rows, for the checks only.
"""

from __future__ import annotations

import cmath
import math
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence, Tuple

from .cfn import _next_row, cfn_pair
from .exact import Poly, i_power_parts, poly_eval
from .halfint import HalfInt


def epsilon(j: HalfInt, k: int) -> int:
    """Parity marker: 0 when 2j - k is even, 1 when odd."""
    if not 0 <= k <= j.two_j:
        raise ValueError(f"k must lie in 0..{j.two_j}, got {k}")
    return (j.two_j - k) % 2


def _next_pair(k: int, col: int, r: int, t: int, den: int) -> Tuple[int, int]:
    """Coefficient r of A_k's series down column col, as the pair (num, den).

    t is |t(col + 2r, col)|, the row's integer (cfn_pair's num), and den
    is coefficient r - 1's den, ignored at r = 0.  The coefficient is
    k! 4**r / (k + 2r)! * |t(col + 2r, col)|: with P_r = (k + 1)...(k + 2r)
    the pair is (t << 2r, P_r) for even col.  For odd col the row integer
    carries 4**(r + (col - 1)/2), which cancels the 4**r, so the pair is
    (t, P_r << (col - 1)).  Either den is coefficient r - 1's times
    (k + 2r - 1)(k + 2r).  The pairs are left unreduced: int/int division
    and Fraction both accept them, and a gcd would cost more.  The one
    statement of the coefficient convention: _pairs and _Frontier both
    build their pairs here.
    """
    if r:
        den *= (k + 2 * r - 1) * (k + 2 * r)
    else:
        den = 1 << (col - 1) if col % 2 else 1
    return (t if col % 2 else t << 2 * r), den


def _pairs(two_j: int, k: int) -> list[Tuple[int, int]]:
    """The truncation entering A_k for spin two_j/2, as exact pairs (num, den).

    Coefficient r is k! 4**r / (k + 2r)! * |t(col + 2r, col)| (_next_pair)
    with col = k when 2j - k is even: the series of (arcsin(sqrt x)/sqrt x)**k.
    When 2j - k is odd col = k + 1, giving that series times (1 - x)**(-1/2),
    since (arcsin s)**k / sqrt(1 - s**2) is the derivative of
    (arcsin s)**(k+1) / (k+1).  The order is floor(j - k/2).  The rows
    come from cfn_pair's memoized table.  The only exact zeros, the tail
    t(2r, 0) = 0 for k = col = 0, are dropped.
    """
    col = k + (two_j - k) % 2
    pairs, den = [], 0
    for r in range((two_j - k) // 2 + 1):
        num, den = _next_pair(k, col, r, abs(cfn_pair(col + 2 * r, col)[0]), den)
        pairs.append((num, den))
    while not pairs[-1][0]:
        pairs.pop()
    return pairs


@lru_cache(maxsize=None)
def _series(two_j: int, k: int) -> Poly:
    """Exact truncation entering A_k for spin two_j/2 (see _pairs)."""
    return tuple(Fraction(num, den) for num, den in _pairs(two_j, k))


class _Frontier:
    """The float series of every spin of one parity, from one sweep down its rows.

    top is the last row swept and row its integers (cfn._next_row).  For
    each k, dens[k] and floats[k] are the running den and the floats
    num/den of A_k's series for the spins of this parity (_next_pair):
    coefficient r of column col comes from row col + 2r.  Row n adds
    coefficient (n - col)/2 to each k whose column is below n, and opens
    column n for k = n - 1 and n.  divided counts the coefficients built,
    each divided once for the life of the process.

    reach sweeps under the lock and reads top inside it, so threads asking
    for different spins at once never sweep a row twice.  A row is added
    whole or not at all (_sweep), and top moves only once it is, so a
    reader that finds top high enough reads a complete prefix unlocked.
    """

    __slots__ = ("parity", "top", "row", "dens", "floats", "divided", "lock")

    def __init__(self, parity: int):
        self.parity = parity
        self.top = parity - 2
        self.row: Tuple[int, ...] = ()
        self.dens: list[int] = []
        self.floats: list[list[float]] = []
        self.divided = 0
        self.lock = threading.Lock()

    def reach(self, two_j: int) -> None:
        """Sweep the rows of this parity up to two_j that no spin has reached yet."""
        with self.lock:
            for n in range(self.top + 2, two_j + 1, 2):
                self._sweep(n)

    def _sweep(self, n: int) -> None:
        """Add row n: one coefficient to every k in 0..n, k = n - 1 and n opened.

        The row's dens and floats are built aside and then committed; an
        exception or interrupt, in the build or the commit, leaves the
        frontier at row top as it was, so no den is multiplied twice.
        """
        row = _next_row(self.row, n)
        dens, new = self.dens.copy(), []
        for col in range(self.parity, n + 1, 2):
            r, t = (n - col) // 2, abs(row[col])
            for k in (col - 1, col) if col else (0,):  # ascending, each k once
                num, den = _next_pair(k, col, r, t, dens[k] if r else 0)
                if r:
                    dens[k] = den
                else:
                    dens.append(den)
                new.append(num / den)
        floats = self.floats
        sizes = [len(f) for f in floats]
        try:
            for f, value in zip(floats, new):
                f.append(value)
            floats.extend([value] for value in new[len(sizes):])
            divided = self.divided + len(new)
            self.row, self.dens, self.divided, self.top = row, dens, divided, n
        except BaseException:
            del floats[len(sizes):]
            for f, size in zip(floats, sizes):
                del f[size:]
            raise


_FRONTIERS = (_Frontier(0), _Frontier(1))


def _series_float(two_j: int, k: int) -> Tuple[float, ...]:
    """The truncation entering A_k, each coefficient its exact value correctly rounded.

    A prefix of the frontier's list for k (see _Frontier), its float
    objects shared with every spin of the same parity; the t(2r, 0) = 0
    tail of k = col = 0 is dropped, as _pairs drops it.
    """
    frontier = _FRONTIERS[two_j % 2]
    if frontier.top < two_j:
        frontier.reach(two_j)
    size = (two_j - k) // 2 + 1 if k or two_j % 2 else 1
    return tuple(frontier.floats[k][:size])


def exp_grid(
    j: HalfInt, thetas: Iterable[float], ks: Iterable[int] | None = None
) -> list[Tuple[float, ...]]:
    """A_k(theta) for each theta and each k in ks (default 0..2j): the one series evaluator.

    Returns one tuple per theta, in the order of ks.  Each series is
    fetched once per call; per point, the half-angle sine s and cosine c
    are taken once, and each A_k is Horner in s*s from the top coefficient
    down, starting from 0 * s*s, then times s**k, times c when 2j - k is
    odd.  a_coeff_trunc, coeffs exp and every grid of the truncated series
    come through here, so they agree bit for bit.  Raises ValueError on a
    k outside 0..2j.

    The points run four at a time, in lanes 0..3: one pass over a series
    steps all four Horner sums, so the loop over coefficients is paid once
    per four angles.  Each lane performs exactly the operations a point
    alone would, in the same order and on its own values, so a result does
    not depend on its neighbours, a nan or signed-zero angle included.
    The last group is padded with copies of its last point and their rows
    dropped, which costs at most 3 extra lanes per call.

    Where s**k falls below 2**-1022, it would lose bits before the
    multiply, so there the product is formed by _times_power and rounds
    once.  Each point finds, from the exponent of s, the highest k whose
    s**k is surely normal; every k up to it multiplies by s**k as before.
    """
    two_j = j.two_j
    ks = range(two_j + 1) if ks is None else ks
    # epsilon checks k before the series is read
    plan = [(k, epsilon(j, k), _series_float(two_j, k)[::-1]) for k in ks]
    points = []
    for theta in thetas:
        s = math.sin(theta / 2.0)
        # |s| >= 2**(e - 1), so s**k is normal while k * (1 - e) <= 1022; e = 1 iff |s| = 1
        e = math.frexp(s)[1]
        points.append((s, math.cos(theta / 2.0), s * s, 1022 // (1 - e) if e < 1 else two_j))
    count = len(points)
    points += points[-1:] * (-count % 4)
    out = []
    for i in range(0, count, 4):
        (s0, c0, x0, n0), (s1, c1, x1, n1), (s2, c2, x2, n2), (s3, c3, x3, n3) = points[i : i + 4]
        row0, row1, row2, row3 = [], [], [], []
        for k, odd, coeffs in plan:
            a0, a1, a2, a3 = 0 * x0, 0 * x1, 0 * x2, 0 * x3
            for co in coeffs:
                a0 = a0 * x0 + co
                a1 = a1 * x1 + co
                a2 = a2 * x2 + co
                a3 = a3 * x3 + co
            a0 = a0 * s0**k if k <= n0 else _times_power(a0, s0, k)
            a1 = a1 * s1**k if k <= n1 else _times_power(a1, s1, k)
            a2 = a2 * s2**k if k <= n2 else _times_power(a2, s2, k)
            a3 = a3 * s3**k if k <= n3 else _times_power(a3, s3, k)
            if odd:
                a0 *= c0
                a1 *= c1
                a2 *= c2
                a3 *= c3
            row0.append(a0)
            row1.append(a1)
            row2.append(a2)
            row3.append(a3)
        out += (tuple(row0), tuple(row1), tuple(row2), tuple(row3))
    del out[count:]
    return out


def _times_power(acc: float, s: float, k: int) -> float:
    """acc * s**k, rounded once where s**k alone would fall below 2**-1022.

    There the product is exact as integers, acc = a/b and s = m/n with b
    and n powers of two, and the one int/int division a * m**k / (b * n**k)
    rounds it, into the subnormal range as well; a product surely below
    2**-1075, half the least subnormal, is the signed 0 it rounds to
    without it.  Where s**k is normal, or s or acc is 0, or acc is not
    finite, it is acc * s**k.
    """
    p = s**k
    if not (abs(p) < 2.0**-1022 and s and acc and math.isfinite(acc)):
        return acc * p
    # |acc| < 2**ea and |s| < 2**es (frexp), so |acc * s**k| < 2**(ea + es*k)
    if math.frexp(acc)[1] + math.frexp(s)[1] * k <= -1075:
        return math.copysign(0.0, acc * p)
    a, b = acc.as_integer_ratio()
    m, n = s.as_integer_ratio()
    return a * m**k / (b << (n.bit_length() - 1) * k)


def a_coeff_trunc(j: HalfInt, k: int, theta: float) -> float:
    """A_k(theta) from the truncated-series formula: exp_grid at one point."""
    return exp_grid(j, (theta,), (k,))[0][0]


@lru_cache(maxsize=None)
def _cfn_sum_terms(two_j: int, k: int) -> Tuple[Tuple[int, float], ...]:
    # (m, k!/2^k * 2^m/m! * |t(m,k)|) for m = k..2j with the parity of k,
    # each one int/int division of cfn_pair's integers, so correctly rounded
    kfact = math.factorial(k)
    terms = []
    for m in range(k, two_j + 1, 2):
        num, den = cfn_pair(m, k)
        if num:
            terms.append((m, (kfact * abs(num) << m) / (math.factorial(m) * den << k)))
    return tuple(terms)


def half_angles(thetas: Iterable[float], top: int) -> list[tuple[list[float], float]]:
    """The grid that a_coeff_cfn_series and a_coeff_derivative_path read.

    Per angle, the powers s**0..s**top of s = sin(theta/2), and
    c = cos(theta/2); spin j needs top >= 2j.  A caller that reads many k
    of one spin builds it once.
    """
    out = []
    for theta in thetas:
        s = math.sin(theta / 2.0)
        out.append(([s**m for m in range(top + 1)], math.cos(theta / 2.0)))
    return out


def a_coeff_cfn_series(j: HalfInt, k: int, halves: Sequence) -> list[float]:
    """A_k on a grid, by the direct central-factorial sum; needs 2j - k even.

    halves is half_angles(thetas, top), top >= 2j, and each value is the
    fsum of the terms coef * s**m.
    """
    if epsilon(j, k):
        raise ValueError(f"2j - k must be even, got 2j={j.two_j}, k={k}")
    terms = _cfn_sum_terms(j.two_j, k)
    return [math.fsum([c * powers[m] for m, c in terms]) for powers, _ in halves]


def a_coeff_derivative_path(j: HalfInt, k: int, halves: Sequence) -> list[float]:
    """A_{k-1} on a grid, from the derivative relation A_{k-1} = (2/k) dA_k/dtheta.

    Requires 2j - k even (so A_k carries the central-factorial sum); the
    differentiation is done analytically term by term.  halves is as for
    a_coeff_cfn_series.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if epsilon(j, k):
        raise ValueError(f"2j - k must be even, got 2j={j.two_j}, k={k}")
    # (2/k) d/dtheta [coef * s**m] = (coef * m / k) * s**(m-1) * c
    terms = [(m - 1, co * m / k) for m, co in _cfn_sum_terms(j.two_j, k)]
    return [math.fsum([w * powers[e] * c for e, w in terms]) for powers, c in halves]


# ---------------------------------------------------------------------------
# exact reconstruction oracle
#
# Floats are ill-conditioned here: at large 2j the terms of the
# reconstruction sum reach ~1e14 before cancelling to unit modulus.  The
# oracle therefore checks the identity exactly, entering through a rational
# point (s, c) = (2ab, b^2 - a^2) / (a^2 + b^2) that lies *exactly* on the
# unit circle (t = tan(theta/4) = a/b), where
# sum_k (1/k!) A_k (i*M)**k == (c + i s)**M holds per eigenvalue M of S.
# Scaled by L * (a^2 + b^2)**2j, with L the common denominator of the
# series coefficients, both sides are Gaussian integers.  Floats appear only
# in the final comparison against exp, each one int/int division.
# ---------------------------------------------------------------------------


def quarter_tan(theta: float) -> tuple[int, int]:
    """t = tan(theta/4) as a/b in lowest terms, b > 0: the rational point of theta."""
    return Fraction(math.tan(theta / 4.0)).limit_denominator(10**12).as_integer_ratio()


@lru_cache(maxsize=None)
def _recon_weights(two_j: int) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """(L, w): A_k/k! = sum_r w[k][r]/L * s**(k+2r) * c**eps, all integers.

    L is the least common denominator of the reduced coefficients
    num/(den k!) over every _pairs pair of the spin.
    """
    fracs = [
        [Fraction(num, den * math.factorial(k)) for num, den in _pairs(two_j, k)]
        for k in range(two_j + 1)
    ]
    lcm = math.lcm(*(f.denominator for row in fracs for f in row))
    return lcm, tuple(
        tuple(f.numerator * (lcm // f.denominator) for f in row) for row in fracs
    )


def _recon_numerators(two_j: int, s: int, c: int, d: int) -> list[int]:
    """X_k = L d**2j A_k/k! at (sin, cos)(theta/2) = (s, c)/d, for k = 0..2j.

    X_k = c**eps s**k sum_r w_r s**2r d**(2j-k-eps-2r) with L and w from
    _recon_weights.  The sum runs by Horner in d**2 from r = 0 up, one
    big product w_r s**2r per term, and is then multiplied by d**2 once
    for each coefficient the zero tail of the series dropped from w.
    """
    w_all = _recon_weights(two_j)[1]
    s2, d2 = s * s, d * d
    s2_pow = [1]
    for _ in range(two_j // 2):
        s2_pow.append(s2_pow[-1] * s2)
    xs = []
    s_pow = 1
    for k, w in enumerate(w_all):
        acc = 0
        for wr, s2r in zip(w, s2_pow):
            acc = acc * d2 + wr * s2r
        x = s_pow * acc * d2 ** ((two_j - k) // 2 + 1 - len(w))
        xs.append(x * c if (two_j - k) % 2 else x)
        s_pow *= s
    return xs


class ExpReconstruction(NamedTuple):
    j: HalfInt
    theta: float
    max_error: float   # worst |sum - exp(i theta m)| over the spectrum
    exact: bool        # whether the rational identity held bit-exactly


def exp_reconstruction(
    j: HalfInt, theta: float, point: tuple[int, int] | None = None
) -> ExpReconstruction:
    """Check sum_k (1/k!) A_k (2i m)**k == e^{i theta m} on the spectrum.

    point is quarter_tan(theta), taken when not given; a caller checking
    many spins at one theta passes it to find it once.
    """
    two_j = j.two_j
    lcm = _recon_weights(two_j)[0]
    a, b = quarter_tan(theta) if point is None else point
    s, c, d = 2 * a * b, b * b - a * a, a * a + b * b  # (sin, cos)(theta/2) * d
    d2_pow = [1]
    for _ in range(two_j // 2):
        d2_pow.append(d2_pow[-1] * d * d)
    even, odd = i_power_parts(_recon_numerators(two_j, s, c, d))
    den = lcm * d**two_j
    max_err = 0.0
    exact = True
    # |M| = 2|m| runs up from 0 or 1; the target is L (c + i s)**|M| d**(2j-|M|)
    ere, eim = (c, s) if two_j % 2 else (1, 0)
    step = (c * c - s * s, 2 * c * s)
    for m in range(two_j % 2, two_j + 1, 2):
        re = poly_eval(even, m * m)
        im = m * poly_eval(odd, m * m)
        scale = lcm * d2_pow[(two_j - m) // 2]
        if re != scale * ere or im != scale * eim:
            exact = False
        for m2 in (m, -m) if m else (m,):  # M and -M share re and -im
            got = complex(re / den, (im if m2 > 0 else -im) / den)
            max_err = max(max_err, abs(got - cmath.exp(1j * theta * m2 / 2.0)))
        ere, eim = ere * step[0] - eim * step[1], ere * step[1] + eim * step[0]
    return ExpReconstruction(j, theta, max_err, exact)
