"""Independent references that the tests compare the library against.

None of these is a production path: each recomputes a quantity the
library serves by a second route (a closed form, a numeric special
function, a per-eigenstate identity) so that agreement means something.
No CLI command, verify check or fixture runs them, so they live here.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from spinpoly import cayley, expcoeffs
from spinpoly.bridge import alpha_from_theta
from spinpoly.cayley import b_limit_ratio, eval_coeffs
from spinpoly.cfn import _next_row, cfn, cfn_pair
from spinpoly.exact import RationalFunction, poly
from spinpoly.halfint import HalfInt
from spinpoly.plots import DEFAULT_KS, DEFAULT_SPINS, FIGURES


# ---------------------------------------------------------------------------
# basis: the closed-form inverse-Vandermonde entry
# ---------------------------------------------------------------------------


def findumonde_entry(j: HalfInt, k: int, l: int) -> Fraction:
    """Closed-form inverse-Vandermonde entry at 1-based (k, l).

    Evaluates the nested-sum numerator directly; the subset enumeration is
    exponential in 2j+1-k, so this is a cross-check for small spins, not
    the production path.
    """
    n = j.two_j + 1
    if not (1 <= k <= n and 1 <= l <= n):
        raise ValueError(f"indices must lie in 1..{n}, got ({k}, {l})")
    size = n - k
    if size == 0:
        numerator = Fraction(1)
    else:
        others = [m for m in range(1, n + 1) if m != l]
        total = Fraction(0)
        for subset in itertools.combinations(others, size):
            term = Fraction(1)
            for m in subset:
                term *= Fraction(j.two_j + 2 - 2 * m, 2)  # j + 1 - m
            total += term
        numerator = -total if (k - j.two_j - 1) % 2 else total
    sign = -1 if (1 - l) % 2 else 1
    return (
        Fraction(sign, 2 ** (k - 1))
        * numerator
        / (math.factorial(n - l) * math.factorial(l - 1))
    )


# ---------------------------------------------------------------------------
# exact: the Euclidean route to lowest terms over Q
# ---------------------------------------------------------------------------


def poly_scale(p, c):
    return poly(pi * c for pi in p)


def poly_divmod(p, q):
    p = poly(map(Fraction, p))
    q = poly(map(Fraction, q))
    if not q:
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    if len(p) < len(q):
        return (), p
    rem = list(p)
    lead = q[-1]
    dq = len(q) - 1
    quot = [Fraction(0)] * (len(p) - dq)
    for i in range(len(p) - 1, dq - 1, -1):
        c = rem[i] / lead
        if c:
            quot[i - dq] = c
            for k, qk in enumerate(q):
                rem[i - dq + k] -= c * qk
    return poly(quot), poly(rem[:dq])


def poly_gcd(p, q):
    """Monic Euclidean GCD, by primitive pseudo-remainders.

    Each step divides lead(b)^e a by b over the integers and keeps the
    primitive part of the remainder: over Q the same remainder sequence up
    to scalars, without the growth of Fraction coefficients.
    """
    a, b = (_primitive(x) if x else () for x in (poly(p), poly(q)))
    while b:
        a, b = b, _pseudo_rem(a, b)
    if not a:
        return ()
    return poly_scale(a, Fraction(1, a[-1]))


def _pseudo_rem(a, b):
    rem, db, lead = list(a), len(b) - 1, b[-1]
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c:
            rem = [lead * x for x in rem]
            for k, bk in enumerate(b):
                rem[i - db + k] -= c * bk
    rem = poly(rem[:db])
    return _primitive(rem) if rem else ()


def _primitive(p):
    # the coprime integer multiple of p with positive leading coefficient
    s = _primitive_scale(p)
    return tuple(int(c * s) for c in p)


def _primitive_scale(p):
    # scalar s with s*p having coprime integer coefficients, positive leading
    lcm = math.lcm(*(c.denominator for c in p))
    gcd = math.gcd(*(abs(int(c * lcm)) for c in p))
    s = Fraction(lcm, gcd)
    return -s if p[-1] < 0 else s


def canonical(rf: RationalFunction) -> RationalFunction:
    """The reduced form whose denominator is primitive integer, positive leading."""
    if not rf.num:
        return RationalFunction((), (1,))
    g = poly_gcd(rf.num, rf.den)
    num = poly_divmod(rf.num, g)[0]
    den = poly_divmod(rf.den, g)[0]
    s = _primitive_scale(den)
    return RationalFunction(poly_scale(num, s), poly_scale(den, s))


# ---------------------------------------------------------------------------
# cfn: closed forms of the low central factorial entries
# ---------------------------------------------------------------------------


def cfn_t2(j: int) -> Fraction:
    """|t(2j+2, 2)| in closed form: (j!)**2, for integer j >= 0."""
    if j < 0:
        raise ValueError("j must be a nonnegative integer")
    return Fraction(math.factorial(j) ** 2)


def _trigamma(x: float) -> float:
    """Second logarithmic derivative of the gamma function, for x > 0.

    Upward recurrence into the asymptotic region, then the Bernoulli
    series through x**-9; good to ~1e-15 absolute for the arguments used.
    """
    acc = 0.0
    while x < 16.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = inv * (1.0 + inv * (0.5 + inv * (
        1.0 / 6 + inv2 * (-1.0 / 30 + inv2 * (1.0 / 42 + inv2 * (-1.0 / 30))))))
    return acc + tail


class T4Pair(NamedTuple):
    value: float      # (j!)^2 * (pi^2/6 - trigamma(j+1)), numeric route
    exact: Fraction   # |t(2j+2, 4)| from the generating product


def cfn_t4(j: int) -> T4Pair:
    """|t(2j+2, 4)| two ways, for integer j >= 1.

    The float route goes through a numeric trigamma so the two entries are
    genuinely independent; they must agree to 1e-12 relative.
    """
    if j < 1:
        raise ValueError("j must be a positive integer")
    fact2 = math.factorial(j) ** 2
    value = fact2 * (math.pi * math.pi / 6.0 - _trigamma(j + 1.0))
    return T4Pair(value, abs(cfn(2 * j + 2, 4)))


def cfn_asymptotic_ratio(l: int, j: int, alpha: float) -> float:
    """(2*alpha)**(2*(1-l)) * |t(2j+2, 2l)| / (j!)**2.

    The huge factorial cancellation is done exactly in rational arithmetic
    before any float conversion, so there is no overflow at large j.  As
    j grows this approaches (pi/(2*alpha))**(2*(l-1)) / (2l-1)!.
    """
    if l < 1:
        raise ValueError("l must be a positive integer")
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    ratio = abs(cfn(2 * j + 2, 2 * l)) / Fraction(math.factorial(j) ** 2)
    return float(ratio) * (2.0 * alpha) ** (2 * (1 - l))


# ---------------------------------------------------------------------------
# expcoeffs: the series coefficients in factorial closed form
# ---------------------------------------------------------------------------


def exp_series_closed_form(two_j: int, k: int) -> tuple[Fraction, ...]:
    """The truncation entering A_k for spin two_j/2, each coefficient by factorials.

    Coefficient r is k! 4**r |t(col + 2r, col)| / (k + 2r)! with col = k,
    or k + 1 when 2j - k is odd, for r = 0..floor((2j - k)/2); trailing
    zeros are dropped, as the library drops the t(2r, 0) = 0 tail.
    """
    col = k + (two_j - k) % 2
    coeffs = [
        Fraction(math.factorial(k) * 4**r, math.factorial(k + 2 * r)) * abs(cfn(col + 2 * r, col))
        for r in range((two_j - k) // 2 + 1)
    ]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


@lru_cache(maxsize=None)
def series_coef(k: int, col: int, r: int) -> tuple[int, int, float]:
    """Coefficient r of A_k's series down column col, as (num, den, num/den).

    The per-coefficient cache the library's one sweep per parity replaced:
    the pair k! 4**r |t(col + 2r, col)| / (k + 2r)!, unreduced, with den
    coefficient r - 1's times (k + 2r - 1)(k + 2r).  Callers build r - 1
    first (series_by_coef does), so a miss recurses one level.
    """
    t = abs(cfn_pair(col + 2 * r, col)[0])
    if r:
        den = series_coef(k, col, r - 1)[1] * ((k + 2 * r - 1) * (k + 2 * r))
    else:
        den = 1 << (col - 1) if col % 2 else 1
    num = t if col % 2 else t << 2 * r
    return num, den, num / den


def series_by_coef(two_j: int, k: int) -> list[tuple[int, int, float]]:
    """The series_coef terms entering A_k for spin two_j/2, r in order, zero tail dropped."""
    col = k + (two_j - k) % 2
    terms = [series_coef(k, col, r) for r in range((two_j - k) // 2 + 1)]
    while not terms[-1][0]:
        terms.pop()
    return terms


def recon_weights_by_coef(two_j: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """expcoeffs._recon_weights as it was formed from the series_coef pairs."""
    fracs = [
        [Fraction(num, den * math.factorial(k)) for num, den, _ in series_by_coef(two_j, k)]
        for k in range(two_j + 1)
    ]
    lcm = math.lcm(*(f.denominator for row in fracs for f in row))
    return lcm, tuple(
        tuple(f.numerator * (lcm // f.denominator) for f in row) for row in fracs
    )


def series_floats_streamed(two_j: int, ks) -> dict[int, tuple[float, ...]]:
    """{k: the float series of A_k for spin two_j/2}, by the factorial closed form.

    Coefficient r is the Fraction k! 4**r |t(col + 2r, col)| / (k + 2r)!
    rounded once, as exp_series_closed_form forms it.  The rows of 2j's
    parity are swept with cfn._next_row keeping only the last, so 2j = 2000
    needs a few MB where cfn._row's memoized table holds about 500 MB.
    """
    cols = {k: k + (two_j - k) % 2 for k in ks}
    columns = {k: [] for k in ks}
    row = ()
    for n in range(two_j % 2, two_j + 1, 2):
        row = _next_row(row, n)
        for k, col in cols.items():
            if col <= n:
                scale = 1 << (n - 1) if n % 2 else 1  # cfn_pair's den of row n
                columns[k].append(Fraction(abs(row[col]), scale))
    out = {}
    for k, ts in columns.items():
        coeffs = [
            Fraction(math.factorial(k) * 4**r, math.factorial(k + 2 * r)) * t
            for r, t in enumerate(ts)
        ]
        while not coeffs[-1]:
            coeffs.pop()
        out[k] = tuple(float(c) for c in coeffs)
    return out


def exp_grid_scalar(j: HalfInt, thetas, ks=None) -> list[tuple[float, ...]]:
    """expcoeffs.exp_grid one point at a time: the loop its four-lane Horner replaced."""
    two_j = j.two_j
    ks = range(two_j + 1) if ks is None else ks
    plan = [(k, expcoeffs.epsilon(j, k), expcoeffs._series_float(two_j, k)[::-1]) for k in ks]
    out = []
    for theta in thetas:
        s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
        s2 = s * s
        row = []
        for k, odd, coeffs in plan:
            acc = 0 * s2
            for co in coeffs:
                acc = acc * s2 + co
            acc *= s**k
            if odd:
                acc *= c
            row.append(acc)
        out.append(tuple(row))
    return out


def recon_numerators_termwise(two_j: int, s: int, c: int, d: int) -> list[int]:
    """X_k = L d**2j A_k/k! at (sin, cos)(theta/2) = (s, c)/d, term by term.

    Each term of c**eps s**k sum_r w_r s**2r d**(2j-k-eps-2r) is its own
    product w_r * s**2r * d**2(n-r), n = (2j - k)//2, with L and w from
    expcoeffs._recon_weights: the sum expcoeffs._recon_numerators forms
    by Horner in d**2.
    """
    weights = expcoeffs._recon_weights(two_j)[1]
    s2_pow, d2_pow = [1], [1]
    for _ in range(two_j // 2):
        s2_pow.append(s2_pow[-1] * s * s)
        d2_pow.append(d2_pow[-1] * d * d)
    xs = []
    s_pow = 1
    for k, w in enumerate(weights):
        n = (two_j - k) // 2
        x = s_pow * sum(wr * s2_pow[r] * d2_pow[n - r] for r, wr in enumerate(w))
        xs.append(x * c if (two_j - k) % 2 else x)
        s_pow *= s
    return xs


# ---------------------------------------------------------------------------
# cayley: the recursion's numerators, gamma closed forms and the distance
# to the large-j limit
# ---------------------------------------------------------------------------


def recursion_numerators(two_j: int) -> list[tuple[int, ...]]:
    """B_m's numerators from the difference equations, term by term, m = 0..2j.

    With neg_kappa[m] = -kappa_m = -2**(2j+1-m) |t(2j+2, m+1)| and
    den = 1 - alpha q_2j, the numerator is alpha**m den + alpha**(2j+1) q_m,
    q_m being -kappa_m, ..., -kappa_0 by power; summed here as it stands,
    with no cancellation assumed.
    """
    neg_kappa = []
    for m in range(two_j + 1):
        num, den = cfn_pair(two_j + 2, m + 1)
        q, r = divmod(abs(num) << (two_j + 1 - m), den)
        assert r == 0, (two_j, m)
        neg_kappa.append(-q)
    den = [1] + [-x for x in reversed(neg_kappa)]
    return [
        poly(x + y for x, y in zip([0] * m + den, [0] * (two_j + 1) + neg_kappa[m::-1]))
        for m in range(two_j + 1)
    ]


def trigamma_int(j: int) -> float:
    """Trigamma at the positive integer 1 + j: pi^2/6 - sum_{k<=j} 1/k^2."""
    if j < 0:
        raise ValueError("j must be a nonnegative integer")
    return math.pi * math.pi / 6.0 - math.fsum(1.0 / (k * k) for k in range(1, j + 1))


def b_exact_gamma(j: int, k: int, alpha: float) -> float:
    """B_k(alpha)/alpha**k for integer spin j, via the gamma closed forms.

    k in {1, 2} uses 1 - prod_{n<=j} n^2/(n^2 + 1/(4 alpha^2)); k in
    {3, 4} multiplies the product by the trigamma correction factor.
    Each n^2/(n^2+y^2) factor sits in (0, 1], so no overflow handling is
    needed here.
    """
    if j < 0:
        raise ValueError("j must be a nonnegative integer")
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    y2 = 1.0 / (4.0 * alpha * alpha)
    factor = 1.0
    for n in range(1, j + 1):
        factor *= n * n / (n * n + y2)
    if k in (1, 2):
        return 1.0 - factor
    if k in (3, 4):
        correction = 1.0 + (math.pi**2 - 6.0 * trigamma_int(j)) / (24.0 * alpha * alpha)
        return 1.0 - factor * correction
    raise ValueError(f"closed forms cover k in 1..4, got {k}")


def limit_ratio_exact(is_integer_spin: bool, k: int, x: float) -> Fraction:
    """b_limit_ratio at x = pi/(2|alpha|) as one exact fraction, tail over whole.

    With s = 1 for integer spins, 0 otherwise, term n is x^{2n}/(2n+s)! at
    the exact rational x, and the limit is the share of the terms from
    n = (k + 2 - s)//2 on.  The sum stops 200 terms past the larger of
    that index and x; from n = x on each term is under a quarter of the
    one before, so what is left out is below 4**-200 of the whole.  All
    terms are taken over the one denominator q**(2 top) (2 top + s)!.
    """
    s = 1 if is_integer_spin else 0
    count = (k + 2 - s) // 2
    p, q = Fraction(x).as_integer_ratio()
    top = max(count, math.ceil(x)) + 200
    scaled, falling = [], 1  # falling = (2 top + s)! / (2n + s)!
    for n in range(top, -1, -1):
        scaled.append(p ** (2 * n) * q ** (2 * (top - n)) * falling)
        falling *= (2 * n + s) * (2 * n + s - 1)
    return Fraction(sum(scaled[: top - count + 1]), sum(scaled))


def relative_error(j: HalfInt, k: int, alpha: float) -> float:
    """(A_k^inf - A_k^[j]) / A_k^[j] at the given alpha.

    The limit coefficient is 2*alpha**k times the parity-matched asymptotic
    ratio (and 2*ratio - 1 for k = 0).  Raises on a vanishing denominator,
    which happens at alpha = 0 for every k >= 1.
    """
    if not 0 <= k <= j.two_j:
        raise ValueError(f"k must lie in 0..{j.two_j}, got {k}")
    a_j = eval_coeffs(j, alpha)[1][k]
    if a_j == 0:
        raise ZeroDivisionError(f"A_{k}[{j}]({alpha}) = 0")
    ratio = b_limit_ratio(j.is_integer, k, alpha)
    if k == 0:
        a_inf = 2.0 * ratio - 1.0
    else:
        a_inf = 2.0 * alpha**k * ratio
    return (a_inf - a_j) / a_j


# ---------------------------------------------------------------------------
# bridge: the inverse parameter map and the per-eigenstate identity
# ---------------------------------------------------------------------------


def theta_from_alpha(m_eig: float, alpha: float) -> float:
    """theta(alpha) = (2/m) * arctan(2*m*alpha), the principal branch."""
    if m_eig == 0:
        raise ValueError("the m = 0 eigenstate fixes no relation between the parameters")
    return 2.0 / m_eig * math.atan(2.0 * m_eig * alpha)


def verify_exp_equal_cayley(m_eig: float, theta: float) -> bool:
    """Per-eigenstate identity e^{i theta m} == (1+2i a m)/(1-2i a m)
    with a = alpha(theta; m); trivially true at m = 0."""
    if m_eig == 0:
        return True
    a = alpha_from_theta(m_eig, theta)
    lhs = cmath.exp(1j * theta * m_eig)
    rhs = (1 + 2j * a * m_eig) / (1 - 2j * a * m_eig)
    return abs(lhs - rhs) <= 1e-12


# ---------------------------------------------------------------------------
# plots: spot checks of the emitted figure values
# ---------------------------------------------------------------------------


def validate_figure(figure: str) -> list[str]:
    """Spot-check emitted values against an independent path.

    Returns a list of violation messages (empty means validated).  This is
    how figure data is accepted: the reference plots are pixels, so the
    numbers are vouched for by cross-path agreement instead.
    """
    problems = []
    if figure == "exp-A":
        for j in DEFAULT_SPINS[figure]:
            for k in DEFAULT_KS[figure]:
                for theta in (0.7, 2.0, math.pi, 5.5, 9.1, 11.8):
                    a = expcoeffs.a_coeff_trunc(j, k, theta)
                    halves = expcoeffs.half_angles([theta], j.two_j)
                    if expcoeffs.epsilon(j, k) == 0:
                        b = expcoeffs.a_coeff_cfn_series(j, k, halves)[0]
                    else:
                        b = expcoeffs.a_coeff_derivative_path(j, k + 1, halves)[0]
                    if a != b and abs(a - b) > 1e-12 * max(abs(a), abs(b)):
                        problems.append(f"exp-A j={j} k={k} theta={theta}: {a} vs {b}")
    elif figure == "cayley-B12":
        for j in DEFAULT_SPINS[figure]:
            for alpha in (0.1, 0.5, 1.0, 2.5, 5.0):
                direct = cayley.eval_coeffs(j, alpha)[0][1] / alpha
                gamma = b_exact_gamma(j.two_j // 2, 1, alpha)
                if abs(direct - gamma) > 1e-9 * max(1.0, abs(direct)):
                    problems.append(f"cayley-B12 j={j} alpha={alpha}: {direct} vs {gamma}")
    elif figure == "inv-det":
        for j in DEFAULT_SPINS[figure]:
            det = cayley.det_poly(j)
            for alpha in (0.25, 0.8, 1.5, 2.0):
                poly_val = math.fsum(float(c) * alpha**i for i, c in enumerate(det))
                gamma_val = math.exp(cayley.log_det_gamma(j, alpha))
                if abs(poly_val - gamma_val) > 1e-10 * max(abs(poly_val), abs(gamma_val)):
                    problems.append(f"inv-det j={j} alpha={alpha}: {poly_val} vs {gamma_val}")
    else:
        raise ValueError(f"unknown figure {figure!r}; known: {', '.join(FIGURES)}")
    return problems
