"""Cayley-transform coefficients as exact rational functions of alpha.

The rational rotation (1 + 2i*alpha*n.J)/(1 - 2i*alpha*n.J) for spin j
reduces to sum_k A_k(alpha) (2i n.J)**k, driven by the resolvent
coefficients B_k(alpha) = alpha**k * Trunc_{2j-k}[det] / det, where det
is the characteristic determinant det(1 - 2i*alpha*n.J).  The truncation
formula is the production route.  The general resolvent, run exactly at a
real beta where it is the table at alpha**2 = -beta**2, is verify's check
on it; the recursion, the central-factorial determinant and the bridge
module's Laplace transform are further routes.  An exact table is the
integer determinant alone, cached immutably: each B_k numerator is read
off it on demand, and a_coeffs reads the A_k off it in lowest terms.

eval_coeffs is the table's one float evaluator: for all k, or only the k in ks,
it rounds scaled_b's integers at alpha = p/q, each float one int/int
division of the same numerator and denominator whichever k are asked for;
inv_det rounds 1/det from scaled_b's denominator the same way.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence, Tuple

from .cfn import cfn_pair
from .exact import Poly, RationalFunction, i_spectrum, poly
from .halfint import HalfInt


def det_poly(j: HalfInt) -> Poly:
    """det(1 - 2i*alpha*n.J) expanded exactly in alpha.

    Product of 1 + 4*alpha^2*(j+1-n)^2 over n = 1..floor(j+1/2), that is
    of 1 + M^2 alpha^2 over the positive eigenvalues M of 2 n.J; only even
    powers appear and every coefficient is a positive integer.
    """
    return poly(_det_ints(j.two_j))


@lru_cache(maxsize=None)
def _det_ints(two_j: int) -> Tuple[int, ...]:
    out: Tuple[int, ...] = (1,)
    for n in range(1, (two_j + 1) // 2 + 1):
        c = (two_j + 2 - 2 * n) ** 2  # (2*(j+1-n))^2
        out = tuple(lo + c * hi for lo, hi in zip(out + (0, 0), (0, 0) + out))
    return out


def _integer(num: int, den: int) -> int:
    # the paper's identities make num/den an integer; if they break, raise, never truncate
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"expected an integer, got {num}/{den}")
    return q


def det_cfn_poly(j: HalfInt) -> Poly:
    """The same determinant assembled from central factorial magnitudes."""
    n = j.two_j + 2
    out = [0] * (2 * ((j.two_j + 1) // 2) + 1)
    for k in range(0, len(out), 2):  # alpha**k takes 2**k |t(n, n - k)|
        num, den = cfn_pair(n, n - k)
        out[k] = _integer(abs(num) << k, den)
    return poly(out)


def det_forms(j: HalfInt) -> Tuple[Poly, Poly]:
    """The determinant as the product expansion and as the central-factorial assembly."""
    return det_poly(j), det_cfn_poly(j)


def _log_sinh(x: float) -> float:
    return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)


def _log_cosh(x: float) -> float:
    return x + math.log1p(math.exp(-2.0 * x)) - math.log(2.0)


def log_det_gamma(j: HalfInt, alpha: float) -> float:
    """Log of the closed-form determinant via gamma-function magnitudes.

    Integer j uses (2a)^(2j+1) sinh(pi/2a) |Gamma(j+1+i/(2a))|^2 / pi,
    semi-integer j the same with cosh.  |Gamma|^2 is reduced to a finite
    product over the integer (or half-integer) offsets; the whole thing
    stays in log space, so large j cannot overflow.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero; the polynomial form gives det(0) = 1")
    a = abs(alpha)
    y = 1.0 / (2.0 * a)
    log_det = -math.log(math.pi) + (j.two_j + 1) * math.log(2.0 * a)
    if j.is_integer:
        log_det += _log_sinh(math.pi / (2.0 * a))
        # |Gamma(1+iy)|^2 = pi*y/sinh(pi*y)
        log_det += math.log(math.pi * y) - _log_sinh(math.pi * y)
        jj = j.two_j // 2
        log_det += math.fsum(math.log(n * n + y * y) for n in range(1, jj + 1))
    else:
        log_det += _log_cosh(math.pi / (2.0 * a))
        # |Gamma(1/2+iy)|^2 = pi/cosh(pi*y)
        log_det += math.log(math.pi) - _log_cosh(math.pi * y)
        half_steps = (j.two_j + 1) // 2
        log_det += math.fsum(
            math.log((l - 0.5) ** 2 + y * y) for l in range(1, half_steps + 1)
        )
    return log_det


class CayleyCoeffs(NamedTuple):
    """Resolvent coefficients B_k for one spin, held as its determinant.

    den is the spin's integer determinant, the one denominator; b_num(k)
    reads B_k's integer numerator off it, alpha^k times the truncated
    determinant.  a_coeffs gives the Cayley coefficients A_k.
    """

    j: HalfInt
    den: Poly

    def b_num(self, k: int) -> Poly:
        """B_k's numerator alpha^k Trunc_{2j-k}[den]; ValueError on a k outside 0..2j."""
        two_j = self.j.two_j
        if not 0 <= k <= two_j:
            raise ValueError(f"k must lie in 0..{two_j}, got {k}")
        # den is ints by construction, so the slice needs no poly(): only
        # its trailing zeros go
        num = (0,) * k + self.den[: two_j - k + 1]
        end = len(num)
        while end and not num[end - 1]:
            end -= 1
        return num[:end]


@lru_cache(maxsize=None)
def _b_coeffs(two_j: int) -> CayleyCoeffs:
    return CayleyCoeffs(HalfInt(two_j), _det_ints(two_j))


def b_coeffs(j: HalfInt) -> CayleyCoeffs:
    """The truncation-formula path (the production route)."""
    return _b_coeffs(j.two_j)


def a_coeffs(j: HalfInt) -> Tuple[RationalFunction, ...]:
    """The Cayley coefficients A_k(alpha) in lowest terms, read off b_coeffs.

    A_k = 2 B_k / den for k >= 1, and A_0 = (2 B_0 - den) / den, which is 1
    at integer j, where B_0 = den.  No other entry reduces: a factor
    1 + M^2 alpha^2 of det = prod_{m=1..N} (1 + M_m^2 alpha^2) divides
    Trunc_n[det] only if Trunc_n[det](i/M) = sum_{l<=L} (-1)^l e_l(u)
    vanishes, with u_m = M_m^2/M^2 and L = floor(n/2).  One u_m is 1, so
    e_l(u) = e_l(u') + e_{l-1}(u') over the other N - 1 ratios u' > 0, and
    the sum telescopes to (-1)^L e_L(u') != 0 for L <= N - 1.  So only
    n >= deg = 2N, det itself, shares a factor with det; B_k has n = 2j - k,
    and gcd(2 B_0 - det, det) = gcd(B_0, det).  det(0) = 1 and its leading
    coefficient is positive, so den is already the primitive denominator.
    """
    table = b_coeffs(j)
    den = table.den
    if j.is_integer:
        a0 = RationalFunction((1,), (1,))
    else:  # 2 B_0 - den, B_0 being den less its top term
        a0 = RationalFunction(den[:-1] + (-den[-1],), den)
    nums = map(table.b_num, range(1, j.two_j + 1))
    return (a0,) + tuple(RationalFunction([2 * c for c in num], den) for num in nums)


def scaled_b(
    two_j: int, p: int, q: int, ks: Iterable[int] | None = None
) -> Tuple[list[int], int]:
    """B_k at alpha = p/q as integer numerators over one denominator.

    The scaled truncations S_n = q**n * Trunc_n[det](alpha) are the integer
    partial sums S_n = q*S_{n-1} + d_n*p**n, and
    B_k = p**k * q**(deg - 2j) * S_{2j-k} / S_deg, with S_deg > 0.  The
    partial sums are built whole; only the numerators of the k in ks
    (default 0..2j, in that order) are multiplied out, in the order of ks.
    Raises ValueError on a k outside 0..2j.
    """
    return _scaled_truncations(_det_ints(two_j), two_j, p, q, ks)


def _scaled_truncations(
    det: Sequence[int], two_j: int, p: int, q: int, ks: Iterable[int] | None = None
) -> Tuple[list[int], int]:
    # scaled_b's arithmetic for any integer det of degree 2j or 2j + 1;
    # verify feeds it den at alpha**2 = -beta**2
    partial, p_pows = [], []
    s, p_pow = 0, 1
    for d in det:
        s = s * q + d * p_pow
        partial.append(s)
        p_pows.append(p_pow)
        p_pow *= p
    scale = q ** (len(det) - 1 - two_j)  # q**(deg - 2j), deg - 2j = 0 or 1
    nums = []
    for k in range(two_j + 1) if ks is None else ks:
        if not 0 <= k <= two_j:
            raise ValueError(f"k must lie in 0..{two_j}, got {k}")
        nums.append(p_pows[k] * scale * partial[two_j - k])
    return nums, partial[-1]


def inv_det(j: HalfInt, alpha) -> float:
    """1/det(alpha), correctly rounded: at alpha = p/q, scaled_b's denominator
    is the integer q**deg * det(alpha), so this is one int/int division."""
    p, q = Fraction(alpha).as_integer_ratio()
    return q ** (len(_det_ints(j.two_j)) - 1) / scaled_b(j.two_j, p, q, ())[1]


def eval_coeffs(
    j: HalfInt, alpha, ks: Iterable[int] | None = None
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """B_k(alpha) and A_k(alpha) as correctly rounded floats, for k in ks.

    ks defaults to 0..2j; the two tuples follow the order of ks.  Each B_k
    (see scaled_b), and each A_k = 2B_k (2B_0 - 1 at k = 0), is one int/int
    division of the same integers whichever k are asked for, and int/int
    division rounds exactly as Fraction.__float__ does, reduced or not:
    every entry is the exact table's value at alpha, rounded once.  Raises
    ValueError on a k outside 0..2j.
    """
    ks = range(j.two_j + 1) if ks is None else tuple(ks)
    nums, den = scaled_b(j.two_j, *Fraction(alpha).as_integer_ratio(), ks)
    b = tuple(num / den for num in nums)
    # A_k is divided out too: float 2*B_0 - 1 cancels, 2*B_k loses subnormal bits
    a = tuple((2 * num - den if k == 0 else 2 * num) / den for k, num in zip(ks, nums))
    return b, a


def b_coeffs_cfn(j: HalfInt) -> CayleyCoeffs:
    """Same contract, but the determinant comes from the central-factorial
    row rather than the product expansion."""
    return CayleyCoeffs(j, det_cfn_poly(j))


def b_coeffs_recursion(j: HalfInt) -> CayleyCoeffs:
    """Independent path: solve the first-order difference equations.

    The unknowns b_m are linear in c = alpha*b_2j, b_m = alpha**m + q_m c:
    each step multiplies by alpha (the pairing relations), and a difference
    equation also subtracts kappa_m = 2**(2j+1-m) |t(2j+2, m+1)|, an
    integer that vanishes exactly at the pairing steps.  So q_m is the list
    -kappa_m, ..., -kappa_0 by power, and the consistency condition
    c = alpha*b_2j gives c = alpha**(2j+1) / (1 - alpha q_2j), whence
    B_m = (alpha**m den + alpha**(2j+1) q_m) / den with den = 1 - alpha q_2j.
    At alpha**(2j+1+i), 0 <= i <= m, alpha**m den has kappa_{m-i} and
    alpha**(2j+1) q_m has -kappa_{m-i}: they cancel, so for any kappa the
    numerator is alpha**m Trunc_{2j-m}[den], and this path derives den alone.
    """
    two_j = j.two_j
    neg_kappa = []
    for m in range(two_j + 1):
        num, den = cfn_pair(two_j + 2, m + 1)
        neg_kappa.append(-_integer(abs(num) << (two_j + 1 - m), den))
    den = [1] + [-x for x in reversed(neg_kappa)]  # 1 - alpha q_2j
    return CayleyCoeffs(j, poly(den))


def resolvent_coeffs(eigenvalues: Sequence, alpha) -> list:
    """Matrix-polynomial coefficients of (1 - alpha*M)^-1 for any
    diagonalizable M with the given distinct eigenvalues.

    r_n = alpha**n * Trunc_{N-1-n}[det(1-alpha*M)] / det(1-alpha*M), with
    the determinant built as prod (1 - alpha*lambda_i).  Works for exact
    or floating scalars alike.  Float inputs are not rescaled: a float
    determinant that over- or underflows gives inf, nan or
    ZeroDivisionError, so large spectra want exact scalars.
    """
    eigs = list(eigenvalues)
    n = len(eigs)
    for i, lam in enumerate(eigs):
        if lam in eigs[i + 1 :]:
            raise ValueError(f"duplicate eigenvalue {lam!r}")
    for lam in eigs:
        if 1 - alpha * lam == 0:
            raise ValueError(f"singular resolvent: alpha*lambda = 1 at lambda={lam!r}")
    d = [1]
    for lam in eigs:
        nxt = [0] * (len(d) + 1)
        for m, dm in enumerate(d):
            nxt[m] += dm
            nxt[m + 1] += -lam * dm
        d = nxt
    powers = [alpha**m for m in range(n + 1)]
    # trunc[i] = sum of the terms d_m alpha**m below m = i, one running sum
    trunc = []
    det_val = 0
    for dm, pm in zip(d, powers):
        trunc.append(det_val)
        det_val = det_val + dm * pm
    return [powers[idx] * trunc[n - idx] / det_val for idx in range(n)]


def b_limit_ratio(is_integer_spin: bool, k: int, alpha: float) -> float:
    """lim_{j->inf} B_k(alpha)/alpha**k at fixed k, for either spin parity.

    With x = pi/(2|alpha|) and s = 1 for integer spins, 0 for semi-integer
    ones, it is 1 - [sum_n x^{2n}/(2n+s)!] / F over n < (k+1)/2 (integer)
    or n <= k/2 (semi-integer), where F = sinh(x)/x or cosh(x) is the whole
    series.  Evaluated in log space once F would overflow, and by
    _tail_share where a term of the float sum overflows or where the
    partial sum passes half of F, so that 1 - partial/F would cancel.
    Where x is infinite (alpha = 0, or pi/(2|alpha|) overflows) it is the
    x -> inf limit, 1; where x is 0 (alpha infinite) it is the x -> 0
    limit, 0.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    s = 1 if is_integer_spin else 0
    count = (k + 2 - s) // 2
    # not pi / (2|alpha|): 2|alpha| overflows above about 8.99e307
    x = (math.pi / 2) / abs(alpha) if alpha else math.inf
    if not count or x == math.inf:
        return 1.0
    if x == 0:
        return 0.0
    if x < 700.0:
        try:
            partial = math.fsum(x ** (2 * n) / math.factorial(2 * n + s) for n in range(count))
        except OverflowError:  # x**(2n) or (2n+s)! is past the float range
            return _tail_share(s, count, x)
        head = partial / (math.sinh(x) / x if s else math.cosh(x))
    else:
        logs = [2 * n * math.log(x) - math.lgamma(2 * n + 1 + s) for n in range(count)]
        top = max(logs)
        log_partial = top + math.log(math.fsum(math.exp(v - top) for v in logs))
        log_full = _log_sinh(x) - math.log(x) if s else _log_cosh(x)
        head = math.exp(log_partial - log_full)
    return _tail_share(s, count, x) if head > 0.5 else 1.0 - head


def _tail_share(s: int, count: int, x: float) -> float:
    """The limit ratio as the series tail over the whole, in fixed point.

    Term n, x^{2n}/(2n+s)! at the exact rational x, is an integer multiple
    of 2**-128 built from term n - 1, until the terms past the peak round
    to 0.  Each floor loses under one unit, so the ratio is exact to far
    below 1e-15, and 0 <= tail <= whole puts it in [0, 1].
    """
    p, q = x.as_integer_ratio()
    term, whole, tail, n = 1 << 128, 0, 0, 0  # term 0 is 1/s! = 1
    while term:
        whole += term
        if n >= count:
            tail += term
        n += 1
        term = term * p * p // (q * q * (2 * n + s - 1) * (2 * n + s))
    return tail / whole


class CayleyReconstruction(NamedTuple):
    j: HalfInt
    alpha: Fraction
    max_error: float   # worst |sum - (1+2i a m)/(1-2i a m)| over the spectrum
    exact: bool        # whether the rational identity held bit-exactly


def cayley_reconstruction(j: HalfInt, alpha) -> CayleyReconstruction:
    """Check sum_k A_k(alpha) (2i m)**k == (1+2i*alpha*m)/(1-2i*alpha*m)
    for every eigenvalue m of n.J, exactly.

    With alpha = p/q, M = 2m and the scaled table of scaled_b, the check is
    the Gaussian-integer identity
    X (q^2 + p^2 M^2) == S_deg (q^2 - p^2 M^2 + 2i p q M),
    X = S_deg * sum_k A_k (iM)**k.  M and -M give conjugate sides.
    """
    a = Fraction(alpha)
    p, q = a.as_integer_ratio()
    nums, den = scaled_b(j.two_j, p, q)
    coeffs = [2 * num for num in nums]
    coeffs[0] -= den
    max_err = 0.0
    exact = True
    for m2, re, im in i_spectrum(coeffs, j.two_j):  # |M| = |2m|
        pm, qq = p * p * m2 * m2, q * q
        tden = qq + pm
        dre = re * tden - den * (qq - pm)
        dim = im * tden - den * 2 * p * q * m2
        if dre or dim:
            exact = False
        err = abs(complex(dre / (den * tden), dim / (den * tden)))
        max_err = max(max_err, err)
    return CayleyReconstruction(j, a, max_err, exact)
