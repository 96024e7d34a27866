"""The integer identity checks against the Fraction routes they replaced.

exp_reconstruction, cayley_reconstruction and b_from_a_laplace evaluate
the paper's exact identities over Python ints with one common
denominator.  The Fraction versions below are the straightforward
routes: A_k evaluated at the rational circle point and summed with
i-powers, the exact Cayley table evaluated at alpha, and the
term-by-term Laplace sum over the closed-form sin-power transforms.  The
integer routes must return the same records and values, and a
perturbed table must make them fail.  test_bridge and test_expcoeffs
check the closed forms and the circle point themselves.
"""

import cmath
import json
import math
from fractions import Fraction as F

import pytest

from spinpoly import bridge, cayley, cli, expcoeffs, verify
from spinpoly.cfn import cfn
from spinpoly.exact import RationalFunction, poly_eval
from spinpoly.expcoeffs import epsilon
from spinpoly.halfint import HalfInt, half_integers

THETAS = [0.0, 2 * math.pi, -2 * math.pi, 3 * math.pi, -3.5 * math.pi, 11.0, 1e-9]
VERIFY_ALPHAS = [F(n, 7) for n in range(-10, 11, 3) if n] + [F(1, 2), F(3)]
ALPHAS = VERIFY_ALPHAS + [F(0), F(-5, 3)]


# ---------------------------------------------------------------------------
# Fraction oracles
# ---------------------------------------------------------------------------


def circle_point(theta):
    """Rational (sin(theta/2), cos(theta/2)) exactly on the unit circle."""
    a, b = expcoeffs.quarter_tan(theta)
    d = a * a + b * b
    return F(2 * a * b, d), F(b * b - a * a, d)


def laplace_sin_power(m, alpha):
    """(1/m!) * integral_0^inf e^{-t} sin(alpha*t)**m dt, in closed form.

    alpha**m * prod 1/(1 + 4 l^2 alpha^2) over l = 1..m/2 for even m;
    alpha**m * prod 1/(1 + (2l-1)^2 alpha^2) over l = 1..(m+1)/2 for odd m.
    Exact for exact alpha.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _over_sin_factors(alpha**m, m, alpha)


def laplace_sin_cos_power(n, alpha):
    """(1/n!) * integral_0^inf e^{-t} sin(alpha*t)**n cos(alpha*t) dt.

    Integration by parts against d(sin**(n+1))/dt shifts this into the pure
    sine family: the value is laplace_sin_power(n+1, alpha)/alpha, written
    without the division so alpha = 0 stays regular.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _over_sin_factors(alpha**n, n + 1, alpha)


def _over_sin_factors(out, m, alpha):
    # out / prod (1 + r^2 alpha^2) over r = m, m-2, ... > 0, smallest r first
    for r in range(2 - m % 2, m + 1, 2):
        out /= 1 + r * r * alpha * alpha
    return out


def i_power_sum(terms):
    """(re, im) of sum_k terms[k] * i**k, for real terms."""
    by_power = [F(0)] * 4
    for k, term in enumerate(terms):
        by_power[k % 4] += term
    return by_power[0] - by_power[2], by_power[1] - by_power[3]


def a_coeff_exact(j, k, s, c):
    """A_k evaluated exactly at a rational circle point (s, c)."""
    val = poly_eval(expcoeffs._series(j.two_j, k), s * s) * s**k
    if epsilon(j, k):
        val *= c
    return val


def _unit_cpow(re, im, n):
    # (re + i*im)**n for a point on the unit circle; negative n conjugates
    if n < 0:
        re, im, n = re, -im, -n
    out = (F(1), F(0))
    base = (re, im)
    while n:
        if n & 1:
            out = (out[0] * base[0] - out[1] * base[1], out[0] * base[1] + out[1] * base[0])
        base = (base[0] ** 2 - base[1] ** 2, 2 * base[0] * base[1])
        n >>= 1
    return out


def exp_reconstruction_fraction(j, theta):
    s, c = circle_point(theta)
    avals = [a_coeff_exact(j, k, s, c) for k in range(j.two_j + 1)]
    max_err = 0.0
    exact = True
    for m2 in range(j.two_j, -j.two_j - 1, -2):
        re, im = i_power_sum(a * F(m2) ** k / math.factorial(k) for k, a in enumerate(avals))
        if (re, im) != _unit_cpow(c, s, m2):
            exact = False
        err = abs(complex(float(re), float(im)) - cmath.exp(1j * theta * m2 / 2.0))
        max_err = max(max_err, err)
    return expcoeffs.ExpReconstruction(j, theta, max_err, exact)


def cayley_reconstruction_fraction(j, alpha):
    a = F(alpha)
    table = cayley.b_coeffs(j)
    avals = [rf(a) for rf in cayley.a_coeffs(j)]
    max_err = 0.0
    exact = True
    for m2 in range(j.two_j, -j.two_j - 1, -2):
        re, im = i_power_sum(av * F(m2) ** k for k, av in enumerate(avals))
        am = a * m2
        ere = (1 - am * am) / (1 + am * am)
        eim = 2 * am / (1 + am * am)
        if (re, im) != (ere, eim):
            exact = False
        max_err = max(max_err, abs(complex(float(re - ere), float(im - eim))))
    return cayley.CayleyReconstruction(j, a, max_err, exact)


def b_from_a_laplace_fraction(j, k, alpha):
    two_j = j.two_j
    total = 0 * alpha
    if (two_j - k) % 2 == 0:
        for m in range(k, two_j + 1, 2):
            total += F(2**m, 2**k) * abs(cfn(m, k)) * laplace_sin_power(m, alpha)
        return total
    for m in range(k + 1, two_j + 1, 2):
        total += F(2**m, 2 ** (k + 1)) * abs(cfn(m, k + 1)) * laplace_sin_cos_power(
            m - 1, alpha
        )
    return total


# ---------------------------------------------------------------------------
# equality with the oracles
# ---------------------------------------------------------------------------


def test_exp_reconstruction_equals_fraction_oracle():
    for j in half_integers(30):
        for theta in THETAS:
            want = exp_reconstruction_fraction(j, theta)
            assert want.exact
            assert expcoeffs.exp_reconstruction(j, theta) == want, (j, theta)


def test_cayley_reconstruction_equals_fraction_oracle():
    for j in half_integers(30):
        for alpha in ALPHAS:
            want = cayley_reconstruction_fraction(j, alpha)
            assert want.exact
            assert cayley.cayley_reconstruction(j, alpha) == want, (j, alpha)


def test_laplace_bridge_equals_fraction_sum():
    for j in half_integers(30):
        for k in range(j.two_j + 1):
            for alpha in ALPHAS:
                got = bridge.b_from_a_laplace(j, k, alpha)
                assert type(got) is F
                assert got == b_from_a_laplace_fraction(j, k, alpha), (j, k, alpha)


def test_laplace_bridge_takes_a_float_at_its_exact_value():
    for alpha in (0.45, -1e-3, 12.5):
        assert bridge.b_from_a_laplace(HalfInt(7), 3, alpha) == b_from_a_laplace_fraction(
            HalfInt(7), 3, F(alpha)
        )


def test_scaled_b_matches_the_exact_table():
    for j in half_integers(20):
        table = cayley.b_coeffs(j)
        for alpha in ALPHAS:
            nums, den = cayley.scaled_b(j.two_j, *alpha.as_integer_ratio())
            assert den > 0
            want = [RationalFunction(num, table.den)(alpha) for num in map(table.b_num, range(j.two_j + 1))]
            assert [F(n, den) for n in nums] == want, (j, alpha)


# ---------------------------------------------------------------------------
# a perturbed table must fail the integer checks
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_caches(monkeypatch):
    # a patched _pairs feeds cached tables, and a patched _b_coeffs reads the
    # real cache; start and end clean, with unswept exp series frontiers for
    # the test alone
    caches = (
        expcoeffs._recon_weights,
        expcoeffs._series,
        cayley._b_coeffs,
    )
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(expcoeffs, "_FRONTIERS", (expcoeffs._Frontier(0), expcoeffs._Frontier(1)))
    yield
    for cache in caches:
        cache.cache_clear()


def _verify_detail(capsys, name):
    code = cli.main(["verify", "--max-two-j", "8"])
    report = json.loads(capsys.readouterr().out)
    (check,) = [c for c in report["checks"] if c["name"] == name]
    return code, check


def test_perturbed_series_pair_fails_exp_reconstruction(monkeypatch, capsys, fresh_caches):
    real = expcoeffs._pairs

    def perturbed(two_j, k):
        # coefficient r = 1 of column 1: k = 1 at every odd 2j >= 3
        pairs = real(two_j, k)
        if k == 1 and two_j % 2 and len(pairs) > 1:
            num, den = pairs[1]
            pairs[1] = (num + 1, den)
        return pairs

    monkeypatch.setattr(expcoeffs, "_pairs", perturbed)
    assert expcoeffs.exp_reconstruction(HalfInt(3), 0.4).exact is False
    code, check = _verify_detail(capsys, "exp-reconstruction")
    assert code == 1
    assert check["passed"] is False
    assert "op=exp_reconstruction" in check["detail"]


def test_perturbed_determinant_fails_cayley_reconstruction(monkeypatch, capsys, fresh_caches):
    real = cayley._b_coeffs

    def perturbed(two_j):
        det = real(two_j).den
        return real(two_j)._replace(den=det[:-1] + (det[-1] + 1,) if len(det) > 1 else det)

    monkeypatch.setattr(cayley, "_b_coeffs", perturbed)
    assert cayley.cayley_reconstruction(HalfInt(3), F(1, 2)).exact is False
    code, check = _verify_detail(capsys, "cayley-reconstruction")
    assert code == 1
    assert check["passed"] is False
    assert "op=cayley_reconstruction" in check["detail"]


def test_perturbed_odd_coefficient_fails_cayley_reconstruction(monkeypatch):
    # B_1 enters only the imaginary part of the reconstruction sum
    real = cayley.scaled_b

    def perturbed(two_j, p, q):
        nums, den = real(two_j, p, q)
        return [n + (k == 1) for k, n in enumerate(nums)], den

    monkeypatch.setattr(cayley, "scaled_b", perturbed)
    assert cayley.cayley_reconstruction(HalfInt(3), F(1, 2)).exact is False


def _patch_table(monkeypatch, two_j, k, num):
    # every table reads B_k's numerator as num at this spin; every other entry is real
    real = cayley.CayleyCoeffs.b_num

    def perturbed(table, kk):
        return num if (table.j.two_j, kk) == (two_j, k) else real(table, kk)

    monkeypatch.setattr(cayley.CayleyCoeffs, "b_num", perturbed)


def test_wrong_parity_coefficient_fails_pairing_parity(monkeypatch, capsys, fresh_caches):
    # B_1 at spin 3/2 is alpha + 10 alpha^3; an alpha^4 term breaks B_1(-alpha) = -B_1(alpha)
    assert cayley.b_coeffs(HalfInt(3)).b_num(1) == (0, 1, 0, 10)
    _patch_table(monkeypatch, 3, 1, (0, 1, 0, 10, 1))
    code, check = _verify_detail(capsys, "pairing-parity")
    assert code == 1
    assert check["passed"] is False
    assert check["detail"] == "op=parity j=3/2 k=1"


def test_broken_pair_fails_pairing_parity(monkeypatch, capsys, fresh_caches):
    # B_2 at spin 1 is alpha^2 + 20 alpha^4 = alpha B_1; one more alpha^4 keeps the parity
    assert cayley.b_coeffs(HalfInt(4)).b_num(2) == (0, 0, 1, 0, 20)
    _patch_table(monkeypatch, 4, 2, (0, 0, 1, 0, 21))
    code, check = _verify_detail(capsys, "pairing-parity")
    assert code == 1
    assert check["passed"] is False
    assert check["detail"] == "op=pairing j=2 B_2 != alpha*B_1"


def test_perturbed_determinant_fails_path_equality(monkeypatch, capsys, fresh_caches):
    # one coefficient of den at spin 5/2 off by 1: the exact resolvent, built
    # from the spectrum alone, no longer matches the table's partial sums
    real = cayley._b_coeffs

    def perturbed(two_j):
        det = real(two_j).den
        return real(two_j)._replace(den=det[:2] + (det[2] + 1,) + det[3:] if two_j == 5 else det)

    monkeypatch.setattr(cayley, "_b_coeffs", perturbed)
    code, check = _verify_detail(capsys, "cayley-path-equality")
    assert code == 1
    assert check["passed"] is False
    assert check["detail"] == "op=resolvent_coeffs j=5/2 k=0 beta=3/7"
    assert check["cases"] == sum(range(1, 6)) + 1  # every case of 2j < 5, then k = 0
    assert "worst" not in check and "bound" not in check


def test_doubled_determinant_fails_determinant_forms(monkeypatch, capsys, fresh_caches):
    # r_n is homogeneous of degree 0 in den, so twice den passes the path
    # equality; determinant-forms is what pins den's scale
    real = cayley._b_coeffs

    def doubled(two_j):
        return real(two_j)._replace(den=tuple(2 * c for c in real(two_j).den))

    monkeypatch.setattr(cayley, "_b_coeffs", doubled)
    code, check = _verify_detail(capsys, "cayley-path-equality")
    assert code == 1
    assert check["passed"] is True
    code, check = _verify_detail(capsys, "determinant-forms")
    assert check["passed"] is False
    assert check["detail"] == "op=det_cfn_poly j=0"


def test_nan_gamma_form_fails_determinant_forms(monkeypatch):
    # nan > bound is False: the check must ask not (error <= bound), and a
    # nan error is the worst even after cases with real errors
    real = cayley.log_det_gamma
    monkeypatch.setattr(
        cayley, "log_det_gamma", lambda j, alpha: math.nan if j.two_j == 1 else real(j, alpha)
    )
    entry = verify._run_check("determinant-forms", 6)
    assert entry["passed"] is False
    assert entry["detail"].startswith("op=det_gamma j=1/2 alpha=-2.0 ")
    assert entry["cases"] == 6 + 2  # spin 0's six cases, then spin 1/2's table and alpha = -2
    assert math.isnan(entry["worst"])


def test_path_equality_holds_past_the_float_determinants_overflow():
    # a complex-float resolvent overflows from 2j = 163 and its determinant
    # sums to 0 from 756; the exact one matches the table at every n there
    for two_j in (756, 757):
        assert verify._resolvent_fails(HalfInt(two_j)) == [False] * (two_j + 1)
