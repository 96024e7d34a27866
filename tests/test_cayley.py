import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from spinpoly import cayley
from spinpoly.basis import spectrum
from spinpoly.cayley import (
    a_coeffs,
    b_coeffs,
    b_coeffs_cfn,
    b_coeffs_recursion,
    b_limit_ratio,
    cayley_reconstruction,
    det_forms,
    det_poly,
    eval_coeffs,
    inv_det,
    log_det_gamma,
    resolvent_coeffs,
    scaled_b,
)
from spinpoly.exact import RationalFunction, poly, poly_mul
from spinpoly.halfint import HalfInt, half_integers

from oracles import (
    b_exact_gamma,
    canonical,
    limit_ratio_exact,
    recursion_numerators,
    relative_error,
    trigamma_int,
)

ROOT = Path(__file__).resolve().parents[1]


def even_poly(coeffs_by_alpha_squared):
    out = []
    for c in coeffs_by_alpha_squared:
        out += [c, 0]
    return poly(out[:-1])


def test_det_poly_fixture_values():
    assert det_poly(HalfInt(3)) == even_poly([1, 10, 9])
    assert det_poly(HalfInt(6)) == even_poly([1, 56, 784, 2304])
    assert det_poly(HalfInt(0)) == poly([1])
    assert det_poly(HalfInt(4)) == even_poly([1, 20, 64])
    assert det_poly(HalfInt(5)) == even_poly([1, 35, 259, 225])


def test_det_poly_equals_fraction_product_over_the_spectrum():
    # det = prod (1 + M^2 alpha^2) over the positive eigenvalues M of S = 2 n.J,
    # so spin 2j extends spin 2j - 2 by the factor for M = 2j
    dets = [poly([1]), poly([1, 0, 1])]
    for two_j in range(2, 121):
        dets.append(poly_mul(dets[two_j - 2], poly([1, 0, two_j * two_j])))
    for two_j, want in enumerate(dets):
        assert det_poly(HalfInt(two_j)) == want, two_j


def test_det_equals_cfn_assembly():
    for j in half_integers(40):
        det, cfn_det = det_forms(j)
        assert det == cfn_det, j


def test_det_gamma_values():
    assert math.exp(log_det_gamma(HalfInt(2), 0.5)) == pytest.approx(2.0, rel=1e-12)
    assert math.exp(log_det_gamma(HalfInt(1), 1.0)) == pytest.approx(2.0, rel=1e-12)
    assert math.exp(log_det_gamma(HalfInt(5), 1.0)) == pytest.approx(520.0, rel=1e-12)
    with pytest.raises(ValueError):
        log_det_gamma(HalfInt(2), 0.0)


def test_det_gamma_matches_poly_on_grid():
    for j in half_integers(12):
        det = det_poly(j)
        for alpha in (-2.0, -1.0, -0.5, -0.1, 0.1, 0.5, 1.0, 2.0):
            want = math.fsum(float(c) * alpha**i for i, c in enumerate(det))
            got = math.exp(log_det_gamma(j, alpha))
            assert abs(got - want) <= 1e-10 * want, (j, alpha)


def test_b_fixture_spin_half():
    j = HalfInt(1)
    table = b_coeffs(j)
    one_plus = poly([1, 0, 1])
    assert RationalFunction(table.b_num(0), table.den) == RationalFunction(poly([1]), one_plus)
    assert RationalFunction(table.b_num(1), table.den) == RationalFunction(poly([0, 1]), one_plus)
    assert a_coeffs(j)[0] == RationalFunction(poly([1, 0, -1]), one_plus)


def test_b_fixture_spin_one():
    j = HalfInt(2)
    table = b_coeffs(j)
    den = poly([1, 0, 4])
    # B_0 = den/den is the one entry of a table that reduces
    b0 = canonical(RationalFunction(table.b_num(0), table.den))
    assert b0 == RationalFunction(poly([1]), poly([1]))
    assert RationalFunction(table.b_num(1), table.den) == RationalFunction(poly([0, 1]), den)
    assert RationalFunction(table.b_num(2), table.den) == RationalFunction(poly([0, 0, 1]), den)


def test_a_fixture_spin_three_half():
    j = HalfInt(3)
    a = a_coeffs(j)
    den = even_poly([1, 10, 9])
    assert a[0] == RationalFunction(even_poly([1, 10, -9]), den)
    assert a[1] == RationalFunction(poly([0, 2, 0, 20]), den)


def test_every_table_is_integers_over_the_determinant():
    # the three builders give one table: integer numerators over the determinant
    for j in half_integers(40):
        table = b_coeffs(j)
        assert b_coeffs_cfn(j) == table == b_coeffs_recursion(j), j
        assert table.den == det_poly(j), j
        b_nums = tuple(map(table.b_num, range(j.two_j + 1)))
        a_nums = tuple(a.num for a in a_coeffs(j))
        assert len(b_nums) == len(a_nums) == j.two_j + 1, j
        for num in b_nums + a_nums + (table.den,):
            assert num == poly(num) and all(type(c) is int for c in num), j


@pytest.mark.parametrize("two_j", [120, 121, 200, 201])
def test_no_factor_of_det_divides_a_shorter_truncation(two_j):
    # a_coeffs' lowest-terms proof at large spins: 1 + M^2 alpha^2 divides
    # Trunc_n[det] exactly when S_n = M^n Trunc_n[det](i/M) vanishes, and S_n
    # is the integer partial sum S_n = M S_{n-1} + i^n d_n (d_n = 0 at odd n)
    j = HalfInt(two_j)
    det = det_poly(j)
    deg = len(det) - 1
    for m in range(two_j, 0, -2):
        s, sums = 0, []
        for n, d in enumerate(det):
            s = m * s + (-d if n % 4 == 2 else d)
            sums.append(s)
        assert all(sums[:deg]), m
        assert sums[deg] == 0, m  # det itself has every factor
    # so every A_k keeps den, but A_0 = 1 at integer spin
    assert {a.den for a in a_coeffs(j)[j.is_integer :]} == {det}


def test_a_cold_large_cayley_table_peaks_small():
    # the table stores den alone; each B_k and A_k is read on demand
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for two_j, mib in ((800, 40), (1600, 24)):
        code = (
            "from spinpoly.cayley import b_coeffs\n"
            "from spinpoly.halfint import HalfInt\n"
            f"b_coeffs(HalfInt({two_j}))\n"
            "print([l for l in open('/proc/self/status') if l.startswith('VmHWM:')][0].split()[1])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < mib * 1024, two_j  # kB


def test_recursion_numerators_are_the_truncated_determinant():
    # b_coeffs_recursion derives den alone; its numerators, summed in full, must cancel to b_num's
    for two_j in range(161):
        table = b_coeffs_recursion(HalfInt(two_j))
        nums = recursion_numerators(two_j)
        assert nums == [table.b_num(m) for m in range(two_j + 1)], two_j


def test_every_reader_of_the_determinant_reads_one_cache():
    # the product determinant is built once per spin, in _b_coeffs: the first
    # reader misses and every later one, exact or float, hits
    j = HalfInt(7)
    readers = (
        lambda: eval_coeffs(j, 0.3),
        lambda: inv_det(j, 0.3),
        lambda: det_poly(j),
        lambda: b_coeffs(j),
        lambda: scaled_b(j.two_j, 3, 10),
    )
    cayley._b_coeffs.cache_clear()
    infos = []
    for read in readers:
        read()
        infos.append(cayley._b_coeffs.cache_info())
    assert [info.misses for info in infos] == [1] * len(readers)
    assert all(a.hits < b.hits for a, b in zip(infos, infos[1:]))


def test_b_num_is_the_normalized_slice_of_the_determinant():
    # b_num slices den without poly(); the slice must be what poly() would
    # make of it, ints with the trailing zeros stripped
    for two_j in range(61):
        table = b_coeffs(HalfInt(two_j))
        for k in range(two_j + 1):
            num = table.b_num(k)
            assert num == poly((0,) * k + table.den[: two_j - k + 1]), (two_j, k)
            assert type(num) is tuple and all(type(c) is int for c in num), (two_j, k)
            assert num[-1] != 0, (two_j, k)


@pytest.mark.parametrize("two_j, k", [(0, -1), (0, 1), (5, -1), (5, 6), (6, -1), (6, 7)])
def test_b_num_refuses_a_k_outside_0_to_2j(two_j, k):
    with pytest.raises(ValueError, match=rf"^k must lie in 0\.\.{two_j}, got {k}$"):
        b_coeffs(HalfInt(two_j)).b_num(k)


def test_recursion_derivative_normalization():
    # B_m = alpha**m + O(alpha**(m+1)) at alpha = 0: the numerator vanishes
    # below alpha**m and its alpha**m coefficient is den(0)
    for j in half_integers(16):
        rec = b_coeffs_recursion(j)
        for m in range(j.two_j + 1):
            num, den = rec.b_num(m), rec.den
            assert den[0] != 0, (j, m)
            assert num[:m] == (0,) * m and num[m] == den[0], (j, m)


def test_resolvent_reproduces_spin_half():
    for alpha in (0.3, -0.8, 1.7):
        got = resolvent_coeffs([1j, -1j], alpha)
        table = b_coeffs(HalfInt(1))
        for k in (0, 1):
            want = float(RationalFunction(table.b_num(k), table.den)(F(alpha)))
            assert abs(got[k] - want) < 1e-14


def test_resolvent_single_eigenvalue():
    assert resolvent_coeffs([F(3)], F(1, 2)) == [F(-2)]  # 1/(1 - 3/2)


def test_resolvent_is_the_truncation_formula_exactly():
    # r_n = alpha**n Trunc_{N-1-n}[det] / det with each truncation summed on
    # its own; exact determinant coefficients past 2**512 are never scaled
    for eigs in ([F(m, 3) for m in range(-4, 5)], [F(2**600), F(-(2**600)), F(3)]):
        det = [F(1)]
        for lam in eigs:
            det = [a - lam * b for a, b in zip(det + [0], [0] + det)]
        n = len(eigs)
        for alpha in (F(2, 7), F(-5, 2), F(1, 100)):
            det_val = sum(c * alpha**m for m, c in enumerate(det))
            want = [
                alpha**i * sum(det[m] * alpha**m for m in range(n - i)) / det_val
                for i in range(n)
            ]
            assert resolvent_coeffs(eigs, alpha) == want


@pytest.mark.parametrize("two_j", [163, 200, 401])
def test_exact_resolvent_is_the_table_at_imaginary_alpha(two_j):
    # prod (1 - beta M) over the spectrum of 2n.J is den at alpha**2 = -beta**2,
    # so the exact resolvent is the truncation formula there, past every
    # float range; the truncations are summed here in Fractions
    beta = F(3, 7)
    den = b_coeffs(HalfInt(two_j)).den
    trunc, total = [], F(0)
    for m, d in enumerate(den):
        total += d * (-1) ** (m // 2) * beta**m
        trunc.append(total)
    want = [beta**n * trunc[two_j - n] / total for n in range(two_j + 1)]
    assert resolvent_coeffs(spectrum(HalfInt(two_j)), beta) == want


def test_resolvent_direct_oracle():
    alpha = 0.1
    eigs = [1.0, 2.0, 3.0]
    coeffs = resolvent_coeffs(eigs, alpha)
    for lam in eigs:
        value = sum(c * lam**m for m, c in enumerate(coeffs))
        assert value == pytest.approx(1.0 / (1.0 - alpha * lam), rel=1e-13)


def test_resolvent_errors():
    with pytest.raises(ValueError):
        resolvent_coeffs([1.0, 1.0], 0.1)
    with pytest.raises(ValueError):
        resolvent_coeffs([2.0, 3.0], 0.5)


def test_asymp_bosonic_k1_form():
    for alpha in (0.3, 1.0, 2.5):
        x = math.pi / (2 * alpha)
        want = 1.0 - 1.0 / ((2 * alpha / math.pi) * math.sinh(x))
        assert b_limit_ratio(True, 1, alpha) == pytest.approx(want, rel=1e-14)


def test_asymp_limits_and_monotinicity():
    assert b_limit_ratio(True, 5, 1e6) == pytest.approx(0.0, abs=1e-10)
    assert b_limit_ratio(False, 4, 1e6) == pytest.approx(0.0, abs=1e-10)
    assert b_limit_ratio(True, 3, 0.0) == 1.0
    values = [b_limit_ratio(True, 2 * n - 1, 1.0) for n in range(1, 11)]
    assert all(a >= b >= 0.0 for a, b in zip(values, values[1:]))
    # deep in the essential-singularity region the ratio underflows to 1
    assert b_limit_ratio(True, 3, 1e-4) == 1.0
    assert b_limit_ratio(False, 2, 1e-4) == 1.0
    # x = pi/(2|alpha|) overflows to inf: the x -> inf limit, not 0 * log(inf)
    assert b_limit_ratio(True, 1, 1e-310) == 1.0
    assert b_limit_ratio(False, 2, 1e-310) == 1.0
    assert b_limit_ratio(True, 1, 5e-324) == 1.0


@pytest.mark.parametrize("is_integer_spin", [True, False])
def test_limit_ratio_where_twice_alpha_overflows(is_integer_spin):
    # above about 8.99e307, 2|alpha| is inf: x = pi/(2|alpha|) must not read 0
    for alpha in (1e308, -1e308, sys.float_info.max):
        assert b_limit_ratio(is_integer_spin, 1, alpha) == 0.0
        assert b_limit_ratio(is_integer_spin, 2, alpha) == 0.0
    # x = 0, for an infinite alpha, is the x -> 0 limit
    assert b_limit_ratio(is_integer_spin, 1, math.inf) == 0.0
    # and just below the overflow, where 2|alpha| is finite
    assert b_limit_ratio(is_integer_spin, 1, 8.9e307) == 0.0


def test_asymp_fermionic_values():
    assert b_limit_ratio(False, 0, 1.0) == pytest.approx(1.0 - 1.0 / math.cosh(math.pi / 2), rel=1e-14)
    assert b_limit_ratio(False, 2, math.pi / 2) == pytest.approx(1.0 - 1.5 / math.cosh(1.0), rel=1e-14)


SATURATED_IN_THE_FLOAT_SUM = {
    (True, 3, 5011.872336272725),
    (True, 5, 4466.835921509635),
    (False, 129, 0.31622776601683794),
}


@pytest.mark.parametrize(
    "is_integer_spin, k, alpha",
    [
        (True, 171, 1.0),  # 171! is past the float range
        (True, 171, 1e4),
        (False, 172, 1.0),
        (True, 121, 0.00225),  # x**120 overflows at x = 698.1
        (True, 1001, 0.5),  # saturated: the exact share is below 1e-2000
        (False, 1001, 0.5),
        (True, 400, math.pi / 800),  # about half the series is past k, x = 400
        (False, 400, math.pi / 800),
        (True, 1398, math.pi / 1398),  # x = 699, just under the log-space switch
        (False, 700, math.pi / 1396),
        (True, 1500, math.pi / 1401),  # saturated in log space, x = 700.5
        (True, 1500, math.pi / 1500),
        (True, 3, 5011.872336272725),  # saturated in the float sum
        (True, 5, 4466.835921509635),
        (False, 129, 0.31622776601683794),
    ],
)
def test_limit_ratio_past_the_float_sum_matches_exact_reference(is_integer_spin, k, alpha):
    # where a term of the float partial sum overflows, or where the sum holds
    # but passes half the whole, so that 1 - partial/whole would cancel, the
    # ratio is the exact one at the same float x to 1e-15, and a share in [0, 1]
    x, s = math.pi / (2.0 * abs(alpha)), int(is_integer_spin)
    terms = (x ** (2 * n) / math.factorial(2 * n + s) for n in range((k + 2 - s) // 2))
    if (is_integer_spin, k, alpha) in SATURATED_IN_THE_FLOAT_SUM:
        assert math.fsum(terms) / (math.sinh(x) / x if s else math.cosh(x)) > 0.5
    else:
        with pytest.raises(OverflowError):
            math.fsum(terms)
    got = b_limit_ratio(is_integer_spin, k, alpha)
    assert 0.0 <= got <= 1.0
    assert abs(F(got) - limit_ratio_exact(is_integer_spin, k, x)) <= F(1, 10**15)


def test_b_exact_gamma_matches_table():
    for jj in (1, 2, 3, 4):
        table = b_coeffs(HalfInt(2 * jj))
        for k in (1, 2, 3, 4):
            if k > 2 * jj:
                continue
            for alpha in (0.3, 1.0, 2.7, -1.1):
                direct = float(RationalFunction(table.b_num(k), table.den)(F(alpha))) / alpha**k
                assert abs(direct - b_exact_gamma(jj, k, alpha)) <= 1e-9 * max(1.0, abs(direct))


def test_b_exact_gamma_special_values():
    assert b_exact_gamma(1, 1, 1.0) == pytest.approx(0.2, rel=1e-13)  # B_1 = alpha/(1+4a^2)
    assert b_exact_gamma(1, 3, 1.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        b_exact_gamma(2, 5, 1.0)


def test_trigamma_int():
    assert trigamma_int(0) == pytest.approx(math.pi**2 / 6, rel=1e-15)
    assert trigamma_int(1) == pytest.approx(math.pi**2 / 6 - 1.0, rel=1e-14)
    assert trigamma_int(3) == pytest.approx(math.pi**2 / 6 - 49.0 / 36.0, rel=1e-14)


def test_relative_error_grid():
    alphas = [0.5, 1.0, 2.0, 3.5, 5.0]
    for k in (1, 2):
        for alpha in alphas:
            chain = [relative_error(HalfInt(2 * jj), k, alpha) for jj in (1, 2, 8)]
            assert all(d >= 0.0 for d in chain), (k, alpha, chain)
            assert chain[0] > chain[1] > chain[2], (k, alpha, chain)


def test_relative_error_j50_frozen():
    # limit gap at spin 50 closes like ~0.17/j: still about 1.1e-2 here
    assert relative_error(HalfInt(100), 1, 1.0) == pytest.approx(0.0107859912527, rel=1e-9)


def test_relative_error_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        relative_error(HalfInt(2), 1, 0.0)


def test_highest_coefficients_are_inverse_determinant():
    # B_2j = alpha^2j / det, and B_2j-1 = alpha^(2j-1) / det as det has no alpha term
    for j in half_integers(16):
        if j.two_j < 1:
            continue
        table = b_coeffs(j)
        assert table.den == det_poly(j)
        assert table.b_num(j.two_j) == (0,) * j.two_j + (1,), j
        assert table.b_num(j.two_j - 1) == (0,) * (j.two_j - 1) + (1,), j


def test_reconstruction_small_spins():
    for j in half_integers(8):
        for alpha in (F(1, 3), F(-5, 7), F(2)):
            rep = cayley_reconstruction(j, alpha)
            assert rep.exact and rep.max_error == 0.0, (j, alpha)


_RNG = random.Random(1506)
EVAL_ALPHAS = (
    [0.0, 0.7, -0.7, 1e-3, 1e3, 1e-300]
    + [_RNG.choice((1, -1)) * 10.0 ** _RNG.uniform(-3, 3) for _ in range(4)]
    # B_2 is subnormal here, and twice its rounded value is not 2*B_2 rounded
    + [7e-157, 1.1e-158]
    # B_1 is about alpha: normal below 2**-1021, at 2**-1021, subnormal
    + [1.5 * 2.0**-1022, 2.0**-1021, 3e-320]
)


@pytest.mark.parametrize("two_j", [0, 1, 2, 3, 6, 9, 16, 25, 41, 60])
def test_eval_coeffs_rounds_the_exact_table(two_j):
    j = HalfInt(two_j)
    table = b_coeffs(j)
    for alpha in EVAL_ALPHAS:
        bs, as_ = eval_coeffs(j, alpha)
        exact_b = [RationalFunction(num, table.den)(F(alpha)) for num in map(table.b_num, range(j.two_j + 1))]
        # the table's A_k shares B_k's denominator: A_k = 2B_k, A_0 = 2B_0 - 1
        exact_a = [2 * exact_b[0] - 1] + [2 * b for b in exact_b[1:]]
        assert bs == tuple(map(float, exact_b)), alpha
        assert as_ == tuple(map(float, exact_a)), alpha


def test_eval_coeffs_a0_is_rounded_once():
    # at spin 1/2, A_0 = (1 - alpha^2)/(1 + alpha^2) is exactly 0 at alpha = 1
    assert eval_coeffs(HalfInt(1), 1.0)[1][0] == 0.0
    assert eval_coeffs(HalfInt(1), 0.5)[1] == (0.6, 0.8)
    # 2*B_0 - 1 in floats would be off by an ulp here (2j = 3, alpha = 1)
    for two_j in (1, 3, 5):
        a0 = a_coeffs(HalfInt(two_j))[0]
        for alpha in (1.0, math.nextafter(1.0, 2.0), 0.9999999):
            assert eval_coeffs(HalfInt(two_j), alpha)[1][0] == float(a0(F(alpha)))


_KS_RNG = random.Random(2014)
KS_ALPHAS = (
    [sign * 10.0 ** _KS_RNG.uniform(-3, 3) for sign in (1, -1) for _ in range(3)]
    + [1e-300, F(-5, 7)]  # at 1e-300 every B_k past k = 1 underflows to 0
)


def _hexes(b, a):
    return [(x.hex(), y.hex()) for x, y in zip(b, a)]


def test_eval_coeffs_at_chosen_ks_is_the_full_table_bit_for_bit():
    # each float is one division of the same integers, however many k are asked for
    rng = random.Random(20)
    for two_j in range(61):
        j = HalfInt(two_j)
        for alpha in KS_ALPHAS:
            full = _hexes(*eval_coeffs(j, alpha))
            for k in range(two_j + 1):
                assert _hexes(*eval_coeffs(j, alpha, (k,))) == [full[k]], (two_j, alpha, k)
            ks = [rng.randrange(two_j + 1) for _ in range(two_j + 3)]  # any order, repeats
            assert _hexes(*eval_coeffs(j, alpha, ks)) == [full[k] for k in ks]
            assert _hexes(*eval_coeffs(j, alpha, iter(ks))) == [full[k] for k in ks]
    assert eval_coeffs(HalfInt(4), 0.5, ()) == ((), ())


@pytest.mark.parametrize("two_j, k", [(2, -1), (2, 3), (3, -1), (3, 4)])
def test_eval_coeffs_refuses_a_k_outside_0_to_2j(two_j, k):
    # at odd 2j, k = -1 would read S_deg, one past S_2j, without the check
    with pytest.raises(ValueError, match=rf"^k must lie in 0\.\.{two_j}, got {k}$"):
        eval_coeffs(HalfInt(two_j), 0.5, (0, k))
