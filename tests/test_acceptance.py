"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here, not deferred.  Reconstruction checks run over
exact rationals (floats only at the final comparison), which is what makes
the 1e-9/1e-10 bars meaningful at 2j = 25 where naive float64 summation
loses six digits to cancellation.
"""

import math
import time
from fractions import Fraction as F

from spinpoly import bridge, cayley, cli, fixtures, plots
from spinpoly.basis import verify_fundamental_identity
from spinpoly.cayley import b_coeffs, b_coeffs_cfn, b_coeffs_recursion
from spinpoly.cfn import cfn
from spinpoly.exact import RationalFunction
from spinpoly.expcoeffs import exp_grid, exp_reconstruction
from spinpoly.halfint import HalfInt, half_integers

from oracles import cfn_t2, relative_error, validate_figure, verify_exp_equal_cayley


def _report(n: int, message: str) -> None:
    print(f"criterion {n}: PASS - {message}")


def test_criterion_1_golden_fixtures():
    start = time.perf_counter()
    results = fixtures.run_fixtures()
    elapsed = time.perf_counter() - start
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    assert elapsed < 1.0, f"fixture run took {elapsed:.3f}s"
    _report(1, f"{len(results)} golden fixtures exact in {elapsed * 1e3:.0f} ms")


def test_criterion_2_fundamental_identity():
    start = time.perf_counter()
    for j in half_integers(40):
        report = verify_fundamental_identity(j)
        assert report.passed, (j, report)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"identity sweep took {elapsed:.3f}s"
    _report(2, f"exact for all 2j <= 40 in {elapsed:.2f} s")


def _fifty_thetas() -> list[float]:
    thetas = [(-4.0 + 8.0 * i / 45) * math.pi for i in range(46)]
    thetas += [math.pi, -2 * math.pi, 2 * math.pi, 3 * math.pi]
    assert len(thetas) == 50
    return thetas


def test_criterion_3_exponential_reconstruction():
    worst = 0.0
    for j in half_integers(25):
        for theta in _fifty_thetas():
            rep = exp_reconstruction(j, theta)
            assert rep.exact, f"rational identity broke at j={j} theta={theta}"
            worst = max(worst, rep.max_error)
            assert rep.max_error < 1e-9, (j, theta, rep.max_error)
    # 2pi rotation: +identity for integer spin, -identity for semi-integer.
    # At theta = 2pi the target e^{i theta m} *is* that sign on every
    # eigenvalue, so the reconstruction bound certifies the whole matrix;
    # the constant coefficient pins the sign explicitly.
    for j in half_integers(25):
        rep = exp_reconstruction(j, 2 * math.pi)
        assert rep.max_error < 1e-9
        sign = exp_grid(j, [2 * math.pi])[0][0]
        want = 1.0 if j.is_integer else -1.0
        assert abs(sign - want) < 1e-9, (j, sign)
    _report(3, f"50 angles, 2j <= 25, worst per-eigenvalue error {worst:.2e} (exact identity)")


def test_criterion_4_cayley_reconstruction():
    alphas = [F(3 * k, 10) for k in range(-10, 11) if k]
    assert len(alphas) == 20
    worst = 0.0
    for j in half_integers(25):
        for alpha in alphas:
            rep = cayley.cayley_reconstruction(j, alpha)
            assert rep.exact, f"rational identity broke at j={j} alpha={alpha}"
            worst = max(worst, rep.max_error)
            assert rep.max_error < 1e-10, (j, alpha, rep.max_error)
    _report(4, f"20 alphas in [-3,3], 2j <= 25, worst error {worst:.2e} (exact identity)")


def test_criterion_5_four_way_agreement():
    rational_alphas = [F(n, 8) for n in range(-10, 11) if n]
    float_alphas = [0.15 * k for k in range(1, 11)] + [-0.15 * k for k in range(1, 11)]
    for j in half_integers(12):
        truncation = b_coeffs(j)
        recursion = b_coeffs_recursion(j)
        cfn_form = b_coeffs_cfn(j)
        # the same integer table, not just the same functions
        assert truncation == recursion == cfn_form, j
        b = [RationalFunction(truncation.b_num(k), truncation.den) for k in range(j.two_j + 1)]
        for k in range(j.two_j + 1):
            for alpha in rational_alphas[:20]:
                assert bridge.b_from_a_laplace(j, k, alpha) == b[k](alpha)
        eigs = [1j * m2 for m2 in range(j.two_j, -j.two_j - 1, -2)]
        for alpha in float_alphas:
            resolvent = cayley.resolvent_coeffs(eigs, alpha)
            for k, r in enumerate(resolvent):
                want = float(b[k](F(alpha)))
                assert abs(r - want) <= 1e-10 * max(1.0, abs(want)), (j, k, alpha)
    _report(5, "truncation = recursion = resolvent = Laplace bridge, 2j <= 12")


def test_criterion_6_pairing_and_parity():
    # B_k(-alpha) = (-1)^k B_k(alpha) with an even den: B_k has k's parity
    for j in half_integers(16):
        table = b_coeffs(j)
        assert table.den[0] == 1 and not any(table.den[1::2]), j
        for k, num in enumerate(map(table.b_num, range(j.two_j + 1))):
            assert num[k] != 0 and not any(num[1 - k % 2 :: 2]), (j, k)
        if j.is_integer:
            assert table.b_num(0) == table.den, j
            pairs = [(2 * k + 2, 2 * k + 1) for k in range(j.two_j // 2)]
        else:
            pairs = [(2 * k + 1, 2 * k) for k in range((j.two_j + 1) // 2)]
        for hi, lo in pairs:
            assert table.b_num(hi) == (0,) + table.b_num(lo), (j, hi, lo)
    _report(6, "pairing and parity laws exact on the integer tables, 2j <= 16")


def _log_fraction(value: F) -> float:
    return math.log(value.numerator) - math.log(value.denominator)


def test_criterion_7_closed_form_determinant():
    alphas = (-2.0, -1.0, -0.5, -0.1, 0.1, 0.5, 1.0, 2.0)
    for j in half_integers(30):
        det = cayley.det_poly(j)
        for alpha in alphas:
            want = math.fsum(float(c) * alpha**i for i, c in enumerate(det))
            got = math.exp(cayley.log_det_gamma(j, alpha))
            assert abs(got - want) <= 1e-10 * want, (j, alpha, got, want)
    # bosonic/fermionic split of det / [(4 alpha^2)^floor(j+1/2) Gamma(1+j)^2]
    for two_j, limit in (
        (80, (2.0 / math.pi) * math.sinh(math.pi / 2)),
        (81, math.cosh(math.pi / 2) / math.pi),
    ):
        j = HalfInt(two_j)
        det_at_one = sum(c for c in cayley.det_poly(j))
        log_norm = ((two_j + 1) // 2) * math.log(4.0) + 2.0 * math.lgamma(two_j / 2.0 + 1.0)
        ratio = math.exp(_log_fraction(F(det_at_one)) - log_norm)
        assert abs(ratio / limit - 1.0) < 0.02, (two_j, ratio, limit)
    _report(7, "gamma form to 1e-10 for 2j <= 30; sinh/cosh split within 2% at j = 40, 81/2")


def test_criterion_8_relative_error_grid():
    alphas = [0.5, 1.0, 2.0, 3.5, 5.0]
    for k in (1, 2, 3, 4):
        for alpha in alphas:
            chain = [
                relative_error(HalfInt(2 * jj), k, alpha)
                for jj in (1, 2, 8, 50)
                if k <= 2 * jj
            ]
            assert all(delta >= 0.0 for delta in chain), (k, alpha, chain)
            assert all(a > b for a, b in zip(chain, chain[1:])), (k, alpha, chain)
    _report(8, "relative error >= 0 and decreasing in j for k <= 4, alpha in (0, 5]")


def test_criterion_8_b1_spin50_within_1e_3_of_limit():
    # Stated bound: |B_1[50](1) - asymp_1(1)| <= 1e-3.  The gap actually
    # closes like ~0.17/j (tail of the product over n^2/(n^2 + 1/4)), so at
    # j = 50 it is ~3.4e-3 and the bound would first hold near j = 171.
    # The assertion is kept as stated rather than loosened to fit.
    limit = cayley.b_limit_ratio(True, 1, 1.0)
    table = b_coeffs(HalfInt(100))
    b1_over_alpha = float(RationalFunction(table.b_num(1), table.den)(F(1)))
    gap = abs(b1_over_alpha - limit)
    print(
        f"criterion 8 (limit bound): B1[50](1)/1 = {b1_over_alpha:.9f}, "
        f"limit = {limit:.9f}, gap = {gap:.3e}"
    )
    assert gap <= 1e-3, (
        f"stated tolerance 1e-3 is not attainable: gap = {gap:.3e}; "
        f"convergence is ~0.17/j, so j >= ~171 would be needed"
    )


def test_criterion_8_t2_exact_and_figures(tmp_path):
    for jj in range(21):
        assert cfn_t2(jj) == abs(cfn(2 * jj + 2, 2)), jj
    # figure data: emission succeeds and the emitted values cross-validate
    for figure in plots.FIGURES:
        header, rows = plots.figure_rows(figure)
        assert len(header) == 3 and rows, figure
        assert validate_figure(figure) == [], figure
    target = tmp_path / "exp_A.csv"
    code = cli.main(
        ["plotdata", "--figure", "exp-A", "--theta-grid", "0:4pi:800", "--csv", str(target)]
    )
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "theta,series,value"
    assert len(lines) == 1 + 800 * 6 * 2
    _report(8, "|t(2j+2,2)| = (j!)^2 for j <= 20; all figures emitted and cross-validated")


def test_criterion_9_parameter_shear():
    import random

    for two_j in (3, 4, 5):
        magnitudes = sorted({abs(m2) / 2.0 for m2 in range(two_j, -two_j - 1, -2)} - {0.0})
        alphas = [bridge.alpha_from_theta(m, 1.0) for m in magnitudes]
        assert len(set(round(a, 12) for a in alphas)) == len(alphas), (two_j, alphas)
    rng = random.Random(20240817)
    ms = [0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 2.0, -2.0]
    checked = 0
    while checked < 200:
        m = rng.choice(ms)
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        if abs(math.cos(m * theta / 2.0)) < 0.1:
            continue
        assert verify_exp_equal_cayley(m, theta), (m, theta)
        checked += 1
    _report(9, "alpha(theta) differs across |M| for j >= 3/2; identity holds on 200 samples")
