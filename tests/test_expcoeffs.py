import cmath
import itertools
import math
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from spinpoly import cfn as cfn_module
from spinpoly import expcoeffs, verify
from spinpoly.basis import project_coefficients, spectrum
from spinpoly.cfn import cfn
from spinpoly.exact import poly, poly_eval, poly_mul
from spinpoly.expcoeffs import (
    a_coeff_cfn_series,
    a_coeff_derivative_path,
    a_coeff_trunc,
    epsilon,
    exp_grid,
    exp_reconstruction,
    half_angles,
)
from spinpoly.halfint import HalfInt, half_integers

from oracles import (
    exp_grid_scalar,
    exp_series_closed_form,
    recon_numerators_termwise,
    recon_weights_by_coef,
    series_by_coef,
    series_floats_streamed,
)
from test_integer_identities import circle_point

ROOT = Path(__file__).resolve().parents[1]
THETAS = [(-2.0 + 4.0 * i / 99) * math.pi for i in range(100)]


def test_epsilon_values():
    assert epsilon(HalfInt(2), 0) == 0
    assert epsilon(HalfInt(1), 0) == 1
    assert epsilon(HalfInt(2), 1) == 1
    with pytest.raises(ValueError):
        epsilon(HalfInt(2), 3)


def test_spin_half_coefficients():
    j = HalfInt(1)
    for theta in THETAS:
        assert a_coeff_trunc(j, 0, theta) == pytest.approx(math.cos(theta / 2), abs=1e-15)
        assert a_coeff_trunc(j, 1, theta) == pytest.approx(math.sin(theta / 2), abs=1e-15)


def _series_by_product(two_j, k):
    # (arcsin(sqrt x)/sqrt x)**k, times (1 - x)**(-1/2) = sum C(2m,m)/4**m x**m
    # when 2j - k is odd, truncated at order (2j - k)//2
    order = (two_j - k) // 2
    arcsin_power = [
        Fraction(math.factorial(k) * 4**r, math.factorial(k + 2 * r)) * abs(cfn(k + 2 * r, k))
        for r in range(order + 1)
    ]
    if (two_j - k) % 2 == 0:
        return poly(arcsin_power)
    half = [Fraction(math.comb(2 * m, m), 4**m) for m in range(order + 1)]
    return poly(poly_mul(arcsin_power, half)[: order + 1])


def test_series_equals_arcsin_power_times_binomial_product():
    for two_j in range(61):
        for k in range(two_j + 1):
            assert expcoeffs._series(two_j, k) == _series_by_product(two_j, k), (two_j, k)


def test_series_is_the_factorial_closed_form():
    # the column recurrence against k! 4**r |t(col + 2r, col)| / (k + 2r)!
    for two_j in range(201):
        for k in sorted({0, 1, 2, two_j // 3, two_j // 2, two_j - 1, two_j} & {*range(two_j + 1)}):
            assert expcoeffs._series(two_j, k) == exp_series_closed_form(two_j, k), (two_j, k)


def test_float_series_is_the_exact_series_rounded():
    # covers the dropped zero tail at k = 0 for even 2j, and int/int
    # division rounding as Fraction.__float__ does
    for two_j in range(201):
        for k in range(two_j + 1):
            exact = tuple(float(c) for c in expcoeffs._series(two_j, k))
            assert expcoeffs._series_float(two_j, k) == exact, (two_j, k)


@pytest.fixture
def fresh_frontiers(monkeypatch):
    # unswept frontiers for this test alone; the process's own come back after
    frontiers = (expcoeffs._Frontier(0), expcoeffs._Frontier(1))
    monkeypatch.setattr(expcoeffs, "_FRONTIERS", frontiers)
    return frontiers


def _hex(values):
    return [float.hex(v) for v in values]


def test_cold_series_far_above_the_recursion_limit(fresh_frontiers):
    # the frontier sweeps its rows in a loop: a cold 2j = 2000 build, far
    # past the recursion limit, neither recurses nor fills cfn's row table
    rows = cfn_module._row.cache_info().currsize
    assert expcoeffs._series_float(2000, 1999) == (1.0,)  # row 2000 first
    assert expcoeffs._series_float(2000, 0) == (1.0,)  # 1001 coefficients, zero tail
    assert fresh_frontiers[0].top == 2000 and fresh_frontiers[1].top == -1
    assert cfn_module._row.cache_info().currsize == rows
    ks = (1, 2, 3, 700, 1333, 1998, 1999)
    want = series_floats_streamed(2000, ks)
    for k in ks:
        assert _hex(expcoeffs._series_float(2000, k)) == _hex(want[k]), k


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_cold_row_table_does_not_recurse():
    # cfn._row, which _series and _recon_weights read through cfn_pair,
    # warms the rows below a miss lowest first: a cold row 300 takes a few
    # frames where plain recursion down its predecessors would take 150
    want = ()
    for n in range(0, 301, 2):
        want = cfn_module._next_row(want, n)
    cfn_module._row.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        row = cfn_module._row(300)
    finally:
        sys.setrecursionlimit(limit)
        cfn_module._row.cache_clear()
    assert row == want


def _assert_frontier_matches_the_recurrence(frontier):
    for two_j in range(frontier.parity, frontier.top + 1, 2):
        for k in range(two_j + 1):
            want = [value for _, _, value in series_by_coef(two_j, k)]
            assert _hex(expcoeffs._series_float(two_j, k)) == _hex(want), (two_j, k)


class _FailingList(list):
    def append(self, value):
        raise MemoryError


@pytest.mark.parametrize("phase", ["build", "commit"])
def test_an_interrupted_row_leaves_the_frontier_as_it_was(monkeypatch, fresh_frontiers, phase):
    frontier = fresh_frontiers[0]
    expcoeffs._series_float(40, 0)
    divided = frontier.divided
    sizes = [len(f) for f in frontier.floats]
    if phase == "build":  # coefficient 31 of the 43 in row 42
        calls, next_pair = itertools.count(), expcoeffs._next_pair

        def flaky(*args):
            if next(calls) == 30:
                raise KeyboardInterrupt
            return next_pair(*args)

        monkeypatch.setattr(expcoeffs, "_next_pair", flaky)
    else:  # lists 0..19 have taken row 42's float, list 20 fails
        kept = frontier.floats[20]
        frontier.floats[20] = _FailingList(kept)
    with pytest.raises(KeyboardInterrupt if phase == "build" else MemoryError):
        expcoeffs._series_float(60, 0)
    if phase == "build":
        monkeypatch.setattr(expcoeffs, "_next_pair", next_pair)
    else:
        frontier.floats[20] = kept
    assert (frontier.top, frontier.divided) == (40, divided)
    assert [len(f) for f in frontier.floats] == sizes
    expcoeffs._series_float(60, 0)
    assert frontier.divided == sum(n + 1 for n in range(0, 61, 2))
    _assert_frontier_matches_the_recurrence(frontier)


@pytest.mark.parametrize("two_j", [500, 1001])
def test_large_spin_series_match_the_closed_form(fresh_frontiers, two_j):
    ks = sorted({0, 1, 2, 3, two_j // 3, two_j // 2, two_j - 2, two_j - 1, two_j})
    want = series_floats_streamed(two_j, ks)
    for k in ks:
        assert _hex(expcoeffs._series_float(two_j, k)) == _hex(want[k]), k


def _interleaved(top):
    # even and odd spins alternating, each parity's frontier pulled up in steps
    evens, odds = list(range(0, top + 1, 2)), list(range(top - top % 2 - 1, 0, -2))
    out = []
    for pair in itertools.zip_longest(evens, odds):
        out += [tj for tj in pair if tj is not None]
    return out


@pytest.mark.parametrize("order", ["ascending", "descending", "interleaved"])
def test_frontier_series_are_the_per_coefficient_recurrence(fresh_frontiers, order):
    spins = {
        "ascending": list(range(201)),
        "descending": list(range(200, -1, -1)),
        "interleaved": _interleaved(200),
    }[order]
    assert sorted(spins) == list(range(201))
    for two_j in spins:
        for k in range(two_j + 1):
            want = [value for _, _, value in series_by_coef(two_j, k)]
            assert _hex(expcoeffs._series_float(two_j, k)) == _hex(want), (two_j, k)


def test_reconstruction_weights_are_unchanged():
    for two_j in range(151):
        assert expcoeffs._recon_weights(two_j) == recon_weights_by_coef(two_j), two_j


def test_series_floats_are_built_once_and_shared_across_spins(fresh_frontiers):
    # exp-cold's spins: every coefficient is divided once and one float
    # object serves every spin whose series reaches it
    spins = range(4, 104)
    for two_j in spins:
        exp_grid(HalfInt(two_j), [0.5])
    distinct, kept = set(), set()
    for two_j in spins:
        for k in range(two_j + 1):
            col = k + (two_j - k) % 2
            for r in range((two_j - k) // 2 + 1):
                distinct.add((k, col, r))
                if col or not r:  # the t(2r, 0) = 0 tail is dropped
                    kept.add((k, col, r))
    assert sum(f.divided for f in fresh_frontiers) == len(distinct) == 5460
    floats = {
        id(value) for two_j in spins for k in range(two_j + 1)
        for value in expcoeffs._series_float(two_j, k)
    }
    assert len(floats) == len(kept)
    # asking again, in any order, divides nothing more
    for two_j in reversed(spins):
        exp_grid(HalfInt(two_j), [0.5])
    assert sum(f.divided for f in fresh_frontiers) == 5460


def test_threads_asking_for_different_spins_get_the_single_thread_floats(
    monkeypatch, fresh_frontiers
):
    spins = list(range(150))
    random.Random(7).shuffle(spins)

    def series_of(two_j):
        return [_hex(expcoeffs._series_float(two_j, k)) for k in range(two_j + 1)]

    want = {two_j: series_of(two_j) for two_j in spins}
    divided = sum(f.divided for f in fresh_frontiers)

    frontiers = (expcoeffs._Frontier(0), expcoeffs._Frontier(1))
    monkeypatch.setattr(expcoeffs, "_FRONTIERS", frontiers)
    got, errors = {}, []
    start = threading.Barrier(8)

    def work(mine):
        try:
            start.wait(timeout=30)
            for two_j in mine:
                got[two_j] = series_of(two_j)
        except Exception as exc:  # reported below, with the thread's spins
            errors.append((mine, exc))

    threads = [threading.Thread(target=work, args=(spins[i::8],)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert got == want
    # no row was swept twice, and each frontier stopped at its top spin
    assert sum(f.divided for f in frontiers) == divided
    assert [f.top for f in frontiers] == [148, 149]


def test_a_cold_large_spin_peaks_small(tmp_path):
    # the child's own high-water mark: ru_maxrss of a child inherits the
    # parent's, /proc/self/status read in the child does not
    status = Path("/proc/self/status")
    if not status.exists():
        pytest.skip("needs /proc/self/status")
    code = (
        "from spinpoly.expcoeffs import exp_grid\n"
        "from spinpoly.halfint import HalfInt\n"
        "exp_grid(HalfInt(1000), [1.0])\n"
        "print([l for l in open('/proc/self/status') if l.startswith('VmHWM:')][0].split()[1])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 60 * 1024  # kB: below 60 MiB


def test_spin_one_coefficients():
    j = HalfInt(2)
    for theta in THETAS:
        s, c = math.sin(theta / 2), math.cos(theta / 2)
        assert a_coeff_trunc(j, 0, theta) == pytest.approx(1.0, abs=1e-15)
        assert a_coeff_trunc(j, 1, theta) == pytest.approx(s * c, abs=1e-15)
        assert a_coeff_trunc(j, 2, theta) == pytest.approx(s * s, abs=1e-15)


def test_spin_three_half_k1_series():
    # A_1 = sin(theta/2) + sin^3(theta/2)/6 for spin 3/2
    j = HalfInt(3)
    for theta in (0.3, 1.1, 2.9):
        s = math.sin(theta / 2)
        got = a_coeff_cfn_series(j, 1, half_angles([theta], j.two_j))[0]
        assert got == pytest.approx(s + s**3 / 6, rel=1e-14)


def test_zero_angle_is_identity_column():
    for j in half_integers(9):
        table = exp_grid(j, [0.0])[0]
        assert table[0] == 1.0
        assert all(a == 0.0 for a in table[1:])


def test_cfn_series_matches_trunc():
    for j in half_integers(12):
        for k in range(j.two_j + 1):
            if epsilon(j, k):
                continue
            series = a_coeff_cfn_series(j, k, half_angles(THETAS, j.two_j))
            for theta, b in zip(THETAS, series):
                a = a_coeff_trunc(j, k, theta)
                assert a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b)), (j, k, theta)


def test_derivative_path_matches_trunc():
    for j in half_integers(12):
        for k in range(1, j.two_j + 1):
            if epsilon(j, k):
                continue
            derived = a_coeff_derivative_path(j, k, half_angles(THETAS, j.two_j))
            for theta, b in zip(THETAS, derived):
                a = a_coeff_trunc(j, k - 1, theta)
                assert a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b)), (j, k, theta)


def test_paths_are_the_fsum_of_their_per_angle_terms():
    # at the spin's top and above it, the half angles give the fsum of
    # coef * s**m, and of (coef * m / k) * s**(m-1) * c, bit for bit
    thetas = THETAS + [0.0, -0.0, 1e-300]
    for j in half_integers(20):
        grids = [half_angles(thetas, j.two_j), half_angles(thetas, j.two_j + 5)]
        for k in range(j.two_j % 2, j.two_j + 1, 2):
            terms = expcoeffs._cfn_sum_terms(j.two_j, k)
            want = [math.fsum(c * math.sin(t / 2) ** m for m, c in terms).hex() for t in thetas]
            for halves in grids:
                assert [x.hex() for x in a_coeff_cfn_series(j, k, halves)] == want
            if not k:
                continue
            want = [
                math.fsum(
                    c * m / k * math.sin(t / 2) ** (m - 1) * math.cos(t / 2) for m, c in terms
                ).hex()
                for t in thetas
            ]
            for halves in grids:
                assert [x.hex() for x in a_coeff_derivative_path(j, k, halves)] == want


def test_derivative_path_parity_errors():
    with pytest.raises(ValueError):
        a_coeff_derivative_path(HalfInt(2), 1, half_angles([0.1], 4))
    with pytest.raises(ValueError):
        a_coeff_cfn_series(HalfInt(2), 1, half_angles([0.1], 4))


def test_float_reconstruction_small_spins():
    thetas = [(-4.0 + 8.0 * i / 49) * math.pi for i in range(50)]
    for j in half_integers(10):
        for theta in thetas:
            table = exp_grid(j, [theta])[0]
            for m2 in spectrum(j):
                got = sum(
                    a * (1j * m2) ** k / math.factorial(k) for k, a in enumerate(table)
                )
                assert abs(got - cmath.exp(1j * theta * m2 / 2)) < 1e-9, (j, theta, m2)


def test_exact_reconstruction_spot_checks():
    for two_j, theta in [(25, math.pi), (24, 3 * math.pi), (13, -2.0), (0, 5.0)]:
        rep = exp_reconstruction(HalfInt(two_j), theta)
        assert rep.exact
        assert rep.max_error < 1e-12


@pytest.mark.parametrize(
    "two_js, thetas",
    [(range(61), verify._RECON_THETAS), ([148], verify._RECON_THETAS[2:4])],
)
def test_reconstruction_numerators_by_horner_match_the_termwise_sum(two_js, thetas):
    # the Horner form in d**2 against each term as its own product of powers
    for theta in thetas:
        a, b = expcoeffs.quarter_tan(theta)
        s, c, d = 2 * a * b, b * b - a * a, a * a + b * b
        for two_j in two_js:
            want = recon_numerators_termwise(two_j, s, c, d)
            assert expcoeffs._recon_numerators(two_j, s, c, d) == want, (two_j, theta)


def test_reconstruction_at_a_given_point_is_the_same_report():
    for two_j in (0, 7, 20):
        for theta in verify._RECON_THETAS:
            j = HalfInt(two_j)
            point = expcoeffs.quarter_tan(theta)
            assert exp_reconstruction(j, theta, point) == exp_reconstruction(j, theta)


def test_two_pi_rotation_signs():
    # +identity for integer spin, -identity for semi-integer spin
    table_int = exp_grid(HalfInt(10), [2 * math.pi])[0]
    assert table_int[0] == pytest.approx(1.0, abs=1e-12)
    table_half = exp_grid(HalfInt(5), [2 * math.pi])[0]
    assert table_half[0] == pytest.approx(-1.0, abs=1e-12)
    for two_j in (5, 10):
        rep = exp_reconstruction(HalfInt(two_j), 2 * math.pi)
        assert rep.max_error < 1e-12


def test_table_is_the_single_coefficient_path_bit_for_bit():
    # exp_grid takes sin and cos once per angle; every entry must still be
    # exactly what a_coeff_trunc returns, so grid CSVs do not depend on --k
    for two_j in (0, 1, 6, 9, 40, 137):
        j = HalfInt(two_j)
        for theta in THETAS[::7] + [0.0, 2 * math.pi, 11.0]:
            want = tuple(a_coeff_trunc(j, k, theta) for k in range(two_j + 1))
            assert exp_grid(j, [theta])[0] == want, (two_j, theta)


def test_periodicity_4pi():
    for j in half_integers(9):
        for theta in (0.4, 2.0, -1.3):
            before = exp_grid(j, [theta])[0]
            after = exp_grid(j, [theta + 4 * math.pi])[0]
            assert all(abs(a - b) < 1e-9 for a, b in zip(before, after))


def test_matches_basis_projection():
    # projecting e^{i theta m} onto powers of S gives f_k = i^k A_k / k!
    for two_j in (3, 6, 9):
        j = HalfInt(two_j)
        for theta in (0.8, 2.4):
            fvals = [cmath.exp(1j * theta * m2 / 2) for m2 in spectrum(j)]
            projected = project_coefficients(j, fvals)
            table = exp_grid(j, [theta])[0]
            for k, (fk, ak) in enumerate(zip(projected, table)):
                want = 1j**k * ak / math.factorial(k)
                assert abs(fk - want) < 1e-10, (two_j, theta, k)


def test_matrix_coefficients_euler_rodrigues():
    theta = 1.37
    table = exp_grid(HalfInt(2), [theta])[0]
    # coefficients of (n.J)**k: (1/k!) A_k (2i)**k
    c0, c1, c2 = (a * (2j) ** k / math.factorial(k) for k, a in enumerate(table))
    assert abs(c0 - 1.0) < 1e-15
    assert abs(c1 - 1j * math.sin(theta)) < 1e-15
    assert abs(c2 - (math.cos(theta) - 1.0)) < 1e-15


def test_circle_point_is_on_circle():
    for theta in (0.0, 0.5, math.pi, 2 * math.pi, -9.4):
        s, c = circle_point(theta)
        assert s * s + c * c == 1
        assert abs(float(s) - math.sin(theta / 2)) < 1e-12
        assert abs(float(c) - math.cos(theta / 2)) < 1e-12


def test_large_spin_tables_evaluate():
    # the two large spins used for the coefficient figures
    for two_j in (138, 137):
        j = HalfInt(two_j)
        for k in range(6):
            val = a_coeff_trunc(j, k, 2.2)
            assert math.isfinite(val)


def _per_point(two_j, k, theta):
    """A_k(theta) by the per-point route exp_grid replaced: Horner through poly_eval."""
    s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
    val = poly_eval(expcoeffs._series_float(two_j, k), s * s) * s**k
    return val * c if (two_j - k) % 2 else val


# zeros of both signs, negative angles, multiples of 4pi and far multiples
GRID_THETAS = [0.0, -0.0, 1e-300, -1e-300, -0.3, -math.pi, -7.5, 1.1, 2 * math.pi,
               4 * math.pi, -4 * math.pi, 8 * math.pi, 100 * math.pi, 11.0]


def test_exp_grid_is_the_per_point_series_bit_for_bit():
    # repr tells -0.0 from 0.0, which == would not
    for two_j in [*range(41), 137, 138, 200]:
        j = HalfInt(two_j)
        grid = exp_grid(j, GRID_THETAS)
        assert len(grid) == len(GRID_THETAS)
        for theta, row in zip(GRID_THETAS, grid):
            want = [repr(_per_point(two_j, k, theta)) for k in range(two_j + 1)]
            assert [repr(a) for a in row] == want, (two_j, theta)
    # the sign of a zero angle survives into the odd powers of s
    assert repr(exp_grid(HalfInt(3), [-0.0], [1])[0][0]) == "-0.0"


def test_exp_grid_takes_a_k_subset_in_its_order():
    j = HalfInt(21)
    full = exp_grid(j, GRID_THETAS)
    ks = [7, 0, 21, 3, 7]
    assert exp_grid(j, GRID_THETAS, ks) == [tuple(row[k] for k in ks) for row in full]
    assert exp_grid(j, GRID_THETAS, []) == [()] * len(GRID_THETAS)
    assert exp_grid(j, [], ks) == []
    for theta, row in zip(GRID_THETAS, full):
        assert [repr(a_coeff_trunc(j, k, theta)) for k in ks] == [repr(row[k]) for k in ks]


def _grid_hex(rows):
    return [_hex(row) for row in rows]


@pytest.mark.parametrize("size", [*range(10), 25, 32])
def test_four_lane_grid_is_the_one_point_loop_bit_for_bit(size):
    # every lane count and every leftover: full quads, then 0..3 points alone
    thetas = [(-2.0 + 4.0 * i / max(size - 1, 1)) * math.pi + 0.1 * (i % 3) for i in range(size)]
    if size:
        thetas[size // 2] = -0.0
    for two_j in [0, 1, 2, 3, 7, 8, 40, 41, 103]:
        j = HalfInt(two_j)
        assert _grid_hex(exp_grid(j, thetas)) == _grid_hex(exp_grid_scalar(j, thetas)), two_j
        assert _grid_hex(exp_grid(j, iter(thetas))) == _grid_hex(exp_grid_scalar(j, thetas))


def test_four_lane_grid_with_a_nan_angle_and_k_subsets():
    nan = float("nan")
    for thetas in ([nan], [0.3, nan, -1.2, 2.0], [0.3, 1.0, -1.2, nan, 5.0], [nan] * 9):
        for two_j in (5, 6, 41):
            j = HalfInt(two_j)
            for ks in (None, [], [0], [two_j], [3, 0, two_j, 3], list(range(two_j, -1, -2))):
                got = exp_grid(j, thetas, ks)
                assert _grid_hex(got) == _grid_hex(exp_grid_scalar(j, thetas, ks)), (thetas, ks)
    # a nan angle spoils its own lane only
    row = exp_grid(HalfInt(4), [0.3, nan, -1.2, 2.0])
    assert all(math.isnan(a) for a in row[1])
    assert not any(math.isnan(a) for a in row[0] + row[2] + row[3])


def test_exp_grid_rounds_once_where_s_to_the_k_is_subnormal():
    # at 2j = 1000, s = 0.455, k = 940, s**k is 3.4e-322 while A_k is a normal 7.94e-308,
    # which a product through the rounded s**k misses by 0.44%; at s = 0.45, s**k underflows
    # to 0 at k = 934 and 940, while A_k is a nonzero subnormal (2.59e-310 at k = 934).
    # Five points, alternating: the four lanes and the padded last group each meet both.
    # A child process, so the exact rows of 2j = 1000 are not cached here.
    code = (
        "import math\n"
        "from fractions import Fraction\n"
        "from spinpoly import expcoeffs\n"
        "from spinpoly.halfint import HalfInt\n"
        "thetas = [2 * math.asin(s) for s in (0.455, 0.45, 0.455, 0.45, 0.455)]\n"
        "ks = (940, 934)\n"
        "for theta, row in zip(thetas, expcoeffs.exp_grid(HalfInt(1000), thetas, ks)):\n"
        "    s, c = (Fraction(f(theta / 2)) for f in (math.sin, math.cos))\n"
        "    for k, got in zip(ks, row):\n"
        "        acc = 0\n"
        "        for co in reversed(expcoeffs._series(1000, k)):\n"
        "            acc = acc * s * s + co\n"
        "        want = acc * s**k * (c if k % 2 else 1)\n"
        "        print(float(s), k, got.hex(), float(want).hex())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.split("\n")[:-1]
    assert len(lines) == 10
    subnormal = 0
    for line in lines:
        s, k, got, want = line.split()
        got, want = float.fromhex(got), float.fromhex(want)
        if want >= 2.0**-1022:
            assert abs(got - want) <= 1e-12 * want, line
        else:
            # the product rounds once; the float Horner sum may still be an ulp off
            assert 0 < got and abs(got - want) <= math.ulp(want), line
            subnormal += 1
    assert subnormal == 4  # both ks at s = 0.45, where s**k underflows to 0


@pytest.mark.parametrize(
    "acc, s, k",
    [(3e10, 0.5, 1030), (3.0, 0.7, 2000), (3.0, -0.7, 2001), (1e17, 0.84, 4300),
     (1e5, 0.6, 1400), (1.7, 0.3, 700), (-1.0, -2.4e-16, 21), (-1.0, -2.4e-16, 22),
     (1.0, -2.4e-16, 103), (2.0, 0.0, 1500), (2.0, 0.9, 10)],
)
def test_times_power_is_the_product_rounded_once(acc, s, k):
    # subnormal, or rounding to a signed 0; where s**k is normal, or s is 0,
    # the product is the plain acc * s**k
    got = expcoeffs._times_power(acc, s, k)
    want = float(Fraction(acc) * Fraction(s) ** k)  # a 0 keeps the exact sign
    assert got.hex() == want.hex()
    if not abs(s**k) < 2.0**-1022 or not s:
        assert got.hex() == (acc * s**k).hex()


@pytest.mark.parametrize("two_j, k", [(0, 1), (4, 5), (4, -1), (7, 8), (7, -3)])
def test_k_outside_the_spin_is_refused(two_j, k):
    j = HalfInt(two_j)
    with pytest.raises(ValueError, match=f"k must lie in 0..{two_j}, got {k}"):
        a_coeff_trunc(j, k, 0.5)
    with pytest.raises(ValueError, match=f"k must lie in 0..{two_j}, got {k}"):
        exp_grid(j, [], [0, k])
