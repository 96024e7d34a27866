"""Cross-module invariant suite, reported machine-readably.

Each check is a generator over the spins up to a caller-chosen 2j.  Per
batch (one spin, one (j, k) or one column) it runs each oracle path once
over the batch's grid and yields the batch's cases: whether each fails,
each one's float error if the check has a float bound, and a callable
that maps a failing index to its detail (operation, j, k, alpha/theta).
One driver, _run_check, judges every check alike.  It counts the cases
up to the first failure, keeps the worst counted error (nan once any is
nan) and stops there, so the count, the worst error and the first
failure are those of one case at a time.  Each entry gives pass/fail,
the detail, the cases compared and the seconds taken, and for a check
with a float bound the worst error next to that bound.  The CLI
serializes the result as JSON.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from . import bridge, cayley, expcoeffs
from .basis import spectrum, verify_fundamental_identity
from .halfint import HalfInt, half_integers

_THETAS = [(-2.0 + 4.0 * i / 24) * math.pi for i in range(25)]
_RECON_THETAS = [-3.5 * math.pi, -math.pi, 0.4, 1.7, math.pi, 2 * math.pi, 3 * math.pi, 11.0]
_ALPHAS = [Fraction(n, 7) for n in range(-10, 11, 3) if n] + [Fraction(1, 2), Fraction(3)]
# the exact resolvent's real parameter: its numerator 3 keeps it off every +-1/M
BETA = Fraction(3, 7)

EXP_PATH_BOUND = 1e-12       # relative, truncated series against the other paths
EXP_RECON_BOUND = 1e-9       # absolute, per eigenvalue against exp
CAYLEY_RECON_BOUND = 1e-10   # absolute, per eigenvalue against the Cayley form
DET_BOUND = 1e-10            # relative, polynomial against gamma form

# one batch of cases: whether each fails, each one's float error (empty for
# an exact check), and the failing index's detail
_Batch = tuple[Sequence[bool], Sequence[float], Callable[[int], str]]


def _check_fundamental_identity(max_two_j: int) -> Iterator[_Batch]:
    for j in half_integers(max_two_j):
        rep = verify_fundamental_identity(j)
        yield [not rep.passed], (), lambda bad: (
            f"op=verify_fundamental_identity j={j} eigenvalue={rep.failing_eigenvalue}"
        )


def _check_exp_paths(max_two_j: int) -> Iterator[_Batch]:
    for j in half_integers(max_two_j):
        halves = expcoeffs.half_angles(_THETAS, j.two_j)  # once per spin, for every k
        for k, trunc in enumerate(zip(*expcoeffs.exp_grid(j, _THETAS))):
            if expcoeffs.epsilon(j, k) == 0:
                op, other = "a_coeff_cfn_series", expcoeffs.a_coeff_cfn_series(j, k, halves)
            else:
                op = "a_coeff_derivative_path"
                other = expcoeffs.a_coeff_derivative_path(j, k + 1, halves)
            # |a - b| / max(|a|, |b|), 0 where a == b; nan, and so failing, where one is inf
            errs = [
                0.0 if a == b else abs(a - b) / max(abs(a), abs(b)) for a, b in zip(trunc, other)
            ]
            yield [not err <= EXP_PATH_BOUND for err in errs], errs, lambda bad: (
                f"op={op} j={j} k={k} theta={_THETAS[bad]} trunc={trunc[bad]} other={other[bad]}"
            )


def _reconstruction_batch(op: str, j: HalfInt, reps, bound: float, at: str) -> _Batch:
    # each rep's exactness and its worst error per eigenvalue, at its theta or alpha
    return (
        [not (rep.exact and rep.max_error < bound) for rep in reps],
        [rep.max_error for rep in reps],
        lambda bad: (
            f"op={op} j={j} {at}={getattr(reps[bad], at)} "
            f"max_error={reps[bad].max_error} exact={reps[bad].exact}"
        ),
    )


def _check_exp_reconstruction(max_two_j: int) -> Iterator[_Batch]:
    for j in half_integers(max_two_j):
        reps = [expcoeffs.exp_reconstruction(j, theta) for theta in _RECON_THETAS]
        yield _reconstruction_batch("exp_reconstruction", j, reps, EXP_RECON_BOUND, "theta")


def _check_cayley_reconstruction(max_two_j: int) -> Iterator[_Batch]:
    for j in half_integers(max_two_j):
        reps = [cayley.cayley_reconstruction(j, alpha) for alpha in _ALPHAS[:8]]
        yield _reconstruction_batch("cayley_reconstruction", j, reps, CAYLEY_RECON_BOUND, "alpha")


def _resolvent_fails(j: HalfInt) -> list[bool]:
    """Whether each exact resolvent coefficient r_n of 2n.J at BETA misses the table.

    prod (1 - BETA M) over the spectrum is den at alpha**2 = -BETA**2, den
    with the sign of each power 2 mod 4 flipped, so r_n is B_n's integer
    pair from scaled_b's arithmetic on that den.  Equality at every n pins
    den up to a common factor, which determinant-forms and den(0) = 1 fix.
    """
    flipped = [-d if i % 4 == 2 else d for i, d in enumerate(cayley.b_coeffs(j).den)]
    nums, s_deg = cayley._scaled_truncations(flipped, j.two_j, *BETA.as_integer_ratio())
    res = cayley.resolvent_coeffs(spectrum(j), BETA)
    return [r.numerator * s_deg != num * r.denominator for r, num in zip(res, nums)]


def _check_cayley_paths(max_two_j: int) -> Iterator[_Batch]:
    for j in half_integers(max_two_j):
        yield _resolvent_fails(j), (), lambda k: f"op=resolvent_coeffs j={j} k={k} beta={BETA}"


def _check_laplace_bridge(max_two_j: int) -> Iterator[_Batch]:
    alphas = _ALPHAS[:6]
    ratios = [alpha.as_integer_ratio() for alpha in alphas]
    for j in half_integers(max_two_j):
        two_j = j.two_j
        # B_k(alpha) = nums[k]/den from the integer determinant, per alpha
        tables = [cayley.scaled_b(two_j, p, q) for p, q in ratios]
        # B_k reads column k + (2j - k) % 2, so each column serves two k
        columns = {col: bridge.laplace_column(two_j, col) for col in range(two_j % 2, two_j + 1, 2)}
        for k in range(two_j + 1):
            column = columns[k + (two_j - k) % 2]
            vias = [bridge.scaled_laplace(two_j, k, column, p, q) for p, q in ratios]
            directs = [(nums[k], den) for nums, den in tables]
            yield (
                [num * den != d_num * v_den for (num, v_den), (d_num, den) in zip(vias, directs)],
                (),
                lambda bad: (
                    f"op=b_from_a_laplace j={j} k={k} alpha={alphas[bad]} "
                    f"laplace={Fraction(*vias[bad])} direct={Fraction(*directs[bad])}"
                ),
            )


def _check_pairing_parity(max_two_j: int) -> Iterator[_Batch]:
    # B_k(-alpha) = (-1)^k B_k(alpha): den is even and B_k's numerator has k's parity
    for j in half_integers(max_two_j):
        table = cayley.b_coeffs(j)
        nums = list(map(table.b_num, range(j.two_j + 1)))
        odd_den = any(table.den[1::2])
        yield (
            [odd_den or any(num[1 - k % 2 :: 2]) for k, num in enumerate(nums)],
            (),
            lambda k: f"op=parity j={j} k={k}",
        )
        if j.is_integer:
            yield [nums[0] != table.den], (), lambda bad: f"op=B0 j={j}"
            pairs = [(2 * k + 2, 2 * k + 1) for k in range(j.two_j // 2)]
        else:
            pairs = [(2 * k + 1, 2 * k) for k in range((j.two_j + 1) // 2)]
        yield (
            [nums[hi] != (0,) + nums[lo] for hi, lo in pairs],
            (),
            lambda bad: "op=pairing j={} B_{} != alpha*B_{}".format(j, *pairs[bad]),
        )


def _check_det_forms(max_two_j: int) -> Iterator[_Batch]:
    # as logs, since det(2) passes the float range near 2j = 150
    alphas = (-2.0, -0.5, 0.5, 1.0, 2.0)
    for j in half_integers(max_two_j):
        det, cfn_det = cayley.det_forms(j)
        yield [det != cfn_det], (), lambda bad: f"op=det_cfn_poly j={j}"
        deg = len(det) - 1
        logs = []
        for alpha in alphas:
            p, q = alpha.as_integer_ratio()
            scaled = cayley.scaled_b(j.two_j, p, q, ())[1]  # q**deg det(p/q)
            logs.append((math.log(scaled) - deg * math.log(q), cayley.log_det_gamma(j, alpha)))
        errs = [-math.expm1(-abs(lp - lg)) for lp, lg in logs]  # |a - b| / max(a, b)
        yield [not err <= DET_BOUND for err in errs], errs, lambda bad: (
            f"op=det_gamma j={j} alpha={alphas[bad]} "
            f"log_poly={logs[bad][0]} log_gamma={logs[bad][1]}"
        )


# name -> (check, float bound or None, note after "2j <= N" in a passing detail)
_CHECKS = {
    "fundamental-identity": (_check_fundamental_identity, None, ", exact"),
    "exp-path-equality": (_check_exp_paths, EXP_PATH_BOUND, ", rel 1e-12"),
    "exp-reconstruction": (_check_exp_reconstruction, EXP_RECON_BOUND, ", < 1e-9"),
    "cayley-reconstruction": (_check_cayley_reconstruction, CAYLEY_RECON_BOUND, ", < 1e-10"),
    "cayley-path-equality": (_check_cayley_paths, None, ", exact"),
    "laplace-bridge": (_check_laplace_bridge, None, ", exact"),
    "pairing-parity": (_check_pairing_parity, None, ", exact"),
    "determinant-forms": (_check_det_forms, DET_BOUND, ""),
}


def _run_check(name: str, max_two_j: int) -> dict:
    check, bound, note = _CHECKS[name]
    cases, worst, failure = 0, 0.0, None
    start = time.perf_counter()
    for fails, errs, detail in check(max_two_j):
        bad = next((i for i, fail in enumerate(fails) if fail), None)
        n = len(fails) if bad is None else bad + 1
        cases += n
        if errs:
            # max would skip a nan that is not first: a nan error is the worst of all
            counted = [worst, *errs[:n]]
            worst = math.nan if any(map(math.isnan, counted)) else max(counted)
        if bad is not None:
            # detail reads the check's loop variables: call it before the
            # generator resumes, while they still hold this batch
            failure = detail(bad)
            break
    entry = {
        "name": name,
        "passed": failure is None,
        "detail": failure or f"2j <= {max_two_j}{note}",
        "cases": cases,
        "seconds": round(time.perf_counter() - start, 6),
    }
    if bound is not None:
        entry["worst"] = worst
        entry["bound"] = bound
    return entry


def _report(max_two_j: int, names: Iterable[str]) -> dict:
    checks = [_run_check(name, max_two_j) for name in names]
    return {
        "max_two_j": max_two_j,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def run_verify(max_two_j: int) -> dict:
    """Run the whole invariant suite up to the given 2j."""
    return _report(max_two_j, _CHECKS)


def run_verify_fi(max_two_j: int) -> dict:
    """Fundamental-identity suite only."""
    return _report(max_two_j, ["fundamental-identity"])
