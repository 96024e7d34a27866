"""Correctness checks on op outputs, run after the timed region.

Each check returns None when the output is right, else a one-line reason.
Float outputs are compared with references from ``refs``:

- relative bound REL_TOL, tight enough that one wrong table coefficient
  shows, loose enough for a stable float kernel (7e-15 observed);
- A_0 of the Cayley table, which crosses zero for half-integer spins,
  gets the absolute bound REL_TOL instead;
- a reference below the smallest normal float (underflow, e.g. high-k
  B_k at alpha near 1e-3 or A_k near theta = 4pi) matches any output
  whose magnitude is also below it, zero included.
"""

from __future__ import annotations

import csv
import json
import random
import sys
from fractions import Fraction

from . import refs
from .workloads import Op

REL_TOL = 1e-12
TINY = sys.float_info.min
ROWS_PER_OP = 12


def close(got: float, want: float, rel: float = REL_TOL) -> bool:
    if abs(want) < TINY:
        return abs(got) < TINY
    return abs(got - want) <= rel * abs(want)


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("empty CSV")
    return rows[0], rows[1:]


def _sample(n: int, rng: random.Random, count: int | None) -> list[int]:
    if count is None or count >= n:
        return list(range(n))
    return sorted(rng.sample(range(n), count))


def _grid_arg(op: Op, flag: str) -> list[str]:
    return op.argv[op.argv.index(flag) + 1].split(":")


def check_cayley(op: Op, rng: random.Random, count: int | None = ROWS_PER_OP) -> str | None:
    header, rows = _read_csv(op.csv)
    n = op.two_j + 1
    lo, hi, points = _grid_arg(op, "--alpha-grid")
    if header != ["alpha", "k", "B_k", "A_k"] or len(rows) != int(points) * n:
        return f"bad shape: header {header}, {len(rows)} rows"
    alphas = [float(rows[i * n][0]) for i in range(int(points))]
    if alphas[0] != float(lo) or not close(alphas[-1], float(hi)):
        return f"alpha grid {alphas} does not span {lo}:{hi}"
    for i in _sample(len(rows), rng, count):
        alpha, k, b, a = float(rows[i][0]), int(rows[i][1]), float(rows[i][2]), float(rows[i][3])
        if k != i % n or alpha != alphas[i // n]:
            return f"row {i}: unexpected (alpha, k) = ({alpha}, {k})"
        x = Fraction(alpha)
        want_b = float(refs.cayley_b(op.two_j, k, x))
        want_a = float(refs.cayley_a(op.two_j, k, x))
        a_ok = abs(a - want_a) <= REL_TOL if k == 0 else close(a, want_a)
        if not close(b, want_b) or not a_ok:
            return f"alpha={alpha!r} k={k}: got B={b!r} A={a!r}, want B={want_b!r} A={want_a!r}"
    return None


def check_exp(op: Op, rng: random.Random, count: int | None = ROWS_PER_OP) -> str | None:
    header, rows = _read_csv(op.csv)
    n = op.two_j + 1
    points = int(_grid_arg(op, "--theta-grid")[2])
    if header != ["theta", "k", "A_k"] or len(rows) != points * n:
        return f"bad shape: header {header}, {len(rows)} rows"
    for i in _sample(len(rows), rng, count):
        theta, k, a = float(rows[i][0]), int(rows[i][1]), float(rows[i][2])
        if k != i % n:
            return f"row {i}: unexpected k = {k}"
        want = refs.exp_a(op.two_j, k, theta)
        if not close(a, want):
            return f"theta={theta!r} k={k}: got {a!r}, want {want!r}"
    return None


def check_basis(op: Op, rng: random.Random, count: int | None = ROWS_PER_OP) -> str | None:
    """V @ V^-1 == I exactly on one full row of V plus sampled entries.

    The full row uses a nonzero eigenvalue, so every power in it is
    nonzero and a wrong entry anywhere in V^-1 changes one of its sums.
    """
    header, rows = _read_csv(op.csv)
    n = op.two_j + 1
    if len(header) != n or len(rows) != n or any(len(r) != n for r in rows):
        return f"bad shape: {len(header)} columns, {len(rows)} rows"
    inv = [[Fraction(x) for x in row] for row in rows]
    v = refs.vandermonde(op.two_j)
    full = rng.choice([i for i in range(n) if 2 * i != op.two_j])
    entries = [(full, col) for col in range(n)]
    entries += [(i // n, i % n) for i in _sample(n * n, rng, count)]
    for i, col in entries:
        got = sum(v[i][p] * inv[p][col] for p in range(n))
        if got != (i == col):
            return f"(V V^-1)[{i}][{col}] = {got}"
    return None


def check_verify(rc, stdout: str) -> str | None:
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not a JSON report"
    if rc != 0 or report.get("passed") is not True:
        return f"exit {rc}, passed={report.get('passed')!r}"
    return None


def check_op(op: Op, rc, stdout: str, rng: random.Random) -> str | None:
    """Reason the op failed, or None; rc is the op's exit code."""
    if op.kind == "verify":
        return check_verify(rc, stdout)
    if rc != 0:
        return f"exit code {rc!r}"
    if op.kind == "bridge":
        return None
    checker = {"cayley": check_cayley, "exp": check_exp, "basis": check_basis}[op.kind]
    try:
        return checker(op, rng)
    except (OSError, ValueError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"
