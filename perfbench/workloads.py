"""Seeded op lists for each workload.

An op is one ``spinpoly.cli.main(argv)`` call.  Every workload has a fixed
composition: the seed permutes the order and draws the float parameters,
but the multiset of spins (and so the exact tables built) is the same for
every seed.  That keeps the run-to-run spread of the end-to-end metrics
small while the inputs still differ between seeds.
"""

from __future__ import annotations

import math
import random
from pathlib import Path
from typing import NamedTuple

# 2j values; half-open ranges as in the workload definitions.
CAYLEY_SPINS = range(8, 56)
CAYLEY_REPEATS = 2        # every spin twice: one cold op, one warm op
CAYLEY_ALPHA_LOG10 = (-3.0, 3.0)
CAYLEY_GRID_RATIO = 10.0 ** 0.5   # hi = lo * ratio, so lo <= 10**2.5
EXP_SPINS = range(4, 104)
EXP_THETA_GRID = "0:4pi:32"
BASIS_SPINS = range(2, 28)
BRIDGE_SPINS = range(1, 31)
BRIDGE_REPEATS = 2
BRIDGE_ALPHA_LOG10 = (-1.0, 1.0)
VERIFY_MAX_TWO_J = list(range(2, 10)) + list(range(4, 10))


class Op(NamedTuple):
    kind: str          # "cayley", "exp", "basis", "bridge" or "verify"
    argv: tuple        # arguments for spinpoly.cli.main
    two_j: int
    csv: str | None    # output file the op writes, if any


def spin_label(two_j: int) -> str:
    return str(two_j // 2) if two_j % 2 == 0 else f"{two_j}/2"


def _csv(outdir: Path, index: int) -> str:
    return str(Path(outdir) / f"op{index:04d}.csv")


def _log_uniform(rng: random.Random, lo_log10: float, hi_log10: float) -> float:
    return 10.0 ** rng.uniform(lo_log10, hi_log10)


def cayley_grid(seed: int, outdir: Path) -> list[Op]:
    rng = random.Random(f"cayley-grid:{seed}")
    spins = [tj for tj in CAYLEY_SPINS for _ in range(CAYLEY_REPEATS)]
    rng.shuffle(spins)
    top = CAYLEY_ALPHA_LOG10[1] - math.log10(CAYLEY_GRID_RATIO)
    ops = []
    for i, tj in enumerate(spins):
        lo = _log_uniform(rng, CAYLEY_ALPHA_LOG10[0], top)
        hi = lo * CAYLEY_GRID_RATIO
        path = _csv(outdir, i)
        argv = ("coeffs", "cayley", "--j", spin_label(tj),
                "--alpha-grid", f"{lo!r}:{hi!r}:2", "--csv", path)
        ops.append(Op("cayley", argv, tj, path))
    return ops


def exp_cold(seed: int, outdir: Path) -> list[Op]:
    rng = random.Random(f"exp-cold:{seed}")
    spins = list(EXP_SPINS)
    rng.shuffle(spins)
    ops = []
    for i, tj in enumerate(spins):
        path = _csv(outdir, i)
        argv = ("coeffs", "exp", "--j", spin_label(tj),
                "--theta-grid", EXP_THETA_GRID, "--csv", path)
        ops.append(Op("exp", argv, tj, path))
    return ops


def oracles(seed: int, outdir: Path) -> list[Op]:
    rng = random.Random(f"oracles:{seed}")
    specs: list[tuple] = [("basis", tj, None) for tj in BASIS_SPINS]
    specs += [("bridge", tj, (2 * r + 1) * tj // (2 * BRIDGE_REPEATS))
              for tj in BRIDGE_SPINS for r in range(BRIDGE_REPEATS)]
    specs += [("verify", n, None) for n in VERIFY_MAX_TWO_J]
    rng.shuffle(specs)
    ops = []
    for i, (kind, tj, k) in enumerate(specs):
        if kind == "basis":
            path = _csv(outdir, i)
            argv = ("basis", "--j", spin_label(tj), "--inverse", "--csv", path)
            ops.append(Op(kind, argv, tj, path))
        elif kind == "bridge":
            alpha = _log_uniform(rng, *BRIDGE_ALPHA_LOG10)
            argv = ("bridge", "--j", spin_label(tj), "--k", str(k), "--alpha", repr(alpha))
            ops.append(Op(kind, argv, tj, None))
        else:
            ops.append(Op(kind, ("verify", "--max-two-j", str(tj)), tj, None))
    return ops


WORKLOADS = {
    "cayley-grid": cayley_grid,
    "exp-cold": exp_cold,
    "oracles": oracles,
}


def generate(workload: str, seed: int, outdir: Path) -> list[Op]:
    """The op list of one workload; the same (seed, outdir) gives the same list."""
    return WORKLOADS[workload](seed, outdir)
