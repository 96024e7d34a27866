"""Long-format figure data (x, series, value), ready for external plotting.

Three figure families are built in: the exponential coefficients A_0..A_5
at two very large spins, the leading Cayley ratios B_k/alpha^k at a few
integer spins against the large-j limit curve, and the inverse
determinant for the six smallest spins.  Rows come out in grid order, so
output is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import cayley, expcoeffs
from .exact import poly_eval
from .halfint import HalfInt

FIGURES = ("exp-A", "cayley-B12", "inv-det")

# spins and k values a figure draws when none are given; inv-det takes no k
DEFAULT_SPINS = {
    "exp-A": (HalfInt(138), HalfInt(137)),
    "cayley-B12": (HalfInt(2), HalfInt(4), HalfInt(16)),
    "inv-det": tuple(HalfInt(n) for n in range(1, 7)),
}
DEFAULT_KS = {"exp-A": tuple(range(6)), "cayley-B12": (1,), "inv-det": ()}


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("grid count must be at least 1")
        if self.stop < self.start:
            raise ValueError("grid stop must not precede start")

    def values(self) -> list[float]:
        if self.count == 1:
            return [self.start]
        step = (self.stop - self.start) / (self.count - 1)
        return [self.start + i * step for i in range(self.count)]


def figure_rows(
    figure: str,
    js: Sequence[HalfInt] | None = None,
    ks: Sequence[int] | None = None,
    grid: GridSpec | None = None,
) -> tuple[tuple[str, str, str], list[tuple[float, str, float]]]:
    """Rows for one named figure; raises ValueError on an unknown name."""
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}; known: {', '.join(FIGURES)}")
    js = js or DEFAULT_SPINS[figure]
    ks = ks if ks is not None else DEFAULT_KS[figure]
    if figure == "exp-A":
        grid = grid or GridSpec(0.0, 4 * math.pi, 800)
        header = ("theta", "series", "value")
        rows = []
        for j in js:
            for k in ks:
                rows += [
                    (th, f"j={j} k={k}", expcoeffs.a_coeff_trunc(j, k, th))
                    for th in grid.values()
                ]
        return header, rows
    if figure == "cayley-B12":
        grid = grid or GridSpec(0.05, 5.0, 200)
        header = ("alpha", "series", "value")
        rows = []
        for j in js:
            bs = [cayley.eval_coeffs(j, a)[0] for a in grid.values()]
            for k in ks:
                rows += [(a, f"j={j} k={k}", b[k] / a**k) for a, b in zip(grid.values(), bs)]
        parities = {j.is_integer for j in js}
        for k in ks:
            for parity in sorted(parities):
                label = "limit" if len(parities) == 1 else (
                    "limit (integer j)" if parity else "limit (semi-integer j)"
                )
                rows += [
                    (a, f"{label} k={k}", cayley.b_limit_ratio(parity, k, a))
                    for a in grid.values()
                ]
        return header, rows
    grid = grid or GridSpec(0.0, 2.0, 400)
    header = ("alpha", "series", "value")
    rows = []
    for j in js:
        # the determinant holds zeros at odd powers; evaluate in alpha^2
        fdet = [float(c) for c in cayley.det_poly(j)[::2]]
        rows += [(a, f"j={j}", 1.0 / poly_eval(fdet, a * a)) for a in grid.values()]
    return header, rows


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
                    if expcoeffs.epsilon(j, k) == 0:
                        b = expcoeffs.a_coeff_cfn_series(j, k, theta)
                    else:
                        b = expcoeffs.a_coeff_derivative_path(j, k + 1, [theta])[0]
                    if a != b and abs(a - b) > 1e-12 * max(abs(a), abs(b)):
                        problems.append(f"exp-A j={j} k={k} theta={theta}: {a} vs {b}")
    elif figure == "cayley-B12":
        for j in DEFAULT_SPINS[figure]:
            for alpha in (0.1, 0.5, 1.0, 2.5, 5.0):
                direct = cayley.eval_coeffs(j, alpha)[0][1] / alpha
                gamma = cayley.b_exact_gamma(j.two_j // 2, 1, alpha)
                if abs(direct - gamma) > 1e-9 * max(1.0, abs(direct)):
                    problems.append(f"cayley-B12 j={j} alpha={alpha}: {direct} vs {gamma}")
    elif figure == "inv-det":
        for j in DEFAULT_SPINS[figure]:
            det = cayley.det_poly(j)
            for alpha in (0.25, 0.8, 1.5, 2.0):
                poly_val = math.fsum(float(c) * alpha**i for i, c in enumerate(det))
                gamma_val = cayley.det_gamma(j, alpha)
                if abs(poly_val - gamma_val) > 1e-10 * max(abs(poly_val), abs(gamma_val)):
                    problems.append(f"inv-det j={j} alpha={alpha}: {poly_val} vs {gamma_val}")
    else:
        raise ValueError(f"unknown figure {figure!r}; known: {', '.join(FIGURES)}")
    return problems
