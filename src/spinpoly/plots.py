"""Long-format figure data (x, series, value), ready for external plotting.

Three figure families are built in: the exponential coefficients A_0..A_5
at two very large spins, the leading Cayley ratios B_k/alpha^k at a few
integer spins against the large-j limit curve, and the inverse
determinant for the six smallest spins.  Rows come out in grid order, so
output is deterministic.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

from . import cayley, expcoeffs
from .halfint import HalfInt

FIGURES = ("exp-A", "cayley-B12", "inv-det")

# spins and k values a figure draws when none are given (of the ks, those
# every drawn spin has: see default_ks); inv-det takes no k
DEFAULT_SPINS = {
    "exp-A": (HalfInt(138), HalfInt(137)),
    "cayley-B12": (HalfInt(2), HalfInt(4), HalfInt(16)),
    "inv-det": tuple(HalfInt(n) for n in range(1, 7)),
}
DEFAULT_KS = {"exp-A": tuple(range(6)), "cayley-B12": (1,), "inv-det": ()}


class _GridFields(NamedTuple):
    start: float
    stop: float
    count: int


class GridSpec(_GridFields):
    __slots__ = ()

    def __new__(cls, start: float, stop: float, count: int) -> "GridSpec":
        if count < 1:
            raise ValueError("grid count must be at least 1")
        if stop < start:
            raise ValueError("grid stop must not precede start")
        return super().__new__(cls, start, stop, count)

    @classmethod
    def _make(cls, iterable) -> "GridSpec":
        # NamedTuple's _replace builds through _make: check the fields here too
        return cls(*iterable)

    def span_error(self) -> str | None:
        """Why the grid's points are not all finite, if they are not: a
        non-finite endpoint, or a span that overflows between two or more points."""
        span = f"{self.start!r}:{self.stop!r}"
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            return f"needs finite endpoints, got {span}"
        if self.count > 1 and not math.isfinite(self.stop - self.start):
            return f"span {span} overflows"
        return None

    def values(self) -> list[float]:
        """start + i * step for i = 0..count - 1, where a point rounded up to inf is stop.

        The true points lie in start..stop, so only rounding at the top of
        the float range, as in 0:1.7976931348623157e308:4, can make one inf.
        A one-point grid is [start]; a longer one raises ValueError where
        span_error gives a reason, as the CLI refuses it.
        """
        if self.count == 1:
            return [self.start]
        error = self.span_error()
        if error:
            raise ValueError(f"grid {error}")
        step = (self.stop - self.start) / (self.count - 1)
        points = (self.start + i * step for i in range(self.count))
        return [x if x != math.inf else self.stop for x in points]


# the grid a figure is drawn over when none is given: theta for exp-A, else alpha
DEFAULT_GRIDS = {
    "exp-A": GridSpec(0.0, 4 * math.pi, 800),
    "cayley-B12": GridSpec(0.05, 5.0, 200),
    "inv-det": GridSpec(0.0, 2.0, 400),
}


def alpha_power_error(ks: Sequence[int], alphas: Sequence[float]) -> str | None:
    """Why B_k/alpha^k cannot be drawn over these alphas, if it cannot.

    It can whenever every k is 0, and otherwise when alpha^k is a nonzero
    finite float for every drawn k and alpha.
    """
    if not any(ks):
        return None
    if 0.0 in alphas:
        return "B_k/alpha^k needs alpha != 0, but the alpha grid contains 0"
    for k, alpha in itertools.product(ks, alphas):
        try:
            in_range = 0.0 < abs(alpha**k) < math.inf
        except OverflowError:
            in_range = False
        if not in_range:
            return f"alpha^k leaves the float range at alpha = {alpha!r}, k = {k}"
    return None


def grid_axis_error(
    figure: str, theta_grid: GridSpec | None, alpha_grid: GridSpec | None
) -> str | None:
    """Why the figure cannot take these grids, if it cannot.

    exp-A is drawn over theta, the other figures over alpha; a grid given
    for the other axis is refused rather than read as the figure's own.
    """
    if figure == "exp-A":
        axis, other, wrong = "theta", "alpha", alpha_grid
    else:
        axis, other, wrong = "alpha", "theta", theta_grid
    if wrong is not None:
        return f"--figure {figure} takes --{axis}-grid, not --{other}-grid"
    return None


def default_ks(figure: str, js: Sequence[HalfInt] | None) -> tuple[int, ...]:
    """The figure's default ks that lie in 0..2j for every drawn spin."""
    top = min(j.two_j for j in js or DEFAULT_SPINS[figure])
    return tuple(k for k in DEFAULT_KS[figure] if k <= top)


def figure_error(
    figure: str,
    js: Sequence[HalfInt] | None,
    ks: Sequence[int] | None,
    theta_grid: GridSpec | None,
    alpha_grid: GridSpec | None,
) -> str | None:
    """Why the figure cannot be drawn from these arguments, if it cannot.

    js of None or empty, ks of None and a missing grid take the figure's
    defaults.  A grid must be for the figure's own axis, inv-det draws no
    k, each given k must lie in 0..2j of every drawn spin, a figure that draws ks
    must keep at least one default k when none is given, and for
    cayley-B12 alpha^k must be a nonzero finite float over the alpha grid.
    """
    error = grid_axis_error(figure, theta_grid, alpha_grid)
    if error:
        return error
    if figure == "inv-det" and ks:
        return "--figure inv-det draws no k; drop --k"
    if ks is None:
        ks = default_ks(figure, js)
        if DEFAULT_KS[figure] and not ks:
            spins = ", ".join(map(str, js))
            return f"--figure {figure} draws no default k in 0..2j for j = {spins}; pass --k"
    for j, k in itertools.product(js or DEFAULT_SPINS[figure], ks):
        if not 0 <= k <= j.two_j:
            return f"--k {k} is outside 0..2j = 0..{j.two_j} for j = {j}"
    if figure == "cayley-B12":
        return alpha_power_error(ks, (alpha_grid or DEFAULT_GRIDS[figure]).values())
    return None


def figure_rows(
    figure: str,
    js: Sequence[HalfInt] | None = None,
    ks: Sequence[int] | None = None,
    *,
    theta_grid: GridSpec | None = None,
    alpha_grid: GridSpec | None = None,
) -> tuple[tuple[str, str, str], list[tuple[float, str, float]]]:
    """Rows for one named figure, over theta_grid for exp-A, else alpha_grid.

    Raises ValueError on an unknown name and on the arguments figure_error
    refuses.
    """
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}; known: {', '.join(FIGURES)}")
    error = figure_error(figure, js, ks, theta_grid, alpha_grid)
    if error:
        raise ValueError(error)
    ks = default_ks(figure, js) if ks is None else ks
    js = js or DEFAULT_SPINS[figure]
    own_grid = theta_grid if figure == "exp-A" else alpha_grid
    xs = (own_grid or DEFAULT_GRIDS[figure]).values()
    header = ("theta" if figure == "exp-A" else "alpha", "series", "value")
    rows = []
    if figure == "exp-A":
        for j in js:
            values = expcoeffs.exp_grid(j, xs, ks)
            for i, k in enumerate(ks):
                label = f"j={j} k={k}"
                rows += [(th, label, row[i]) for th, row in zip(xs, values)]
        return header, rows
    if figure == "cayley-B12":
        for j in js:
            bs = [cayley.eval_coeffs(j, a, ks)[0] for a in xs]
            for i, k in enumerate(ks):
                rows += [(a, f"j={j} k={k}", b[i] / a**k) for a, b in zip(xs, bs)]
        parities = {j.is_integer for j in js}
        for k in ks:
            for parity in sorted(parities):
                label = "limit" if len(parities) == 1 else (
                    "limit (integer j)" if parity else "limit (semi-integer j)"
                )
                rows += [
                    (a, f"{label} k={k}", cayley.b_limit_ratio(parity, k, a)) for a in xs
                ]
        return header, rows
    for j in js:
        # rounded once from integers, so right where det(a) is past the float range
        rows += [(a, f"j={j}", cayley.inv_det(j, a)) for a in xs]
    return header, rows
