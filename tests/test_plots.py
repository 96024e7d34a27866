import math

import pytest

from spinpoly import cli, plots
from spinpoly.halfint import HalfInt

GRID = plots.GridSpec(0.5, 1.0, 2)


def test_inv_det_refuses_ks():
    with pytest.raises(ValueError, match="inv-det draws no k"):
        plots.figure_rows("inv-det", ks=[3], alpha_grid=GRID)
    # an empty ks is no k at all
    rows = plots.figure_rows("inv-det", alpha_grid=GRID)
    assert plots.figure_rows("inv-det", ks=[], alpha_grid=GRID) == rows


@pytest.mark.parametrize(
    "figure, js, ks",
    [
        ("cayley-B12", None, [5]),  # above 2j = 4 of the default j = 2
        ("cayley-B12", [HalfInt(3)], [7]),
        ("cayley-B12", None, [-1]),
        ("exp-A", [HalfInt(2)], [5]),
        ("exp-A", None, [300]),
    ],
)
def test_k_outside_a_drawn_spin_is_refused(figure, js, ks):
    axis = "theta_grid" if figure == "exp-A" else "alpha_grid"
    with pytest.raises(ValueError, match="is outside 0..2j"):
        plots.figure_rows(figure, js=js, ks=ks, **{axis: GRID})


@pytest.mark.parametrize(
    "grid, ks, message",
    [
        (plots.GridSpec(0.0, 1.0, 3), None, "needs alpha != 0"),
        (plots.GridSpec(1e-200, 1e-199, 2), [2], "leaves the float range"),
        (plots.GridSpec(1e4, 1e5, 2), [80], "leaves the float range"),
    ],
)
def test_alpha_grid_outside_the_float_range_of_alpha_k_is_refused(grid, ks, message):
    js = [HalfInt(80)] if ks == [80] else None
    with pytest.raises(ValueError, match=message):
        plots.figure_rows("cayley-B12", js=js, ks=ks, alpha_grid=grid)


@pytest.mark.parametrize(
    "figure, grids",
    [
        ("exp-A", {"alpha_grid": GRID}),
        ("exp-A", {"theta_grid": GRID, "alpha_grid": GRID}),
        ("cayley-B12", {"theta_grid": GRID}),
        ("inv-det", {"theta_grid": GRID}),
        ("inv-det", {"theta_grid": GRID, "alpha_grid": GRID}),
    ],
)
def test_a_grid_for_the_other_axis_is_refused(figure, grids):
    # a GridSpec carries no axis: the keyword names it, and the wrong one is refused
    message = plots.grid_axis_error(figure, grids.get("theta_grid"), grids.get("alpha_grid"))
    assert message is not None
    with pytest.raises(ValueError, match=message):
        plots.figure_rows(figure, **grids)


def test_grids_are_keyword_only_and_drawn_on_their_axis():
    with pytest.raises(TypeError):
        plots.figure_rows("exp-A", None, None, GRID)
    for figure, axis in (("exp-A", "theta_grid"), ("cayley-B12", "alpha_grid"), ("inv-det", "alpha_grid")):
        grids = {axis: GRID}
        assert plots.grid_axis_error(figure, grids.get("theta_grid"), grids.get("alpha_grid")) is None
        header, rows = plots.figure_rows(figure, **grids)
        assert header[0] == axis.split("_")[0]
        assert sorted({row[0] for row in rows}) == GRID.values()


@pytest.mark.parametrize("js", [[HalfInt(2)], [HalfInt(9), HalfInt(2)], [HalfInt(3)]])
def test_default_ks_are_those_every_drawn_spin_has(js):
    # exp-A draws k = 0..5 by default; a spin with 2j < 5 keeps 0..2j
    top = min(5, *(j.two_j for j in js))
    assert plots.default_ks("exp-A", js) == tuple(range(top + 1))
    given = plots.figure_rows("exp-A", js, list(range(top + 1)), theta_grid=GRID)
    assert plots.figure_rows("exp-A", js, theta_grid=GRID) == given
    # a k given outright is still checked against every spin
    with pytest.raises(ValueError, match=f"--k {top + 1} is outside 0..2j = 0..{top}"):
        plots.figure_rows("exp-A", js, [top + 1], theta_grid=GRID)


def test_a_figure_left_without_a_default_k_is_refused():
    with pytest.raises(ValueError, match="draws no default k in 0..2j for j = 0; pass --k"):
        plots.figure_rows("cayley-B12", [HalfInt(0)], alpha_grid=GRID)
    header, rows = plots.figure_rows("cayley-B12", [HalfInt(0)], [0], alpha_grid=GRID)
    assert rows


def test_a_grid_point_rounded_past_the_largest_float_is_stop():
    # 3 * (max / 3) rounds up to inf; the true point is stop itself
    top = 1.7976931348623157e308
    assert plots.GridSpec(0.0, top, 4).values() == [0.0, top / 3 * 1, top / 3 * 2, top]
    assert plots.GridSpec(-3.66, 0.58, 3).values()[-1] == 0.5800000000000001  # rounding kept
    for argv in (["coeffs", "exp", "--j", "1"], ["coeffs", "cayley", "--j", "1"]):
        flag = "--theta-grid" if argv[1] == "exp" else "--alpha-grid"
        assert cli.main([*argv, f"{flag}=0:{top!r}:4", "--csv"]) == 0


@pytest.mark.parametrize(
    "grid, message",
    [
        (plots.GridSpec(-1e308, 1e308, 3), r"span -1e\+308:1e\+308 overflows"),
        (plots.GridSpec(-1.7976931348623157e308, 1.7976931348623157e308, 2), "overflows"),
        (plots.GridSpec(math.nan, 1.0, 3), "needs finite endpoints"),
        (plots.GridSpec(0.0, math.inf, 2), "needs finite endpoints"),
        (plots.GridSpec(-math.inf, math.inf, 4), "needs finite endpoints"),
    ],
)
def test_a_grid_without_finite_points_is_refused(capsys, grid, message):
    # no nan or inf point: values() refuses the grids whose span is not finite
    with pytest.raises(ValueError, match=message):
        grid.values()
    # a one-point grid is its start
    assert repr(plots.GridSpec(grid.start, grid.stop, 1).values()) == repr([grid.start])
    # the CLI refuses the same grid with its one error line
    flag = f"--alpha-grid={grid.start!r}:{grid.stop!r}:{grid.count}"
    assert cli.main(["coeffs", "cayley", "--j", "1", flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("spinpoly: error: --alpha-grid ")
    assert len(captured.err.splitlines()) == 1
