import pytest

from spinpoly import plots
from spinpoly.halfint import HalfInt

GRID = plots.GridSpec(0.5, 1.0, 2)


def test_inv_det_refuses_ks():
    with pytest.raises(ValueError, match="inv-det draws no k"):
        plots.figure_rows("inv-det", ks=[3], grid=GRID)
    # an empty ks is no k at all
    rows = plots.figure_rows("inv-det", grid=GRID)
    assert plots.figure_rows("inv-det", ks=[], grid=GRID) == rows


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
    with pytest.raises(ValueError, match="is outside 0..2j"):
        plots.figure_rows(figure, js=js, ks=ks, grid=GRID)


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
        plots.figure_rows("cayley-B12", js=js, ks=ks, grid=grid)
