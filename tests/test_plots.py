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
