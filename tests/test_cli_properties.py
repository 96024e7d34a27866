"""Property test: every command ends cleanly over its documented range.

Hypothesis draws argvs for `coeffs exp`, `coeffs cayley`, `asymp`, `bridge`,
`shear` and `plotdata`: spins 2j <= 40, ks just past 0..2j on both sides,
and float tokens from across the finite range (±0, subnormals, the largest
floats, multiples of pi/d that land on the poles of alpha_from_theta) as
plain values, pi tokens and grid endpoints.  A second test, with its own
example budget, draws `cfn` (n and k from -2 to about 40, with and without
`--table` and `--csv`), `basis` (2j <= 30, `--inverse`, `--duals` or both)
and `verify` (`--fi` or not, `--max-two-j` from -3 to 6).  Every option is
written in its `--flag=value` form, so a negative value is never read as
an option.

A run may exit 0, 1 or 2 and raises nothing; argparse's own usage errors
leave main through SystemExit(2).  A refusal of _range_error is exactly one
`spinpoly: error:` line on stderr and nothing on stdout, exit 1 comes only
from `bridge`, no CSV field is nan or inf, `shear` prints nan only at a
true pole, where cos(|M| theta / 2) is below the 1e-15 it tests, `basis`
writes 2j + 1 rows of 2j + 1 fields, and `verify` prints a passing report
of the 2j it was given.
"""

import contextlib
import io
import json
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from spinpoly import cli

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.0, -1.0,
    1e306, 3e306, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
]

values = st.one_of(
    st.sampled_from(EDGE_FLOATS).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds(lambda n, d: f"{n}pi/{d}", st.integers(-9, 9), st.integers(1, 6)),
    st.sampled_from(["pi", "-pi", "2pi", "-4pi", "1e300pi"]),
)
numbers = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
grids = st.one_of(
    st.builds(lambda a, b, n: f"{a}:{b}:{n}", values, values, st.integers(0, 5)),
    st.builds(
        lambda a, b, n: f"{min(a, b)!r}:{max(a, b)!r}:{n}", numbers, numbers, st.integers(1, 5)
    ),
)
spins = st.integers(0, 40).map(lambda two_j: f"{two_j}/2")
ks = st.integers(-1, 41).map(str)


def _flag(name, strategy):
    return strategy.map(lambda value: [f"{name}={value}"])


def _maybe(strategy):
    return st.one_of(st.just([]), strategy)


_csv = _maybe(st.just(["--csv"]))
_k = _maybe(_flag("--k", ks))

COMMANDS = {
    "coeffs exp": st.tuples(
        _flag("--j", spins),
        _maybe(st.one_of(_flag("--theta", values), _flag("--theta-grid", grids))),
        _k,
        _csv,
    ),
    "coeffs cayley": st.tuples(
        _flag("--j", spins),
        _maybe(
            st.one_of(
                _flag("--alpha", values), _flag("--alpha-grid", grids), st.just(["--exact"])
            )
        ),
        _csv,
    ),
    "asymp": st.tuples(
        _flag("--j-list", st.lists(spins, min_size=1, max_size=3).map(",".join)),
        _k,
        _flag("--alpha-grid", grids),
        _csv,
    ),
    "bridge": st.tuples(
        _flag("--j", spins),
        _flag("--k", ks),
        _flag("--alpha", values),
        _maybe(st.just(["--quadrature"])),
    ),
    "shear": st.tuples(_flag("--j", spins), _flag("--theta", values)),
    "plotdata": st.tuples(
        _flag("--figure", st.sampled_from(["exp-A", "cayley-B12", "inv-det"])),
        st.lists(_flag("--j", spins), min_size=1, max_size=2).map(lambda js: sum(js, [])),
        _k,
        _maybe(st.one_of(_flag("--theta-grid", grids), _flag("--alpha-grid", grids))),
    ),
}

# cheap to run but for verify, whose 2j stays small
MORE_COMMANDS = {
    "cfn": st.tuples(
        _flag("--n", st.integers(-2, 40).map(str)),
        _maybe(_flag("--k", st.integers(-2, 42).map(str))),
        _maybe(st.just(["--table"])),
        _csv,
    ),
    "basis": st.tuples(
        _flag("--j", st.integers(0, 30).map(lambda two_j: f"{two_j}/2")),
        _maybe(st.sampled_from([["--inverse"], ["--duals"], ["--inverse", "--duals"]])),
        _csv,
    ),
    "verify": st.tuples(
        _maybe(st.just(["--fi"])), _flag("--max-two-j", st.integers(-3, 6).map(str))
    ),
}


def _argvs(commands):
    return st.one_of(
        [
            parts.map(lambda p, name=name: [*name.split(), *(a for part in p for a in part)])
            for name, parts in commands.items()
        ]
    )


argvs = _argvs(COMMANDS)


def _run(argv):
    """(exit code, whether argparse accepted argv, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli.main(argv), True, out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return exc.code, False, out.getvalue(), err.getvalue()


def _assert_ends_cleanly(argv):
    code, parsed, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    if not parsed:
        assert code == 2 and "error: " in err.splitlines()[-1], (argv, err)
        return
    if code == 2:
        assert out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("spinpoly: error: "), (argv, err)
        return
    assert code == 0 or argv[0] == "bridge", (argv, code)
    if "\r\n" in out:  # CSV rows end in CRLF, printed lines in LF
        for line in out.split("\r\n")[1:]:
            assert not {"nan", "inf", "-inf"} & set(line.split(",")), (argv, line)
    if argv[0] == "shear":
        theta = cli._parse_float_token(argv[-1].partition("=")[2])
        for line in out.splitlines():
            if line.endswith("= nan"):
                m = float(Fraction(line[4 : line.index(":")]))
                assert abs(math.cos(m / 2 * theta)) < 1e-15, (argv, line)
    if argv[0] == "basis":
        two_j = int(argv[1].partition("=")[2].partition("/")[0])
        rows = out.split("\r\n")[1:-1]
        assert len(rows) == two_j + 1, argv
        assert all(len(row.split(",")) == two_j + 1 for row in rows), argv
    if argv[0] == "verify":
        report = json.loads(out)
        assert report["passed"] is True, argv
        assert report["max_two_j"] == int(argv[-1].partition("=")[2]), argv


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(argvs)
def test_commands_end_cleanly_over_their_documented_range(argv):
    _assert_ends_cleanly(argv)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_argvs(MORE_COMMANDS))
def test_cfn_basis_and_verify_end_cleanly_over_their_documented_range(argv):
    _assert_ends_cleanly(argv)
