"""Property test: every command ends cleanly over its documented range.

Hypothesis draws argvs for `coeffs exp`, `coeffs cayley`, `asymp`, `bridge`,
`shear` and `plotdata`: spins 2j <= 40, ks just past 0..2j on both sides,
and float tokens from across the finite range (±0, subnormals, the largest
floats, multiples of pi/d that land on the poles of alpha_from_theta) as
plain values, pi tokens and grid endpoints.  A second test, with its own
example budget, draws `cfn` (n and k from -2 to about 40, with and without
`--table` and `--csv`), `basis` (2j <= 30, `--inverse`, `--duals` or both),
`verify` (`--fi` or not, `--max-two-j` from -3 to 6) and `fixtures`.  Every
option is written in its `--flag=value` form, so a negative value is never
read as an option.  Each command's parts are keyed by the options they
draw, and a third test holds those to the commands and options of
cli.build_parser()'s tree, `-h` aside.

A run may exit 0, 1 or 2 and raises nothing; argparse's own usage errors
leave main through SystemExit(2).  A refusal of _range_error is exactly one
`spinpoly: error:` line on stderr and nothing on stdout, exit 1 comes only
from `bridge`, no CSV field is nan or inf, `shear` prints nan only at a
true pole, where cos(|M| theta / 2) is below the 1e-15 it tests, `basis`
writes 2j + 1 rows of 2j + 1 fields, and `verify` prints a passing report
of the 2j it was given.
"""

import argparse
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

# each command's parts, keyed by the options a part may draw
COMMANDS = {
    "coeffs exp": {
        ("--j",): _flag("--j", spins),
        ("--theta", "--theta-grid"): _maybe(
            st.one_of(_flag("--theta", values), _flag("--theta-grid", grids))
        ),
        ("--k",): _k,
        ("--csv",): _csv,
    },
    "coeffs cayley": {
        ("--j",): _flag("--j", spins),
        ("--alpha", "--alpha-grid", "--exact"): _maybe(
            st.one_of(
                _flag("--alpha", values), _flag("--alpha-grid", grids), st.just(["--exact"])
            )
        ),
        ("--csv",): _csv,
    },
    "asymp": {
        ("--j-list",): _flag("--j-list", st.lists(spins, min_size=1, max_size=3).map(",".join)),
        ("--k",): _k,
        ("--alpha-grid",): _flag("--alpha-grid", grids),
        ("--csv",): _csv,
    },
    "bridge": {
        ("--j",): _flag("--j", spins),
        ("--k",): _flag("--k", ks),
        ("--alpha",): _flag("--alpha", values),
        ("--quadrature",): _maybe(st.just(["--quadrature"])),
    },
    "shear": {("--j",): _flag("--j", spins), ("--theta",): _flag("--theta", values)},
    "plotdata": {
        ("--figure",): _flag("--figure", st.sampled_from(["exp-A", "cayley-B12", "inv-det"])),
        ("--j",): st.lists(_flag("--j", spins), min_size=1, max_size=2).map(
            lambda js: sum(js, [])
        ),
        ("--k",): _k,
        ("--theta-grid", "--alpha-grid"): _maybe(
            st.one_of(_flag("--theta-grid", grids), _flag("--alpha-grid", grids))
        ),
        ("--csv",): _csv,
    },
}

# cheap to run but for verify, whose 2j stays small
MORE_COMMANDS = {
    "cfn": {
        ("--n",): _flag("--n", st.integers(-2, 40).map(str)),
        ("--k",): _maybe(_flag("--k", st.integers(-2, 42).map(str))),
        ("--table",): _maybe(st.just(["--table"])),
        ("--csv",): _csv,
    },
    "basis": {
        ("--j",): _flag("--j", st.integers(0, 30).map(lambda two_j: f"{two_j}/2")),
        ("--inverse", "--duals"): _maybe(
            st.sampled_from([["--inverse"], ["--duals"], ["--inverse", "--duals"]])
        ),
        ("--csv",): _csv,
    },
    "verify": {
        ("--fi",): _maybe(st.just(["--fi"])),
        ("--max-two-j",): _flag("--max-two-j", st.integers(-3, 6).map(str)),
    },
    "fixtures": {},
}


def _argv(name, options, parts):
    """The argv of command name from its drawn parts, each drawing only its own options."""
    for own, part in zip(options, parts):
        assert {arg.partition("=")[0] for arg in part} <= set(own), (own, part)
    return [*name.split(), *(arg for part in parts for arg in part)]


def _argvs(commands):
    return st.one_of(
        [
            st.tuples(*parts.values()).map(
                lambda drawn, name=name, options=tuple(parts): _argv(name, options, drawn)
            )
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


def _parser_options(parser, path=()):
    """(command path, its option strings but -h) of each leaf of the argparse tree."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield " ".join(path), {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _parser_options(child, (*path, name))


def test_the_property_tests_draw_every_command_and_option_of_the_parser():
    # a command or an option added to cli.build_parser() is drawn above, or this fails
    drawn = {
        name: {option for options in parts for option in options}
        for name, parts in {**COMMANDS, **MORE_COMMANDS}.items()
    }
    assert drawn == dict(_parser_options(cli.build_parser()))
