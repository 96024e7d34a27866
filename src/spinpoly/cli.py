"""Command-line front end.

A thin shell over the library: every number printed here comes from a
library call that is also unit-tested.  Exact rationals serialize as
"p/q" strings, floats as their shortest round-trip representation.
Exit codes: 0 pass, 1 verification failure or a reader that closed
stdout early, 2 usage error or a --csv file or stdout that cannot be
opened or written.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import stat
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

from . import bridge, cayley, expcoeffs, plots, verify
from .basis import vandermonde, vandermonde_inverse_text
from .cfn import cfn
from .halfint import HalfInt
from .plots import GridSpec


def _parse_float_token(text: str) -> float:
    """Floats with an optional pi factor: '0', '1.5', 'pi', '4pi', 'pi/2'.

    Any other token raises argparse.ArgumentTypeError, "cannot parse 'TEXT'".
    """
    t = text.strip().lower().replace("π", "pi")
    head, pi, tail = t.partition("pi")
    try:
        if not pi:
            return float(t)
        value = math.pi * (float(head) if head and head not in "+-" else float(head + "1"))
        if tail.startswith("/"):
            value /= float(tail[1:])
        elif tail:
            raise ValueError
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}: division by zero") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from None
    return value


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be start:stop:count, got {text!r}")
    try:
        return GridSpec(
            _parse_float_token(parts[0]), _parse_float_token(parts[1]), int(parts[2])
        )
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_j(text: str) -> HalfInt:
    try:
        return HalfInt.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_j_list(text: str) -> list[HalfInt]:
    return [_parse_j(tok) for tok in text.split(",") if tok.strip()]


def _csv_lines(rows) -> list[str]:
    """CSV lines of row tuples: each field as str, comma-separated, CRLF-terminated.

    str is repr for a float and p/q for a Fraction.  No field ever holds a
    comma, a quote or a line break, so no field is quoted and the bytes are
    those of csv.writer's default dialect.  The grid commands write the same
    lines from one f-string per row.
    """
    return [",".join(map(str, row)) + "\r\n" for row in rows]


class _CannotWrite(Exception):
    """A --csv path that cannot be opened or written; main reports it as a usage error."""

    def __init__(self, path: str, exc: OSError):
        super().__init__(f"cannot write {path}: {exc.strerror or exc}")


def _open_untruncated(path: str, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextmanager
def _csv_opened(args):
    """Open --csv PATH before the command computes, so an unwritable path costs no work.

    args.csv becomes the open file, which _emit_csv empties and writes to;
    None and "-" stay as they are.  A file opened here is closed after the
    command, and removed if the command raises and the file is new; one
    that was there before keeps its contents until _emit_csv writes.  An
    OSError while the file is open is a failed write or close of it (the
    command does no other I/O): it becomes _CannotWrite.
    """
    path = getattr(args, "csv", None)
    if path in (None, "-"):
        yield
        return
    created = not os.path.exists(path)
    try:
        # "w" without O_TRUNC, so that a command that fails leaves an existing file as it was
        args.csv = open(path, "w", newline="", opener=_open_untruncated)
    except OSError as exc:
        raise _CannotWrite(path, exc) from None
    try:
        with args.csv:
            yield
    except BaseException as exc:
        if created:
            os.remove(path)
        if isinstance(exc, OSError):
            raise _CannotWrite(path, exc) from None
        raise


def _emit_csv(header, lines, out) -> None:
    """The header and a sequence of formatted lines (see _csv_lines) as CSV, to out or stdout.

    out is the file _csv_opened opened for --csv PATH, or None or "-" for stdout.
    A regular file that has contents is emptied first, as opening it with
    "w" would have; a pipe or a device is written as it is.
    """
    if out in (None, "-"):
        out = sys.stdout
    else:
        st = os.fstat(out.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size:
            out.truncate(0)
    out.write(",".join(header) + "\r\n")
    # one write per 256 lines is as fast as one join of all of them, and
    # never holds the whole text in memory twice
    for i in range(0, len(lines), 256):
        out.write("".join(lines[i : i + 256]))


def _cmd_cfn(args) -> int:
    if args.table:
        values = [cfn(args.n, k) for k in range(args.n + 1)]
        rows = [(args.n, k, t.numerator, t.denominator) for k, t in enumerate(values)]
        _emit_csv(("n", "k", "numerator", "denominator"), _csv_lines(rows), args.csv)
        return 0
    if args.k is not None:
        print(cfn(args.n, args.k))
    else:
        for k in range(args.n + 1):
            print(f"t({args.n},{k}) = {cfn(args.n, k)}")
    return 0


def _cmd_basis(args) -> int:
    if args.duals or args.inverse:
        # the diagonal of the dual T_n is row n of V^-1: both print V^-1
        rows = vandermonde_inverse_text(args.j)
    else:
        rows = vandermonde(args.j)
    _emit_csv(tuple(f"c{i}" for i in range(args.j.two_j + 1)), _csv_lines(rows), args.csv)
    return 0


def _cmd_coeffs_exp(args) -> int:
    j = args.j
    # --csv without a grid writes the one-point grid at --theta
    thetas = [args.theta] if args.theta_grid is None else args.theta_grid.values()
    ks = range(j.two_j + 1) if args.k is None else (args.k,)
    rows = expcoeffs.exp_grid(j, thetas, ks)
    if args.theta_grid is not None or args.csv is not None:
        lines = []
        for theta, values in zip(thetas, rows):
            t = repr(theta)  # formatted once per grid point
            lines += [f"{t},{k},{a!r}\r\n" for k, a in zip(ks, values)]
        _emit_csv(("theta", "k", "A_k"), lines, args.csv)
    elif args.k is not None:
        print(repr(rows[0][0]))
    else:
        for k, a in enumerate(rows[0]):
            print(f"A_{k} = {a!r}")
    return 0


def _cmd_coeffs_cayley(args) -> int:
    j = args.j
    if args.exact:
        table = cayley.b_coeffs(j)
        den = ", ".join(map(str, table.den))
        for k in range(j.two_j + 1):
            print(f"B_{k}: num = [{', '.join(map(str, table.b_num(k)))}], den = [{den}]")
        for k, a in enumerate(cayley.a_coeffs(j)):
            print(f"A_{k}: num = [{', '.join(map(str, a.num))}], den = [{', '.join(map(str, a.den))}]")
        return 0
    if args.alpha_grid is not None or args.csv is not None:
        # --csv without a grid writes the one-point grid at --alpha
        alphas = [args.alpha] if args.alpha_grid is None else args.alpha_grid.values()
        lines = []
        for alpha in alphas:
            t = repr(alpha)  # formatted once per grid point
            lines += [
                f"{t},{k},{b!r},{a!r}\r\n"
                for k, (b, a) in enumerate(zip(*cayley.eval_coeffs(j, alpha)))
            ]
        _emit_csv(("alpha", "k", "B_k", "A_k"), lines, args.csv)
        return 0
    for k, (b, a) in enumerate(zip(*cayley.eval_coeffs(j, args.alpha))):
        print(f"k={k}  B_k = {b!r}  A_k = {a!r}")
    return 0


def _cmd_verify(args) -> int:
    report = (verify.run_verify_fi if args.fi else verify.run_verify)(args.max_two_j)
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 1


def _cmd_fixtures(_args) -> int:
    from . import fixtures  # the golden tables load only for this command

    results = fixtures.run_fixtures()
    failures = [r for r in results if not r.passed]
    if failures:
        print(f"FIXTURE FAILURE: {failures[0].name}\n  {failures[0].detail}")
        print(f"{len(results) - len(failures)}/{len(results)} fixtures passed")
        return 1
    print(f"{len(results)} fixtures passed")
    return 0


def _cmd_asymp(args) -> int:
    rows = []
    for alpha in args.alpha_grid.values():
        for j in args.j_list:
            val = cayley.eval_coeffs(j, alpha, (args.k,))[0][0] / alpha**args.k
            rows.append((alpha, f"j={j}", val))
        rows.append(
            (alpha, "limit", cayley.b_limit_ratio(args.j_list[0].is_integer, args.k, alpha))
        )
    _emit_csv(("alpha", "series", "value"), _csv_lines(rows), args.csv)
    return 0


def _cmd_bridge(args) -> int:
    pair = bridge.laplace_pair(args.j, args.k, args.alpha)
    print(f"B_{args.k}[{args.j}]({args.alpha}) direct      = {pair.b_direct!r}")
    print(f"B_{args.k}[{args.j}]({args.alpha}) via Laplace = {pair.b_via_laplace!r}")
    print(f"consistent: {pair.consistent}")
    ok = pair.consistent
    if args.quadrature:
        q = bridge.quadrature_check(args.j, args.k, args.alpha)
        print(f"B_{args.k}[{args.j}]({args.alpha}) quadrature  = {q!r}")
        miss, bar = abs(q - pair.b_direct), 1e-7 + math.exp(-bridge.QUADRATURE_T)
        if not miss <= bar:
            print(
                f"spinpoly: quadrature misses the direct value by {miss!r}, "
                f"above the bar 1e-7 + e^-{bridge.QUADRATURE_T!r} = {bar!r}",
                file=sys.stderr,
            )
            ok = False
    return 0 if ok else 1


def _cmd_shear(args) -> int:
    magnitudes = sorted(Fraction(m2, 2) for m2 in range(args.j.two_j, 0, -2))
    values = {}
    for m in magnitudes:
        try:
            values[m] = bridge.alpha_from_theta(float(m), args.theta)
        except ValueError:
            values[m] = math.nan
        print(f"|M|={m}: alpha(theta={args.theta!r}) = {values[m]!r}")
    if not magnitudes:
        print("no nonzero |M| in the spectrum: no alpha <-> theta map is fixed")
        return 0
    if len(magnitudes) == 1:
        print("only one |M| in the spectrum: a single alpha <-> theta map works")
        return 0
    finite = [v for v in values.values() if not math.isnan(v)]
    if len(finite) > 1 and max(finite) - min(finite) > 1e-12:
        print("parameter shear: the alpha <-> theta relation differs across |M|")
    else:
        print("no shear detected at this theta")
    return 0


def _cmd_plotdata(args) -> int:
    header, rows = plots.figure_rows(
        args.figure,
        args.j,
        args.k,
        theta_grid=args.theta_grid,
        alpha_grid=args.alpha_grid,
    )
    _emit_csv(header, _csv_lines(rows), args.csv)
    return 0


# option keywords that several commands share
_J = {"type": _parse_j, "required": True}
_CSV = {"nargs": "?", "const": "-", "default": None, "metavar": "PATH"}
_GRID = {"type": _parse_grid, "default": None, "metavar": "A:B:N"}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every command.

    One tree per process, built on first use and shared: change none.
    argparse's own help formatter reads the terminal width when help is printed.
    """
    parser = argparse.ArgumentParser(
        prog="spinpoly",
        description="Spin matrix polynomials: exact rotation-coefficient tables, "
        "verification suites, and figure data as CSV.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("cfn", help="central factorial numbers, exact p/q values")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--table", action="store_true", help="CSV rows (n, k, numerator, denominator)")
    p.add_argument("--csv", **_CSV)
    p.set_defaults(fn=_cmd_cfn)

    p = commands.add_parser("basis", help="Vandermonde matrix, exact inverse, dual diagonals")
    p.add_argument("--j", **_J)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--inverse", action="store_true")
    group.add_argument("--duals", action="store_true")
    p.add_argument("--csv", **_CSV)
    p.set_defaults(fn=_cmd_basis)

    coeffs = commands.add_parser("coeffs", help="coefficient tables")
    families = coeffs.add_subparsers(dest="family", required=True)
    p = families.add_parser("exp", help="exponential rotation coefficients A_k(theta)")
    p.add_argument("--j", **_J)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--theta", type=_parse_float_token, default=0.0)
    group.add_argument("--theta-grid", **_GRID)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--csv", **_CSV)
    p.set_defaults(fn=_cmd_coeffs_exp)

    p = families.add_parser("cayley", help="Cayley coefficients B_k, A_k")
    p.add_argument("--j", **_J)
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--exact", action="store_true", help="print exact numerator/denominator lists"
    )
    group.add_argument("--alpha", type=_parse_float_token, default=1.0)
    group.add_argument("--alpha-grid", **_GRID)
    p.add_argument("--csv", **_CSV)
    p.set_defaults(fn=_cmd_coeffs_cayley)

    p = commands.add_parser("verify", help="cross-module invariant suite (JSON report)")
    p.add_argument("--fi", action="store_true", help="fundamental identity only")
    p.add_argument("--max-two-j", type=int, default=10)
    p.set_defaults(fn=_cmd_verify)

    p = commands.add_parser("fixtures", help="compare against embedded golden values")
    p.set_defaults(fn=_cmd_fixtures)

    p = commands.add_parser("asymp", help="B_k/alpha^k curves against the large-j limit")
    p.add_argument("--j-list", type=_parse_j_list, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--alpha-grid", **_GRID, required=True)
    p.add_argument("--csv", **_CSV)
    p.set_defaults(fn=_cmd_asymp)

    p = commands.add_parser("bridge", help="Laplace-transform consistency at one (j, k, alpha)")
    p.add_argument("--j", **_J)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=_parse_float_token, required=True)
    p.add_argument("--quadrature", action="store_true")
    p.set_defaults(fn=_cmd_bridge)

    p = commands.add_parser("shear", help="per-|M| alpha(theta) values for one spin")
    p.add_argument("--j", **_J)
    p.add_argument("--theta", type=_parse_float_token, required=True)
    p.set_defaults(fn=_cmd_shear)

    p = commands.add_parser("plotdata", help="figure data as long-format CSV")
    p.add_argument("--figure", required=True, choices=plots.FIGURES)
    p.add_argument("--j", type=_parse_j, action="append", default=None)
    p.add_argument("--k", type=int, action="append", default=None)
    p.add_argument("--theta-grid", **_GRID)
    p.add_argument("--alpha-grid", **_GRID)
    p.add_argument("--csv", **_CSV)
    p.set_defaults(fn=_cmd_plotdata)
    return parser


def _range_error(args) -> str | None:
    """Why the parsed arguments fall outside a command's range, if they do."""
    if args.command == "cfn" and min(args.n, args.k or 0) < 0:
        return f"cfn needs n >= 0 and k >= 0, got n = {args.n}, k = {args.k}"
    # a command that prints other than CSV refuses --csv rather than drop it
    if args.command == "cfn" and args.csv is not None and not args.table:
        return "cfn --csv writes the --table rows; add --table"
    if args.command == "cfn" and args.table and args.k is not None:
        return "cfn --table writes the whole row n; drop --k"
    if getattr(args, "exact", False) and args.csv is not None:
        return "coeffs cayley --exact prints numerator/denominator lists, not CSV; drop --csv"
    if args.command == "verify" and args.max_two_j < 0:
        return f"verify needs --max-two-j >= 0, got {args.max_two_j}"
    if getattr(args, "quadrature", False) and not math.isfinite(
        2 * abs(args.alpha) * bridge.QUADRATURE_T
    ):
        return (
            f"--quadrature evaluates A_k at up to 2|alpha| * {bridge.QUADRATURE_T!r}, "
            f"which overflows at --alpha {args.alpha!r}"
        )
    for name in ("alpha", "theta", "alpha_grid", "theta_grid"):
        value = getattr(args, name, None)
        flag = "--" + name.replace("_", "-")
        if isinstance(value, GridSpec):
            span = f"{value.start!r}:{value.stop!r}"
            if not (math.isfinite(value.start) and math.isfinite(value.stop)):
                return f"{flag} needs finite endpoints, got {span}"
            if value.count > 1 and not math.isfinite(value.stop - value.start):
                return f"{flag} span {span} overflows"
        elif value is not None and not math.isfinite(value):
            return f"{flag} must be finite, got {value!r}"
    # shear's largest half-angle, |M| theta / 2 at |M| = j
    if args.command == "shear" and not math.isfinite(args.j.two_j / 4 * args.theta):
        return f"shear's half-angle j * theta / 2 overflows at --theta {args.theta!r}"
    spins, ks, grid = [], [], None
    if args.command in ("coeffs", "bridge") and getattr(args, "k", None) is not None:
        spins, ks = [args.j], [args.k]
    elif args.command == "asymp":
        if not args.j_list:
            return "--j-list names no spin"
        if len({j.is_integer for j in args.j_list}) > 1:
            return "--j-list mixes integer and semi-integer spins, whose limits differ"
        spins, ks, grid = args.j_list, [args.k], args.alpha_grid
    elif args.command == "plotdata":
        return plots.figure_error(args.figure, args.j, args.k, args.theta_grid, args.alpha_grid)
    for j, k in itertools.product(spins, ks):
        if not 0 <= k <= j.two_j:
            return f"--k {k} is outside 0..2j = 0..{j.two_j} for j = {j}"
    return None if grid is None else plots.alpha_power_error(ks, grid.values())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    error = _range_error(args)
    if not error:
        try:
            with _csv_opened(args):
                code = args.fn(args)
            sys.stdout.flush()  # so that a closed pipe raises here, not at exit
            return code
        except _CannotWrite as exc:
            error = str(exc)
        except OSError as exc:
            # a write to stdout failed (the command does no other I/O): point
            # stdout at devnull, so that the flush at exit cannot fail again
            # (the recipe of the signal module's docs)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                return 1  # the reader is gone
            error = f"cannot write stdout: {exc.strerror or exc}"
    print(f"spinpoly: error: {error}", file=sys.stderr)
    return 2
