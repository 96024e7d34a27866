"""Command-line front end.

A thin shell over the library: every number printed here comes from a
library call that is also unit-tested.  Exact rationals serialize as
"p/q" strings, floats as their shortest round-trip representation.
Exit codes: 0 pass, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction

from . import bridge, cayley, expcoeffs, fixtures, plots, verify
from .basis import dual_matrices, vandermonde, vandermonde_inverse
from .cfn import cfn
from .halfint import HalfInt
from .plots import GridSpec


def _parse_float_token(text: str) -> float:
    """Floats with an optional pi factor: '0', '1.5', 'pi', '4pi', 'pi/2'."""
    t = text.strip().lower().replace("π", "pi")
    if "pi" in t:
        head, _, tail = t.partition("pi")
        value = math.pi * (float(head) if head and head not in "+-" else float(head + "1"))
        if tail.startswith("/"):
            value /= float(tail[1:])
        elif tail:
            raise argparse.ArgumentTypeError(f"cannot parse {text!r}")
        return value
    return float(t)


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


def _emit_csv(header, rows, path: str | None) -> None:
    out = sys.stdout if path in (None, "-") else open(path, "w", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)  # floats as repr, everything else as str
    finally:
        if out is not sys.stdout:
            out.close()


def _cmd_cfn(args) -> int:
    if args.table:
        rows = []
        for k in range(args.n + 1):
            t = cfn(args.n, k)
            rows.append((args.n, k, t.numerator, t.denominator))
        _emit_csv(("n", "k", "numerator", "denominator"), rows, args.csv)
        return 0
    if args.k is not None:
        print(cfn(args.n, args.k))
    else:
        for k in range(args.n + 1):
            print(f"t({args.n},{k}) = {cfn(args.n, k)}")
    return 0


def _cmd_basis(args) -> int:
    if args.duals:
        rows = dual_matrices(args.j).diags
    elif args.inverse:
        rows = vandermonde_inverse(args.j)
    else:
        rows = vandermonde(args.j)
    _emit_csv(
        tuple(f"c{i}" for i in range(args.j.two_j + 1)),
        rows,
        args.csv,
    )
    return 0


def _cmd_coeffs_exp(args) -> int:
    j = args.j
    if args.theta_grid is not None:
        if args.k is not None:
            rows = [
                (theta, args.k, expcoeffs.a_coeff_trunc(j, args.k, theta))
                for theta in args.theta_grid.values()
            ]
        else:
            rows = [
                (theta, k, a)
                for theta in args.theta_grid.values()
                for k, a in enumerate(expcoeffs.exp_poly(j, theta).A)
            ]
        _emit_csv(("theta", "k", "A_k"), rows, args.csv)
        return 0
    table = expcoeffs.exp_poly(j, args.theta)
    if args.k is not None:
        print(repr(table.A[args.k]))
    else:
        for k, a in enumerate(table.A):
            print(f"A_{k} = {a!r}")
    return 0


def _cmd_coeffs_cayley(args) -> int:
    j = args.j
    if args.exact:
        table = cayley.b_coeffs(j)
        den = ", ".join(map(str, table.den))
        for k, num in enumerate(table.B):
            print(f"B_{k}: num = [{', '.join(map(str, num))}], den = [{den}]")
        for k, num in enumerate(table.A):
            a = cayley.reduce_over_det(j, num)
            print(f"A_{k}: num = [{', '.join(map(str, a.num))}], den = [{', '.join(map(str, a.den))}]")
        return 0
    if args.alpha_grid is not None:
        rows = [
            (alpha, k, b, a)
            for alpha in args.alpha_grid.values()
            for k, (b, a) in enumerate(zip(*cayley.eval_coeffs(j, alpha)))
        ]
        _emit_csv(("alpha", "k", "B_k", "A_k"), rows, args.csv)
        return 0
    alpha = args.alpha if args.alpha is not None else 1.0
    for k, (b, a) in enumerate(zip(*cayley.eval_coeffs(j, alpha))):
        print(f"k={k}  B_k = {b!r}  A_k = {a!r}")
    return 0


def _cmd_verify(args) -> int:
    if args.fi:
        report = verify.run_verify_fi(args.max_two_j)
    else:
        report = verify.run_verify(args.max_two_j)
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 1


def _cmd_fixtures(_args) -> int:
    results = fixtures.run_fixtures()
    failures = [r for r in results if not r.passed]
    if failures:
        first = failures[0]
        print(f"FIXTURE FAILURE: {first.name}")
        print(f"  {first.detail}")
        print(f"{len(results) - len(failures)}/{len(results)} fixtures passed")
        return 1
    print(f"{len(results)} fixtures passed")
    return 0


def _cmd_asymp(args) -> int:
    rows = []
    for alpha in args.alpha_grid.values():
        for j in args.j_list:
            val = cayley.eval_coeffs(j, alpha)[0][args.k] / alpha**args.k
            rows.append((alpha, f"j={j}", val))
        rows.append(
            (alpha, "limit", cayley.b_limit_ratio(args.j_list[0].is_integer, args.k, alpha))
        )
    _emit_csv(("alpha", "series", "value"), rows, args.csv)
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
        ok = ok and abs(q - pair.b_direct) <= 1e-7 + math.exp(-40.0)
    return 0 if ok else 1


def _cmd_shear(args) -> int:
    magnitudes = sorted(
        {abs(Fraction(m2, 2)) for m2 in range(args.j.two_j, -args.j.two_j - 1, -2)} - {0}
    )
    values = {}
    for m in magnitudes:
        try:
            values[m] = bridge.alpha_from_theta(float(m), args.theta)
        except ValueError:
            values[m] = math.nan
    for m, alpha in values.items():
        print(f"|M|={m}: alpha(theta={args.theta!r}) = {alpha!r}")
    if len(magnitudes) <= 1:
        print("only one |M| in the spectrum: a single alpha <-> theta map works")
        return 0
    finite = [v for v in values.values() if not math.isnan(v)]
    if len(finite) > 1 and max(finite) - min(finite) > 1e-12:
        print("parameter shear: the alpha <-> theta relation differs across |M|")
    else:
        print("no shear detected at this theta")
    return 0


def _cmd_plotdata(args) -> int:
    js = args.j if args.j else None
    ks = args.k if args.k else None
    grid = args.theta_grid or args.alpha_grid
    header, rows = plots.figure_rows(args.figure, js=js, ks=ks, grid=grid)
    _emit_csv(header, rows, args.csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinpoly",
        description="Spin matrix polynomials: exact rotation-coefficient tables, "
        "verification suites, and figure data as CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cfn", help="central factorial numbers, exact p/q values")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--table", action="store_true", help="CSV rows (n, k, numerator, denominator)")
    p.add_argument("--csv", nargs="?", const="-", default=None, metavar="PATH")
    p.set_defaults(fn=_cmd_cfn)

    p = sub.add_parser("basis", help="Vandermonde matrix, exact inverse, dual diagonals")
    p.add_argument("--j", type=_parse_j, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--inverse", action="store_true")
    group.add_argument("--duals", action="store_true")
    p.add_argument("--csv", nargs="?", const="-", default=None, metavar="PATH")
    p.set_defaults(fn=_cmd_basis)

    p = sub.add_parser("coeffs", help="coefficient tables")
    csub = p.add_subparsers(dest="family", required=True)

    pe = csub.add_parser("exp", help="exponential rotation coefficients A_k(theta)")
    pe.add_argument("--j", type=_parse_j, required=True)
    pe.add_argument("--theta", type=_parse_float_token, default=0.0)
    pe.add_argument("--k", type=int, default=None)
    pe.add_argument("--theta-grid", type=_parse_grid, default=None, metavar="A:B:N")
    pe.add_argument("--csv", nargs="?", const="-", default=None, metavar="PATH")
    pe.set_defaults(fn=_cmd_coeffs_exp)

    pc = csub.add_parser("cayley", help="Cayley coefficients B_k, A_k")
    pc.add_argument("--j", type=_parse_j, required=True)
    pc.add_argument("--exact", action="store_true", help="print exact numerator/denominator lists")
    pc.add_argument("--alpha", type=_parse_float_token, default=None)
    pc.add_argument("--alpha-grid", type=_parse_grid, default=None, metavar="A:B:N")
    pc.add_argument("--csv", nargs="?", const="-", default=None, metavar="PATH")
    pc.set_defaults(fn=_cmd_coeffs_cayley)

    p = sub.add_parser("verify", help="cross-module invariant suite (JSON report)")
    p.add_argument("--fi", action="store_true", help="fundamental identity only")
    p.add_argument("--max-two-j", type=int, default=10)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("fixtures", help="compare against embedded golden values")
    p.set_defaults(fn=_cmd_fixtures)

    p = sub.add_parser("asymp", help="B_k/alpha^k curves against the large-j limit")
    p.add_argument("--j-list", type=_parse_j_list, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--alpha-grid", type=_parse_grid, required=True, metavar="A:B:N")
    p.add_argument("--csv", nargs="?", const="-", default=None, metavar="PATH")
    p.set_defaults(fn=_cmd_asymp)

    p = sub.add_parser("bridge", help="Laplace-transform consistency at one (j, k, alpha)")
    p.add_argument("--j", type=_parse_j, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=_parse_float_token, required=True)
    p.add_argument("--quadrature", action="store_true")
    p.set_defaults(fn=_cmd_bridge)

    p = sub.add_parser("shear", help="per-|M| alpha(theta) values for one spin")
    p.add_argument("--j", type=_parse_j, required=True)
    p.add_argument("--theta", type=_parse_float_token, required=True)
    p.set_defaults(fn=_cmd_shear)

    p = sub.add_parser("plotdata", help="figure data as long-format CSV")
    p.add_argument("--figure", required=True, choices=plots.FIGURES)
    p.add_argument("--j", type=_parse_j, action="append", default=[])
    p.add_argument("--k", type=int, action="append", default=[])
    p.add_argument("--theta-grid", type=_parse_grid, default=None, metavar="A:B:N")
    p.add_argument("--alpha-grid", type=_parse_grid, default=None, metavar="A:B:N")
    p.add_argument("--csv", nargs="?", const="-", default=None, metavar="PATH")
    p.set_defaults(fn=_cmd_plotdata)

    return parser


def _range_error(args) -> str | None:
    """Why the parsed arguments fall outside a command's range, if they do."""
    if args.command == "cfn" and min(args.n, args.k or 0) < 0:
        return f"cfn needs n >= 0 and k >= 0, got n = {args.n}, k = {args.k}"
    if args.command == "verify" and args.max_two_j < 0:
        return f"verify needs --max-two-j >= 0, got {args.max_two_j}"
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
        axis, other = ("theta", "alpha") if args.figure == "exp-A" else ("alpha", "theta")
        if getattr(args, f"{other}_grid") is not None:
            return f"--figure {args.figure} takes --{axis}-grid, not --{other}-grid"
        if args.figure == "inv-det":
            if args.k:
                return "--figure inv-det draws no k; drop --k"
        else:
            spins = args.j or plots.DEFAULT_SPINS[args.figure]
            ks = args.k or plots.DEFAULT_KS[args.figure]
            if args.figure == "cayley-B12":
                grid = args.alpha_grid
    for j in spins:
        for k in ks:
            if not 0 <= k <= j.two_j:
                return f"--k {k} is outside 0..2j = 0..{j.two_j} for j = {j}"
    if grid is None or not any(ks):
        return None
    alphas = grid.values()
    if 0.0 in alphas:
        return "B_k/alpha^k needs alpha != 0, but the alpha grid contains 0"
    for k in ks:
        for alpha in alphas:
            try:
                in_range = 0.0 < abs(alpha**k) < math.inf
            except OverflowError:
                in_range = False
            if not in_range:
                return f"alpha^k leaves the float range at alpha = {alpha!r}, k = {k}"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    error = _range_error(args)
    if error:
        print(f"spinpoly: error: {error}", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
