import argparse
import csv
import errno
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import spinpoly
from spinpoly import bridge, cayley, cli, expcoeffs, fixtures, plots, verify
from spinpoly.basis import vandermonde_inverse
from spinpoly.halfint import HalfInt, half_integers

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _child_env():
    # the child does not see pytest's pythonpath; point it at this package
    paths = [str(Path(spinpoly.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def _child(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=_child_env())


def test_module_entrypoint_help():
    proc = _child("-m", "spinpoly", "--help")
    assert proc.returncode == 0
    assert "spin matrix" in proc.stdout.lower()


def test_import_leaves_dataclasses_and_the_golden_tables_unloaded():
    # start-up cost: records are NamedTuples, and only `fixtures` reads the golden tables
    proc = _child(
        "-c",
        "import sys, spinpoly.cli; "
        "print(sorted({'dataclasses', 'inspect', 'spinpoly.fixtures'} & set(sys.modules)))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_builds_no_parser():
    # start-up cost: trees are built by the first main call, and cli leaves
    # reading the terminal width to argparse's own formatter
    proc = _child(
        "-c",
        "import spinpoly.cli as cli; "
        "print(cli.build_parser.cache_info().currsize, hasattr(cli, 'shutil'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["coeffs", "exp"])  # missing --j
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["basis", "--j", "1.3"])  # not a half-integer
    assert exc.value.code == 2
    # flags that pick the same output are exclusive: neither is dropped silently
    for argv in (
        ["coeffs", "exp", "--j", "1", "--theta", "1", "--theta-grid", "0:1:2"],
        ["coeffs", "cayley", "--j", "1", "--exact", "--alpha", "2"],
        ["coeffs", "cayley", "--j", "1", "--alpha", "2", "--alpha-grid", "1:1:1"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv


def test_cfn_command(capsys):
    code, out = run(capsys, "cfn", "--n", "5", "--k", "1")
    assert code == 0
    assert out.strip() == "9/16"
    code, out = run(capsys, "cfn", "--n", "4", "--table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,numerator,denominator"
    assert "4,2,-1,1" in lines


def test_basis_command(capsys):
    code, out = run(capsys, "basis", "--j", "1", "--inverse")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[1:] == ["0,1,0", "1/4,0,-1/4", "1/8,-1/4,1/8"]
    code, out = run(capsys, "basis", "--j", "1/2", "--duals")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["1/2,1/2", "1/2,-1/2"]
    # both print V^-1 from its integer cache; the bytes are those of the
    # Fraction matrix written field by field with str
    for j in half_integers(60):
        header = ",".join(f"c{i}" for i in range(j.two_j + 1)) + "\r\n"
        want = header + "".join(cli._csv_lines(vandermonde_inverse(j)))
        for flag in ("--inverse", "--duals"):
            assert run(capsys, "basis", "--j", str(j), flag) == (0, want), (j, flag)


def test_coeffs_exp_command(capsys, tmp_path):
    code, out = run(capsys, "coeffs", "exp", "--j", "1", "--theta", "pi/2")
    assert code == 0
    assert "A_1 = 0.5" in out
    target = tmp_path / "grid.csv"
    code, _ = run(
        capsys, "coeffs", "exp", "--j", "1/2", "--theta-grid", "0:pi:3",
        "--k", "1", "--csv", str(target),
    )
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "theta,k,A_k"
    assert len(lines) == 4


EXACT_CAYLEY_STDOUT = {
    # det = 1 + 10 alpha^2 + 9 alpha^4; B_k = alpha^k Trunc_{3-k}[det] / det
    "3/2": (
        "B_0: num = [1, 0, 10], den = [1, 0, 10, 0, 9]\n"
        "B_1: num = [0, 1, 0, 10], den = [1, 0, 10, 0, 9]\n"
        "B_2: num = [0, 0, 1], den = [1, 0, 10, 0, 9]\n"
        "B_3: num = [0, 0, 0, 1], den = [1, 0, 10, 0, 9]\n"
        "A_0: num = [1, 0, 10, 0, -9], den = [1, 0, 10, 0, 9]\n"
        "A_1: num = [0, 2, 0, 20], den = [1, 0, 10, 0, 9]\n"
        "A_2: num = [0, 0, 2], den = [1, 0, 10, 0, 9]\n"
        "A_3: num = [0, 0, 0, 2], den = [1, 0, 10, 0, 9]\n"
    ),
    # det = 1 + 20 alpha^2 + 64 alpha^4; B_0 = det / det, so A_0 = 1
    "2": (
        "B_0: num = [1, 0, 20, 0, 64], den = [1, 0, 20, 0, 64]\n"
        "B_1: num = [0, 1, 0, 20], den = [1, 0, 20, 0, 64]\n"
        "B_2: num = [0, 0, 1, 0, 20], den = [1, 0, 20, 0, 64]\n"
        "B_3: num = [0, 0, 0, 1], den = [1, 0, 20, 0, 64]\n"
        "B_4: num = [0, 0, 0, 0, 1], den = [1, 0, 20, 0, 64]\n"
        "A_0: num = [1], den = [1]\n"
        "A_1: num = [0, 2, 0, 40], den = [1, 0, 20, 0, 64]\n"
        "A_2: num = [0, 0, 2, 0, 40], den = [1, 0, 20, 0, 64]\n"
        "A_3: num = [0, 0, 0, 2], den = [1, 0, 20, 0, 64]\n"
        "A_4: num = [0, 0, 0, 0, 2], den = [1, 0, 20, 0, 64]\n"
    ),
}


def test_coeffs_cayley_command(capsys):
    code, out = run(capsys, "coeffs", "cayley", "--j", "1", "--exact")
    assert code == 0
    assert "B_1: num = [0, 1], den = [1, 0, 4]" in out
    code, out = run(capsys, "coeffs", "cayley", "--j", "1/2", "--alpha", "1")
    assert code == 0
    assert "k=0  B_k = 0.5" in out
    for j, want in EXACT_CAYLEY_STDOUT.items():
        assert run(capsys, "coeffs", "cayley", "--j", j, "--exact") == (0, want), j


def test_verify_command_json(capsys):
    code, out = run(capsys, "verify", "--max-two-j", "4")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert "fundamental-identity" in names and "laplace-bridge" in names
    bounds = {c["name"]: c["bound"] for c in report["checks"] if "bound" in c}
    assert bounds == {
        "exp-path-equality": 1e-12,
        "exp-reconstruction": 1e-9,
        "cayley-reconstruction": 1e-10,
        "determinant-forms": 1e-10,
    }
    (paths,) = [c for c in report["checks"] if c["name"] == "cayley-path-equality"]
    assert paths["detail"] == "2j <= 4, exact"
    for check in report["checks"]:
        assert check["cases"] > 0, check
        assert check["seconds"] >= 0, check
        if "bound" in check:
            assert 0 <= check["worst"] < check["bound"], check
    code, out = run(capsys, "verify", "--fi", "--max-two-j", "20")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_basis_default_prints_vandermonde(capsys):
    code, out = run(capsys, "basis", "--j", "1/2")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["1,1", "1,-1"]


def test_verify_failure_exit_code_and_context(capsys, monkeypatch):
    from spinpoly import cayley

    real = cayley.log_det_gamma
    monkeypatch.setattr(cayley, "log_det_gamma", lambda j, a: real(j, a) + math.log1p(1e-6))
    code, out = run(capsys, "verify", "--max-two-j", "2")
    assert code == 1
    report = json.loads(out)
    bad = [c for c in report["checks"] if not c["passed"]]
    assert bad
    assert "op=det_gamma" in bad[0]["detail"]
    assert "alpha=" in bad[0]["detail"] and "j=" in bad[0]["detail"]


def test_verify_determinant_forms_past_the_float_range_of_det():
    # det(2) passes the float range at 2j = 150; the check compares logs
    entry = verify._run_check("determinant-forms", 160)
    assert entry["passed"] is True
    assert entry["cases"] == 161 * 6 and entry["worst"] < verify.DET_BOUND


def test_verify_case_counts_per_check():
    # every comparison is counted once, however a check batches its work
    checks = verify.run_verify(9)["checks"]
    assert [c["name"] for c in checks] == list(verify._CHECKS)
    assert [c["cases"] for c in checks] == [10, 1375, 80, 80, 55, 330, 85, 60]


def test_readme_case_counts_are_the_suites():
    # the README's "verify --max-two-j 9 counts ..." sentence, read as the
    # counts and check names it lists, is what run_verify(9) reports
    text = " ".join((ROOT / "README.md").read_text().split())
    match = re.search(r"`verify --max-two-j 9` counts (.+?) cases for (.+?), the order of the report", text)
    assert match, "README lost its verify case-count sentence"
    counts = [int(n) for n in re.findall(r"\d+", match.group(1))]
    names = re.findall(r"`([a-z-]+)`", match.group(2))
    checks = verify.run_verify(9)["checks"]
    assert names == [c["name"] for c in checks]
    assert counts == [c["cases"] for c in checks]


def test_readme_exact_checks_are_the_unbounded_ones():
    # the README's "The exact checks (...) have no `worst` or `bound`" list
    # names the checks whose bound is None
    text = " ".join((ROOT / "README.md").read_text().split())
    match = re.search(r"The exact checks \((.+?)\) have no `worst` or `bound`", text)
    assert match, "README lost its list of exact checks"
    names = set(re.findall(r"`([a-z-]+)`", match.group(1)))
    assert names == {name for name, (_, bound, _) in verify._CHECKS.items() if bound is None}


def test_exp_path_equality_fails_on_an_infinite_value(monkeypatch):
    # |inf - a| <= 1e-12 * inf holds: the check must judge the relative error,
    # nan here, and so fail at the first case whose oracle is inf
    real = expcoeffs.a_coeff_cfn_series

    def series(j, k, halves):
        values = real(j, k, halves)
        if (j.two_j, k) == (4, 2):
            values[3] = math.inf
        return values

    monkeypatch.setattr(expcoeffs, "a_coeff_cfn_series", series)
    entry = verify._run_check("exp-path-equality", 6)
    assert entry["passed"] is False
    assert entry["detail"].startswith("op=a_coeff_cfn_series j=2 k=2 theta=")
    assert entry["detail"].endswith(" other=inf")
    assert math.isnan(entry["worst"])


@pytest.mark.parametrize(
    "module, attr, name",
    [
        (expcoeffs, "exp_reconstruction", "exp-reconstruction"),
        (cayley, "cayley_reconstruction", "cayley-reconstruction"),
    ],
)
def test_reconstruction_fails_on_a_nan_error(monkeypatch, module, attr, name):
    # nan >= bound is False: a nan error must fail the case, not pass it
    real = getattr(module, attr)

    def reconstruction(j, *args):
        rep = real(j, *args)
        return rep._replace(max_error=math.nan) if j.two_j == 3 else rep

    monkeypatch.setattr(module, attr, reconstruction)
    entry = verify._run_check(name, 6)
    assert entry["passed"] is False
    assert entry["detail"].startswith(f"op={attr} j=3/2 ")
    assert "max_error=nan" in entry["detail"]
    assert math.isnan(entry["worst"])


def _perturbed_terms(monkeypatch, two_j, k, index):
    # one _cfn_sum_terms coefficient off by 1e-9 relative, the cache untouched
    real = expcoeffs._cfn_sum_terms

    def terms(tj, kk):
        out = real(tj, kk)
        if (tj, kk) != (two_j, k):
            return out
        m, c = out[index]
        return out[:index] + ((m, c * (1 + 1e-9)),) + out[index + 1 :]

    monkeypatch.setattr(expcoeffs, "_cfn_sum_terms", terms)


def _perturbed_column(monkeypatch):
    # t(5, 3) one unit off in the Laplace bridge's column, nowhere else
    real = bridge.cfn_pair

    def pair(n, k):
        num, den = real(n, k)
        return (num + den, den) if (n, k) == (5, 3) else (num, den)

    monkeypatch.setattr(bridge, "cfn_pair", pair)


@pytest.mark.parametrize(
    "perturb, name, detail, cases, worst",
    [
        (
            lambda mp: _perturbed_terms(mp, 6, 2, 1),
            "exp-path-equality",
            "op=a_coeff_derivative_path j=3 k=1 theta=-5.759586531581287 "
            "trunc=0.26176285609900113 other=0.2617628561101657",
            552,
            4.2651464898387035e-11,
        ),
        (
            lambda mp: _perturbed_terms(mp, 6, 0, 0),
            "exp-path-equality",
            "op=a_coeff_cfn_series j=3 k=0 theta=-6.283185307179586 trunc=1.0 other=1.000000001",
            526,
            1.0000000817403708e-09,
        ),
        (
            _perturbed_column,
            "laplace-bridge",
            "op=b_from_a_laplace j=5/2 k=2 alpha=-10/7 "
            "laplace=15430100/360431149 direct=1337700/27725473",
            103,
            None,
        ),
    ],
)
def test_verify_reports_the_first_failing_case(monkeypatch, perturb, name, detail, cases, worst):
    # the failing (op, j, k, theta or alpha), the cases counted up to it and
    # the worst error among them are those of the one-point-at-a-time loops
    perturb(monkeypatch)
    entry = verify._run_check(name, 9)
    assert entry["passed"] is False
    assert entry["detail"] == detail
    assert entry["cases"] == cases
    assert entry.get("worst") == worst


def test_fixtures_command(capsys):
    code, out = run(capsys, "fixtures")
    assert code == 0
    assert out.strip() == "20 fixtures passed"


def test_fixtures_fault_injection(capsys, monkeypatch):
    # corrupt one golden value: the run must fail and name the fixture
    bad = dict(fixtures.DET_GOLDEN)
    bad[3] = [1, 10, 8]
    monkeypatch.setattr(fixtures, "DET_GOLDEN", bad)
    code, out = run(capsys, "fixtures")
    assert code == 1
    assert "FIXTURE FAILURE: determinant j=3/2" in out


def test_asymp_command(capsys):
    code, out = run(capsys, "asymp", "--j-list", "1,2", "--k", "1", "--alpha-grid", "1:1:1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,series,value"
    assert any(line.startswith("1.0,j=1,0.2") for line in lines)
    assert any("limit" in line for line in lines)
    # B_0/alpha^0 is defined at alpha = 0, so k = 0 may keep it in the grid
    code, out = run(capsys, "asymp", "--j-list", "1", "--k", "0", "--alpha-grid", "0:1:2")
    assert code == 0
    assert "0.0,j=1,1.0" in out
    # below about 8.7e-309, pi/(2 alpha) overflows to inf: the limit is its x -> inf value
    code, out = run(capsys, "asymp", "--j-list", "1", "--k", "1", "--alpha-grid", "5e-324:1e-320:2")
    assert code == 0
    assert "5e-324,limit,1.0" in out.splitlines()
    assert "1e-320,limit,1.0" in out.splitlines()


@pytest.mark.parametrize("j", ["1", "1/2"])
def test_limit_curves_where_twice_alpha_overflows(capsys, j):
    # above about 8.99e307, 2|alpha| overflows; B_k/alpha^k and its limit are 0 there
    code, out = run(capsys, "asymp", "--j-list", j, "--k", "1", "--alpha-grid", "1e308:1e308:1", "--csv")
    assert (code, out) == (0, f"alpha,series,value\r\n1e+308,j={j},0.0\r\n1e+308,limit,0.0\r\n")
    argv = ["plotdata", "--figure", "cayley-B12", "--j", j, "--alpha-grid=-1e308:-1e308:1", "--csv"]
    code, out = run(capsys, *argv)
    assert (code, out) == (
        0, f"alpha,series,value\r\n-1e+308,j={j} k=1,0.0\r\n-1e+308,limit k=1,0.0\r\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["asymp", "--j-list", "1", "--k", "1", "--alpha-grid", "-5:5:4"],
        ["coeffs", "exp", "--j", "1", "--theta-grid", "-pi:pi:3"],
    ],
)
def test_a_negative_grid_start_needs_the_equals_form(capsys, argv):
    # argparse reads a separate "-5:5:4" as an option, as the README says
    flag, grid = argv[-2:]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: expected one argument" in capsys.readouterr().err
    code, out = run(capsys, *argv[:-2], f"{flag}={grid}")
    assert code == 0
    assert out.splitlines()[1].startswith(("-5.0,", "-3.141592653589793,"))


def _numerators_built(monkeypatch):
    # one entry per scaled_b call: how many B_k numerators it multiplied out
    built = []
    real = cayley.scaled_b

    def counted(two_j, p, q, ks=None):
        nums, den = real(two_j, p, q, ks)
        built.append(len(nums))
        return nums, den

    monkeypatch.setattr(cayley, "scaled_b", counted)
    monkeypatch.setattr(bridge, "scaled_b", counted)
    return built


def test_commands_that_read_some_k_build_only_those_numerators(capsys, monkeypatch):
    built = _numerators_built(monkeypatch)
    for j, k in (("15", "22"), ("7/2", "0"), ("10", "20")):
        built.clear()
        assert run(capsys, "bridge", "--j", j, "--k", k, "--alpha", "0.7")[0] == 0
        assert built == [1]
    built.clear()
    assert run(capsys, "asymp", "--j-list", "5,10,20", "--k", "1", "--alpha-grid", "0.5:2:4")[0] == 0
    assert built == [1] * (3 * 4)  # per spin and alpha
    built.clear()
    assert run(capsys, "plotdata", "--figure", "cayley-B12")[0] == 0
    assert built and set(built) == {len(plots.DEFAULT_KS["cayley-B12"])}
    built.clear()
    argv = ["--j", "7/2", "--k", "1", "--k", "2", "--alpha-grid", "0.1:3:5"]
    assert run(capsys, "plotdata", "--figure", "cayley-B12", *argv)[0] == 0
    assert built == [2] * 5
    # a command that prints every k still builds the whole table
    built.clear()
    assert run(capsys, "coeffs", "cayley", "--j", "3", "--alpha", "0.5")[0] == 0
    assert built == [7]


@pytest.mark.parametrize(
    "argv",
    [
        # a term of the limit's float sum overflows: 171! here, x**120 at x = 698.1 below
        ["asymp", "--j-list", "86", "--k", "171", "--alpha-grid", "1:1:1"],
        ["plotdata", "--figure", "cayley-B12", "--j", "86", "--k", "171", "--alpha-grid", "1:1:1"],
        ["asymp", "--j-list", "61", "--k", "121", "--alpha-grid", "0.00225:0.00225:1"],
    ],
)
def test_limit_curves_past_the_float_range_of_the_partial_sum(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["alpha", "series", "value"] and len(rows) == 3
    assert any(series.startswith("limit") for _, series, _ in rows[1:])
    assert all(0.0 <= float(value) <= 1.0 for _, _, value in rows[1:])


def test_bridge_command(capsys):
    code, out = run(capsys, "bridge", "--j", "3/2", "--k", "1", "--alpha", "0.4")
    assert code == 0
    assert "consistent: True" in out


def test_bridge_fails_on_a_laplace_value_off_by_one_part_in_1e12(capsys, monkeypatch):
    # both sides are the same exact B_k(alpha) rounded once: any gap is a fault
    real = bridge._laplace_ints

    def laplace_ints(*args):
        num, den = real(*args)
        return num * (10**12 + 1), den * 10**12

    monkeypatch.setattr(bridge, "_laplace_ints", laplace_ints)
    code, out = run(capsys, "bridge", "--j", "3/2", "--k", "1", "--alpha", "0.4")
    assert code == 1
    assert "consistent: False" in out


def test_bridge_quadrature_refuses_an_alpha_whose_nodes_overflow(capsys):
    # the quadrature evaluates A_k at 2 alpha t for t up to T: past
    # |alpha| ~ 2.247e306 that product is inf, and the sin of inf raises
    argv = ["bridge", "--j", "1", "--k", "1", "--quadrature"]
    for alpha in ("3e306", "-3e306"):
        assert cli.main([*argv, f"--alpha={alpha}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "spinpoly: error: --quadrature evaluates A_k at up to 2|alpha| * 40.0, "
            f"which overflows at --alpha {float(alpha)!r}\n"
        )
    # inside the range the quadrature runs as before: at 2.2e306 it is far
    # off the exact value, which fails the check with one stderr line giving
    # the miss and the bar; at 1 it agrees and stderr stays empty
    for alpha, want in ((2.2e306, 1), (1.0, 0)):
        assert cli.main([*argv, "--alpha", repr(alpha)]) == want
        captured = capsys.readouterr()
        q = bridge.quadrature_check(HalfInt(2), 1, alpha)
        assert captured.out.splitlines()[-1] == f"B_1[1]({alpha}) quadrature  = {q!r}"
        miss = abs(q - bridge.laplace_pair(HalfInt(2), 1, alpha).b_direct)
        assert captured.err == want * (
            f"spinpoly: quadrature misses the direct value by {miss!r}, "
            f"above the bar 1e-7 + e^-40.0 = {1e-7 + math.exp(-40)!r}\n"
        )


def test_shear_command(capsys):
    code, out = run(capsys, "shear", "--j", "3/2", "--theta", "1")
    assert code == 0
    assert "parameter shear" in out
    code, out = run(capsys, "shear", "--j", "1/2", "--theta", "1")
    assert code == 0
    assert "a single alpha <-> theta map works" in out
    # spin 0 has no nonzero |M|, so no map is fixed and none is claimed
    code, out = run(capsys, "shear", "--j", "0", "--theta", "1")
    assert code == 0
    assert out == "no nonzero |M| in the spectrum: no alpha <-> theta map is fixed\n"


def test_shear_where_m_times_theta_overflows(capsys):
    # m * theta overflows at 1e308 and |M| = 5/2, while the half-angle 1.25e308 is finite
    code, out = run(capsys, "shear", "--j", "5/2", "--theta", "1e308")
    assert code == 0
    assert "nan" not in out
    assert f"|M|=5/2: alpha(theta=1e+308) = {math.tan(1.25e308) / 5.0!r}" in out.splitlines()
    assert bridge.alpha_from_theta(2.5, 1e308) == math.tan(1.25e308) / 5.0
    # where the largest half-angle j * theta / 2 overflows, shear refuses
    for theta in ("1.7e308", "-1.7e308"):
        assert cli.main(["shear", "--j", "5/2", f"--theta={theta}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "spinpoly: error: shear's half-angle j * theta / 2 overflows "
            f"at --theta {float(theta)!r}\n"
        )
    # spin 1/2's half-angle theta / 4 stays finite at the largest theta
    assert cli.main(["shear", "--j", "1/2", "--theta", "1.7976931348623157e308"]) == 0
    capsys.readouterr()
    # a true pole still prints nan: cos(theta / 2) at theta = pi is below 1e-15
    code, out = run(capsys, "shear", "--j", "1", "--theta", "pi")
    assert code == 0
    assert out.splitlines()[0] == "|M|=1: alpha(theta=3.141592653589793) = nan"


def test_plotdata_command_and_determinism(capsys):
    code, first = run(
        capsys, "plotdata", "--figure", "inv-det", "--alpha-grid", "0:2:5"
    )
    assert code == 0
    code, second = run(
        capsys, "plotdata", "--figure", "inv-det", "--alpha-grid", "0:2:5"
    )
    assert first == second
    assert first.splitlines()[0] == "alpha,series,value"
    with pytest.raises(SystemExit) as exc:
        cli.main(["plotdata", "--figure", "nonsense"])
    assert exc.value.code == 2


def test_plotdata_default_ks_follow_the_spins(capsys):
    # j = 1 has A_0..A_2: the default ks 0..5 shrink to them, named by no --k
    argv = ["plotdata", "--figure", "exp-A", "--j", "1", "--theta-grid", "0:1:2"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert [line.split(",")[1] for line in out.splitlines()[1::2]] == [
        "j=1 k=0", "j=1 k=1", "j=1 k=2"
    ]
    assert run(capsys, *argv, "--k", "0", "--k", "1", "--k", "2") == (0, out)
    assert cli.main([*argv, "--k", "3"]) == 2
    assert capsys.readouterr().err == "spinpoly: error: --k 3 is outside 0..2j = 0..2 for j = 1\n"


@pytest.mark.parametrize("j", ["171/2", "90", "100"])
def test_plotdata_inv_det_past_the_float_range_of_det(capsys, j):
    # from 2j = 171 on, the largest determinant coefficient exceeds a float
    code, out = run(capsys, "plotdata", "--figure", "inv-det", "--j", j, "--alpha-grid", "0:2:9")
    assert code == 0
    det = cayley.det_poly(HalfInt.parse(j))
    for line in out.splitlines()[1:]:
        alpha, _, value = line.split(",")
        a = F(float(alpha))
        assert float(value) == float(1 / sum(c * a**i for i, c in enumerate(det)))


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "exp", "--j", "1", "--k", "5"],
        ["coeffs", "exp", "--j", "1", "--theta-grid", "0:1:2", "--k", "5"],
        ["coeffs", "exp", "--j", "1", "--k", "-1"],
        ["bridge", "--j", "1", "--k", "5", "--alpha", "0.5"],
        ["asymp", "--j-list", "1,3", "--k", "5", "--alpha-grid", "1:2:2"],
        ["asymp", "--j-list", "1,2", "--k", "1", "--alpha-grid=-1:1:3"],
        ["plotdata", "--figure", "cayley-B12", "--alpha-grid", "0:1:3"],
        ["asymp", "--j-list", ",", "--alpha-grid", "1:1:1"],
        ["plotdata", "--figure", "cayley-B12", "--k", "5"],
        ["plotdata", "--figure", "exp-A", "--k", "300", "--theta-grid", "0:1:2"],
        ["asymp", "--j-list", "2", "--k", "2", "--alpha-grid", "1e-200:1e-199:2"],
        ["asymp", "--j-list", "40", "--k", "80", "--alpha-grid", "1e4:1e5:2"],
        ["coeffs", "cayley", "--j", "3", "--alpha", "inf"],
        ["coeffs", "cayley", "--j", "3", "--alpha", "nan"],
        ["coeffs", "cayley", "--j", "3", "--alpha-grid", "0:inf:3"],
        ["bridge", "--j", "3", "--k", "1", "--alpha", "inf"],
        ["coeffs", "exp", "--j", "3", "--theta", "inf"],
        ["coeffs", "exp", "--j", "3", "--theta-grid=-1e308:1e308:3"],
        ["coeffs", "exp", "--j", "3", "--theta-grid=nan:1:3"],
        ["cfn", "--n", "4", "--k", "-1"],
        ["cfn", "--n", "-1"],
        ["verify", "--max-two-j", "-1"],
        ["verify", "--fi", "--max-two-j", "-3"],
        ["asymp", "--j-list", "1,3/2", "--k", "1", "--alpha-grid", "1:1:1"],
        ["plotdata", "--figure", "exp-A", "--alpha-grid", "0:1:2"],
        ["plotdata", "--figure", "exp-A", "--theta-grid", "0:1:2", "--alpha-grid", "0:1:2"],
        ["plotdata", "--figure", "inv-det", "--theta-grid", "0:1:2"],
        ["plotdata", "--figure", "cayley-B12", "--theta-grid", "0.5:1:2"],
        ["plotdata", "--figure", "inv-det", "--k", "3"],
        ["plotdata", "--figure", "cayley-B12", "--j", "0"],
        ["coeffs", "cayley", "--j", "1", "--exact", "--csv", "-"],
        ["cfn", "--n", "4", "--csv", "-"],
        ["cfn", "--n", "3", "--k", "1", "--table"],
    ],
)
def test_out_of_range_arguments_exit_2_with_one_line(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("spinpoly: error: ")


def test_single_point_grid_needs_only_a_finite_start(capsys):
    # a count-1 grid never forms stop - start, so an overflowing span is fine
    code, out = run(capsys, "coeffs", "exp", "--j", "1", "--theta-grid=-1e308:1e308:1")
    assert code == 0
    assert out.splitlines()[1] == "-1e+308,0,1.0"


def test_grid_parsing_rejects_bad_spec():
    with pytest.raises(SystemExit):
        cli.main(["coeffs", "exp", "--j", "1", "--theta-grid", "0:pi"])
    # a zero divisor after pi is a usage error, not a ZeroDivisionError
    for argv in (["--theta", "pi/0"], ["--theta-grid", "0:pi/0:3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["coeffs", "exp", "--j", "1", *argv])
        assert exc.value.code == 2
    assert cli._parse_float_token("2pi") == pytest.approx(6.283185307179586)
    assert cli._parse_float_token("pi/2") == pytest.approx(1.5707963267948966)
    assert cli._parse_float_token("-pi") == pytest.approx(-3.141592653589793)


@pytest.mark.parametrize(
    "argv, flag, token",
    [
        (["coeffs", "exp", "--j", "1", "--theta", "abc"], "--theta", "abc"),
        (["coeffs", "exp", "--j", "1", "--theta", "xpi"], "--theta", "xpi"),
        (["coeffs", "cayley", "--j", "1", "--alpha", "1.5.2"], "--alpha", "1.5.2"),
        (["bridge", "--j", "1", "--k", "1", "--alpha", "pi/x"], "--alpha", "pi/x"),
        (["coeffs", "exp", "--j", "1", "--theta-grid", "abc:1:3"], "--theta-grid", "abc"),
        (["asymp", "--j-list", "1", "--alpha-grid", "0:2pix:3"], "--alpha-grid", "2pix"),
    ],
)
def test_an_unparsable_float_names_the_token_not_the_parser(capsys, argv, flag, token):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f"error: argument {flag}: cannot parse {token!r}")
    assert "_parse_float_token" not in err


def _parse(parser, argv, capsys):
    """The namespace parser makes of argv, or its exit code and printed text."""
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def _parsers(parser):
    """parser and every parser below it in the tree."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def _command_paths():
    """The names that select each command and family, as lists, in the order of the tree."""
    for parser in _parsers(cli.build_parser.__wrapped__()):
        if parser.prog != "spinpoly":
            yield parser.prog.split()[1:]


# help, usage and error argvs: each exits through argparse
USAGE_ARGVS = [
    [], ["--help"], ["coeffs"], ["coeffs", "--help"], ["coeffs", "nope"], ["nope"],
    ["verify", "--bogus"], ["cfn"], ["basis"], ["coeffs", "exp"], ["coeffs", "cayley"],
    ["bridge", "--k", "1", "--alpha", "1"], ["shear", "--theta", "1"],
    ["asymp", "--alpha-grid", "1:1:1"], ["plotdata"], ["cfn", "--n", "1", "extra"],
]


def _workload_ops(monkeypatch, outdir):
    """The seed-1 ops of every benchmark workload, writing their CSV files to outdir."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import workloads

    return [op for w in workloads.WORKLOADS for op in workloads.generate(w, 1, outdir)]


def _replay(capsys, calls, cleared):
    """(exit code, stdout, stderr, CSV bytes) of each (argv, csv path) run through main in turn.

    With cleared, every call starts from an empty parser cache.
    """
    out = []
    for argv, path in calls:
        if cleared:
            cli.build_parser.cache_clear()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        # verify reports its run time, the one field that differs between runs
        stdout = re.sub(r'"seconds": [0-9.e+-]+', '"seconds": _', captured.out)
        out.append((code, stdout, captured.err, path and Path(path).read_bytes()))
        if path:
            Path(path).unlink()
    return out


def test_cached_trees_print_what_fresh_trees_print(capsys, monkeypatch, tmp_path):
    calls = [(list(op.argv), op.csv) for op in _workload_ops(monkeypatch, tmp_path)]
    calls += [(argv, None) for argv in USAGE_ARGVS]
    # plotdata calls with --j/--k between calls without: no call may see another's list
    plot = ["plotdata", "--figure", "cayley-B12", "--alpha-grid", "1:2:2"]
    det = ["plotdata", "--figure", "inv-det", "--alpha-grid", "0:1:3"]
    for argv in (plot, plot + ["--j", "3", "--k", "2"], plot, det + ["--j", "1"], det,
                 plot + ["--k", "1"], det + ["--j", "2", "--j", "1"], plot, det):
        calls.append((argv, None))
    once = _replay(capsys, calls, cleared=False)
    assert once == _replay(capsys, calls, cleared=True)
    assert {code for (code, *_), (argv, _) in zip(once, calls) if argv not in USAGE_ARGVS} == {0}
    args = cli.build_parser().parse_args(plot)
    assert args.j is None and args.k is None


@pytest.mark.parametrize("path", list(_command_paths()), ids="-".join)
def test_help_is_the_same_from_both_trees(capsys, path):
    # the cached tree prints the help of a tree built fresh for this call
    argv = path + ["--help"]
    cli.build_parser.cache_clear()
    cached = _parse(cli.build_parser(), argv, capsys)
    fresh = _parse(cli.build_parser.__wrapped__(), argv, capsys)
    assert cached == fresh
    code, out, err = cached
    assert code == 0 and out.startswith(f"usage: spinpoly {' '.join(path)} [-h]") and not err


def test_main_builds_every_branch_once_per_process(capsys, monkeypatch):
    paths = list(_command_paths())
    cli.build_parser.cache_clear()
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    # the first call builds every command and family once; later calls build nothing
    assert run(capsys, "fixtures")[0] == 0
    assert run(capsys, "coeffs", "cayley", "--j", "1/2")[0] == 0
    assert sorted(built) == sorted(path[-1] for path in paths)
    built.clear()
    assert run(capsys, "coeffs", "cayley", "--j", "1")[0] == 0
    assert run(capsys, "fixtures")[0] == 0
    assert built == []
    assert cli.build_parser.cache_info().currsize == 1
    # the tree's top-level usage lists every command
    code, _, err = _parse(cli.build_parser(), ["verify", "--bogus"], capsys)
    assert code == 2 and "{%s}" % ",".join(path[0] for path in paths if len(path) == 1) in err


@pytest.mark.parametrize("columns", ["60", "200"])
def test_help_text_is_argparse_own_at_the_terminal_width(monkeypatch, columns):
    # the tree is built at one width and prints help at another: the cached tree
    # must wrap as a tree built at the width in force when help is printed
    cli.build_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "200" if columns == "60" else "60")
    cached = list(_parsers(cli.build_parser()))
    monkeypatch.setenv("COLUMNS", columns)
    fresh = _parsers(cli.build_parser.__wrapped__())
    for parser, other in itertools.zip_longest(cached, fresh):
        assert parser.formatter_class is argparse.HelpFormatter, parser.prog
        assert (parser.format_help(), parser.format_usage()) == (
            other.format_help(), other.format_usage()
        ), parser.prog


def test_a_cached_branch_reads_no_terminal_width(capsys, monkeypatch):
    import shutil

    calls = []
    size = shutil.get_terminal_size

    def counting(*args, **kwargs):
        calls.append(1)
        return size(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counting)
    cli.build_parser.cache_clear()
    assert run(capsys, "coeffs", "exp", "--j", "1")[0] == 0
    assert calls  # building the tree formats each argument once
    calls.clear()
    assert run(capsys, "coeffs", "exp", "--j", "1/2")[0] == 0
    assert calls == []


def _csv_oracle(header, rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _value(field):
    """The int, Fraction or float a field prints, or the field itself if it is a label."""
    for kind in (int, float, F):
        try:
            return kind(field)
        except ValueError:
            pass
    return field


@pytest.mark.parametrize(
    "argv",
    [
        ["cfn", "--n", "9", "--table", "--csv", "FILE"],
        ["basis", "--j", "5/2", "--inverse"],
        ["basis", "--j", "3", "--duals", "--csv", "-"],
        ["basis", "--j", "2", "--csv", "FILE"],
        ["coeffs", "exp", "--j", "7/2", "--theta-grid=-4pi:4pi:9"],
        ["coeffs", "exp", "--j", "3", "--theta-grid=-0:1:3", "--csv", "FILE"],
        ["coeffs", "exp", "--j", "3", "--k", "1", "--theta-grid=-0:0:1"],
        ["coeffs", "exp", "--j", "12", "--k", "5", "--theta-grid=-2pi:8pi:7", "--csv", "-"],
        ["coeffs", "cayley", "--j", "5/2", "--alpha-grid", "0:2:5", "--csv", "FILE"],
        ["asymp", "--j-list", "2,4", "--k", "1", "--alpha-grid", "0.5:2:4"],
        ["plotdata", "--figure", "exp-A", "--theta-grid", "0:4pi:5"],
        ["plotdata", "--figure", "cayley-B12", "--alpha-grid", "0.5:2:3", "--csv", "-"],
        ["plotdata", "--figure", "inv-det", "--csv", "FILE"],
    ],
)
def test_emitted_csv_is_csv_writer_output_byte_for_byte(capsys, monkeypatch, tmp_path, argv):
    target = tmp_path / "out.csv"
    argv = [str(target) if a == "FILE" else a for a in argv]
    emitted = []
    emit = cli._emit_csv

    def recording(header, lines, path):
        emitted.append((header, lines))
        emit(header, lines, path)

    monkeypatch.setattr(cli, "_emit_csv", recording)
    code, out = run(capsys, *argv)
    assert code == 0 and len(emitted) == 1
    header, lines = emitted[0]
    assert lines
    # the lines are written as formatted: read each back into the values it prints
    rows = []
    for line in lines:
        assert line.endswith("\r\n"), line
        fields = line[:-2].split(",")
        values = tuple(_value(f) for f in fields)
        # csv.writer prints str(value): each field must be its value's own str
        assert len(fields) == len(header) and [str(v) for v in values] == fields, line
        rows.append(values)
    written = target.read_bytes().decode() if str(target) in argv else out
    assert written == _csv_oracle(header, rows)
    # the lines are not quoted: no field may need quoting
    for field in itertools.chain(header, *rows):
        if isinstance(field, str):
            assert not set(field) & set(',"\r\n'), field


@pytest.mark.parametrize(
    "point, grid",
    [
        (["coeffs", "exp", "--j", "7/2", "--theta", "pi/3"],
         ["coeffs", "exp", "--j", "7/2", "--theta-grid", "pi/3:pi/3:1"]),
        (["coeffs", "exp", "--j", "3", "--theta=-0", "--k", "1"],
         ["coeffs", "exp", "--j", "3", "--theta-grid=-0:-0:1", "--k", "1"]),
        (["coeffs", "exp", "--j", "2"], ["coeffs", "exp", "--j", "2", "--theta-grid", "0:0:1"]),
        (["coeffs", "cayley", "--j", "5/2", "--alpha", "0.7"],
         ["coeffs", "cayley", "--j", "5/2", "--alpha-grid", "0.7:0.7:1"]),
        (["coeffs", "cayley", "--j", "2"], ["coeffs", "cayley", "--j", "2", "--alpha-grid", "1:1:1"]),
    ],
)
def test_csv_at_one_point_is_the_one_point_grid(capsys, tmp_path, point, grid):
    # --csv is never dropped: at one angle or alpha it writes that point's grid
    files = tmp_path / "point.csv", tmp_path / "grid.csv"
    for argv, target in zip((point, grid), files):
        assert run(capsys, *argv, "--csv", str(target)) == (0, "")
    assert files[0].read_bytes() == files[1].read_bytes()
    assert run(capsys, *point, "--csv")[1].encode() == files[1].read_bytes()


# every output mode of every command whose parser takes --csv
CSV_ARGVS = {
    ("cfn",): [["--n", "4"], ["--n", "4", "--k", "1"], ["--n", "4", "--table"]],
    ("basis",): [["--j", "1"], ["--j", "1", "--inverse"], ["--j", "1", "--duals"]],
    ("coeffs", "exp"): [
        ["--j", "1"], ["--j", "1", "--theta", "1"], ["--j", "1", "--k", "2"],
        ["--j", "1", "--theta-grid", "0:1:2"],
    ],
    ("coeffs", "cayley"): [
        ["--j", "1"], ["--j", "1", "--exact"], ["--j", "1", "--alpha", "2"],
        ["--j", "1", "--alpha-grid", "1:2:2"],
    ],
    ("asymp",): [["--j-list", "1", "--alpha-grid", "1:2:2"]],
    ("plotdata",): [
        ["--figure", "exp-A", "--theta-grid", "0:1:2"],
        ["--figure", "cayley-B12", "--alpha-grid", "1:2:2"],
        ["--figure", "inv-det", "--alpha-grid", "0:1:2"],
    ],
}


def test_every_csv_option_writes_its_file_or_exits_2(capsys, tmp_path):
    takes_csv = {
        tuple(parser.prog.split()[1:]) for parser in _parsers(cli.build_parser())
        if "--csv" in parser._option_string_actions
    }
    assert set(CSV_ARGVS) == takes_csv
    for path, argvs in CSV_ARGVS.items():
        for argv in argvs:
            target = tmp_path / f"{'-'.join(path + tuple(argv))}.csv"
            code = cli.main([*path, *argv, "--csv", str(target)])
            captured = capsys.readouterr()
            if code == 0:
                assert target.exists() and not captured.out, argv
            else:
                assert code == 2 and not target.exists(), argv
                assert captured.err.startswith("spinpoly: error: ")
                assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["coeffs", "exp", "--j", "1", "--theta-grid", "0:1:2", "--csv", "{tmp}/missing/x.csv"],
         "No such file or directory"),
        (["basis", "--j", "1", "--csv", "{tmp}"], "Is a directory"),
    ],
)
def test_an_unwritable_csv_path_exits_2_with_one_line(tmp_path, argv, reason):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    done = _child("-m", "spinpoly", *argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"spinpoly: error: cannot write {argv[-1]}: {reason}\n"


# each grid command and the evaluator it computes with
GRID_EVALUATORS = [
    (["coeffs", "exp", "--j", "2", "--theta-grid", "0:1:3"], "spinpoly.expcoeffs.exp_grid"),
    (["coeffs", "cayley", "--j", "2", "--alpha-grid", "1:2:3"], "spinpoly.cayley.eval_coeffs"),
    (["basis", "--j", "2"], "spinpoly.cli.vandermonde"),
    (["cfn", "--n", "4", "--table"], "spinpoly.cli.cfn"),
    (["asymp", "--j-list", "2", "--alpha-grid", "1:2:3"], "spinpoly.cayley.eval_coeffs"),
    (["plotdata", "--figure", "inv-det"], "spinpoly.plots.figure_rows"),
]
GRID_IDS = ["-".join(argv[:2] if argv[0] == "coeffs" else argv[:1]) for argv, _ in GRID_EVALUATORS]


@pytest.mark.parametrize("argv, evaluator", GRID_EVALUATORS, ids=GRID_IDS)
def test_an_unwritable_csv_path_is_refused_before_any_work(
    capsys, monkeypatch, tmp_path, argv, evaluator
):
    def computed(*args, **kwargs):
        raise AssertionError("computed before the --csv path was opened")

    monkeypatch.setattr(evaluator, computed)
    path = tmp_path / "missing" / "x.csv"
    assert cli.main([*argv, "--csv", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"spinpoly: error: cannot write {path}: No such file or directory\n"


@pytest.mark.parametrize("argv, evaluator", GRID_EVALUATORS, ids=GRID_IDS)
def test_a_command_that_raises_leaves_no_new_csv_file(monkeypatch, tmp_path, argv, evaluator):
    def failing(*args, **kwargs):
        raise RuntimeError("evaluator failed")

    monkeypatch.setattr(evaluator, failing)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("kept\n")
    for path in (new, old):
        with pytest.raises(RuntimeError, match="evaluator failed"):
            cli.main([*argv, "--csv", str(path)])
    # the file the command created is gone; one that was there before stays as it was
    assert not new.exists() and old.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [argv for argv, _ in GRID_EVALUATORS], ids=GRID_IDS)
def test_a_csv_file_that_exists_is_overwritten(capsys, tmp_path, argv):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("a longer line than any of the rows written here\n" * 1000)
    for path in (new, old):
        assert cli.main([*argv, "--csv", str(path)]) == 0
    assert old.read_bytes() == new.read_bytes()
    assert not capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, head",
    [
        # each prints megabytes, far past what a pipe buffers
        (["coeffs", "cayley", "--j", "60", "--exact"], b"B_0: num = [1, 0, "),
        (["coeffs", "exp", "--j", "5", "--theta-grid", "0:1:10000", "--csv"], b"theta,k,A_k\r\n"),
    ],
)
def test_a_closed_stdout_ends_the_command_without_a_traceback(argv, head):
    # as `spinpoly ... | head -1` does: read one line, then close the pipe
    with subprocess.Popen(
        [sys.executable, "-m", "spinpoly", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    ) as child:
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=120)
    assert first.startswith(head)
    assert err == b""
    assert code == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv, target",
    [
        (["cfn", "--n", "3", "--table", "--csv", "/dev/full"], "/dev/full"),
        (["coeffs", "exp", "--j", "1", "--theta-grid", "0:1:3", "--csv", "/dev/full"],
         "/dev/full"),
        (["cfn", "--n", "3"], "stdout"),
        (["coeffs", "exp", "--j", "5", "--theta-grid", "0:1:10000", "--csv"], "stdout"),
    ],
)
def test_a_failed_write_exits_2_with_one_line(argv, target):
    # /dev/full opens, and every write or flush to it fails with ENOSPC
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "spinpoly", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=_child_env(),
        )
    assert done.stderr == f"spinpoly: error: cannot write {target}: No space left on device\n"
    assert done.returncode == 2


@pytest.mark.parametrize("argv", [argv for argv, _ in GRID_EVALUATORS], ids=GRID_IDS)
def test_a_failed_csv_write_exits_2_and_leaves_no_new_file(capsys, monkeypatch, tmp_path, argv):
    def full(header, lines, out):
        out.write(",".join(header))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "_emit_csv", full)
    path = tmp_path / "new.csv"
    assert cli.main([*argv, "--csv", str(path)]) == 2
    assert not path.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"spinpoly: error: cannot write {path}: {os.strerror(errno.ENOSPC)}\n"
