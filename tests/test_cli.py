import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinpoly
from spinpoly import cli, fixtures


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_module_entrypoint_help():
    # the child does not see pytest's pythonpath; point it at this package
    paths = [str(Path(spinpoly.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "spinpoly", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "spin matrix" in proc.stdout.lower()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["coeffs", "exp"])  # missing --j
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["basis", "--j", "1.3"])  # not a half-integer
    assert exc.value.code == 2


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


def test_coeffs_cayley_command(capsys):
    code, out = run(capsys, "coeffs", "cayley", "--j", "1", "--exact")
    assert code == 0
    assert "B_1: num = [0, 1], den = [1, 0, 4]" in out
    code, out = run(capsys, "coeffs", "cayley", "--j", "1/2", "--alpha", "1")
    assert code == 0
    assert "k=0  B_k = 0.5" in out


def test_verify_command_json(capsys):
    code, out = run(capsys, "verify", "--max-two-j", "4")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert "fundamental-identity" in names and "laplace-bridge" in names
    code, out = run(capsys, "verify", "--fi", "--max-two-j", "20")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_basis_default_prints_vandermonde(capsys):
    code, out = run(capsys, "basis", "--j", "1/2")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["1,1", "1,-1"]


def test_verify_failure_exit_code_and_context(capsys, monkeypatch):
    from spinpoly import cayley

    real = cayley.det_gamma
    monkeypatch.setattr(cayley, "det_gamma", lambda j, a: real(j, a) * (1.0 + 1e-6))
    code, out = run(capsys, "verify", "--max-two-j", "2")
    assert code == 1
    report = json.loads(out)
    bad = [c for c in report["checks"] if not c["passed"]]
    assert bad
    assert "op=det_gamma" in bad[0]["detail"]
    assert "alpha=" in bad[0]["detail"] and "j=" in bad[0]["detail"]


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


def test_bridge_command(capsys):
    code, out = run(capsys, "bridge", "--j", "3/2", "--k", "1", "--alpha", "0.4")
    assert code == 0
    assert "consistent: True" in out


def test_shear_command(capsys):
    code, out = run(capsys, "shear", "--j", "3/2", "--theta", "1")
    assert code == 0
    assert "parameter shear" in out
    code, out = run(capsys, "shear", "--j", "1/2", "--theta", "1")
    assert code == 0
    assert "a single alpha <-> theta map works" in out


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
    ],
)
def test_out_of_range_arguments_exit_2_with_one_line(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("spinpoly: error: ")


def test_grid_parsing_rejects_bad_spec():
    with pytest.raises(SystemExit):
        cli.main(["coeffs", "exp", "--j", "1", "--theta-grid", "0:pi"])
    assert cli._parse_float_token("2pi") == pytest.approx(6.283185307179586)
    assert cli._parse_float_token("pi/2") == pytest.approx(1.5707963267948966)
    assert cli._parse_float_token("-pi") == pytest.approx(-3.141592653589793)
