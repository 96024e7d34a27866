"""Tests of the benchmark's own code: inputs, references, checks, tracer."""

from __future__ import annotations

import csv
import json
import math
import random
import shutil
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import checks, refs, timer, workloads
from spinpoly import cli
from spinpoly.fixtures import CAYLEY_GOLDEN, DET_GOLDEN, VINV_GOLDEN

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_argv_lists_come_from_the_seed_alone(workload, tmp_path):
    first = workloads.generate(workload, 7, tmp_path)
    assert first == workloads.generate(workload, 7, tmp_path)
    assert first != workloads.generate(workload, 8, tmp_path)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_composition_is_the_same_for_every_seed(workload, tmp_path):
    def mix(seed):
        return Counter((op.kind, op.two_j) for op in workloads.generate(workload, seed, tmp_path))

    assert mix(1) == mix(2) == mix(3)


def _eval(coeffs, x):
    return sum(Fraction(c) * x**i for i, c in enumerate(coeffs))


def test_cayley_reference_matches_golden_tables():
    for two_j, table in CAYLEY_GOLDEN.items():
        for alpha in (Fraction(1, 3), Fraction(-5, 2), Fraction(7)):
            for k, (num, den) in enumerate(table):
                assert refs.cayley_a(two_j, k, alpha) == _eval(num, alpha) / _eval(den, alpha)


def test_determinant_and_cfn_references_match_golden_determinants():
    for two_j, even in DET_GOLDEN.items():
        assert list(refs._det_elementary(two_j)) == even
        n = two_j + 2
        assert [4**i * refs.cfn_abs(n)[n - 2 * i] for i in range(len(even))] == even


def test_exp_reference_matches_closed_forms():
    for theta in (0.3, 2.0, 5.5, 11.0):
        s, c = math.sin(theta / 2), math.cos(theta / 2)
        assert refs.exp_a(1, 0, theta) == pytest.approx(c, rel=1e-15)
        assert refs.exp_a(1, 1, theta) == pytest.approx(s, rel=1e-15)
        assert refs.exp_a(2, 0, theta) == 1.0
        assert refs.exp_a(2, 1, theta) == pytest.approx(s * c, rel=1e-15)
        assert refs.exp_a(2, 2, theta) == pytest.approx(s * s, rel=1e-15)


def test_vandermonde_reference_inverts_golden_inverse():
    for two_j, inv in VINV_GOLDEN.items():
        v = refs.vandermonde(two_j)
        n = two_j + 1
        for i in range(n):
            for col in range(n):
                assert sum(v[i][p] * inv[p][col] for p in range(n)) == (i == col)


def _smallest(workload, kind, tmp_path):
    ops = [op for op in workloads.generate(workload, 3, tmp_path) if op.kind == kind]
    return min(ops, key=lambda op: op.two_j)


def _rewrite(path, row, col, fn):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = fn(rows[row][col])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _run(op):
    Path(op.csv).parent.mkdir(parents=True, exist_ok=True)
    assert cli.main(list(op.argv)) == 0


def _rng():
    return random.Random(0)


def test_cayley_check_flags_one_perturbed_value(tmp_path):
    op = _smallest("cayley-grid", "cayley", tmp_path)
    _run(op)
    assert checks.check_cayley(op, _rng(), count=None) is None
    shutil.copy(op.csv, tmp_path / "good.csv")
    _rewrite(op.csv, 5, 2, lambda x: repr(float(x) * (1 + 1e-10)))
    assert checks.check_cayley(op, _rng(), count=None) is not None
    shutil.copy(tmp_path / "good.csv", op.csv)
    _rewrite(op.csv, 1, 3, lambda x: repr(float(x) + 1e-9))  # A_0: absolute bound
    assert checks.check_cayley(op, _rng(), count=None) is not None


def test_exp_check_flags_one_perturbed_value(tmp_path):
    op = _smallest("exp-cold", "exp", tmp_path)
    _run(op)
    assert checks.check_exp(op, _rng(), count=None) is None
    _rewrite(op.csv, 40, 2, lambda x: repr(float(x) * (1 + 1e-10)))
    assert checks.check_exp(op, _rng(), count=None) is not None


def test_basis_check_flags_any_perturbed_entry_when_sampling(tmp_path):
    op = _smallest("oracles", "basis", tmp_path)
    _run(op)
    shutil.copy(op.csv, tmp_path / "good.csv")
    n = op.two_j + 1
    assert checks.check_basis(op, _rng()) is None
    for row in range(1, n + 1):
        for col in range(n):
            shutil.copy(tmp_path / "good.csv", op.csv)
            _rewrite(op.csv, row, col, lambda x: str(Fraction(x) + Fraction(1, 1000)))
            assert checks.check_basis(op, _rng()) is not None, (row, col)


def test_verify_and_bridge_checks_use_exit_code_and_report():
    op = workloads.Op("verify", ("verify", "--max-two-j", "2"), 2, None)
    good = json.dumps({"passed": True, "checks": []})
    assert checks.check_op(op, 0, good, _rng()) is None
    assert checks.check_op(op, 1, good, _rng()) is not None
    assert checks.check_op(op, 0, json.dumps({"passed": False}), _rng()) is not None
    assert checks.check_op(op, 0, "not json", _rng()) is not None
    bridge = workloads.Op("bridge", ("bridge", "--j", "1", "--k", "0", "--alpha", "0.5"), 2, None)
    assert checks.check_op(bridge, 0, "", _rng()) is None
    assert checks.check_op(bridge, 1, "", _rng()) is not None


def test_underflowed_references_compare_by_magnitude():
    assert checks.close(0.0, 1e-320)
    assert checks.close(5e-324, 0.0)
    assert not checks.close(1e-300, 1e-320)


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")
    exec("def inner(x):\n    return x + 1\n\ndef outer(x):\n    return inner(x) * 2\n", mod.__dict__)
    user.inner = mod.inner  # as "from .core import inner" binds it
    for m in (pkg, mod, user):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    return mod, user


def test_tracer_self_time_cold_flags_and_absent_names(fake_package):
    mod, user = fake_package
    tracer = timer.Tracer()
    tracer.install("core.inner", "fakepkg.core", "inner", key=lambda x: x)
    tracer.install("core.outer", "fakepkg.core", "outer")
    tracer.install("core.gone", "fakepkg.core", "gone")
    tracer.install("other.fn", "fakepkg.missing", "fn")
    assert tracer.absent == ["core.gone", "other.fn"]
    assert user.inner is mod.inner
    assert mod.inner.__wrapped__.__name__ == "inner"
    tracer.op = 4
    assert mod.outer(1) == 4
    assert user.inner(1) == 2
    outer, inner, again = tracer.spans
    assert outer[timer.NAME] == "core.outer" and inner[timer.PARENT] == 0
    assert inner[timer.COLD] is True and again[timer.COLD] is False
    assert outer[timer.CHILD] == inner[timer.END] - inner[timer.START]
    assert {span[timer.OP] for span in tracer.spans} == {4}
    summary = tracer.summary()
    assert summary["core.inner"]["calls"] == 2
    assert summary["core.outer"]["self_ns"] == (
        outer[timer.END] - outer[timer.START] - outer[timer.CHILD])


def test_run_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracles", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reported_metrics_match_benchmark_json():
    from perfbench import layers, run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    passes = [{"durations_ns": list(range(1, 101)), "failed": 0, "peak_rss_mb": 20.0,
               "calibration_ns": [run.CAL_REF_NS / 2] * 103, "per_layer": layers.per_layer({}, layers.cache_counts()[0])}]
    setups = [{"setup_s": 0.2, "calibration_ns": [run.CAL_REF_NS / 2] * 3}]
    e2e = run.end_to_end(passes, setups)
    wall = run.end_to_end(passes, setups, scaled=False)
    # calibration at half the reference time: the host ran twice as fast
    assert e2e["ops_per_s"][0] == pytest.approx(wall["ops_per_s"][0] / 2)
    assert e2e["op_p90_ms"][0] == pytest.approx(2 * wall["op_p90_ms"][0])
    assert e2e["setup_s"][0] == pytest.approx(2 * wall["setup_s"][0])
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == {(k, v[1]) for k, v in e2e.items()}
    traced = run.per_layer_metrics(passes, passes, [])
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == {(k, v[1]) for k, v in traced.items()}
