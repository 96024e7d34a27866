"""Closed-loop benchmark of spinpoly commands, one workload per run.

    python3 perfbench/run.py --workload cayley-grid --seed 1 --seconds 20 --trace 0

Run from the repository root; it needs nothing but the standard library
and the sources under ./src.  A run repeats passes of the workload, each
in a fresh interpreter (perfbench/worker.py), until the next pass would
end past --seconds; at least one pass runs.  Every op's output is checked
after its pass against references in perfbench/refs.py.

Op and setup times are rescaled to the reference host's speed with
calibrations timed in the same interpreter, between the ops and right
after setup (see op_ms() and README.md); the plain wall-clock metrics go
to the record as end_to_end_wall.

--trace 0 reports the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
of the traced ones, plus trace.overhead, the traced over the untraced
ops_per_s.  Human-readable lines go first; the last line of stdout is one
JSON object.  A record with the same numbers, stamped with the commit,
seed, Python version, nproc and platform, is written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, layers, workloads  # noqa: E402
from perfbench.worker import CALIBRATIONS_AT_START  # noqa: E402

SETUP_SAMPLES = 12     # setup-only interpreters per run, besides each pass's own
# typical median of timer.calibration_ns() in a pass on the reference host,
# a shared 2-vCPU Xeon virtual machine at 2.0 GHz with Python 3.11.7
CAL_REF_NS = 2.6e6
RUN_BUDGET_S = 170.0   # a run must end within 180 s
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"


def stamp(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return {
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(workload: str, seed: int, outdir: Path, deadline: float, *extra: str) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError(f"run budget of {RUN_BUDGET_S} s spent")
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(seed), "--outdir", str(outdir), *extra,
           "--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_pass(workload: str, seed: int, pass_no: int, ops: list, res: dict) -> list[str]:
    """One reason per failed op of the pass; empty when all passed.

    The sampled rows depend on the pass number too, so every pass of a run
    checks other rows of the same (deterministic) outputs.
    """
    failures = []
    for i, op in enumerate(ops):
        reason = res["errors"][i]
        if reason is None:
            rng = random.Random(f"check:{workload}:{seed}:{pass_no}:{i}")
            reason = checks.check_op(op, res["codes"][i], res["stdouts"][i], rng)
        if reason is not None:
            failures.append(f"op {i} {' '.join(op.argv)}: {reason}")
    return failures


def speed(calibration_ns: list[int]) -> float:
    """Host speed while the calibrations ran, relative to the reference host."""
    return CAL_REF_NS / statistics.median(calibration_ns)


def op_ms(p: dict, scaled: bool = True) -> list[float]:
    """A pass's op times in ms, each rescaled by the calibrations nearest it.

    The worker times k = CALIBRATIONS_AT_START calibrations before the
    first op and one after every op, so op i lies between calibrations
    k + i - 1 and k + i; it gets the speed of the two before it and the
    two after it.
    """
    d, c, k = p["durations_ns"], p["calibration_ns"], CALIBRATIONS_AT_START
    return [x / 1e6 * (speed(c[k + i - 2:k + i + 2]) if scaled else 1.0) for i, x in enumerate(d)]


def ops_per_s(passes: list[dict], scaled: bool = True) -> float:
    """Median over passes of ops completed without failure per second of op time."""
    return statistics.median(
        (len(p["durations_ns"]) - p["failed"]) / (sum(op_ms(p, scaled)) / 1e3) for p in passes)


def end_to_end(passes: list[dict], setups: list[dict], scaled: bool = True) -> dict:
    """The end-to-end metrics; scaled=False gives plain wall-clock times.

    ``setups`` are worker results; each setup time is rescaled by the
    calibrations its own interpreter timed right after setup.
    """
    ms = [t for p in passes for t in op_ms(p, scaled)]
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    setup = [s["setup_s"] * (speed(s["calibration_ns"][:CALIBRATIONS_AT_START]) if scaled else 1.0)
             for s in setups]
    return {
        "ops_per_s": (ops_per_s(passes, scaled), "1/s", len(ms)),
        "op_p50_ms": (deciles[4], "ms", len(ms)),
        "op_p90_ms": (deciles[8], "ms", len(ms)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MiB", len(passes)),
    }


def per_layer_metrics(untraced: list[dict], traced: list[dict], absent: list[str]) -> dict:
    names = traced[0]["per_layer"]
    out = {
        name: (statistics.median(p["per_layer"][name] for p in traced), layers.unit(name), len(traced))
        for name in names
    }
    out["trace.overhead"] = (ops_per_s(traced) / ops_per_s(untraced), "ratio", len(traced))
    out["trace.absent_names"] = (len(absent), "count", 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spinpoly" / "cli.py").is_file():
        print(f"perfbench: no spinpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    outdir = TMP / f"{args.workload}-{args.seed}-{os.getpid()}"
    ops = workloads.generate(args.workload, args.seed, outdir)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.csv"

    setups = [spawn(args.workload, args.seed, outdir, deadline, "--setup-only")
              for _ in range(SETUP_SAMPLES)]
    untraced, traced, failures = [], [], []
    measured = 0.0
    try:
        while True:
            trace_this = bool(args.trace) and len(traced) < len(untraced)
            outdir.mkdir(parents=True, exist_ok=True)
            t = time.monotonic()
            extra = ("--spans", str(spans_path)) if trace_this else ()
            res = spawn(args.workload, args.seed, outdir, deadline, *extra)
            measured += time.monotonic() - t
            pass_failures = check_pass(args.workload, args.seed, len(untraced) + len(traced),
                                       ops, res)
            res["failed"] = len(pass_failures)
            failures += pass_failures
            shutil.rmtree(outdir)
            setups.append(res)
            (traced if trace_this else untraced).append(res)
            done = len(untraced) + len(traced)
            if args.trace and not traced:
                continue
            if measured + measured / done > args.seconds:
                break
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        if TMP.is_dir() and not any(TMP.iterdir()):
            TMP.rmdir()

    attempted = len(ops) * (len(untraced) + len(traced))
    failed = len(failures)
    e2e = end_to_end(untraced, setups)
    absent = sorted(set(traced[0]["absent"])) if traced else []
    metrics = per_layer_metrics(untraced, traced, absent) if args.trace else e2e
    record = {
        "stamp": stamp(args.workload, args.seed, args.seconds, bool(args.trace)),
        "passes": [
            {"traced": p in traced, "op_seconds": sum(p["durations_ns"]) / 1e9,
             "speed": speed(p["calibration_ns"])}
            for p in untraced + traced
        ],
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "setups": [{"setup_s": s["setup_s"], "calibration_ns": s["calibration_ns"][:CALIBRATIONS_AT_START]}
                   for s in setups],
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
        "end_to_end_wall": {k: {"value": v, "unit": u, "samples": n}
                            for k, (v, u, n) in end_to_end(untraced, setups, scaled=False).items()},
    }
    if args.trace:
        record["per_layer"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}
        record["absent"] = absent
        record["spans_by_name"] = traced[-1]["spans_by_name"]
        record["spans_file"] = spans_path.name
    OUT.joinpath(f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    s = record["stamp"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)}+{len(traced)} commit={s['commit'][:12]} "
          f"python={s['python']} nproc={s['nproc']}")
    for name, (value, unit, n) in {**e2e, **(metrics if args.trace else {})}.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<6} ({n} samples)")
    print(f"  {'fail_ratio':<48} {failed / attempted:>14.6g} {'ratio':<6} ({failed}/{attempted} ops)")
    for line in failures[:5]:
        print(f"  FAILED {line}", file=sys.stderr)
    if absent:
        print(f"  absent: {', '.join(absent)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
