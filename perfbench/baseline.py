"""Run every workload on several seeds and summarise the spread.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline/BENCH_0.json

For each workload of BENCHMARK.json this runs perfbench/run.py once per
seed with tracing off, then once with tracing on (first seed), each for
BENCHMARK.json's run_seconds.  It prints for every end-to-end metric its
median, quartiles and quartile spread as a share of the median, next to
the metric's bound.  With --out it writes the runs and the summary as one
JSON record, stamped like the per-run records; committed, that record is
the "before" of the next performance change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import run as bench_run  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads((bench_run.OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            runs.append(one_run(workload, seed, seconds, 0))
            print(f"# {workload} seed {seed}: {runs[-1]['end_to_end']}", file=sys.stderr)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "end_to_end": {},
            "runs": runs,
        }
        print(f"{workload}: {len(runs)} runs, fail_ratio {failed / attempted:g} ({failed}/{attempted})")
        for name, bound in bounds.items():
            unit = runs[0]["end_to_end"][name]["unit"]
            s = spread([r["end_to_end"][name]["value"] for r in runs])
            wall = spread([r["end_to_end_wall"][name]["value"] for r in runs])
            s.update(unit=unit, bound=bound, wall=wall)
            entry["end_to_end"][name] = s
            print(f"  {name:<12} {s['median']:>12.6g} {unit:<4} q1 {s['q1']:<10.6g} q3 {s['q3']:<10.6g}"
                  f" spread {s['iqr_share']:.4f} (bound {bound}, bound/3 {bound / 3:.4f};"
                  f" unscaled wall time: median {wall['median']:.6g}, spread {wall['iqr_share']:.4f})")
        traced = one_run(workload, args.seeds[0], seconds, 1)
        entry["per_layer"] = traced["per_layer"]
        entry["traced_run"] = {k: traced[k] for k in ("stamp", "absent", "spans_by_name")}
        summary[workload] = entry

    if args.out:
        stamp = bench_run.stamp("all", args.seeds[0], seconds, False)
        for key in ("workload", "seed", "trace"):
            stamp.pop(key)
        stamp["seeds"] = args.seeds
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"stamp": stamp, "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
