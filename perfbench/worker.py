"""One pass of a workload in a fresh interpreter.

Started by run.py as ``python3 -m perfbench.worker ...`` from the
repository root, so every lru_cache in spinpoly starts empty, as it does
for a user of the command line.  The pass imports spinpoly from ./src,
generates its op list from the seed, then calls ``spinpoly.cli.main`` on
each op in turn (one client, closed loop) and prints one JSON line with
the per-op timings, exit codes and captured output.  Outputs are checked
by the parent after the pass, outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALIBRATIONS_AT_START = 3   # then one after every op, outside its timing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--t0-ns", type=int, required=True, help="time.monotonic_ns() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="trace the pass; write spans here")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from spinpoly import cli
    from perfbench import workloads

    ops = workloads.generate(args.workload, args.seed, Path(args.outdir))
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9

    from perfbench import timer

    calibration = [timer.calibration_ns() for _ in range(CALIBRATIONS_AT_START)]
    result: dict = {"setup_s": setup_s, "calibration_ns": calibration}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    from perfbench import layers

    tracer = None
    if args.spans:
        tracer = timer.Tracer()
        for name, module, attr, key in layers.TARGETS:
            tracer.install(name, module, attr, key)

    durations, codes, errors, stdouts = [], [], [], []
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
        buf = io.StringIO()
        err = None
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a failed pass
            rc, err = None, repr(exc)
        durations.append(time.perf_counter_ns() - start)
        calibration.append(timer.calibration_ns())
        codes.append(rc)
        errors.append(err)
        stdouts.append(buf.getvalue() if op.kind in ("bridge", "verify") else "")

    result.update(
        durations_ns=durations,
        codes=codes,
        errors=errors,
        stdouts=stdouts,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer:
        summary = tracer.summary()
        caches, absent_caches = layers.cache_counts()
        result["per_layer"] = layers.per_layer(summary, caches)
        result["absent"] = tracer.absent + absent_caches
        result["spans_by_name"] = summary
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
