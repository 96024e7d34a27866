"""Closed-loop benchmark of the spinpoly command surface.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see README.md in this
directory for the workloads, metrics and predictions.
"""
