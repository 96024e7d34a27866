"""Timers of the benchmark: host-speed calibration and span recording.

Spans live in memory as lists ``[name, start_ns, end_ns, parent, op, cold,
child_ns]`` and are summarised or written out after the last op.  A
span's self time is its duration minus ``child_ns``, the time covered by
the spans it caused.  Standard library only.
"""

from __future__ import annotations

import csv
import functools
import sys
from fractions import Fraction
from time import perf_counter_ns

NAME, START, END, PARENT, OP, COLD, CHILD = range(7)
FIELDS = ("calls", "total_ns", "self_ns", "cold_calls", "cold_ns", "warm_calls", "warm_ns")


def calibration_ns() -> int:
    """Wall time of a fixed piece of exact rational arithmetic.

    It shares no code with spinpoly but does the same kind of work (big
    Fraction Horner steps), so its time tracks the speed the host gives
    this process at the moment; see run.py for how it is used.
    """
    start = perf_counter_ns()
    x = Fraction(3**40 + 1, 2**61)
    acc = Fraction(0)
    for c in range(1, 120):
        acc = acc * x + Fraction(c, 2 * c + 1)
    return perf_counter_ns() - start


class Tracer:
    """Span recorder for one pass; ``op`` is the index of the current op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, key=None):
        """``fn`` recording one span per call under ``name``.

        With ``key``, a span is cold when it is the first call with that
        key(*args) in this process, else warm.
        """
        spans, stack = self.spans, self._stack
        seen: set = set()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cold = None
            if key is not None:
                try:
                    k = key(*args)
                except (TypeError, AttributeError, IndexError):
                    k = None  # signature changed: no cold/warm split
                if k is not None:
                    cold = k not in seen
                    seen.add(k)
            parent = stack[-1] if stack else -1
            rec = [name, 0, 0, parent, self.op, cold, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = end = perf_counter_ns()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - rec[START]

        return traced

    def install(self, name: str, module: str, attr: str, key=None) -> None:
        """Wrap ``module.attr`` everywhere the package binds that object.

        ``from .exact import poly_mul`` binds a second name in the importing
        module, so every module under the same top-level package is
        scanned.  A dotted attr ("Class.method") is patched on the class.
        A module or attr that does not exist is recorded in ``absent``.
        """
        owner = sys.modules.get(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        orig = getattr(owner, leaf, None)
        if orig is None:
            self.absent.append(name)
            return
        traced = self.wrap(name, orig, key)
        if path:
            setattr(owner, leaf, traced)
            return
        package = module.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == package or mod_name.startswith(package + "."):
                for attr_name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr_name, traced)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self time, cold/warm split (ns)."""
        out: dict[str, dict] = {}
        for name, start, end, _parent, _op, cold, child in self.spans:
            s = out.setdefault(name, dict.fromkeys(FIELDS, 0))
            dur = end - start
            s["calls"] += 1
            s["total_ns"] += dur
            s["self_ns"] += dur - child
            if cold is not None:
                tag = "cold" if cold else "warm"
                s[tag + "_calls"] += 1
                s[tag + "_ns"] += dur
        return out

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("index", "name", "start_ns", "end_ns", "parent", "op", "cold", "self_ns"))
            for i, (name, start, end, parent, op, cold, child) in enumerate(self.spans):
                flag = "" if cold is None else int(cold)
                writer.writerow((i, name, start, end, parent, op, flag, end - start - child))
