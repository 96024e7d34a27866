"""The layers the traced run wraps, and the per-layer metrics derived.

Layers are the spinpoly modules.  Each target is a public callable,
named by the module that defines it; the tracer wraps it wherever the
package binds it.  A target a later change removes is reported absent and
its metrics read 0.  All metrics are per pass: one fresh interpreter
running the workload's whole op list once.
"""

from __future__ import annotations

import sys

from .timer import FIELDS


def _spin(j, *_rest):
    return j.two_j


def _spin_k(j, k, *_rest):
    return (j.two_j, k)


# (span name, module, attribute, key of the cold/warm split or None)
TARGETS = (
    ("cli.main", "spinpoly.cli", "main", None),
    ("exact.ratfunc_eval", "spinpoly.exact", "RationalFunction.__call__", None),
    ("exact.poly_mul", "spinpoly.exact", "poly_mul", None),
    ("cfn.cfn", "spinpoly.cfn", "cfn", None),
    ("expcoeffs.a_coeff_trunc", "spinpoly.expcoeffs", "a_coeff_trunc", _spin_k),
    ("expcoeffs.a_coeff_cfn_series", "spinpoly.expcoeffs", "a_coeff_cfn_series", None),
    ("expcoeffs.a_coeff_derivative_path", "spinpoly.expcoeffs", "a_coeff_derivative_path", None),
    ("expcoeffs.exp_reconstruction", "spinpoly.expcoeffs", "exp_reconstruction", None),
    ("cayley.b_coeffs", "spinpoly.cayley", "b_coeffs", _spin),
    ("cayley.b_coeffs_cfn", "spinpoly.cayley", "b_coeffs_cfn", None),
    ("cayley.b_coeffs_recursion", "spinpoly.cayley", "b_coeffs_recursion", None),
    ("cayley.cayley_reconstruction", "spinpoly.cayley", "cayley_reconstruction", None),
    ("cayley.resolvent_coeffs", "spinpoly.cayley", "resolvent_coeffs", None),
    ("cayley.det_forms", "spinpoly.cayley", "det_forms", None),
    ("basis.vandermonde_inverse", "spinpoly.basis", "vandermonde_inverse", _spin),
    ("basis.verify_fundamental_identity", "spinpoly.basis", "verify_fundamental_identity", None),
    ("bridge.laplace_pair", "spinpoly.bridge", "laplace_pair", None),
    ("bridge.b_from_a_laplace", "spinpoly.bridge", "b_from_a_laplace", None),
    ("verify.run_verify", "spinpoly.verify", "run_verify", None),
)

# per-layer metric -> (module, lru_cache'd function); the value is the
# cache's miss count, i.e. the number of entries built in the pass
CACHES = {
    "cfn.rows_built": ("spinpoly.cfn", "_row"),
    "expcoeffs.series_built": ("spinpoly.expcoeffs", "_series"),
    "cayley.tables_built": ("spinpoly.cayley", "_b_coeffs"),
    "basis.inverses_built": ("spinpoly.basis", "_vandermonde_inverse"),
}

LAYERS = ("cli", "exact", "cfn", "expcoeffs", "cayley", "basis", "bridge", "verify")


def cache_counts() -> tuple[dict[str, int], list[str]]:
    """Cache misses per CACHES entry, and the metrics whose cache is absent."""
    counts, absent = {}, []
    for metric, (module, attr) in CACHES.items():
        fn = getattr(sys.modules.get(module), attr, None)
        if fn is None or not hasattr(fn, "cache_info"):
            counts[metric] = 0
            absent.append(metric)
        else:
            counts[metric] = fn.cache_info().misses
    return counts, absent


def per_layer(summary: dict[str, dict], caches: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from the tracer summary."""
    empty = dict.fromkeys(FIELDS, 0)

    def s(name):
        return summary.get(name, empty)

    def ms(ns):
        return ns / 1e6

    def per_call_us(ns, calls):
        return ns / calls / 1e3 if calls else 0.0

    layer_self = dict.fromkeys(LAYERS, 0)
    for name, rec in summary.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0) + rec["self_ns"]

    out = {f"{layer}.self_ms": ms(layer_self[layer]) for layer in LAYERS}
    out["trace.op_ms"] = ms(s("cli.main")["total_ns"])
    out["trace.ops"] = s("cli.main")["calls"]
    ev = s("exact.ratfunc_eval")
    out["exact.ratfunc_eval.calls"] = ev["calls"]
    out["exact.ratfunc_eval.us_per_call"] = per_call_us(ev["total_ns"], ev["calls"])
    out["exact.ratfunc_eval.total_ms"] = ms(ev["total_ns"])
    pm = s("exact.poly_mul")
    out["exact.poly_mul.calls"] = pm["calls"]
    out["exact.poly_mul.self_ms"] = ms(pm["self_ns"])
    out["cfn.cfn.calls"] = s("cfn.cfn")["calls"]
    tr = s("expcoeffs.a_coeff_trunc")
    out["expcoeffs.a_coeff_trunc.calls"] = tr["calls"]
    out["expcoeffs.a_coeff_trunc.cold_ms"] = ms(tr["cold_ns"])
    out["expcoeffs.a_coeff_trunc.warm_us_per_call"] = per_call_us(tr["warm_ns"], tr["warm_calls"])
    bc = s("cayley.b_coeffs")
    out["cayley.b_coeffs.calls"] = bc["calls"]
    out["cayley.b_coeffs.cold_ms"] = ms(bc["cold_ns"])
    vi = s("basis.vandermonde_inverse")
    out["basis.vandermonde_inverse.calls"] = vi["calls"]
    out["basis.vandermonde_inverse.cold_ms_per_call"] = per_call_us(vi["cold_ns"], vi["cold_calls"]) / 1e3
    out["basis.vandermonde_inverse.total_ms"] = ms(vi["total_ns"])
    out["verify.run_verify.total_ms"] = ms(s("verify.run_verify")["total_ns"])
    for name in ("expcoeffs.exp_reconstruction", "cayley.cayley_reconstruction",
                 "cayley.b_coeffs_recursion", "basis.verify_fundamental_identity"):
        out[f"{name}.self_ms"] = ms(s(name)["self_ns"])
    out["bridge.b_from_a_laplace.calls"] = s("bridge.b_from_a_laplace")["calls"]
    out.update(caches)
    return out


def unit(metric: str) -> str:
    if metric == "trace.overhead":
        return "ratio"
    if metric.endswith("us_per_call"):
        return "us"
    if metric.endswith("_ms") or metric.endswith("ms_per_call"):
        return "ms"
    return "count"
