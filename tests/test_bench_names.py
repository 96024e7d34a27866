"""Every library name the benchmark's tracer wraps or counts still exists.

perfbench/layers.py names spinpoly callables (TARGETS) and lru caches
(CACHES); a name that no longer resolves reads 0 and is reported as
absent, so removing or renaming one of them breaks the benchmark's
per-layer records silently.
"""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _resolve(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_traced_targets_and_caches_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import layers

    missing = [name for name, module, attr, _ in layers.TARGETS if not callable(_resolve(module, attr))]
    assert not missing
    uncached = [
        metric
        for metric, (module, attr) in layers.CACHES.items()
        if not hasattr(_resolve(module, attr), "cache_info")
    ]
    assert not uncached
