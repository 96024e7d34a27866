"""Every definition in src/spinpoly has a caller in src/spinpoly.

A function, class or method that only tests reach is a test helper that
the library carries: it belongs in tests/oracles.py.  A reference is a
loaded Name or Attribute in some src module, outside the definition's own
body; an import, a docstring or a comment that mentions the name is not
one.  Dunder methods are reached by the language, not by name, and so is
_make on a NamedTuple subclass, which NamedTuple's _replace calls.  Exempt
are the names the benchmark's tracer wraps or counts (perfbench/layers.py
TARGETS and CACHES, read as test_bench_names.py reads them) and
project_coefficients, the documented general entry point.  A second
guard keeps cfn.cfn, the Fraction form of t(n, k), to the cfn command.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spinpoly"

ENTRY_POINTS = {("spinpoly.basis", "project_coefficients")}


def _definitions(tree):
    """(qualified name, node) of each top-level function and class and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{sub.name}", sub


def _named_tuples(tree):
    """Names of the module's classes that derive from NamedTuple, directly or through another."""
    names = {"NamedTuple"}
    for node in tree.body:  # a base class is defined before the classes that derive from it
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id in names for base in node.bases
        ):
            names.add(node.name)
    return names - {"NamedTuple"}


def _loaded_names(tree):
    """(name, node) of each Name and Attribute the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node


def unreferenced(exempt, src=SRC):
    """Qualified names of the definitions in src that nothing else in src reads."""
    trees = {f"spinpoly.{path.stem}": ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    refs = [ref for tree in trees.values() for ref in _loaded_names(tree)]
    out = []
    for module, tree in trees.items():
        named_tuples = _named_tuples(tree)
        for qualname, node in _definitions(tree):
            owner, _, name = qualname.rpartition(".")
            if (name.startswith("__") and name.endswith("__")) or (module, qualname) in exempt:
                continue
            if name == "_make" and owner in named_tuples:
                continue
            own = {id(sub) for sub in ast.walk(node)}
            if not any(ref == name and id(at) not in own for ref, at in refs):
                out.append(f"{module}.{qualname}")
    return out


def test_every_src_definition_has_a_caller_in_src(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import layers

    exempt = {(module, attr) for _, module, attr, _ in layers.TARGETS}
    exempt |= set(layers.CACHES.values()) | ENTRY_POINTS
    assert unreferenced(exempt) == []


def test_a_test_only_function_is_reported(tmp_path):
    # the guard itself: a definition only its own body calls is caught,
    # while one reached from another module is not
    (tmp_path / "a.py").write_text(
        '"""mentions lonely in a docstring"""\n'
        "from typing import NamedTuple\n"
        "def lonely(n):\n    return lonely(n - 1) if n else 0\n"
        "def used():\n    return 1\n"
        "class Box:\n    def __len__(self):\n        return 0\n"
        "    def unused(self):\n        return 0\n"
        # _make is exempt on a NamedTuple subclass only
        "class _Fields(NamedTuple):\n    x: int\n"
        "class Record(_Fields):\n    @classmethod\n    def _make(cls, it):\n        return cls(*it)\n"
        "class Plain:\n    @classmethod\n    def _make(cls, it):\n        return cls()\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import Box, Plain, Record, lonely, used\nX = used(), Box(), Plain(), Record(1)\n"
    )
    assert unreferenced(set(), tmp_path) == [
        "spinpoly.a.lonely", "spinpoly.a.Box.unused", "spinpoly.a.Plain._make"
    ]


def test_only_the_cli_reads_central_factorial_fractions():
    # the library reads t(n, k) as cfn_pair's integers; cfn.cfn, the Fraction
    # form, is the cfn command's alone
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "cfn":
                    callers.add(path.stem)
    assert callers == {"cli"}
