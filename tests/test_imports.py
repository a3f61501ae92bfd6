"""Imports and parameters under src/homcert/: each is read somewhere in
its module or function, and importing the CLI stays free of numpy.  The
package holds no assert statement: `python -O` strips them, so
invariants must raise."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "homcert"


def unused_imports(source):
    """(line, name) of each name an import binds that the module never
    reads; a name listed in a literal __all__ counts as read."""
    tree = ast.parse(source)
    bound = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                elt.value
                for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant)
            )
    return [(line, name) for line, name in bound if name not in used]


def test_scanner_finds_unused():
    src = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nfrom fractions import Fraction as F\n"
        "from json import dumps\n__all__ = ['dumps']\nprint(os.sep)\n"
    )
    assert unused_imports(src) == [(2, "math"), (4, "F")]


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_parameters(source):
    """(line, function, parameter) of each parameter a function never
    reads, nested functions included; self and cls, dunder methods and
    lambdas are skipped."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        a = node.args
        params = [
            p
            for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
            if p is not None
        ]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name)
        }
        found += [
            (node.lineno, node.name, p.arg)
            for p in params
            if p.arg not in ("self", "cls") and p.arg not in read
        ]
    return found


def test_parameter_scanner_finds_unused():
    src = (
        "def f(a, b, *args, c=1, **kw):\n"
        "    g = lambda x, y: x\n"
        "    def inner(z):\n        return b\n"
        "    return a + len(kw)\n"
        "class C:\n"
        "    def m(self, u):\n        return 0\n"
        "    @classmethod\n    def k(cls):\n        return 1\n"
        "    def __exit__(self, *exc):\n        return False\n"
    )
    assert unused_parameters(src) == [
        (1, "f", "args"),
        (1, "f", "c"),
        (3, "inner", "z"),
        (7, "m", "u"),
    ]


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def assert_lines(source):
    """Line of each assert statement in the module."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
    ]


def test_scanner_finds_asserts():
    src = '"""assert in a docstring"""\nx = 1\nif x:\n    assert x, "x"\n'
    assert assert_lines(src) == [4]


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_asserts(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def test_cli_import_leaves_numpy_out():
    """numpy serves only the floating eigenvalue report, so importing the
    CLI must not pay for it."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, homcert.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
