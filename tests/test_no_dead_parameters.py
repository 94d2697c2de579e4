"""Every parameter of every function in src/passirad is read in its body.

An option that no code reads looks like a knob but changes nothing; this
AST check keeps such parameters from coming back.  A read inside a nested
function or lambda counts for the enclosing parameter it closes over.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "passirad"


def _parameters(fn) -> list:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return names


def _reads(fn) -> set:
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    return {
        node.id
        for stmt in body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def dead_parameters(path: Path) -> list:
    """(function, parameter) pairs of ``path`` whose parameter is never read."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(fn, "name", "<lambda>")
        reads = _reads(fn)
        found.extend(
            (f"{path.name}:{fn.lineno} {name}", p) for p in _parameters(fn) if p not in reads
        )
    return found


def test_the_check_sees_a_dead_parameter(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def f(a, tol=None):\n    return a\n\n"
        "def g(x, *, tol):\n    def inner():\n        return tol\n    return inner() + x\n",
        encoding="utf-8",
    )
    assert dead_parameters(sample) == [("sample.py:1 f", "tol")]


def test_every_parameter_in_the_package_is_read():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    found = [hit for path in files for hit in dead_parameters(path)]
    assert found == []
