"""Source checks: soundness guards must survive ``python -O``."""

import ast
from pathlib import Path

import dipath


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a guard written as one vanishes;
    # guards raise EngineError instead.  A raised AssertionError survives -O
    # but escapes the CLI's error contract as a traceback, so it is refused
    # too.
    found = []
    for path in sorted(Path(dipath.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert)
                     or isinstance(node, ast.Raise) and node.exc is not None
                     and _raises_assertion_error(node))
    assert not found, f"assert guards in dipath: {found}"


# the integer sweeps of the PL kernel; Fraction belongs to its boundary
SWEEPS = {"compose", "inverse", "tensor", "_blocks", "_canonical", "_lerp",
          "_lowest"}


def test_pl_sweeps_build_no_fraction():
    path = Path(dipath.__file__).parent / "reparam.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    sweeps = {node.name: node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name in SWEEPS}
    assert set(sweeps) == SWEEPS, f"missing sweeps: {SWEEPS - set(sweeps)}"
    found = [f"{name}:{node.lineno}" for name, fn in sorted(sweeps.items())
             for node in ast.walk(fn)
             if isinstance(node, ast.Call) and (
                 isinstance(node.func, ast.Name) and node.func.id == "Fraction"
                 or isinstance(node.func, ast.Attribute)
                 and node.func.attr == "Fraction")]
    assert not found, f"Fraction built inside a PL sweep: {found}"
