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
