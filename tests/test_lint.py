"""Source checks: soundness guards must survive ``python -O``."""

import ast
from pathlib import Path

import dipath


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a guard written as one vanishes;
    # guards raise EngineError instead.
    found = []
    for path in sorted(Path(dipath.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert not found, f"assert statements in dipath: {found}"
