"""Source checks: soundness guards must survive ``python -O``."""

import ast
import importlib
import importlib.util
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


def test_every_traced_name_resolves_in_dipath():
    # bench/spans.py wraps these functions by name; a rename that drops one
    # would leave its per-layer figures silently at zero
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(module, attr) for _, module, attr, _ in spans.TRACED]
    assert names, "bench/spans.py traces nothing"
    missing = []
    for module, attr in names + [("rational", "parse_fraction")]:
        owner = importlib.import_module(f"dipath.{module}")
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        if owner is None or not callable(vars(owner).get(name)):
            missing.append(f"{module}.{attr}")
    assert not missing, f"traced names missing from dipath: {missing}"
