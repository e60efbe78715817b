"""Source checks: soundness guards survive ``python -O``, the PL kernel and
path layers stay integer, the package exports what it imports, and no
module imports a name it never uses."""

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
          "_lowest", "_ratio", "_straighten"}

# the path layers read a length as the (num, den) pair ending ``pts``
PAIR_READERS = {
    "cellcomplex.py": {"Complex._measure", "Complex._lay", "repar_normal",
                       "_lands_on", "normal_path_to_json"},
    "reparam.py": {"absorb"},
    "gspace.py": {"elem_make", "elem_normalize"},
}
FRACTION_VIEWS = {"src_len", "dst_len", "total_len", "length", "breaks"}


def _functions(module: str, names: set) -> dict:
    """The named top-level functions and Class.method methods of a module."""
    path = Path(dipath.__file__).parent / module
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found.update((f"{node.name}.{sub.name}", sub) for sub in node.body
                         if isinstance(sub, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            found[node.name] = node
    missing = names - set(found)
    assert not missing, f"missing from {module}: {sorted(missing)}"
    return {name: found[name] for name in sorted(names)}


def _fraction_calls(fn) -> list:
    return [node.lineno for node in ast.walk(fn)
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "Fraction"
                or isinstance(node.func, ast.Attribute)
                and node.func.attr == "Fraction")]


def test_pl_sweeps_build_no_fraction():
    found = [f"{name}:{line}"
             for name, fn in _functions("reparam.py", SWEEPS).items()
             for line in _fraction_calls(fn)]
    assert not found, f"Fraction built inside a PL sweep: {found}"


def test_path_layers_read_lengths_as_integer_pairs():
    found = []
    for module, names in sorted(PAIR_READERS.items()):
        for name, fn in _functions(module, names).items():
            found += [f"{name}:{line} Fraction" for line in _fraction_calls(fn)]
            found += [f"{name}:{node.lineno} .{node.attr}"
                      for node in ast.walk(fn)
                      if isinstance(node, ast.Attribute)
                      and node.attr in FRACTION_VIEWS]
    assert not found, f"Fraction lengths on a path layer: {found}"


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


def test_all_exports_each_public_import_once():
    # a deletion must leave neither a dangling export nor an import that
    # is never exported
    path = Path(dipath.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    exported = dipath.__all__
    assert len(exported) == len(set(exported)), "duplicates in __all__"
    assert set(exported) == public
    missing = [name for name in exported if not hasattr(dipath, name)]
    assert not missing, f"__all__ names missing from dipath: {missing}"


def test_no_module_imports_a_name_it_never_uses():
    # a deletion must not leave behind the imports only it needed; the
    # package's own re-exports count as used through __all__
    found = []
    for path in sorted(Path(dipath.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used.update(dipath.__all__)
        found += [f"{path.name}:{node.lineno} {name}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for name in (a.asname or a.name.split(".")[0]
                               for a in node.names)
                  if name not in used]
    assert not found, f"unused imports in dipath: {found}"


def test_input_limits_are_decided_before_the_interpreter_guesses():
    # the nesting limit is counted before decoding and the digit rule is
    # applied where rationals become text, so no handler may guess either
    # from an interpreter error afterwards
    found = [f"{path.name}: {word}"
             for path in sorted(Path(dipath.__file__).parent.glob("*.py"))
             for word in ("RecursionError", "integer string conversion")
             if word in path.read_text(encoding="utf-8")]
    assert not found, f"interpreter limits guessed in dipath: {found}"
    (run,) = _functions("cli.py", {"run"}).values()
    handlers = [node.type for node in ast.walk(run)
                if isinstance(node, ast.ExceptHandler)]
    assert [ast.unparse(h) for h in handlers] == ["EngineError"]


def test_every_error_class_is_raised_somewhere():
    # a deletion must not leave behind an error code that no module raises;
    # an error built first and raised later (make_obj, check_normal_path)
    # counts, so every call of the class is looked for
    from dipath import errors

    classes = {name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.EngineError)
               and cls is not errors.EngineError}
    built = set()
    for path in sorted(Path(dipath.__file__).parent.glob("*.py")):
        if path.name != "errors.py":
            tree = ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path))
            built.update(node.func.id for node in ast.walk(tree)
                         if isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Name))
    assert classes, "no error classes found"
    assert not classes - built, f"never raised: {sorted(classes - built)}"


def test_compose_sweep_calls_no_helper_per_break():
    # the merge sweep makes one output break per step, and a function call
    # per break was its largest cost: only gcd and list appends run there
    (compose,) = _functions("reparam.py", {"compose"}).values()
    loops = [node for node in ast.walk(compose) if isinstance(node, ast.While)]
    assert len(loops) == 1, "compose has no single merge loop"
    found = [f"{node.lineno}: {ast.unparse(node.func)}"
             for stmt in loops[0].body for node in ast.walk(stmt)
             if isinstance(node, ast.Call) and not (
                 isinstance(node.func, ast.Name)
                 and node.func.id in {"gcd", "len"}
                 or isinstance(node.func, ast.Attribute)
                 and node.func.attr == "append")]
    assert not found, f"calls in compose's merge sweep: {found}"
