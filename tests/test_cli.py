"""CLI behaviour: reports, exit codes, and determinism."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dipath
from dipath.cellcomplex import Complex, NormalPath
from dipath.cli import run
from fixture_lib import CORPUS


def invoke(capsys, *argv):
    status = run(list(argv))
    out = capsys.readouterr().out
    return status, out


def test_validate_square(corpus_dir, capsys):
    status, out = invoke(capsys, "validate", str(corpus_dir / "square.json"))
    assert status == 0
    report = json.loads(out)
    assert report == {"states": 4, "cells": 5, "loop_free": True}


def test_validate_missing_file(corpus_dir, capsys):
    status, out = invoke(capsys, "validate", str(corpus_dir / "nope.json"))
    assert status == 2
    assert json.loads(out)["error"] == "bad_input"


def test_validate_broken_complex(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "states": ["0"],
        "cells": [{"id": "e", "dim": 0, "from": "0", "to": "9"}],
    }))
    status, out = invoke(capsys, "validate", str(bad))
    assert status == 2
    assert json.loads(out)["error"] == "unknown_state"


EDGE = {"id": "e", "dim": 0, "from": "0", "to": "1"}


@pytest.mark.parametrize("data", [
    {"states": ["0", "1"], "cells": [dict(EDGE, dim=0.7)]},
    {"states": ["0", "1"], "cells": [dict(EDGE, dim=False)]},
    {"states": ["0", "1"], "cells": [dict(EDGE, dim="0")]},
    {"states": "01", "cells": []},
    {"states": ["0", "1"], "cells": {"e": EDGE}},
    {"states": ["0", "1"], "cells": [["e", 0, "0", "1"]]},
], ids=["fractional_dim", "bool_dim", "string_dim", "string_states",
        "object_cells", "list_cell"])
def test_malformed_complex_fields_are_rejected(tmp_path, capsys, data):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    status, out = invoke(capsys, "validate", str(bad))
    assert status == 2
    assert json.loads(out)["error"] == "bad_input"


@pytest.mark.parametrize("field, value", [
    ("triples", [["al", "0", "be"], ["be", 0, "ga"]]),
    ("triples", [["al", 0.0, "be"], ["be", 0, "ga"]]),
    ("triples", [["al", False, "be"], ["be", 0, "ga"]]),
    ("triples", [["al", 0], ["be", 0, "ga"]]),
    ("entries", 5),
], ids=["string_flag", "float_flag", "bool_flag", "short_triple",
        "int_entries"])
def test_malformed_elements_are_rejected(corpus_dir, tmp_path, capsys,
                                         field, value):
    elem = json.loads((corpus_dir / "elem_two_runs.json").read_text())
    elem[field] = value
    bad = tmp_path / "elem.json"
    bad.write_text(json.dumps(elem))
    status, out = invoke(capsys, "reedy-normalize",
                         str(corpus_dir / "triangle.json"), str(bad),
                         "--cell", "t")
    assert status == 2
    assert json.loads(out)["error"] == "bad_input"


@pytest.mark.parametrize("data", [
    {"states": ["a", ["x"]], "cells": []},
    {"states": ["0", 1], "cells": []},
    {"states": ["0", "1"], "cells": [dict(EDGE, id=7)]},
    {"states": ["0", "1"], "cells": [dict(EDGE, id=None)]},
    {"states": ["0", "1"], "cells": [dict(EDGE, **{"from": 0})]},
    {"states": ["0", "1"], "cells": [dict(EDGE, to=["1"])]},
], ids=["list_state", "int_state", "int_id", "null_id", "int_from",
        "list_to"])
def test_non_string_names_are_rejected(tmp_path, capsys, data):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    status, out = invoke(capsys, "validate", str(bad))
    assert status == 2
    assert json.loads(out)["error"] == "bad_input"


def test_non_string_step_cell_is_rejected(corpus_dir, tmp_path, capsys):
    path = json.loads((corpus_dir / "path_a.json").read_text())
    path["step"]["cell"] = 1
    bad = tmp_path / "path.json"
    bad.write_text(json.dumps(path))
    status, out = invoke(capsys, "normalize", str(corpus_dir / "square.json"),
                         str(bad))
    assert status == 2
    assert json.loads(out)["error"] == "bad_input"


UNIT_LAW = {"src": "1", "dst": "1", "breaks": [["0", "0"], ["1", "1"]]}


@pytest.mark.parametrize("command, data", [
    ("normalize", {"step": {"cell": "sq", "z": "0", "chi": UNIT_LAW}}),
    ("normalize", {"step": {"cell": "sq", "z": {"0": 1}, "chi": UNIT_LAW}}),
    ("normalize", {"step": {"cell": "a", "z": [], "chi": dict(
        UNIT_LAW, breaks=["00", "11"])}}),
    ("reedy-normalize", {"u": "al", "v": "ga", "triples": [["al", 1, "ga"]],
                         "entries": [{"cellpath": {"z": "0",
                                                   "chi": UNIT_LAW}}]}),
    ("reedy-normalize", {"u": "al", "v": "be", "triples": [["al", 0, "be"]],
                         "entries": [{"path": {"from": "al", "to": "be",
                                               "segs": [{"cell": "a", "z": "",
                                                         "chi": UNIT_LAW}]}}]}),
], ids=["string_z", "object_z", "string_break_pairs", "string_cellpath_z",
        "string_seg_z"])
def test_strings_and_objects_are_refused_where_arrays_belong(
        corpus_dir, tmp_path, capsys, command, data):
    # each character of a string or key of an object would otherwise be
    # read as one item, and the input accepted
    bad = tmp_path / "input.json"
    bad.write_text(json.dumps(data))
    complex_, *cell = (("square",) if command == "normalize"
                       else ("triangle", "--cell", "t"))
    status, out = invoke(capsys, command, str(corpus_dir / f"{complex_}.json"),
                         str(bad), *cell)
    assert status == 2
    assert json.loads(out)["error"] == "bad_input"


@pytest.mark.parametrize("where", ["u", "triple", "path_from", "seg_cell"])
def test_non_string_element_names_are_rejected(corpus_dir, tmp_path, capsys,
                                               where):
    elem = json.loads((corpus_dir / "elem_two_runs.json").read_text())
    if where == "u":
        elem["u"] = 0
    elif where == "triple":
        elem["triples"][0][2] = ["be"]
    elif where == "path_from":
        elem["entries"][0]["path"]["from"] = None
    else:
        elem["entries"][1]["path"]["segs"][0]["cell"] = 2
    bad = tmp_path / "elem.json"
    bad.write_text(json.dumps(elem))
    status, out = invoke(capsys, "reedy-normalize",
                         str(corpus_dir / "triangle.json"), str(bad),
                         "--cell", "t")
    assert status == 2
    assert json.loads(out)["error"] == "bad_input"


LONG_LIST, LONG_NAME = list(range(50_000)), "x" * 50_000


@pytest.mark.parametrize("command, data, value", [
    ("validate", {"states": [LONG_LIST], "cells": []}, LONG_LIST),
    ("validate", {"states": ["0", "1"], "cells": [LONG_LIST]}, LONG_LIST),
    ("validate", {"states": ["0", "1"], "cells": [dict(EDGE, dim=LONG_NAME)]},
     LONG_NAME),
    ("normalize", LONG_LIST, LONG_LIST),
    ("normalize", {LONG_NAME: []}, LONG_NAME),
    ("reedy-normalize", [LONG_LIST], LONG_LIST),
    ("reedy-normalize", [{LONG_NAME: []}], LONG_NAME),
], ids=["list_state", "list_cell", "string_dim", "list_expression",
        "expression_kind", "list_entry", "entry_kind"])
def test_error_details_cut_the_refused_value(corpus_dir, tmp_path, capsys,
                                              command, data, value):
    # the detail quotes the first 40 characters of the refused value's
    # repr, never the whole value
    if command == "reedy-normalize":
        entries = data
        data = json.loads((corpus_dir / "elem_two_runs.json").read_text())
        data["entries"] = entries
    bad = tmp_path / "input.json"
    bad.write_text(json.dumps(data))
    argv = {"validate": [str(bad)],
            "normalize": [str(corpus_dir / "square.json"), str(bad)],
            "reedy-normalize": [str(corpus_dir / "triangle.json"), str(bad),
                                "--cell", "t"]}[command]
    status, out = invoke(capsys, command, *argv)
    assert status == 2
    report = json.loads(out)
    assert report["error"] == "bad_input"
    assert report["detail"].endswith(repr(value)[:40])
    assert len(report["detail"]) < 100


HUGE_NAME = "y" * 100_000


def _step_json(cell):
    return {"step": {"cell": cell, "z": [], "chi": UNIT_LAW}}


def _globe_json(**fields):
    globe = dict(EDGE, id=HUGE_NAME, dim=1, boundary_minus=_step_json("e"),
                 boundary_plus=_step_json("e"))
    return dict(globe, **fields)


# the states and cells of each case that validates a complex
VALIDATE_CASES = {
    "validate_state": (["0", "1"], [dict(EDGE, to=HUGE_NAME)]),
    "validate_boundary": (["0", "1"], [EDGE, dict(
        EDGE, id="g", dim=1, boundary_minus=_step_json("e"),
        boundary_plus=_step_json(HUGE_NAME))]),
    "validate_dim": (["0", "1"], [dict(EDGE, id=HUGE_NAME, dim="0")]),
    "validate_from": (["0", "1"], [dict(EDGE, id=HUGE_NAME, **{"from": 0})]),
    "validate_dim_two": (["0", "1"], [dict(EDGE, id=HUGE_NAME, dim=2)]),
    "validate_edge_boundary": (["0", "1"], [dict(
        EDGE, id=HUGE_NAME, boundary_minus=_step_json("e"))]),
    "validate_one_side": (["0", "1"], [EDGE, _globe_json(boundary_plus=None)]),
    "validate_boundary_ends": (["0", "1", "2"], [EDGE, _globe_json(to="2")]),
    "validate_concat": (["0", "1", HUGE_NAME], [
        EDGE, dict(EDGE, id="f", **{"from": HUGE_NAME}),
        _globe_json(boundary_minus={"moore": [_step_json("e"),
                                              _step_json("f")]})]),
}


@pytest.mark.parametrize("command, error", [
    ("normalize", "unknown_cell"),
    ("validate_state", "unknown_state"),
    ("validate_boundary", "forward_reference"),
    ("pushout_check", "unknown_cell"),
    ("carriers", "unknown_state"),
    ("validate_dim", "bad_input"),
    ("validate_from", "bad_input"),
    ("validate_dim_two", "bad_dim"),
    ("validate_edge_boundary", "bad_dim"),
    ("validate_one_side", "bad_dim"),
    ("validate_boundary_ends", "boundary_endpoint_mismatch"),
    ("validate_concat", "endpoint_mismatch"),
    ("reedy_chain", "endpoint_mismatch"),
])
def test_unknown_names_are_cut_in_the_detail(corpus_dir, tmp_path, capsys,
                                             command, error):
    # a cell id or state, known or not, is quoted by its first 40
    # characters, never whole
    bad = tmp_path / "input.json"
    square, triangle = (str(corpus_dir / f"{name}.json")
                        for name in ("square", "triangle"))
    if command in VALIDATE_CASES:
        states, cells = VALIDATE_CASES[command]
        bad.write_text(json.dumps({"states": states, "cells": cells}))
    else:
        bad.write_text(json.dumps({
            "normalize": _step_json(HUGE_NAME),
            "reedy_chain": {"u": "al", "v": "ga", "entries": [],
                            "triples": [["al", 0, HUGE_NAME],
                                        ["be", 0, "ga"]]},
        }.get(command)))
    argv = {"normalize": ["normalize", square, str(bad)],
            "pushout_check": ["pushout-check", triangle, "--cell", HUGE_NAME,
                              "--bound", "2"],
            "carriers": ["carriers", square, "--from", HUGE_NAME,
                         "--to", "top"],
            "reedy_chain": ["reedy-normalize", triangle, str(bad),
                            "--cell", "t"]}.get(command, ["validate", str(bad)])
    status, out = invoke(capsys, *argv)
    assert status == 2
    report = json.loads(out)
    assert report["error"] == error
    assert HUGE_NAME[:40] in report["detail"]
    assert len(report["detail"]) < 120


def deep_path(kind, depth):
    """A path ``depth`` levels deep whose innermost Moore or NormComp
    joins two steps that do not meet; a repar nest wraps one such Moore."""
    law = {"src": "1", "dst": "1", "breaks": [["0", "0"], ["1", "1"]]}
    step = json.dumps({"step": {"cell": "e", "z": [], "chi": law}})
    if kind == "repar":
        return ('{"repar": {"phi": ' + json.dumps(law) + ', "path": ') * depth \
            + deep_path("moore", 1) + "}}" * depth
    return f'{{"{kind}": [' * depth + step + (", " + step + "]}") * depth


@pytest.mark.parametrize("kind, depth, error", [
    pytest.param("moore", 400, "endpoint_mismatch", id="400-endpoint_mismatch"),
    pytest.param("moore", 900, "bad_input", id="900-bad_input"),
    pytest.param("moore", 1200, "bad_input", id="1200-bad_input"),
    *(pytest.param(kind, depth, error, id=f"{kind}-{depth}-{error}")
      for kind in ("normcomp", "repar")
      for depth, error in ((400, "endpoint_mismatch"), (900, "bad_input")))])
def test_deeply_nested_paths_exit_two(corpus_dir, tmp_path, kind, depth, error):
    # in a fresh process, as the CLI runs: the depth limit is the
    # interpreter's, not the test runner's
    deep = tmp_path / "deep.json"
    deep.write_text(deep_path(kind, depth))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(dipath.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "dipath", "normalize",
         str(corpus_dir / "segment.json"), str(deep)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["error"] == error
    if error == "bad_input":
        # the decoder gave up: the detail names the file
        assert "deep.json" in report["detail"]


def test_parse_fraction_reads_only_the_documented_form():
    from fractions import Fraction

    from dipath.errors import BadInputError
    from dipath.rational import parse_fraction

    for text, value in (("3/4", Fraction(3, 4)), ("-1/2", Fraction(-1, 2)),
                        ("2", Fraction(2)), ("6/8", Fraction(3, 4)),
                        (5, Fraction(5))):
        assert parse_fraction(text) == value
    for bad in ("0.5", "1e3", "+1", " 1", "1 ", "1/-2", "1/0", "1_000",
                "\u0661", "", "-", "1/", True, 0.5, None, ["1"]):
        with pytest.raises(BadInputError):
            parse_fraction(bad)


def test_rationals_past_the_digit_limit_become_bad_input():
    from fractions import Fraction

    from dipath.errors import BadInputError
    from dipath.rational import format_fraction, format_point, format_ratio

    huge = 10 ** sys.get_int_max_str_digits()
    assert format_ratio(-3, 4) == format_fraction(Fraction(-3, 4)) == "-3/4"
    for num, den in ((huge, 1), (1, huge)):
        with pytest.raises(BadInputError):
            format_ratio(num, den)
        with pytest.raises(BadInputError):
            format_fraction(Fraction(num, den))
        with pytest.raises(BadInputError):
            format_point((0, Fraction(num, den)))


def test_input_that_is_not_utf8_exits_two(tmp_path, capsys):
    latin = tmp_path / "latin.json"
    latin.write_bytes('{"states": ["\u00e9"], "cells": []}'.encode("latin-1"))
    status, out = invoke(capsys, "validate", str(latin))
    assert status == 2
    report = json.loads(out)
    assert report["error"] == "bad_input" and "latin.json" in report["detail"]


def unit_step_json(length):
    return {"step": {"cell": "e", "z": [], "chi": {
        "src": length, "dst": "1", "breaks": [["0", "0"], [length, "1"]]}}}


def two_long_breaks_json(digits):
    # each number of the input fits the interpreter's digit limit, but the
    # composed time law of the normal form does not
    def law(d):
        return {"src": "1", "dst": "1", "breaks": [
            ["0", "0"], ["1/" + d * digits, "1/7"], ["1", "1"]]}
    return {"repar": {"path": {"step": {"cell": "e", "z": [],
                                        "chi": law("3")}},
                      "phi": law("9")}}


@pytest.mark.parametrize("path_json", [
    json.dumps(unit_step_json("1e999999")),
    json.dumps(unit_step_json("1" * 5000)),
    json.dumps(unit_step_json("0.5")),
    json.dumps(unit_step_json("1")).replace('"src": "1"', '"src": ' + "1" * 5000),
    json.dumps(two_long_breaks_json(4000)),
], ids=["exponent", "5000_digits", "decimal", "5000_digit_json_int",
        "result_past_digit_limit"])
def test_malformed_rationals_exit_two(corpus_dir, tmp_path, path_json):
    # in a fresh process, as the CLI runs: no traceback, and never exit 1
    path = tmp_path / "path.json"
    path.write_text(path_json)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(dipath.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "dipath", "normalize",
         str(corpus_dir / "segment.json"), str(path)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"] == "bad_input"


def test_nesting_past_max_depth_is_refused_before_decoding(
        tmp_path, capsys, monkeypatch):
    import dipath.cli as cli

    def nest(depth):
        return "[" * depth + "]" * depth

    limit = tmp_path / "limit.json"
    limit.write_text(nest(cli.MAX_DEPTH))
    data, depth = cli._load_json(str(limit)), 1
    while data:
        data, depth = data[0], depth + 1
    assert depth == cli.MAX_DEPTH
    # brackets inside strings, after escaped quotes too, do not nest
    quoted = tmp_path / "quoted.json"
    quoted.write_text(json.dumps(['\\"[{' * cli.MAX_DEPTH]))
    assert cli._load_json(str(quoted)) == ['\\"[{' * cli.MAX_DEPTH]

    def no_decoding(text):
        raise AssertionError("decoded an input past the nesting limit")

    past = tmp_path / "past.json"
    past.write_text(nest(cli.MAX_DEPTH + 1))
    with monkeypatch.context() as patch:
        patch.setattr(json, "loads", no_decoding)
        status, out = invoke(capsys, "validate", str(past))
    assert status == 2
    report = json.loads(out)
    assert report["error"] == "bad_input"
    assert "past.json" in report["detail"]


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("kind", ["moore", "normcomp"])
def test_concatenations_take_exactly_two_operands(corpus_dir, tmp_path, capsys,
                                                  kind, count):
    loop = {"step": {"cell": "l", "z": [], "chi": {
        "src": "1", "dst": "1", "breaks": [["0", "0"], ["1", "1"]]}}}
    path = tmp_path / "path.json"
    path.write_text(json.dumps({kind: [loop] * count}))
    status, out = invoke(capsys, "normalize", str(corpus_dir / "loop.json"),
                         str(path))
    assert status == 2
    assert json.loads(out) == {
        "error": "bad_input",
        "detail": f"{kind} takes two operands, got {count}"}


def _edit_two_runs(corpus_dir, edit):
    """elem_two_runs.json, over the triangle's edges, changed by ``edit``."""
    elem = json.loads((corpus_dir / "elem_two_runs.json").read_text())
    edit(elem)
    return elem


def _one_pass(entry):
    # the element of one flag-1 slot al -> ga holding ``entry``
    return lambda elem: elem.update(triples=[["al", 1, "ga"]],
                                    entries=[entry])


# (command, input, code, detail): a normalize input is a path on the
# square, a validate input a complex, and a reedy-normalize input an edit
# of elem_two_runs.json, normalized at the triangle's globe t
REFUSALS = {
    "expr_missing_key": (
        "normalize", {"step": {"z": [], "chi": UNIT_LAW}}, "bad_input",
        "malformed path expression: 'cell'"),
    "expr_wrong_type": (
        "normalize", {"repar": 5}, "bad_input",
        "malformed path expression: 'int' object is not subscriptable"),
    "pl_missing_key": (
        "normalize", {"step": {"cell": "a", "z": [], "chi": {
            "src": "1", "breaks": []}}}, "bad_input",
        "malformed PL map: 'dst'"),
    "pl_three_entry_break": (
        "normalize", {"step": {"cell": "a", "z": [], "chi": dict(
            UNIT_LAW, breaks=[["0", "0", "0"], ["1", "1"]])}}, "bad_input",
        "malformed PL map: too many values to unpack (expected 2)"),
    "cell_missing_key": (
        "validate", {"states": ["0", "1"], "cells": [
            {"id": "e", "dim": 0, "from": "0"}]}, "bad_input",
        "malformed cell: 'to'"),
    "complex_missing_key": (
        "validate", {"cells": []}, "bad_input",
        "malformed complex: 'states'"),
    "complex_wrong_type": (
        "validate", [], "bad_input",
        "malformed complex: list indices must be integers or slices, not str"),
    "normal_path_missing_key": (
        "reedy-normalize", lambda e: e["entries"][0]["path"].pop("from"),
        "bad_input", "malformed normal path: 'from'"),
    "segment_length": (
        "reedy-normalize",
        lambda e: e["entries"][0]["path"]["segs"][0].update(len="2"),
        "bad_input", "segment length disagrees with time law"),
    "path_endpoints": (
        "reedy-normalize", lambda e: e["entries"][0]["path"].update(to="ga"),
        "endpoint_mismatch", "endpoint states do not match segments"),
    "element_missing_key": (
        "reedy-normalize", lambda e: e.pop("entries"), "bad_input",
        "malformed element: 'entries'"),
    "cell_path_missing_key": (
        "reedy-normalize", _one_pass({"cellpath": {"z": []}}), "bad_input",
        "malformed cell path: 'chi'"),
    "cell_point_arity": (
        "reedy-normalize",
        _one_pass({"cellpath": {"z": ["0", "0"], "chi": UNIT_LAW}}),
        "complex_mismatch",
        "cell point arity 2 does not match disk dimension 1"),
}


@pytest.mark.parametrize("command, data, code, detail", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_reader_and_diagram_refusals(corpus_dir, tmp_path, capsys, command,
                                     data, code, detail):
    if command == "reedy-normalize":
        data = _edit_two_runs(corpus_dir, data)
    bad = tmp_path / "input.json"
    bad.write_text(json.dumps(data))
    argv = {"validate": [str(bad)],
            "normalize": [str(corpus_dir / "square.json"), str(bad)],
            "reedy-normalize": [str(corpus_dir / "triangle.json"), str(bad),
                                "--cell", "t"]}[command]
    status, out = invoke(capsys, command, *argv)
    assert (status, json.loads(out)) == (2, {"error": code, "detail": detail})


def test_reedy_normalize_demotes_an_injected_path(corpus_dir, tmp_path,
                                                  capsys):
    # the two runs' paths joined into one path al -> ga, injected
    elem = json.loads((corpus_dir / "elem_two_runs.json").read_text())
    first, second = (e["path"] for e in elem["entries"])
    through = {"from": "al", "to": "ga", "segs": first["segs"] + second["segs"]}
    _one_pass({"inj": through})(elem)
    path = tmp_path / "inj.json"
    path.write_text(json.dumps(elem))
    status, out = invoke(capsys, "reedy-normalize",
                         str(corpus_dir / "triangle.json"), str(path),
                         "--cell", "t")
    assert status == 0
    assert json.loads(out) == {
        "u": "al", "v": "ga", "triples": [["al", 0, "ga"]],
        "entries": [{"path": through}]}


# one child per interpreter: every argv on stdin runs through cli.run in
# process, and the exit statuses and stdouts come back as one JSON list
RUN_ARGVS = """\
import contextlib, io, json, sys
from dipath.cli import run
results = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run(argv)
    results.append([status, out.getvalue()])
print(json.dumps(results))
"""


def _pinned(test):
    """The cases of a test's one parametrize mark, each as a value tuple."""
    (mark,) = test.pytestmark
    return [getattr(case, "values", (case,)) for case in mark.args[1]]


INTERPRETERS = [f"python3.{minor}" for minor in range(10, 14)]


def run_under(python, argvs):
    """(status, stdout) of each argv run through ``cli.run`` in one child of
    ``python`` that finds dipath through ``PYTHONPATH`` only; skip when the
    interpreter is absent or fails its version probe."""
    exe = shutil.which(python)
    probe = exe and subprocess.run(
        [exe, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
        capture_output=True, text=True, timeout=30)
    if not probe or probe.returncode or probe.stdout.strip() != python[6:]:
        pytest.skip(f"{python} is absent or does not run")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(dipath.__file__)))
    proc = subprocess.run([exe, "-c", RUN_ARGVS], input=json.dumps(argvs),
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("python", INTERPRETERS)
def test_every_interpreter_gives_the_pinned_verdicts(corpus_dir, tmp_path,
                                                     python):
    cases = []  # (input file, error, whether the detail must name the file)
    for kind, depth, error in [*_pinned(test_deeply_nested_paths_exit_two),
                               ("moore", 422, "endpoint_mismatch"),
                               ("moore", 423, "bad_input")]:
        path = tmp_path / f"{kind}-{depth}.json"
        path.write_text(deep_path(kind, depth))
        cases.append((path, error, error == "bad_input"))
    for i, (text,) in enumerate(_pinned(test_malformed_rationals_exit_two)):
        path = tmp_path / f"rational-{i}.json"
        path.write_text(text)
        cases.append((path, "bad_input", False))
    argvs = [["normalize", str(corpus_dir / "segment.json"), str(path)]
             for path, _, _ in cases]
    verdicts = run_under(python, argvs)
    for (path, error, named), (status, out) in zip(cases, verdicts,
                                                   strict=True):
        report = json.loads(out)
        assert (status, report["error"]) == (2, error), path.name
        assert path.name in report["detail"] or not named, report


@pytest.mark.parametrize("python", INTERPRETERS)
def test_every_interpreter_prints_the_corpus_digests(corpus_dir, python):
    # the 302 commands of test_cli_corpus_digests, in one child per
    # interpreter, against the same expected lines
    argvs = list(corpus_commands())
    results = run_under(python, [[*argv[:-1], str(corpus_dir / argv[-1])]
                                 for argv in argvs])
    got = [f"{hashlib.sha256(out.encode('utf-8')).hexdigest()} {status} "
           f"{' '.join(argv)}" for argv, (status, out) in zip(argvs, results)]
    assert got == CORPUS_DIGESTS.read_text(encoding="utf-8").splitlines()


def test_bad_endpoint_detail_prints_rationals(corpus_dir, tmp_path, capsys):
    step = unit_step_json("1")
    step["step"]["chi"]["breaks"][0] = ["0", "1/2"]
    path = tmp_path / "path.json"
    path.write_text(json.dumps(step))
    status, out = invoke(capsys, "normalize",
                         str(corpus_dir / "segment.json"), str(path))
    assert status == 2
    assert json.loads(out) == {
        "error": "bad_endpoints",
        "detail": "first break must be (0, 0), got (0, 1/2)"}


def test_normalize_reports_normal_path(corpus_dir, capsys):
    status, out = invoke(capsys, "normalize",
                         str(corpus_dir / "square.json"),
                         str(corpus_dir / "path_ab.json"))
    assert status == 0
    report = json.loads(out)
    assert report["from"] == "bot" and report["to"] == "top"
    assert [s["cell"] for s in report["segs"]] == ["a", "b"]
    assert [s["len"] for s in report["segs"]] == ["1/2", "1/2"]


def test_compose_moore_and_normalized(corpus_dir, capsys):
    status, out = invoke(capsys, "compose",
                         str(corpus_dir / "square.json"),
                         str(corpus_dir / "path_a.json"),
                         str(corpus_dir / "path_b.json"))
    assert status == 0
    assert [s["len"] for s in json.loads(out)["segs"]] == ["1", "1"]
    status, out = invoke(capsys, "compose",
                         str(corpus_dir / "square.json"),
                         str(corpus_dir / "path_a.json"),
                         str(corpus_dir / "path_b.json"),
                         "--normalized")
    assert status == 0
    assert [s["len"] for s in json.loads(out)["segs"]] == ["1/2", "1/2"]


def test_compose_endpoint_error(corpus_dir, capsys):
    status, out = invoke(capsys, "compose",
                         str(corpus_dir / "square.json"),
                         str(corpus_dir / "path_a.json"),
                         str(corpus_dir / "path_a.json"))
    assert status == 2
    assert json.loads(out)["error"] == "endpoint_mismatch"


def test_carriers_square(corpus_dir, capsys):
    status, out = invoke(capsys, "carriers",
                         str(corpus_dir / "square.json"),
                         "--from", "bot", "--to", "top")
    assert status == 0
    assert json.loads(out)["carriers"] == [["a", "b"], ["c", "d"], ["sq"]]


def test_carriers_loop_needs_bound(corpus_dir, capsys):
    status, out = invoke(capsys, "carriers",
                         str(corpus_dir / "loop.json"),
                         "--from", "0", "--to", "1")
    assert status == 2
    assert json.loads(out)["error"] == "unbounded_enumeration"
    status, out = invoke(capsys, "carriers",
                         str(corpus_dir / "loop.json"),
                         "--from", "0", "--to", "1", "--bound", "2")
    assert status == 0
    assert json.loads(out)["carriers"] == [["e"], ["l", "e"]]


@pytest.mark.parametrize("argv", [
    ("carriers", "square", "--from", "bot", "--to", "top", "--bound", "-3"),
    ("pushout-check", "triangle", "--cell", "t", "--bound", "-3"),
    ("counit-check", "square", "--bound", "-3"),
])
def test_negative_bound_is_rejected(corpus_dir, capsys, argv):
    command, name, *rest = argv
    status, out = invoke(capsys, command, str(corpus_dir / f"{name}.json"),
                         *rest)
    assert status == 2
    assert json.loads(out)["error"] == "bad_input"


def test_negative_bound_is_rejected_without_cells(tmp_path, capsys):
    # with no cell there is no carrier table to build, and the bound is
    # still checked, as it is with cells
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"states": ["a", "b"], "cells": []}))
    status, out = invoke(capsys, "counit-check", str(empty), "--bound", "-3")
    assert status == 2
    assert json.loads(out) == {"error": "bad_input",
                               "detail": "carrier bound must be >= 0, got -3"}
    status, out = invoke(capsys, "counit-check", str(empty), "--bound", "0")
    assert status == 0
    assert json.loads(out) == {"bound": 0, "ok": True, "steps": []}


@pytest.mark.parametrize("argv, field, want", [
    (("carriers", "square", "--from", "bot", "--to", "top", "--bound", "0"),
     "carriers", []),
    (("pushout-check", "triangle", "--cell", "t", "--bound", "0"),
     "bijection", True),
    (("counit-check", "square", "--bound", "0"), "ok", True),
])
def test_zero_bound_has_no_carriers(corpus_dir, capsys, argv, field, want):
    command, name, *rest = argv
    status, out = invoke(capsys, command, str(corpus_dir / f"{name}.json"),
                         *rest)
    assert status == 0
    assert json.loads(out)[field] == want


def test_fundcat_square(corpus_dir, capsys):
    status, out = invoke(capsys, "fundcat", str(corpus_dir / "square.json"))
    assert status == 0
    report = json.loads(out)
    assert report["homs"]["bot→top"] == [["a", "b"]]


def test_fundcat_rejects_loops(corpus_dir, capsys):
    status, out = invoke(capsys, "fundcat", str(corpus_dir / "loop.json"))
    assert status == 2
    assert json.loads(out)["error"] == "has_loops"


def test_reedy_normalize_merges_runs(corpus_dir, capsys):
    status, out = invoke(capsys, "reedy-normalize",
                         str(corpus_dir / "triangle.json"),
                         str(corpus_dir / "elem_two_runs.json"),
                         "--cell", "t")
    assert status == 0
    report = json.loads(out)
    assert report["triples"] == [["al", 0, "ga"]]
    assert [s["cell"] for s in report["entries"][0]["path"]["segs"]] == [
        "a", "b"]


def test_pushout_check_cli(corpus_dir, capsys):
    status, out = invoke(capsys, "pushout-check",
                         str(corpus_dir / "triangle.json"),
                         "--cell", "t", "--bound", "4")
    assert status == 0
    assert json.loads(out)["bijection"] is True


@pytest.mark.parametrize("argv,after", [
    (("pushout-check", "{c}", "--cell", "t", "--bound", "4"), ["t"]),
    (("reedy-normalize", "{c}", "{e}", "--cell", "t"), []),
    (("pushout-check", "{c}", "--cell", "nope", "--bound", "4"), []),
], ids=["pushout_check", "reedy_normalize", "unknown_cell"])
def test_split_at_cell_folds_the_complex_once(corpus_dir, capsys, monkeypatch,
                                              argv, after):
    # the base complex before --cell is validated, and the rest of the
    # cells admitted on top of it: each cell is admitted once, not again in
    # a second pass over a prefix; pushout_check then attaches the cell to
    # the base once more, to build the pushout it checks
    calls = []
    admit = Complex._admit

    def counted(cx, cell):
        calls.append(cell.id)
        return admit(cx, cell)

    monkeypatch.setattr(Complex, "_admit", counted)
    status, out = invoke(capsys, *(a.format(
        c=corpus_dir / "triangle.json",
        e=corpus_dir / "elem_two_runs.json") for a in argv))
    cells = json.loads((corpus_dir / "triangle.json").read_text())["cells"]
    assert calls == [c["id"] for c in cells] + after
    if "nope" in argv:
        assert status == 2
        assert json.loads(out) == {"error": "unknown_cell",
                                   "detail": "unknown cell nope"}
    else:
        assert status == 0


def test_split_at_cell_still_validates_cells_after_the_named_one(
        tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "states": ["0", "1"],
        "cells": [EDGE, {"id": "f", "dim": 0, "from": "0", "to": "9"}],
    }))
    for argv in (("pushout-check", str(bad), "--cell", "e", "--bound", "2"),
                 ("pushout-check", str(bad), "--cell", "nope", "--bound", "2"),
                 ("reedy-normalize", str(bad), str(bad), "--cell", "e")):
        status, out = invoke(capsys, *argv)
        assert status == 2
        assert json.loads(out)["error"] == "unknown_state"


def test_counit_check_cli(corpus_dir, capsys):
    status, out = invoke(capsys, "counit-check",
                         str(corpus_dir / "square.json"), "--bound", "5")
    assert status == 0
    assert json.loads(out)["ok"] is True


def test_selftest_cli(capsys):
    status, out = invoke(capsys, "selftest", "--seed", "3")
    assert status == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert {c["name"] for c in report["checks"]} == {
        "reparam_laws", "normal_form_pairs", "rigidity",
        "elem_normalization"}


@pytest.mark.parametrize("scale", ["0", "-2"])
def test_selftest_scale_below_one_is_rejected(capsys, scale):
    status, out = invoke(capsys, "selftest", "--scale", scale)
    assert status == 2
    assert json.loads(out) == {
        "error": "bad_input",
        "detail": f"selftest scale must be >= 1, got {scale}"}


def test_selftest_reports_its_first_failure(capsys, monkeypatch):
    # one law fails at a known case: the report names the check, its seed
    # and the case, and every later case and check still runs
    from random import Random

    import dipath.selfcheck as sc

    status, out = invoke(capsys, "selftest", "--seed", "3")
    assert status == 0 and "first_failure" not in json.loads(out)
    identity, compose = sc.identity, sc.compose
    calls = {"identity": 0, "compose": 0}

    def bad_identity(length):
        # check_reparam_laws runs first and asks for one identity per
        # case: its cases 2 and 5 compare against the wrong one
        calls["identity"] += 1
        wrong = calls["identity"] in (3, 6)
        return identity(2 * length if wrong else length)

    def counted_compose(f, g):
        calls["compose"] += 1
        return compose(f, g)

    monkeypatch.setattr(sc, "identity", bad_identity)
    monkeypatch.setattr(sc, "compose", counted_compose)
    status, out = invoke(capsys, "selftest", "--seed", "3")
    assert status == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["first_failure"] == {
        "check": "reparam_laws", "seed": 3, "index": 2}
    assert [c["ok"] for c in report["checks"]] == [False, True, True, True]
    assert calls["identity"] >= 100  # every reparam_laws case ran
    # replay: the same seed fails at the same case, and each of the ten
    # cases evaluates all five compositions of its laws
    calls.update(identity=0, compose=0)
    held = list(sc.check_reparam_laws(Random(3), 10))
    assert [i for i, ok in enumerate(held) if not ok] == [2, 5]
    assert calls["compose"] == 5 * 10


def test_text_format(corpus_dir, capsys):
    status, out = invoke(capsys, "--format", "text", "validate",
                         str(corpus_dir / "square.json"))
    assert status == 0
    assert "loop_free: true" in out


@pytest.mark.parametrize("golden, argv, want_status", [
    ("fundcat_square", ["fundcat", "square.json"], 0),
    ("counit_double_globe_b3",
     ["counit-check", "--bound", "3", "double_globe.json"], 0),
    ("carriers_unknown_state",
     ["carriers", "--from", "zz", "--to", "bot", "square.json"], 2),
    ("counit_loop_heavy_b5",
     ["counit-check", "--bound", "5", "loop_heavy.json"], 0),
    ("counit_grid21_b4", ["counit-check", "--bound", "4", "grid21.json"], 0),
])
def test_text_format_nested_reports(corpus_dir, capsys, golden, argv,
                                    want_status):
    # nested dicts and lists, and an error report, rendered as text; the
    # expected bytes are kept under tests/golden
    argv = [str(corpus_dir / a) if a.endswith(".json") else a for a in argv]
    status, out = invoke(capsys, "--format", "text", *argv)
    want = (Path(__file__).parent / "golden" / f"{golden}.txt").read_text(
        encoding="utf-8")
    assert status == want_status
    assert out == want


def test_counit_json_on_a_seeded_grid(tmp_path, capsys):
    # the JSON bytes of a counit check on a seeded 2x2 grid at a bound that
    # cuts its longest carriers; the expected bytes are kept under
    # tests/golden
    from random import Random

    from dipath.cellcomplex import complex_to_json
    from helpers import seeded_grid

    cx = seeded_grid(Random("grid:3"), 2, 2)
    path = tmp_path / "grid22.json"
    path.write_text(json.dumps(complex_to_json(cx.desc), sort_keys=True),
                    encoding="utf-8")
    status, out = invoke(capsys, "counit-check", "--bound", "3", str(path))
    want = (Path(__file__).parent / "golden" / "counit_seeded_grid22_b3.json"
            ).read_text(encoding="utf-8")
    assert status == 0
    assert out == want



def corpus_commands():
    """The argv of every command of the corpus digest, the complex last as
    a fixture file name: per fixture and format, ``validate``, ``fundcat``,
    ``counit-check`` at bounds 0, 3 and 5, and ``pushout-check`` on each of
    the last two cells at the same bounds."""
    for name, desc in CORPUS.items():
        commands = [["validate"], ["fundcat"]]
        commands += [["counit-check", "--bound", b] for b in ("0", "3", "5")]
        commands += [["pushout-check", "--cell", c.id, "--bound", b]
                     for c in desc.cells[-2:] for b in ("0", "3", "5")]
        for fmt in ("json", "text"):
            for command in commands:
                yield ["--format", fmt, *command, f"{name}.json"]


CORPUS_DIGESTS = Path(__file__).parent / "golden" / "cli_corpus.sha256"


def test_cli_corpus_digests(corpus_dir, capsys):
    # one line per command: the sha256 of its stdout, its exit status and
    # its argv; the expected lines are kept under tests/golden
    want = CORPUS_DIGESTS.read_text(encoding="utf-8").splitlines()
    got = []
    for argv in corpus_commands():
        status, out = invoke(capsys, *argv[:-1], str(corpus_dir / argv[-1]))
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        got.append(f"{digest} {status} {' '.join(argv)}")
    for line, expected in zip(got, want):
        assert line == expected
    assert len(got) == len(want)

def test_module_entry_point(corpus_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "dipath", "validate",
         str(corpus_dir / "segment.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["cells"] == 1


def test_verification_failure_exits_one(corpus_dir, capsys, monkeypatch):
    # A failed carrier bijection must flip the exit status to 1; the engine
    # never produces one on valid input, so stub the check.
    import dipath.cli as cli_mod

    def broken(base, cell, bound):
        return {"cell": cell.id, "bound": bound, "lhs_carriers": [],
                "rhs_carriers": [["x"]], "bijection": False}

    monkeypatch.setattr(cli_mod, "pushout_check", broken)
    status, out = invoke(capsys, "pushout-check",
                         str(corpus_dir / "triangle.json"),
                         "--cell", "t", "--bound", "4")
    assert status == 1
    assert json.loads(out)["bijection"] is False


def test_failed_witness_guard_exits_two(corpus_dir, capsys, monkeypatch):
    # A broken internal guard is an engine error (exit 2), not a failed
    # verification (exit 1) and not a traceback.  Watched, every witness of
    # both commands meets its oracles and each exits 0; with each
    # realization's segments doubled, each exits 2.
    from helpers import watch_witnesses

    commands = [
        ["counit-check", str(corpus_dir / "double_globe.json"), "--bound", "3"],
        ["pushout-check", str(corpus_dir / "triangle.json"), "--cell", "t",
         "--bound", "4"]]
    with monkeypatch.context() as patch:
        words = watch_witnesses(patch)
        for args in commands:
            assert invoke(capsys, *args)[0] == 0
        assert words
    watch_witnesses(monkeypatch, fault=lambda path: NormalPath(
        path.start, path.end, path.segs * 2))
    for args in commands:
        status, out = invoke(capsys, *args)
        assert status == 2
        assert json.loads(out)["error"] == "engine_error"


def test_unsimplified_witness_exits_two(corpus_dir, capsys, monkeypatch):
    import dipath.reedy as reedy_mod

    monkeypatch.setattr(reedy_mod, "is_simplified", lambda *args: False)
    status, out = invoke(capsys, "pushout-check",
                         str(corpus_dir / "triangle.json"), "--cell", "t",
                         "--bound", "4")
    assert (status, json.loads(out)) == (2, {
        "error": "engine_error",
        "detail": "witness for ('t',) is not simplified"})


def test_duplicate_carriers_are_an_engine_error(corpus_dir, capsys,
                                                monkeypatch):
    # the shape enumeration lists each word once; a shape yielded twice
    # trips the guard, in process and through the CLI
    import dipath.reedy as reedy_mod
    from dipath.errors import EngineError
    from dipath.mooreflow import chain_complex, counit_check

    real = reedy_mod._shapes

    def first_twice(*args):
        shapes = real(*args)
        first = next(shapes)
        yield first
        yield first
        yield from shapes

    monkeypatch.setattr(reedy_mod, "_shapes", first_twice)
    with pytest.raises(EngineError, match="duplicate carriers"):
        counit_check(chain_complex(2), 2)
    status, out = invoke(capsys, "counit-check",
                         str(corpus_dir / "square.json"), "--bound", "4")
    assert status == 2
    assert json.loads(out)["error"] == "engine_error"


def test_cross_process_byte_determinism(corpus_dir):
    # Separate interpreter runs (fresh hash seeds) must agree byte for byte.
    # The children import the same dipath copy as this test (installed or
    # from a source checkout); the hash seed is the only env difference.
    # With a clean environment, -B keeps them from writing bytecode next to
    # the sources.
    package_root = os.path.dirname(os.path.dirname(dipath.__file__))
    outputs = []
    for seed in ("0", "42"):
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "dipath", "fundcat",
             str(corpus_dir / "grid21.json")],
            capture_output=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": package_root})
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


COMMANDS = [
    ("validate", "{c}"),
    ("carriers", "{c}", "--from", "bot", "--to", "top", "--bound", "4"),
    ("fundcat", "{c}"),
    ("counit-check", "{c}", "--bound", "5"),
]


def test_repeat_runs_are_byte_identical(corpus_dir, capsys):
    for name in ["square", "square_open", "triangle", "diamond"]:
        path = str(corpus_dir / f"{name}.json")
        for template in COMMANDS:
            argv = [a.format(c=path) for a in template]
            if name in ("triangle", "diamond") and "--from" in argv:
                continue
            first = invoke(capsys, *argv)
            second = invoke(capsys, *argv)
            assert first == second
