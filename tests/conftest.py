import json

import pytest

from dipath.cellcomplex import NormComp, complex_to_json, expr_to_json, validate
from dipath.reedy import APath, elem_to_json, make_elem, make_obj
from fixture_lib import CORPUS, estep
from helpers import unit_path


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """The JSON fixture corpus the CLI commands run against."""
    root = tmp_path_factory.mktemp("corpus")
    for name, desc in CORPUS.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(complex_to_json(desc), sort_keys=True,
                                   indent=2), encoding="utf-8")
    paths = {
        "path_ab": NormComp(estep("a"), estep("b")),
        "path_a": estep("a"),
        "path_b": estep("b"),
        "path_e1": estep("e1"),
        "path_e2": estep("e2"),
    }
    for name, expr in paths.items():
        (root / f"{name}.json").write_text(
            json.dumps(expr_to_json(expr), sort_keys=True, indent=2),
            encoding="utf-8")
    # a two-slot element over the triangle base (cells before "t")
    tri = CORPUS["triangle"]
    base = validate(type(tri)(tri.states, tri.cells[:3]))
    elem = make_elem(
        make_obj("al", "ga", [("al", 0, "be"), ("be", 0, "ga")]),
        [APath(unit_path(base, ("a",))), APath(unit_path(base, ("b",)))],
        base)
    (root / "elem_two_runs.json").write_text(
        json.dumps(elem_to_json(elem), sort_keys=True, indent=2),
        encoding="utf-8")
    return root
