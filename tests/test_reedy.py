"""Tests for the diagram rewriting engine and pushout verification."""

from fractions import Fraction as F
from random import Random

import pytest

from dipath.cellcomplex import (
    Cell,
    ComplexDesc,
    NormalPath,
    NormComp,
    Seg,
    Step,
    repar_normal,
    validate,
)
from dipath.errors import (
    BadInputError,
    BadLengthError,
    ComplexMismatchError,
    EndpointMismatchError,
    EngineError,
    NoBoundaryDataError,
    NotComposableHereError,
    OutOfDomainError,
    UnknownCellError,
    WrongEndpointsError,
)
from dipath.reedy import (
    APath,
    CellPath,
    InjPath,
    apply_composition,
    apply_inclusion,
    degree,
    elem_from_json,
    elem_to_json,
    is_simplified,
    make_elem,
    make_obj,
    normalize_elem,
    pushout_check,
    pushout_complex,
    pushout_steps,
    realize,
)
from dipath.reparam import make_pl, mu
from dipath.sampling import rand_pl
from fixture_lib import (
    chain_desc,
    double_globe_desc,
    edge,
    estep,
    globe,
    loop_heavy_desc,
    segment_desc,
)
from helpers import (
    all_normal_forms,
    rand_a_path,
    rand_reedy_elem,
    unit_path,
)


def loopy_base():
    return validate(loop_heavy_desc())


def loop_cell():
    # A globe over the loop: both boundaries are length-1 paths 1 -> 1.
    return globe("g", "1", "1", estep("l"),
                 NormComp(estep("f"), estep("e")))


def chain_base(n=6):
    return validate(chain_desc(n))


# ---------------------------------------------------------------------------
# objects and degree


def test_degree_formula():
    assert degree(make_obj("u", "v", [("u", 0, "v")])) == 1
    assert degree(make_obj("u", "v", [("u", 1, "v")])) == 2
    assert degree(make_obj("b", "c", [("a", 0, "b"), ("b", 1, "c")])) == 3


def test_obj_validation():
    with pytest.raises(Exception):
        make_obj("u", "v", [("u", 0, "v"), ("x", 0, "y")])
    with pytest.raises(WrongEndpointsError):
        make_obj("u", "v", [("a", 1, "b")])


# ---------------------------------------------------------------------------
# single arrows


def test_apply_composition_merges_paths():
    cx = chain_base(3)
    obj = make_obj("s0", "s1", [("s0", 0, "s1"), ("s1", 0, "s2")])
    rng = Random(1)
    p = rand_a_path(rng, cx, "s0", "s1")
    q = rand_a_path(rng, cx, "s1", "s2")
    e = make_elem(obj, [APath(p), APath(q)], cx)
    merged = apply_composition(e, 0)
    assert merged.obj.triples == (("s0", 0, "s2"),)
    assert merged.entries[0].path.segs == p.segs + q.segs
    assert degree(merged.obj) == degree(e.obj) - 1


def test_apply_composition_rejects_flagged_slot():
    cx = loopy_base()
    cell = loop_cell()
    obj = make_obj("1", "1", [("1", 1, "1"), ("1", 0, "1")])
    e = make_elem(obj, [CellPath((F(0),), mu(1)),
                        APath(unit_path(cx, ("l",)))], cx)
    with pytest.raises(NotComposableHereError):
        apply_composition(e, 0)


def test_apply_inclusion_and_wrong_endpoints():
    cx = chain_base(2)
    obj = make_obj("s0", "s1", [("s0", 0, "s1")])
    e = make_elem(obj, [APath(unit_path(cx, ("e1",)))], cx)
    up = apply_inclusion(e, 0)
    assert up.obj.triples == (("s0", 1, "s1"),)
    assert isinstance(up.entries[0], InjPath)
    assert degree(up.obj) == degree(e.obj) + 1
    obj2 = make_obj("s0", "s1", [("s0", 0, "s1"), ("s1", 0, "s2")])
    e2 = make_elem(obj2, [APath(unit_path(cx, ("e1",))),
                          APath(unit_path(cx, ("e2",)))], cx)
    with pytest.raises(WrongEndpointsError):
        apply_inclusion(e2, 1)


# ---------------------------------------------------------------------------
# normalization


def test_adjacent_base_paths_merge():
    cx = chain_base(3)
    cell = edge("g", "s0", "s3")
    obj = make_obj("s0", "s3", [("s0", 0, "s1"), ("s1", 0, "s3")])
    e = make_elem(obj, [APath(unit_path(cx, ("e1",))),
                        APath(unit_path(cx, ("e2", "e3")))], cx)
    nf = normalize_elem(e, cx, cell)
    assert nf.obj.triples == (("s0", 0, "s3"),)
    assert nf.entries[0].path.carrier() == ("e1", "e2", "e3")


def test_boundary_demotion_then_merge():
    cx = loopy_base()
    cell = loop_cell()
    chi = rand_pl(Random(2), 1, 1, max_segments=3)
    obj = make_obj("1", "1", [("1", 0, "1"), ("1", 1, "1")])
    e = make_elem(obj, [APath(unit_path(cx, ("l",))),
                        CellPath((F(-1),), chi)], cx)
    nf = normalize_elem(e, cx, cell)
    # z = -1 demotes to the lower boundary (the loop edge) reparametrized,
    # after which the two base paths merge into one slot.
    assert nf.obj.triples == (("1", 0, "1"),)
    assert nf.entries[0].path.carrier() == ("l", "l")
    expected_tail = repar_normal(cx.normalize(estep("l")), chi)
    assert nf.entries[0].path.segs[1:] == expected_tail.segs


def test_boundary_demotion_normalizes_only_its_side(monkeypatch):
    # a cell point on the sphere demotes to one boundary path, and only that
    # boundary expression is normalized
    from dipath.cellcomplex import Complex

    desc = double_globe_desc()
    base = validate(ComplexDesc(desc.states, desc.cells[:4]))
    cell = desc.cells[4]
    chi = rand_pl(Random(5), 1, 1, max_segments=3)
    obj = make_obj("a", "b", [("a", 1, "b")])
    seen = []
    normalize = Complex.normalize

    def spy(self, expr):
        seen.append(expr)
        return normalize(self, expr)

    monkeypatch.setattr(Complex, "normalize", spy)
    for z, side in ((F(-1), cell.boundary_minus), (F(1), cell.boundary_plus)):
        e = make_elem(obj, [CellPath((z,), chi)], base)
        seen.clear()
        nf = normalize_elem(e, base, cell)
        assert seen == [side]
        assert nf.entries == (APath(repar_normal(normalize(base, side), chi)),)


def test_inj_entries_are_demoted():
    cx = loopy_base()
    cell = loop_cell()
    p = unit_path(cx, ("f", "e"))
    obj = make_obj("1", "1", [("1", 1, "1")])
    e = make_elem(obj, [InjPath(p)], cx)
    nf = normalize_elem(e, cx, cell)
    assert nf.obj.triples == (("1", 0, "1"),)
    assert nf.entries[0] == APath(p)


def test_degree_guard_raises_engine_error(monkeypatch):
    # The guard is a raise, not an assert, so it holds under python -O too.
    import dipath.reedy as reedy_mod

    cx = chain_base(3)
    cell = edge("g", "s0", "s3")
    obj = make_obj("s0", "s3", [("s0", 0, "s1"), ("s1", 0, "s3")])
    e = make_elem(obj, [APath(unit_path(cx, ("e1",))),
                        APath(unit_path(cx, ("e2", "e3")))], cx)
    monkeypatch.setattr(reedy_mod, "degree", lambda obj: 1)
    with pytest.raises(EngineError, match="degree"):
        normalize_elem(e, cx, cell)


def test_normalize_elem_idempotent_and_simplified():
    cx = loopy_base()
    cell = loop_cell()
    rng = Random(3)
    for _ in range(30):
        e = rand_reedy_elem(rng, cx, cell)
        nf = normalize_elem(e, cx, cell)
        assert is_simplified(nf, cx, cell)
        assert normalize_elem(nf, cx, cell) == nf
        trips = nf.obj.triples
        assert not any(trips[i][1] == 0 and trips[i + 1][1] == 0
                       for i in range(len(trips) - 1))
        for entry in nf.entries:
            if isinstance(entry, CellPath):
                assert sum(z * z for z in entry.z) < 1


def test_normalize_elem_checks_cell_endpoints():
    cx = chain_base(2)
    cell = edge("g", "s1", "s2")
    obj = make_obj("s0", "s1", [("s0", 0, "s1")])
    e = make_elem(obj, [APath(unit_path(cx, ("e1",)))], cx)
    with pytest.raises(ComplexMismatchError):
        normalize_elem(e, cx, cell)


def test_higher_cell_boundary_needs_interpretation():
    cx = validate(segment_desc())
    cell = Cell("h", 2, "0", "1")  # formal two-disk cell, no boundary data
    obj = make_obj("0", "1", [("0", 1, "1")])
    e = make_elem(obj, [CellPath((F(3, 5), F(4, 5)), mu(1))], cx)
    with pytest.raises(NoBoundaryDataError):
        normalize_elem(e, cx, cell)


def test_higher_cell_interior_point_is_kept():
    cx = validate(segment_desc())
    cell = Cell("h", 2, "0", "1")
    obj = make_obj("0", "1", [("0", 1, "1")])
    e = make_elem(obj, [CellPath((F(1, 5), F(1, 5)), mu(1))], cx)
    assert normalize_elem(e, cx, cell) == e


# ---------------------------------------------------------------------------
# relation groups


def all_zero_elem(cx, words, u, v):
    triples = []
    entries = []
    for word in words:
        p = unit_path(cx, word)
        triples.append((p.start, 0, p.end))
        entries.append(APath(p))
    return make_elem(make_obj(u, v, triples), entries, cx)


def test_relation_group_a():
    # Merging at j then i equals merging at i then j-1, for i < j.
    cx = chain_base(6)
    words = [("e1",), ("e2",), ("e3",), ("e4",), ("e5",), ("e6",)]
    e = all_zero_elem(cx, words, "s0", "s6")
    for i, j in [(0, 2), (0, 1), (1, 3), (2, 4), (0, 4)]:
        lhs = apply_composition(apply_composition(e, j), i)
        rhs = apply_composition(apply_composition(e, i), j - 1)
        assert lhs == rhs


def test_relation_group_b():
    cx = loopy_base()
    words = [("l",), ("l", "l"), ("f", "e")]
    e = all_zero_elem(cx, words, "1", "1")
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        lhs = apply_inclusion(apply_inclusion(e, j), i)
        rhs = apply_inclusion(apply_inclusion(e, i), j)
        assert lhs == rhs


def test_relation_group_c():
    cx = loopy_base()
    words = [("l",), ("l",), ("l",), ("l",), ("l",)]
    e = all_zero_elem(cx, words, "1", "1")
    # j >= i + 2: raising slides left past the merge.
    for i, j in [(0, 2), (0, 3), (1, 3), (2, 4)]:
        lhs = apply_composition(apply_inclusion(e, j), i)
        rhs = apply_inclusion(apply_composition(e, i), j - 1)
        assert lhs == rhs
    # j <= i - 1: raising is unaffected by a later merge.
    for i, j in [(1, 0), (2, 1), (3, 0), (3, 2)]:
        lhs = apply_composition(apply_inclusion(e, j), i)
        rhs = apply_inclusion(apply_composition(e, i), j)
        assert lhs == rhs


def test_relations_commute_with_realization():
    cx = loopy_base()
    cell = loop_cell()
    px = pushout_complex(cx, cell)
    rng = Random(4)
    for _ in range(25):
        words = [rng.choice([("l",), ("l", "l"), ("f", "e")])
                 for _ in range(4)]
        e = all_zero_elem(cx, words, "1", "1")
        i, j = 0, 2
        lhs = apply_composition(apply_inclusion(e, j), i)
        rhs = apply_inclusion(apply_composition(e, i), j - 1)
        assert realize(lhs, px, "g") == realize(rhs, px, "g")


# ---------------------------------------------------------------------------
# confluence and realization soundness


def test_confluence_sampled():
    cx = loopy_base()
    cell = loop_cell()
    rng = Random(5)
    for _ in range(40):
        e = rand_reedy_elem(rng, cx, cell, max_entries=4)
        forms = all_normal_forms(e, cx, cell)
        assert len(forms) == 1
        assert next(iter(forms)) == normalize_elem(e, cx, cell)


def test_realize_invariant_under_normalization():
    cx = loopy_base()
    cell = loop_cell()
    px = pushout_complex(cx, cell)
    rng = Random(6)
    for _ in range(30):
        e = rand_reedy_elem(rng, cx, cell, max_entries=4)
        assert realize(e, px, "g") == realize(
            normalize_elem(e, cx, cell), px, "g")


def test_realize_single_entries():
    cx = chain_base(2)
    cell = edge("g", "s0", "s2")
    px = pushout_complex(cx, cell)
    p = unit_path(cx, ("e1", "e2"))
    inj = make_elem(make_obj("s0", "s2", [("s0", 1, "s2")]), [InjPath(p)], cx)
    assert realize(inj, px, "g") == p
    chi = rand_pl(Random(7), F(3, 2), 1)
    interior = make_elem(make_obj("s0", "s2", [("s0", 1, "s2")]),
                         [CellPath((), chi)], cx)
    got = realize(interior, px, "g")
    assert got.carrier() == ("g",)
    assert got.segs[0].chi == chi


def test_realize_mixed_element_matches_witness_path():
    cx = loopy_base()
    cell = loop_cell()
    px = pushout_complex(cx, cell)
    rng = Random(8)
    p = rand_a_path(rng, cx, "0", "1")
    chi = rand_pl(rng, 1, 1, max_segments=3)
    q = rand_a_path(rng, cx, "1", "1")
    e = make_elem(
        make_obj("1", "1", [("0", 0, "1"), ("1", 1, "1"), ("1", 0, "1")]),
        [APath(p), CellPath((F(1, 3),), chi), APath(q)], cx)
    got = realize(e, px, "g")
    assert got.carrier() == p.carrier() + ("g",) + q.carrier()
    assert got.segs[: len(p.segs)] == p.segs
    assert got.segs[len(p.segs)] == Seg("g", (F(1, 3),), chi)


def test_realize_rejects_a_complex_without_the_slot_cells():
    # Base paths are checked against the pushout, so a complex that lacks
    # their cells is refused rather than read.
    cx = chain_base(2)
    cell = edge("g", "s0", "s2")
    e = make_elem(make_obj("s0", "s2", [("s0", 1, "s2")]),
                  [InjPath(unit_path(cx, ("e1", "e2")))], cx)
    foreign = pushout_complex(validate(ComplexDesc(cx.states, ())), cell)
    with pytest.raises(UnknownCellError):
        realize(e, foreign, "g")


# ---------------------------------------------------------------------------
# pushout verification


def test_pushout_check_empty_base():
    base = validate(ComplexDesc(("0", "1"), ()))
    report = pushout_check(base, edge("e", "0", "1"), 4)
    assert report["bijection"]
    assert report["lhs_carriers"] == [("e",)]
    assert report["rhs_carriers"] == [("e",)]


def test_pushout_check_triangle_fill():
    base = validate(ComplexDesc(("al", "be", "ga"), (
        edge("a", "al", "be"),
        edge("b", "be", "ga"),
        edge("e", "al", "ga"),
    )))
    fill = globe("t", "al", "ga",
                 NormComp(estep("a"), estep("b")), estep("e"))
    report = pushout_check(base, fill, 4)
    assert report["bijection"]
    assert ("t",) in report["lhs_carriers"]


def test_pushout_check_loop_cell():
    base = validate(segment_desc())
    report = pushout_check(base, edge("l", "0", "0"), 3)
    assert report["bijection"]
    assert sorted(report["rhs_carriers"]) == sorted(
        [("e",), ("l",), ("l", "e"), ("l", "l"), ("l", "l", "e"),
         ("l", "l", "l")])


def test_pushout_check_globe_fill():
    base = validate(ComplexDesc(("0", "1"), (
        edge("em", "0", "1"), edge("ep", "0", "1"))))
    fill = globe("g", "0", "1", estep("em"), estep("ep"))
    report = pushout_check(base, fill, 4)
    assert report["bijection"]
    assert report["rhs_carriers"] == [("em",), ("ep",), ("g",)]


def test_wrong_witness_carrier_raises_engine_error(monkeypatch):
    # The witness guards are raises, so python -O keeps them and the CLI
    # reports them as engine errors.  Watched, every witness the steps of
    # the double globe build meets its oracles; with each realization's
    # segments doubled, the first witness trips the carrier guard.
    from helpers import watch_witnesses

    cx = validate(double_globe_desc())
    empty = validate(ComplexDesc(cx.states, ()))
    with monkeypatch.context() as patch:
        words = watch_witnesses(patch)
        assert all(step["bijection"] for step in pushout_steps(
            empty, cx.desc.cells, 3))
        assert len(words) == 15
    watch_witnesses(monkeypatch, fault=lambda path: NormalPath(
        path.start, path.end, path.segs * 2))
    with pytest.raises(EngineError, match="witness realization carrier"):
        list(pushout_steps(empty, cx.desc.cells, 3))


# ---------------------------------------------------------------------------
# JSON


def test_elem_json_roundtrip():
    cx = loopy_base()
    rng = Random(9)
    e = rand_reedy_elem(rng, cx, loop_cell(), max_entries=3)
    data = elem_to_json(e)
    assert elem_from_json(data, cx) == e


# ---------------------------------------------------------------------------
# guards on the integer fast paths


def test_time_laws_must_land_exactly_on_the_unit_interval():
    # check_normal_path, make_elem and Complex.normalize read a time law's
    # reduced integer end point: [0, 2] and [0, 1/2] are refused, and a
    # map built onto 2/2 lands on 1
    cx = validate(segment_desc())
    flag1 = make_obj("0", "1", [("0", 1, "1")])
    for dst in (2, F(1, 2)):
        chi = make_pl(1, dst, [(0, 0), (1, dst)])
        with pytest.raises(BadLengthError):
            cx.check_normal_path(NormalPath("0", "1", (Seg("e", (), chi),)))
        with pytest.raises(BadLengthError):
            cx.normalize(Step("e", (), chi))
        with pytest.raises(BadLengthError):
            make_elem(flag1, [CellPath((F(0),), chi)], cx)
    chi = make_pl(1, F(2, 2), [(0, 0), (1, F(2, 2))])
    path = NormalPath("0", "1", (Seg("e", (), chi),))
    assert cx.check_normal_path(path) is path
    assert cx.normalize(Step("e", (), chi)) == path
    assert make_elem(flag1, [CellPath((F(0),), chi)], cx).entries[0].chi == chi


def test_cell_point_details_print_rationals():
    cx = validate(segment_desc())
    flag1 = make_obj("0", "1", [("0", 1, "1")])
    with pytest.raises(OutOfDomainError) as outside:
        make_elem(flag1, [CellPath((F(3, 2),), mu(1))], cx)
    assert str(outside.value) == "cell point (3/2) outside the closed disk"
    e = make_elem(flag1, [CellPath((F(3, 5), F(4, 5)), mu(1))], cx)
    with pytest.raises(NoBoundaryDataError) as formal:
        normalize_elem(e, cx, Cell("h", 2, "0", "1"))
    assert str(formal.value) == ("no boundary interpretation for a "
                                 "dimension-2 cell point (3/5, 4/5)")


def test_make_obj_reports_conversion_then_chain_then_flag():
    # every triple is converted before the chain is checked, and the chain
    # before the flags
    with pytest.raises(BadInputError) as info:
        make_obj("u", "v", [("a", 0, "b"), ("x", True, "y")])
    assert info.type is BadInputError
    with pytest.raises(EndpointMismatchError):
        make_obj("u", "v", [("a", 5, "b"), ("x", 0, "y")])
    with pytest.raises(WrongEndpointsError):
        make_obj("u", "v", [("a", 1, "b"), ("b", 7, "c")])
    with pytest.raises(BadInputError) as info:
        make_obj("u", "v", [("a", 7, "b"), ("b", 1, "c")])
    assert info.type is BadInputError
    assert make_obj("u", "v", [("u", 1, "v"), ("v", 0, "w")]).triples == (
        ("u", 1, "v"), ("v", 0, "w"))
