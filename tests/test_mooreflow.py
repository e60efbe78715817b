"""Tests for strata, globe round trips, counit checks and flow extraction.

The congruence oracle here recomputes fundamental-category classes by plain
breadth-first search over single-rewrite moves on explicitly enumerated edge
words, independently of the topological induction under test, which never
lists the words of a hom.
"""

from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dipath.cellcomplex import Cell, Complex, ComplexDesc, NormComp, validate
from dipath.errors import (
    BadDimError,
    BadInputError,
    DuplicateLabelError,
    HasLoopsError,
)
from dipath.mooreflow import (
    chain_complex,
    chain_path_space,
    counit_check,
    fundamental_category,
    globe_roundtrip,
)
from dipath.reedy import pushout_check
from fixture_lib import CORPUS, build, edge, estep, globe
from helpers import rand_loopfree_complex


# ---------------------------------------------------------------------------
# independent congruence oracle


def oracle_edge_words(cx, src, dst):
    """Brute-force enumeration of chaining edge words src -> dst."""
    edges = [c for c in cx.desc.cells if c.disk_dim == 0]
    out = []

    def go(state, word):
        if word and state == dst:
            out.append(tuple(word))
        for c in edges:
            if c.src == state:
                go(c.dst, word + [c.id])

    go(src, [])
    return sorted(out)


def oracle_flatten(cx, cid):
    cell = cx.cell(cid)
    if cell.disk_dim == 0:
        return (cid,)
    minus, _ = cx.boundary_normal(cid)
    out = []
    for c in minus.carrier():
        out.extend(oracle_flatten(cx, c))
    return tuple(out)


def oracle_relations(cx):
    rels = []
    for cell in cx.desc.cells:
        if cell.disk_dim != 1:
            continue
        minus, plus = cx.boundary_normal(cell.id)
        lhs = tuple(x for c in minus.carrier() for x in oracle_flatten(cx, c))
        rhs = tuple(x for c in plus.carrier() for x in oracle_flatten(cx, c))
        if lhs != rhs:
            rels.append((lhs, rhs))
    return rels


def oracle_classes(words, relations):
    """Connected components of the single-rewrite graph, via BFS."""
    neighbours = {w: [] for w in words}
    for w in words:
        for lhs, rhs in relations:
            for sub, rep in ((lhs, rhs), (rhs, lhs)):
                for i in range(len(w) - len(sub) + 1):
                    if w[i:i + len(sub)] == sub:
                        w2 = w[:i] + rep + w[i + len(sub):]
                        neighbours[w].append(w2)
    seen = set()
    comps = []
    for w in words:
        if w in seen:
            continue
        queue = [w]
        seen.add(w)
        comp = []
        while queue:
            x = queue.pop(0)
            comp.append(x)
            for y in neighbours[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        comps.append(sorted(comp))
    return sorted(comps)


def oracle_hom_count(cx, src, dst):
    words = oracle_edge_words(cx, src, dst)
    return len(oracle_classes(words, oracle_relations(cx)))


def oracle_homs(cx):
    """(a, b) -> the oracle classes of its edge words, for every pair of
    states with at least one word."""
    relations = oracle_relations(cx)
    homs = {}
    for a in cx.states:
        for b in cx.states:
            comps = oracle_classes(oracle_edge_words(cx, a, b), relations)
            if comps:
                homs[(a, b)] = comps
    return homs


def oracle_class_of(cx):
    """(a, b) -> edge word -> the index of its oracle class, the classes
    sorted by least word as the engine sorts its representatives."""
    return {pair: {w: idx for idx, comp in enumerate(comps) for w in comp}
            for pair, comps in oracle_homs(cx).items()}


def assert_comp_matches_oracle(fp, class_of):
    """Every entry of every composition table is the oracle class of u + v,
    for all words u of its row class and v of its column class."""
    for (a, b, c), table in fp.comp.items():
        for u, iu in class_of[(a, b)].items():
            for v, iv in class_of[(b, c)].items():
                assert class_of[(a, c)][u + v] == table[iu][iv]


# ---------------------------------------------------------------------------
# strata


def test_chain_path_space_examples():
    s1 = chain_path_space([0])
    assert s1.reparam_arity == 1 and s1.factor_dims == (0,)
    s2 = chain_path_space([1, 1])
    assert s2.reparam_arity == 2 and s2.factor_dims == (1, 1)
    s3 = chain_path_space([0, 0, 0])
    assert s3.reparam_arity == 3
    with pytest.raises(BadInputError):
        chain_path_space([])


def test_chain_complex_has_single_carrier():
    for p in range(1, 6):
        cx = chain_complex(p)
        stratum = chain_path_space([0] * p)
        assert cx.enumerate_carriers("a0", f"a{p}") == [stratum.carrier]


@pytest.mark.parametrize("dim, error", [
    (2, BadDimError), (0.5, BadInputError), (True, BadInputError),
    ("1", BadInputError),
])
def test_chain_refuses_non_int_and_out_of_range_dimensions(dim, error):
    with pytest.raises(error):
        chain_path_space([0, dim])


# ---------------------------------------------------------------------------
# globe round trip


def test_globe_roundtrip_segment():
    assert globe_roundtrip(1, ["*"])["ok"]


def test_globe_roundtrip_examples():
    assert globe_roundtrip(1, ["x", "y"])["ok"]
    report = globe_roundtrip(F(3, 2), ["a", "b", "c"])
    assert report["ok"] and report["len"] == "3/2"
    assert globe_roundtrip(1, []) == {"len": "1", "basis": [], "ok": True}
    with pytest.raises(DuplicateLabelError):
        globe_roundtrip(1, ["x", "y", "x"])


def test_globe_roundtrip_reads_the_labels_back_through_the_engine(
        monkeypatch):
    # the round trip fails when the fundamental category loses a class
    real = fundamental_category

    def drop_a_class(cx):
        fp = real(cx)
        fp.homs = {ab: words[1:] if len(words) > 1 else words
                   for ab, words in fp.homs.items()}
        return fp

    monkeypatch.setattr("dipath.mooreflow.fundamental_category", drop_a_class)
    assert not globe_roundtrip(1, ["x", "y"])["ok"]


# ---------------------------------------------------------------------------
# counit check


def test_counit_check_discrete():
    cx = validate(ComplexDesc(("x", "y"), ()))
    report = counit_check(cx, 4)
    assert report["ok"] and report["steps"] == []


def test_counit_check_square():
    report = counit_check(build("square"), 6)
    assert report["ok"]
    assert len(report["steps"]) == 5
    assert all(step["bijection"] for step in report["steps"])


def test_counit_check_refuses_a_negative_bound_with_or_without_cells():
    # the carrier table's own check, whether or not a table gets built
    for cx in (Complex(("a", "b")), build("square")):
        with pytest.raises(BadInputError,
                           match=r"^carrier bound must be >= 0, got -1$"):
            counit_check(cx, -1)
    with pytest.raises(BadInputError,
                       match=r"^carrier bound must be >= 0, got -1$"):
        build("square").carrier_table(-1)


def test_pushout_checks_refuse_a_missing_bound():
    # both checks spend the bound as a budget, so None is refused before
    # any cell is admitted: on a complex with no cells, on a loop-free one
    # and on a base with loops alike
    refused = r"^a pushout check needs a carrier bound, got None$"
    for cx in (Complex(("a", "b")), chain_complex(2), build("loop_heavy")):
        with pytest.raises(BadInputError, match=refused):
            counit_check(cx, None)
    for base in (Complex(("0", "1")), build("loop")):
        with pytest.raises(BadInputError, match=refused):
            pushout_check(base, edge("f", "0", "1"), None)
    # a bound that is not an int, or is a bool, is refused the same way
    for bound in (2.5, True, "3"):
        not_int = rf"^carrier bound must be an integer, got {bound!r}$"
        for cx in (Complex(("a", "b")), chain_complex(2)):
            with pytest.raises(BadInputError, match=not_int):
                counit_check(cx, bound)
        with pytest.raises(BadInputError, match=not_int):
            pushout_check(Complex(("0", "1")), edge("f", "0", "1"), bound)


def test_counit_check_with_loop():
    report = counit_check(build("loop_heavy"), 4)
    assert report["ok"]


@settings(max_examples=60, deadline=None, database=None)
@given(st.one_of(st.integers(0, 2**32 - 1), st.just("loop_heavy")),
       st.integers(0, 6))
@example("loop_heavy", 6)
@example(21, 5)
def test_counit_check_on_random_complexes(source, bound):
    # each step, run on the previous step's pushout with the witness parts
    # of earlier steps, equals the stand-alone check on a freshly validated
    # prefix, which has fresh witness parts
    cx = (build(source) if isinstance(source, str)
          else rand_loopfree_complex(Random(source)))
    report = counit_check(cx, bound)
    assert report["ok"]
    cells = cx.desc.cells
    assert report["steps"] == [
        pushout_check(validate(ComplexDesc(cx.states, cells[:i])), cell, bound)
        for i, cell in enumerate(cells)]


@pytest.mark.parametrize("source", sorted(CORPUS) + list(range(6))
                         + ["grid33"])
def test_counit_steps_equal_stand_alone_pushout_checks(source):
    # a step takes its k=0 words from the step before and checks only its
    # fresh runs' slots; the stand-alone check enumerates and witnesses
    # every shape on a freshly validated prefix
    from helpers import seeded_grid

    if source == "grid33":
        cx = seeded_grid(Random("grid:7:0"), 3, 3)
    elif isinstance(source, str):
        cx = build(source)
    else:
        cx = rand_loopfree_complex(Random(source))
    cells = cx.desc.cells
    prefixes = [validate(ComplexDesc(cx.states, cells[:i]))
                for i in range(len(cells))]
    for bound in (0, 2, 5):
        report = counit_check(cx, bound)
        assert report["ok"]
        assert len(report["steps"]) == len(cells)
        for step, base, cell in zip(report["steps"], prefixes, cells):
            assert step == pushout_check(base, cell, bound)


def spy_steps(patch):
    """Log, per pushout step, its base and pushout, the elements tested
    with ``is_simplified``, the slots ``WitnessPaths.slot`` hands out, and
    every ``normalize`` and ``check_normal_path`` call made while it runs,
    with the complex that made it."""
    import dipath.reedy as reedy

    log = []
    attach, simplified = reedy.pushout_complex, reedy.is_simplified
    slot = reedy.WitnessPaths.slot
    normalize, check = Complex.normalize, Complex.check_normal_path

    def step_spy(base, cell):
        log.append({"base": base, "cell": cell, "elems": [], "handed": [],
                    "normalized": [], "checked": []})
        log[-1]["pushout"] = attach(base, cell)
        return log[-1]["pushout"]

    def simplified_spy(elem, base, cell):
        log[-1]["elems"].append(elem)
        return simplified(elem, base, cell)

    def slot_spy(self, word, a, b):
        handed = slot(self, word, a, b)
        log[-1]["handed"].append((word, handed))
        return handed

    def normalize_spy(self, expr):
        if log:
            log[-1]["normalized"].append((self, expr))
        return normalize(self, expr)

    def check_spy(self, np):
        if log:
            log[-1]["checked"].append((self, np))
        return check(self, np)

    patch.setattr(reedy, "pushout_complex", step_spy)
    patch.setattr(reedy, "is_simplified", simplified_spy)
    patch.setattr(reedy.WitnessPaths, "slot", slot_spy)
    patch.setattr(Complex, "normalize", normalize_spy)
    patch.setattr(Complex, "check_normal_path", check_spy)
    return log


def assert_step_work(seen, fresh):
    """One pushout step did its work once: ``normalize`` ran on the pushout
    only, for the new cell's two boundaries when it is a globe and then for
    the pass through its centre; ``WitnessPaths.slot`` handed out each word
    once, exactly the ``fresh`` runs and the runs its witnesses hold; and
    each slot handed out was checked once against the base and once
    against the pushout, and nothing else was checked."""
    import dipath.reedy as reedy
    from dipath.cellcomplex import Step
    from dipath.reparam import mu

    base, pushout, cell = seen["base"], seen["pushout"], seen["cell"]
    sides = ([cell.boundary_minus, cell.boundary_plus] if cell.disk_dim
             else [])
    assert [(x is pushout, e) for x, e in seen["normalized"]] == [
        (True, e) for e in sides + [Step(cell.id, (F(0),) * cell.disk_dim,
                                         mu(1))]]
    held = {e.path.carrier() for elem in seen["elems"] for e in elem.entries
            if isinstance(e, reedy.APath)}
    words = [w for w, _ in seen["handed"]]
    assert len(set(words)) == len(words)
    assert set(words) == set(fresh) | held
    paths = [id(entry.path) for _, entry in seen["handed"]]
    checked = [(x is base, x is pushout, id(np)) for x, np in seen["checked"]]
    assert checked == [(on_base, not on_base, p) for p in paths
                       for on_base in (True, False)]


def test_counit_check_witnesses_every_shape_at_every_step(monkeypatch):
    # every shape a step adds (k >= 1 passes through its cell) is built and
    # tested; a k=0 shape, a single base run that realizes to itself and was
    # witnessed at the step attaching its last cell, is not rebuilt, but its
    # slot path is still checked while it is fresh.  Each step normalizes
    # one pass and checks each slot it hands out once on each complex,
    # however many of its witnesses hold it
    from random import Random

    from helpers import rand_loopfree_complex

    log = spy_steps(monkeypatch)
    rng = Random(8)
    complexes = [build(name) for name in ("square", "grid21", "stacked_globe",
                                          "double_globe", "loop_heavy")]
    complexes += [rand_loopfree_complex(rng) for _ in range(4)]
    for cx in complexes:
        log.clear()
        report = counit_check(cx, 5)
        assert report["ok"] and len(log) == len(report["steps"])
        fresh = []
        for step, seen in zip(report["steps"], log):
            assert seen["pushout"].desc.cells == (
                seen["base"].desc.cells + (cx.cell(step["cell"]),))
            new = [w for w in step["lhs_carriers"] if step["cell"] in w]
            assert len(seen["elems"]) == len(new)
            assert_step_work(seen, fresh)
            fresh = new
        # the pushout of each step is the base of the next
        for prev, nxt in zip(log, log[1:]):
            assert nxt["base"] is prev["pushout"]


@pytest.mark.parametrize("source", sorted(CORPUS) + list(range(6)))
def test_pushout_check_alone_witnesses_every_shape(monkeypatch, source):
    # the stand-alone check is one counit step whose carried words are the
    # base's carriers, all of them fresh: on every prefix it builds and
    # tests a witness for every shape through the cell (k >= 1), normalizes
    # one pass and checks the slot of every base word once against each of
    # its two complexes, whether or not witnesses hold it
    cx = (build(source) if isinstance(source, str)
          else rand_loopfree_complex(Random(source)))
    cells = cx.desc.cells
    log = spy_steps(monkeypatch)
    for i, cell in enumerate(cells):
        base = validate(ComplexDesc(cx.states, cells[:i]))
        log.clear()
        report = pushout_check(base, cell, 5)
        shapes = report["lhs_carriers"]
        runs = [w for ws in base.carrier_table(5).values() for w in ws]
        assert report["bijection"]
        (seen,) = log
        assert seen["base"] is base
        assert len(seen["elems"]) == sum(cell.id in w for w in shapes)
        assert sorted(runs) == [w for w in shapes if cell.id not in w]
        assert_step_work(seen, runs)


def test_counit_work_on_a_grid_is_pinned(monkeypatch):
    # exact counts, no timing: the 3x3 grid at bound 6 attaches 24 edges
    # and 9 globes, so its check normalizes 33 passes and 18 boundaries, and
    # it hands out 633 slots over its steps, each checked on both complexes.
    # Normalizing each witness's pass and checking each witness's slots
    # made these 410 and 1,572
    from helpers import seeded_grid

    cx = seeded_grid(Random("grid:7:0"), 3, 3)
    log = spy_steps(monkeypatch)
    report = counit_check(cx, 6)
    assert report["ok"] and len(log) == len(cx.desc.cells) == 33
    fresh = []
    for step, seen in zip(report["steps"], log):
        assert_step_work(seen, fresh)
        fresh = [w for w in step["lhs_carriers"] if step["cell"] in w]
    assert sum(len(seen["normalized"]) for seen in log) == 51
    assert sum(len(seen["handed"]) for seen in log) == 633
    assert sum(len(seen["checked"]) for seen in log) == 1266
    assert sum(len(seen["elems"]) for seen in log) == 392


def test_incremental_witness_realizations_equal_their_oracles(monkeypatch):
    # each witness is realized from its prefix's realization and one more
    # part; on the corpus (loop_heavy under its bound) and on random
    # complexes it equals the one-shot realize and the unit path of its word
    from helpers import watch_witnesses

    rng = Random(31)
    complexes = [build(name) for name in sorted(CORPUS)]
    complexes += [rand_loopfree_complex(rng) for _ in range(8)]
    words = watch_witnesses(monkeypatch)
    for cx in complexes:
        for bound in (1, 3, 5):
            words.clear()
            report = counit_check(cx, bound)
            assert report["ok"]
            assert sorted(words) == sorted(
                w for step in report["steps"] for w in step["lhs_carriers"]
                if step["cell"] in w)


@settings(max_examples=40, deadline=None, database=None)
@given(st.one_of(st.integers(0, 2**32 - 1), st.just("loop_heavy")),
       st.integers(0, 6))
@example("loop_heavy", 6)
def test_counit_steps_split_carriers_into_old_and_new(source, bound):
    # the counting half of the counit check's lemma: the k=0 words of a
    # step are the carriers of its base, and the k >= 1 words of all the
    # steps are the carriers of the whole complex, each exactly once
    cx = (build(source) if isinstance(source, str)
          else rand_loopfree_complex(Random(source)))
    cells = cx.desc.cells
    prefixes = [validate(ComplexDesc(cx.states, cells[:i]))
                for i in range(len(cells))]
    report = counit_check(cx, bound)
    assert report["ok"]

    def carriers(px):
        return sorted(w for ws in px.carrier_table(bound).values()
                      for w in ws)

    new = []
    for step, base in zip(report["steps"], prefixes):
        assert [w for w in step["lhs_carriers"]
                if step["cell"] not in w] == carriers(base)
        new += [w for w in step["lhs_carriers"] if step["cell"] in w]
    assert sorted(new) == carriers(cx)


def test_counit_report_shares_equal_carrier_lists(corpus_dir, capsys):
    # a step that holds reports one list under both keys, and its k=0 words
    # are the word tuples of the step before; the CLI still prints both
    # lists in full, each word as an array
    import json
    import operator

    from dipath.cli import run

    for name in ("double_globe", "loop_heavy", "grid21"):
        cx = build(name)
        report = counit_check(cx, 4)
        cells = cx.desc.cells
        pushouts = [validate(ComplexDesc(cx.states, cells[:i]))
                    for i in range(1, len(cells) + 1)]
        want = [sorted(w for words in px.carrier_table(4).values()
                       for w in words) for px in pushouts]
        assert report["ok"]
        for step, carriers in zip(report["steps"], want):
            assert step["rhs_carriers"] is step["lhs_carriers"]
            assert step["lhs_carriers"] == carriers
        for prev, step in zip(report["steps"], report["steps"][1:]):
            old = [w for w in step["lhs_carriers"] if step["cell"] not in w]
            assert len(old) == len(prev["rhs_carriers"])
            assert all(map(operator.is_, old, prev["rhs_carriers"]))
        assert run(["counit-check", "--bound", "4",
                    str(corpus_dir / f"{name}.json")]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(json.dumps(report))
        for step, carriers in zip(printed["steps"],
                                  json.loads(json.dumps(want))):
            assert step["lhs_carriers"] == step["rhs_carriers"] == carriers


def _poison_slot(monkeypatch, word, bad_seg):
    """Make every WitnessPaths hand out, for ``word`` only, a slot path
    whose first segment is replaced by ``bad_seg(seg)``."""
    import dipath.reedy as reedy
    from dipath.cellcomplex import NormalPath

    slot = reedy.WitnessPaths.slot

    def poisoned(self, run, a, b):
        entry = slot(self, run, a, b)
        if run == word:
            segs = entry.path.segs
            entry = reedy.APath(
                NormalPath(a, b, (bad_seg(segs[0]),) + segs[1:]))
        return entry

    monkeypatch.setattr(reedy.WitnessPaths, "slot", poisoned)


def _steps_until_raise(monkeypatch, cx, bound, error):
    """The cells of the steps counit_check began before it raised."""
    import dipath.reedy as reedy

    began = []
    pushout_complex = reedy.pushout_complex

    def step_spy(base, cell):
        began.append(cell.id)
        return pushout_complex(base, cell)

    monkeypatch.setattr(reedy, "pushout_complex", step_spy)
    with pytest.raises(error):
        counit_check(cx, bound)
    return began


def _first_step_using(cx, word):
    # a run word is a carrier of the base, so it is first used at the step
    # right after its last cell was attached
    order = [c.id for c in cx.desc.cells]
    return max(order.index(cid) for cid in word) + 1


@pytest.mark.parametrize("name, word", [("double_globe", ("g1", "e2p")),
                                        ("stacked_globe", ("g12",))])
def test_a_bad_shared_slot_point_fails_the_first_step_using_it(
        monkeypatch, name, word):
    # the shared slot path is checked by every witness, so a point outside
    # the disk is caught as soon as a step uses it
    from dipath.cellcomplex import Seg
    from dipath.errors import OutOfDomainError

    cx = build(name)
    _poison_slot(monkeypatch, word,
                 lambda seg: Seg(seg.cell, (F(2),), seg.chi))
    began = _steps_until_raise(monkeypatch, cx, 5, OutOfDomainError)
    step = _first_step_using(cx, word)
    assert began == [c.id for c in cx.desc.cells[:step + 1]]


def test_a_bad_shared_slot_time_law_fails_the_first_step_using_it(
        monkeypatch):
    from random import Random

    from dipath.cellcomplex import Complex, Seg
    from dipath.errors import BadLengthError
    from dipath.reparam import make_pl
    from helpers import rand_loopfree_complex

    onto_two = make_pl(1, 2, [(0, 0), (1, 2)])
    rng = Random(11)
    for _ in range(4):
        cx = rand_loopfree_complex(rng)
        cells = cx.desc.cells
        base = Complex(cx.states)
        for cell in cells[:-1]:
            base = base.extend(cell)
        words = sorted(w for ws in base.carrier_table(3).values() for w in ws)
        word = rng.choice(words)
        with monkeypatch.context() as patch:
            _poison_slot(patch, word,
                         lambda seg: Seg(seg.cell, seg.z, onto_two))
            began = _steps_until_raise(patch, cx, 3, BadLengthError)
        step = _first_step_using(cx, word)
        assert began == [c.id for c in cells[:step + 1]]
        assert counit_check(cx, 3)["ok"]


@pytest.mark.parametrize("name, word", [("double_globe", ("g1", "e2p")),
                                        ("stacked_globe", ("g12",))])
def test_a_bad_slot_of_a_lone_run_fails_the_stand_alone_check(
        monkeypatch, name, word):
    # the word is a carrier of the base before the last cell that no shape
    # through that cell extends, so only the check of its slot path as a
    # base run can catch it
    from dipath.cellcomplex import Seg
    from dipath.errors import OutOfDomainError

    cx = build(name)
    *before, cell = cx.desc.cells
    base = validate(ComplexDesc(cx.states, tuple(before)))
    report = pushout_check(base, cell, 5)
    assert word in report["lhs_carriers"]
    assert not any(cell.id in w and w[:len(word)] == word
                   for w in report["lhs_carriers"])
    _poison_slot(monkeypatch, word,
                 lambda seg: Seg(seg.cell, (F(2),), seg.chi))
    with pytest.raises(OutOfDomainError, match="segment point"):
        pushout_check(base, cell, 5)


def test_fundamental_category_oracle_on_random_complexes():
    from random import Random

    from helpers import rand_loopfree_complex

    rng = Random(22)
    for _ in range(6):
        cx = rand_loopfree_complex(rng)
        fp = fundamental_category(cx)
        for a in cx.states:
            for b in cx.states:
                assert len(fp.hom(a, b)) == oracle_hom_count(cx, a, b)


# ---------------------------------------------------------------------------
# fundamental category


def test_square_with_fill_has_one_class():
    fp = fundamental_category(build("square"))
    assert len(fp.hom("bot", "top")) == 1
    assert oracle_hom_count(build("square"), "bot", "top") == 1


def test_square_without_fill_has_two_classes():
    fp = fundamental_category(build("square_open"))
    assert len(fp.hom("bot", "top")) == 2
    assert oracle_hom_count(build("square_open"), "bot", "top") == 2


def test_grid_all_corner_homs_collapse():
    cx = build("grid21")
    fp = fundamental_category(cx)
    for pair in [("A", "E"), ("B", "Fs"), ("A", "Fs")]:
        assert len(fp.hom(*pair)) == 1
        assert oracle_hom_count(cx, *pair) == 1
    assert len(fp.hom("A", "C")) == 1


def test_fundamental_category_matches_oracle_everywhere():
    for name in ["square", "square_open", "grid21", "double_globe",
                 "triangle", "diamond", "stacked_globe"]:
        cx = build(name)
        fp = fundamental_category(cx)
        for a in cx.states:
            for b in cx.states:
                words = oracle_edge_words(cx, a, b)
                comps = oracle_classes(words, oracle_relations(cx))
                assert len(fp.hom(a, b)) == len(comps)
                if comps:
                    # representatives are the least word of each class
                    assert sorted(fp.hom(a, b)) == sorted(
                        c[0] for c in comps)


def test_relation_sides_of_different_lengths():
    # The relations have sides of lengths 1 and 2 (g: e ~ f.h), 1 and 1
    # (k: f2 ~ f) and 2 and 2 (q: h.x ~ h.y); they must also act inside
    # longer words, which every composite checked against the oracle shows.
    cx = validate(ComplexDesc(("a", "b", "c", "d"), (
        edge("e", "a", "c"),
        edge("f", "a", "b"),
        edge("f2", "a", "b"),
        edge("h", "b", "c"),
        edge("x", "c", "d"),
        edge("y", "c", "d"),
        globe("g", "a", "c", estep("e"), NormComp(estep("f"), estep("h"))),
        globe("k", "a", "b", estep("f2"), estep("f")),
        globe("q", "b", "d", NormComp(estep("h"), estep("x")),
              NormComp(estep("h"), estep("y"))),
    )))
    fp = fundamental_category(cx)
    relations = oracle_relations(cx)
    assert [tuple(map(len, r)) for r in relations] == [(1, 2), (1, 1), (2, 2)]
    for a in cx.states:
        for b in cx.states:
            comps = oracle_classes(oracle_edge_words(cx, a, b), relations)
            assert fp.hom(a, b) == tuple(c[0] for c in comps)
    assert_comp_matches_oracle(fp, oracle_class_of(cx))
    assert fp.hom("a", "c") == (("e",),)
    assert fp.hom("a", "d") == (("e", "x"),)
    assert fp.hom("b", "d") == (("h", "x"),)


def test_no_two_cells_means_classes_are_carriers():
    # Without globes the hom sizes equal the carrier counts.
    for name in ["diamond", "chain3", "parallel3"]:
        cx = build(name)
        fp = fundamental_category(cx)
        for a in cx.states:
            for b in cx.states:
                assert len(fp.hom(a, b)) == len(
                    cx.enumerate_carriers(a, b))


def test_composition_well_defined():
    for name in ["square", "grid21", "double_globe", "triangle"]:
        cx = build(name)
        fp = fundamental_category(cx)
        assert_comp_matches_oracle(fp, oracle_class_of(cx))


def test_composition_table_associative():
    for name in ["grid21", "double_globe", "chain3"]:
        fp = fundamental_category(build(name))
        for (a, b, c), left_table in fp.comp.items():
            for (b2, c2, d), right_table in fp.comp.items():
                if (b2, c2) != (b, c) or (a, c, d) not in fp.comp:
                    continue
                for i in range(len(fp.hom(a, b))):
                    for j in range(len(fp.hom(b, c))):
                        for k in range(len(fp.hom(c, d))):
                            via_left = fp.comp[(a, c, d)][left_table[i][j]][k]
                            via_right = fp.comp[(a, b, d)][i][right_table[j][k]]
                            assert via_left == via_right


def test_composition_table_triangle():
    fp = fundamental_category(build("triangle"))
    table = fp.comp[("al", "be", "ga")]
    # a . b lands in the class of e, which is the sole al -> ga class.
    assert table == ((0,),)
    assert len(fp.hom("al", "ga")) == 1


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_fundamental_category_is_the_oracle_on_random_complexes(seed):
    # the least word of every class, and a composition table for exactly
    # the composable pairs of homs, each entry the oracle class of u + v
    cx = rand_loopfree_complex(Random(seed))
    fp = fundamental_category(cx)
    homs = oracle_homs(cx)
    assert fp.homs == {pair: tuple(comp[0] for comp in comps)
                       for pair, comps in homs.items()}
    assert set(fp.comp) == {(a, b, c) for a, b in homs for b2, c in homs
                            if b2 == b}
    assert_comp_matches_oracle(fp, oracle_class_of(cx))


def test_fundamental_category_rejects_loops():
    with pytest.raises(HasLoopsError):
        fundamental_category(build("loop"))


def test_fundamental_category_rejects_higher_cells():
    # validate refuses a disk dimension above 1, so no complex that
    # fundamental_category can receive holds one, and a validated complex
    # cannot be given one afterwards
    desc = CORPUS["segment"]
    higher = Cell("h", 2, "0", "1")
    with pytest.raises(BadDimError):
        validate(ComplexDesc(desc.states, desc.cells + (higher,)))
    cx = build("segment")
    with pytest.raises(AttributeError):
        cx.desc = ComplexDesc(desc.states, desc.cells + (higher,))
    assert cx.desc == desc
    assert fundamental_category(cx).hom("0", "1") == (("e",),)


def test_flow_presentation_json():
    fp = fundamental_category(build("square"))
    data = fp.to_json()
    assert data["objects"] == ["bot", "p", "q", "top"]
    assert data["homs"]["bot→top"] == (("a", "b"),)
    assert "bot→p→top" in data["comp"]
