"""Tests for complex validation, normalization and carrier enumeration."""

from fractions import Fraction as F
from functools import reduce
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dipath.cellcomplex import (
    Cell,
    Complex,
    ComplexDesc,
    Moore,
    NormComp,
    NormalPath,
    Repar,
    Seg,
    Step,
    _sq_norm_terms,
    complex_from_json,
    complex_to_json,
    disk_side,
    expr_from_json,
    expr_to_json,
    normal_path_from_json,
    normal_path_to_json,
    np_to_expr,
    validate,
)
from dipath.errors import (
    BadDimError,
    BadInputError,
    BadLengthError,
    BoundaryEndpointMismatchError,
    EndpointMismatchError,
    ForwardReferenceError,
    LengthMismatchError,
    OutOfDomainError,
    UnboundedEnumerationError,
    UnknownCellError,
    UnknownStateError,
)
from dipath.mooreflow import chain_complex
from dipath.reparam import compose, identity, inverse, make_pl, mu, tensor
from dipath.sampling import rand_partition, rand_pl
from fixture_lib import (
    CORPUS,
    build,
    chain_desc,
    edge,
    estep,
    globe,
    gstep,
    loop_desc,
    segment_desc,
    square_desc,
)
from helpers import (
    FAULTS,
    chain_carriers,
    expr_nodes,
    fold_normalize,
    oracle_eval,
    rand_composable_unit_paths,
    rand_fault_expr,
    rand_normal_path,
    rand_times,
    rand_tower,
    rand_unit_path_expr,
    scaled,
    seeded_grid,
)

# ---------------------------------------------------------------------------
# validation


def test_validate_states_only():
    cx = validate(ComplexDesc(("x",), ()))
    assert cx.loop_free


def test_validate_segment():
    cx = validate(segment_desc())
    assert cx.loop_free
    assert cx.cell("e").src == "0"


def test_validate_square_fixture():
    cx = build("square")
    assert cx.loop_free
    minus, plus = cx.boundary_normal("sq")
    assert minus.carrier() == ("a", "b")
    assert plus.carrier() == ("c", "d")
    assert minus.total_len == 1


def test_validate_unknown_state():
    with pytest.raises(UnknownStateError):
        validate(ComplexDesc(("0",), (edge("e", "0", "9"),)))


def test_validate_forward_reference():
    # The globe's boundary uses an edge attached after it.
    desc = ComplexDesc(("0", "1"), (
        edge("em", "0", "1"),
        globe("g", "0", "1", estep("em"), estep("ep")),
        edge("ep", "0", "1"),
    ))
    with pytest.raises(ForwardReferenceError):
        validate(desc)


def test_validate_boundary_endpoint_mismatch():
    desc = ComplexDesc(("0", "1", "2"), (
        edge("e1", "0", "1"),
        edge("e2", "1", "2"),
        globe("g", "0", "1", estep("e1"), estep("e2")),
    ))
    with pytest.raises(BoundaryEndpointMismatchError):
        validate(desc)


def test_validate_bad_dim():
    with pytest.raises(BadDimError):
        validate(ComplexDesc(("0", "1"), (Cell("c", 2, "0", "1"),)))
    with pytest.raises(BadDimError):
        validate(ComplexDesc(("0", "1"), (Cell("g", 1, "0", "1"),)))


def test_validate_boundary_must_have_length_one():
    desc = ComplexDesc(("0", "1"), (
        edge("em", "0", "1"),
        edge("ep", "0", "1"),
        globe("g", "0", "1",
              Repar(estep("em"), mu(2)), estep("ep")),
    ))
    with pytest.raises(BadLengthError):
        validate(desc)


def test_loop_detection():
    assert not validate(loop_desc()).loop_free
    assert validate(chain_desc(3)).loop_free


# ---------------------------------------------------------------------------
# normalization basics


def test_single_interior_step_is_minimal():
    cx = build("square")
    nf = cx.normalize(gstep("sq", F(1, 3)))
    assert len(nf.segs) == 1


def test_moore_associativity_up_to_normal_form():
    cx = build("chain3")
    rng = Random(2)
    g1, g2, g3 = rand_composable_unit_paths(rng, cx, 3, 3)
    left = Moore(Moore(g1, g2), g3)
    right = Moore(g1, Moore(g2, g3))
    assert cx.normalize(left) == cx.normalize(right)


def test_loop_edge_composed_with_itself_has_two_segments():
    cx = build("loop")
    expr = Moore(estep("l"), estep("l"))
    nf = cx.normalize(expr)
    assert nf.carrier() == ("l", "l")
    assert len(nf.segs) == 2


def test_edge_chain_normal_form():
    cx = build("chain3")
    expr = Moore(Repar(estep("e1"), mu(F(1, 3))),
                 Repar(estep("e2"), mu(F(2, 3))))
    nf = cx.normalize(expr)
    assert nf.carrier() == ("e1", "e2")
    assert [s.length for s in nf.segs] == [F(1, 3), F(2, 3)]
    assert (nf.start, nf.end) == ("s0", "s2")


def test_moore_endpoint_mismatch():
    cx = build("chain3")
    with pytest.raises(EndpointMismatchError):
        cx.normalize(Moore(estep("e1"), estep("e1")))
    with pytest.raises(EndpointMismatchError):
        cx.normalize(Moore(estep("e1"), estep("e3")))


def test_normalized_compose_requires_unit_lengths():
    cx = build("chain3")
    with pytest.raises(BadLengthError):
        cx.normalize(NormComp(scaled(estep("e1"), 2), estep("e2")))


def test_normalized_compose_first_half_speed_doubles():
    # The first half of a normalized concatenation runs the left path at
    # double speed: at t = 1/4 it sits where the left path sits at 1/2.
    cx = build("chain3")
    rng = Random(3)
    g1 = rand_unit_path_expr(rng, cx, ("e1",))
    g2 = rand_unit_path_expr(rng, cx, ("e2",))
    expr = NormComp(g1, g2)
    assert cx.eval_path(expr, F(1, 4)) == oracle_eval(cx, g1, F(1, 2))
    assert oracle_eval(cx, expr, F(1, 4)) == oracle_eval(cx, g1, F(1, 2))


def test_normcomp_equals_half_speed_moore():
    cx = build("chain3")
    rng = Random(4)
    g1 = rand_unit_path_expr(rng, cx, ("e1",))
    g2 = rand_unit_path_expr(rng, cx, ("e2", "e3"))
    lhs = NormComp(g1, g2)
    rhs = Moore(Repar(g1, mu(F(1, 2))), Repar(g2, mu(F(1, 2))))
    assert cx.normalize(lhs) == cx.normalize(rhs)


def test_normalize_idempotent():
    cx = build("square")
    rng = Random(5)
    for carrier in [("a", "b"), ("sq",), ("c", "d")]:
        nf = cx.normalize(rand_unit_path_expr(rng, cx, carrier))
        assert cx.normalize(np_to_expr(nf)) == nf


# ---------------------------------------------------------------------------
# reparametrization


def test_reparametrize_by_identity_is_neutral():
    cx = build("square")
    rng = Random(6)
    expr = rand_unit_path_expr(rng, cx, ("a", "b"))
    assert cx.normalize(Repar(expr, identity(1))) == cx.normalize(expr)


def test_reparametrize_length_mismatch():
    cx = build("segment")
    with pytest.raises(LengthMismatchError):
        cx.normalize(Repar(estep("e"), inverse(mu(2))))
    assert cx.normalize(Repar(estep("e"), mu(2))).total_len == 2


def test_rescaling_distributes_over_segments():
    # Rescaling a two-block path onto [0, l] multiplies each block length
    # by l, as normal forms.
    cx = build("chain3")
    rng = Random(7)
    for _ in range(10):
        g1 = rand_unit_path_expr(rng, cx, ("e1",))
        g2 = rand_unit_path_expr(rng, cx, ("e2",))
        l1, l2 = rand_partition(rng, 1, 2)
        ell = rng.choice([F(1, 2), F(2), F(3, 4)])
        lhs = Repar(Moore(scaled(g1, l1), scaled(g2, l2)), mu(ell))
        rhs = Moore(scaled(g1, l1 * ell), scaled(g2, l2 * ell))
        assert cx.normalize(lhs) == cx.normalize(rhs)


def test_block_reparametrization_on_three_chain():
    # Tensor blocks absorb into the segments one by one.
    cx = build("chain3")
    rng = Random(8)
    g = [rand_unit_path_expr(rng, cx, (f"e{i}",)) for i in (1, 2, 3)]
    lens = rand_partition(rng, 1, 3)
    dyadic = [F(1, 4), F(1, 4), F(1, 2)]
    phis = [rand_pl(rng, d, l) for d, l in zip(dyadic, lens)]
    phi = tensor(*phis)
    chain = reduce(Moore, [scaled(x, l) for x, l in zip(g, lens)])
    lhs = Repar(chain, phi)
    rhs = reduce(
        Moore, [Repar(scaled(x, l), p) for x, l, p in zip(g, lens, phis)])
    assert cx.normalize(lhs) == cx.normalize(rhs)


# ---------------------------------------------------------------------------
# boundary rewriting


def test_boundary_step_rewrites_to_attached_path():
    cx = build("square")
    chi = rand_pl(Random(9), 1, 1, max_segments=4)
    expr = Step("sq", (F(-1),), chi)
    nf = cx.normalize(expr)
    assert nf.carrier() == ("a", "b")
    minus, _ = cx.boundary_normal("sq")
    from dipath.cellcomplex import repar_normal
    assert nf == repar_normal(minus, chi)
    for t in rand_times(Random(10), 1, 5):
        assert cx.eval_path(expr, t) == oracle_eval(cx, expr, t)


def test_boundary_plus_side():
    cx = build("square")
    nf = cx.normalize(Step("sq", (F(1),), identity(1)))
    assert nf.carrier() == ("c", "d")


def test_stacked_globe_boundary_resolution():
    # g23's lower boundary is e2, also the upper boundary of g12; boundary
    # steps stay within edge strata after rewriting.
    cx = build("stacked_globe")
    nf = cx.normalize(Step("g23", (F(-1),), identity(1)))
    assert nf.carrier() == ("e2",)


def test_out_of_disk_point_rejected():
    cx = build("square")
    with pytest.raises(OutOfDomainError):
        cx.normalize(Step("sq", (F(2),), identity(1)))
    with pytest.raises(BadDimError):
        cx.normalize(Step("sq", (), identity(1)))


# ---------------------------------------------------------------------------
# two-pass normalization against the bottom-up fold


def _outcome(fn, expr):
    try:
        return fn(expr)
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)


def _two_fault_cases():
    """Trees with two faults each, and the error the fold meets first."""
    cx = build("square")
    long_a = Repar(estep("a"), mu(2))
    return cx, [
        # the left subtree before the right one
        (Moore(Step("nowhere", (), identity(1)), Step("sq", (F(2),),
                                                      identity(1))),
         UnknownCellError),
        (Moore(estep("a"), Moore(estep("c"), Step("sq", (), identity(1)))),
         BadDimError),
        # a NormComp's operand lengths before its endpoints
        (NormComp(long_a, estep("c")), BadLengthError),
        # a child before its parent
        (Repar(Moore(estep("a"), estep("c")), mu(3)), EndpointMismatchError),
        (NormComp(Repar(estep("a"), inverse(mu(3))), estep("b")),
         LengthMismatchError),
        (Moore(NormComp(estep("a"), "neither"), estep("q")), BadInputError),
    ]


def test_normalize_agrees_with_the_bottom_up_fold():
    rng = Random(1515)
    complexes = [build(name) for name in CORPUS] + [
        seeded_grid(Random(seed), n, m)
        for seed, n, m in ((3, 2, 2), (4, 1, 3), (5, 3, 3))]
    cases = []
    for cx in complexes:
        for _ in range(120):
            faults = []
            expr, _, _ = rand_fault_expr(
                rng, cx, rng.choice(cx.states), rng.randrange(7),
                rng.choice([0, 0, 0.1, 0.25, 0.4]), faults)
            cases.append((cx, expr, faults))
    chain = chain_complex(12)
    edges = [c.id for c in chain.desc.cells]
    for depth in range(1, 13):
        for _ in range(8):
            cases.append((chain, rand_tower(rng, edges, depth), []))
    square, pinned = _two_fault_cases()
    cases += [(square, expr, []) for expr, _ in pinned]
    errors, faults_seen, valid, two_faults = set(), set(), 0, 0
    for cx, expr, faults in cases:
        got = _outcome(cx.normalize, expr)
        assert got == _outcome(lambda e: fold_normalize(cx, e), expr), expr
        if isinstance(got, NormalPath):
            valid += 1
        else:
            errors.add(got[0])
        faults_seen.update(faults)
        two_faults += len(faults) >= 2
    for expr, error in pinned:
        with pytest.raises(error):
            square.normalize(expr)
    nodes = [node for _, expr, _ in cases for node in expr_nodes(expr)]
    assert len(cases) >= 2000 and 800 <= valid <= len(cases) - 500
    assert two_faults >= 100
    assert faults_seen >= set(FAULTS)
    assert errors >= {UnknownCellError, BadDimError, OutOfDomainError,
                      BadLengthError, LengthMismatchError,
                      EndpointMismatchError, BadInputError}
    assert any(isinstance(node, NormalPath) for node in nodes)
    assert any(isinstance(node, Step) and len(node.z) == 1
               and abs(node.z[0]) == 1 for node in nodes)


def _tower_size(expr):
    return sum(isinstance(node, (Step, Repar, NormComp))
               for node in expr_nodes(expr))


@pytest.mark.parametrize("depth", [2, 6, 12])
def test_normalize_composes_each_map_once(monkeypatch, depth):
    import dipath.cellcomplex
    import dipath.reparam

    calls = []

    def counted(phi, psi):
        calls.append(1)
        return compose(phi, psi)

    for module in (dipath.cellcomplex, dipath.reparam):
        monkeypatch.setattr(module, "compose", counted, raising=False)
    cx = chain_complex(12)
    expr = rand_tower(Random(depth), [c.id for c in cx.desc.cells], depth)
    nf = cx.normalize(expr)
    assert 0 < len(calls) <= _tower_size(expr)
    assert nf == fold_normalize(cx, expr)


# ---------------------------------------------------------------------------
# carriers, minimality, evaluation


def test_carrier_examples():
    cx = build("square")
    for expr, word in ((estep("a"), ("a",)),
                       (NormComp(estep("a"), estep("b")), ("a", "b")),
                       (Step("sq", (F(-1),), identity(1)), ("a", "b"))):
        assert cx.normalize(expr).carrier() == word


def test_is_minimal_examples():
    cx = build("square")
    assert len(cx.normalize(estep("a")).segs) == 1
    assert len(cx.normalize(NormComp(estep("a"), estep("b"))).segs) != 1
    assert len(cx.normalize(Step("sq", (F(1),), identity(1))).segs) != 1
    assert len(cx.normalize(gstep("sq", F(0))).segs) == 1


def test_eval_path_examples():
    cx = build("chain3")
    expr = NormComp(estep("e1"), estep("e2"))
    assert cx.eval_path(expr, 0) == "s0"
    assert cx.eval_path(expr, 1) == "s2"
    assert cx.eval_path(expr, F(1, 2)) == "s1"
    assert cx.eval_path(estep("e1"), F(1, 2)) == ("e1", (), F(1, 2))
    with pytest.raises(OutOfDomainError):
        cx.eval_path(expr, 2)


def test_eval_agrees_with_oracle_on_random_expressions():
    cx = build("square")
    rng = Random(11)
    carriers = [("a", "b"), ("c", "d"), ("sq",), ("a", "b")]
    for carrier in carriers:
        expr = rand_unit_path_expr(rng, cx, carrier)
        phi = rand_pl(rng, 1, 1, max_segments=4)
        wrapped = Repar(expr, phi)
        for t in rand_times(rng, 1, 10):
            assert cx.eval_path(wrapped, t) == oracle_eval(cx, wrapped, t)


def test_eval_disagreement_implies_distinct_normal_forms():
    cx = build("square")
    rng = Random(18)
    carriers = [("a", "b"), ("c", "d"), ("sq",)]
    disagreements = 0
    for _ in range(40):
        p = rand_unit_path_expr(rng, cx, rng.choice(carriers))
        q = rand_unit_path_expr(rng, cx, rng.choice(carriers))
        if any(cx.eval_path(p, t) != cx.eval_path(q, t)
               for t in rand_times(rng, 1, 10)):
            disagreements += 1
            assert cx.normalize(p) != cx.normalize(q)
    assert disagreements > 0


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_segment():
    cx = build("segment")
    assert cx.enumerate_carriers("0", "1") == [("e",)]


def test_enumerate_square():
    cx = build("square")
    assert cx.enumerate_carriers("bot", "top") == [
        ("a", "b"), ("c", "d"), ("sq",)]


def test_enumerate_chain_single_carrier():
    for p in range(1, 6):
        cx = validate(chain_desc(p))
        got = cx.enumerate_carriers("s0", f"s{p}")
        assert got == [chain_carriers(cx, 0, p)]


def test_enumerate_requires_bound_on_loops():
    cx = build("loop")
    with pytest.raises(UnboundedEnumerationError):
        cx.enumerate_carriers("0", "1")
    with pytest.raises(UnboundedEnumerationError):
        cx.carrier_table()
    assert cx.enumerate_carriers("0", "1", 3) == [
        ("e",), ("l", "e"), ("l", "l", "e")]
    assert cx.enumerate_carriers("0", "0", 2) == [("l",), ("l", "l")]


def test_enumerate_refuses_a_bound_that_is_not_an_int():
    # True equals 1, so it is refused before the table of bound 1 is read
    cx = chain_complex(2)
    assert cx.enumerate_carriers("a0", "a2", 1) == []
    for bound in (2.5, True, "3"):
        with pytest.raises(BadInputError, match=(
                rf"^carrier bound must be an integer, got {bound!r}$")):
            cx.enumerate_carriers("a0", "a2", bound)


def test_enumerate_empty_when_unreachable():
    cx = build("chain3")
    assert cx.enumerate_carriers("s2", "s0") == []


def test_enumerate_unknown_state():
    cx = build("segment")
    with pytest.raises(UnknownStateError):
        cx.enumerate_carriers("0", "zz")


def test_carrier_counts_match_matrix_powers():
    # Independent oracle: the number of length-k carriers between two
    # states is the (a, b) entry of the k-th power of the cell-count
    # matrix of the state multigraph.
    from collections import Counter

    for name in ["square", "diamond", "loop_heavy", "double_globe",
                 "stacked_globe"]:
        cx = build(name)
        states = list(cx.states)
        index = {s: i for i, s in enumerate(states)}
        n = len(states)
        m = [[0] * n for _ in range(n)]
        for c in cx.desc.cells:
            m[index[c.src]][index[c.dst]] += 1
        bound = 5
        powers = [None, m]
        for _ in range(bound - 1):
            prev = powers[-1]
            powers.append([[sum(prev[i][t] * m[t][j] for t in range(n))
                            for j in range(n)] for i in range(n)])
        for a in states:
            for b in states:
                hist = Counter(len(w)
                               for w in cx.enumerate_carriers(a, b, bound))
                for k in range(1, bound + 1):
                    assert hist.get(k, 0) == powers[k][index[a]][index[b]]
        # queries on a complex with no table yet (each builds none) and
        # the shared table both hold, pair by pair, what the per-pair walk
        # of brute_force_carriers finds; pairs without carriers are absent
        bounds = [0, 1, bound, None] if cx.loop_free else [0, 1, bound]
        for table_bound in bounds:
            fresh = build(name)
            for a in states:
                for b in states:
                    want = brute_force_carriers(cx, a, b, table_bound)
                    assert fresh.enumerate_carriers(a, b, table_bound) == want
                    if table_bound == 0:
                        assert want == []
            table = cx.carrier_table(table_bound)
            for a in states:
                for b in states:
                    want = brute_force_carriers(cx, a, b, table_bound)
                    assert cx.enumerate_carriers(a, b, table_bound) == want
                    if want:
                        assert table[(a, b)] == tuple(want)
                    else:
                        assert (a, b) not in table
            assert list(table) == sorted(
                table, key=lambda p: (index[p[0]], index[p[1]]))
            assert cx.carrier_table(table_bound) is table


def spy_grow(patch):
    """Record the parent table and the seed cells of every ``_grow``."""
    calls = []
    grow = Complex._grow
    patch.setattr(Complex, "_grow", lambda self, parent, cells, bound:
                  calls.append((parent, tuple(cells)))
                  or grow(self, parent, cells, bound))
    return calls


def test_a_lone_query_walks_from_its_source_only(monkeypatch):
    # one grow from no table, seeded by the arcs of src; no table is read
    # or built, and the words are the table's pair
    calls = spy_grow(monkeypatch)
    cases = [(build("square"), None), (build("loop_heavy"), 4),
             (seeded_grid(Random(7), 5, 5), 10)]
    for cx, bound in cases:
        a, b = cx.states[0], cx.states[-1]
        calls.clear()
        words = cx.enumerate_carriers(a, b, bound)
        assert calls == [({}, cx._arcs[a])]
        assert cx._carrier_tables == {}
        assert words == list(cx.carrier_table(bound).get((a, b), ()))
        assert words


def brute_force_table(cx, bound):
    """The carrier table of ``bound`` from :func:`brute_force_carriers`,
    pair by pair in state order."""
    return {(a, b): tuple(words) for a in cx.states for b in cx.states
            if (words := brute_force_carriers(cx, a, b, bound))}


def assert_grown_tables_are_walked(desc, bound, size=1):
    """Attach ``desc``'s cells to the complex with no cells, ``size`` at a
    time, growing the table of ``bound`` at every step from the table of
    the step before, seeded by the new cells: each grown table holds the
    same pairs, in the same order, with the same sorted tuples as the fresh
    table of the same prefix and the table of brute_force_carriers."""
    cx = Complex(desc.states)
    table = cx.carrier_table(bound)
    for k in range(0, len(desc.cells), size):
        cells = desc.cells[k:k + size]
        cx = cx.extend(*cells)
        with pytest.MonkeyPatch.context() as patch:
            calls = spy_grow(patch)
            grown = cx.carrier_table(bound)
        (parent, seeds), = calls
        assert parent is table and seeds == cells
        prefix = validate(ComplexDesc(desc.states, desc.cells[:k + size]))
        fresh = prefix.carrier_table(bound)
        assert list(grown.items()) == list(fresh.items())
        assert list(grown.items()) == list(brute_force_table(cx, bound).items())
        table = grown


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_grown_tables_equal_walked_tables_on_the_corpus(name):
    # every prefix of every fixture, at bounds 0-8 and unbounded when loop
    # free; loop_heavy, whose loops make the bound cut every table, too
    desc = CORPUS[name]
    for bound in [*range(9), *([None] if kahn_loop_free(desc) else [])]:
        assert_grown_tables_are_walked(desc, bound)


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(0, 10**6), st.one_of(st.none(), st.integers(0, 6)),
       st.integers(1, 3))
def test_grown_tables_equal_walked_tables(seed, bound, size):
    from helpers import rand_loopfree_complex

    desc = rand_loopfree_complex(Random(seed)).desc
    assert_grown_tables_are_walked(desc, bound, size)


@pytest.mark.parametrize("bound, size", [(0, 1), (2, 1), (3, 1), (3, 4)])
def test_grown_tables_at_the_edges(bound, size):
    # bound 0 lists no word; the loops l and g (source = target) and the
    # cycle through f and h under a bound; all four cells in one extend
    desc = ComplexDesc(("a", "b"), (edge("e", "a", "b"), edge("l", "a", "a"),
                                    edge("g", "b", "b"), edge("f", "b", "a")))
    assert_grown_tables_are_walked(desc, bound, size)


def test_a_child_with_a_cycle_refuses_the_unbounded_table():
    # the parent has an unbounded table to grow from; the child may not
    parent = Complex(("a", "b")).extend(edge("e", "a", "b"))
    assert dict(parent.carrier_table()) == {("a", "b"): (("e",),)}
    child = parent.extend(edge("f", "b", "a"))
    with pytest.raises(UnboundedEnumerationError):
        child.carrier_table()
    assert dict(child.carrier_table(3)) == {
        ("a", "a"): (("e", "f"),), ("a", "b"): (("e",), ("e", "f", "e")),
        ("b", "a"): (("f",), ("f", "e", "f")), ("b", "b"): (("f", "e"),)}


def brute_force_carriers(cx, src, dst, bound):
    """Cell words src -> dst of at most ``bound`` cells, by a walk that
    tries every cell at every step."""
    out = []

    def go(state, word):
        if word and state == dst:
            out.append(tuple(word))
        if bound is not None and len(word) >= bound:
            return
        for c in cx.desc.cells:
            if c.src == state:
                go(c.dst, word + [c.id])

    go(src, [])
    return sorted(out)


# ---------------------------------------------------------------------------
# rigidity spot checks (full sweep in the acceptance suite)


def test_nonidentity_reparametrization_moves_normal_form():
    cx = build("square")
    rng = Random(12)
    np = rand_normal_path(rng, cx, ("a", "b"), total=1)
    phi = make_pl(1, 1, [(0, 0), (F(1, 2), F(1, 4)), (1, 1)])
    assert cx.normalize(Repar(np_to_expr(np), phi)) != np


def test_mutually_inverse_reparametrizations_cancel():
    cx = build("square")
    rng = Random(13)
    np = rand_normal_path(rng, cx, ("c", "d"), total=1)
    phi = rand_pl(rng, 1, 1)
    q = cx.normalize(Repar(np_to_expr(np), phi))
    back = cx.normalize(Repar(np_to_expr(q), inverse(phi)))
    assert back == np
    psi = rand_pl(rng, 1, 1)
    if psi != inverse(phi):
        assert cx.normalize(Repar(np_to_expr(q), psi)) != np


def test_roundtrip_reparametrizations_must_be_mutually_inverse():
    # If p maps onto q under phi1 and q back onto p under phi2, the two
    # time changes compose to the identity; otherwise one direction fails.
    cx = build("square")
    rng = Random(15)
    for _ in range(30):
        p = rand_normal_path(rng, cx, rng.choice([("a", "b"), ("sq",)]),
                             total=1)
        phi1 = rand_pl(rng, 1, 1)
        phi2 = rand_pl(rng, 1, 1)
        q = cx.normalize(Repar(np_to_expr(p), phi1))
        back = cx.normalize(Repar(np_to_expr(q), phi2))
        assert (back == p) == (compose(phi2, phi1) == identity(1))


def test_non_minimal_paths_split_after_aligning_the_junction():
    # A non-minimal unit path whose middle state sits at time 1/2 is an
    # exact half-speed concatenation of its two halves; minimal paths
    # admit no such split since any split has at least two segments.
    from dipath.cellcomplex import repar_normal
    from dipath.reparam import make_pl, scale

    cx = build("chain3")
    rng = Random(16)
    for _ in range(10):
        p = rand_normal_path(rng, cx, ("e1", "e2"), total=1)
        c = p.segs[0].length
        # move the junction to 1/2, then cut there
        phi = make_pl(1, 1, [(0, 0), (F(1, 2), c), (1, 1)])
        q = cx.normalize(Repar(np_to_expr(p), phi))
        first = NormalPath(q.start, "s1", q.segs[:1])
        second = NormalPath("s1", q.end, q.segs[1:])
        left = repar_normal(first, scale(1, first.total_len))
        right = repar_normal(second, scale(1, second.total_len))
        split = cx.normalize(NormComp(np_to_expr(left), np_to_expr(right)))
        assert split == q
        assert len(split.segs) >= 2


def test_three_chain_block_rescaling_to_normalized_form():
    # Explicit three-block instance: reparametrizing a Moore chain by a
    # block map lands on the left-nested normalized concatenation of the
    # blockwise-rescaled paths.
    from dipath.reparam import compose as pl_compose

    cx = build("chain3")
    rng = Random(17)
    g = [rand_unit_path_expr(rng, cx, (f"e{i}",)) for i in (1, 2, 3)]
    lens = rand_partition(rng, 1, 3)
    dyadic = [F(1, 4), F(1, 4), F(1, 2)]
    phis = [rand_pl(rng, d, l) for d, l in zip(dyadic, lens)]
    chain = reduce(Moore, [scaled(x, l) for x, l in zip(g, lens)])
    lhs = Repar(chain, tensor(*phis))
    rhs = NormComp(NormComp(
        Repar(g[0], pl_compose(pl_compose(inverse(mu(F(1, 4))), phis[0]),
                               mu(lens[0]))),
        Repar(g[1], pl_compose(pl_compose(inverse(mu(F(1, 4))), phis[1]),
                               mu(lens[1])))),
        Repar(g[2], pl_compose(pl_compose(inverse(mu(F(1, 2))), phis[2]),
                               mu(lens[2]))))
    assert cx.normalize(lhs) == cx.normalize(rhs)


def test_segment_time_laws_strictly_increase():
    # Local injectivity holds structurally: every stored time law is a
    # strictly increasing bijection, so single crossings are automatic.
    cx = build("square")
    rng = Random(14)
    np = rand_normal_path(rng, cx, ("sq",), total=1)
    seg = np.segs[0]
    h = F(1, 3)
    from dipath.reparam import pl_eval_inv
    t = pl_eval_inv(seg.chi, h)
    assert cx.eval_path(np, t) == ("sq", seg.z, h)
    xs = [x for x, _ in seg.chi.breaks]
    assert xs == sorted(set(xs))


# ---------------------------------------------------------------------------
# JSON


def test_expr_json_roundtrip():
    expr = Repar(NormComp(estep("a"), estep("b")), mu(1))
    assert expr_from_json(expr_to_json(expr)) == expr
    step = Step("sq", (F(-1, 2),), identity(1))
    assert expr_from_json(expr_to_json(step)) == step


def test_complex_json_roundtrip():
    desc = square_desc(True)
    assert complex_from_json(complex_to_json(desc)) == desc


def test_normal_path_json_roundtrip():
    cx = build("square")
    nf = cx.normalize(NormComp(estep("a"), estep("b")))
    data = normal_path_to_json(nf)
    assert normal_path_from_json(data, cx) == nf


# ---------------------------------------------------------------------------
# incremental construction, immutability and path checks


def kahn_loop_free(desc):
    """Acyclicity of the cell graph by Kahn's algorithm on the whole
    description, independent of the incremental test in ``extend``."""
    indeg = {s: 0 for s in desc.states}
    for c in desc.cells:
        indeg[c.dst] += 1
    queue = [s for s in desc.states if indeg[s] == 0]
    seen = 0
    while queue:
        s = queue.pop()
        seen += 1
        for c in desc.cells:
            if c.src == s:
                indeg[c.dst] -= 1
                if indeg[c.dst] == 0:
                    queue.append(c.dst)
    return seen == len(desc.states)


def assert_same_complex(cx, other, desc):
    """cx and other both hold exactly desc: cells, boundaries, loop
    freedom, topological order, arc order and carrier tables."""
    for c in (cx, other):
        assert c.desc == desc and c.states == desc.states
        assert [c.cell(x.id) for x in desc.cells] == list(desc.cells)
        assert c.loop_free == kahn_loop_free(desc)
        for s in desc.states:
            want = sorted((x for x in desc.cells if x.src == s),
                          key=lambda x: x.id)
            assert list(c._arcs[s]) == want
    assert cx.topological_order == other.topological_order
    for x in desc.cells:
        if x.disk_dim == 1:
            assert cx.boundary_normal(x.id) == other.boundary_normal(x.id)
            minus, plus = other.boundary_normal(x.id)
            assert minus == cx.normalize(x.boundary_minus)
            assert plus == cx.normalize(x.boundary_plus)
    for bound in range(6):
        assert cx.carrier_table(bound) == other.carrier_table(bound)
    if cx.loop_free:
        assert cx.carrier_table() == other.carrier_table()


def extend_chain(desc):
    """The complex of ``desc`` built by one ``extend`` call per cell."""
    cx = Complex(desc.states)
    for cell in desc.cells:
        cx = cx.extend(cell)
    return cx


def test_validate_is_a_fold_of_extend():
    from helpers import rand_loopfree_complex

    descs = list(CORPUS.values()) + [rand_loopfree_complex(Random(seed)).desc
                                     for seed in range(50)]
    for desc in descs:
        assert_same_complex(validate(desc), extend_chain(desc), desc)
        # extending a validated prefix by one cell equals validating the
        # longer prefix, and by the rest equals validating the whole
        for k, cell in enumerate(desc.cells):
            shorter = ComplexDesc(desc.states, desc.cells[:k])
            longer = ComplexDesc(desc.states, desc.cells[:k + 1])
            assert_same_complex(validate(shorter).extend(cell),
                                validate(longer), longer)
            assert_same_complex(validate(shorter).extend(*desc.cells[k:]),
                                validate(desc), desc)


def malformed_descs():
    """Descriptions with one fault each, built from the corpus fixtures."""
    tri, sq = CORPUS["triangle"], CORPUS["square"]
    fill = tri.cells[-1]
    yield ComplexDesc(("a", "a"), ())
    yield ComplexDesc(tri.states, tri.cells + (edge("a", "al", "ga"),))
    yield ComplexDesc(tri.states, tri.cells[:2] + (edge("e", "al", "zz"),))
    yield ComplexDesc(tri.states, tri.cells[:2] + (edge("e", "zz", "ga"),))
    yield ComplexDesc(tri.states, (fill,) + tri.cells[:3])
    yield ComplexDesc(tri.states, tri.cells[:3] + (
        globe("t", "al", "be", fill.boundary_minus, fill.boundary_plus),))
    yield ComplexDesc(tri.states, tri.cells[:3] + (
        globe("t", "al", "ga", Moore(estep("a"), estep("b")), estep("e")),))
    yield ComplexDesc(tri.states, tri.cells[:3] + (
        globe("t", "al", "ga", fill.boundary_minus,
              gstep("a", F(1, 2))),))
    yield ComplexDesc(tri.states, tri.cells[:3] + (
        Cell("t", 2, "al", "ga"),))
    yield ComplexDesc(tri.states, tri.cells[:3] + (Cell("t", 1, "al", "ga"),))
    yield ComplexDesc(sq.states, sq.cells[:4] + (
        Cell("x", 0, "bot", "top", boundary_minus=estep("a")),))
    yield ComplexDesc(sq.states, sq.cells[:4] + (
        globe("sq", "bot", "top", NormComp(estep("a"), estep("d")),
              sq.cells[-1].boundary_plus),))


def test_validate_and_the_extend_chain_refuse_alike():
    def outcome(make, desc):
        try:
            make(desc)
        except Exception as exc:
            return type(exc), str(exc)
        return None

    seen = set()
    for desc in malformed_descs():
        fault = outcome(validate, desc)
        assert fault is not None and fault == outcome(extend_chain, desc)
        seen.add(fault[0])
    assert seen == {UnknownStateError, UnknownCellError,
                    ForwardReferenceError, BoundaryEndpointMismatchError,
                    BadLengthError, BadDimError, EndpointMismatchError}


def test_validate_runs_in_linear_time():
    # a fold that copied the tables once per cell took about 50 (edges)
    # and 75 (globes) times as long for 8,000 cells as for 1,000; one copy
    # per extend call takes about 7-10 times as long
    import gc
    import time

    def parallel(n):
        return ComplexDesc(("0", "1"), tuple(edge(f"e{i}", "0", "1")
                                             for i in range(n)))

    def globes(n):
        return ComplexDesc(("0", "1"), (edge("e", "0", "1"),) + tuple(
            globe(f"g{i}", "0", "1", estep("e"), estep("e"))
            for i in range(n)))

    def cpu_time(desc):
        times = []
        for _ in range(3):
            gc.collect()
            start = time.process_time()
            validate(desc)
            times.append(time.process_time() - start)
        return min(times)

    for family in (parallel, globes):
        small, large = cpu_time(family(1000)), cpu_time(family(8000))
        assert large / small <= 20, (family.__name__, small, large)


def test_extend_leaves_the_parent_unchanged():
    base = build("square_open")
    table = base.carrier_table(3)
    fill = CORPUS["square"].cells[-1]
    child = base.extend(fill)
    assert child.cell(fill.id) == fill
    assert base.desc == CORPUS["square_open"]
    assert base.carrier_table(3) is table
    assert ("sq",) not in table[("bot", "top")]
    assert ("sq",) in child.carrier_table(3)[("bot", "top")]
    with pytest.raises(UnknownCellError):
        base.cell(fill.id)
    with pytest.raises(UnknownCellError):
        child.extend(fill)


def test_extend_tracks_loops():
    cx = validate(ComplexDesc(("a", "b", "c"), (edge("x", "a", "b"),
                                                edge("y", "b", "c"))))
    assert cx.loop_free
    assert cx.extend(edge("z", "a", "c")).loop_free
    assert not cx.extend(edge("z", "c", "a")).loop_free
    assert not cx.extend(edge("z", "b", "b")).loop_free
    assert not cx.extend(edge("z", "c", "a")).extend(
        edge("w", "a", "c")).loop_free


def test_topological_order_runs_every_cell_forward():
    from helpers import rand_loopfree_complex

    rng = Random(9)
    descs = list(CORPUS.values()) + [rand_loopfree_complex(rng).desc
                                     for _ in range(12)]
    for _ in range(40):
        # edges between random states, loops and repeated arcs allowed
        states = tuple(f"v{i}" for i in range(rng.randrange(1, 6)))
        descs.append(ComplexDesc(states, tuple(
            edge(f"e{j}", rng.choice(states), rng.choice(states))
            for j in range(rng.randrange(0, 7)))))
    seen = set()
    for desc in descs:
        order = validate(desc).topological_order
        seen.add(order is None)
        assert (order is not None) == kahn_loop_free(desc)
        if order is not None:
            assert sorted(order) == sorted(desc.states)
            rank = {s: i for i, s in enumerate(order)}
            assert all(rank[c.src] < rank[c.dst] for c in desc.cells)
    assert seen == {True, False}


def test_complex_is_immutable():
    # every attribute a complex has, plus its cached and computed views, so
    # that an attribute added later is covered too
    cx = build("square")
    names = set(vars(cx)) | {"desc", "loop_free", "topological_order"}
    assert {"states", "_cells", "_parent_tables", "_new_cells"} <= names
    for name in sorted(names):
        with pytest.raises(AttributeError):
            setattr(cx, name, None)
    with pytest.raises(AttributeError):
        del cx.desc
    assert cx.desc == CORPUS["square"]


def test_repeated_state_names_are_refused():
    from dipath.cellcomplex import Complex

    with pytest.raises(UnknownStateError):
        Complex(("a", "a"))
    with pytest.raises(UnknownStateError):
        validate(ComplexDesc(("a", "a"), ()))


def unit_np(cx, word):
    return NormalPath(cx.cell(word[0]).src, cx.cell(word[-1]).dst,
                      tuple(Seg(c, (F(0),) * cx.cell(c).disk_dim, mu(1))
                            for c in word))


def test_a_path_through_a_sibling_cell_is_rejected():
    base = build("square_open")
    left = base.extend(edge("z", "top", "bot"))
    right = base.extend(edge("y", "top", "bot"))
    through = unit_np(left, ("a", "b", "z"))
    assert left.check_normal_path(through) is through
    grandchild = left.extend(edge("x", "bot", "top"))
    assert grandchild.check_normal_path(through) is through
    for cx in (right, base, right.extend(edge("x", "bot", "top"))):
        for _ in range(2):
            with pytest.raises(UnknownCellError):
                cx.check_normal_path(through)


def test_path_accepted_by_the_pushout_is_still_rejected_by_the_base():
    base = build("square_open")
    pushout = base.extend(CORPUS["square"].cells[-1])
    through = NormalPath("bot", "top", (Seg("sq", (F(1, 2),), mu(1)),))
    assert pushout.check_normal_path(through) is through
    for _ in range(2):
        with pytest.raises(UnknownCellError):
            base.check_normal_path(through)
    assert pushout.check_normal_path(through) is through


def test_point_details_print_rationals():
    cx = build("square")
    with pytest.raises(OutOfDomainError) as step:
        cx.normalize(Step("sq", (F(3, 2),), identity(1)))
    assert str(step.value) == "point (3/2) outside the closed disk"
    with pytest.raises(OutOfDomainError) as seg:
        cx.check_normal_path(
            NormalPath("bot", "top", (Seg("sq", (F(-1),), mu(1)),)))
    assert str(seg.value) == "segment point (-1) must be interior"


def test_rejected_paths_are_rejected_again():
    cx = build("square")
    outside = NormalPath("bot", "top", (Seg("sq", (F(1),), mu(1)),))
    broken = NormalPath("bot", "top", (Seg("a", (), mu(1)),
                                       Seg("d", (), mu(1))))
    # two faults: a chain break after segment 1, then a bad segment 2; the
    # fault of the segment wins over the earlier break
    a, d = Seg("a", (), mu(1)), Seg("d", (), mu(1))
    wrong_arity = NormalPath("bot", "top", (a, d, Seg("sq", (), mu(1))))
    broken_outside = NormalPath("bot", "top", (a, d, Seg("sq", (F(1),), mu(1))))
    for path, error, message in (
            (outside, OutOfDomainError, None),
            (broken, EndpointMismatchError, None),
            (wrong_arity, BadDimError, "segment in sq: wrong point arity 0"),
            (broken_outside, OutOfDomainError,
             "segment point (1) must be interior")):
        for _ in range(2):
            with pytest.raises(error) as raised:
                cx.check_normal_path(path)
            assert message is None or str(raised.value) == message


def test_nested_normal_paths_are_checked_against_the_complex():
    # a normal path nested in an expression is checked as one read from
    # JSON is: an unknown cell or an empty segment list is refused
    cx = build("loop_heavy")
    through_zz = NormalPath("0", "1", (Seg("zz", (), identity(1)),))
    with pytest.raises(UnknownCellError, match="unknown cell zz"):
        cx.normalize(Moore(through_zz, Step("f", (), identity(1))))
    empty = NormalPath("2", "0", ())
    with pytest.raises(BadInputError, match="at least one segment"):
        cx.normalize(Repar(Moore(empty, Step("e", (), identity(1))),
                           identity(1)))


def test_a_top_level_normal_path_is_checked_as_a_nested_one():
    # normalize refuses a path through an unknown cell whether it stands
    # alone or sits in an expression, and returns a valid one as it is
    cx = build("loop_heavy")
    through_zz = NormalPath("0", "1", (Seg("zz", (), identity(1)),))
    with pytest.raises(UnknownCellError, match="unknown cell zz"):
        cx.normalize(through_zz)
    through_e = NormalPath("0", "1", (Seg("e", (), identity(1)),))
    assert cx.normalize(through_e) == through_e
    assert cx.normalize(through_e).carrier() == ("e",)


# ---------------------------------------------------------------------------
# the squared norm on integers against the Fraction formula

coords = st.one_of(
    st.builds(F, st.integers(-60, 60), st.integers(1, 40)),
    st.integers(-5, 5))


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(coords, max_size=5))
def test_sq_norm_matches_the_fraction_formula(z):
    want = sum((F(zi) * F(zi) for zi in z), F(0))
    got = F(*_sq_norm_terms(tuple(z)))
    assert type(got) is F and got == want


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(coords, max_size=5))
@example([1])
@example([F(-3, 5), F(4, 5)])
@example([F(3, 5), F(4, 5), F(1, 7)])
@example([])
def test_disk_side_is_the_sign_of_the_squared_norm_minus_one(z):
    gap = sum((F(zi) * F(zi) for zi in z), F(0)) - 1
    assert disk_side(tuple(z)) == (gap > 0) - (gap < 0)
