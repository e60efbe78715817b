"""Independent oracles and random generators used across the test suite.

``oracle_eval`` evaluates a path expression pointwise by direct recursion on
the tree, without ever touching the normal-form machinery; it is the
reference semantics against which normalization is judged.
"""

from fractions import Fraction as F
from random import Random

from dipath.cellcomplex import (
    Moore,
    NormComp,
    NormalPath,
    Repar,
    Seg,
    Step,
    concat,
    disk_side,
    repar_normal,
)
from dipath.errors import (
    BadDimError,
    BadInputError,
    BadLengthError,
    OutOfDomainError,
)
from dipath.rational import format_point
from dipath.reparam import inverse, mu, pl_eval
from dipath.sampling import (
    rand_fraction,
    rand_normal_path,
    rand_pl,
    rand_unit_path_expr,
)


def expr_len(cx, expr):
    if isinstance(expr, Step):
        return expr.chi.src_len
    if isinstance(expr, Moore):
        return expr_len(cx, expr.left) + expr_len(cx, expr.right)
    if isinstance(expr, NormComp):
        return F(1)
    if isinstance(expr, Repar):
        return expr.phi.src_len
    raise TypeError(expr)


def oracle_eval(cx, expr, t):
    """Pointwise semantics by structural recursion (no normal forms)."""
    t = F(t)
    if isinstance(expr, Step):
        cell = cx.cell(expr.cell)
        s = pl_eval(expr.chi, t)
        if cell.disk_dim == 1 and expr.z[0] in (F(-1), F(1)):
            boundary = (cell.boundary_minus if expr.z[0] < 0
                        else cell.boundary_plus)
            return oracle_eval(cx, boundary, s)
        if s == 0:
            return cell.src
        if s == 1:
            return cell.dst
        return (expr.cell, expr.z, s)
    if isinstance(expr, Moore):
        lhs = expr_len(cx, expr.left)
        if t <= lhs:
            return oracle_eval(cx, expr.left, t)
        return oracle_eval(cx, expr.right, t - lhs)
    if isinstance(expr, NormComp):
        if t <= F(1, 2):
            return oracle_eval(cx, expr.left, 2 * t)
        return oracle_eval(cx, expr.right, 2 * t - 1)
    if isinstance(expr, Repar):
        return oracle_eval(cx, expr.path, pl_eval(expr.phi, t))
    raise TypeError(expr)


def fold_normalize(cx, expr):
    """The normal form of ``expr`` by the bottom-up fold: each node
    normalizes its children, then absorbs its own map into every segment
    below it.  The reference ``Complex.normalize`` must agree with: the same
    path, or the same exception class and message."""
    if isinstance(expr, NormalPath):
        return expr
    if isinstance(expr, Step):
        cell = cx.cell(expr.cell)
        if len(expr.z) != cell.disk_dim:
            raise BadDimError(
                f"step in {cell.id}: point has {len(expr.z)} coordinates, "
                f"cell disk dimension is {cell.disk_dim}")
        if expr.chi.pts[-1][2:] != (1, 1):
            raise BadLengthError(
                f"step time law must land in [0,1], got [0,{expr.chi.dst_len}]")
        side = disk_side(expr.z)
        if side > 0:
            raise OutOfDomainError(
                f"point {format_point(expr.z)} outside the closed disk")
        if side < 0 or cell.disk_dim == 0:
            return NormalPath(cell.src, cell.dst,
                              (Seg(cell.id, expr.z, expr.chi),))
        minus, plus = cx.boundary_normal(cell.id)
        return repar_normal(minus if expr.z[0] < 0 else plus, expr.chi)
    if isinstance(expr, Moore):
        return concat(fold_normalize(cx, expr.left),
                      fold_normalize(cx, expr.right))
    if isinstance(expr, NormComp):
        left = fold_normalize(cx, expr.left)
        right = fold_normalize(cx, expr.right)
        for side in (left, right):
            if side.total_len != 1:
                raise BadLengthError(
                    "normalized concatenation needs length-1 operands, "
                    f"got {side.total_len}")
        return repar_normal(concat(left, right), inverse(mu(2)))
    if isinstance(expr, Repar):
        return repar_normal(fold_normalize(cx, expr.path), expr.phi)
    raise BadInputError(f"not a path expression: {expr!r}")


# the ways rand_fault_expr breaks a node
FAULTS = ("unknown_cell", "arity", "outside_disk", "law_not_onto",
          "normcomp_length", "repar_length", "endpoints")
LENGTHS = (F(1), F(1, 2), F(3, 2), F(2))


def rand_fault_expr(rng: Random, cx, src, depth, fault_rate, faults):
    """A random path expression from state ``src`` of at most ``depth``
    levels, with its end state and length, as (expr, end, length).  Each
    node is broken with chance ``fault_rate`` in one of the ways in
    ``FAULTS``; the kinds used are appended to ``faults``.  Steps through a
    globe land on its boundary (z = -1 or 1) one time in four, and a leaf is
    a nested normal path one time in eight."""
    cells = cx.desc.cells
    out = [c for c in cells if c.src == src]
    if not out:  # a sink: the path leaves from elsewhere
        out = list(cells)
        faults.append("endpoints")
    fault = rng.choice(FAULTS) if rng.random() < fault_rate else None
    kind = "leaf" if depth == 0 else rng.choice(
        ["leaf", "moore", "normcomp", "repar"])
    if kind == "leaf" and rng.random() < 1 / 8:
        word, state = [], src
        for _ in range(rng.randrange(1, 4)):
            arcs = [c for c in cells if c.src == state]
            if not arcs:
                break
            word.append(rng.choice(arcs).id)
            state = cx.cell(word[-1]).dst
        if word:
            length = rng.choice(LENGTHS)
            return rand_normal_path(rng, cx, word, length), state, length
    if kind == "leaf":
        cell = rng.choice(out)
        length = rng.choice(LENGTHS)
        chi = rand_pl(rng, length, 1, 3)
        if cell.disk_dim == 0:
            z = ()
        elif rng.random() < 1 / 4:
            z = (rng.choice([F(-1), F(1)]),)
        else:
            z = (rand_fraction(rng, -1, 1),)
        cid = cell.id
        if fault == "unknown_cell":
            cid = "nowhere"
        elif fault == "arity":
            z = z + (F(0),)
        elif fault == "outside_disk" and cell.disk_dim == 1:
            z = (rng.choice([F(-3, 2), F(5, 4)]),)
        elif fault == "law_not_onto":
            chi = rand_pl(rng, length, rng.choice([F(1, 2), F(2)]), 3)
        else:
            fault = None
        if fault:
            faults.append(fault)
        return Step(cid, z, chi), cell.dst, length
    left, mid, l_len = rand_fault_expr(rng, cx, src, depth - 1, fault_rate,
                                       faults)
    if kind == "repar":
        new = rng.choice(LENGTHS)
        lands = l_len + F(1, 2) if fault == "repar_length" else l_len
        if fault == "repar_length":
            faults.append(fault)
        return Repar(left, rand_pl(rng, new, lands, 4)), mid, new
    if fault == "endpoints":
        others = [s for s in cx.states if s != mid]
        if others:
            mid = rng.choice(others)
            faults.append(fault)
    right, end, r_len = rand_fault_expr(rng, cx, mid, depth - 1, fault_rate,
                                        faults)
    if kind == "moore":
        return Moore(left, right), end, l_len + r_len
    sides = [(left, l_len), (right, r_len)]
    if fault == "normcomp_length":
        i = rng.randrange(2)
        expr, length = sides[i]
        sides[i] = (Repar(expr, rand_pl(rng, F(2), length, 3)), None)
        faults.append(fault)
    left, right = (expr if length in (None, 1)
                   else Repar(expr, rand_pl(rng, 1, length, 3))
                   for expr, length in sides)
    return NormComp(left, right), end, F(1)


def rand_tower(rng: Random, edges, depth):
    """A left-nested NormComp tower over consecutive edges split into
    ``depth`` runs; each part is a Moore chain of seeded steps rescaled onto
    [0, 1] by a seeded Repar."""
    cuts = sorted(rng.sample(range(1, len(edges)), depth - 1))
    tower = None
    for a, b in zip([0, *cuts], [*cuts, len(edges)]):
        body, total = None, F(0)
        for e in edges[a:b]:
            length = rng.choice(LENGTHS)
            step = Step(e, (), rand_pl(rng, length, 1, 4))
            body = step if body is None else Moore(body, step)
            total += length
        part = Repar(body, rand_pl(rng, 1, total, 4))
        tower = part if tower is None else NormComp(tower, part)
    return tower


def expr_nodes(expr):
    """Every node of an expression tree, the root first."""
    yield expr
    for child in ((expr.left, expr.right) if isinstance(expr, (Moore, NormComp))
                  else (expr.path,) if isinstance(expr, Repar) else ()):
        yield from expr_nodes(child)


def chain_carriers(chain_cx, i, j):
    """The unique carrier s_i -> s_j on a chain fixture complex."""
    return tuple(f"e{k}" for k in range(i + 1, j + 1))


def rand_composable_unit_paths(rng: Random, chain_cx, n, n_states):
    """n composable random length-1 expressions along a chain fixture."""
    hops = sorted(rng.sample(range(n_states + 1), n + 1))
    exprs = []
    for a, b in zip(hops, hops[1:]):
        exprs.append(rand_unit_path_expr(rng, chain_cx,
                                         chain_carriers(chain_cx, a, b)))
    return exprs


def rand_times(rng: Random, total, k):
    """k sample times inside (0, total)."""
    return [rand_fraction(rng, 0, total) for _ in range(k)]


def scaled(expr, length):
    """The expression rescaled from length 1 onto [0, length]."""
    return Repar(expr, mu(length))


def points_agree(cx, expr_a, expr_b, times):
    for t in times:
        if oracle_eval(cx, expr_a, t) != oracle_eval(cx, expr_b, t):
            return False
    return True


# ---------------------------------------------------------------------------
# diagram element generators


def rand_a_path(rng: Random, cx, src, dst, bound=3):
    carriers = cx.enumerate_carriers(src, dst, bound)
    if not carriers:
        return None
    word = rng.choice(carriers)
    return rand_normal_path(rng, cx, word, total=len(word))


def rand_cell_entry(rng: Random, cx, cell, allow_boundary=True):
    """A random flag-1 entry for the attached cell."""
    from dipath.reedy import CellPath, InjPath

    kinds = ["interior", "inj"]
    if allow_boundary and cell.disk_dim == 1:
        kinds.append("boundary")
    kind = rng.choice(kinds)
    if kind == "inj":
        path = rand_a_path(rng, cx, cell.src, cell.dst)
        if path is not None:
            return InjPath(path)
        kind = "interior"
    length = rng.choice([F(1), F(1, 2), F(2)])
    chi = rand_pl(rng, length, 1, max_segments=3)
    if kind == "boundary" and cell.disk_dim == 1:
        z = (rng.choice([F(-1), F(1)]),)
    else:
        z = tuple(rand_fraction(rng, -1, 1) for _ in range(cell.disk_dim))
    return CellPath(z, chi)


def rand_loopfree_complex(rng: Random, max_globes=3):
    """A random loop-free complex: forward edges on ordered states, plus
    globes glued over random pairs of parallel carrier words."""
    from dipath.cellcomplex import Cell, ComplexDesc, np_to_expr, validate
    from dipath.reparam import inverse as pl_inverse

    k = rng.randrange(3, 6)
    states = tuple(f"v{i}" for i in range(k))
    cells = []
    for e in range(rng.randrange(3, 7)):
        i = rng.randrange(0, k - 1)
        j = rng.randrange(i + 1, k)
        cells.append(Cell(f"e{e}", 0, f"v{i}", f"v{j}"))
    cx = validate(ComplexDesc(states, tuple(cells)))
    added = 0
    for g in range(10):
        if added >= max_globes:
            break
        a, b = sorted(rng.sample(range(k), 2))
        words = cx.enumerate_carriers(f"v{a}", f"v{b}")
        if not words:
            continue
        sides = []
        for word in (rng.choice(words), rng.choice(words)):
            chain = np_to_expr(unit_path(cx, word))
            total = len(word)
            sides.append(chain if total == 1
                         else Repar(chain, pl_inverse(mu(total))))
        cells.append(Cell(f"g{g}", 1, f"v{a}", f"v{b}",
                          boundary_minus=sides[0], boundary_plus=sides[1]))
        cx = validate(ComplexDesc(states, tuple(cells)))
        added += 1
    return cx


def unit_path(cx, word) -> NormalPath:
    """The unit-speed normal path over a carrier word, one second per cell."""
    segs = tuple(
        Seg(cid, (F(0),) * cx.cell(cid).disk_dim, mu(1)) for cid in word)
    return NormalPath(cx.cell(word[0]).src, cx.cell(word[-1]).dst, segs)


def all_normal_forms(elem, cx, cell):
    """Every normal form reachable by any maximal rewrite order."""
    from dipath.reedy import rewrite_steps

    seen: dict = {}

    def go(e):
        if e in seen:
            return seen[e]
        steps = rewrite_steps(e, cx, cell)
        if not steps:
            result = frozenset([e])
        else:
            result = frozenset().union(*(go(s) for s in steps))
        seen[e] = result
        return result

    return go(elem)


def rand_reedy_elem(rng: Random, cx, cell, max_entries=5):
    """A random diagram element over the base complex and attached cell."""
    from dipath.reedy import make_elem

    return make_elem(*rand_reedy_parts(rng, cx, cell, max_entries), cx)


def rand_reedy_parts(rng: Random, cx, cell, max_entries=5):
    """The index object and entries of a random diagram element over the
    base complex and attached cell."""
    from dipath.reedy import APath, make_obj

    u, v = cell.src, cell.dst
    n = rng.randrange(1, max_entries + 1)
    for _ in range(200):
        triples = []
        entries = []
        state = rng.choice([u] + list(cx.states))
        ok = True
        for _ in range(n):
            use_cell = state == u and rng.random() < 0.5
            if use_cell:
                triples.append((u, 1, v))
                entries.append(rand_cell_entry(rng, cx, cell))
                state = v
            else:
                targets = [t for t in cx.states
                           if cx.enumerate_carriers(state, t, 2)]
                if not targets:
                    ok = False
                    break
                target = rng.choice(targets)
                path = rand_a_path(rng, cx, state, target, bound=2)
                triples.append((state, 0, target))
                entries.append(APath(path))
                state = target
        if ok:
            return make_obj(u, v, triples), entries
    raise AssertionError("failed to sample a diagram element")


def _grid_side(rng: Random, first, second):
    """A length-one boundary through two edges, as a normalized composite
    or as a reparametrized Moore chain, with seeded time laws."""
    if rng.random() < 0.5:
        return NormComp(Step(first, (), rand_pl(rng, 1, 1, 3)),
                        Step(second, (), rand_pl(rng, 1, 1, 3)))
    l1, l2 = rng.choice([F(1), F(1, 2), F(3, 2)]), rng.choice([F(1), F(2)])
    body = Moore(Step(first, (), rand_pl(rng, l1, 1, 3)),
                 Step(second, (), rand_pl(rng, l2, 1, 3)))
    return Repar(body, rand_pl(rng, 1, l1 + l2, 3))


def seeded_grid(rng: Random, n: int, m: int, filled: bool = True):
    """The n x m grid complex: states s{i}_{j}, edges h{i}_{j} (rightwards)
    and v{i}_{j} (upwards), and, when filled, one globe g{i}_{j} per
    square.  Edges come first, then the globes, both in row-major order; the
    seed picks each globe's boundary forms, their time laws and which side
    is the lower boundary."""
    from dipath.cellcomplex import Cell, ComplexDesc, validate

    states = tuple(f"s{i}_{j}" for i in range(n + 1) for j in range(m + 1))
    cells = []
    for i in range(n + 1):
        for j in range(m + 1):
            if j < m:
                cells.append(Cell(f"h{i}_{j}", 0, f"s{i}_{j}", f"s{i}_{j+1}"))
            if i < n:
                cells.append(Cell(f"v{i}_{j}", 0, f"s{i}_{j}", f"s{i+1}_{j}"))
    for i in range(n if filled else 0):
        for j in range(m):
            right = _grid_side(rng, f"h{i}_{j}", f"v{i}_{j+1}")
            up = _grid_side(rng, f"v{i}_{j}", f"h{i+1}_{j}")
            minus, plus = (right, up) if rng.random() < 0.5 else (up, right)
            cells.append(Cell(f"g{i}_{j}", 1, f"s{i}_{j}", f"s{i+1}_{j+1}",
                              boundary_minus=minus, boundary_plus=plus))
    return validate(ComplexDesc(states, tuple(cells)))


def watch_witnesses(patch, fault=None):
    """Hold every witness of every pushout step to its oracles: patch
    ``reedy._shapes`` so that, before a witness goes on, the slots it holds
    were checked against its step's base and pushout, and its realization
    equals both the one-shot ``realize`` of its element and the unit path
    of its word (the segments ``WitnessPaths`` makes through each cell's
    centre); once a step's shapes are exhausted, its fresh runs were
    checked the same way.  ``fault`` maps each realization that goes on
    (default: as it is).  Returns the list of witnessed words."""
    import dipath.reedy as reedy
    from dipath.cellcomplex import Complex

    words, checked, in_oracle = [], set(), False
    check, shapes = Complex.check_normal_path, reedy._shapes

    def check_spy(self, np):
        if not in_oracle:  # the engine's own checks only
            checked.add((id(self), id(np)))
        return check(self, np)

    def watched(base, pushout, cell, bound, paths, fresh):
        nonlocal in_oracle
        checked.clear()

        def on_both(path):
            return {(id(base), id(path)), (id(pushout), id(path))} <= checked

        for word, elem, realized in shapes(base, pushout, cell, bound, paths,
                                           fresh):
            assert all(on_both(e.path) for e in elem.entries
                       if isinstance(e, reedy.APath))
            in_oracle = True
            assert realized == reedy.realize(elem, pushout, cell.id)
            in_oracle = False
            assert realized == unit_path(pushout, word)
            words.append(word)
            yield word, elem, realized if fault is None else fault(realized)
        assert all(on_both(paths.slot(*run).path) for run in fresh)

    patch.setattr(Complex, "check_normal_path", check_spy)
    patch.setattr(reedy, "_shapes", watched)
    return words
