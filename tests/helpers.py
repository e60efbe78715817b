"""Independent oracles and random generators used across the test suite.

``oracle_eval`` evaluates a path expression pointwise by direct recursion on
the tree, without ever touching the normal-form machinery; it is the
reference semantics against which normalization is judged.
"""

from fractions import Fraction as F
from random import Random

from dipath.cellcomplex import Moore, NormComp, NormalPath, Repar, Seg, Step
from dipath.reparam import mu, pl_eval
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
    from dipath.reedy import APath, make_elem, make_obj

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
            return make_elem(make_obj(u, v, triples), entries, cx)
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
