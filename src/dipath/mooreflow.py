"""Flow presentations extracted from complexes.

The functor pair connecting complexes with their combinatorial shadows acts
here at presentation level, through the engine: a chain of globes is a
complex whose one normal form through the cells' interiors is its single
stratum, a free space over labels U is |U| parallel edges whose
fundamental category gives U back, the counit is checked one attachment at
a time, and the fundamental category of a loop-free two-dimensional
complex is computed as edge words modulo the congruence generated by globe
boundaries, in one pass over a topological order of the states: the
classes between two states come from the classes one edge shorter, so no
hom's words are ever listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .cellcomplex import Cell, Complex, ComplexDesc, Moore, Step, validate
from .errors import BadInputError, HasLoopsError
from .gspace import free
from .rational import format_fraction, json_int
from .reedy import pushout_steps
from .reparam import mu

Word = tuple[str, ...]


# ---------------------------------------------------------------------------
# chains of globes


@dataclass(frozen=True)
class StratumDesc:
    """One carrier stratum of a path space: the cells traversed, their disk
    dimensions, and the arity of the reparametrization factor."""

    carrier: tuple[str, ...]
    factor_dims: tuple[int, ...]
    reparam_arity: int


def _chain(disk_dims) -> Complex:
    """The chain of globes with the given disk dimensions: states a0..ap,
    and from a(i-1) to ai the edge gi (dimension 0), or the globe gi over
    the parallel edges gi- and gi+ (dimension 1).  ``validate`` refuses any
    other dimension."""
    dims = [json_int(d, "globe disk dimension") for d in disk_dims]
    if not dims:
        raise BadInputError("a chain needs at least one globe")
    cells = []
    for i, d in enumerate(dims, 1):
        src, dst = f"a{i-1}", f"a{i}"
        if d != 1:
            cells.append(Cell(f"g{i}", d, src, dst))
            continue
        sides = [f"g{i}{side}" for side in "-+"]
        cells += [Cell(c, 0, src, dst) for c in sides]
        cells.append(Cell(f"g{i}", 1, src, dst,
                          *(Step(c, (), mu(1)) for c in sides)))
    return validate(ComplexDesc(tuple(f"a{i}" for i in range(len(dims) + 1)),
                                tuple(cells)))


def chain_path_space(disk_dims) -> StratumDesc:
    """The single stratum of a chain of globes with the given disk dims,
    read off the normal form of the unit-speed run through its globes'
    centres."""
    cx = _chain(disk_dims)
    globes = [cx.cell(f"g{i}") for i in range(1, len(cx.states))]
    nf = cx.normalize(reduce(Moore, (Step(g.id, (0,) * g.disk_dim, mu(1))
                                     for g in globes)))
    return StratumDesc(nf.carrier(),
                       tuple(cx.cell(c).disk_dim for c in nf.carrier()),
                       len(nf.segs))


def chain_complex(p: int) -> Complex:
    """The carrier skeleton of a p-chain: states a0..ap, edges g1..gp."""
    return _chain([0] * p)


# ---------------------------------------------------------------------------
# globes of free spaces: the round trip through parallel edges


def globe_roundtrip(length, labels) -> dict:
    """Realize the free space of ``length`` over ``labels`` as one edge
    0 -> 1 per label and read it back: the classes of hom(0, 1) are the
    one-letter words of the labels, and each label's run rescaled onto
    the length normalizes to that length."""
    space = free(length, labels)
    cx = validate(ComplexDesc(("0", "1"), tuple(
        Cell(u, 0, "0", "1") for u in space.basis)))
    classes = fundamental_category(cx).hom("0", "1")
    ok = classes == tuple(sorted((u,) for u in space.basis)) and all(
        cx.normalize(Step(u, (), mu(space.length))).total_len == space.length
        for u in space.basis)
    return {"len": format_fraction(space.length), "basis": list(space.basis),
            "ok": ok}


# ---------------------------------------------------------------------------
# counit verification


def counit_check(cx: Complex, bound: int) -> dict:
    """The pushout carrier check at every attachment step: the steps of
    :func:`~dipath.reedy.pushout_steps` that build ``cx`` from its states,
    one cell at a time.  The complex with no cells has no carriers, so
    every word of ``cx`` is witnessed exactly once, at the step that
    attached its last cell."""
    steps = list(pushout_steps(Complex(cx.states), cx.desc.cells, bound))
    return {"bound": bound, "steps": steps,
            "ok": all(step["bijection"] for step in steps)}


# ---------------------------------------------------------------------------
# flow presentations


@dataclass
class FlowPresentation:
    objects: tuple[str, ...]
    homs: dict[tuple[str, str], tuple[Word, ...]]
    comp: dict[tuple[str, str, str], tuple[tuple[int, ...], ...]]

    def hom(self, a: str, b: str) -> tuple[Word, ...]:
        return self.homs.get((a, b), ())

    def to_json(self) -> dict:
        homs = {f"{a}→{b}": words
                for (a, b), words in sorted(self.homs.items())}
        comp = {f"{a}→{b}→{c}": table
                for (a, b, c), table in sorted(self.comp.items())}
        return {"objects": list(self.objects), "homs": homs, "comp": comp}


def _root(parent: list[int], n: int) -> int:
    """The root of n in a union-find forest, halving its path."""
    while parent[n] != n:
        parent[n] = parent[parent[n]]
        n = parent[n]
    return n


def _fold(step: dict, k: int, word: Word) -> tuple[int, str]:
    """Read ``word`` on from class k through the step table, stopping before
    its last edge: the pair (class reached, last edge) it ends on."""
    for e in word[:-1]:
        k = step[(k, e)]
    return k, word[-1]


def fundamental_category(cx: Complex) -> FlowPresentation:
    """Edge words between states modulo the congruence generated, for every
    globe, by its two boundary edge words; each class is represented by its
    least word, and the classes of a hom are sorted by it.

    One pass over the cells in attachment order flattens each cell to its
    edge word: an edge to itself, a globe to its lower boundary with each
    cell flattened (both boundaries end up congruent), whose cells all came
    earlier in the pass.

    The states are visited in topological order.  The congruence is
    compatible with composition, and a replacement inside ``w·e`` either
    lies inside ``w`` or ends at the target c of ``e``.  So the classes of
    hom(a, c) are the pairs (class of hom(a, b), edge b→c), merged by the
    relations that end at c, each applied once per class of its prefix.  No
    word a→b of a loop-free complex is a proper prefix of another, so the
    least word of a pair is its class's least word followed by the edge.
    ``comp`` is filled in topological order from each representative's
    pair: the composite of u with v·e is the composite of u with v, then e.
    """
    order = cx.topological_order
    if order is None:
        raise HasLoopsError("fundamental category needs a loop-free complex")
    into: dict[str, list[Cell]] = {s: [] for s in order}
    # target state -> (source state, lhs, rhs) of each relation
    relations: dict[str, list[tuple[str, Word, Word]]] = {s: [] for s in order}
    # cell id -> its edge word
    flat: dict[str, Word] = {}
    for cell in cx.desc.cells:
        if cell.disk_dim == 0:
            into[cell.dst].append(cell)
            flat[cell.id] = (cell.id,)
            continue
        lhs, rhs = (tuple(x for c in side.carrier() for x in flat[c])
                    for side in cx.boundary_normal(cell.id))
        flat[cell.id] = lhs
        if lhs != rhs:
            relations[cell.dst].append((cell.src, lhs, rhs))

    homs: dict[tuple[str, str], tuple[Word, ...]] = {}
    # (a, c) -> the pair (b, k, e) of each class's least word
    last: dict[tuple[str, str], tuple[tuple[str, int, str], ...]] = {}
    # a -> (class k of hom(a, b), edge e out of b) -> class of hom(a, e.dst)
    steps: dict[str, dict[tuple[int, str], int]] = {}
    for i, a in enumerate(order):
        reps: dict[str, tuple[Word, ...]] = {a: ((),)}
        step = steps[a] = {}
        for c in order[i + 1:]:
            pairs = [(w + (e.id,), e.src, k, e.id) for e in into[c]
                     for k, w in enumerate(reps.get(e.src, ()))]
            if not pairs:
                continue
            index = {(k, e): n for n, (_, _, k, e) in enumerate(pairs)}
            parent = list(range(len(pairs)))
            for s, lhs, rhs in relations[c]:
                for k in range(len(reps.get(s, ()))):
                    x, y = (_root(parent, index[_fold(step, k, side)])
                            for side in (lhs, rhs))
                    parent[x] = y
            groups: dict[int, list] = {}
            for n, pair in enumerate(pairs):
                groups.setdefault(_root(parent, n), []).append(pair)
            ranked = sorted(sorted(g) for g in groups.values())
            for j, group in enumerate(ranked):
                for _, _, k, e in group:
                    step[(k, e)] = j
            reps[c] = homs[(a, c)] = tuple(g[0][0] for g in ranked)
            last[(a, c)] = tuple(g[0][1:] for g in ranked)

    comp: dict[tuple[str, str, str], tuple[tuple[int, ...], ...]] = {}
    for (a, b), left in homs.items():
        step = steps[a]
        for c in order:
            if (b, c) in last:
                comp[(a, b, c)] = tuple(
                    tuple(step[(i if b2 == b else comp[(a, b, b2)][i][k], e)]
                          for b2, k, e in last[(b, c)])
                    for i in range(len(left)))
    return FlowPresentation(cx.states, homs, comp)

