"""Flow presentations extracted from complexes and free-space data.

The functor pair connecting complexes with their combinatorial shadows acts
here at presentation level: path spaces are described by carrier strata,
chains of globes contribute a single stratum, a globe of a free space comes
back unchanged from the geometric round trip, and the fundamental category
of a loop-free two-dimensional complex is computed as edge words modulo the
congruence generated by globe boundaries (closed under composition via
union-find).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cellcomplex import Cell, Complex, ComplexDesc, validate
from .errors import (
    BadInputError,
    EngineError,
    HasLoopsError,
)
from .gspace import FreeGSpace, free, pair_label
from .rational import format_fraction
from .reedy import WitnessPaths, _check_pushout, pushout_complex

Word = tuple[str, ...]


# ---------------------------------------------------------------------------
# strata


@dataclass(frozen=True)
class StratumDesc:
    """One carrier stratum of a path space: the cells traversed, their disk
    dimensions, and the arity of the reparametrization factor."""

    carrier: tuple[str, ...]
    factor_dims: tuple[int, ...]
    reparam_arity: int


def make_stratum(carrier, factor_dims) -> StratumDesc:
    carrier = tuple(carrier)
    dims = tuple(int(d) for d in factor_dims)
    if len(carrier) != len(dims):
        raise BadInputError("carrier and factor dimensions disagree")
    return StratumDesc(carrier, dims, len(carrier))


def chain_path_space(disk_dims) -> StratumDesc:
    """The single stratum of a chain of globes with the given disk dims."""
    dims = tuple(int(d) for d in disk_dims)
    if not dims:
        raise BadInputError("a chain needs at least one globe")
    return make_stratum(tuple(f"g{i}" for i in range(1, len(dims) + 1)), dims)


def chain_complex(p: int) -> Complex:
    """The carrier skeleton of a p-chain: states a0..ap, edges g1..gp."""
    if p < 1:
        raise BadInputError("a chain needs at least one globe")
    states = tuple(f"a{i}" for i in range(p + 1))
    cells = tuple(Cell(f"g{i}", 0, f"a{i-1}", f"a{i}")
                  for i in range(1, p + 1))
    return validate(ComplexDesc(states, cells))


def mgflow_strata(cx: Complex, src: str, dst: str,
                  bound=None) -> list[StratumDesc]:
    """One stratum per carrier between the two states."""
    out = []
    for word in cx.enumerate_carriers(src, dst, bound):
        dims = tuple(cx.cell(cid).disk_dim for cid in word)
        out.append(make_stratum(word, dims))
    return out


# ---------------------------------------------------------------------------
# globes of free spaces: the geometric round trip


@dataclass(frozen=True)
class GlobeFlow:
    """A two-state flow whose only hom is a free space."""

    space: FreeGSpace


@dataclass(frozen=True)
class GeomGlobe:
    """A geometric globe of some length over a finite discrete label set."""

    length: Fraction
    labels: tuple[str, ...]


def realize_globe_flow(gf: GlobeFlow) -> GeomGlobe:
    """The geometric globe presented by a free-space globe."""
    return GeomGlobe(gf.space.length, gf.space.basis)


def globe_paths(globe: GeomGlobe) -> GlobeFlow:
    """The path presentation of a geometric globe: pairs of a rescaling onto
    the globe's length and a label, i.e. the free space on its labels."""
    return GlobeFlow(free(globe.length, globe.labels))


def globe_roundtrip(length, labels) -> dict:
    start = GlobeFlow(free(length, labels))
    back = globe_paths(realize_globe_flow(start))
    return {
        "len": format_fraction(start.space.length),
        "basis": list(start.space.basis),
        "ok": back == start,
    }


# ---------------------------------------------------------------------------
# counit verification


def counit_check(cx: Complex, bound: int) -> dict:
    """Run the pushout carrier check at every attachment step.

    The steps replay the chain that builds ``cx`` one cell at a time: the
    pushout of step i is ``base.extend(cell)``, and it is the base of step
    i+1, so only the new cell is admitted and each carrier table is built
    once.  One ``WitnessPaths`` serves every step, so a run word's slot
    triple, entry and path are built once per check and shared by every
    shape and step.  A path accepted by a complex is remembered by it, so a
    k=0 witness at step i+1 (one base run along a carrier of step i) is
    walked once: ``realize`` checked that very path object against the same
    complex at step i.  Every witness is still built, tested for being
    simplified, realized and compared by carrier at every step."""
    steps = []
    ok = True
    paths = WitnessPaths(cx.desc.cells)
    base = Complex(cx.states)
    for cell in cx.desc.cells:
        pushout = pushout_complex(base, cell)
        report = _check_pushout(base, pushout, cell, bound, paths)
        ok = ok and report["bijection"]
        steps.append(report)
        base = pushout
    return {"bound": bound, "steps": steps, "ok": ok}


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
        homs = {f"{a}→{b}": [list(w) for w in words]
                for (a, b), words in sorted(self.homs.items())}
        comp = {f"{a}→{b}→{c}": [list(row) for row in table]
                for (a, b, c), table in sorted(self.comp.items())}
        return {"objects": list(self.objects), "homs": homs, "comp": comp}


class _UnionFind:
    def __init__(self, items):
        self._parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self._parent[max(rx, ry)] = min(rx, ry)

    def classes(self):
        groups: dict = {}
        for x in self._parent:
            groups.setdefault(self.find(x), []).append(x)
        return [sorted(g) for g in sorted(groups.values())]


def _flatten_to_edges(cx: Complex, cid: str, memo: dict) -> Word:
    """Replace a cell by its edge word, resolving globes through their lower
    boundary (the two boundaries end up congruent anyway)."""
    if cid in memo:
        return memo[cid]
    cell = cx.cell(cid)
    if cell.disk_dim == 0:
        word: Word = (cid,)
    else:
        minus, _ = cx.boundary_normal(cid)
        word = tuple(x for c in minus.carrier()
                     for x in _flatten_to_edges(cx, c, memo))
    memo[cid] = word
    return word


def fundamental_category_full(cx: Complex):
    """The flow presentation plus the full word-to-class tables.

    Edge words between each pair of states are identified by the congruence
    generated, for every globe, by its two boundary edge words; the closure
    under left and right composition comes from replacing occurrences inside
    longer words.  The relation sides are indexed by length, so each word
    slides one window per side length.
    """
    if not cx.loop_free:
        raise HasLoopsError("fundamental category needs a loop-free complex")
    edges = tuple(c for c in cx.desc.cells if c.disk_dim == 0)
    skeleton = validate(ComplexDesc(cx.desc.states, edges))
    memo: dict = {}
    # side length -> side -> the words it may be replaced by
    rewrites: dict[int, dict[Word, list[Word]]] = {}
    for cell in cx.desc.cells:
        if cell.disk_dim != 1:
            continue
        minus, plus = cx.boundary_normal(cell.id)
        lhs = tuple(x for c in minus.carrier()
                    for x in _flatten_to_edges(cx, c, memo))
        rhs = tuple(x for c in plus.carrier()
                    for x in _flatten_to_edges(cx, c, memo))
        if lhs != rhs:
            for sub, rep in ((lhs, rhs), (rhs, lhs)):
                by_side = rewrites.setdefault(len(sub), {})
                by_side.setdefault(sub, []).append(rep)

    class_of: dict[tuple[str, str], dict[Word, int]] = {}
    homs: dict[tuple[str, str], tuple[Word, ...]] = {}
    for pair, ws in skeleton.carrier_table().items():
        uf = _UnionFind(ws)
        wset = set(ws)
        for w in ws:
            for k, by_side in rewrites.items():
                for i in range(len(w) - k + 1):
                    for rep in by_side.get(w[i:i + k], ()):
                        w2 = w[:i] + rep + w[i + k:]
                        if w2 not in wset:
                            raise EngineError(
                                f"congruence left the word set at {w2}")
                        uf.union(w, w2)
        groups = uf.classes()
        reps = tuple(g[0] for g in groups)
        homs[pair] = reps
        table = {}
        for idx, g in enumerate(groups):
            for w in g:
                table[w] = idx
        class_of[pair] = table

    comp: dict[tuple[str, str, str], tuple[tuple[int, ...], ...]] = {}
    for (a, b), left_reps in homs.items():
        for (b2, c), right_reps in homs.items():
            if b2 != b or (a, c) not in homs:
                continue
            rows = tuple(
                tuple(class_of[(a, c)][u + v] for v in right_reps)
                for u in left_reps)
            comp[(a, b, c)] = rows
    return FlowPresentation(cx.states, homs, comp), class_of


def fundamental_category(cx: Complex) -> FlowPresentation:
    return fundamental_category_full(cx)[0]


def flow_of_gflow(objects, homs: dict[tuple[str, str], FreeGSpace]
                  ) -> FlowPresentation:
    """Collapse free hom data to a flow: classes are basis labels, and the
    composite of two labels is their pair label when the target hom carries
    it."""
    objects = tuple(str(o) for o in objects)
    classes: dict[tuple[str, str], tuple[Word, ...]] = {}
    for pair, space in homs.items():
        classes[pair] = tuple((label,) for label in sorted(space.basis))
    comp: dict[tuple[str, str, str], tuple[tuple[int, ...], ...]] = {}
    for (a, b), left in classes.items():
        for (b2, c), right in classes.items():
            if b2 != b or (a, c) not in classes:
                continue
            index = {w: i for i, w in enumerate(classes[(a, c)])}
            try:
                rows = tuple(
                    tuple(index[(pair_label(u[0], v[0]),)] for v in right)
                    for u in left)
            except KeyError:
                continue
            comp[(a, b, c)] = rows
    return FlowPresentation(objects, classes, comp)
