"""Rewriting engine for path spaces of a one-cell pushout.

When a new cell is glued onto a base complex A, every path of the extended
complex X decomposes into runs through A interleaved with passes through the
new cell.  The formal side of that statement is a diagram indexed by tuples
of triples (state, flag, state): flag 0 slots hold paths of A, flag 1 slots
hold an injected A-path or a pass through the freshly attached cell.  An
element holds only its entries, each of which fixes its slot's triple, and
the cell's endpoints (u, v).  Two rewrite rules simplify an element:

* R1 merges two adjacent flag-0 slots by concatenating their paths;
* R2 lowers a flag-1 slot whose content already lives in A (an injected
  path, or a cell path sitting on the boundary sphere).

Each rule strictly decreases the degree (tuple length plus flag sum), so
rewriting terminates; the normal forms match the path normal forms of X,
which :func:`pushout_steps` verifies carrier by carrier, one attached cell
at a time: the counit check runs its steps from the complex with no cells,
and :func:`pushout_check` is its single step from an arbitrary base.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, islice
from operator import eq
from typing import Union

from .cellcomplex import (
    Cell,
    Complex,
    NormalPath,
    Seg,
    Step,
    concat,
    disk_side,
    normal_path_from_json,
    normal_path_to_json,
    repar_normal,
)
from .errors import (
    BadInputError,
    BadLengthError,
    ComplexMismatchError,
    EndpointMismatchError,
    EngineError,
    NoBoundaryDataError,
    NotComposableHereError,
    OutOfDomainError,
    WrongEndpointsError,
)
from .rational import (format_fraction, format_point, json_int, json_list,
                       json_str, parse_fraction)
from .reparam import PLHomeo, mu, pl_from_json

# the time law and disk coordinate of every witness slot; both are
# immutable, so one of each is shared
_UNIT = mu(1)
_ZERO = Fraction(0)


@dataclass(frozen=True)
class ReedyObj:
    """A tuple of chained triples with the distinguished pair (u, v)."""

    u: str
    v: str
    triples: tuple[tuple[str, int, str], ...]


def make_obj(u: str, v: str, triples) -> ReedyObj:
    """The index object of ``triples``, in one pass.  Every triple is
    converted before an error is raised; then the first chain break wins
    over the first bad flag or flag-1 endpoints."""
    trips, chain_error, flag_error = [], None, None
    for a, e, b in triples:
        a, e, b = str(a), json_int(e, "triple flag"), str(b)
        if trips and trips[-1][2] != a and chain_error is None:
            chain_error = EndpointMismatchError(
                f"triples do not chain: {trips[-1][2]!s:.40} != {a!s:.40}")
        if flag_error is None and e not in (0, 1):
            flag_error = BadInputError(f"flag must be 0 or 1, got {e}")
        elif flag_error is None and e == 1 and (a, b) != (u, v):
            flag_error = WrongEndpointsError(
                f"flag-1 triple must run {u!s:.40} -> {v!s:.40}, "
                f"got {a!s:.40} -> {b!s:.40}")
        trips.append((a, e, b))
    if not trips:
        raise BadInputError("an index object needs at least one triple")
    for error in (chain_error, flag_error):
        if error is not None:
            raise error
    return ReedyObj(u, v, tuple(trips))


def degree(obj: ReedyObj) -> int:
    return len(obj.triples) + sum(e for _, e, _ in obj.triples)


@dataclass(frozen=True)
class APath:
    """Flag-0 slot: a path of the base complex."""

    path: NormalPath


@dataclass(frozen=True)
class InjPath:
    """Flag-1 slot holding an injected base path."""

    path: NormalPath


@dataclass(frozen=True)
class CellPath:
    """Flag-1 slot holding a pass through the new cell at disk point z."""

    z: tuple[Fraction, ...]
    chi: PLHomeo


Entry = Union[APath, InjPath, CellPath]


@dataclass(frozen=True)
class ReedyElem:
    u: str
    v: str
    entries: tuple[Entry, ...]

    @property
    def obj(self) -> ReedyObj:
        """The index object: a base path fills (start, 0, end), an injected
        path (start, 1, end) and a cell pass (u, 1, v)."""
        return ReedyObj(self.u, self.v, tuple(
            (e.path.start, 0, e.path.end) if isinstance(e, APath)
            else (e.path.start, 1, e.path.end) if isinstance(e, InjPath)
            else (self.u, 1, self.v) for e in self.entries))


def make_elem(obj: ReedyObj, entries, base: Complex) -> ReedyElem:
    entries = tuple(entries)
    if len(entries) != len(obj.triples):
        raise BadInputError(
            f"{len(obj.triples)} slots but {len(entries)} entries")
    for (a, e, b), entry in zip(obj.triples, entries):
        if isinstance(entry, APath):
            if e != 0:
                raise BadInputError("flag-1 slot holds a base path")
            base.check_normal_path(entry.path)
            if (entry.path.start, entry.path.end) != (a, b):
                raise EndpointMismatchError(
                    f"slot path runs {entry.path.start!s:.40}->"
                    f"{entry.path.end!s:.40}, slot is {a!s:.40}->{b!s:.40}")
        elif isinstance(entry, InjPath):
            if e != 1:
                raise BadInputError("flag-0 slot holds an injected path")
            base.check_normal_path(entry.path)
            if (entry.path.start, entry.path.end) != (a, b):
                raise EndpointMismatchError(
                    f"injected path runs {entry.path.start!s:.40}->"
                    f"{entry.path.end!s:.40}")
        elif isinstance(entry, CellPath):
            if e != 1:
                raise BadInputError("flag-0 slot holds a cell path")
            if disk_side(entry.z) > 0:
                raise OutOfDomainError(f"cell point {format_point(entry.z)} "
                                       "outside the closed disk")
            if entry.chi.pts[-1][2:] != (1, 1):
                raise BadLengthError("cell time law must land in [0,1]")
        else:
            raise BadInputError(f"not an entry: {entry!r}")
    return ReedyElem(obj.u, obj.v, entries)


# ---------------------------------------------------------------------------
# single-step arrows


def _replace(elem: ReedyElem, i: int, n: int, entry: Entry) -> ReedyElem:
    """``elem`` with its n slots from slot i replaced by one slot."""
    entries = elem.entries
    return ReedyElem(elem.u, elem.v, entries[:i] + (entry,) + entries[i + n:])


def apply_composition(elem: ReedyElem, i: int) -> ReedyElem:
    """Merge the flag-0 slots i and i+1 by path concatenation."""
    entries = elem.entries
    if i < 0 or i + 1 >= len(entries):
        raise NotComposableHereError(f"no adjacent pair at {i}")
    left, right = entries[i], entries[i + 1]
    if not (isinstance(left, APath) and isinstance(right, APath)):
        raise NotComposableHereError(
            f"slots {i} and {i+1} are not both flag 0")
    return _replace(elem, i, 2, APath(concat(left.path, right.path)))


def apply_inclusion(elem: ReedyElem, i: int) -> ReedyElem:
    """Raise the flag-0 slot i with endpoints (u, v) into a flag-1 slot."""
    entries = elem.entries
    if i < 0 or i >= len(entries):
        raise WrongEndpointsError(f"no slot at {i}")
    entry = entries[i]
    if not (isinstance(entry, APath)
            and (entry.path.start, entry.path.end) == (elem.u, elem.v)):
        raise WrongEndpointsError(
            f"slot {i} is not a flag-0 slot running "
            f"{elem.u!s:.40} -> {elem.v!s:.40}")
    return _replace(elem, i, 1, InjPath(entry.path))


# ---------------------------------------------------------------------------
# normalization


def _check_cell(elem: ReedyElem, cell: Cell) -> None:
    if (cell.src, cell.dst) != (elem.u, elem.v):
        raise ComplexMismatchError(
            f"cell {cell.id!s:.40} runs {cell.src!s:.40}->{cell.dst!s:.40}, "
            f"element expects {elem.u!s:.40}->{elem.v!s:.40}")


def _boundary_path(base: Complex, cell: Cell,
                   z: tuple[Fraction, ...]) -> NormalPath:
    if cell.disk_dim == 1:
        return base.normalize(cell.boundary_minus if z[0] < 0
                              else cell.boundary_plus)
    raise NoBoundaryDataError(
        f"no boundary interpretation for a dimension-{cell.disk_dim} "
        f"cell point {format_point(z)}")


def _demotions(elem: ReedyElem, cell: Cell):
    """The demotable slots, in order; a wrong-arity cell point raises."""
    for i, entry in enumerate(elem.entries):
        if isinstance(entry, InjPath):
            yield i
        elif isinstance(entry, CellPath):
            if len(entry.z) != cell.disk_dim:
                raise ComplexMismatchError(
                    f"cell point arity {len(entry.z)} does not match "
                    f"disk dimension {cell.disk_dim}")
            if disk_side(entry.z) == 0:
                yield i


def _demote(elem: ReedyElem, i: int, base: Complex, cell: Cell) -> ReedyElem:
    entry = elem.entries[i]
    if isinstance(entry, InjPath):
        path = entry.path
    elif isinstance(entry, CellPath):
        path = repar_normal(_boundary_path(base, cell, entry.z), entry.chi)
    else:
        raise EngineError(f"slot {i} holds no demotable entry")
    return _replace(elem, i, 1, APath(path))


def _merges(elem: ReedyElem):
    """The slots that merge with their right neighbour, in order."""
    entries = elem.entries
    return (i for i in range(len(entries) - 1)
            if isinstance(entries[i], APath)
            and isinstance(entries[i + 1], APath))


def _rewrites(elem: ReedyElem, base: Complex, cell: Cell):
    """The one-step rewrites: merges, then demotions, each leftmost first;
    the demotion scan is whole before the first demotion runs."""
    for i in _merges(elem):
        yield apply_composition(elem, i)
    for i in list(_demotions(elem, cell)):
        yield _demote(elem, i, base, cell)


def rewrite_steps(elem: ReedyElem, base: Complex, cell: Cell) -> list[ReedyElem]:
    """Every element reachable in exactly one rewrite step, in order."""
    return list(_rewrites(elem, base, cell))


def is_simplified(elem: ReedyElem, base: Complex, cell: Cell) -> bool:
    """Whether no rule applies; the scan stops at the first that does."""
    return (next(_merges(elem), None) is None
            and next(_demotions(elem, cell), None) is None)


def normalize_elem(elem: ReedyElem, base: Complex, cell: Cell) -> ReedyElem:
    """Follow the first rewrite step until none is left.

    The degree drops at every step, which bounds the rewrite length by the
    starting degree; the result has no adjacent flag-0 slots and every cell
    point strictly interior.
    """
    _check_cell(elem, cell)
    current = elem
    while (nxt := next(_rewrites(current, base, cell), None)) is not None:
        if degree(nxt.obj) >= degree(current.obj):
            raise EngineError("rewrite step did not decrease the degree")
        current = nxt
    return current


# ---------------------------------------------------------------------------
# realization in the pushout complex


def pushout_complex(base: Complex, cell: Cell) -> Complex:
    return base.extend(cell)


def realize(elem: ReedyElem, pushout: Complex, cell_id: str) -> NormalPath:
    """The concatenated path of X named by the element's slots, in one shot.

    Base paths are normal forms already, so each is only checked against
    the pushout; a pass through the cell is normalized, which resolves a
    boundary point to its attached path.  ``concat`` joins the parts left
    to right, checking that each meets the next, so an element of one slot
    realizes as that slot's checked part itself."""
    cell = pushout.cell(cell_id)
    _check_cell(elem, cell)
    parts = []
    for entry in elem.entries:
        if isinstance(entry, (APath, InjPath)):
            parts.append(pushout.check_normal_path(entry.path))
        else:
            parts.append(pushout.normalize(Step(cell_id, entry.z, entry.chi)))
    return reduce(concat, parts)


# ---------------------------------------------------------------------------
# carrier-level pushout verification


class WitnessPaths:
    """The parts that fill witness slots, built on first use and then
    shared: one unit-speed ``Seg`` through the centre of each cell, and per
    run word its flag-0 entry, the ``APath`` of that word from a to b.  One
    instance serves every step of :func:`pushout_steps`, so a run's slot is
    the same object in every shape and step that use it; each step checks
    it once, however many of its witnesses hold it."""

    def __init__(self, cells):
        self._units = {c.id: Seg(c.id, (_ZERO,) * c.disk_dim, _UNIT)
                       for c in cells}
        self._slots: dict[tuple[str, ...], APath] = {}

    def slot(self, word: tuple[str, ...], a: str, b: str) -> APath:
        slot = self._slots.get(word)
        if slot is None:
            path = NormalPath(a, b, tuple(self._units[cid] for cid in word))
            slot = self._slots[word] = APath(path)
        return slot


def _shapes(base: Complex, pushout: Complex, cell: Cell, bound: int,
            paths: WitnessPaths, fresh):
    """Carrier words of the pushout generated from simplified shapes, each
    with its witness element and that element's realization in ``pushout``.

    A shape is a0 [cell] a1 [cell] ... [cell] ak where each run a_i is an
    A-carrier (possibly empty when its endpoints coincide) and no two runs
    are adjacent.  The shapes with k >= 1 passes are yielded by k: a
    nonempty run is the slot ``paths`` hands out for its word, an empty run
    holds no slot, and a pass holds the cell's centre.  A last run ends at
    its start or at a state in its row of the table.  The k=0 shapes,
    single runs of the base, are not yielded.  Each part is checked once: a
    slot (``fresh`` runs (word, a, b) first) on both complexes and against
    the run's endpoints, the pass as :func:`make_elem` checks it, then
    normalized.  A realization is its prefix's, ``concat`` with one part (or
    none), whose check that they meet chains the slots."""
    table = base.carrier_table(bound)
    rows = {a: {a: None} for a in base.states}
    for a, b in table:
        rows[a][b] = None
    u, v = cell.src, cell.dst
    slots = {}

    def slot(word: tuple[str, ...], a: str, b: str):
        if word not in slots:
            entry = paths.slot(word, a, b)
            path = pushout.check_normal_path(base.check_normal_path(entry.path))
            if (path.start, path.end) != (a, b):
                raise EndpointMismatchError(
                    f"slot {(a[:40], 0, b[:40])} holds "
                    f"{path.start!s:.40}->{path.end!s:.40}")
            slots[word] = (entry,), path
        return slots[word]

    for run in fresh:
        slot(*run)
    through = CellPath((_ZERO,) * cell.disk_dim, _UNIT)
    pass_e = (through,)
    make_elem(ReedyObj(u, v, ((u, 1, v),)), pass_e, base)
    passed = pushout.normalize(Step(cell.id, through.z, through.chi))

    def runs(a: str, b: str, budget: int):
        # every run a -> b within the budget, the empty one (no path) too
        if a == b and budget >= 0:
            yield (), (), None
        for word in table.get((a, b), ()):
            if len(word) <= budget:
                yield word, *slot(word, a, b)

    def join(r, part):
        # a realization so far (None: no part yet) and one more part
        return r if part is None else part if r is None else concat(r, part)

    def passes(ends):
        # the cuts one pass further on
        return [(v, rest - len(run) - 1, w + run + (cell.id,),
                 e + run_e + pass_e, join(join(r, part), passed))
                for a, rest, w, e, r in ends
                for run, run_e, part in runs(a, u, rest - 1)]

    # the shapes cut right after their k-th pass, for k = 1, 2, ...: the
    # state reached, the budget left, the word, entries and realization so far
    ends = passes([(a, bound, (), (), None) for a in base.states])
    while ends:
        for a, rest, w, e, r in ends:
            for target in rows[a]:
                for last, last_e, part in runs(a, target, rest):
                    yield w + last, ReedyElem(u, v, e + last_e), join(r, part)
        ends = passes(ends)


def pushout_check(base: Complex, cell: Cell, bound: int) -> dict:
    """The single step of :func:`pushout_steps` from an arbitrary base."""
    return next(pushout_steps(base, (cell,), bound))


def pushout_steps(base: Complex, cells, bound: int):
    """Attach ``cells`` to ``base`` one at a time, yielding per step the
    sorted word lists of base-side interleavings (left) and of the
    pushout's own carriers (right), and whether they are equal.

    The base's carrier table refuses a bad bound before any other work; the
    shapes spend it as a budget, so it is needed even on a loop-free base.  One ``WitnessPaths`` serves every
    step.  Each shape with k >= 1 passes through the cell is witnessed: its
    element from :func:`_shapes` is tested with ``is_simplified`` and its
    realization compared by carrier.  A k=0 shape is a base run, which no
    rule touches and which realizes to its slot path: its word is a base
    carrier, and its slot is checked while it is a fresh run (``base``'s
    own carriers, later the words of the step before's shapes).  Both lists
    add to the step before's right list: the left list the shapes' words,
    the right list the pushout's carriers through the cell, from the pairs
    its table replaced.  An equal right list is the left list."""
    if bound is None:
        raise BadInputError("a pushout check needs a carrier bound, got None")
    table = base.carrier_table(bound)
    cells = tuple(cells)
    paths = WitnessPaths(base.desc.cells + cells)
    words = sorted(chain.from_iterable(table.values()))
    fresh = [(w, a, b) for (a, b), ws in table.items() for w in ws]
    for cell in cells:
        pushout = pushout_complex(base, cell)
        shapes = _shapes(base, pushout, cell, bound, paths, fresh)
        new, fresh = [], []
        for word, elem, realized in shapes:
            new.append(word)
            fresh.append((word, realized.start, realized.end))
            if not is_simplified(elem, base, cell):
                raise EngineError(f"witness for {word} is not simplified")
            if realized.carrier() != word:
                raise EngineError(f"witness realization carrier "
                                  f"{realized.carrier()} != {word}")
        # a carried word never holds the cell and every shape word does, so
        # only the new words can repeat one
        new.sort()
        if any(map(eq, new, islice(new, 1, None))):
            raise EngineError("shape enumeration produced duplicate carriers")
        lhs = sorted(words + new)
        old, table = table, pushout.carrier_table(bound)
        through = sorted(w for p, ws in table.items() if ws is not old.get(p)
                         for w in ws if cell.id in w)
        # equal new words make equal sides, which share one list
        bijection = new == through
        words = lhs if bijection else sorted(words + through)
        yield {"cell": cell.id, "bound": bound, "lhs_carriers": lhs,
               "rhs_carriers": words, "bijection": bijection}
        base = pushout


# ---------------------------------------------------------------------------
# JSON encoding


def obj_from_json(data) -> ReedyObj:
    try:
        return make_obj(
            json_str(data["u"], "index object u"),
            json_str(data["v"], "index object v"),
            [(json_str(a, "triple state"), e, json_str(b, "triple state"))
             for a, e, b in json_list(data["triples"], "index triples")])
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInputError(f"malformed index object: {exc}") from exc


def elem_to_json(elem: ReedyElem) -> dict:
    entries = []
    for entry in elem.entries:
        if isinstance(entry, APath):
            entries.append({"path": normal_path_to_json(entry.path)})
        elif isinstance(entry, InjPath):
            entries.append({"inj": normal_path_to_json(entry.path)})
        else:
            entries.append({"cellpath": {
                "z": [format_fraction(x) for x in entry.z],
                "chi": entry.chi.to_json()}})
    return {"u": elem.u, "v": elem.v,
            "triples": [[a, e, b] for a, e, b in elem.obj.triples],
            "entries": entries}


def elem_from_json(data, base: Complex) -> ReedyElem:
    obj = obj_from_json(data)
    entries = []
    try:
        raw_entries = json_list(data["entries"], "element entries")
    except (KeyError, TypeError) as exc:
        raise BadInputError(f"malformed element: {exc}") from exc
    for raw in raw_entries:
        if not isinstance(raw, dict) or len(raw) != 1:
            raise BadInputError(f"malformed entry: {raw!r:.40}")
        kind, body = next(iter(raw.items()))
        if kind == "path":
            entries.append(APath(normal_path_from_json(body, base)))
        elif kind == "inj":
            entries.append(InjPath(normal_path_from_json(body, base)))
        elif kind == "cellpath":
            try:
                entries.append(CellPath(
                    tuple(map(parse_fraction,
                              json_list(body["z"], "cell path point"))),
                    pl_from_json(body["chi"])))
            except (KeyError, TypeError) as exc:
                raise BadInputError(f"malformed cell path: {exc}") from exc
        else:
            raise BadInputError(f"unknown entry kind {kind!r:.40}")
    return make_elem(obj, entries, base)
