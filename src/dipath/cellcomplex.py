"""Cellular complexes with directed globular cells and their path algebra.

A complex is a finite list of states plus an ordered list of cells.  A cell
of disk dimension 0 is a directed edge between two states; a cell of disk
dimension 1 is a two-dimensional globe glued along two parallel paths
(its lower and upper boundary) that must already exist in the earlier part
of the complex.

Path expressions are trees built from elementary steps, length-adding
concatenation, length-one normalized concatenation, and reparametrization
by a PL bijection.  ``Complex.normalize`` rewrites any expression into its
unique normal form: a chain of minimal segments, each running through the
interior of a single cell with an explicit positive length and an exact PL
time law.  Boundary steps of a globe are recursively resolved into the
attached boundary path, so equal paths always share one representation.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, Optional, Union

from .errors import (
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
from .rational import (format_fraction, format_point, format_ratio,
                       json_int, json_list, json_str, parse_fraction)
from .reparam import (PLHomeo, _blocks, absorb, add_ratio, compose, inverse,
                      mu, pl_eval, pl_from_json)

# t |-> 2t, the time law of every normalized concatenation (shared: frozen)
_DOUBLING = inverse(mu(2))


# ---------------------------------------------------------------------------
# path expressions


@dataclass(frozen=True)
class Step:
    """Elementary path t |-> (z, chi(t)) inside one cell.

    ``chi`` maps [0, length] onto [0, 1]; ``z`` is a rational point of the
    cell's disk (empty tuple for edges).  A boundary z of a globe denotes
    the attached boundary path.
    """

    cell: str
    z: tuple[Fraction, ...]
    chi: PLHomeo


@dataclass(frozen=True)
class Moore:
    """Length-adding concatenation."""

    left: "PathExpr"
    right: "PathExpr"


@dataclass(frozen=True)
class NormComp:
    """Normalized concatenation of two length-one paths."""

    left: "PathExpr"
    right: "PathExpr"


@dataclass(frozen=True)
class Repar:
    """Precomposition with a PL bijection onto the child's time interval."""

    path: "PathExpr"
    phi: PLHomeo


PathExpr = Union[Step, Moore, NormComp, Repar]


@dataclass(frozen=True)
class Seg:
    """One minimal segment of a normal form."""

    cell: str
    z: tuple[Fraction, ...]
    chi: PLHomeo  # [0, length] -> [0, 1]

    @property
    def length(self) -> Fraction:
        return self.chi.src_len


@dataclass(frozen=True)
class NormalPath:
    start: str
    end: str
    segs: tuple[Seg, ...]

    @property
    def total_len(self) -> Fraction:
        return Fraction(*_span(self))

    def carrier(self) -> tuple[str, ...]:
        return tuple(s.cell for s in self.segs)


def np_to_expr(np: NormalPath) -> PathExpr:
    expr: PathExpr = Step(np.segs[0].cell, np.segs[0].z, np.segs[0].chi)
    for seg in np.segs[1:]:
        expr = Moore(expr, Step(seg.cell, seg.z, seg.chi))
    return expr


def _sq_norm_terms(z: tuple[Fraction, ...]) -> tuple[int, int]:
    """The squared Euclidean norm of a rational point as one integer
    numerator over one positive integer denominator."""
    num, den = 0, 1
    for zi in z:
        n, d = zi.as_integer_ratio()
        d2 = d * d
        num = num * d2 + n * n * den
        den *= d2
    return num, den


def disk_side(z: tuple[Fraction, ...]) -> int:
    """-1, 0 or 1 as the point lies inside, on or outside the unit sphere:
    the sign of |z|^2 - 1, decided on integers with no Fraction built."""
    num, den = _sq_norm_terms(z)
    return (num > den) - (num < den)


def _meet(end: str, start: str) -> None:
    if end != start:
        raise EndpointMismatchError(f"cannot concatenate: {end} != {start}")


def _span(np: NormalPath) -> tuple[int, int]:
    """The length of a normal form as a reduced (num, den) pair."""
    return reduce(add_ratio, (s.chi.pts[-1][:2] for s in np.segs), (0, 1))


def _lands_on(phi: PLHomeo, length: tuple[int, int]) -> None:
    if phi.pts[-1][2:] != length:
        raise LengthMismatchError(
            f"phi lands in [0,{format_ratio(*phi.pts[-1][2:])}] but the path "
            f"runs on [0,{format_ratio(*length)}]")


def concat(left: NormalPath, right: NormalPath) -> NormalPath:
    """Length-adding concatenation of two normal forms: their segments
    joined, which is again a normal form, once the endpoints meet."""
    _meet(left.end, right.start)
    return NormalPath(left.start, right.end, left.segs + right.segs)


def repar_normal(np: NormalPath, phi: PLHomeo) -> NormalPath:
    """Reparametrize a normal form by phi, whose target interval must be the
    path's time interval: :func:`absorb` phi into the segments' time laws."""
    _lands_on(phi, _span(np))
    chis = absorb(phi, [s.chi for s in np.segs])
    return NormalPath(np.start, np.end, tuple(
        Seg(s.cell, s.z, chi) for s, chi in zip(np.segs, chis)))


# ---------------------------------------------------------------------------
# cells and complexes


@dataclass(frozen=True)
class Cell:
    id: str
    disk_dim: int
    src: str
    dst: str
    boundary_minus: Optional[PathExpr] = None
    boundary_plus: Optional[PathExpr] = None


@dataclass(frozen=True)
class ComplexDesc:
    """Raw description; run :func:`validate` to obtain a usable complex."""

    states: tuple[str, ...]
    cells: tuple[Cell, ...]


def check_bound(bound: Optional[int]) -> None:
    """Refuse a carrier bound that is not an int, is a bool or is negative
    (None: no bound)."""
    if bound is not None and json_int(bound, "carrier bound") < 0:
        raise BadInputError(f"carrier bound must be >= 0, got {bound}")


class Complex:
    """A validated complex together with its path operations.

    ``Complex(states)`` is the complex with no cells; :meth:`extend` attaches
    cells, and :func:`validate` attaches a description's cells in one
    ``extend``.  A complex is immutable: assigning or deleting an attribute
    raises, and its tables are never written once ``extend`` has returned
    it.  What changes is cached: ``desc`` and ``topological_order`` (None
    when the cells form a directed cycle; ``loop_free`` reads it), computed
    on first read, and the carrier tables, one per bound.
    """

    def __init__(self, states: tuple[str, ...]):
        states = tuple(states)
        if len(set(states)) != len(states):
            raise UnknownStateError("state names must be distinct")
        # cells in attachment order; arcs by source state, sorted by id
        vars(self).update(states=states, _cells={}, _boundaries={},
                          _arcs=dict.fromkeys(states, ()), _carrier_tables={},
                          _parent_tables={}, _new_cells=())

    def __setattr__(self, name, value):
        raise AttributeError(f"Complex is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Complex is immutable: cannot delete {name!r}")

    @cached_property
    def desc(self) -> ComplexDesc:
        return ComplexDesc(self.states, tuple(self._cells.values()))

    @cached_property
    def topological_order(self) -> Optional[tuple[str, ...]]:
        """The states ordered so that every cell runs forward (Kahn's
        algorithm), or None when a directed cycle of cells exists."""
        indeg = {s: 0 for s in self.states}
        for cell in self._cells.values():
            indeg[cell.dst] += 1
        queue = [s for s in self.states if indeg[s] == 0]
        order = []
        while queue:
            s = queue.pop()
            order.append(s)
            for cell in self._arcs[s]:
                indeg[cell.dst] -= 1
                if indeg[cell.dst] == 0:
                    queue.append(cell.dst)
        return tuple(order) if len(order) == len(self.states) else None

    @property
    def loop_free(self) -> bool:
        """Whether no directed cycle of cells exists."""
        return self.topological_order is not None

    def extend(self, *cells: Cell) -> "Complex":
        """This complex with ``cells`` attached last, in order.

        The child copies the parent's cell, boundary and arc tables once
        (sharing their immutable values), then admits each new cell against
        the cells before it, parent's and new: its id, then :meth:`_admit`;
        the first fault in that order raises.  Each source state that gained
        cells then gets one new arc tuple, sorted by id.  After that the
        child is never written again, and it starts with empty caches.  It
        keeps the parent's table cache and its new cells, not the parent,
        so that its carrier tables grow from the parent's."""
        child = Complex(self.states)
        vars(child).update(_parent_tables=self._carrier_tables,
                           _new_cells=cells)
        child._cells.update(self._cells)
        child._boundaries.update(self._boundaries)
        child._arcs.update(self._arcs)
        added: dict[str, list[Cell]] = {}
        for cell in cells:
            if cell.id in child._cells:
                raise UnknownCellError("cell ids must be distinct")
            boundary = child._admit(cell)
            if boundary is not None:
                child._boundaries[cell.id] = boundary
            child._cells[cell.id] = cell
            added.setdefault(cell.src, []).append(cell)
        for state, new in added.items():
            child._arcs[state] = tuple(sorted((*child._arcs[state], *new),
                                              key=attrgetter("id")))
        return child

    # -- construction-time checks

    def _admit(self, cell: Cell) -> Optional[tuple[NormalPath, NormalPath]]:
        """Check ``cell`` against this complex and return a globe's two
        boundary normal forms (None for an edge): its states, its dimension,
        then each boundary, normalized here, so that the fold's first fault
        raises and a cell not attached before it is a forward reference."""
        if cell.src not in self._arcs:
            raise UnknownStateError(f"cell {cell.id}: unknown state {cell.src}")
        if cell.dst not in self._arcs:
            raise UnknownStateError(f"cell {cell.id}: unknown state {cell.dst}")
        if cell.disk_dim == 0:
            if cell.boundary_minus is not None or cell.boundary_plus is not None:
                raise BadDimError(f"edge {cell.id} cannot carry boundary paths")
            return None
        if cell.disk_dim != 1:
            raise BadDimError(
                f"cell {cell.id}: geometric cells have disk dimension 0 or 1, "
                f"got {cell.disk_dim}")
        if cell.boundary_minus is None or cell.boundary_plus is None:
            raise BadDimError(f"globe {cell.id} needs both boundary paths")
        nfs = []
        for side, expr in (("-", cell.boundary_minus),
                           ("+", cell.boundary_plus)):
            try:
                nf = self.normalize(expr)
            except UnknownCellError as exc:
                raise ForwardReferenceError(
                    f"boundary {side} of {cell.id} uses a cell not attached "
                    f"before it: {exc.detail}") from None
            if (length := _span(nf)) != (1, 1):
                raise BadLengthError(
                    f"boundary {side} of {cell.id} must have length 1, "
                    f"got {format_ratio(*length)}")
            if (nf.start, nf.end) != (cell.src, cell.dst):
                raise BoundaryEndpointMismatchError(
                    f"boundary {side} of {cell.id} runs {nf.start}->{nf.end}, "
                    f"cell runs {cell.src}->{cell.dst}")
            nfs.append(nf)
        return nfs[0], nfs[1]

    # -- cell access

    def cell(self, cid: str) -> Cell:
        try:
            return self._cells[cid]
        except KeyError:
            raise UnknownCellError(f"unknown cell {cid}") from None

    def boundary_normal(self, cid: str) -> tuple[NormalPath, NormalPath]:
        self.cell(cid)
        try:
            return self._boundaries[cid]
        except KeyError:
            raise BadDimError(f"cell {cid} has no boundary paths") from None

    # -- normalization

    def normalize(self, expr: PathExpr) -> NormalPath:
        """The unique normal form of ``expr``, in two passes over the tree.

        Bottom-up, every check is made and each node's endpoints and length
        found; a ``NormalPath``, at the root or nested, is checked by
        :meth:`check_normal_path`.  Top-down, each subtree's pending map is
        carried (none at the root): a Repar composes it with phi, a NormComp
        with t |-> 2t, a concatenation splits it at its two lengths, and a
        step composes it into its time law once; a boundary step
        reparametrizes its attached boundary by that law, and a
        ``NormalPath`` absorbs it.

        This is the result of the bottom-up fold, where each level absorbs
        its map into every segment below it: each segment gets the same
        blocks of the same maps, composition is associative, a block of a
        composite is the composite of the blocks, and canonical PL forms are
        unique.  The checks run in the fold's order (left subtree, right
        subtree, node), so the fold's first fault raises, with its class and
        message.
        """
        cuts: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {}
        start, end, _ = self._measure(expr, cuts)
        segs: list[Seg] = []
        self._lay(expr, None, cuts, segs)
        return NormalPath(start, end, tuple(segs))

    def _measure(self, expr, cuts: dict) -> tuple[str, str, tuple[int, int]]:
        """Check ``expr`` bottom-up and return its endpoints and length as a
        (num, den) pair; keep each concatenation's lengths in ``cuts``."""
        if isinstance(expr, Step):
            cell = self.cell(expr.cell)
            if len(expr.z) != cell.disk_dim:
                raise BadDimError(
                    f"step in {cell.id}: point has {len(expr.z)} coordinates, "
                    f"cell disk dimension is {cell.disk_dim}")
            if (lands := expr.chi.pts[-1][2:]) != (1, 1):
                raise BadLengthError(f"step time law must land in [0,1], "
                                     f"got [0,{format_ratio(*lands)}]")
            if disk_side(expr.z) > 0:
                raise OutOfDomainError(
                    f"point {format_point(expr.z)} outside the closed disk")
            return cell.src, cell.dst, expr.chi.pts[-1][:2]
        if isinstance(expr, (Moore, NormComp)):
            start, mid, left = self._measure(expr.left, cuts)
            meet, end, right = self._measure(expr.right, cuts)
            glued = isinstance(expr, NormComp)
            for length in (left, right) if glued else ():
                if length != (1, 1):
                    raise BadLengthError(
                        "normalized concatenation needs length-1 operands, "
                        f"got {format_ratio(*length)}")
            _meet(mid, meet)
            cuts[id(expr)] = left, right
            return start, end, (1, 1) if glued else add_ratio(left, right)
        if isinstance(expr, Repar):
            start, end, length = self._measure(expr.path, cuts)
            _lands_on(expr.phi, length)
            return start, end, expr.phi.pts[-1][:2]
        if isinstance(expr, NormalPath):
            self.check_normal_path(expr)
            return expr.start, expr.end, _span(expr)
        raise BadInputError(f"not a path expression: {expr!r}")

    def _lay(self, expr, law: Optional[PLHomeo], cuts: dict,
             segs: list[Seg]) -> None:
        """Append to ``segs`` the segments of the measured ``expr``
        reparametrized by ``law`` (None: as they are)."""
        if isinstance(expr, Step):
            chi = expr.chi if law is None else compose(law, expr.chi)
            cell = self._cells[expr.cell]
            if cell.disk_dim == 0 or disk_side(expr.z) < 0:
                segs.append(Seg(cell.id, expr.z, chi))
            else:
                minus, plus = self._boundaries[cell.id]
                segs += repar_normal(minus if expr.z[0] < 0 else plus, chi).segs
        elif isinstance(expr, (Moore, NormComp)):
            if isinstance(expr, NormComp):
                law = _DOUBLING if law is None else compose(law, _DOUBLING)
            left, right = ((None, None) if law is None
                           else _blocks(law, cuts[id(expr)], 2))
            self._lay(expr.left, left, cuts, segs)
            self._lay(expr.right, right, cuts, segs)
        elif isinstance(expr, Repar):
            self._lay(expr.path, expr.phi if law is None
                      else compose(law, expr.phi), cuts, segs)
        else:  # a nested NormalPath, checked by _measure
            segs += expr.segs if law is None else repar_normal(expr, law).segs

    # -- pointwise evaluation

    def eval_path(self, p, t):
        """The state at a junction time, else (cell, z, globe coordinate)."""
        np = self.normalize(p)
        t = Fraction(t)
        if t < 0 or t > np.total_len:
            raise OutOfDomainError(f"{t} outside [0, {np.total_len}]")
        acc = Fraction(0)
        for seg in np.segs:
            if t == acc:
                return self.cell(seg.cell).src
            if t < acc + seg.length:
                return (seg.cell, seg.z, pl_eval(seg.chi, t - acc))
            acc += seg.length
        return np.end

    # -- structural checks used by JSON ingestion

    def check_normal_path(self, np: NormalPath) -> NormalPath:
        """``np`` itself when it is a well-formed path of this complex: every
        segment in a known cell, with the right point arity, an interior
        point and a time law onto [0, 1], the segments chaining, and the
        endpoints those of the chain.  One pass over the segments; the
        first fault of a segment wins over an earlier chain break, which
        wins over the endpoints."""
        if not np.segs:
            raise BadInputError("a path has at least one segment")
        cells, at, broken = self._cells, None, None
        for seg in np.segs:
            cell = cells.get(seg.cell) or self.cell(seg.cell)
            if len(seg.z) != cell.disk_dim:
                raise BadDimError(
                    f"segment in {cell.id}: wrong point arity {len(seg.z)}")
            if cell.disk_dim and disk_side(seg.z) >= 0:
                raise OutOfDomainError(
                    f"segment point {format_point(seg.z)} must be interior")
            if seg.chi.pts[-1][2:] != (1, 1):
                raise BadLengthError("segment time law must land in [0,1]")
            if at is not None and at != cell.src and broken is None:
                broken = EndpointMismatchError(
                    f"segments do not chain: {at} != {cell.src}")
            at = cell.dst
        if broken is not None:
            raise broken
        if np.start != cells[np.segs[0].cell].src or np.end != at:
            raise EndpointMismatchError("endpoint states do not match segments")
        return np

    # -- carrier enumeration

    def carrier_table(self, bound: Optional[int] = None
                      ) -> Mapping[tuple[str, str], tuple[tuple[str, ...], ...]]:
        """Every carrier word of at most ``bound`` cells (all of them when
        None), grouped by (src, dst) in state order and sorted within each
        pair; pairs without carriers are absent.  Computed once per bound by
        :meth:`_grow`: from the parent's table, seeded by the new cells, when
        :meth:`extend` made the complex from one that has it, else from no
        table, seeded by every cell; new pairs are inserted among the old.
        Immutable, the complex caches the table and shares it read-only."""
        self._refuse(bound)
        if bound not in self._carrier_tables:
            parent, cells = self._parent_tables.get(bound), self._new_cells
            if parent is None:
                parent, cells = {}, self._cells.values()
            found = self._grow(parent, cells, bound)
            index = {s: i for i, s in enumerate(self.states)}
            rank = lambda p: (index[p[0]], index[p[1]])  # noqa: E731
            keys, at = list(parent), 0
            for p in sorted(found.keys() - parent.keys(), key=rank):
                at = bisect(keys, rank(p), at, key=rank)
                keys.insert(at, p)
            self._carrier_tables[bound] = MappingProxyType({
                p: tuple(sorted((*parent.get(p, ()), *found[p])))
                if p in found else parent[p] for p in keys})
        return self._carrier_tables[bound]

    def _refuse(self, bound: Optional[int], *states: str) -> None:
        """Refuse an unknown state, then a bound that :func:`check_bound`
        refuses (first: True would hit the table of bound 1), then no bound
        on a complex with loops."""
        if any(s not in self._arcs for s in states):
            raise UnknownStateError(
                "unknown state " + " or ".join(map(repr, states)))
        check_bound(bound)
        if bound is None and not self.loop_free:
            raise UnboundedEnumerationError(
                "complex has loops: pass an explicit carrier bound")

    def _grow(self, parent: Mapping, cells, bound: Optional[int]) -> dict:
        """The words that ``parent``, a table of ``bound``, lacks, grouped by
        pair, unsorted: split at their first cell c among ``cells``, a word
        of ``parent`` ending at c's source or none, then c, then any word.
        Seeded by a child's new cells they grow the parent's table; from no
        table, by every cell, they are every word once; by one state's arcs,
        that state's words."""
        stack = []
        for c in cells:
            for a, w in [(c.src, ()), *((a, w) for (a, b), ws in parent.items()
                                        if b == c.src for w in ws)]:
                if bound is None or len(w) < bound:
                    stack.append((a, c.dst, w + (c.id,)))
        found: dict[tuple[str, str], list[tuple[str, ...]]] = {}
        while stack:
            src, state, word = stack.pop()
            found.setdefault((src, state), []).append(word)
            if bound is None or len(word) < bound:
                for cell in self._arcs[state]:
                    stack.append((src, cell.dst, word + (cell.id,)))
        return found

    def enumerate_carriers(self, src: str, dst: str,
                           max_len: Optional[int] = None) -> list[tuple[str, ...]]:
        """All cell words realizable as carriers of paths src -> dst, in
        sorted order.  ``max_len`` is required when the complex has
        directed cycles.  One :meth:`_grow` from no table, seeded by the
        arcs out of ``src``, reads no table and sorts only the asked pair."""
        self._refuse(max_len, src, dst)
        found = self._grow({}, self._arcs[src], max_len)
        return sorted(found.get((src, dst), ()))


def validate(desc: ComplexDesc) -> Complex:
    """Check every structural invariant and return the usable complex: one
    :meth:`Complex.extend` of the complex with no cells admits the cells in
    order, so the first fault in attachment order raises, in time linear in
    ``desc`` up to one sort of each state's arcs."""
    return Complex(desc.states).extend(*desc.cells)


# ---------------------------------------------------------------------------
# JSON encoding


def expr_to_json(expr: PathExpr) -> dict:
    if isinstance(expr, Step):
        return {"step": {"cell": expr.cell,
                         "z": [format_fraction(v) for v in expr.z],
                         "chi": expr.chi.to_json()}}
    if isinstance(expr, Moore):
        return {"moore": [expr_to_json(expr.left), expr_to_json(expr.right)]}
    if isinstance(expr, NormComp):
        return {"normcomp": [expr_to_json(expr.left), expr_to_json(expr.right)]}
    if isinstance(expr, Repar):
        return {"repar": {"path": expr_to_json(expr.path),
                          "phi": expr.phi.to_json()}}
    if isinstance(expr, NormalPath):
        return expr_to_json(np_to_expr(expr))
    raise BadInputError(f"not a path expression: {expr!r}")


def expr_from_json(data) -> PathExpr:
    if not isinstance(data, dict) or len(data) != 1:
        raise BadInputError(f"malformed path expression: {data!r:.40}")
    kind, body = next(iter(data.items()))
    try:
        if kind == "step":
            return Step(json_str(body["cell"], "step cell"),
                        tuple(map(parse_fraction,
                                  json_list(body["z"], "step point"))),
                        pl_from_json(body["chi"]))
        if kind in ("moore", "normcomp"):
            body = json_list(body, f"{kind} operands")
            if len(body) != 2:
                raise BadInputError(
                    f"{kind} takes two operands, got {len(body)}")
            glue = Moore if kind == "moore" else NormComp
            return glue(expr_from_json(body[0]), expr_from_json(body[1]))
        if kind == "repar":
            return Repar(expr_from_json(body["path"]), pl_from_json(body["phi"]))
    except (KeyError, TypeError) as exc:
        raise BadInputError(f"malformed path expression: {exc}") from exc
    raise BadInputError(f"unknown path expression kind {kind!r:.40}")


def normal_path_to_json(np: NormalPath) -> dict:
    return {
        "from": np.start,
        "to": np.end,
        "segs": [{"cell": s.cell,
                  "z": [format_fraction(v) for v in s.z],
                  "len": format_ratio(*s.chi.pts[-1][:2]),
                  "chi": s.chi.to_json()} for s in np.segs],
    }


def normal_path_from_json(data, cx: Complex) -> NormalPath:
    try:
        segs = []
        for raw in json_list(data["segs"], "path segments"):
            chi = pl_from_json(raw["chi"])
            if "len" in raw and parse_fraction(raw["len"]) != chi.src_len:
                raise BadInputError("segment length disagrees with time law")
            segs.append(Seg(json_str(raw["cell"], "segment cell"),
                            tuple(map(parse_fraction, json_list(
                                raw["z"], "segment point"))),
                            chi))
        np = NormalPath(json_str(data["from"], "path start"),
                        json_str(data["to"], "path end"), tuple(segs))
    except (KeyError, TypeError) as exc:
        raise BadInputError(f"malformed normal path: {exc}") from exc
    return cx.check_normal_path(np)


def cell_to_json(cell: Cell) -> dict:
    out = {"id": cell.id, "dim": cell.disk_dim,
           "from": cell.src, "to": cell.dst}
    if cell.boundary_minus is not None:
        out["boundary_minus"] = expr_to_json(cell.boundary_minus)
    if cell.boundary_plus is not None:
        out["boundary_plus"] = expr_to_json(cell.boundary_plus)
    return out


def cell_from_json(data) -> Cell:
    if not isinstance(data, dict):
        raise BadInputError(f"malformed cell: {data!r:.40}")
    try:
        minus = data.get("boundary_minus")
        plus = data.get("boundary_plus")
        cid = json_str(data["id"], "cell id")
        return Cell(
            id=cid,
            disk_dim=json_int(data["dim"], f"dim of cell {cid}"),
            src=json_str(data["from"], f"from of cell {cid}"),
            dst=json_str(data["to"], f"to of cell {cid}"),
            boundary_minus=expr_from_json(minus) if minus is not None else None,
            boundary_plus=expr_from_json(plus) if plus is not None else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInputError(f"malformed cell: {exc}") from exc


def complex_to_json(desc: ComplexDesc) -> dict:
    return {"states": list(desc.states),
            "cells": [cell_to_json(c) for c in desc.cells]}


def complex_from_json(data) -> ComplexDesc:
    try:
        states = tuple(json_str(s, "state name")
                       for s in json_list(data["states"], "complex states"))
        cells = tuple(map(cell_from_json,
                          json_list(data["cells"], "complex cells")))
    except (KeyError, TypeError) as exc:
        raise BadInputError(f"malformed complex: {exc}") from exc
    return ComplexDesc(states, cells)
