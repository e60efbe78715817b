"""Reference computations written apart from the program.

Everything here works on the benchmark's own plain data (break lists and
expression trees from ``gen``), never on dipath objects, so a fault in the
program cannot hide in its own check.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import comb

from gen import CxSpec


class CheckFailed(Exception):
    """The program returned a wrong answer."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# PL maps as raw break lists ((x0, y0), ..., (xn, yn))


class PL:
    """A PL map with its abscissas and ordinates split out for bisection."""

    def __init__(self, breaks):
        self.xs = [x for x, _ in breaks]
        self.ys = [y for _, y in breaks]

    @staticmethod
    def _interp(xs, ys, t):
        if not 0 <= t <= xs[-1]:
            raise ValueError(f"{t} outside [0, {xs[-1]}]")
        i = bisect_left(xs, t)
        if xs[i] == t:
            return ys[i]
        x1, x2, y1, y2 = xs[i - 1], xs[i], ys[i - 1], ys[i]
        return y1 + (y2 - y1) * (t - x1) / (x2 - x1)

    def at(self, t) -> Fraction:
        return self._interp(self.xs, self.ys, t)

    def inv(self, y) -> Fraction:
        return self._interp(self.ys, self.xs, y)


_built: dict = {}


def _pl(breaks) -> PL:
    """The PL of a break tuple, built once per tuple object while it is
    among the last 64 seen.  Entries hold the tuple itself, so its id
    cannot be reused while it is cached."""
    hit = _built.get(id(breaks))
    if hit is not None and hit[0] is breaks:
        return hit[1]
    if len(_built) >= 64:
        _built.clear()
    pl = PL(breaks)
    _built[id(breaks)] = (breaks, pl)
    return pl


def pl_at(breaks, t) -> Fraction:
    """Value of the PL map given by its break tuple at t."""
    return _pl(breaks).at(t)


def pl_inv_at(breaks, y) -> Fraction:
    return _pl(breaks).inv(y)


def chain_kinks(maps) -> set:
    """Every abscissa, in the domain of maps[0], where the composite
    maps[0] then maps[1] then ... may bend: each map's break abscissas
    pulled back through the maps before it."""
    out = set()
    for k, m in enumerate(maps):
        for x, _ in m:
            for prev in reversed(maps[:k]):
                x = pl_inv_at(prev, x)
            out.add(x)
    return out


def expect_pl(breaks, fn, kinks, what: str) -> None:
    """Exact equality of a PL map with fn, a PL function whose bends lie in
    kinks: two PL maps agree everywhere once they agree on the union of
    their break abscissas."""
    for t in sorted({x for x, _ in breaks} | set(kinks)):
        expect(pl_at(breaks, t) == fn(t), f"{what} wrong at t={t}")


def nf_times(segs) -> list[Fraction]:
    """Every break time of a normal form given as (cell, z, chi breaks)."""
    out = []
    acc = Fraction(0)
    for _, _, chi in segs:
        out.extend(acc + x for x, _ in chi)
        acc += chi[-1][0]
    return out


def sample_points(rng, length, k: int) -> list[Fraction]:
    """Both ends plus k seeded rational points strictly inside (0, length)."""
    inner = [length * Fraction(rng.randrange(1, 997), 997) for _ in range(k)]
    return [Fraction(0)] + inner + [Fraction(length)]


# ---------------------------------------------------------------------------
# path expressions: pointwise semantics by structural recursion


def expr_len(spec) -> Fraction:
    kind = spec[0]
    if kind == "step":
        return spec[3][-1][0]
    if kind == "moore":
        return expr_len(spec[1]) + expr_len(spec[2])
    if kind == "normcomp":
        return Fraction(1)
    return spec[2][-1][0]


def expr_at(cells: dict, spec, t):
    """The state at a junction time, else (cell, z, time in the cell)."""
    kind = spec[0]
    if kind == "step":
        _, cid, z, chi = spec
        cell = cells[cid]
        s = pl_at(chi, t)
        if cell.dim == 1 and abs(z[0]) == 1:
            side = cell.minus if z[0] < 0 else cell.plus
            return expr_at(cells, side, s)
        if s == 0:
            return cell.src
        if s == 1:
            return cell.dst
        return (cid, tuple(z), s)
    if kind == "moore":
        left = expr_len(spec[1])
        if t <= left:
            return expr_at(cells, spec[1], t)
        return expr_at(cells, spec[2], t - left)
    if kind == "normcomp":
        if t <= Fraction(1, 2):
            return expr_at(cells, spec[1], 2 * t)
        return expr_at(cells, spec[2], 2 * t - 1)
    return expr_at(cells, spec[1], pl_at(spec[2], t))


def segs_at(cells: dict, end: str, segs, t):
    """Pointwise value of a normal form given as (cell, z, chi breaks)."""
    acc = Fraction(0)
    for cid, z, chi in segs:
        if t == acc:
            return cells[cid].src
        length = chi[-1][0]
        if t < acc + length:
            return (cid, tuple(z), pl_at(chi, t - acc))
        acc += length
    return end


# ---------------------------------------------------------------------------
# carriers and fundamental categories of a complex


def carrier_count(cx: CxSpec, bound: int, src=None, dst=None) -> int:
    """Number of cell words of length 1..bound: the sum of the entries of
    M + M^2 + ... + M^bound, M the cell-count matrix of the state graph.
    With src and dst, only the (src, dst) entry."""
    index = {s: i for i, s in enumerate(cx.states)}
    arcs = [(index[c.src], index[c.dst]) for c in cx.cells]
    n = len(cx.states)
    # row vector of walk counts from the chosen sources, one power at a time
    vec = [1] * n if src is None else [int(i == index[src]) for i in range(n)]
    total = 0
    for _ in range(bound):
        nxt = [0] * n
        for a, b in arcs:
            nxt[b] += vec[a]
        vec = nxt
        total += sum(vec) if dst is None else vec[index[dst]]
    return total


def is_walk(cx: CxSpec, word, src: str, dst: str) -> bool:
    ends = {c.id: (c.src, c.dst) for c in cx.cells}
    state = src
    for cid in word:
        if cid not in ends or ends[cid][0] != state:
            return False
        state = ends[cid][1]
    return bool(word) and state == dst


def grid_hom_classes(n: int, m: int, filled: bool) -> dict:
    """Expected class count of every non-empty hom of an n x m grid: one
    when every square is filled, else the number of monotone lattice
    paths C((k-i)+(l-j), k-i)."""
    out = {}
    for i in range(n + 1):
        for j in range(m + 1):
            for k in range(i, n + 1):
                for l in range(j, m + 1):
                    if (k, l) != (i, j):
                        out[(f"s{i}_{j}", f"s{k}_{l}")] = (
                            1 if filled else comb((k - i) + (l - j), k - i))
    return out


def acyclic(cx: CxSpec) -> bool:
    out = {s: [] for s in cx.states}
    indeg = {s: 0 for s in cx.states}
    for c in cx.cells:
        out[c.src].append(c.dst)
        indeg[c.dst] += 1
    queue = [s for s in cx.states if indeg[s] == 0]
    seen = 0
    while queue:
        s = queue.pop()
        seen += 1
        for t in out[s]:
            indeg[t] -= 1
            if indeg[t] == 0:
                queue.append(t)
    return seen == len(cx.states)
