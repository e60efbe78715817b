"""Seeded input generators of the benchmark's own.

Inputs are plain data: a PL map is a tuple of (x, y) Fraction breaks, a
path expression is a tuple tree ("step", cell, z, chi) / ("moore", l, r) /
("normcomp", l, r) / ("repar", path, phi), and a complex is a ``CxSpec``.
``to_pl``, ``to_expr`` and ``to_desc`` hand them to dipath through its
public constructors; ``*_json`` write the CLI's JSON format.  Nothing here
uses ``dipath.sampling`` or ``dipath.selfcheck``, so a change to those
modules cannot change a workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

ONE = Fraction(1)
ZERO = Fraction(0)


def round_rng(workload: str, seed: int, rnd: int) -> random.Random:
    """The generator of one round; string seeding does not depend on the
    interpreter's hash seed."""
    return random.Random(f"{workload}:{seed}:{rnd}")


# ---------------------------------------------------------------------------
# PL break lists


def rand_length(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(1, 25), rng.choice((1, 2, 3, 4, 6)))


def rand_breaks(rng: random.Random, src, dst, n: int) -> tuple:
    """A strictly increasing PL map [0, src] -> [0, dst] with n breaks,
    endpoints included."""
    src, dst = Fraction(src), Fraction(dst)
    k = n - 2
    grid = 4 * k + 4
    xs = sorted(rng.sample(range(1, grid), k))
    ys = sorted(rng.sample(range(1, grid), k))
    inner = tuple((src * Fraction(x, grid), dst * Fraction(y, grid))
                  for x, y in zip(xs, ys))
    return ((ZERO, ZERO),) + inner + ((src, dst),)


def partition(rng: random.Random, total, parts: int) -> list[Fraction]:
    """Split a positive length into strictly positive rational parts."""
    grid = 8 * parts
    cuts = sorted(rng.sample(range(1, grid), parts - 1))
    pts = [0] + cuts + [grid]
    return [Fraction(total) * Fraction(b - a, grid) for a, b in zip(pts, pts[1:])]


# ---------------------------------------------------------------------------
# complexes


@dataclass(frozen=True)
class CellSpec:
    id: str
    dim: int
    src: str
    dst: str
    minus: Optional[tuple] = None
    plus: Optional[tuple] = None


@dataclass(frozen=True)
class CxSpec:
    states: tuple
    cells: tuple

    def cell_map(self) -> dict:
        return {c.id: c for c in self.cells}

    def prefix(self, k: int) -> "CxSpec":
        return CxSpec(self.states, self.cells[:k])


def chain(p: int) -> CxSpec:
    """States c0..cp and edges e1..ep, c(i-1) -> ci."""
    return CxSpec(tuple(f"c{i}" for i in range(p + 1)),
                  tuple(CellSpec(f"e{i}", 0, f"c{i-1}", f"c{i}")
                        for i in range(1, p + 1)))


def unit_run(rng: random.Random, edges, max_segments: int = 8) -> tuple:
    """A length-one path through consecutive edges: a Moore chain of steps
    with seeded time laws, rescaled onto [0, 1] by a seeded PL map."""
    body = None
    total = ZERO
    for e in edges:
        ell = rand_length(rng)
        step = ("step", e, (), rand_breaks(rng, ell, ONE,
                                           rng.randrange(2, max_segments + 2)))
        body = step if body is None else ("moore", body, step)
        total += ell
    return ("repar", body, rand_breaks(rng, ONE, total,
                                       rng.randrange(2, max_segments + 2)))


def _square_side(rng: random.Random, first: str, second: str) -> tuple:
    """A length-one boundary through two edges, in one of two seeded forms."""
    if rng.random() < 0.5:
        return ("normcomp",
                ("step", first, (), rand_breaks(rng, ONE, ONE, rng.randrange(2, 5))),
                ("step", second, (), rand_breaks(rng, ONE, ONE, rng.randrange(2, 5))))
    l1, l2 = rand_length(rng), rand_length(rng)
    body = ("moore",
            ("step", first, (), rand_breaks(rng, l1, ONE, rng.randrange(2, 5))),
            ("step", second, (), rand_breaks(rng, l2, ONE, rng.randrange(2, 5))))
    return ("repar", body, rand_breaks(rng, ONE, l1 + l2, rng.randrange(2, 5)))


def grid(rng: random.Random, n: int, m: int, filled: bool = True) -> CxSpec:
    """The n x m grid: states s{i}_{j}, edges h{i}_{j}: s{i}_{j} -> s{i}_{j+1}
    and v{i}_{j}: s{i}_{j} -> s{i+1}_{j}, and, when filled, one globe
    g{i}_{j} per square.  Edges come first, then the globes, both in
    row-major order: the cost of a counit check swings by a fifth with the
    attachment order, so the order is fixed and the seed picks each globe's
    boundary forms, their time laws and which one is the lower boundary."""
    states = tuple(f"s{i}_{j}" for i in range(n + 1) for j in range(m + 1))
    edges = []
    for i in range(n + 1):
        for j in range(m + 1):
            if j < m:
                edges.append(CellSpec(f"h{i}_{j}", 0, f"s{i}_{j}", f"s{i}_{j+1}"))
            if i < n:
                edges.append(CellSpec(f"v{i}_{j}", 0, f"s{i}_{j}", f"s{i+1}_{j}"))
    globes = []
    if filled:
        for i in range(n):
            for j in range(m):
                right = _square_side(rng, f"h{i}_{j}", f"v{i}_{j+1}")
                up = _square_side(rng, f"v{i}_{j}", f"h{i+1}_{j}")
                minus, plus = (right, up) if rng.random() < 0.5 else (up, right)
                globes.append(CellSpec(f"g{i}_{j}", 1, f"s{i}_{j}",
                                       f"s{i+1}_{j+1}", minus, plus))
    return CxSpec(states, tuple(edges + globes))


# ---------------------------------------------------------------------------
# handing specs to dipath


def to_pl(dp, breaks):
    return dp.reparam.make_pl(breaks[-1][0], breaks[-1][1], breaks)


def to_expr(dp, spec):
    cc = dp.cellcomplex
    kind = spec[0]
    if kind == "step":
        return cc.Step(spec[1], tuple(spec[2]), to_pl(dp, spec[3]))
    if kind == "moore":
        return cc.Moore(to_expr(dp, spec[1]), to_expr(dp, spec[2]))
    if kind == "normcomp":
        return cc.NormComp(to_expr(dp, spec[1]), to_expr(dp, spec[2]))
    return cc.Repar(to_expr(dp, spec[1]), to_pl(dp, spec[2]))


def to_desc(dp, cx: CxSpec):
    cc = dp.cellcomplex
    cells = tuple(
        cc.Cell(c.id, c.dim, c.src, c.dst,
                boundary_minus=None if c.minus is None else to_expr(dp, c.minus),
                boundary_plus=None if c.plus is None else to_expr(dp, c.plus))
        for c in cx.cells)
    return cc.ComplexDesc(cx.states, cells)


# ---------------------------------------------------------------------------
# the CLI's JSON format


def q(x) -> str:
    return str(Fraction(x))


def pl_json(breaks) -> dict:
    return {"src": q(breaks[-1][0]), "dst": q(breaks[-1][1]),
            "breaks": [[q(x), q(y)] for x, y in breaks]}


def expr_json(spec) -> dict:
    kind = spec[0]
    if kind == "step":
        return {"step": {"cell": spec[1], "z": [q(v) for v in spec[2]],
                         "chi": pl_json(spec[3])}}
    if kind in ("moore", "normcomp"):
        return {kind: [expr_json(spec[1]), expr_json(spec[2])]}
    return {"repar": {"path": expr_json(spec[1]), "phi": pl_json(spec[2])}}


def complex_json(cx: CxSpec) -> dict:
    cells = []
    for c in cx.cells:
        out = {"id": c.id, "dim": c.dim, "from": c.src, "to": c.dst}
        if c.minus is not None:
            out["boundary_minus"] = expr_json(c.minus)
            out["boundary_plus"] = expr_json(c.plus)
        cells.append(out)
    return {"states": list(cx.states), "cells": cells}
