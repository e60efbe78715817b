"""The four workloads: seeded rounds of checked operations.

A workload is built once per set-up (its fixed inputs, validated through
dipath) and then yields rounds; every round holds the same kinds of
operations in the same order, on inputs drawn afresh from
(workload, seed, round).  An ``Op`` pairs the timed program call with a
check that compares the result against ``oracle`` or against a property
the method must have.  ``run`` failing, or a CLI child exiting with the
wrong status, counts the operation as failed; a check that finds a wrong
value raises ``CheckFailed``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import gen
from gen import ONE, ZERO, CellSpec, CxSpec, round_rng
from oracle import (
    acyclic,
    carrier_count,
    chain_kinks,
    expect,
    expect_pl,
    expr_at,
    expr_len,
    grid_hom_classes,
    is_walk,
    nf_times,
    pl_at,
    pl_inv_at,
    sample_points,
    segs_at,
)


class OpFailed(Exception):
    """The program failed the operation (an error, or a wrong exit status)."""


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind: str, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def check_pl_shape(breaks, src, dst) -> None:
    """Canonical form: the right endpoints, strictly increasing, and no
    interior break collinear with its neighbours."""
    expect(breaks[0] == (0, 0) and breaks[-1] == (src, dst),
           f"PL map endpoints {breaks[0]}, {breaks[-1]} != (0,0), ({src},{dst})")
    for (x1, y1), (x2, y2), (x3, y3) in zip(breaks, breaks[1:], breaks[2:]):
        expect(x1 < x2 and y1 < y2, "PL breaks do not increase")
        expect((y2 - y1) * (x3 - x2) != (y3 - y2) * (x2 - x1),
               "PL map keeps a collinear break")


# ---------------------------------------------------------------------------
# pl-long: long PL maps through compose, inverse, decompose/tensor and
# tensor-element normalization

# (breaks, blocks).  Size 16 runs twice so that the median and the 90th
# percentile of a round's latencies fall inside a group of operations of
# like cost, not in the gap between two groups, where noise moves them most.
PL_SIZES = ((16, 4), (16, 4), (32, 16), (64, 32), (128, 64))


def _compose_chain(rp, phi, psi, chi):
    return (rp.compose(rp.compose(phi, psi), chi),
            rp.compose(phi, rp.compose(psi, chi)))


def _check_compose(f, g, h, out):
    r1, r2 = out
    expect(r1 == r2, "compose is not associative")
    check_pl_shape(r1.breaks, f[-1][0], h[-1][1])
    expect_pl(r1.breaks, lambda t: pl_at(h, pl_at(g, pl_at(f, t))),
              chain_kinks([f, g, h]), "composite")


def _inverse_laws(rp, phi):
    inv = rp.inverse(phi)
    return inv, rp.compose(phi, inv), rp.compose(inv, phi)


def _check_inverse(f, out):
    inv, left, right = out
    a, b = f[-1]
    expect(left.breaks == ((0, 0), (a, a)), "phi then phi^-1 is not the identity")
    expect(right.breaks == ((0, 0), (b, b)), "phi^-1 then phi is not the identity")
    check_pl_shape(inv.breaks, b, a)
    expect_pl(inv.breaks, lambda y: pl_inv_at(f, y), [y for _, y in f], "inverse")


def _split_join(rp, phi, lens):
    blocks = rp.decompose(phi, lens)
    return blocks, rp.tensor(*blocks)


def _check_split(f, lens, phi, out):
    blocks, back = out
    expect(back == phi, "tensor(*decompose(phi, lens)) != phi")
    expect(len(blocks) == len(lens), "wrong number of blocks")
    s = ZERO
    for block, ell in zip(blocks, lens):
        fs = pl_at(f, s)
        check_pl_shape(block.breaks, ell, pl_at(f, s + ell) - fs)
        expect_pl(block.breaks, lambda t: pl_at(f, s + t) - fs,
                  [x - s for x, _ in f if s < x < s + ell], f"block at {s}")
        s += ell
    expect_pl(back.breaks, lambda t: pl_at(f, t), [x for x, _ in f], "tensor back")


def _elem_norm(gs, outer, parts):
    return gs.elem_normalize(gs.elem_make(outer, parts))


def _check_elem(outer, twists, out):
    total = outer[-1][0]
    expect(out.outer.breaks == ((0, 0), (total, total)),
           "normalized element keeps a non-identity outer map")
    expect(len(out.factors) == len(twists), "factor count changed")
    cum = ZERO
    cut = ZERO
    for k, (factor, tw) in enumerate(zip(out.factors, twists)):
        expect(factor.label == f"u{k}", "factor labels reordered")
        nxt_cum = cum + tw[-1][0]
        nxt_cut = pl_inv_at(outer, nxt_cum)
        check_pl_shape(factor.twist.breaks, nxt_cut - cut, tw[-1][1])
        kinks = ([x - cut for x, _ in outer if cut < x < nxt_cut]
                 + [pl_inv_at(outer, cum + x) - cut for x, _ in tw])
        expect_pl(factor.twist.breaks, lambda t: pl_at(tw, pl_at(outer, cut + t) - cum),
                  kinks, f"factor {k} twist")
        cum, cut = nxt_cum, nxt_cut


class PLLong:
    name = "pl-long"

    def __init__(self, dp, seed: int, ctx):
        self.dp, self.seed = dp, seed

    def round(self, rnd: int) -> list[Op]:
        dp, rp, gs = self.dp, self.dp.reparam, self.dp.gspace
        rng = round_rng(self.name, self.seed, rnd)
        ops = []
        for n, nblocks in PL_SIZES:
            a, b, c, d = (gen.rand_length(rng) for _ in range(4))
            f = gen.rand_breaks(rng, a, b, n)
            g = gen.rand_breaks(rng, b, c, n)
            h = gen.rand_breaks(rng, c, d, n)
            phi, psi, chi = (gen.to_pl(dp, x) for x in (f, g, h))
            ops.append(Op(f"compose/{n}", partial(_compose_chain, rp, phi, psi, chi),
                          partial(_check_compose, f, g, h)))
            ops.append(Op(f"inverse/{n}", partial(_inverse_laws, rp, phi),
                          partial(_check_inverse, f)))
            lens = gen.partition(rng, a, nblocks)
            ops.append(Op(f"decompose/{n}x{nblocks}", partial(_split_join, rp, phi, lens),
                          partial(_check_split, f, lens, phi)))
            nf = n // 4
            twists = [gen.rand_breaks(rng, gen.rand_length(rng), gen.rand_length(rng), 4)
                      for _ in range(nf)]
            outer = gen.rand_breaks(rng, gen.rand_length(rng),
                                    sum(tw[-1][0] for tw in twists), n)
            parts = [(f"u{k}", gen.to_pl(dp, tw)) for k, tw in enumerate(twists)]
            ops.append(Op(f"elem_normalize/{n}x{nf}",
                          partial(_elem_norm, gs, gen.to_pl(dp, outer), parts),
                          partial(_check_elem, outer, twists)))
        return ops


# ---------------------------------------------------------------------------
# normal-forms: NormComp towers and the concatenation laws on a 12-edge chain

CHAIN_EDGES = 12
# depths 2 and 12 run twice, to put the median and the 90th percentile
# inside a group of like cost (see PL_SIZES)
TOWER_DEPTHS = (2, 2, 4, 6, 8, 10, 12, 12)
ASSOC = ((ZERO, ZERO), (Fraction(1, 4), Fraction(1, 2)),
         (Fraction(1, 2), Fraction(3, 4)), (ONE, ONE))


def _runs(rng, edges, k: int) -> list[list[str]]:
    """Split consecutive edges into k non-empty seeded runs."""
    cuts = sorted(rng.sample(range(1, len(edges)), k - 1))
    pts = [0] + cuts + [len(edges)]
    return [edges[a:b] for a, b in zip(pts, pts[1:])]


def _check_nf(cx, cells, spec, pts, carrier, np):
    """The normal form against the expression, at seeded times and at
    every break of the normal form's time laws."""
    expect(np.total_len == expr_len(spec), "normal form has the wrong length")
    expect(np.carrier() == carrier, f"normal form carrier {np.carrier()}")
    times = nf_times([(s.cell, s.z, s.chi.breaks) for s in np.segs])
    for t in sorted(set(pts) | set(times)):
        expect(cx.eval_path(np, t) == expr_at(cells, spec, t),
               f"normal form disagrees with the expression at t={t}")


def _normalize_pair(cx, lhs, rhs_fn):
    return cx.normalize(lhs), cx.normalize(rhs_fn())


def _check_law(cx, cells, spec, pts, carrier, out):
    left, right = out
    expect(left == right, "the two sides of a law have different normal forms")
    _check_nf(cx, cells, spec, pts, carrier, left)


class NormalForms:
    name = "normal-forms"

    def __init__(self, dp, seed: int, ctx):
        self.dp, self.seed = dp, seed
        self.spec = gen.chain(CHAIN_EDGES)
        self.cells = self.spec.cell_map()
        self.cx = dp.cellcomplex.validate(gen.to_desc(dp, self.spec))

    def round(self, rnd: int) -> list[Op]:
        dp, cx, cells = self.dp, self.cx, self.cells
        cc, rp = dp.cellcomplex, dp.reparam
        rng = round_rng(self.name, self.seed, rnd)
        edges = [c.id for c in self.spec.cells]
        carrier = tuple(edges)
        ops = []
        for depth in TOWER_DEPTHS:
            parts = [gen.unit_run(rng, run) for run in _runs(rng, edges, depth)]
            spec = parts[0]
            for p in parts[1:]:
                spec = ("normcomp", spec, p)
            pts = sample_points(rng, ONE, 6)
            ops.append(Op(f"tower/{depth}", partial(cx.normalize, gen.to_expr(dp, spec)),
                          partial(_check_nf, cx, cells, spec, pts, carrier)))
        a, b, c = (gen.unit_run(rng, run) for run in _runs(rng, edges, 3))
        ea, eb, ec = (gen.to_expr(dp, x) for x in (a, b, c))
        pts = sample_points(rng, ONE, 6)
        laws = []
        # Moore concatenation is strictly associative
        lhs = ("moore", ("moore", a, b), c)
        laws.append(("moore_assoc", lhs,
                     partial(cc.Moore, ea, cc.Moore(eb, ec))))
        # normalized concatenation is associative up to a fixed PL map
        lhs = ("normcomp", ("normcomp", a, b), c)
        laws.append(("normcomp_assoc", lhs,
                     lambda: cc.Repar(cc.NormComp(ea, cc.NormComp(eb, ec)),
                                      gen.to_pl(dp, ASSOC))))
        # normalized concatenation is Moore concatenation rescaled onto [0, 1]
        lhs = ("normcomp", a, b)
        laws.append(("normcomp_moore", lhs,
                     lambda: cc.Repar(cc.Moore(ea, eb),
                                      rp.make_pl(1, 2, [(0, 0), (1, 2)]))))
        # reparametrizations compose contravariantly
        l1, l2 = gen.rand_length(rng), gen.rand_length(rng)
        f = gen.rand_breaks(rng, l1, ONE, rng.randrange(2, 10))
        g = gen.rand_breaks(rng, l2, l1, rng.randrange(2, 10))
        pf, pg = gen.to_pl(dp, f), gen.to_pl(dp, g)
        lhs = ("repar", ("repar", a, f), g)
        laws.append(("repar_functor", lhs,
                     lambda: cc.Repar(ea, rp.compose(pg, pf))))
        # the identity reparametrization changes nothing
        lhs = ("repar", a, gen.rand_breaks(rng, ONE, ONE, 2))
        laws.append(("repar_identity", lhs, lambda: ea))
        for kind, lhs, rhs_fn in laws:
            law_carrier = tuple(e[1] for e in _steps(lhs))
            length = expr_len(lhs)
            law_pts = [t * length for t in pts]
            ops.append(Op(f"law/{kind}",
                          partial(_normalize_pair, cx, gen.to_expr(dp, lhs), rhs_fn),
                          partial(_check_law, cx, cells, lhs, law_pts, law_carrier)))
        return ops


def _steps(spec):
    """The steps of an expression tree, in time order."""
    if spec[0] == "step":
        return [spec]
    if spec[0] in ("moore", "normcomp"):
        return _steps(spec[1]) + _steps(spec[2])
    return _steps(spec[1])


# ---------------------------------------------------------------------------
# grid-counit: counit checks and fundamental categories on grid complexes

# 1x1@2, 1x3@4, 3x1@4 and 3x3@6 run more than once, to put the median and
# the 90th percentile inside a group of like cost (see PL_SIZES)
COUNIT_GRIDS = ((1, 1, 2), (1, 1, 2), (1, 2, 3), (2, 1, 3), (2, 2, 3), (2, 2, 4),
                (1, 3, 4), (3, 1, 4), (1, 3, 4), (3, 1, 4), (2, 3, 5), (3, 2, 5),
                (3, 3, 6), (3, 3, 6), (3, 3, 6), (4, 4, 4))
FUNDCAT_GRIDS = ((2, 2, True), (3, 3, True), (2, 4, True), (4, 4, True),
                 (3, 5, True), (5, 5, True), (2, 2, False), (2, 3, False),
                 (3, 2, False), (3, 3, False), (4, 4, False), (5, 5, False))


def check_counit(spec: CxSpec, bound: int, report: dict) -> None:
    expect(report["ok"] is True, "counit check reports ok = false")
    expect(report["bound"] == bound, "counit report has the wrong bound")
    steps = report["steps"]
    expect(len(steps) == len(spec.cells), "one report per attachment step")
    for k, (step, cell) in enumerate(zip(steps, spec.cells)):
        expect(step["cell"] == cell.id, f"step {k} names cell {step['cell']}")
        expect(step["bijection"] is True, f"no bijection at step {k}")
        expect(step["lhs_carriers"] == step["rhs_carriers"],
               f"carrier lists differ at step {k}")
        expect(len(step["rhs_carriers"]) == carrier_count(spec.prefix(k + 1), bound),
               f"step {k}: {len(step['rhs_carriers'])} carriers, "
               f"M + ... + M^{bound} gives {carrier_count(spec.prefix(k + 1), bound)}")


def check_fundcat(n: int, m: int, filled: bool, homs: dict) -> None:
    want = grid_hom_classes(n, m, filled)
    expect(set(homs) == set(want), "fundamental category has the wrong homs")
    for pair, count in want.items():
        expect(len(homs[pair]) == count,
               f"hom {pair} has {len(homs[pair])} classes, expected {count}")


def _fundcat(mf, cx):
    return mf.fundamental_category(cx).homs


class GridCounit:
    name = "grid-counit"

    def __init__(self, dp, seed: int, ctx):
        self.dp, self.seed = dp, seed

    def round(self, rnd: int) -> list[Op]:
        dp, mf = self.dp, self.dp.mooreflow
        validate = dp.cellcomplex.validate
        rng = round_rng(self.name, self.seed, rnd)
        ops = []
        for n, m, bound in COUNIT_GRIDS:
            spec = gen.grid(rng, n, m)
            cx = validate(gen.to_desc(dp, spec))
            ops.append(Op(f"counit/{n}x{m}@{bound}", partial(mf.counit_check, cx, bound),
                          partial(check_counit, spec, bound)))
        for n, m, filled in FUNDCAT_GRIDS:
            cx = validate(gen.to_desc(dp, gen.grid(rng, n, m, filled)))
            ops.append(Op(f"fundcat/{n}x{m}/{'filled' if filled else 'open'}",
                          partial(_fundcat, mf, cx),
                          partial(check_fundcat, n, m, filled)))
        return ops


# ---------------------------------------------------------------------------
# cli-cold: fresh `python -m dipath` processes, one after another

DEEP = 900


# `python -m dipath`, plus a report of the child's own peak resident set
# on stderr at exit.  VmHWM counts only what the child mapped after exec;
# getrusage would also count the parent's pages the child held before exec.
MODULE_MAIN = """\
import atexit, resource, runpy, sys
def hwm():
    try:
        with open("/proc/self/status") as status:
            kb = next(l.split()[1] for l in status if l.startswith("VmHWM:"))
    except (OSError, StopIteration):
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stderr.write(f"\\nbench-peak-kb {kb}\\n")
atexit.register(hwm)
runpy.run_module("dipath", run_name="__main__", alter_sys=True)
"""


class Child:
    """How CLI children are started: plainly, or under the tracer."""

    def __init__(self, root: Path, workdir: Path, traced: bool):
        self.root, self.workdir, self.traced = root, workdir, traced
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]]
                                   if os.environ.get("PYTHONPATH") else []))
        self.traces: list[dict] = []
        self.calls = 0
        self.peak_kb = 0

    def run(self, argv: list[str]):
        if self.traced:
            out = self.workdir / f"child-{self.calls}.json"
            self.calls += 1
            cmd = [sys.executable, "-X", "importtime",
                   str(self.root / "bench" / "cli_child.py"), str(out), *argv]
        else:
            cmd = [sys.executable, "-c", MODULE_MAIN, *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              cwd=self.workdir, timeout=120)
        wall = time.perf_counter() - t0
        tail = proc.stderr.rsplit("bench-peak-kb ", 1)
        if len(tail) == 2:
            self.peak_kb = max(self.peak_kb, int(tail[1].split()[0]))
        if self.traced:
            self.traces.append({"process_s": wall,
                                "import_s": _import_seconds(proc.stderr),
                                "totals": _read_totals(out)})
        return proc.returncode, proc.stdout


def _import_seconds(stderr: str) -> float:
    """Cumulative import time of the top-level dipath imports, from the
    interpreter's -X importtime report."""
    total = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            continue
        name = parts[2]
        if name.strip() in ("dipath", "dipath.cli") and name == " " + name.strip():
            try:
                total += int(parts[1])
            except ValueError:
                pass
    return total / 1e6


def _read_totals(path: Path):
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    path.unlink()
    return data


def _json_out(expect_status: int, out) -> dict:
    status, stdout = out
    if status != expect_status:
        raise OpFailed(f"exit status {status}, expected {expect_status}")
    try:
        data = json.loads(stdout)
    except ValueError:
        raise OpFailed("stdout is not JSON") from None
    if expect_status == 2 and not isinstance(data.get("error"), str):
        raise OpFailed("exit 2 without an error code")
    return data


def _check_rejected(out):
    _json_out(2, out)


def _check_validate(spec: CxSpec, out):
    data = _json_out(0, out)
    expect(data == {"states": len(spec.states), "cells": len(spec.cells),
                    "loop_free": acyclic(spec)}, f"validate reported {data}")


def _json_segs(data):
    return [(s["cell"], tuple(Fraction(v) for v in s["z"]),
             tuple((Fraction(x), Fraction(y)) for x, y in s["chi"]["breaks"]))
            for s in data["segs"]]


def _check_path(cells: dict, spec, pts, out):
    data = _json_out(0, out)
    segs = _json_segs(data)
    length = expr_len(spec)
    expect(sum(Fraction(s["len"]) for s in data["segs"]) == length,
           "normal form length differs from the expression's")
    for t in sorted({t * length for t in pts} | set(nf_times(segs))):
        expect(segs_at(cells, data["to"], segs, t) == expr_at(cells, spec, t),
               f"normal form disagrees with the expression at t={t}")


def _check_carriers(spec: CxSpec, src, dst, bound, out):
    data = _json_out(0, out)
    words = [tuple(w) for w in data["carriers"]]
    expect(words == sorted(set(words)), "carriers not sorted and distinct")
    expect(all(is_walk(spec, w, src, dst) for w in words), "a carrier is no walk")
    expect(len(words) == carrier_count(spec, bound, src, dst),
           f"{len(words)} carriers, matrix powers give "
           f"{carrier_count(spec, bound, src, dst)}")


def _check_fundcat(n, m, filled, out):
    data = _json_out(0, out)
    homs = {tuple(k.split("→")): v for k, v in data["homs"].items()}
    check_fundcat(n, m, filled, homs)


def _check_pushout(spec: CxSpec, cell: str, bound: int, out):
    data = _json_out(0, out)
    expect(data["bijection"] is True, "pushout check reports no bijection")
    expect(data["lhs_carriers"] == data["rhs_carriers"], "carrier lists differ")
    k = [c.id for c in spec.cells].index(cell)
    expect(len(data["rhs_carriers"]) == carrier_count(spec.prefix(k + 1), bound),
           "pushout carrier count differs from matrix powers")


def _check_counit_cli(spec: CxSpec, bound: int, out):
    check_counit(spec, bound, _json_out(0, out))


def _check_reedy(cells: dict, slots, pts, carrier, out):
    data = _json_out(0, out)
    expect(len(data["entries"]) == 1 and "path" in data["entries"][0],
           "simplified element is not one base path")
    expect(data["triples"] == [[slots[0][1], 0, slots[-1][2]]],
           f"simplified element has triples {data['triples']}")
    path = data["entries"][0]["path"]
    segs = _json_segs(path)
    expect(tuple(s[0] for s in segs) == carrier, "demoted carrier is wrong")
    spec = slots[0][0]
    for s in slots[1:]:
        spec = ("moore", spec, s[0])
    length = expr_len(spec)
    for t in sorted({t * length for t in pts} | set(nf_times(segs))):
        expect(segs_at(cells, path["to"], segs, t) == expr_at(cells, spec, t),
               f"simplified element disagrees with the input at t={t}")


def _unit_segs(rng, word) -> tuple:
    """A chain of steps through the word, each with a seeded time law."""
    spec = None
    for cid in word:
        step = ("step", cid, (), gen.rand_breaks(rng, gen.rand_length(rng), ONE,
                                                 rng.randrange(2, 6)))
        spec = step if spec is None else ("moore", spec, step)
    return spec


def _normal_path_json(cells: dict, spec) -> dict:
    """A Moore chain of edge steps written as the CLI's normal-path JSON."""
    steps = _steps(spec)
    return {"from": cells[steps[0][1]].src, "to": cells[steps[-1][1]].dst,
            "segs": [{"cell": s[1], "z": [], "chi": gen.pl_json(s[3])}
                     for s in steps]}


def reedy_fixture(rng):
    """A square with a globe g plus tails in -> mid -> bot and top -> out;
    the element runs the tails around a pass through g on its boundary."""
    one = ((ZERO, ZERO), (ONE, ONE))
    cells = (CellSpec("w1", 0, "in", "mid"), CellSpec("w2", 0, "mid", "bot"),
             CellSpec("a", 0, "bot", "p"), CellSpec("b", 0, "p", "top"),
             CellSpec("c", 0, "bot", "q"), CellSpec("d", 0, "q", "top"),
             CellSpec("x", 0, "top", "out"))
    globe = CellSpec("g", 1, "bot", "top",
                     ("normcomp", ("step", "a", (), one), ("step", "b", (), one)),
                     ("normcomp", ("step", "c", (), one), ("step", "d", (), one)))
    cx = CxSpec(("in", "mid", "bot", "p", "q", "top", "out"), cells + (globe,))
    z = (Fraction(rng.choice((-1, 1))),)
    chi = gen.rand_breaks(rng, gen.rand_length(rng), ONE, rng.randrange(2, 9))
    slots = [(_unit_segs(rng, ["w1"]), "in", "mid"),
             (_unit_segs(rng, ["w2"]), "mid", "bot"),
             (("step", "g", z, chi), "bot", "top"),
             (_unit_segs(rng, ["x"]), "top", "out")]
    carrier = ("w1", "w2") + (("a", "b") if z[0] < 0 else ("c", "d")) + ("x",)
    cmap = cx.cell_map()
    elem = {"u": "bot", "v": "top",
            "triples": [[a, 1 if s[0] == "step" and s[1] == "g" else 0, b]
                        for s, a, b in slots],
            "entries": []}
    for s, _, _ in slots:
        if s[0] == "step" and s[1] == "g":
            elem["entries"].append({"cellpath": {"z": [gen.q(v) for v in s[2]],
                                                 "chi": gen.pl_json(s[3])}})
        else:
            elem["entries"].append({"path": _normal_path_json(cmap, s)})
    return cx, elem, slots, carrier


def loop_fixture() -> CxSpec:
    """Two states with edges both ways and a self-loop: carriers need a bound."""
    return CxSpec(("a", "b"), (CellSpec("x", 0, "a", "b"), CellSpec("y", 0, "b", "a"),
                               CellSpec("z", 0, "a", "a")))


SEGMENT = CxSpec(("0", "1"), (CellSpec("e", 0, "0", "1"),))
UNIT_STEP = ("step", "e", (), ((ZERO, ZERO), (ONE, ONE)))


class CliCold:
    """One round: ten well-formed calls covering every subcommand except
    selftest, five malformed inputs the CLI rejects with exit 2, and four
    malformed inputs it wrongly accepts or crashes on (fixed, seed-free)."""

    name = "cli-cold"

    def __init__(self, dp, seed: int, ctx):
        self.dp, self.seed, self.child = dp, seed, ctx.child
        self.workdir = ctx.child.workdir
        self.chain = gen.chain(CHAIN_EDGES)

    def _write(self, name: str, data) -> str:
        text = data if isinstance(data, str) else json.dumps(data)
        (self.workdir / name).write_text(text, encoding="utf-8")
        return name

    def _validated(self, spec: CxSpec, name: str) -> str:
        """Write a complex and check that dipath accepts it as generated."""
        data = gen.complex_json(spec)
        cc = self.dp.cellcomplex
        cc.validate(cc.complex_from_json(data))
        return self._write(name, data)

    def _cli(self, kind, argv, check):
        return Op(kind, partial(self.child.run, argv), check)

    def round(self, rnd: int) -> list[Op]:
        rng = round_rng(self.name, self.seed, rnd)
        cc = self.dp.cellcomplex
        ops = []
        chain_cells = self.chain.cell_map()
        chain_file = self._validated(self.chain, "chain.json")
        edges = [c.id for c in self.chain.cells]
        pts = sample_points(rng, ONE, 4)

        grid = gen.grid(rng, 3, 3)
        grid_file = self._validated(grid, "grid.json")
        ops.append(self._cli("validate", ["validate", grid_file],
                             partial(_check_validate, grid)))
        loops = loop_fixture()
        loop_file = self._validated(loops, "loops.json")
        ops.append(self._cli("validate/loops", ["validate", loop_file],
                             partial(_check_validate, loops)))

        # a tower of long PL maps, rescaled by a long PL map
        parts = [gen.unit_run(rng, run, 32) for run in _runs(rng, edges, 8)]
        tower = parts[0]
        for p in parts[1:]:
            tower = ("normcomp", tower, p)
        tower = ("repar", tower, gen.rand_breaks(rng, gen.rand_length(rng), ONE, 64))
        cc.expr_from_json(gen.expr_json(tower))
        ops.append(self._cli("normalize", ["normalize", chain_file,
                                           self._write("tower.json", gen.expr_json(tower))],
                             partial(_check_path, chain_cells, tower, pts)))
        left, right = (gen.unit_run(rng, run, 64) for run in _runs(rng, edges, 2))
        lfile = self._write("left.json", gen.expr_json(left))
        rfile = self._write("right.json", gen.expr_json(right))
        ops.append(self._cli("compose", ["compose", chain_file, lfile, rfile],
                             partial(_check_path, chain_cells, ("moore", left, right), pts)))
        ops.append(self._cli("compose/normalized",
                             ["compose", chain_file, lfile, rfile, "--normalized"],
                             partial(_check_path, chain_cells,
                                     ("normcomp", left, right), pts)))

        ops.append(self._cli("carriers", ["carriers", grid_file, "--from", "s0_0",
                                          "--to", "s3_3", "--bound", "6"],
                             partial(_check_carriers, grid, "s0_0", "s3_3", 6)))
        ops.append(self._cli("carriers/loops", ["carriers", loop_file, "--from", "a",
                                                "--to", "b", "--bound", "9"],
                             partial(_check_carriers, loops, "a", "b", 9)))
        open_grid = gen.grid(rng, 3, 4, filled=False)
        ops.append(self._cli("fundcat", ["fundcat", self._validated(open_grid, "open.json")],
                             partial(_check_fundcat, 3, 4, False)))

        square, elem, slots, carrier = reedy_fixture(rng)
        ops.append(self._cli("reedy-normalize",
                             ["reedy-normalize", self._validated(square, "square.json"),
                              self._write("elem.json", elem), "--cell", "g"],
                             partial(_check_reedy, square.cell_map(), slots, pts, carrier)))
        last_globe = [c.id for c in grid.cells][-1]
        ops.append(self._cli("pushout-check",
                             ["pushout-check", grid_file, "--cell", last_globe, "--bound", "5"],
                             partial(_check_pushout, grid, last_globe, 5)))
        small = gen.grid(rng, 2, 2)
        ops.append(self._cli("counit-check",
                             ["counit-check", self._validated(small, "small.json"),
                              "--bound", "4"],
                             partial(_check_counit_cli, small, 4)))

        # malformed inputs the CLI rejects with exit 2
        seg_file = self._validated(SEGMENT, "segment.json")
        bad = gen.expr_json(left)
        breaks = bad["repar"]["phi"]["breaks"]
        k = rng.randrange(0, len(breaks) - 1)
        breaks[k], breaks[k + 1] = breaks[k + 1], breaks[k]
        ops.append(self._cli("bad/pl_order",
                             ["normalize", chain_file, self._write("bad1.json", bad)],
                             _check_rejected))
        fwd = gen.complex_json(small)
        fwd["cells"].reverse()
        ops.append(self._cli("bad/forward_reference",
                             ["validate", self._write("bad2.json", fwd)], _check_rejected))
        stray = gen.expr_json(("step", f"nope{rng.randrange(100)}", (),
                               ((ZERO, ZERO), (ONE, ONE))))
        ops.append(self._cli("bad/unknown_cell",
                             ["normalize", chain_file, self._write("bad3.json", stray)],
                             _check_rejected))
        text = json.dumps(gen.expr_json(right))
        ops.append(self._cli("bad/truncated_json",
                             ["compose", chain_file, lfile,
                              self._write("bad4.json", text[:rng.randrange(1, len(text))])],
                             _check_rejected))
        ops.append(self._cli("bad/unknown_cell_flag",
                             ["pushout-check", grid_file, "--cell", "nope", "--bound", "3"],
                             _check_rejected))

        # malformed inputs the CLI mishandles today: fixed, seed-free
        step = json.dumps(gen.expr_json(UNIT_STEP))
        deep = '{"moore": [' * DEEP + step + (", " + step + "]}") * DEEP
        ops.append(self._cli("fault/deep_json",
                             ["normalize", seg_file, self._write("deep.json", deep)],
                             _check_rejected))
        frac_dim = gen.complex_json(SEGMENT)
        frac_dim["cells"][0]["dim"] = 0.7
        ops.append(self._cli("fault/fractional_dim",
                             ["validate", self._write("dim.json", frac_dim)],
                             _check_rejected))
        str_states = gen.complex_json(SEGMENT)
        str_states["states"] = "01"
        ops.append(self._cli("fault/string_states",
                             ["validate", self._write("states.json", str_states)],
                             _check_rejected))
        ops.append(self._cli("fault/negative_bound",
                             ["carriers", seg_file, "--from", "0", "--to", "1",
                              "--bound", "-3"], _check_rejected))
        return ops


WORKLOADS = {w.name: w for w in (PLLong, NormalForms, GridCounit, CliCold)}
