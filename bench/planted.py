"""Plant one wrong answer into each of the benchmark's checks.

usage: python3 bench/planted.py

For every check the workloads use, runs one real operation from round 0
of seed 0, confirms that the check accepts the program's answer, then
hands the check a wrong answer and confirms that it rejects it.  Exits 0
when every planted answer is caught, 1 otherwise.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import sys
from fractions import Fraction
from types import SimpleNamespace

import run
from oracle import CheckFailed
from workloads import WORKLOADS, Child, OpFailed


def bend_breaks(breaks):
    """The same endpoints, one break moved (or one added) off the line."""
    b = list(breaks)
    if len(b) == 2:
        (x0, y0), (x1, y1) = b
        b.insert(1, ((x0 + x1) / 2, y0 + (y1 - y0) / 3))
    else:
        i = len(b) // 2
        b[i] = (b[i][0], (b[i - 1][1] + b[i][1]) / 2)
    return b


def bend(dp, phi):
    b = bend_breaks(phi.breaks)
    return dp.reparam.make_pl(b[-1][0], b[-1][1], b)


def bend_json(chi: dict) -> None:
    b = bend_breaks([(Fraction(x), Fraction(y)) for x, y in chi["breaks"]])
    chi["breaks"] = [[str(x), str(y)] for x, y in b]


def bend_nf(dp, np):
    seg = np.segs[0]
    segs = (dataclasses.replace(seg, chi=bend(dp, seg.chi)),) + np.segs[1:]
    return dataclasses.replace(np, segs=segs)


def edit_stdout(edit):
    """A planted CLI answer: the child's JSON with one edit applied."""
    def plant(dp, out):
        status, stdout = out
        data = json.loads(stdout)
        edit(data)
        return status, json.dumps(data)
    return plant


def drop_last_carrier(step: dict) -> None:
    step["lhs_carriers"].pop()
    step["rhs_carriers"].pop()


def extra_class(homs: dict) -> dict:
    homs = dict(homs)
    key = sorted(homs)[-1]
    homs[key] = tuple(homs[key]) + (("planted",),)
    return homs


def plant_elem(dp, out):
    factor = out.factors[0]
    factors = (dataclasses.replace(factor, twist=bend(dp, factor.twist)),) + out.factors[1:]
    return dataclasses.replace(out, factors=factors)


def plant_split(dp, out):
    blocks, back = out
    return blocks[:1] + (bend(dp, blocks[1]),) + blocks[2:], back


def plant_counit(dp, report):
    report = copy.deepcopy(report)
    drop_last_carrier(report["steps"][-1])
    return report


def _json_path_segs(data):
    bend_json(data["segs"][0]["chi"])


CASES = {
    "pl-long": [
        ("compose/64", lambda dp, out: (bend(dp, out[0]),) * 2),
        ("inverse/64", lambda dp, out: (bend(dp, out[0]),) + out[1:]),
        ("decompose/64x32", plant_split),
        ("elem_normalize/64x16", plant_elem),
    ],
    "normal-forms": [
        ("tower/8", bend_nf),
        ("law/normcomp_assoc", lambda dp, out: (bend_nf(dp, out[0]),) * 2),
    ],
    "grid-counit": [
        ("counit/2x2@4", plant_counit),
        ("fundcat/3x3/open", lambda dp, homs: extra_class(homs)),
    ],
    "cli-cold": [
        ("validate", edit_stdout(lambda d: d.update(cells=d["cells"] + 1))),
        ("normalize", edit_stdout(_json_path_segs)),
        ("carriers", edit_stdout(lambda d: d["carriers"].pop())),
        ("fundcat", edit_stdout(
            lambda d: d["homs"][sorted(d["homs"])[-1]].append(["planted"]))),
        ("reedy-normalize", edit_stdout(
            lambda d: _json_path_segs(d["entries"][0]["path"]))),
        ("pushout-check", edit_stdout(drop_last_carrier)),
        ("counit-check", edit_stdout(lambda d: drop_last_carrier(d["steps"][-1]))),
        ("bad/unknown_cell", lambda dp, out: (0, '{"cells": 1}')),
    ],
}


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    dp = run.load_dipath()
    workdir = run.OUT / "planted"
    workdir.mkdir(parents=True, exist_ok=True)
    missed = 0
    try:
        for name, cases in CASES.items():
            ctx = SimpleNamespace(child=Child(run.ROOT, workdir, False))
            ops = {op.kind: op for op in WORKLOADS[name](dp, 0, ctx).round(0)}
            for kind, plant in cases:
                op = ops[kind]
                out = op.run()
                op.check(out)
                try:
                    op.check(plant(dp, out))
                except (CheckFailed, OpFailed) as exc:
                    print(f"caught  {name} {kind}: {type(exc).__name__}: {exc}")
                else:
                    missed += 1
                    print(f"MISSED  {name} {kind}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{missed} planted answers missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
