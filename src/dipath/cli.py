"""Batch front end: ingest JSON complexes and paths, emit reports.

Output is deterministic for identical inputs: canonical orderings
everywhere, rationals in lowest terms, JSON keys sorted.  Exit status is 0
on success, 1 when a verification fails (for example a pushout carrier
mismatch), and 2 on malformed input or when a soundness guard fires
(reported as ``engine_error``).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import accumulate

from .cellcomplex import (
    Complex,
    Moore,
    NormComp,
    complex_from_json,
    expr_from_json,
    normal_path_to_json,
    validate,
)
from .errors import BadInputError, EngineError, UnknownCellError
from .mooreflow import counit_check, fundamental_category
from .reedy import elem_from_json, elem_to_json, normalize_elem, pushout_check


MAX_DEPTH = 850  # JSON levels of arrays and objects, counted before decoding
# all but the brackets outside strings: whole strings, other runs, a stray "
_NOT_BRACKET = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|[^][{}"]+|"',
                          re.DOTALL)


def _load_json(path: str):
    """Decode one input file.  Its nesting is measured on the text, strings
    skipped, so the limit is dipath's on every interpreter: neither the
    decoder nor the recursive readers and normalizers see deeper input."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        brackets = _NOT_BRACKET.sub("", text)
        if max(accumulate(1 if b in "[{" else -1 for b in brackets),
               default=0) > MAX_DEPTH:
            raise BadInputError(f"{path} nests deeper than {MAX_DEPTH} levels")
        return json.loads(text)
    except OSError as exc:
        raise BadInputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, not JSON, or past the digit limit
        raise BadInputError(f"{path} is not valid JSON: {exc}") from exc


def _load_complex(path: str):
    return validate(complex_from_json(_load_json(path)))


def _split_at_cell(path: str, cell_id: str):
    """The base complex before the named cell, plus the cell itself.  The
    whole complex is validated as by :func:`_load_complex`, in its order:
    the base's cells are admitted first and then the rest on top of them,
    so an unknown cell is reported only once every cell has passed."""
    desc = complex_from_json(_load_json(path))
    ids = [c.id for c in desc.cells]
    index = ids.index(cell_id) if cell_id in ids else len(ids)
    base = Complex(desc.states).extend(*desc.cells[:index])
    base.extend(*desc.cells[index:])
    if index == len(ids):
        raise UnknownCellError(f"unknown cell {cell_id!s:.40}")
    return base, desc.cells[index]


def _render_text(value, indent=0) -> list[str]:
    pad = "  " * indent
    if isinstance(value, dict):
        items = [(f"{key}:", value[key]) for key in sorted(value)]
    elif isinstance(value, (list, tuple)):
        items = [("-", inner) for inner in value]
    else:
        return [f"{pad}{json.dumps(value)}"]
    lines = []
    for head, inner in items:
        if isinstance(inner, (dict, list, tuple)):
            lines.append(f"{pad}{head}")
            lines.extend(_render_text(inner, indent + 1))
        else:
            lines.append(f"{pad}{head} {json.dumps(inner)}")
    return lines


def _emit(report: dict, fmt: str) -> None:
    if fmt == "text":
        sys.stdout.write("\n".join(_render_text(report)) + "\n")
    else:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> tuple[dict, int]:
    cx = _load_complex(args.complex)
    return {"states": len(cx.states),
            "cells": len(cx.desc.cells),
            "loop_free": cx.loop_free}, 0


def _cmd_normalize(args) -> tuple[dict, int]:
    cx = _load_complex(args.complex)
    expr = expr_from_json(_load_json(args.path))
    return normal_path_to_json(cx.normalize(expr)), 0


def _cmd_compose(args) -> tuple[dict, int]:
    cx = _load_complex(args.complex)
    left = expr_from_json(_load_json(args.left))
    right = expr_from_json(_load_json(args.right))
    glue = NormComp if args.normalized else Moore
    return normal_path_to_json(cx.normalize(glue(left, right))), 0


def _cmd_carriers(args) -> tuple[dict, int]:
    cx = _load_complex(args.complex)
    words = cx.enumerate_carriers(args.src, args.dst, args.bound)
    return {"from": args.src, "to": args.dst, "bound": args.bound,
            "carriers": words}, 0


def _cmd_fundcat(args) -> tuple[dict, int]:
    cx = _load_complex(args.complex)
    return fundamental_category(cx).to_json(), 0


def _cmd_reedy_normalize(args) -> tuple[dict, int]:
    base, cell = _split_at_cell(args.complex, args.cell)
    elem = elem_from_json(_load_json(args.elem), base)
    return elem_to_json(normalize_elem(elem, base, cell)), 0


def _cmd_pushout_check(args) -> tuple[dict, int]:
    base, cell = _split_at_cell(args.complex, args.cell)
    report = pushout_check(base, cell, args.bound)
    return report, 0 if report["bijection"] else 1


def _cmd_counit_check(args) -> tuple[dict, int]:
    cx = _load_complex(args.complex)
    report = counit_check(cx, args.bound)
    return report, 0 if report["ok"] else 1


def _cmd_selftest(args) -> tuple[dict, int]:
    from .selfcheck import selftest_report  # the samplers load only here
    report = selftest_report(args.seed, args.scale)
    return report, 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dipath",
        description="Exact directed path algebra on cellular complexes.")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a complex description")
    p.add_argument("complex")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("normalize", help="normal form of a path expression")
    p.add_argument("complex")
    p.add_argument("path")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("compose", help="concatenate two path expressions")
    p.add_argument("complex")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--normalized", action="store_true",
                   help="use the length-one normalized concatenation")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("carriers", help="enumerate carriers between states")
    p.add_argument("complex")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(func=_cmd_carriers)

    p = sub.add_parser("fundcat", help="fundamental category presentation")
    p.add_argument("complex")
    p.set_defaults(func=_cmd_fundcat)

    p = sub.add_parser("reedy-normalize",
                       help="simplify a diagram element at one cell")
    p.add_argument("complex")
    p.add_argument("elem")
    p.add_argument("--cell", required=True)
    p.set_defaults(func=_cmd_reedy_normalize)

    p = sub.add_parser("pushout-check",
                       help="carrier bijection at one attachment step")
    p.add_argument("complex")
    p.add_argument("--cell", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_pushout_check)

    p = sub.add_parser("counit-check",
                       help="carrier bijections at every attachment step")
    p.add_argument("complex")
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_counit_check)

    p = sub.add_parser("selftest", help="run the sampled invariant suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=int, default=1)
    p.set_defaults(func=_cmd_selftest)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, status = args.func(args)
    except EngineError as exc:
        _emit({"error": exc.code, "detail": exc.detail}, args.format)
        return 2
    _emit(report, args.format)
    return status


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
