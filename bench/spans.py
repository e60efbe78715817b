"""Span tracing of dipath's public functions, installed from outside.

``Tracer.install`` wraps each function named in ``TRACED`` and rebinds the
wrapper in every ``dipath`` module that imported the function by name, so
calls between layers are seen too.  Methods are wrapped on their class.
Spans (name, parent, start, end) are kept in flat arrays and written out
when the run ends; self time is a span's duration minus the time its child
spans cover.  A wrapper records nothing unless a root span is open, so
calls the benchmark makes while it builds inputs or checks outputs stay out
of the figures.  Counters sit at the same boundaries.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

# (layer, module, attribute or Class.method, metric name)
TRACED = [
    ("reparam", "reparam", "compose", "compose"),
    ("reparam", "reparam", "decompose", "decompose"),
    ("reparam", "reparam", "inverse", "inverse"),
    ("reparam", "reparam", "tensor", "tensor"),
    ("reparam", "reparam", "make_pl", "make_pl"),
    ("reparam", "reparam", "mu", "mu"),
    ("reparam", "reparam", "pl_eval", "pl_eval"),
    ("reparam", "reparam", "pl_eval_inv", "pl_eval_inv"),
    ("gspace", "gspace", "elem_normalize", "elem_normalize"),
    ("cellcomplex", "cellcomplex", "validate", "validate"),
    ("cellcomplex", "cellcomplex", "Complex.normalize", "normalize"),
    ("cellcomplex", "cellcomplex", "repar_normal", "repar_normal"),
    ("cellcomplex", "cellcomplex", "Complex.enumerate_carriers",
     "enumerate_carriers"),
    ("cellcomplex", "cellcomplex", "Complex.check_normal_path",
     "check_normal_path"),
    ("cellcomplex", "cellcomplex", "complex_from_json", "complex_from_json"),
    ("cellcomplex", "cellcomplex", "expr_from_json", "expr_from_json"),
    ("cellcomplex", "cellcomplex", "normal_path_to_json",
     "normal_path_to_json"),
    ("reedy", "reedy", "pushout_check", "pushout_check"),
    ("reedy", "reedy", "pushout_complex", "pushout_complex"),
    ("reedy", "reedy", "realize", "realize"),
    ("reedy", "reedy", "normalize_elem", "normalize_elem"),
    ("reedy", "reedy", "make_elem", "make_elem"),
    ("mooreflow", "mooreflow", "counit_check", "counit_check"),
    ("mooreflow", "mooreflow", "fundamental_category", "fundamental_category"),
]

SPAN_NAMES = [f"{layer}.{name}" for layer, _, _, name in TRACED]

# counters read from arguments and results: name -> (span, function)
EXTRAS = {
    "reparam.decompose.blocks": ("reparam.decompose", lambda a, r: len(a[1])),
    "reparam.decompose.breaks_in":
        ("reparam.decompose", lambda a, r: len(a[0].breaks)),
    "reparam.compose.breaks_out":
        ("reparam.compose", lambda a, r: len(r.breaks)),
    "cellcomplex.enumerate_carriers.words":
        ("cellcomplex.enumerate_carriers", lambda a, r: len(r)),
    "mooreflow.counit_check.carriers":
        ("mooreflow.counit_check",
         lambda a, r: sum(len(s["rhs_carriers"]) for s in r["steps"])),
}

COUNTS = ["rational.fraction_new.calls", "rational.parse_fraction.calls",
          *EXTRAS]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts = {k: 0 for k in COUNTS}
        self._undo: list = []

    # -- spans

    def _id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, span: str, fn):
        tracer = self
        stack = self.stack
        extras = [(k, f) for k, (s, f) in EXTRAS.items() if s == span]
        counts = self.counts

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            i = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            for key, f in extras:
                counts[key] += f(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing and removing the wrappers

    def _rebind(self, orig, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "dipath" and not modname.startswith("dipath."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        for layer, modname, attr, name in TRACED:
            mod = sys.modules[f"dipath.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(f"{layer}.{name}", orig))
            else:
                orig = getattr(mod, attr)
                self._rebind(orig, self.wrap(f"{layer}.{name}", orig))
        self._count_calls()

    def _count_calls(self) -> None:
        stack, counts = self.stack, self.counts
        parse = sys.modules["dipath.rational"].parse_fraction

        def counted_parse(value):
            if stack:
                counts["rational.parse_fraction.calls"] += 1
            return parse(value)

        self._rebind(parse, counted_parse)
        new = Fraction.__dict__["__new__"]
        orig_new = new.__func__

        def counted_new(cls, *args, **kwargs):
            if stack:
                counts["rational.fraction_new.calls"] += 1
            return orig_new(cls, *args, **kwargs)

        self._undo.append((Fraction, "__new__", new))
        Fraction.__new__ = staticmethod(counted_new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results

    def totals(self) -> dict:
        """Per span name: calls, total and self seconds; plus the counters."""
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - covered[i]
        return {"spans": out, "counts": dict(self.counts)}

    def write(self, path: Path) -> None:
        """The spans as one JSON header line followed by the raw arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["name", self.name.typecode],
                             ["parent", self.parent.typecode],
                             ["start", self.start.typecode],
                             ["end", self.end.typecode]],
                  "counts": self.counts}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(handle)


def merge(into: dict, part: dict) -> None:
    """Add one ``Tracer.totals`` result into another."""
    for name, row in part["spans"].items():
        acc = into["spans"].setdefault(name, [0, 0.0, 0.0])
        for k in range(3):
            acc[k] += row[k]
    for key, value in part["counts"].items():
        into["counts"][key] = into["counts"].get(key, 0) + value


def per_layer(totals: dict, ops: int) -> dict:
    """Per-layer metrics per attempted operation."""
    spans, counts = totals["spans"], totals["counts"]
    out = {}
    for name in SPAN_NAMES:
        calls, _, self_s = spans.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls / ops, "1/op")
        out[f"{name}.self_ms"] = (self_s * 1000 / ops, "ms/op")
    for key in COUNTS:
        if key != "mooreflow.counit_check.carriers":
            out[key] = (counts.get(key, 0) / ops, "1/op")
    carriers = counts.get("mooreflow.counit_check.carriers", 0)
    inclusive = spans.get("mooreflow.counit_check", (0, 0.0, 0.0))[1]
    out["mooreflow.counit_check.carriers_per_s"] = (
        carriers / inclusive if inclusive else 0.0, "carrier/s")
    return out
