"""Run one workload of the dipath benchmark and print its record.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark imports the ``dipath``
under ``src/`` of the same checkout and nothing else; without it the run
stops with exit status 2 before printing a result.  Set-up (the dipath
import, then generation and validation of the first round's inputs) is
done SETUP_REPS times and its median reported.  The timed phase runs whole
rounds until S seconds have passed and at least MIN_OPS operations were
attempted.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  The full record
and, when traced, the spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 11
MIN_OPS = 100
MODULES = ("rational", "reparam", "gspace", "cellcomplex", "reedy", "mooreflow")

END_TO_END = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mb": "MB"}


class SetupError(Exception):
    pass


def load_dipath() -> SimpleNamespace:
    """A fresh import of the checkout's dipath: every dipath module is
    dropped from sys.modules first, so each set-up pays the import."""
    for name in [n for n in sys.modules if n == "dipath" or n.startswith("dipath.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dipath")
    where = Path(pkg.__file__).resolve()
    if where.parent != (ROOT / "src" / "dipath").resolve():
        raise SetupError(f"imported dipath from {where}, not from this checkout")
    return SimpleNamespace(**{m: sys.modules[f"dipath.{m}"] for m in MODULES})


def git_sha() -> str:
    """HEAD's sha read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> dict:
    from spans import Tracer, merge, per_layer
    from oracle import CheckFailed
    from workloads import WORKLOADS, Child, OpFailed

    cls = WORKLOADS[args.workload]
    traced = bool(args.trace)
    workdir = OUT / f"work-{os.getpid()}"
    ctx = SimpleNamespace(child=None)

    setup_times = []
    for _ in range(SETUP_REPS):
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        ctx.child = Child(ROOT, workdir, traced)
        t0 = time.perf_counter()
        dp = load_dipath()
        wl = cls(dp, args.seed, ctx)
        ops = wl.round(0)
        setup_times.append(time.perf_counter() - t0)

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    latencies = []
    by_kind = defaultdict(list)
    attempted = failed = 0
    failures: Counter = Counter()
    notes: dict = {}
    wrong: list = []
    round_rates = []
    rounds = 0
    t_start = time.perf_counter()
    try:
        while True:
            failed_before = failed
            for op in ops:
                attempted += 1
                root = tracer.open("op") if tracer else None
                t0 = time.perf_counter()
                try:
                    out = op.run()
                    error = None
                except Exception as exc:  # the program failed this operation
                    error = exc
                t1 = time.perf_counter()
                if tracer:
                    tracer.close(root)
                latencies.append(t1 - t0)
                by_kind[op.kind].append(t1 - t0)
                if error is None:
                    try:
                        op.check(out)
                    except OpFailed as exc:
                        error = exc
                    except CheckFailed as exc:
                        wrong.append(f"{op.kind}: {exc}")
                if error is not None:
                    failed += 1
                    failures[op.kind] += 1
                    notes.setdefault(op.kind, f"{type(error).__name__}: {error}"[:300])
            rounds += 1
            done = len(ops) - (failed - failed_before)
            round_rates.append(done / sum(latencies[-len(ops):]))
            if time.perf_counter() - t_start >= args.seconds and attempted >= MIN_OPS:
                break
            ops = wl.round(rounds)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    elapsed = time.perf_counter() - t_start

    peak_kb = (ctx.child.peak_kb if args.workload == "cli-cold"
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "cores": os.cpu_count(), "git_sha": git_sha(), "src_lines": src_lines(),
        "rounds": rounds, "ops_per_round": attempted // rounds,
        "attempted": attempted, "failed": failed, "failed_by_kind": dict(failures),
        "failure_notes": notes, "wrong": wrong[:10], "correct": not wrong,
        "elapsed_s": elapsed, "op_time_s": sum(latencies),
        "setup_runs_s": setup_times,
        "kind_median_ms": {k: statistics.median(v) * 1000
                           for k, v in sorted(by_kind.items())},
    }
    e2e = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": statistics.median(round_rates),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000,
        "peak_rss_mb": peak_kb / 1024,
    }
    record["end_to_end"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    if tracer:
        totals = tracer.totals()
        children = ctx.child.traces
        for child in children:
            if child["totals"] is not None:
                merge(totals, child["totals"])
        layers = per_layer(totals, attempted)
        layers["cli.import_ms"] = (_median_ms([c["import_s"] for c in children]), "ms")
        layers["cli.run_ms"] = (_median_ms(
            [c["totals"]["spans"]["cli.run"][1] for c in children if c["totals"]]), "ms")
        layers["cli.process_ms"] = (_median_ms([c["process_s"] for c in children]), "ms")
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["spans"] = len(tracer.start)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans")
    return record


def _median_ms(values) -> float:
    return statistics.median(values) * 1000 if values else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dipath" / "__init__.py").is_file():
        print(f"no dipath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        record = run(args)
    except (SetupError, ImportError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")

    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"python {record['python']}  cores {record['cores']}  "
          f"git {record['git_sha'][:12]}  src_lines {record['src_lines']}")
    print(f"rounds {record['rounds']} x {record['ops_per_round']} ops  "
          f"attempted {record['attempted']}  failed {record['failed']}  "
          f"correct {record['correct']}")
    for kind, count in sorted(record["failed_by_kind"].items()):
        print(f"  failed {kind} x{count}: {record['failure_notes'][kind]}")
    for line in record["wrong"]:
        print(f"  WRONG {line}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
