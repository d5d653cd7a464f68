"""Benchmark of the wavg workbench: one workload, one seed, one run.

    python3 bench/run.py --workload deviation-search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ``wavg`` is imported from its ``src``
directory.  The run sets up the workload several times (importing
``wavg`` afresh each time) and keeps the median as ``setup_s``, runs one
pass whose outputs are checked, then repeats the pass until ``--seconds``
have passed, requiring every repeat to return exactly what the checked
pass returned.  A pass is the workload's library calls (``wall_s``)
followed by its ``wavg`` commands issued through ``wavg.cli.main``
(``cli_s``); each is the sum of its operations' median times.

With ``--trace 1`` the window is split: the first half is measured
untraced, then ``wavg`` is imported afresh, wrapped by
:class:`spans.Tracer`, set up again and measured traced; the per-layer
metrics are medians over the traced passes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; it is also written under
``--out``.  Spans of a traced run go to ``bench/out/trace/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUPS = 21

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cli_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit.  Counts are per traced pass; times are
# self times per traced pass.
PER_LAYER = {
    "solver.check_memoryless.calls": "count",
    "solver.check_memoryless.self_s": "s",
    "solver.solve_enumerative.calls": "count",
    "solver.solve_enumerative.self_s": "s",
    "solver.monotone_falsify.calls": "count",
    "solver.monotone_falsify.self_s": "s",
    "solver.monotone_falsify.quads_per_s": "1/s",
    "solver.find_witness_sequence_failure.calls": "count",
    "solver.find_witness_sequence_failure.gadgets_tried": "count",
    "solver.budget_exceeded": "count",
    "payoff.eval_exact.calls": "count",
    "payoff.eval_exact.distinct": "count",
    "payoff.eval_exact.distinct_share": "ratio",
    "payoff.eval_exact.self_s": "s",
    "payoff.eval_exact.failed": "count",
    "payoff.eval_approx.calls": "count",
    "payoff.eval_approx.self_s": "s",
    "games.induced_lasso.calls": "count",
    "games.induced_lasso.self_s": "s",
    "games.enumerate_memoryless.strategies": "count",
    "games.enumerate_memoryless.self_s": "s",
    "sequences.parse_sequence.self_s": "s",
    "sequences.analyze.calls": "count",
    "sequences.analyze.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "verify.verify_paper.self_s": "s",
    "setup.sequences.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def fresh_wavg():
    """Import ``wavg`` from this checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "wavg" or n.startswith("wavg.")]:
        del sys.modules[name]
    w = importlib.import_module("wavg")
    importlib.import_module("wavg.cli")
    if not Path(w.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"wavg imported from {w.__file__}, not {ROOT / 'src'}")
    return w


def set_up(build, seed: int, inputs_dir: Path, before=None):
    """Import wavg afresh and build the workload; returns (w, ops, seconds)."""
    gc.collect()
    start = time.perf_counter()
    w = fresh_wavg()
    if before is not None:
        before()
    ops = build(w, seed, inputs_dir)
    return w, ops, time.perf_counter() - start


def run_pass(ops):
    """Run every operation once; returns (values, seconds per operation)."""
    gc.collect()
    values, times = [], []
    clock = time.perf_counter
    for op in ops:
        start = clock()
        try:
            value = op.call()
        except Exception as exc:  # an operation's failure is data here
            value = workloads.Failure(exc)
        times.append(clock() - start)
        values.append(value)
    return values, times


class Window:
    """Passes repeated until a deadline, compared with the checked pass.

    Each operation is timed on its own; a pass is estimated as the sum of
    every operation's median time over the window's passes, so that a
    burst of load from elsewhere on the machine, which slows a few
    operations of one pass, does not move the estimate.
    """

    def __init__(self, reference_digests, errors):
        self.reference = reference_digests
        self.errors = errors
        self.ops: list = []
        self.times: list[list[float]] = []
        self.passes = 0

    def measure(self, ops, seconds: float, each_pass=None):
        deadline = time.perf_counter() + seconds
        self.ops = ops
        self.times = [[] for _ in ops]
        while True:
            values, times = run_pass(ops)
            self.passes += 1
            if each_pass is not None:
                each_pass()
            for series, t in zip(self.times, times):
                series.append(t)
            digests = [workloads.digest(v) for v in values]
            if digests != self.reference:
                changed = [ops[i].label for i, (a, b) in enumerate(
                    zip(digests, self.reference)) if a != b]
                self.errors.append(f"a repeated pass returned other values: "
                                   f"{changed[:3]}")
            if time.perf_counter() >= deadline:
                return

    def seconds(self, cli: bool) -> float:
        """Estimated seconds of the library (or the CLI) part of a pass."""
        return sum(statistics.median(series)
                   for op, series in zip(self.ops, self.times) if op.cli == cli)

    def pass_seconds(self) -> float:
        return self.seconds(cli=False) + self.seconds(cli=True)


def per_layer(tracer, marks, counts_per_pass, overhead: float,
              setup_span) -> dict:
    """Per-layer metrics: the median over traced passes of each one."""
    rows = []
    for (first, last), counts in zip(zip(marks, marks[1:]), counts_per_pass):
        own = tracer.self_by_name(first, last)
        row = {}
        for name, unit in PER_LAYER.items():
            if name.endswith(".self_s"):
                row[name] = own[name[:-len(".self_s")]]
            elif unit == "count":
                row[name] = counts[name]
        row["games.enumerate_memoryless.strategies"] = counts[
            "games.enumerate_memoryless.items"]
        calls = counts["payoff.eval_exact.calls"]
        row["payoff.eval_exact.distinct_share"] = (
            counts["payoff.eval_exact.distinct"] / calls if calls else 0.0)
        monotone_s = own["solver.monotone_falsify"]
        row["solver.monotone_falsify.quads_per_s"] = (
            counts["solver.monotone_falsify.quads"] / monotone_s
            if monotone_s else 0.0)
        row["trace.spans"] = last - first
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in PER_LAYER if name in rows[0]}
    first, last = setup_span
    own = tracer.self_by_name(first, last)
    metrics["setup.sequences.self_s"] = sum(
        v for k, v in own.items() if k.startswith("sequences."))
    metrics["trace.overhead_s"] = overhead
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT / "results",
                        help="directory for the result file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wavg" / "__init__.py").is_file():
        print(f"error: no wavg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build, check = workloads.WORKLOADS[args.workload]
    inputs_dir = OUT / "inputs" / args.workload

    setup_times = []
    for _ in range(SETUPS):
        w, ops, seconds = set_up(build, args.seed, inputs_dir)
        setup_times.append(seconds)

    errors: list[str] = []
    values, _ = run_pass(ops)
    try:
        check_errors, failed_ops = check(w, ops, values)
        errors += check_errors
    except Exception:  # a check that crashes is a failed check
        errors.append("a check raised:\n" + traceback.format_exc())
        failed_ops = set()
    reference = [workloads.digest(v) for v in values]
    window = Window(reference, errors)

    if not args.trace:
        window.measure(ops, args.seconds)
        passes = window.passes
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": window.seconds(cli=False),
            "cli_s": window.seconds(cli=True),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        window.measure(ops, args.seconds / 2)
        untraced = window.pass_seconds()
        tracer = spans.Tracer()
        setup_first = tracer.mark()
        w, ops, _ = set_up(build, args.seed, inputs_dir, before=tracer.install)
        setup_span = (setup_first, tracer.mark())
        tracer.take_counts()
        marks = [tracer.mark()]
        counts_per_pass = []

        def each_pass():
            marks.append(tracer.mark())
            counts_per_pass.append(tracer.take_counts())

        traced = Window(reference, errors)
        traced.measure(ops, args.seconds / 2, each_pass)
        passes = window.passes + traced.passes
        metrics = per_layer(tracer, marks, counts_per_pass,
                            traced.pass_seconds() - untraced, setup_span)
        units = PER_LAYER
        trace_dir = OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.tsv.gz")

    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": passes * len(ops),
        "failed": passes * len(failed_ops),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    args.out.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, passes=passes,
                  operations_per_pass=len(ops),
                  failed_operations=sorted(ops[i].label for i in failed_ops),
                  python=platform.python_version())
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (args.out / name).write_text(json.dumps(record, indent=1) + "\n",
                                 encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
