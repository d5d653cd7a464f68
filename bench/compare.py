"""Compare two result sets of the benchmark, metric by metric.

    python3 bench/compare.py SET_A SET_B

A result set is a directory of the files ``run.py --out DIR`` writes,
usually made by ``sweep.py``.  For every workload and every end-to-end
metric of ``BENCHMARK.json`` this prints each set's median, the spread
between its quartiles as a share of its median, and how far B's median
moved from A's in the metric's worse direction.  A metric is *within*
when that move is no more than its bound and each set's spread is no
more than its bound.  The share of failed operations must be the same in every run of both sets.
Exits 1 when anything is outside.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: Path) -> dict:
    """{workload: [record, ...]} for the untraced runs in a result set."""
    runs: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def summarize(values) -> dict:
    """Median, quartiles and quartile spread as a share of the median."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def judge(a_values, b_values, better: str, bound: float) -> dict:
    """Summaries of both sets and whether B stays within A's bound."""
    a, b = summarize(a_values), summarize(b_values)
    change = (b["median"] - a["median"]) / a["median"]
    worse = change if better == "lower" else -change
    ok = worse <= bound and a["spread"] <= bound and b["spread"] <= bound
    return {"a": a, "b": b, "worse": worse, "bound": bound, "within": ok}


def failed_shares(runs) -> set:
    return {Fraction(r["failed"], r["attempted"]) for r in runs}


def compare(set_a: dict, set_b: dict, spec: dict) -> tuple[list, bool]:
    """Rows of (workload, metric, judgement) and whether all are within."""
    rows, all_ok = [], True
    for workload in [w["name"] for w in spec["workloads"]]:
        a_runs, b_runs = set_a.get(workload, []), set_b.get(workload, [])
        if not a_runs or not b_runs:
            rows.append((workload, "(runs)", None))
            all_ok = False
            continue
        shares = failed_shares(a_runs) | failed_shares(b_runs)
        if len(shares) != 1 or not all(r["correct"] for r in a_runs + b_runs):
            rows.append((workload, "(failed share / correct)", None))
            all_ok = False
        for metric in spec["end_to_end"]:
            name = metric["name"]
            verdict = judge([r["metrics"][name]["value"] for r in a_runs],
                            [r["metrics"][name]["value"] for r in b_runs],
                            metric["better"], metric["bound"])
            rows.append((workload, name, verdict))
            all_ok = all_ok and verdict["within"]
    return rows, all_ok


def render(rows) -> str:
    lines = ["| workload | metric | A median [q1, q3] | A spread | "
             "B median [q1, q3] | B spread | B worse by | bound | verdict |",
             "|---|---|---|---|---|---|---|---|---|"]
    for workload, metric, v in rows:
        if v is None:
            lines.append(f"| {workload} | {metric} | | | | | | | outside |")
            continue
        a, b = v["a"], v["b"]
        lines.append(
            f"| {workload} | {metric} | {a['median']:.4g} [{a['q1']:.4g}, "
            f"{a['q3']:.4g}] | {a['spread']:.1%} | {b['median']:.4g} "
            f"[{b['q1']:.4g}, {b['q3']:.4g}] | {b['spread']:.1%} | "
            f"{v['worse']:+.1%} | {v['bound']:.0%} | "
            f"{'within' if v['within'] else 'outside'} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("set_a", type=Path)
    parser.add_argument("set_b", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows, ok = compare(load_set(args.set_a), load_set(args.set_b), spec)
    print(render(rows))
    print("all within bounds" if ok else "some metric is outside its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
