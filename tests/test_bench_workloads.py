"""The benchmark's workloads pass their own correctness checks.

``bench/run.py`` counts a run as correct only when its workload's
``check`` finds no error in one pass and every repeated pass gives the
same ``digest``es.  Both read the solver's reports through their public
members: the profile-table check finds the optimal strategies by
identity in ``p1_strategies`` and ``p2_strategies``, and ``digest``
reads ``table``.  So each workload is built here at two seeds, run once,
checked, and run again, with ``bench/workloads.py`` imported unchanged.
"""

import sys
from pathlib import Path

import pytest

import wavg
import wavg.cli  # noqa: F401  (the workloads' commands run through it)

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        import workloads
    return workloads


def run_once(workloads, ops) -> list:
    """Every operation's value, or its exception as a workloads.Failure."""
    values = []
    for op in ops:
        try:
            values.append(op.call())
        except Exception as exc:  # a failed operation is checked as data
            values.append(workloads.Failure(exc))
    return values


@pytest.mark.parametrize("seed", [1, 2])
def test_every_workload_passes_its_check(workloads, seed, tmp_path):
    problems = {}
    for name, (build, check) in workloads.WORKLOADS.items():
        ops = build(wavg, seed, tmp_path / name)
        values = run_once(workloads, ops)
        errors, failed = check(wavg, ops, values)
        if errors or failed:
            problems[name] = (errors, sorted(ops[i].label for i in failed))
            continue
        again = run_once(workloads, ops)
        changed = [op.label for op, a, b in zip(ops, values, again)
                   if workloads.digest(a) != workloads.digest(b)]
        if changed:
            problems[name] = ["a second pass returned other values", changed]
    assert problems == {}
