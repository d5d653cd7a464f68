"""The benchmark's tracer leaves every answer unchanged.

A traced benchmark run differs from an untraced one only by
``bench/spans.py``.  Its ``Tracer`` wraps each ``TRACED`` function
wherever a ``wavg`` module binds it, ``cli.main`` included, drives
``enumerate_memoryless`` through ``next()``, calls its note hooks with
each call's own arguments and reads the fields of the witnesses returned.
A renamed or re-signed traced function, an ``enumerate_memoryless`` that
is no generator or a changed witness field breaks a traced run while the
untraced one passes.  So a fresh interpreter runs each command untraced,
installs the tracer and runs it again, and the structured output must be
byte-identical.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

COMMANDS = [
    ["verify-paper"],
    ["check-memoryless", "--game", "builtin:two-branch", "--seq", "geom:2"],
    ["find-witness", "--seq", "blocks:2,1;mu=1"],
]

SCRIPT = r"""
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import wavg.cli
import spans

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = wavg.cli.main(argv + ["--format", "structured"])
    return [code, out.getvalue(), err.getvalue()]

commands = json.loads(sys.argv[3])
untraced = [run(argv) for argv in commands]
tracer = spans.Tracer()
tracer.install()
traced = [run(argv) for argv in commands]
print(json.dumps({"untraced": untraced, "traced": traced,
                  "counts": tracer.take_counts()}))
"""


def test_traced_runs_match_untraced_ones():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench"),
         json.dumps(COMMANDS)],
        capture_output=True, text=True, timeout=60, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    runs = json.loads(done.stdout)
    assert [code for code, _, _ in runs["untraced"]] == [0, 1, 1]
    assert runs["traced"] == runs["untraced"]
    # Every command went through the wrapped cli.main, and the note hooks
    # read the witnesses they were handed.
    counts = runs["counts"]
    assert counts["cli.main.calls"] == len(COMMANDS)
    assert counts["games.enumerate_memoryless.items"] > 0
    assert counts["payoff.eval_exact.calls"] > 0
    assert counts["solver.monotone_falsify.quads"] > 0
    assert counts["solver.find_witness_sequence_failure.gadgets_tried"] == 1
