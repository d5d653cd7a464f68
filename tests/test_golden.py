"""Byte-identical output of the north-star CLI rows.

Each row of ``ROWS`` runs ``wavg`` in-process with ``--format structured``
and compares stdout byte for byte with ``tests/golden/<name>.json``; each
row of ``TEXT_ROWS`` does the same with ``--format text`` against
``tests/golden/<name>.txt``.  A change that alters any answer, witness,
order, key or line fails here.  After an intended change of output,
regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import pathlib
import sys

import pytest

from wavg.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# name -> (argv, exit code)
ROWS = {
    "verify-paper": (["verify-paper"], 0),
    "find-witness-blocks-1-1_2-mu-1_8": (
        ["find-witness", "--seq", "blocks:1,1/2;mu=1/8"], 1),
    # No gadget refutes this block sequence; the monotonicity route does.
    "find-witness-blocks-2-1-mu-1": (
        ["find-witness", "--seq", "blocks:2,1;mu=1"], 1),
    "monotone-blocks-2-1-mu-1": (
        ["monotone", "--seq", "blocks:2,1;mu=1"], 1),
    "monotone-blocks-2-1-mu-1-alphabet-m2-2": (
        ["monotone", "--seq", "blocks:2,1;mu=1",
         "--alphabet=-2,-1,0,1,2"], 1),
    "monotone-blocks-1-mu-0": (
        ["monotone", "--seq", "blocks:1;mu=0"], 0),
    "monotone-disc-1_2-alphabet-m1-1": (
        ["monotone", "--seq", "disc:1/2", "--alphabet=-1,0,1"], 0),
    "check-detour-4-1-3-blocks-1-1_2-mu-1_8": (
        ["check-memoryless", "--game", "builtin:detour:4,1,3",
         "--seq", "blocks:1,1/2;mu=1/8"], 1),
    "eval-word-disc-2_3-horizon-160": (
        ["eval-word", "--seq", "disc:2/3",
         "--word", "prefix=1,-2/3;cycle=1/2,3", "--horizon", "160"], 0),
    "eval-word-geom-3_2-horizon-160-limsup": (
        ["eval-word", "--seq", "geom:3/2", "--word", "cycle=1,0,2",
         "--horizon", "160", "--mode", "limsup"], 0),
    "eval-word-blocks-2-1-mu-1-horizon-160": (
        ["eval-word", "--seq", "blocks:2,1;mu=1",
         "--word", "prefix=1;cycle=0,2", "--horizon", "160"], 0),
    "eval-word-blocks-1-1_2-mu-1_8-prefix-3-1-horizon-160": (
        ["eval-word", "--seq", "blocks:1,1/2;mu=1/8;prefix=3,1",
         "--word", "cycle=1,0,0", "--horizon", "160"], 0),
    "eval-word-geom-3-horizon-160": (
        ["eval-word", "--seq", "geom:3", "--word", "prefix=2;cycle=1,-1",
         "--horizon", "160"], 0),
    "eval-word-table-1x6": (
        ["eval-word", "--seq", "table:1,1,1,1,1,1", "--word", "cycle=1,0"],
        0),
}
for _tag, _spec, _codes in (("mean", "mean", (0, 0)),
                            ("disc-1_2", "disc:1/2", (0, 0)),
                            ("blocks-2-1-mu-1", "blocks:2,1;mu=1", (0, 0)),
                            ("geom-2", "geom:2", (0, 1))):
    for _mode, _code in zip(("liminf", "limsup"), _codes):
        ROWS[f"check-spike-4-{_tag}-{_mode}"] = (
            ["check-memoryless", "--game", "builtin:spike:4", "--seq", _spec,
             "--mode", _mode], _code)
# spike:6 at mem_bound 2 searches lassos up to 62 edges long.
for _tag, _spec in (("mean", "mean"), ("disc-1_2", "disc:1/2"),
                    ("blocks-2-1-mu-1", "blocks:2,1;mu=1"),
                    ("blocks-1-1_2-mu-1_8", "blocks:1,1/2;mu=1/8")):
    ROWS[f"check-spike-6-{_tag}-liminf"] = (
        ["check-memoryless", "--game", "builtin:spike:6", "--seq", _spec], 0)
# spike:10 under this block sequence, whose scan alone ran out of the
# default budget, decides by the best response without scanning.
ROWS["check-spike-10-blocks-1-1_2-mu-1_8-liminf"] = (
    ["check-memoryless", "--game", "builtin:spike:10",
     "--seq", "blocks:1,1/2;mu=1/8"], 0)
# spike:5 under geom:2 with limsup decides within the default budget: the
# scan stops at its first cycle length with a witness.
ROWS["check-spike-5-geom-2-limsup"] = (
    ["check-memoryless", "--game", "builtin:spike:5", "--seq", "geom:2",
     "--mode", "limsup"], 1)
ROWS["solve-two-branch-geom-2"] = (
    ["solve", "--game", "builtin:two-branch", "--seq", "geom:2"], 0)
ROWS["solve-spike-4-mean"] = (
    ["solve", "--game", "builtin:spike:4", "--seq", "mean"], 0)
for _tag, _argv in (
        ("mean", ["--seq", "mean"]),
        ("blocks-1-1_2-mu-1_8", ["--seq", "blocks:1,1/2;mu=1/8"]),
        ("geom-2-limsup", ["--seq", "geom:2", "--mode", "limsup"])):
    ROWS[f"solve-circulant-8-{_tag}"] = (
        ["solve", "--game", str(GOLDEN / "circulant-8.game")] + _argv, 0)

# The text rendering of every command, with and without a witness.
TEXT_ROWS = {
    "text-eval-word-disc-2_3-exact": (
        ["eval-word", "--seq", "disc:2/3",
         "--word", "prefix=1,-2/3;cycle=1/2,3"], 0),
    "text-eval-word-geom-3-horizon-160": (
        ["eval-word", "--seq", "geom:3", "--word", "prefix=2;cycle=1,-1",
         "--horizon", "160"], 0),
    "text-solve-two-branch-geom-2": (
        ["solve", "--game", "builtin:two-branch", "--seq", "geom:2"], 0),
    "text-check-detour-4-1-3-blocks-1-1_2-mu-1_8": (
        ["check-memoryless", "--game", "builtin:detour:4,1,3",
         "--seq", "blocks:1,1/2;mu=1/8"], 1),
    "text-check-spike-4-mean": (
        ["check-memoryless", "--game", "builtin:spike:4", "--seq", "mean"],
        0),
    "text-find-witness-blocks-1-1_2-mu-1_8": (
        ["find-witness", "--seq", "blocks:1,1/2;mu=1/8"], 1),
    "text-find-witness-blocks-2-1-mu-1": (
        ["find-witness", "--seq", "blocks:2,1;mu=1"], 1),
    "text-find-witness-disc-1_2": (
        ["find-witness", "--seq", "disc:1/2"], 0),
    "text-monotone-blocks-2-1-mu-1": (
        ["monotone", "--seq", "blocks:2,1;mu=1"], 1),
    "text-monotone-blocks-1-mu-0": (
        ["monotone", "--seq", "blocks:1;mu=0"], 0),
    "text-verify-paper": (["verify-paper"], 0),
}

# format -> (rows, golden file suffix)
FORMATS = {"structured": (ROWS, ".json"), "text": (TEXT_ROWS, ".txt")}


def _run(argv, fmt="structured"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", fmt])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(ROWS))
def test_structured_output_is_unchanged(name):
    argv, want_code = ROWS[name]
    code, out = _run(argv)
    assert code == want_code
    assert out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(TEXT_ROWS))
def test_text_output_is_unchanged(name):
    argv, want_code = TEXT_ROWS[name]
    code, out = _run(argv, "text")
    assert code == want_code
    assert out == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for fmt, (rows, suffix) in FORMATS.items():
        for name, (argv, _) in sorted(rows.items()):
            code, out = _run(argv, fmt)
            (GOLDEN / f"{name}{suffix}").write_text(out)
            print(f"{name}: exit {code}", file=sys.stderr)
