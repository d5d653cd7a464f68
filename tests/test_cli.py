"""CLI surface: commands, exit codes, structured output."""

import inspect
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import wavg.payoff
from wavg import (cli, escape_gadget, monotone_falsify, parse_sequence,
                  random_game, serialize_game, solve_enumerative, solver,
                  two_branch_gadget)
from wavg.cli import main

F = Fraction
ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvalWord:
    def test_doubling_counterexample_value(self, capsys):
        code, out, _ = run(capsys, "eval-word", "--seq", "geom:2",
                           "--word", "cycle=1,2,0,4")
        assert code == 0
        assert out.strip() == "14/15"

    def test_mean(self, capsys):
        code, out, _ = run(capsys, "eval-word", "--seq", "mean",
                           "--word", "cycle=1,0")
        assert code == 0
        assert out.strip() == "1/2"

    def test_growing_block_value(self, capsys):
        code, out, _ = run(capsys, "eval-word", "--seq", "blocks:1,2;mu=2",
                           "--word", "cycle=1,0,0")
        assert code == 0
        assert out.strip() == "3/14"

    def test_table_bracket(self, capsys):
        code, out, _ = run(capsys, "eval-word", "--seq", "table:1,1,1,1",
                           "--word", "cycle=3", "--horizon", "3")
        assert code == 0
        assert out.strip() == "bracket[3, 3] horizon=3"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "eval-word", "--seq", "nope:1",
                           "--word", "cycle=1")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("seq, word, key", [
        ("mean", "prefix=1;cycle=1;cycle=2", "cycle"),
        ("mean", "prefix=1;prefix=2;cycle=1", "prefix"),
        ("blocks:2,1;mu=1;mu=1/2", "cycle=1", "mu"),
        ("blocks:2,1;mu=1;prefix=1;prefix=2", "cycle=1", "prefix")])
    def test_repeated_component_exit_code(self, capsys, seq, word, key):
        # A second value for a key is refused, not silently kept.
        code, _, err = run(capsys, "eval-word", "--seq", seq, "--word", word)
        assert code == 2
        assert "repeated" in err and repr(key) in err

    def test_admission_error_exit_code(self, capsys):
        code, _, err = run(capsys, "eval-word", "--seq", "blocks:1,-1;mu=1",
                           "--word", "cycle=1")
        assert code == 2

    def test_zero_denominator_in_sequence(self, capsys):
        code, _, err = run(capsys, "eval-word", "--seq", "geom:1/0",
                           "--word", "cycle=1")
        assert code == 2
        assert "zero denominator" in err

    def test_zero_denominator_in_word(self, capsys):
        code, _, err = run(capsys, "eval-word", "--seq", "mean",
                           "--word", "cycle=1/0")
        assert code == 2
        assert "zero denominator" in err

    def test_growing_block_without_a_single_limit_needs_a_horizon(self,
                                                                   capsys):
        code, out, err = run(capsys, "eval-word", "--seq", "blocks:1,-2;mu=2",
                             "--word", "cycle=1,0")
        assert code == 2
        assert out == ""
        assert "pass --horizon" in err

    def test_limsup_flag(self, capsys):
        code, out, _ = run(capsys, "eval-word", "--seq", "geom:2",
                           "--word", "cycle=1,2,0,4", "--limsup")
        assert code == 0
        assert out.strip() == "37/15"

    @pytest.mark.parametrize("spec, least", [("blocks:1,1;mu=0", 19),
                                             ("blocks:1,1;mu=0;prefix=2", 20)])
    def test_ratio_zero_block_horizon(self, capsys, spec, least):
        # Under ratio 0 the partial sums settle only after the block, so
        # every sample of the tail fit must lie past it.
        code, _, err = run(capsys, "eval-word", "--seq", spec,
                           "--word", "cycle=1,0,0", "--horizon", str(least - 1))
        assert code == 2
        assert f"at least {least}" in err
        code, out, _ = run(capsys, "eval-word", "--seq", spec,
                           "--word", "cycle=1,0,0", "--horizon", str(least))
        assert code == 0
        assert out.strip() == f"bracket[1/2, 1/2] horizon={least}"


class TestSolve:
    def test_builtin_two_branch(self, capsys):
        code, out, _ = run(capsys, "solve", "--game", "builtin:two-branch",
                           "--seq", "geom:2")
        assert code == 0
        assert "maximin  = 4/3" in out
        assert "minimax  = 4/3" in out

    def test_builtin_escape(self, capsys):
        code, out, _ = run(capsys, "solve", "--game", "builtin:escape:3",
                           "--seq", "disc:1/2", "--format", "structured")
        assert code == 0
        report = solve_enumerative(escape_gadget(3), parse_sequence("disc:1/2"))
        assert F(json.loads(out)["maximin"]) == report.maximin.exact == F(3, 2)

    def test_game_file(self, capsys, tmp_path):
        path = tmp_path / "game.txt"
        path.write_text(serialize_game(two_branch_gadget()))
        code, out, _ = run(capsys, "solve", "--game", str(path),
                           "--seq", "geom:2")
        assert code == 0
        assert "saddle   = True" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "--game", "/nonexistent",
                           "--seq", "mean")
        assert code == 2

    def test_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "solve", "--game", "builtin:two-branch",
                           "--seq", "geom:2", "--budget", "0")
        assert code == 3


class TestCheckMemoryless:
    def test_witness_exit_code(self, capsys):
        code, out, _ = run(capsys, "check-memoryless", "--game",
                           "builtin:two-branch", "--seq", "geom:2",
                           "--mem-bound", "2")
        assert code == 1
        assert "witness-found" in out
        assert "14/15" in out

    def test_no_witness_exit_code(self, capsys):
        code, out, _ = run(capsys, "check-memoryless", "--game",
                           "builtin:two-branch", "--seq", "mean")
        assert code == 0
        assert "no-witness-up-to-bound" in out

    def test_detour_witness(self, capsys):
        code, out, _ = run(capsys, "check-memoryless", "--game",
                           "builtin:detour:4,1,3", "--seq",
                           "blocks:1,1/2;mu=1/8")
        assert code == 1
        assert "151/48" in out

    def test_builtin_gadget_arity(self, capsys):
        code, _, err = run(capsys, "check-memoryless", "--game",
                           "builtin:detour:1", "--seq", "mean")
        assert code == 2
        assert "expected 3" in err

    def test_two_branch_takes_no_arguments(self, capsys):
        code, out, err = run(capsys, "check-memoryless", "--game",
                             "builtin:two-branch:5", "--seq", "mean")
        assert code == 2
        assert out == ""
        assert "takes no arguments" in err

    @pytest.mark.parametrize("budget, error", [
        (6560, "6561 memoryless profiles exceed budget 6560"),
        (6561, "deviation search exceeded its budget")])
    def test_table_profiles_share_the_budget(self, capsys, budget, error):
        # circulant-8 has 3**8 = 6561 memoryless profiles.
        code, out, err = run(capsys, "check-memoryless", "--game",
                             str(GOLDEN / "circulant-8.game"), "--seq", "mean",
                             "--budget", str(budget))
        assert code == 3
        assert out == ""
        assert error in err

    def test_long_walks_do_not_recurse(self, capsys):
        code, out, _ = run(capsys, "check-memoryless", "--game",
                           "builtin:loops:1", "--seq", "mean",
                           "--mem-bound", "1500")
        assert code == 0
        assert "no-witness-up-to-bound" in out

    def test_budget_bounds_long_growing_walks(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "check-memoryless", "--game",
                           "builtin:loops:1", "--seq", "geom:2",
                           "--mem-bound", "1500")
        assert code == 3
        assert "budget" in err
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("game, spec, mem_bound", [
        ("builtin:loops:1", "geom:2", "1000000"),
        ("builtin:detour:4,1,3", "blocks:1,1/2;mu=1/8", "20000")])
    def test_coefficient_table_charged_by_its_words(self, capsys, game, spec,
                                                    mem_bound):
        # Entry i of these tables has O(i) bits: about 5*10**11 bits in
        # all for the first and 5*10**9 for the second, which one unit per
        # entry let the default budget build.
        start = time.perf_counter()
        code, _, err = run(capsys, "check-memoryless", "--game", game,
                           "--seq", spec, "--mem-bound", mem_bound)
        assert code == 3
        assert "budget" in err
        assert time.perf_counter() - start < 1

    def test_memoryless_values_without_a_saddle(self, capsys, tmp_path):
        # No memoryless saddle under this block sequence (maximin 4/3,
        # minimax 5/3) is already a witness.
        path = tmp_path / "no-saddle.game"
        path.write_text(serialize_game(random_game(641, max_states=3,
                                                   max_out_degree=2)))
        code, out, _ = run(capsys, "check-memoryless", "--game", str(path),
                           "--seq", "blocks:2,1;mu=1")
        assert code == 1
        assert ("memoryless maximin 4/3 differs from minimax 5/3; "
                "some player needs memory") in out

    def test_unknown_builtin_lists_the_gadgets(self, capsys):
        code, out, err = run(capsys, "check-memoryless", "--game",
                             "builtin:nope", "--seq", "mean")
        assert code == 2
        assert out == ""
        assert ("unknown builtin game 'nope'; available: detour, escape, "
                "loops, spike, two-branch") in err

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("solver fault")

        monkeypatch.setattr(solver, "check_memoryless", broken)
        code, out, err = run(capsys, "check-memoryless", "--game",
                             "builtin:two-branch", "--seq", "geom:2")
        assert code == 4
        assert out == ""
        assert "internal error" in err and "solver fault" in err


@pytest.mark.parametrize("argv", [
    ("solve", "--game", "builtin:two-branch", "--seq", "geom:2"),
    ("check-memoryless", "--game", "builtin:two-branch", "--seq", "geom:2"),
    ("find-witness", "--seq", "geom:2"),
    ("monotone", "--seq", "geom:2")], ids=lambda argv: argv[0])
def test_negative_budget_is_bad_input(capsys, argv):
    # A negative budget is malformed input (exit 2), not an exhausted
    # budget (exit 3), which --budget 0 still gives.
    code, out, err = run(capsys, *argv, "--budget", "-1")
    assert code == 2
    assert out == ""
    assert "budget must be nonnegative" in err


def _assert_bad_input(code, out, err, message):
    # Malformed input exits 2 with one "error:" line and no traceback.
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (("eval-word", "--seq", "foo", "--word", "cycle=1"),
     "unrecognized sequence spec 'foo'"),
    (("eval-word", "--seq", "blocks:1;foo=2", "--word", "cycle=1"),
     "unrecognized blocks option 'foo=2'"),
    (("eval-word", "--seq", "table:", "--word", "cycle=1"),
     "empty value list"),
    (("eval-word", "--seq", "table:0,1", "--word", "cycle=1"),
     "first coefficient must be nonzero"),
    (("eval-word", "--seq", "mean", "--word", "cycle="),
     "lasso cycle must be nonempty"),
    (("eval-word", "--seq", "mean", "--word", "foo"),
     "malformed lasso component 'foo'"),
    (("eval-word", "--seq", "mean", "--word", "foo=1"),
     "unrecognized lasso component 'foo'"),
    (("check-memoryless", "--game", "builtin:two-branch", "--seq", "mean",
      "--mem-bound", "-1"), "mem_bound must be nonnegative"),
    (("check-memoryless", "--game", "builtin:spike:0", "--seq", "mean"),
     "k must be at least 1"),
    (("check-memoryless", "--game", "builtin:spike:abc", "--seq", "mean"),
     "builtin:spike takes an integer, got 'abc'"),
    (("check-memoryless", "--game", "builtin:spike:", "--seq", "mean"),
     "builtin:spike takes an integer, got ''"),
], ids=["seq-spec", "blocks-option", "empty-table", "table-zero-first",
        "empty-cycle", "lasso-no-eq", "lasso-key", "mem-bound", "spike-0",
        "spike-word", "spike-empty"])
def test_bad_argument_is_bad_input(capsys, argv, message):
    _assert_bad_input(*run(capsys, *argv), message)


@pytest.mark.parametrize("text, message", [
    ("state a\n", "line 1: state line needs: state <name> <1|2>"),
    ("state a 1\nstate b 3\n", "line 2: owner must be 1 or 2, got '3'"),
    ("state a 1\nedge a a\n",
     "line 2: edge line needs: edge <src> <dst> <rational>"),
    ("state a 1\nedge a a 1\nedge a a 1\n", "line 3: duplicate edge a->a(1)"),
    ("state a 1\nedge a a 1\nstart\n",
     "line 3: start line needs: start <name>"),
    ("state a 1\nedge a a 1\nstart b\n", "line 3: unknown state 'b'"),
    ("state a 1\nedge a a 1\nstart a\nfrob a\n",
     "line 4: unrecognized directive 'frob'"),
], ids=["state-arity", "owner", "edge-arity", "duplicate-edge",
        "start-arity", "start-unknown", "directive"])
def test_bad_game_file_is_bad_input(capsys, tmp_path, text, message):
    path = tmp_path / "game.txt"
    path.write_text(text)
    _assert_bad_input(*run(capsys, "solve", "--game", str(path),
                           "--seq", "mean"), message)


class TestFindWitnessAndMonotone:
    def test_find_witness(self, capsys):
        code, out, _ = run(capsys, "find-witness", "--seq",
                           "blocks:1,1/2;mu=1/8")
        assert code == 1
        assert "151/48" in out

    def test_find_witness_monotonicity_route(self, capsys):
        # escape_gadget(1) is the only gadget tried and finds nothing; the
        # monotonicity search then refutes the sequence.
        code, out, _ = run(capsys, "find-witness", "--seq", "blocks:2,1;mu=1")
        assert code == 1
        assert out.splitlines()[-2:] == [
            "monotonicity witness: x=() y=(0) u=cycle=0,1 v=cycle=1,0",
            "values: 1/3 < 2/3 but 2/3 > 1/3"]

    def test_find_witness_absent(self, capsys):
        code, out, _ = run(capsys, "find-witness", "--seq", "disc:1/2")
        assert code == 0
        assert "found = False" in out

    def test_monotone_witness(self, capsys):
        code, out, _ = run(capsys, "monotone", "--seq", "blocks:2,1;mu=1")
        assert code == 1
        assert "2/3" in out

    def test_monotone_nonempty(self, capsys):
        argv = ("monotone", "--seq", "blocks:2,1;mu=1", "--alphabet=0,1")
        _, plain, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--nonempty")
        assert code == 1
        assert plain.startswith("witness: x=() y=(0) ")
        assert out.startswith("witness: x=(0) y=(0,0) ")
        w = monotone_falsify(parse_sequence("blocks:2,1;mu=1"), (0, 1), 2, 2,
                             nonempty_only=True)
        assert (w.x, w.y) == ((0,), (0, 0))

    def test_monotone_absent(self, capsys):
        code, out, _ = run(capsys, "monotone", "--seq", "mean")
        assert code == 0

    def test_find_witness_without_exact_evaluator(self, capsys):
        code, _, err = run(capsys, "find-witness", "--seq", "table:1,1,1")
        assert code == 2
        assert "no exact evaluator" in err

    @pytest.mark.parametrize("bound", ["--max-prefix", "--max-cycle"])
    def test_monotone_refusal_counts_no_further_than_the_budget(self, capsys,
                                                               bound):
        # Summing the 2**n words of every length up to 100000 exactly
        # took 20 s before the budget refused them.
        start = time.perf_counter()
        code, out, err = run(capsys, "monotone", "--seq", "mean", bound,
                             "100000")
        assert code == 3
        assert out == "" and "budget" in err
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("bound", [["--max-prefix", "-1"],
                                       ["--max-cycle", "0"],
                                       ["--max-prefix", "0"]])
    def test_monotone_empty_search_bounds(self, capsys, bound):
        code, out, _ = run(capsys, "monotone", "--seq", "mean", *bound)
        assert code == 2
        assert out == ""


class TestStructuredOutput:
    def test_round_trip_rationals(self, capsys):
        code, out, _ = run(capsys, "solve", "--game", "builtin:two-branch",
                           "--seq", "geom:2", "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert F(doc["maximin"]) == F(4, 3)
        assert F(doc["minimax"]) == F(4, 3)
        assert doc["saddle"] is True

    def test_eval_word_structured(self, capsys):
        code, out, _ = run(capsys, "eval-word", "--seq", "geom:2",
                           "--word", "cycle=1,2,0,4", "--format", "structured")
        doc = json.loads(out)
        assert F(doc["exact"]) == F(14, 15)

    def test_byte_identical_repeat_runs(self, capsys):
        _, out1, _ = run(capsys, "verify-paper", "--format", "structured")
        _, out2, _ = run(capsys, "verify-paper", "--format", "structured")
        assert out1 == out2

    def test_parser_built_once_per_process(self, capsys):
        cli.build_parser.cache_clear()
        argv = ("check-memoryless", "--game", "builtin:two-branch", "--seq",
                "geom:2", "--format", "structured")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_timing_adds_only_the_elapsed_seconds(self, capsys):
        argv = ("solve", "--game", "builtin:two-branch", "--seq", "geom:2",
                "--format", "structured")
        _, plain, _ = run(capsys, *argv)
        code, timed, _ = run(capsys, *argv, "--timing")
        assert code == 0
        doc, timed_doc = json.loads(plain), json.loads(timed)
        assert "elapsed_seconds" not in doc
        assert list(timed_doc) == list(doc) + ["elapsed_seconds"]
        elapsed = timed_doc.pop("elapsed_seconds")
        assert isinstance(elapsed, float) and elapsed >= 0
        assert timed_doc == doc

    def test_seed_is_recorded(self, capsys):
        _, out, _ = run(capsys, "solve", "--game", "builtin:two-branch",
                        "--seq", "mean", "--format", "structured",
                        "--seed", "7")
        assert json.loads(out)["seed"] == 7

    def test_check_memoryless_structured(self, capsys):
        code, out, _ = run(capsys, "check-memoryless", "--game",
                           "builtin:two-branch", "--seq", "geom:2",
                           "--format", "structured")
        doc = json.loads(out)
        assert doc["verdict"] == "witness-found"
        assert F(doc["witness"]["deviating_payoff"]) == F(14, 15)
        assert doc["bounds"]["mem_bound"] == 2


@pytest.mark.parametrize("argv, function, name", [
    (("solve", "--game", "g", "--seq", "s"), solver.solve_enumerative,
     "budget"),
    (("check-memoryless", "--game", "g", "--seq", "s"),
     solver.check_memoryless, "mem_bound"),
    (("check-memoryless", "--game", "g", "--seq", "s"),
     solver.check_memoryless, "budget"),
    (("find-witness", "--seq", "s"), solver.find_witness_sequence_failure,
     "mem_bound"),
    (("find-witness", "--seq", "s"), solver.find_witness_sequence_failure,
     "budget"),
    (("monotone", "--seq", "s"), solver.monotone_falsify, "budget"),
], ids=["solve-budget", "check-mem-bound", "check-budget",
        "find-witness-mem-bound", "find-witness-budget", "monotone-budget"])
def test_cli_default_is_the_library_default(argv, function, name):
    args = cli.build_parser().parse_args(argv)
    assert (getattr(args, name)
            == inspect.signature(function).parameters[name].default)


class TestVerifyPaper:
    def test_overall_pass(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        assert "overall: pass" in out
        assert out.count("pass") >= 20

    def test_structured_lists_checks(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--format", "structured")
        doc = json.loads(out)
        assert doc["overall"] is True
        assert len(doc["checks"]) >= 20

    def test_module_entry_point(self):
        # What `python -m wavg` runs, in a fresh interpreter.
        done = subprocess.run(
            [sys.executable, "-m", "wavg", "verify-paper", "--format",
             "structured"], capture_output=True, timeout=60, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout == (GOLDEN / "verify-paper.json").read_bytes()

    def test_corrupted_evaluator_fails_counterexample_check(
            self, capsys, monkeypatch):
        real = wavg.payoff._Shape.numerators

        def corrupted(kernel, rewards):
            return [w + v for w, v in zip(real(kernel, rewards), kernel.dens)]

        monkeypatch.setattr(wavg.payoff._Shape, "numerators", corrupted)
        code, out, _ = run(capsys, "verify-paper")
        assert code == 1
        assert "overall: FAIL" in out
        failing = [line for line in out.splitlines()
                   if line.startswith("FAIL")]
        assert any("14/15" in line for line in failing)
