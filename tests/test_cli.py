"""CLI surface: commands, exit codes, structured output."""

import json
import time
from fractions import Fraction

import pytest

import wavg.payoff
from wavg import serialize_game, solver, two_branch_gadget
from wavg.cli import main

F = Fraction


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

    def test_limsup_flag(self, capsys):
        code, out, _ = run(capsys, "eval-word", "--seq", "geom:2",
                           "--word", "cycle=1,2,0,4", "--limsup")
        assert code == 0
        assert out.strip() == "37/15"


class TestSolve:
    def test_builtin_two_branch(self, capsys):
        code, out, _ = run(capsys, "solve", "--game", "builtin:two-branch",
                           "--seq", "geom:2")
        assert code == 0
        assert "maximin  = 4/3" in out
        assert "minimax  = 4/3" in out

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

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("solver fault")

        monkeypatch.setattr(solver, "check_memoryless", broken)
        code, out, err = run(capsys, "check-memoryless", "--game",
                             "builtin:two-branch", "--seq", "geom:2")
        assert code == 4
        assert out == ""
        assert "internal error" in err and "solver fault" in err


class TestFindWitnessAndMonotone:
    def test_find_witness(self, capsys):
        code, out, _ = run(capsys, "find-witness", "--seq",
                           "blocks:1,1/2;mu=1/8")
        assert code == 1
        assert "151/48" in out

    def test_find_witness_absent(self, capsys):
        code, out, _ = run(capsys, "find-witness", "--seq", "disc:1/2")
        assert code == 0
        assert "found = False" in out

    def test_monotone_witness(self, capsys):
        code, out, _ = run(capsys, "monotone", "--seq", "blocks:2,1;mu=1")
        assert code == 1
        assert "2/3" in out

    def test_monotone_absent(self, capsys):
        code, out, _ = run(capsys, "monotone", "--seq", "mean")
        assert code == 0


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

    def test_check_memoryless_structured(self, capsys):
        code, out, _ = run(capsys, "check-memoryless", "--game",
                           "builtin:two-branch", "--seq", "geom:2",
                           "--format", "structured")
        doc = json.loads(out)
        assert doc["verdict"] == "witness-found"
        assert F(doc["witness"]["deviating_payoff"]) == F(14, 15)
        assert doc["bounds"]["mem_bound"] == 2


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

    def test_corrupted_evaluator_fails_counterexample_check(
            self, capsys, monkeypatch):
        real = wavg.payoff._tail_limits

        def corrupted(coeffs, symbols, head, num, den):
            return [(w + v, v) for w, v in real(coeffs, symbols, head, num,
                                                den)]

        monkeypatch.setattr(wavg.payoff, "_tail_limits", corrupted)
        code, out, _ = run(capsys, "verify-paper")
        assert code == 1
        assert "overall: FAIL" in out
        failing = [line for line in out.splitlines()
                   if line.startswith("FAIL")]
        assert any("14/15" in line for line in failing)
