"""Command-line interface.

Commands: eval-word, solve, check-memoryless, find-witness, monotone,
verify-paper.  Each command returns its result, as (exit code, structured
document, text lines), and ``main`` renders it once, in the format asked.
Exit codes: 0 success / no witness, 1 witness found (or failed
verification), 2 input error, 3 budget exceeded, 4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from . import games, payoff, sequences, solver, verify
from .errors import BudgetExceededError, InputError, UnsupportedSequenceError
from .words import format_lasso, parse_lasso

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _rewards(args: str, count: int) -> list:
    """Exactly ``count`` comma-separated rationals of a builtin game spec."""
    rewards = [sequences.parse_rational(t) for t in args.split(",")]
    if len(rewards) != count:
        raise InputError(f"expected {count} comma-separated rewards, "
                         f"got {len(rewards)} in {args!r}")
    return rewards


def _two_branch(args: str) -> games.GameGraph:
    if args:
        raise InputError(
            f"builtin:two-branch takes no arguments, got {args!r}")
    return games.two_branch_gadget()


def _spike(args: str) -> games.GameGraph:
    try:
        k = int(args)
    except ValueError:
        raise InputError(
            f"builtin:spike takes an integer, got {args!r}") from None
    return games.cycle_choice_gadget(k)


_BUILTIN_GADGETS = {
    "two-branch": _two_branch,
    "loops": lambda args: games.loops_gadget(
        [sequences.parse_rational(t) for t in args.split(",")]),
    "escape": lambda args: games.escape_gadget(sequences.parse_rational(args)),
    "detour": lambda args: games.detour_gadget(*_rewards(args, 3)),
    "spike": _spike,
}


def _load_game(spec: str) -> games.GameGraph:
    if spec.startswith("builtin:"):
        rest = spec[len("builtin:"):]
        name, _, args = rest.partition(":")
        if name not in _BUILTIN_GADGETS:
            raise InputError(
                f"unknown builtin game {name!r}; available: "
                + ", ".join(sorted(_BUILTIN_GADGETS)))
        return _BUILTIN_GADGETS[name](args)
    path = Path(spec)
    if not path.exists():
        raise InputError(f"game file not found: {spec}")
    return games.parse_game(path.read_text(encoding="utf-8"))


def _instance_hash(*parts: str) -> str:
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8"))
    return digest.hexdigest()[:16]


def _mode(args) -> str:
    return payoff.LIMSUP if args.limsup else args.mode


def _deviation_doc(witness) -> dict:
    """Structured form of a DeviationWitness."""
    return {
        "description": witness.description,
        "deviating_payoff": str(witness.deviating_payoff),
        "memoryless_payoff": str(witness.memoryless_payoff),
    }


def _deviation_lines(witness) -> list[str]:
    """Text form of a DeviationWitness."""
    return [f"deviation: {witness.description}",
            f"deviating payoff  = {witness.deviating_payoff}",
            f"memoryless payoff = {witness.memoryless_payoff}"]


def _monotone_doc(witness) -> dict:
    """Structured form of a MonotonicityWitness."""
    return {
        "x": [str(a) for a in witness.x],
        "y": [str(a) for a in witness.y],
        "u": format_lasso(witness.u),
        "v": format_lasso(witness.v),
        "values": [str(witness.phi_xu), str(witness.phi_xv),
                   str(witness.phi_yu), str(witness.phi_yv)],
    }


def _monotone_words(doc: dict) -> str:
    """The words of a MonotonicityWitness, in text, from its _monotone_doc."""
    return (f"x=({','.join(doc['x'])}) y=({','.join(doc['y'])}) "
            f"u={doc['u']} v={doc['v']}")


def cmd_eval_word(args) -> tuple[int, dict, list[str]]:
    seq = sequences.parse_sequence(args.seq)
    word = parse_lasso(args.word)
    mode = _mode(args)
    if isinstance(seq, sequences.RawCoeffTable) or args.horizon is not None:
        horizon = args.horizon
        if horizon is None:
            horizon = len(seq.values)
        value = payoff.eval_approx(seq, word, horizon, mode)
    else:
        try:
            value = payoff.eval_exact(seq, word, mode)
        except UnsupportedSequenceError as exc:
            raise InputError(f"{exc}; pass --horizon to evaluate approximately")
    doc = {
        "command": "eval-word",
        "sequence": args.seq,
        "word": format_lasso(word),
        "mode": mode,
        "seed": args.seed,
    }
    if value.exact is not None:
        doc["exact"] = str(value.exact)
    else:
        doc["bracket"] = [str(value.bracket[0]), str(value.bracket[1])]
        doc["horizon"] = value.horizon_used
    return EXIT_OK, doc, [str(value)]


def cmd_solve(args) -> tuple[int, dict, list[str]]:
    g = _load_game(args.game)
    seq = sequences.parse_sequence(args.seq)
    mode = _mode(args)
    report = solver.solve_enumerative(g, seq, mode=mode, budget=args.budget)
    doc = {
        "command": "solve",
        "instance": _instance_hash(games.serialize_game(g), args.seq, mode),
        "sequence": args.seq,
        "mode": mode,
        "maximin": str(report.maximin.exact),
        "minimax": str(report.minimax.exact),
        "saddle": report.saddle,
        "p1_optimal": report.p1_optimal.describe(),
        "p2_optimal": report.p2_optimal.describe(),
        "bounds": {"budget": args.budget},
        "seed": args.seed,
    }
    lines = [f"maximin  = {doc['maximin']}",
             f"minimax  = {doc['minimax']}",
             f"saddle   = {report.saddle}",
             f"p1 optimal: {doc['p1_optimal']}",
             f"p2 optimal: {doc['p2_optimal']}"]
    return EXIT_OK, doc, lines


def cmd_check_memoryless(args) -> tuple[int, dict, list[str]]:
    g = _load_game(args.game)
    seq = sequences.parse_sequence(args.seq)
    mode = _mode(args)
    verdict = solver.check_memoryless(g, seq, mem_bound=args.mem_bound,
                                      mode=mode, budget=args.budget)
    witness = verdict.witness
    doc = {
        "command": "check-memoryless",
        "instance": _instance_hash(games.serialize_game(g), args.seq, mode),
        "sequence": args.seq,
        "mode": mode,
        "verdict": verdict.kind.value,
        "bounds": {"mem_bound": verdict.mem_bound, "budget": verdict.budget},
        "seed": args.seed,
    }
    lines = [f"verdict = {verdict.kind.value}"]
    if witness is not None:
        doc["witness"] = _deviation_doc(witness)
        lines += _deviation_lines(witness)
    code = (EXIT_WITNESS if verdict.kind is solver.VerdictKind.WITNESS_FOUND
            else EXIT_OK)
    return code, doc, lines


def cmd_find_witness(args) -> tuple[int, dict, list[str]]:
    seq = sequences.parse_sequence(args.seq)
    mode = _mode(args)
    report = solver.find_witness_sequence_failure(
        seq, mem_bound=args.mem_bound, budget=args.budget, mode=mode)
    doc = {
        "command": "find-witness",
        "sequence": args.seq,
        "mode": mode,
        "found": report.found,
        "tried": report.tried,
        "bounds": {"mem_bound": args.mem_bound, "budget": args.budget},
        "seed": args.seed,
    }
    lines = [f"found = {report.found}"]
    lines += [f"  tried {line}" for line in report.tried]
    if report.verdict is not None and report.verdict.witness is not None:
        doc["game"] = games.serialize_game(report.game)
        doc["witness"] = _deviation_doc(report.verdict.witness)
        lines += ["witness game:", *doc["game"].splitlines(),
                  *_deviation_lines(report.verdict.witness)]
    if report.monotonicity is not None:
        w = doc["monotonicity_witness"] = _monotone_doc(report.monotonicity)
        lines += [f"monotonicity witness: {_monotone_words(w)}",
                  "values: {} < {} but {} > {}".format(*w["values"])]
    return EXIT_WITNESS if report.found else EXIT_OK, doc, lines


def cmd_monotone(args) -> tuple[int, dict, list[str]]:
    seq = sequences.parse_sequence(args.seq)
    mode = _mode(args)
    alphabet = [sequences.parse_rational(t) for t in args.alphabet.split(",")]
    witness = solver.monotone_falsify(
        seq, alphabet, args.max_prefix, args.max_cycle, mode=mode,
        budget=args.budget, nonempty_only=args.nonempty)
    doc = {
        "command": "monotone",
        "sequence": args.seq,
        "mode": mode,
        "alphabet": [str(a) for a in alphabet],
        "max_prefix": args.max_prefix,
        "max_cycle": args.max_cycle,
        "witness_found": witness is not None,
        "seed": args.seed,
    }
    if witness is None:
        return EXIT_OK, doc, ["no monotonicity violation in the searched space"]
    w = doc["witness"] = _monotone_doc(witness)
    return EXIT_WITNESS, doc, [
        f"witness: {_monotone_words(w)}",
        "phi(xu)={} < phi(xv)={} but phi(yu)={} > phi(yv)={}".format(
            *w["values"])]


def cmd_verify_paper(args) -> tuple[int, dict, list[str]]:
    report = verify.verify_paper()
    doc = {
        "command": "verify-paper",
        "overall": report.overall,
        "checks": [
            {"name": c.name, "expected": c.expected, "actual": c.actual,
             "pass": c.passed}
            for c in report.checks
        ],
        "seed": args.seed,
    }
    width = max(len(c.name) for c in report.checks)
    lines = []
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        line = f"{status}  {c.name.ljust(width)}  expected {c.expected}"
        if not c.passed:
            line += f"  got {c.actual}"
        lines.append(line)
    passed = sum(c.passed for c in report.checks)
    lines.append(f"overall: {'pass' if report.overall else 'FAIL'} "
                 f"({passed}/{len(report.checks)})")
    return EXIT_OK if report.overall else EXIT_WITNESS, doc, lines


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="wavg",
        description="Weighted-average payoff games workbench")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", choices=[payoff.LIMINF, payoff.LIMSUP],
                        default=payoff.LIMINF,
                        help="evaluator mode (default liminf)")
    common.add_argument("--limsup", action="store_true",
                        help="shorthand for --mode limsup")
    common.add_argument("--format", choices=["text", "structured"],
                        default="text", help="output format")
    common.add_argument("--seed", type=int, default=None,
                        help="seed recorded in reports")
    common.add_argument("--timing", action="store_true",
                        help="include elapsed time in structured output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-word", parents=[common],
                       help="evaluate a payoff on a lasso word")
    p.add_argument("--seq", required=True, help="sequence spec")
    p.add_argument("--word", required=True,
                   help="lasso spec, e.g. prefix=1;cycle=0 or cycle=1,2,0,4")
    p.add_argument("--horizon", type=int, default=None,
                   help="bracket via truncation at this horizon")
    p.set_defaults(func=cmd_eval_word)

    p = sub.add_parser("solve", parents=[common],
                       help="solve a game over memoryless strategies")
    p.add_argument("--game", required=True,
                   help="game file path or builtin:<name>[:<args>]")
    p.add_argument("--seq", required=True)
    p.add_argument("--budget", type=int, default=500_000)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check-memoryless", parents=[common],
                       help="look for finite-memory deviations")
    p.add_argument("--game", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--mem-bound", type=int, default=2)
    p.add_argument("--budget", type=int, default=2_000_000)
    p.set_defaults(func=cmd_check_memoryless)

    p = sub.add_parser("find-witness", parents=[common],
                       help="search gadget families for a memoryless failure")
    p.add_argument("--seq", required=True)
    p.add_argument("--mem-bound", type=int, default=2)
    p.add_argument("--budget", type=int, default=64)
    p.set_defaults(func=cmd_find_witness)

    p = sub.add_parser("monotone", parents=[common],
                       help="search for a monotonicity violation")
    p.add_argument("--seq", required=True)
    p.add_argument("--alphabet", default="0,1",
                   help="comma-separated rationals (default 0,1)")
    p.add_argument("--max-prefix", type=int, default=2)
    p.add_argument("--max-cycle", type=int, default=2)
    p.add_argument("--budget", type=int, default=10_000_000)
    p.add_argument("--nonempty", action="store_true",
                   help="require nonempty prefixes in witnesses")
    p.set_defaults(func=cmd_monotone)

    p = sub.add_parser("verify-paper", parents=[common],
                       help="run the built-in verification suite")
    p.set_defaults(func=cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        code, doc, lines = args.func(args)
        if args.format == "structured":
            if args.timing:
                doc["elapsed_seconds"] = round(time.monotonic() - start, 6)
            print(json.dumps(doc, indent=2, sort_keys=False))
        else:
            print("\n".join(lines))
        return code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InputError, UnsupportedSequenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
