"""The benchmark's workloads: seeded inputs, one pass of operations, and
the checks on what the operations return.

Every workload is built by ``build(w, seed, inputs_dir)`` from a freshly
imported ``wavg`` module ``w``.  Building makes the inputs from the seed
as text, writes them under ``inputs_dir``, reads them back and parses them
with ``wavg``'s own parsers, so that set-up time covers building, writing
and parsing.  The result is a list of :class:`Op`: library calls first,
then commands issued through ``wavg.cli.main``.  ``check(w, ops, values)``
then judges the values of one pass against computations made apart from
the program (:mod:`reference`) or against properties the method must
have, and names the operations that failed.

Shapes are fixed and only weights, owners, labels, symbols and edge
order come from the seed, so every seed asks for the same amount of
search; the seed-independent rows are the paper's north-star commands
and the two faults kept as failing operations.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

MEM_BOUND = 2


@dataclass
class Op:
    """One operation of a pass; ``meta`` holds what its check needs."""

    label: str
    call: Callable[[], object]
    cli: bool = False
    meta: dict = field(default_factory=dict)


@dataclass
class Failure:
    """An operation that raised instead of returning."""

    error: BaseException

    def __str__(self) -> str:
        return f"{type(self.error).__name__}: {self.error}"


@dataclass
class CliRun:
    exit_code: int
    stdout: str
    stderr: str


def run_cli(w, argv: list) -> CliRun:
    """Issue one ``wavg`` command in-process and capture its output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = w.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
    return CliRun(code, out.getvalue(), err.getvalue())


def cli_op(w, argv: list, **meta) -> Op:
    argv = list(argv) + ["--format", "structured"]
    return Op(" ".join(argv), lambda: run_cli(w, argv), cli=True, meta=meta)


def verify_paper_op(w) -> Op:
    return cli_op(w, ["verify-paper"], verify=True)


def write_inputs(inputs_dir: Path, manifest: dict, files=None) -> dict:
    """Write the generated inputs and read the manifest back."""
    inputs_dir.mkdir(parents=True, exist_ok=True)
    for name, text in (files or {}).items():
        (inputs_dir / name).write_text(text, encoding="utf-8")
    path = inputs_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return json.loads(path.read_text(encoding="utf-8"))


def weight(rng: random.Random) -> int:
    return rng.randint(-20, 20)


# ---------------------------------------------------------------------------
# Digests: comparable forms of operation results, so later passes can be
# required to return exactly what the checked pass returned.
# ---------------------------------------------------------------------------

def _witness_digest(witness):
    if witness is None:
        return None
    lasso = None if witness.lasso is None else (witness.lasso.prefix,
                                                witness.lasso.cycle)
    return (witness.description, witness.deviating_payoff,
            witness.memoryless_payoff, witness.player, lasso)


def _monotone_digest(m):
    if m is None:
        return None
    return (m.x, m.y, m.u.cycle, m.v.cycle, m.phi_xu, m.phi_xv, m.phi_yu,
            m.phi_yv)


def digest(value):
    """A plain, comparable rendering of an operation's result."""
    kind = type(value).__name__
    if isinstance(value, Failure):
        return ("failure", str(value))
    if isinstance(value, CliRun):
        return (value.exit_code, value.stdout, value.stderr)
    if kind == "Verdict":
        return (value.kind.value, _witness_digest(value.witness))
    if kind == "SolveReport":
        return (value.maximin.exact, value.minimax.exact, value.saddle,
                value.p1_optimal.describe(), value.p2_optimal.describe(),
                tuple(tuple(row) for row in value.table))
    if kind == "PayoffValue":
        return (value.exact, value.bracket, value.horizon_used)
    if kind == "MonotonicityWitness" or value is None:
        return _monotone_digest(value)
    if kind == "SequenceWitnessReport":
        verdict = value.verdict
        return (value.found, tuple(value.tried),
                None if verdict is None else digest(verdict),
                _monotone_digest(value.monotonicity))
    raise TypeError(f"no digest for {kind}")


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------

def check_horizon(seq, prefix_len: int, cycle_len: int) -> int:
    """A horizon ``eval_approx`` accepts for this sequence/word pair."""
    settled = max(seq.prefix_len, prefix_len)
    return settled + 3 * math.lcm(seq.period, cycle_len) + 24


def in_bracket(w, seq, prefix, cycle, value, mode="liminf") -> bool:
    word = w.LassoWord(tuple(prefix), tuple(cycle))
    horizon = check_horizon(seq, len(prefix), len(cycle))
    lo, hi = w.eval_approx(seq, word, horizon, mode).bracket
    return lo <= value <= hi


def deviation_errors(w, game, seq, player, prefix, cycle, deviating,
                     memoryless, opponent_choice) -> list:
    """The three checks every deviation witness must pass."""
    errors = []
    max_len = len(game.states) * MEM_BOUND
    if not ref.realizable(game, player, opponent_choice, prefix, cycle,
                          max_len):
        errors.append("witness lasso is not a play of the game within "
                      f"{max_len} steps")
    if not in_bracket(w, seq, prefix, cycle, deviating):
        errors.append("witness payoff lies outside its eval_approx bracket")
    if not ref.beats(player, deviating, memoryless):
        errors.append(f"witness payoff {deviating} does not beat the "
                      f"memoryless {memoryless} for player {player}")
    return errors


def verdict_errors(w, game, seq, verdict) -> list:
    """Checks on a library ``check_memoryless`` verdict."""
    if verdict.kind is not w.VerdictKind.WITNESS_FOUND:
        return []
    wit = verdict.witness
    if wit.lasso is None:  # memoryless maximin below minimax
        if not wit.deviating_payoff > wit.memoryless_payoff:
            return ["non-saddle witness with minimax <= maximin"]
        return []
    return deviation_errors(w, game, seq, wit.player, wit.lasso.prefix,
                            wit.lasso.cycle, wit.deviating_payoff,
                            wit.memoryless_payoff, wit.opponent.choice)


def cli_witness_errors(w, game, seq, doc) -> list:
    """Checks on a deviation witness printed by the CLI.

    The gadgets the CLI rows use are one-player games, so the reported
    opponent has no choices.
    """
    wit = doc["witness"]
    deviating = Fraction(wit["deviating_payoff"])
    memoryless = Fraction(wit["memoryless_payoff"])
    player, lasso_text, opponent = ref.parse_witness_description(
        wit["description"])
    if opponent != "(no choices)" or game.owned_states(3 - player):
        return [f"expected a one-player gadget, got opponent [{opponent}]"]
    word = w.parse_lasso(lasso_text)
    return deviation_errors(w, game, seq, player, word.prefix, word.cycle,
                            deviating, memoryless, {})


def monotone_errors(w, seq, m) -> list:
    """A monotonicity witness: values in their brackets, in the order
    phi(xu) <= phi(xv) and phi(yu) > phi(yv)."""
    errors = []
    for prefix, cycle, value in ((m.x, m.u.cycle, m.phi_xu),
                                 (m.x, m.v.cycle, m.phi_xv),
                                 (m.y, m.u.cycle, m.phi_yu),
                                 (m.y, m.v.cycle, m.phi_yv)):
        if not in_bracket(w, seq, prefix, cycle, value):
            errors.append("monotonicity witness value outside its bracket")
    if not (m.phi_xu <= m.phi_xv and m.phi_yu > m.phi_yv):
        errors.append("monotonicity witness values are not in the required "
                      "order")
    return errors


def verify_paper_errors(run: CliRun) -> list:
    doc = json.loads(run.stdout)
    failing = [c["name"] for c in doc["checks"] if not c["pass"]]
    if failing or not doc["overall"] or run.exit_code != 0:
        return [f"verify-paper fails: {failing}"]
    return []


def split_failures(ops, values, known_fault) -> tuple[list, set]:
    """Failed operations; a failure ``known_fault`` does not accept is
    also an error, since the workloads are chosen so none should fail."""
    errors, failed = [], set()
    for i, (op, value) in enumerate(zip(ops, values)):
        if isinstance(value, Failure):
            failed.add(i)
            if not known_fault(op, value):
                errors.append(f"{op.label}: unexpected {value}")
        elif isinstance(value, CliRun) and value.exit_code not in (0, 1):
            failed.add(i)
            errors.append(f"{op.label}: exit {value.exit_code} "
                          f"{value.stderr.strip()}")
    return errors, failed


def no_known_fault(op, value) -> bool:
    return False


# ---------------------------------------------------------------------------
# deviation-search
# ---------------------------------------------------------------------------

DS_CLASSES = ("mean", "disc:1/2", "blocks:2,1;mu=1", "geom:2")
DS_GAMES_PER_CLASS = 30
DS_SIDE = 2  # states per player in the bipartite arena
DS_NORTH_STAR = (
    ("builtin:spike:4", "mean"),
    ("builtin:spike:4", "disc:1/2"),
    ("builtin:spike:3", "blocks:2,1;mu=1"),
    ("builtin:spike:3", "geom:2"),
    ("builtin:two-branch", "geom:2"),
    ("builtin:detour:4,1,3", "blocks:1,1/2;mu=1/8"),
)
MEMORYLESS_CLASSES = ("mean", "disc:1/2")


def arena_text(rng: random.Random) -> str:
    """A two-player game on the complete bipartite arena: player 1 owns
    a0.., player 2 owns b0.., every state has an edge to every state of
    the other side.  The seed picks edge order and weights."""
    lines = [f"state a{i} 1" for i in range(DS_SIDE)]
    lines += [f"state b{i} 2" for i in range(DS_SIDE)]
    lines.append("start a0")
    for mine, other in (("a", "b"), ("b", "a")):
        for i in range(DS_SIDE):
            for j in rng.sample(range(DS_SIDE), DS_SIDE):
                lines.append(f"edge {mine}{i} {other}{j} {weight(rng)}")
    return "\n".join(lines) + "\n"


def builtin_game(w, spec: str):
    name, _, args = spec[len("builtin:"):].partition(":")
    if name == "spike":
        return w.cycle_choice_gadget(int(args))
    if name == "two-branch":
        return w.two_branch_gadget()
    if name == "detour":
        return w.detour_gadget(*(Fraction(a) for a in args.split(",")))
    raise ValueError(spec)


def build_deviation_search(w, seed: int, inputs_dir: Path) -> list:
    rng = random.Random(seed)
    manifest = {"games": [[spec, arena_text(rng)] for spec in DS_CLASSES
                          for _ in range(DS_GAMES_PER_CLASS)]}
    manifest = write_inputs(inputs_dir, manifest)
    seqs = {spec: w.parse_sequence(spec) for spec in DS_CLASSES}
    for seq in seqs.values():
        w.analyze(seq)
    ops = []
    for spec, text in manifest["games"]:
        game, seq = w.parse_game(text), seqs[spec]
        ops.append(Op(f"check-memoryless {spec}",
                      lambda g=game, s=seq: w.check_memoryless(g, s, MEM_BOUND),
                      meta={"game": game, "seq": seq, "spec": spec}))
    for game_spec, spec in DS_NORTH_STAR:
        ops.append(cli_op(w, ["check-memoryless", "--game", game_spec,
                              "--seq", spec, "--mem-bound", str(MEM_BOUND)],
                          game=builtin_game(w, game_spec),
                          seq=w.parse_sequence(spec), spec=spec,
                          game_spec=game_spec))
    ops.append(verify_paper_op(w))
    return ops


def check_deviation_search(w, ops, values) -> tuple[list, set]:
    errors, failed = split_failures(ops, values, no_known_fault)
    for i, (op, value) in enumerate(zip(ops, values)):
        if i in failed:
            continue
        meta = op.meta
        if meta.get("verify"):
            errors += verify_paper_errors(value)
            continue
        spec = meta["spec"]
        if op.cli:
            doc = json.loads(value.stdout)
            found = doc["verdict"] == "witness-found"
            if value.exit_code != (1 if found else 0):
                errors.append(f"{op.label}: exit {value.exit_code} for "
                              f"verdict {doc['verdict']}")
            if found:
                errors += [f"{op.label}: {e}" for e in cli_witness_errors(
                    w, meta["game"], meta["seq"], doc)]
            if meta["game_spec"] == "builtin:two-branch":
                wit = doc.get("witness", {})
                if (wit.get("deviating_payoff"), wit.get("memoryless_payoff")) \
                        != ("14/15", "4/3"):
                    errors.append(f"{op.label}: expected 14/15 against 4/3")
        else:
            found = value.kind is w.VerdictKind.WITNESS_FOUND
            errors += [f"{op.label}: {e}" for e in verdict_errors(
                w, meta["game"], meta["seq"], value)]
        if found and spec in MEMORYLESS_CLASSES:
            errors.append(f"{op.label}: witness-found under {spec}, which "
                          "has memoryless optimal strategies")
    return errors, failed


# ---------------------------------------------------------------------------
# profile-table
# ---------------------------------------------------------------------------

PT_CLASSES = ("mean", "disc:1/2", "blocks:2,1;mu=1", "geom:2",
              "blocks:1,1/2;mu=1/8")
PT_STATES = 8
PT_SHAPES = ((1, 2, 5), (0, 3, 4))  # circulant offsets: out-degree 3
PT_CLI_CLASSES = ("mean", "blocks:1,1/2;mu=1/8")
PT_SAMPLED_PROFILES = 12
MEAN_ITERATIONS = 400
DISC_ITERATIONS = 60


def circulant_text(rng: random.Random, offsets) -> str:
    """A game on the circulant graph i -> i+o (mod n): the seed relabels
    the states, splits them evenly between the players, orders each
    state's edges and picks the weights."""
    n = PT_STATES
    labels = list(range(n))
    rng.shuffle(labels)
    owners = [1] * (n // 2) + [2] * (n - n // 2)
    rng.shuffle(owners)
    lines = [f"state q{i} {owners[i]}" for i in range(n)]
    lines.append("start q0")
    for i in range(n):
        targets = [(labels.index(i) + o) % n for o in offsets]
        rng.shuffle(targets)
        for t in targets:
            lines.append(f"edge q{i} q{labels[t]} {weight(rng)}")
    return "\n".join(lines) + "\n"


def build_profile_table(w, seed: int, inputs_dir: Path) -> list:
    rng = random.Random(seed)
    texts = [circulant_text(rng, offsets) for offsets in PT_SHAPES]
    files = {f"game-{i}.game": text for i, text in enumerate(texts)}
    manifest = write_inputs(inputs_dir, {"games": sorted(files)}, files)
    games = [w.parse_game((inputs_dir / name).read_text(encoding="utf-8"))
             for name in manifest["games"]]
    seqs = {spec: w.parse_sequence(spec) for spec in PT_CLASSES}
    for seq in seqs.values():
        w.analyze(seq)
    ops = []
    for index, game in enumerate(games):
        for spec, seq in seqs.items():
            ops.append(Op(f"solve game-{index} {spec}",
                          lambda g=game, s=seq: w.solve_enumerative(g, s),
                          meta={"game": game, "seq": seq, "spec": spec,
                                "index": index}))
    for spec in PT_CLI_CLASSES:
        ops.append(cli_op(w, ["solve", "--game",
                              str(inputs_dir / manifest["games"][0]),
                              "--seq", spec], spec=spec, index=0))
    ops.append(verify_paper_op(w))
    return ops


def solve_errors(w, game, seq, spec, report) -> list:
    errors = []
    table = report.table
    p1s, p2s = report.p1_strategies, report.p2_strategies
    profiles = math.prod(len(game.out_edges(q)) for q in game.states)
    if len(p1s) * len(p2s) != profiles or len(table) != len(p1s):
        errors.append("table does not cover every memoryless profile")
        return errors
    row_mins = [min(row) for row in table]
    col_maxs = [max(row[j] for row in table) for j in range(len(p2s))]
    maximin, minimax = report.maximin.exact, report.minimax.exact
    if (max(row_mins), min(col_maxs)) != (maximin, minimax):
        errors.append("maximin/minimax differ from the table's")
    if not maximin <= minimax:
        errors.append("maximin exceeds minimax")
    i = next(k for k, s in enumerate(p1s) if s is report.p1_optimal)
    j = next(k for k, s in enumerate(p2s) if s is report.p2_optimal)
    if row_mins[i] != maximin or col_maxs[j] != minimax:
        errors.append("optimal strategies do not attain maximin/minimax")
    if spec in MEMORYLESS_CLASSES:
        if not report.saddle:
            errors.append(f"no memoryless saddle under {spec}")
        if spec == "mean":
            vi = w.value_iter_mean(game, MEAN_ITERATIONS)
        else:
            vi = w.value_iter_disc(game, Fraction(1, 2), DISC_ITERATIONS)
        if abs(vi.values[game.start] - maximin) > vi.error_bound:
            errors.append(f"value {maximin} outside value iteration's "
                          f"error bound under {spec}")
    # Spot-check table entries against plays extracted here.
    stride = max(1, profiles // PT_SAMPLED_PROFILES)
    for k in range(0, profiles, stride):
        r, c = divmod(k, len(p2s))
        choice = {**p1s[r].choice, **p2s[c].choice}
        prefix, cycle = ref.memoryless_play(game, choice)
        entry = table[r][c]
        if spec == "mean":
            expected_ok = entry == ref.cycle_average(cycle)
        elif spec == "disc:1/2":
            expected_ok = entry == ref.normalized_discounted(
                Fraction(1, 2), prefix, cycle)
        else:
            expected_ok = in_bracket(w, seq, prefix, cycle, entry)
        if not expected_ok:
            errors.append(f"table entry ({r},{c}) disagrees with its play")
    return errors


def check_profile_table(w, ops, values) -> tuple[list, set]:
    errors, failed = split_failures(ops, values, no_known_fault)
    solved = {}
    for i, (op, value) in enumerate(zip(ops, values)):
        if i in failed:
            continue
        meta = op.meta
        if meta.get("verify"):
            errors += verify_paper_errors(value)
        elif op.cli:
            doc = json.loads(value.stdout)
            lib = solved.get((meta["index"], meta["spec"]))
            if lib is None or (doc["maximin"], doc["minimax"]) != (
                    str(lib.maximin.exact), str(lib.minimax.exact)):
                errors.append(f"{op.label}: CLI and library values differ")
        else:
            solved[(meta["index"], meta["spec"])] = value
            errors += [f"{op.label}: {e}" for e in solve_errors(
                w, meta["game"], meta["seq"], meta["spec"], value)]
    return errors, failed


# ---------------------------------------------------------------------------
# word-sweep
# ---------------------------------------------------------------------------

WS_EVAL_CLASSES = ("mean", "disc:1/2", "disc:2/3", "blocks:2,1;mu=1",
                   "blocks:1,2,3;mu=1", "blocks:1,1/2;mu=1/8;prefix=3,1",
                   "geom:2", "geom:3", "geom:3/2")
WS_WORDS_PER_CLASS = 48
WS_BRACKET_EVERY = 4
WS_HORIZON = 160
WS_MONOTONE_CLASSES = ("mean", "disc:1/2", "geom:2")
# Fixed, not seeded: the sweep memoizes on tuples of Fractions, and since
# CPython hashes -1 and -2 alike, an alphabet holding both runs it about
# 40% slower, which made the workload's time depend on the seed.
WS_ALPHABET = (0, 1, 2)
WS_FALSIFIER_CLASSES = ("mean", "disc:1/2", "geom:2", "geom:3/2", "geom:3",
                        "blocks:2,1;mu=1", "blocks:1,1/2;mu=1/8")
# eval_exact has no closed form here; eval_approx pins the liminf to 3/14.
WS_UNSUPPORTED = ("blocks:1,2;mu=2", "cycle=1,0,0")
# Games with a deviation witness under every falsifier class but mean and
# disc:1/2: two-branch for geom, detour for the convergent blocks and
# spike:3 for the periodic ones.
WS_REFUTING_GADGETS = (
    lambda w: w.two_branch_gadget(),
    lambda w: w.two_branch_gadget((0, 1), (1, 0)),
    lambda w: w.detour_gadget(4, 1, 3),
    lambda w: w.cycle_choice_gadget(3),
)
# The kept fault: find_witness_sequence_failure misses the two-branch
# refutations of these classes.
WS_KEPT_FIND_WITNESS = ("geom:2", "geom:3/2", "geom:3")
WS_NORTH_STAR = (
    ["find-witness", "--seq", "blocks:1,1/2;mu=1/8"],
    ["monotone", "--seq", "blocks:2,1;mu=1", "--alphabet", "0,1",
     "--max-prefix", "2", "--max-cycle", "2"],
    ["eval-word", "--seq", "geom:2", "--word", "cycle=1,2,0,4"],
)


def symbol_text(rng: random.Random) -> str:
    return str(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))))


def word_text(rng: random.Random, index: int) -> str:
    """Lengths cycle with the index; the seed picks the symbols."""
    prefix = [symbol_text(rng) for _ in range(index % 4)]
    cycle = [symbol_text(rng) for _ in range(1 + index % 6)]
    text = "cycle=" + ",".join(cycle)
    return ("prefix=" + ",".join(prefix) + ";" + text) if prefix else text


def build_word_sweep(w, seed: int, inputs_dir: Path) -> list:
    rng = random.Random(seed)
    manifest = {
        "words": {spec: [word_text(rng, i) for i in range(WS_WORDS_PER_CLASS)]
                  for spec in WS_EVAL_CLASSES},
    }
    manifest = write_inputs(inputs_dir, manifest)
    specs = set(WS_EVAL_CLASSES) | set(WS_FALSIFIER_CLASSES) | {
        WS_UNSUPPORTED[0]}
    seqs = {spec: w.parse_sequence(spec) for spec in sorted(specs)}
    for seq in seqs.values():
        w.analyze(seq)
    ops = []
    for spec in WS_EVAL_CLASSES:
        seq = seqs[spec]
        for i, text in enumerate(manifest["words"][spec]):
            word = w.parse_lasso(text)
            mode = w.LIMINF if i % 2 == 0 else w.LIMSUP
            meta = {"seq": seq, "spec": spec, "word": word, "mode": mode}
            ops.append(Op(f"eval-exact {spec} {text} {mode}",
                          lambda s=seq, x=word, m=mode: w.eval_exact(s, x, m),
                          meta=dict(meta, kind="exact")))
            if i % WS_BRACKET_EVERY == 0:
                ops.append(Op(f"eval-approx {spec} {text} {mode}",
                              lambda s=seq, x=word, m=mode: w.eval_approx(
                                  s, x, WS_HORIZON, m),
                              meta=dict(meta, kind="bracket",
                                        exact_index=len(ops) - 1)))
    spec, text = WS_UNSUPPORTED
    word = w.parse_lasso(text)
    ops.append(Op(f"eval-exact {spec} {text}",
                  lambda s=seqs[spec], x=word: w.eval_exact(s, x),
                  meta={"seq": seqs[spec], "spec": spec, "word": word,
                        "mode": w.LIMINF, "kind": "exact"}))
    for spec in WS_MONOTONE_CLASSES:
        ops.append(Op(f"monotone {spec}",
                      lambda s=seqs[spec]: w.monotone_falsify(
                          s, WS_ALPHABET, 2, 2),
                      meta={"seq": seqs[spec], "spec": spec,
                            "kind": "monotone"}))
    for spec in WS_FALSIFIER_CLASSES:
        ops.append(Op(f"find-witness {spec}",
                      lambda s=seqs[spec]: w.find_witness_sequence_failure(
                          s, mem_bound=MEM_BOUND),
                      meta={"seq": seqs[spec], "spec": spec,
                            "kind": "find-witness"}))
    for argv in WS_NORTH_STAR:
        ops.append(cli_op(w, argv, seq=w.parse_sequence(argv[2]),
                          kind=argv[0]))
    ops.append(verify_paper_op(w))
    return ops


def unsupported_growing(op, value) -> bool:
    """The kept fault: no closed form for a growing ratio with a block
    longer than one."""
    seq = op.meta.get("seq")
    return (op.meta.get("kind") == "exact"
            and type(value.error).__name__ == "UnsupportedSequenceError"
            and seq.ratio > 1 and seq.period > 1)


def exact_errors(w, meta, value) -> list:
    """Independent checks on one eval_exact value."""
    seq, spec, word, mode = meta["seq"], meta["spec"], meta["word"], meta["mode"]
    errors = []
    if spec == "mean" and value != ref.cycle_average(word.cycle):
        errors.append("mean value is not the cycle average")
    if spec.startswith("disc:") and value != ref.normalized_discounted(
            seq.ratio, word.prefix, word.cycle):
        errors.append("discounted value is not the normalized discounted sum")
    if seq.ratio >= 1 and not seq.prefix and all(b > 0 for b in seq.block):
        # Divergent partial sums with positive weights: the prefix's
        # symbols wash out, and the value is an average of cycle symbols.
        zeroed = w.LassoWord((0,) * word.prefix_len, word.cycle)
        if w.eval_exact(seq, zeroed, mode).exact != value:
            errors.append("value depends on the prefix's symbols")
    if spec == "mean" or (seq.ratio > 1 and seq.period == 1):
        bare = w.LassoWord((), word.cycle)
        if w.eval_exact(seq, bare, mode).exact != value:
            errors.append("value depends on the prefix")
    if seq.ratio >= 1 and not min(word.cycle) <= value <= max(word.cycle):
        errors.append("value outside the cycle's minimum and maximum")
    if not in_bracket(w, seq, word.prefix, word.cycle, value, mode):
        errors.append("value outside its eval_approx bracket")
    return errors


def refutation(w, seq):
    """A checked deviation witness for ``seq`` on a known gadget, or None."""
    for make in WS_REFUTING_GADGETS:
        game = make(w)
        verdict = w.check_memoryless(game, seq, MEM_BOUND)
        if (verdict.kind is w.VerdictKind.WITNESS_FOUND
                and verdict.witness.lasso is not None
                and not verdict_errors(w, game, seq, verdict)):
            return verdict
    return None


def check_word_sweep(w, ops, values) -> tuple[list, set]:
    errors, failed = split_failures(ops, values, unsupported_growing)
    for i, (op, value) in enumerate(zip(ops, values)):
        if i in failed:
            continue
        meta = op.meta
        kind, seq, spec = meta.get("kind"), meta.get("seq"), meta.get("spec")
        if meta.get("verify"):
            errors += verify_paper_errors(value)
        elif op.cli:
            errors += [f"{op.label}: {e}" for e in cli_word_errors(
                w, meta, value)]
        elif kind == "exact":
            errors += [f"{op.label}: {e}" for e in exact_errors(
                w, meta, value.exact)]
        elif kind == "bracket":
            lo, hi = value.bracket
            paired = values[meta["exact_index"]]
            if not isinstance(paired, Failure) and not lo <= paired.exact <= hi:
                errors.append(f"{op.label}: exact value outside the bracket")
        elif kind == "monotone":
            if value is not None:
                errors.append(f"{op.label}: monotonicity witness under "
                              f"{spec}, whose prefixes act monotonically")
        elif kind == "find-witness":
            if value.found and spec in MEMORYLESS_CLASSES:
                errors.append(f"{op.label}: witness under {spec}, which has "
                              "memoryless optimal strategies")
            if value.monotonicity is not None:
                errors += [f"{op.label}: {e}" for e in monotone_errors(
                    w, seq, value.monotonicity)]
            if value.verdict is not None:
                errors += [f"{op.label}: {e}" for e in verdict_errors(
                    w, value.game, seq, value.verdict)]
            refuted = refutation(w, seq)
            if spec in MEMORYLESS_CLASSES:
                if refuted is not None:
                    errors.append(f"{op.label}: deviation witness under "
                                  f"{spec}")
            elif refuted is None:
                errors.append(f"{op.label}: no known gadget refutes {spec}")
            elif not value.found and spec in WS_KEPT_FIND_WITNESS:
                failed.add(i)
            elif not value.found:
                errors.append(f"{op.label}: {spec} is refuted by a gadget, "
                              "but no witness found")
    return errors, failed


def cli_word_errors(w, meta, run: CliRun) -> list:
    doc = json.loads(run.stdout)
    seq = meta["seq"]
    if meta["kind"] == "eval-word":
        return [] if doc["exact"] == "14/15" else ["expected 14/15"]
    if meta["kind"] == "find-witness":
        if not doc["found"] or run.exit_code != 1:
            return ["no witness found"]
        game = w.parse_game(doc["game"])
        return cli_witness_errors(w, game, seq, doc)
    if not doc["witness_found"] or run.exit_code != 1:
        return ["no monotonicity witness found"]
    wit = doc["witness"]
    m = w.MonotonicityWitness(
        x=tuple(Fraction(a) for a in wit["x"]),
        y=tuple(Fraction(a) for a in wit["y"]),
        u=w.parse_lasso(wit["u"]), v=w.parse_lasso(wit["v"]),
        phi_xu=Fraction(wit["values"][0]), phi_xv=Fraction(wit["values"][1]),
        phi_yu=Fraction(wit["values"][2]), phi_yv=Fraction(wit["values"][3]))
    return monotone_errors(w, seq, m)


WORKLOADS = {
    "deviation-search": (build_deviation_search, check_deviation_search),
    "profile-table": (build_profile_table, check_profile_table),
    "word-sweep": (build_word_sweep, check_word_sweep),
}
