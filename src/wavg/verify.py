"""Built-in verification suite over the package's reference instances.

Every check pins an exact rational (or a small structural fact) that the
library must reproduce: evaluator values on canonical words, gadget
solve results, the two-branch counterexample, analysis summaries and
cross-evaluator agreements.  The suite is deterministic and exits clean
only when every check passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import games, payoff, sequences, solver
from .words import LassoWord


@dataclass
class PaperCheck:
    name: str
    expected: str
    actual: str
    passed: bool


@dataclass
class PaperCheckReport:
    checks: list[PaperCheck]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)


def _deviation(game: games.GameGraph, seq) -> tuple:
    """Verdict kind, deviating and memoryless payoff at mem_bound 2.

    A deviation search at odds with the exact evaluator raises
    RuntimeError; its message then fills all three, so those checks fail
    and the rest of the suite still runs.
    """
    try:
        verdict = solver.check_memoryless(game, seq, mem_bound=2)
    except RuntimeError as exc:
        return (f"error: {exc}",) * 3
    if verdict.witness is None:
        return verdict.kind, None, None
    return (verdict.kind, verdict.witness.deviating_payoff,
            verdict.witness.memoryless_payoff)


def verify_paper() -> PaperCheckReport:
    checks: list[PaperCheck] = []

    def check(name: str, expected, actual):
        checks.append(PaperCheck(name=name, expected=str(expected),
                                 actual=str(actual),
                                 passed=expected == actual))

    geom2 = sequences.geometric(2)
    mean = sequences.mean_sequence()
    half = sequences.discounted(Fraction(1, 2))

    # Partial sums of the doubling sequence
    check("doubling partial sum d_4", Fraction(15),
          sequences.partial_sum(geom2, 4))

    # Canonical evaluator values
    check("mean value of cycle (1,0)", Fraction(1, 2),
          payoff.eval_exact(mean, LassoWord((), (1, 0))).exact)
    check("doubling value of cycle (0,4)", Fraction(4, 3),
          payoff.eval_exact(geom2, LassoWord((), (0, 4))).exact)
    check("doubling value of cycle (1,2)", Fraction(4, 3),
          payoff.eval_exact(geom2, LassoWord((), (1, 2))).exact)
    check("doubling value of cycle (1,2,0,4)", Fraction(14, 15),
          payoff.eval_exact(geom2, LassoWord((), (1, 2, 0, 4))).exact)
    check("rotation averages of (1,2,0,4) under ratio 2",
          {Fraction(37, 15), Fraction(26, 15), Fraction(28, 15),
           Fraction(14, 15)},
          set(payoff.rotation_values(2, (1, 2, 0, 4))))

    # Two-branch counterexample graph
    g1024 = games.two_branch_gadget()
    check("two-branch gadget size", (3, 4),
          (len(g1024.states), len(g1024.edges)))
    check("two-branch gadget weights",
          {Fraction(0), Fraction(1), Fraction(2), Fraction(4)},
          {e.weight for e in g1024.edges})
    report = solver.solve_enumerative(g1024, geom2)
    check("two-branch memoryless values", [Fraction(4, 3), Fraction(4, 3)],
          [report.table[0][j] for j in range(2)])
    kind, deviating, memoryless = _deviation(g1024, geom2)
    check("two-branch verdict", solver.VerdictKind.WITNESS_FOUND, kind)
    check("two-branch deviation payoff", Fraction(14, 15), deviating)
    check("two-branch memoryless payoff", Fraction(4, 3), memoryless)

    # Single-spike cycle values under plain averaging
    for k in range(1, 7):
        expected = [Fraction(1, k)] * k
        actual = [
            payoff.eval_exact(
                mean,
                LassoWord((), tuple(Fraction(int(j == i)) for j in range(k)))
            ).exact
            for i in range(k)
        ]
        check(f"spike cycle values k={k}", expected, actual)
    check("negative spike values k<=6", True, all(
        payoff.eval_exact(
            mean,
            LassoWord((), tuple(Fraction(-int(j == i)) for j in range(k)))
        ).exact == Fraction(-1, k)
        for k in range(1, 7) for i in range(k)))

    # Prefix independence of the mean evaluator on regular words
    check("mean ignores prefixes", Fraction(0),
          payoff.eval_exact(mean, LassoWord((100,), (0,))).exact)
    check("mean of cycle (1,2,0,4)", Fraction(7, 4),
          payoff.mean_payoff(LassoWord((), (1, 2, 0, 4))))

    # One-player loop gadgets
    g_loops = games.loops_gadget((1, 0))
    loop_report = solver.solve_enumerative(g_loops, mean)
    check("loop pair maximin", Fraction(1), loop_report.maximin.exact)
    check("loop pair alternative", {Fraction(0), Fraction(1)},
          {row[0] for row in loop_report.table})

    # Detour gadget with the sign-split rewards
    g_detour = games.detour_gadget(1, -1, 0)
    detour_words = {
        games.induced_lasso(g_detour, s, games.MemorylessStrategy({}))
        for s in games.enumerate_memoryless(g_detour, 1)
    }
    check("detour memoryless plays",
          {LassoWord((), (Fraction(0),)), LassoWord((), (Fraction(1), Fraction(-1)))},
          detour_words)

    # Discounted cross-checks
    check("discounted value of 1 then 0s", Fraction(1, 2),
          payoff.eval_exact(half, LassoWord((1,), (0,))).exact)
    an_half = sequences.analyze(half)
    check("discounted series total", Fraction(2), an_half.series_sum)
    check("discounted even/odd split", (Fraction(4, 3), Fraction(2, 3)),
          (an_half.even_sum, an_half.odd_sum))
    check("odd/even ratio recovers the discount", Fraction(1, 2),
          an_half.odd_sum / an_half.even_sum)
    check("closed form matches evaluator", Fraction(2, 3),
          payoff.disc_sum(Fraction(1, 2), LassoWord((), (1, 0))))
    check("escape gadget discounted value", Fraction(1),
          solver.solve_enumerative(games.escape_gadget(1), half).maximin.exact)

    # Classification summaries
    an_mean = sequences.analyze(mean)
    check("mean classification",
          (sequences.Classification.DIVERGENT_BOUNDED, Fraction(0),
           Fraction(0), Fraction(1)),
          (an_mean.classification, an_mean.inv_psum_liminf,
           an_mean.inv_psum_limsup, an_mean.bound))
    check("doubling classification",
          sequences.Classification.DIVERGENT_UNBOUNDED,
          sequences.analyze(geom2).classification)

    # Periodic block (2,1): value differs from the plain average
    blocks21 = sequences.parse_sequence("blocks:2,1;mu=1")
    check("periodic (2,1) value of (1,0)", Fraction(2, 3),
          payoff.eval_exact(blocks21, LassoWord((), (1, 0))).exact)
    check("plain average of (1,0)", Fraction(1, 2),
          payoff.mean_payoff(LassoWord((), (1, 0))))
    witness = solver.monotone_falsify(blocks21, (0, 1), 2, 2)
    check("periodic (2,1) monotonicity witness values",
          (Fraction(1, 3), Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)),
          None if witness is None else
          (witness.phi_xu, witness.phi_xv, witness.phi_yu, witness.phi_yv))

    # Convergent non-geometric sequence: detour deviation beats memoryless
    b118 = sequences.parse_sequence("blocks:1,1/2;mu=1/8")
    an_b = sequences.analyze(b118)
    check("block sequence even/odd sums", (Fraction(8, 7), Fraction(4, 7)),
          (an_b.even_sum, an_b.odd_sum))
    kind, deviating, _ = _deviation(games.detour_gadget(4, 1, 3), b118)
    check("detour(4,1,3) verdict", solver.VerdictKind.WITNESS_FOUND, kind)
    check("detour(4,1,3) deviation payoff", Fraction(151, 48), deviating)

    # Invariant suite at fixed small bounds
    word_1204 = LassoWord((), (1, 2, 0, 4))
    lo, hi = payoff.eval_approx(geom2, word_1204, 64).bracket
    check("truncation bracket contains the exact value", True,
          lo <= Fraction(14, 15) <= hi)
    reports = [solver.solve_enumerative(games.random_game(seed), mean)
               for seed in range(5)]
    check("weak duality on seed-fixed games", True, all(
        r.maximin.exact <= r.minimax.exact for r in reports))
    g_rand = games.random_game(0)
    check("strategy count equals degree product",
          games.count_memoryless(g_rand, 1),
          len(list(games.enumerate_memoryless(g_rand, 1))))
    g5 = games.random_game(5)
    vi = solver.value_iter_disc(g5, Fraction(1, 2), 40)
    exact_disc = solver.solve_enumerative(g5, half).maximin.exact
    check("discounted iteration within its bound", True,
          abs(vi.values[g5.start] - exact_disc) <= vi.error_bound)
    vm = solver.value_iter_mean(g5, 200)
    exact_mean = solver.solve_enumerative(g5, mean).maximin.exact
    check("mean iteration within its bound", True,
          abs(vm.values[g5.start] - exact_mean) <= vm.error_bound)

    return PaperCheckReport(checks=checks)
