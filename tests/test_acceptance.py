"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each criterion prints a single pass/fail line (visible with -s or in the
failure report); pytest's own pass/fail per test is the machine-readable
verdict.  All comparisons are exact rational equality unless a bracket
containment is the stated check.
"""

import random
import time
from fractions import Fraction

import pytest

from wavg import (LassoWord, MemorylessStrategy, VerdictKind,
                  check_memoryless, cycle_choice_gadget, detour_gadget,
                  disc_sum, discounted, eval_approx, eval_exact, geometric,
                  induced_lasso, mean_payoff, mean_sequence,
                  monotone_falsify, parse_sequence, random_game,
                  rotation_values, solve_enumerative, two_branch_gadget,
                  value_iter_disc, value_iter_mean)
from wavg.games import FiniteMemoryStrategy

F = Fraction

_exercised_pairs = []


def _register(seq, word):
    _exercised_pairs.append((seq, word))


def _report(name, elapsed, limit):
    print(f"ACCEPTANCE {name}: pass ({elapsed:.2f}s, limit {limit}s)")


def _random_lasso(rng, max_prefix=4, max_cycle=6):
    prefix = tuple(F(rng.randint(-5 * 4, 5 * 4), 4)
                   for _ in range(rng.randint(0, max_prefix)))
    cycle = tuple(F(rng.randint(-5 * 4, 5 * 4), 4)
                  for _ in range(rng.randint(1, max_cycle)))
    return LassoWord(prefix, cycle)


def _alternating_strategy(g) -> FiniteMemoryStrategy:
    hub = g.out_edges("hub")
    choice = {(0, "hub"): hub[1], (1, "hub"): hub[0]}
    for mem in (0, 1):
        for q in ("left", "right"):
            choice[(mem, q)] = g.out_edges(q)[0]
    update = {(m, q): m for m in (0, 1) for q in ("left", "right")}
    update[(0, "hub")] = 1
    update[(1, "hub")] = 0
    return FiniteMemoryStrategy(choice, update)


def test_criterion_1_two_branch_reproduction():
    start = time.monotonic()
    g = two_branch_gadget()
    seq = geometric(2)
    report = solve_enumerative(g, seq)
    memoryless_values = [report.table[0][j] for j in range(2)]
    assert memoryless_values == [F(4, 3), F(4, 3)]
    for pi in report.p2_strategies:
        word = induced_lasso(g, MemorylessStrategy({}), pi)
        _register(seq, word)

    alternating = induced_lasso(
        g, MemorylessStrategy({}), _alternating_strategy(g))
    assert alternating == LassoWord((), (1, 2, 0, 4))
    assert set(rotation_values(2, alternating.cycle)) == {
        F(37, 15), F(26, 15), F(28, 15), F(14, 15)}
    assert eval_exact(seq, alternating).exact == F(14, 15)
    _register(seq, alternating)

    verdict = check_memoryless(g, seq, mem_bound=2)
    assert verdict.kind is VerdictKind.WITNESS_FOUND
    assert verdict.witness.deviating_payoff == F(14, 15)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report("criterion 1 (counterexample reproduction)", elapsed, 1)


def test_criterion_2_mean_coincidence():
    start = time.monotonic()
    rng = random.Random(20260809)
    seq = mean_sequence()
    for _ in range(200):
        word = _random_lasso(rng)
        value = eval_exact(seq, word).exact
        cycle_average = sum(word.cycle, F(0)) / word.cycle_len
        assert value == cycle_average
        assert value == mean_payoff(word)
        stripped = LassoWord((), word.cycle)
        assert eval_exact(seq, stripped).exact == value
        _register(seq, word)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report("criterion 2 (mean coincidence on 200 lassos)", elapsed, 1)


def test_criterion_3_spike_values():
    start = time.monotonic()
    seq = mean_sequence()
    for k in range(1, 7):
        for i in range(k):
            pos = LassoWord((), tuple(int(j == i) for j in range(k)))
            neg = LassoWord((), tuple(-int(j == i) for j in range(k)))
            assert eval_exact(seq, pos).exact == F(1, k)
            assert eval_exact(seq, neg).exact == F(-1, k)
            _register(seq, pos)
            _register(seq, neg)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report("criterion 3 (single-spike cycle values)", elapsed, 1)


def test_criterion_4_discounted_closed_form():
    start = time.monotonic()
    rng = random.Random(97)
    lams = [F(1, 4), F(1, 2), F(9, 10)]
    words = [_random_lasso(rng) for _ in range(100)]
    for lam in lams:
        seq = discounted(lam)
        for word in words:
            exact = eval_exact(seq, word).exact
            assert disc_sum(lam, word) == exact
            lo, hi = eval_approx(seq, word, 200).bracket
            assert lo <= exact <= hi
            _register(seq, word)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report("criterion 4 (discounted closed form, 300 instances)", elapsed, 5)


def test_criterion_5_memoryless_determinacy_spot_check():
    start = time.monotonic()
    specs = ["mean", "disc:1/2"]
    for seed in range(50):
        g = random_game(seed, max_states=5, max_out_degree=3)
        for spec in specs:
            seq = parse_sequence(spec)
            report = solve_enumerative(g, seq)
            assert report.saddle, (seed, spec)
            verdict = check_memoryless(g, seq, mem_bound=2)
            assert verdict.kind is VerdictKind.NO_WITNESS_UP_TO_BOUND, (
                seed, spec)
        vi = value_iter_disc(g, F(1, 2), 40)
        exact_disc = solve_enumerative(g, discounted(F(1, 2))).maximin.exact
        assert abs(vi.values[g.start] - exact_disc) <= vi.error_bound
        vm = value_iter_mean(g, 200)
        exact_mean = solve_enumerative(g, mean_sequence()).maximin.exact
        assert abs(vm.values[g.start] - exact_mean) <= vm.error_bound
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("criterion 5 (50 random games, saddle + no witness)", elapsed, 60)


def test_criterion_6_convergent_refutation_witness():
    start = time.monotonic()
    seq = parse_sequence("blocks:1,1/2;mu=1/8")
    from wavg import analyze
    an = analyze(seq)
    assert an.even_sum == F(8, 7)
    assert an.odd_sum == F(4, 7)
    g = detour_gadget(4, 1, 3)
    verdict = check_memoryless(g, seq, mem_bound=2)
    assert verdict.kind is VerdictKind.WITNESS_FOUND
    assert verdict.witness.player == 1
    assert verdict.witness.deviating_payoff == F(151, 48)
    assert verdict.witness.memoryless_payoff == 3
    word = verdict.witness.lasso
    assert word == LassoWord((3, 4, 1), (3,))
    lo, hi = eval_approx(seq, word, 100).bracket
    assert lo <= F(151, 48) <= hi
    _register(seq, word)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report("criterion 6 (detour deviation 151/48)", elapsed, 1)


def test_criterion_7_periodic_refutation_witness():
    start = time.monotonic()
    seq = parse_sequence("blocks:2,1;mu=1")
    word = LassoWord((), (1, 0))
    assert eval_exact(seq, word).exact == F(2, 3)
    assert mean_payoff(word) == F(1, 2)
    _register(seq, word)
    witness = monotone_falsify(seq, (0, 1), 2, 2)
    assert witness is not None
    quadruple = [
        (witness.x, witness.u.cycle, witness.phi_xu),
        (witness.x, witness.v.cycle, witness.phi_xv),
        (witness.y, witness.u.cycle, witness.phi_yu),
        (witness.y, witness.v.cycle, witness.phi_yv),
    ]
    for prefix, cycle, claimed in quadruple:
        w = LassoWord(prefix, cycle)
        assert eval_exact(seq, w).exact == claimed
        _register(seq, w)
    assert witness.phi_xu <= witness.phi_xv
    assert witness.phi_yu > witness.phi_yv
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report("criterion 7 (periodic-block monotonicity witness)", elapsed, 5)


def test_criterion_8_canonical_objectives_monotone():
    start = time.monotonic()
    assert monotone_falsify(mean_sequence(), (0, 1), 2, 2) is None
    assert monotone_falsify(discounted(F(1, 2)), (0, 1), 2, 2) is None
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report("criterion 8 (mean and discounted stay monotone)", elapsed, 30)


def test_criterion_9_oracle_containment():
    start = time.monotonic()
    assert _exercised_pairs, "criteria 1-7 must run first"
    seen = set()
    checked = 0
    for seq, word in _exercised_pairs:
        key = (seq, word)
        if key in seen:
            continue
        seen.add(key)
        exact = eval_exact(seq, word).exact
        lo, hi = eval_approx(seq, word, 1000).bracket
        assert lo <= exact <= hi, (seq, word)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(f"criterion 9 (oracle containment, {checked} pairs)", elapsed, 30)
