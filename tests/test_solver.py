"""Enumerative solving, value iteration, verdicts and witness search."""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavg import (LIMINF, LIMSUP, BudgetExceededError, CoeffSeq, Edge,
                  GameGraph, UnsupportedSequenceError,
                  VerdictKind, check_memoryless, cycle_choice_gadget,
                  detour_gadget, discounted, enumerate_memoryless,
                  escape_gadget, eval_approx, eval_exact,
                  find_witness_sequence_failure, format_lasso, geometric,
                  induced_lasso, LassoWord, loops_gadget, parse_game,
                  mean_sequence, monotone_falsify, parse_sequence,
                  random_game, solve_enumerative, two_branch_gadget,
                  value_iter_disc, value_iter_mean)
from wavg import games, solver, verify

F = Fraction


def _beats(deviator, phi, value):
    """Whether phi beats value for the deviator, player 1 maximizing.  The
    references below state the rule themselves, so that a fault in the
    engine's own comparison cannot hide in them."""
    return phi > value if deviator == 1 else phi < value


class TestSolveEnumerative:
    def test_two_branch_doubling(self):
        report = solve_enumerative(two_branch_gadget(), geometric(2))
        assert report.maximin.exact == F(4, 3)
        assert report.minimax.exact == F(4, 3)
        assert report.saddle
        assert [report.table[0][j] for j in range(2)] == [F(4, 3), F(4, 3)]

    def test_loop_pair_mean(self):
        report = solve_enumerative(loops_gadget((1, 0)), mean_sequence())
        assert report.maximin.exact == 1
        assert {row[0] for row in report.table} == {F(0), F(1)}
        assert report.p1_optimal.choice["s"].weight == 1

    def test_single_loop_any_sequence(self):
        g = loops_gadget((F(5, 7),))
        for spec in ("mean", "disc:1/2", "geom:2"):
            report = solve_enumerative(g, parse_sequence(spec))
            assert report.maximin.exact == F(5, 7)
            assert report.minimax.exact == F(5, 7)

    def test_budget(self):
        g = random_game(3)
        with pytest.raises(BudgetExceededError):
            solve_enumerative(g, mean_sequence(), budget=0)

    def test_budget_refuses_before_listing_strategies(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("strategies listed past the budget")

        monkeypatch.setattr(games, "MemorylessStrategy", unreachable)
        monkeypatch.setattr(solver, "_play_tree_values", unreachable)
        with pytest.raises(BudgetExceededError,
                           match="^2 memoryless profiles exceed budget 1$"):
            solve_enumerative(two_branch_gadget(), mean_sequence(), budget=1)

    def test_refuses_unsupported_sequence(self):
        seq = CoeffSeq((3,), (1, -1), 2)
        with pytest.raises(UnsupportedSequenceError):
            solve_enumerative(loops_gadget((1,)), seq)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 400), st.sampled_from(["mean", "disc:1/2", "geom:2"]))
    def test_weak_duality(self, seed, spec):
        report = solve_enumerative(random_game(seed), parse_sequence(spec))
        assert report.maximin.exact <= report.minimax.exact

    def test_tie_break_is_first_in_order(self):
        g = two_branch_gadget()
        report = solve_enumerative(g, geometric(2))
        assert report.p2_optimal.choice["hub"].dst == "left"

    def test_deep_cycle_game(self):
        # One profile whose play is a single 1,500-state cycle: the table
        # walk must not recurse once per state.
        n = 1500
        names = tuple(f"q{i}" for i in range(n))
        edges = tuple(Edge(names[i], names[(i + 1) % n], F(i % 7))
                      for i in range(n))
        g = GameGraph(names, {q: 1 + i % 2 for i, q in enumerate(names)},
                      edges, names[0])
        report = solve_enumerative(g, mean_sequence())
        expected = F(sum(i % 7 for i in range(n)), n)
        assert report.table == [[expected]]
        assert report.maximin.exact == report.minimax.exact == expected


def _reference_table(g, seq, mode):
    """Every profile's play replayed by induced_lasso and evaluated
    exactly, with the first maximin and minimax strategy indices."""
    p1s = list(enumerate_memoryless(g, 1))
    p2s = list(enumerate_memoryless(g, 2))
    table = [[eval_exact(seq, induced_lasso(g, sigma, pi),
                         mode).exact
              for pi in p2s] for sigma in p1s]
    row_mins = [min(row) for row in table]
    col_maxs = [max(row[j] for row in table) for j in range(len(p2s))]
    return (table, row_mins.index(max(row_mins)),
            col_maxs.index(min(col_maxs)))


TABLE_GAMES = ([random_game(seed, max_states=5, max_out_degree=2)
                for seed in range(20)]
               + [two_branch_gadget(), detour_gadget(4, 1, 3),
                  cycle_choice_gadget(3)])
TABLE_CLASSES = ["mean", "disc:1/2", "blocks:2,1;mu=1", "blocks:1,1/2;mu=1/8",
                 "geom:2", "blocks:1,2;mu=2"]


def _binary_game(seed):
    """random_game(seed, 6, 3) with every weight redrawn from {0, 1}, so
    that many plays, rows and columns tie."""
    g = random_game(seed, max_states=6, max_out_degree=3)
    rng = random.Random(seed)
    edges = tuple(Edge(e.src, e.dst, F(rng.randint(0, 1))) for e in g.edges)
    return GameGraph(g.states, g.owners, edges, g.start)


BINARY_GAMES = [_binary_game(seed) for seed in range(20)]
# 8 states on the circulant graph i -> i+1, i+2, i+5 (mod 8): 3**8 profiles.
CIRCULANT = parse_game(
    (Path(__file__).parent / "golden" / "circulant-8.game").read_text())
CIRCULANT_PLAYS = 497


class TestPlayTreeTable:
    @staticmethod
    def _check(g, seq, mode):
        """Asserts the table and the first optimal strategies; returns
        whether more than one row or column attains the value."""
        report = solve_enumerative(g, seq, mode=mode)
        table, i, j = _reference_table(g, seq, mode)
        assert report.table == table
        assert report.p1_strategies.index(report.p1_optimal) == i
        assert report.p2_strategies.index(report.p2_optimal) == j
        row_mins = [min(row) for row in table]
        col_maxs = [max(column) for column in zip(*table)]
        return (row_mins.count(row_mins[i]) > 1
                or col_maxs.count(col_maxs[j]) > 1)

    @pytest.mark.parametrize("mode", [LIMINF, LIMSUP])
    @pytest.mark.parametrize("spec", TABLE_CLASSES)
    def test_matches_per_profile_replay(self, spec, mode):
        seq = parse_sequence(spec)
        for g in TABLE_GAMES:
            self._check(g, seq, mode)

    @pytest.mark.parametrize("mode", [LIMINF, LIMSUP])
    @pytest.mark.parametrize("spec", TABLE_CLASSES)
    def test_ties_on_binary_weights(self, spec, mode):
        # Equal values share a key, so the first index among tied rows
        # and columns decides the optimal strategies.
        seq = parse_sequence(spec)
        ties = [self._check(g, seq, mode) for g in BINARY_GAMES]
        assert ties.count(True) >= 10

    @pytest.mark.parametrize("mode", [LIMINF, LIMSUP])
    @pytest.mark.parametrize("spec", ["mean", "geom:2"])
    def test_circulant_game(self, spec, mode):
        assert math.prod(len(CIRCULANT.out_edges(q))
                         for q in CIRCULANT.states) == 6561
        self._check(CIRCULANT, parse_sequence(spec), mode)

    def test_one_core_evaluation_per_play(self, monkeypatch):
        # The table evaluates each distinct play once, by a shape kernel
        # of eval_exact, and never calls eval_exact itself.
        seq = parse_sequence("mean")
        expected = solve_enumerative(CIRCULANT, seq).table
        plays = []
        apply = solver._Shape.apply

        def counting(kernel, rewards, unit, mode):
            plays.append(rewards)
            return apply(kernel, rewards, unit, mode)

        def refuse(*args):
            raise AssertionError("eval_exact called by the table")

        monkeypatch.setattr(solver._Shape, "apply", counting)
        monkeypatch.setattr(solver, "eval_exact", refuse)
        assert solve_enumerative(CIRCULANT, seq).table == expected
        assert len(plays) == CIRCULANT_PLAYS

    def test_one_kernel_per_play_shape(self, monkeypatch):
        # The 497 plays have far fewer shapes (|x|, |u|), read off every
        # profile's play, and the table builds one kernel for each.
        shapes = {(word.prefix_len, word.cycle_len) for word in (
            induced_lasso(CIRCULANT, sigma, pi)
            for sigma in enumerate_memoryless(CIRCULANT, 1)
            for pi in enumerate_memoryless(CIRCULANT, 2))}
        built = []
        init = solver._Shape.__init__

        def counting(kernel, seq, prefix_len, cycle_len):
            built.append((prefix_len, cycle_len))
            init(kernel, seq, prefix_len, cycle_len)

        monkeypatch.setattr(solver._Shape, "__init__", counting)
        solve_enumerative(CIRCULANT, parse_sequence("mean"))
        assert sorted(built) == sorted(shapes)
        assert len(shapes) < CIRCULANT_PLAYS

    def test_plays_skip_the_states_of_one_move(self):
        # Each of the 30 profiles of this gadget has a play of its own,
        # whose id goes to the cells the states off its path allow; a state
        # of one move multiplies no cell, so the table lists the states a
        # fixed number of times, not once per play.
        class Counted(tuple):
            walks = 0

            def __iter__(self):
                Counted.walks += 1
                return super().__iter__()

        g = cycle_choice_gadget(30)
        g.states = Counted(g.states)
        report = solve_enumerative(g, mean_sequence())
        assert sum(map(len, report.table)) == 30
        assert 0 < Counted.walks < 30


class TestMembersBuiltOnRead:
    def test_solve_decodes_only_the_optimal_strategies(self, monkeypatch):
        # 60 strategies of 3,541 choices each: the solve reads only the
        # row minima and column maxima, and decodes the two it returns.
        built = []

        class Counted(games.MemorylessStrategy):
            def __init__(self, choice):
                built.append(choice)
                super().__init__(choice)

        monkeypatch.setattr(games, "MemorylessStrategy", Counted)
        report = solve_enumerative(cycle_choice_gadget(60), mean_sequence())
        assert len(report.p1_strategies) == 60
        assert len(report.p2_strategies) == 1
        assert len(built) <= 2
        assert report.p1_optimal is report.p1_strategies[0]
        assert len(built) <= 2

    @pytest.mark.parametrize("g", TABLE_GAMES[:6] + BINARY_GAMES[:6])
    def test_strategies_follow_enumeration_order(self, g):
        report = solve_enumerative(g, parse_sequence("disc:1/2"))
        for player, strategies in ((1, report.p1_strategies),
                                   (2, report.p2_strategies)):
            expected = list(enumerate_memoryless(g, player))
            assert list(strategies) == expected
            assert ([s.describe() for s in strategies]
                    == [s.describe() for s in expected])
            assert all(strategies[i] is strategies[i]
                       for i in range(-len(strategies), len(strategies)))
            with pytest.raises(IndexError):
                strategies[len(strategies)]
        assert any(s is report.p1_optimal for s in report.p1_strategies)
        assert any(s is report.p2_optimal for s in report.p2_strategies)

    @pytest.mark.parametrize("mode", [LIMINF, LIMSUP])
    def test_table_is_built_once_on_read(self, mode):
        seq = parse_sequence("blocks:2,1;mu=1")
        for g in TABLE_GAMES + [CIRCULANT]:
            report = solve_enumerative(g, seq, mode=mode)
            assert "table" not in vars(report)
            table = report.table
            assert table == _reference_table(g, seq, mode)[0]
            assert report.table is table

    def test_check_decodes_only_the_responses_at_the_saddle_key(
            self, monkeypatch):
        # Player 2 beats both of player 1's strategies that hold the
        # saddle value, out of 9, so the search decodes exactly those.
        decoded = []
        getitem = games.MemorylessStrategies.__getitem__

        def recording(strategies, index):
            decoded.append((strategies, index))
            return getitem(strategies, index)

        reports = []
        solve = solver.solve_enumerative

        def keep(*args, **kwargs):
            reports.append(solve(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(games.MemorylessStrategies, "__getitem__",
                            recording)
        monkeypatch.setattr(solver, "solve_enumerative", keep)
        verdict = check_memoryless(random_game(9),
                                   parse_sequence("blocks:2,1;mu=1"))
        assert verdict.kind == VerdictKind.WITNESS_FOUND
        assert verdict.witness.player == 2
        [report] = reports
        level = max(report.row_min_keys)
        for strategies, keys in ((report.p1_strategies, report.row_min_keys),
                                 (report.p2_strategies, report.col_max_keys)):
            read = {i for s, i in decoded if s is strategies}
            assert read <= {i for i, key in enumerate(keys) if key == level}
        read = {i for s, i in decoded if s is report.p1_strategies}
        assert read == {2, 8}
        assert len(report.p1_strategies) == 9


class TestValueIteration:
    def test_self_loop_fixed_point(self):
        g = loops_gadget((F(5, 2),))
        vi = value_iter_disc(g, F(1, 2), 20)
        assert abs(vi.values["s"] - F(5, 2)) <= vi.error_bound
        vm = value_iter_mean(g, 7)
        assert vm.values["s"] == F(5, 2)

    def test_escape_gadget_value(self):
        vi = value_iter_disc(escape_gadget(1), F(1, 2), 40)
        assert abs(vi.values["stay"] - 1) <= vi.error_bound
        report = solve_enumerative(escape_gadget(1), discounted(F(1, 2)))
        assert report.maximin.exact == 1

    def test_detour_mean_value(self):
        g = detour_gadget(1, -1, 0)
        report = solve_enumerative(g, mean_sequence())
        assert report.maximin.exact == 0
        vm = value_iter_mean(g, 100)
        assert abs(vm.values["base"] - 0) <= vm.error_bound

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 300))
    def test_discounted_iteration_within_bound(self, seed):
        g = random_game(seed)
        lam = F(9, 10)
        vi = value_iter_disc(g, lam, 150)
        exact = solve_enumerative(g, discounted(lam)).maximin.exact
        assert abs(vi.values[g.start] - exact) <= vi.error_bound

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 300))
    def test_mean_iteration_within_bound(self, seed):
        g = random_game(seed)
        vm = value_iter_mean(g, 200)
        exact = solve_enumerative(g, mean_sequence()).maximin.exact
        assert abs(vm.values[g.start] - exact) <= vm.error_bound

    def test_bound_decreases_geometrically(self):
        g = random_game(11)
        b1 = value_iter_disc(g, F(1, 2), 10).error_bound
        b2 = value_iter_disc(g, F(1, 2), 20).error_bound
        assert b2 == b1 / 2 ** 10


def _reference_value_iteration(g, steps, lam=None):
    """Value iteration on Fraction values at every step; the mean totals
    are divided by the steps at the end."""
    v = {q: F(0) for q in g.states}
    for _ in range(steps):
        v = {q: (max if g.owner(q) == 1 else min)(
                 e.weight + v[e.dst] if lam is None
                 else (1 - lam) * e.weight + lam * v[e.dst]
                 for e in g.out_edges(q))
             for q in g.states}
    return v if lam is not None else {q: v[q] / steps for q in g.states}


def _fractional_game():
    """random_game(3) with each weight divided by 2, 3 or 7 in turn."""
    g = random_game(3)
    edges = tuple(Edge(e.src, e.dst, e.weight / (2, 3, 7)[i % 3])
                  for i, e in enumerate(g.edges))
    return GameGraph(g.states, g.owners, edges, g.start)


VALUE_ITERATION_GAMES = [random_game(seed) for seed in range(10)] + [
    _fractional_game()]


@pytest.mark.parametrize("call, message", [
    (lambda g: value_iter_disc(g, 0, 5), "strictly between 0 and 1"),
    (lambda g: value_iter_disc(g, 1, 5), "strictly between 0 and 1"),
    (lambda g: value_iter_disc(g, F(1, 2), 0), "iterations must be positive"),
    (lambda g: value_iter_mean(g, 0), "steps must be positive"),
], ids=["disc-0", "disc-1", "disc-iterations", "mean-steps"])
def test_value_iteration_argument_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call(two_branch_gadget())


class TestValueIterationMatchesFractionLoop:
    @pytest.mark.parametrize("index", range(len(VALUE_ITERATION_GAMES)))
    def test_discounted(self, index):
        g = VALUE_ITERATION_GAMES[index]
        for lam, steps in ((F(1, 2), 40), (F(9, 10), 15), (F(2, 3), 1)):
            assert value_iter_disc(g, lam, steps).values == (
                _reference_value_iteration(g, steps, lam))

    @pytest.mark.parametrize("index", range(len(VALUE_ITERATION_GAMES)))
    def test_mean(self, index):
        g = VALUE_ITERATION_GAMES[index]
        for steps in (1, 7, 200):
            assert value_iter_mean(g, steps).values == (
                _reference_value_iteration(g, steps))


class TestCheckMemoryless:
    def test_two_branch_witness(self):
        verdict = check_memoryless(two_branch_gadget(), geometric(2),
                                   mem_bound=2)
        assert verdict.kind is VerdictKind.WITNESS_FOUND
        assert verdict.witness.deviating_payoff == F(14, 15)
        assert verdict.witness.memoryless_payoff == F(4, 3)
        assert verdict.witness.player == 2
        word = verdict.witness.lasso
        assert sorted(word.cycle) == [0, 1, 2, 4]

    def test_discounted_gadgets_have_no_witness(self):
        half = discounted(F(1, 2))
        for g in (two_branch_gadget(), loops_gadget((1, 0)),
                  detour_gadget(4, 1, 3), escape_gadget(2),
                  cycle_choice_gadget(2)):
            verdict = check_memoryless(g, half, mem_bound=2)
            assert verdict.kind is VerdictKind.NO_WITNESS_UP_TO_BOUND

    def test_detour_witness_from_block_sequence(self):
        seq = parse_sequence("blocks:1,1/2;mu=1/8")
        verdict = check_memoryless(detour_gadget(4, 1, 3), seq, mem_bound=2)
        assert verdict.kind is VerdictKind.WITNESS_FOUND
        assert verdict.witness.deviating_payoff == F(151, 48)
        assert verdict.witness.memoryless_payoff == 3
        assert verdict.witness.lasso == LassoWord((3, 4, 1), (3,))

    def test_two_branch_mean_no_witness(self):
        verdict = check_memoryless(two_branch_gadget(), mean_sequence(),
                                   mem_bound=2)
        assert verdict.kind is VerdictKind.NO_WITNESS_UP_TO_BOUND

    def test_no_memoryless_saddle_is_a_witness(self):
        # Under this block sequence the memoryless values differ, so some
        # player needs memory; under mean and disc:1/2 they meet, as
        # positional determinacy says.
        g = random_game(641, max_states=3, max_out_degree=2)
        verdict = check_memoryless(g, parse_sequence("blocks:2,1;mu=1"))
        assert verdict.kind is VerdictKind.WITNESS_FOUND
        w = verdict.witness
        assert (w.player, w.lasso, w.opponent) == (None, None, None)
        assert (w.deviating_payoff, w.memoryless_payoff) == (F(5, 3), F(4, 3))
        assert w.description == ("memoryless maximin 4/3 differs from "
                                 "minimax 5/3; some player needs memory")
        for spec in ("mean", "disc:1/2"):
            assert solve_enumerative(g, parse_sequence(spec)).saddle

    def test_mem_bound_zero_reports_saddle_only(self):
        verdict = check_memoryless(two_branch_gadget(), geometric(2),
                                   mem_bound=0)
        assert verdict.kind is VerdictKind.MEMORYLESS_SADDLE

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            check_memoryless(two_branch_gadget(), geometric(2), mem_bound=2,
                             budget=1)

    @staticmethod
    def _refuse_long_tables(monkeypatch):
        # The best response reads c_0 .. c_(m+p-1); _dp_scan's table at
        # mem_bound 10**6 would be millions long.
        real = solver._int_coeffs

        def bounded(seq, count):
            if count > 100:
                raise AssertionError("coefficient table built past the budget")
            return real(seq, count)

        monkeypatch.setattr(solver, "_int_coeffs", bounded)

    def test_coefficient_table_charged_before_it_is_built(self, monkeypatch):
        # Three profiles and 7 * 2 product cells, whose best response beats
        # the value; then 2 * (7 * 10**6 + 1) coefficients for _dp_scan's
        # table.
        self._refuse_long_tables(monkeypatch)
        with pytest.raises(BudgetExceededError,
                           match="^deviation search exceeded its budget$"):
            check_memoryless(cycle_choice_gadget(3),
                             parse_sequence("blocks:2,1;mu=1"),
                             mem_bound=10**6, budget=1_000)

    @pytest.mark.parametrize("spec", [
        "geom:2", "geom:3/2", "disc:1/2", "disc:2/3", "blocks:1,1/2;mu=1/8",
        "blocks:1;mu=1/2;prefix=1,-2,3", "blocks:1,2;mu=2;prefix=7/3",
        "blocks:1;mu=0", "blocks:2,1;mu=1"])
    def test_table_units_bound_its_words(self, spec):
        # The charge, found before the table is built, bounds the table's
        # 64-bit words within a factor 2; under ratio 1 it is its length.
        seq = parse_sequence(spec)
        for laps in (1, 3, 40, 400):
            count = seq.prefix_len + seq.period * laps
            words = sum(max(1, -(-abs(c).bit_length() // 64))
                        for c in solver._int_coeffs(seq, count)[0])
            units = solver._table_units(seq, laps)
            assert words <= units <= 2 * words
            assert seq.ratio != 1 or units == count

    def test_no_beating_play_skips_the_scan(self, monkeypatch):
        # Nothing beats the value, so neither _dp_scan nor its table runs,
        # whatever the memory bound.
        def unreachable(*args, **kwargs):
            raise AssertionError("deviation scan run")

        self._refuse_long_tables(monkeypatch)
        monkeypatch.setattr(solver, "_dp_scan", unreachable)
        verdict = check_memoryless(loops_gadget((1, 0)), mean_sequence(),
                                   mem_bound=10**6, budget=1_000)
        assert verdict.kind is VerdictKind.NO_WITNESS_UP_TO_BOUND

    def test_witness_payoff_strictly_better(self):
        verdict = check_memoryless(two_branch_gadget(), geometric(2),
                                   mem_bound=2)
        w = verdict.witness
        assert (w.deviating_payoff < w.memoryless_payoff if w.player == 2
                else w.deviating_payoff > w.memoryless_payoff)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 200), st.sampled_from(["mean", "disc:1/2"]))
    def test_canonical_objectives_never_refuted(self, seed, spec):
        g = random_game(seed)
        seq = parse_sequence(spec)
        report = solve_enumerative(g, seq)
        assert report.saddle
        verdict = check_memoryless(g, seq, mem_bound=2)
        assert verdict.kind is VerdictKind.NO_WITNESS_UP_TO_BOUND

    def test_mixed_ownership_still_finds_witness(self):
        edges = (Edge("hub", "left", F(0)), Edge("left", "hub", F(4)),
                 Edge("hub", "right", F(1)), Edge("right", "hub", F(2)))
        g = GameGraph(("hub", "left", "right"),
                      {"hub": 2, "left": 1, "right": 1}, edges, "hub")
        verdict = check_memoryless(g, geometric(2), mem_bound=2)
        assert verdict.kind is VerdictKind.WITNESS_FOUND
        assert verdict.witness.deviating_payoff == F(14, 15)
        assert verdict.witness.player == 2


def _reference_scan(g, options, deviator, seq, mode, max_len, spend):
    """Every walk from the start up to ``max_len`` edges, each closed lasso
    evaluated exactly: the reference that the deviation scan matches.

    Takes the arguments of solver._dp_scan, so it can stand in for it, and
    charges each candidate its cycle length.  A
    lasso beats the value v when its lasso of gains does: that payoff is
    unit * (phi - v) with unit > 0 (unit 1 for the Fraction gains of
    _reference_options), so it beats 0 where phi beats v.
    """
    best = None
    states, rewards, gains, trail = [g.start], [], [], []
    frames = [iter(enumerate(options[g.start]))]
    while frames:
        step = next(frames[-1], None)
        if step is None:
            frames.pop()
            if trail:
                states.pop()
                rewards.pop()
                gains.pop()
                trail.pop()
            continue
        idx, (dst, gain, reward) = step
        states.append(dst)
        rewards.append(reward)
        gains.append(gain)
        trail.append(idx)
        depth = len(rewards)
        for cut in range(depth):
            if states[cut] != dst:
                continue
            spend(depth - cut)
            phi = eval_exact(seq, LassoWord(tuple(gains[:cut]),
                                            tuple(gains[cut:])), mode).exact
            if _beats(deviator, phi, 0):
                key = (depth - cut, cut, tuple(trail))
                if best is None or key < best[0]:
                    best = (key, LassoWord(tuple(rewards[:cut]),
                                           tuple(rewards[cut:])))
        if depth < max_len:
            frames.append(iter(enumerate(options[dst])))
        else:
            states.pop()
            rewards.pop()
            gains.pop()
            trail.pop()
    return None if best is None else best[1]


# The DP deviation search against the reference, both deviators, every
# opponent strategy.  Besides the benchmark classes: a negative series
# total and a negative block sum (the sign of the linear form flips), a
# finite support (ratio 0), sequence prefixes longer than some cuts, and a
# period-5 block with a prefix, whose windows outgrow max_len and whose
# cuts below m carry head sums.
ORACLE_SEEDS = range(20)
ORACLE_CLASSES = ["mean", "disc:1/2", "disc:2/3", "blocks:2,1;mu=1",
                  "blocks:1,2,3;mu=1", "blocks:1,1/2;mu=1/8;prefix=3,1",
                  "blocks:3,-1;mu=1/2", "blocks:-2,1;mu=1/2",
                  "blocks:-1,-2;mu=1", "blocks:1,2;mu=0",
                  "blocks:1;mu=1/2;prefix=1,-2,3",
                  "blocks:1,2;mu=1;prefix=5,0,1",
                  "blocks:1,3,1,1,2;mu=1/2;prefix=2"]
# The growing-class scan against the reference: integer and fractional
# ratios, a negative block, sequence prefixes (the payoff ignores them but
# for the block phase they set) and blocks of length 2 and 3, whose offset
# against the cycle matters.
GROWING_CLASSES = ["geom:2", "geom:3/2", "geom:3", "blocks:-1;mu=2",
                   "blocks:2;mu=3;prefix=5,-2,1", "blocks:1,2;mu=2",
                   "blocks:2,-1,3;mu=3/2;prefix=1,2"]


def _oracle_game(seed):
    return random_game(seed, max_states=5, max_out_degree=2)


def _oracle_scans(g, seq, mode=LIMINF):
    """(deviator, opponent, threshold) for the worst and the best memoryless
    reply of the deviator to each opponent strategy."""
    table = solve_enumerative(g, seq, mode=mode).table
    for deviator in (1, 2):
        if not g.owned_states(deviator):
            continue
        for j, opponent in enumerate(enumerate_memoryless(g, 3 - deviator)):
            replies = [row[j] for row in table] if deviator == 1 else table[j]
            for threshold in sorted({min(replies), max(replies)}):
                yield deviator, opponent, threshold


def _options(g, deviator, opponent, threshold):
    return solver._deviation_edges(g, deviator, opponent,
                                   solver._int_moves(g, threshold)[0])


def _candidates(g, deviator, opponent):
    """Per state, the edges a play of the deviator may take, read off the
    game and the opponent's strategy: every out-edge of the deviator's
    states, the opponent's choice elsewhere."""
    return {q: (g.out_edges(q) if g.owner(q) == deviator
                else (opponent.choice[q],))
            for q in g.states}


def _reference_options(g, deviator, opponent, threshold):
    """_options built without the solver: each candidate edge as the
    (destination, exact gain weight - threshold, weight) triple."""
    return {q: tuple((e.dst, e.weight - threshold, e.weight) for e in edges)
            for q, edges in _candidates(g, deviator, opponent).items()}


def _scan(scan, g, seq, deviator, opponent, threshold, mode=LIMINF,
          mem_bound=2):
    # The reference reads candidates of its own, so a fault in the
    # engines' arena cannot reach both sides of a comparison.
    options = (_reference_options if scan is _reference_scan
               else _options)(g, deviator, opponent, threshold)
    return scan(g, options, deviator, seq, mode, mem_bound * len(g.states),
                lambda amount: None)


def _record_dp_spend(monkeypatch) -> list:
    """The units each later _dp_scan charges, in order; the budget is
    still charged as before."""
    spent = []
    scan = solver._dp_scan

    def recording(*args):
        *head, spend = args

        def counting(amount):
            spent.append(amount)
            spend(amount)

        return scan(*head, counting)

    monkeypatch.setattr(solver, "_dp_scan", recording)
    return spent


class TestDeviationSearchOracle:
    @pytest.mark.parametrize("spec", ORACLE_CLASSES)
    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_dp_matches_enumeration(self, seed, spec, monkeypatch):
        g, seq = _oracle_game(seed), parse_sequence(spec)
        for deviator, opponent, threshold in _oracle_scans(g, seq):
            assert (_scan(solver._dp_scan, g, seq, deviator, opponent,
                          threshold)
                    == _scan(_reference_scan, g, seq, deviator, opponent,
                             threshold))
        dp = check_memoryless(g, seq, mem_bound=2)
        monkeypatch.setattr(solver, "_dp_scan", _reference_scan)
        assert dp == check_memoryless(g, seq, mem_bound=2)

    @pytest.mark.parametrize("spec", ["blocks:2,1;mu=1", "blocks:1,2,3;mu=1",
                                      "blocks:1,1/2;mu=1/8"])
    def test_dp_matches_enumeration_past_length_ten(self, spec):
        # mem_bound 3 on 5-state games: walks of up to 15 edges.  The ratio-1
        # blocks of period 2 and 3 read the folds of period 1, 2 and 3 past
        # several of their periods; the convergent block's odd lengths keep
        # weights of their own beside its shared even-length stream.
        seq = parse_sequence(spec)
        for seed in (25, 27, 38):
            g = _oracle_game(seed)
            for deviator, opponent, threshold in _oracle_scans(g, seq):
                assert (_scan(solver._dp_scan, g, seq, deviator, opponent,
                              threshold, mem_bound=3)
                        == _scan(_reference_scan, g, seq, deviator, opponent,
                                 threshold, mem_bound=3))

    def test_ratio_one_cuts_below_prefix_share_classes(self, monkeypatch):
        # Under ratio 1 a cut below the sequence prefix joins its class, so
        # it runs no closed-walk DP of its own.  The best response is taken
        # to beat every value, so that every response is scanned.
        seq = parse_sequence("blocks:1,2;mu=1;prefix=5,0,1")
        monkeypatch.setattr(solver, "_best_response", lambda *args: True)
        spent = _record_dp_spend(monkeypatch)
        for seed in ORACLE_SEEDS:
            check_memoryless(_oracle_game(seed), seq, mem_bound=2,
                             budget=1_000_000)
        assert sum(spent) <= 4_383

    @pytest.mark.parametrize("spec", ["mean", "disc:1/2"])
    def test_lengths_share_one_closed_walk_dp(self, spec):
        # Every cycle length of these period-1 sequences reads one stream of
        # weights, so each start runs one walk of max_len = 114 steps, not
        # one per length.  check_memoryless no longer scans here, as
        # nothing beats the value, so the scan is called directly.
        g, seq = cycle_choice_gadget(8), parse_sequence(spec)
        value = solve_enumerative(g, seq).maximin.exact
        spent = []
        options = _options(g, 1, next(enumerate_memoryless(g, 2)), value)
        assert solver._dp_scan(g, options, 1, seq, LIMINF, 2 * len(g.states),
                               spent.append) is None
        assert sum(spent) <= 44_236

    @pytest.mark.parametrize("k, spec, bound", [
        (15, "blocks:2,1;mu=1", 273_665),
        (16, "blocks:1;mu=1/2;prefix=1,-2,3", 48_082)])
    def test_witness_runs_share_streams(self, k, spec, bound, monkeypatch):
        # The best response beats the value here, so check_memoryless
        # scans.  Under ratio 1 each cycle length reads a fold of its
        # class's block: with a stream of its own per length spike:15
        # costs 1,697,507 units.
        # Under ratio 1/2 and period 1 every length at a class past the
        # prefix reads the class's coefficients: without that stream
        # spike:16 costs 213,202 units.
        spent = _record_dp_spend(monkeypatch)
        verdict = check_memoryless(cycle_choice_gadget(k),
                                   parse_sequence(spec))
        assert verdict.kind is VerdictKind.WITNESS_FOUND
        assert sum(spent) <= bound

    @pytest.mark.parametrize("spec", ORACLE_CLASSES)
    def test_oracle_cases_hold_witnesses(self, spec):
        seq = parse_sequence(spec)
        players = []
        for seed in ORACLE_SEEDS:
            g = _oracle_game(seed)
            players += [deviator for deviator, opponent, threshold
                        in _oracle_scans(g, seq)
                        if _scan(solver._dp_scan, g, seq, deviator, opponent,
                                 threshold) is not None]
        assert len(players) >= 10
        assert set(players) == {1, 2}

    @pytest.mark.parametrize("mode", [LIMINF, LIMSUP])
    @pytest.mark.parametrize("spec", GROWING_CLASSES)
    def test_walk_matches_enumeration(self, spec, mode, monkeypatch):
        seq = parse_sequence(spec)
        games = [_oracle_game(seed) for seed in ORACLE_SEEDS]
        players = []
        for g in games:
            for deviator, opponent, threshold in _oracle_scans(g, seq, mode):
                found = _scan(solver._dp_scan, g, seq, deviator, opponent,
                              threshold, mode)
                assert found == _scan(_reference_scan, g, seq, deviator,
                                      opponent, threshold, mode)
                if found is not None:
                    players.append(deviator)
        assert players.count(1) >= 5 and players.count(2) >= 5
        walk = [check_memoryless(g, seq, mem_bound=2, mode=mode)
                for g in games]
        monkeypatch.setattr(solver, "_dp_scan", _reference_scan)
        assert walk == [check_memoryless(g, seq, mem_bound=2, mode=mode)
                        for g in games]

    @pytest.mark.parametrize("mode", [LIMINF, LIMSUP])
    @pytest.mark.parametrize("spec", ["geom:2", "blocks:1,2;mu=2",
                                      "blocks:2,-1,3;mu=3/2;prefix=1,2"])
    def test_walk_matches_enumeration_past_length_ten(self, spec, mode):
        # mem_bound 3 on 5-state games: walks of up to 15 edges, with
        # witness cycles of up to 14 edges under limsup.  The scan stops at
        # the first cycle length with a witness, and the blocks of period 2
        # and 3 meet cycles at several phase offsets.
        seq = parse_sequence(spec)
        for seed in (25, 27, 38):
            g = _oracle_game(seed)
            for deviator, opponent, threshold in _oracle_scans(g, seq, mode):
                assert (_scan(solver._dp_scan, g, seq, deviator, opponent,
                              threshold, mode, mem_bound=3)
                        == _scan(_reference_scan, g, seq, deviator, opponent,
                                 threshold, mode, mem_bound=3))


def _positional_product_oracle(g, opponent, deviator, seq, value):
    """Whether the play of some positional strategy on the product of the
    states with the sequence positions (0 .. m-1, then m .. m+p-1 wrapping
    to m) beats ``value`` against ``opponent``: every simple product path
    from (start, 0) and each move that closes it, the lasso evaluated
    exactly."""
    m, size = seq.prefix_len, seq.prefix_len + seq.period
    options = _candidates(g, deviator, opponent)
    path, rewards = {(g.start, 0): 0}, []
    frames = [((g.start, 0), iter(options[g.start]))]
    while frames:
        here, edges = frames[-1]
        edge = next(edges, None)
        if edge is None:
            frames.pop()
            del path[here]
            if rewards:
                rewards.pop()
            continue
        there = (edge.dst, here[1] + 1 if here[1] + 1 < size else m)
        cut = path.get(there)
        if cut is None:
            path[there] = len(rewards) + 1
            rewards.append(edge.weight)
            frames.append((there, iter(options[edge.dst])))
            continue
        word = LassoWord(tuple(rewards[:cut]),
                         tuple(rewards[cut:]) + (edge.weight,))
        if _beats(deviator, eval_exact(seq, word).exact, value):
            return True
    return False


def _best_response_scans(seq, games):
    """(g, options, deviator, opponent, threshold) of every _oracle_scans
    case."""
    for g in games:
        for deviator, opponent, threshold in _oracle_scans(g, seq):
            yield (g, _options(g, deviator, opponent, threshold), deviator,
                   opponent, threshold)


class TestBestResponse:
    @pytest.mark.parametrize("spec", ORACLE_CLASSES)
    def test_matches_positional_product_strategies(self, spec):
        seq = parse_sequence(spec)
        games = [random_game(seed, max_states=states, max_out_degree=degree)
                 for seed in range(10)
                 for states, degree in ((3, 2), (4, 3), (5, 2), (5, 3))]
        answers = []
        for g, options, deviator, opponent, threshold in (
                _best_response_scans(seq, games)):
            found = solver._best_response(g, options, deviator, seq,
                                          lambda amount: None)
            assert found == _positional_product_oracle(g, opponent, deviator,
                                                       seq, threshold)
            answers.append(found)
        assert True in answers and False in answers

    @pytest.mark.parametrize("spec", ORACLE_CLASSES)
    def test_matches_scan_at_the_complete_bound(self, spec):
        # At mem_bound p + ceil(m/|Q|) the scan covers every lasso of
        # m + |Q|*p edges, so it finds a play exactly when one exists.
        seq = parse_sequence(spec)
        games = [random_game(seed, max_states=states, max_out_degree=degree)
                 for seed in ORACLE_SEEDS
                 for states, degree in ((5, 2), (3, 3))]
        for g, options, deviator, _, _ in _best_response_scans(seq, games):
            bound = seq.period + -(-seq.prefix_len // len(g.states))
            word = solver._dp_scan(g, options, deviator, seq, LIMINF,
                                   bound * len(g.states),
                                   lambda amount: None)
            assert solver._best_response(
                g, options, deviator, seq,
                lambda amount: None) == (word is not None)

    def test_scan_missing_a_beating_play_is_an_internal_error(self,
                                                               monkeypatch):
        # Period 2 and no prefix put the bound at mem_bound 2, where an
        # empty scan contradicts a best response that beats the value.
        g, seq = detour_gadget(4, 1, 3), parse_sequence("blocks:1,1/2;mu=1/8")
        monkeypatch.setattr(solver, "_dp_scan", lambda *args: None)
        with pytest.raises(RuntimeError, match="missed the best response"):
            check_memoryless(g, seq, mem_bound=2)
        # Below the bound an empty scan is a bounded no-witness.
        assert (check_memoryless(g, seq, mem_bound=1).kind
                is VerdictKind.NO_WITNESS_UP_TO_BOUND)

    @pytest.mark.parametrize("k", [8, 10])
    def test_spikes_decide_without_a_scan(self, k, monkeypatch):
        # The scan alone spent 1,221,238 units on spike:8 and ran out of
        # the default budget on spike:10.
        def unreachable(*args, **kwargs):
            raise AssertionError("deviation scan run")

        monkeypatch.setattr(solver, "_dp_scan", unreachable)
        verdict = check_memoryless(cycle_choice_gadget(k),
                                   parse_sequence("blocks:1,1/2;mu=1/8"))
        assert verdict.kind is VerdictKind.NO_WITNESS_UP_TO_BOUND
        assert verdict.budget == 2_000_000


class TestWitnessGuard:
    # The scan hands its lasso to check_memoryless, which evaluates it
    # exactly and refuses one that does not beat the value; verify-paper
    # turns the refusal into failed checks instead of a crash.  Under a
    # non-growing class the scan runs only where the best response beats
    # the value, as on the detour gadget under this block sequence (value
    # 3).
    @pytest.mark.parametrize("spec, lasso_cycle", [
        ("blocks:1,1/2;mu=1/8", (1,)), ("geom:2", (4,))],
        ids=["_dp_scan-blocks:1,1/2;mu=1/8", "_dp_scan-geom:2"])
    def test_lasso_not_beating_the_value_is_refused(self, spec, lasso_cycle,
                                                    monkeypatch):
        g = (two_branch_gadget() if spec == "geom:2"
             else detour_gadget(4, 1, 3))
        seq = parse_sequence(spec)
        monkeypatch.setattr(solver, "_dp_scan",
                            lambda *args: LassoWord((), lasso_cycle))
        message = "deviation search disagrees with the exact evaluator"
        with pytest.raises(RuntimeError, match=message):
            check_memoryless(g, seq, mem_bound=2)
        assert verify._deviation(g, seq) == (f"error: {message}",) * 3

    def test_walk_without_a_positive_completion_is_an_internal_error(self):
        # A one-state loop whose end value no walk lifts above 0: the
        # greedy rebuild finds no move to take.
        moves = {"a": (("a", 1, F(1)),)}
        with pytest.raises(RuntimeError, match="lost its witness"):
            solver._first_walk(moves, moves, "a", [1], 0, {"a": -5},
                               lambda amount: None)


class TestGrowingSpikes:
    # Each deviation scan stops at the first cycle length with a witness,
    # so these decide within the default budget.
    @pytest.mark.parametrize("k, spec", [
        (5, "geom:2"), (5, "geom:3/2"), (5, "blocks:1,2;mu=2"),
        (6, "geom:2")])
    def test_limsup_spikes_decide(self, k, spec):
        verdict = check_memoryless(cycle_choice_gadget(k),
                                   parse_sequence(spec), mode=LIMSUP)
        assert verdict.kind is VerdictKind.WITNESS_FOUND
        assert verdict.budget == 2_000_000

    @pytest.mark.parametrize("game, mode", [
        (two_branch_gadget(), LIMINF), (cycle_choice_gadget(4), LIMSUP)])
    def test_prefix_scores_weigh_zero(self, game, mode, monkeypatch):
        # A growing scan reads only which states each cut reaches, so its
        # prefix DP relaxes at weight 0 and its scores stay small.
        weights = []
        relax = solver._relax

        def recording(layer, steps, weight, spend):
            weights.append(weight)
            return relax(layer, steps, weight, spend)

        monkeypatch.setattr(solver, "_relax", recording)
        verdict = check_memoryless(game, geometric(2), mode=mode)
        assert verdict.kind is VerdictKind.WITNESS_FOUND
        assert weights and not any(weights)

    def test_spike_five_witness(self):
        verdict = check_memoryless(cycle_choice_gadget(5), geometric(2),
                                   mode=LIMSUP)
        assert verdict.witness.description.startswith(
            "player 1 plays cycle=1,0,0,0,0,0,1,0,0,0 against")
        assert verdict.witness.deviating_payoff == F(544, 1023)
        assert verdict.witness.memoryless_payoff == F(16, 31)


class TestCycleChoiceCoincidence:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_spike_gadget_value_and_no_improvement(self, k):
        g = cycle_choice_gadget(k)
        report = solve_enumerative(g, mean_sequence())
        assert report.maximin.exact == F(1, k)
        verdict = check_memoryless(g, mean_sequence(), mem_bound=2,
                                   budget=50_000_000)
        assert verdict.kind is VerdictKind.NO_WITNESS_UP_TO_BOUND

    @pytest.mark.slow
    def test_spike_gadget_five(self):
        g = cycle_choice_gadget(5)
        report = solve_enumerative(g, mean_sequence())
        assert report.maximin.exact == F(1, 5)
        verdict = check_memoryless(g, mean_sequence(), mem_bound=2,
                                   budget=100_000_000)
        assert verdict.kind is VerdictKind.NO_WITNESS_UP_TO_BOUND


def _reference_quads(seq, alphabet, max_prefix_len, max_cycle_len,
                     mode=LIMINF, nonempty_only=False):
    """Every quad the sweep compares, in its order, as (x, y, u, v,
    phi_xu, phi_xv, phi_yu, phi_yv), each value fetched from a memo on
    first use."""
    alphabet = tuple(F(a) for a in alphabet)
    prefixes = solver._words_by_length(alphabet, max_prefix_len,
                                       min_len=1 if nonempty_only else 0)
    cycles = solver._words_by_length(alphabet, max_cycle_len, min_len=1)
    memo = {}

    def phi(prefix, cycle):
        if (prefix, cycle) not in memo:
            memo[prefix, cycle] = eval_exact(seq, LassoWord(prefix, cycle),
                                             mode).exact
        return memo[prefix, cycle]

    for x in prefixes:
        for y in prefixes:
            if x == y:
                continue
            for u in cycles:
                for v in cycles:
                    yield (x, y, u, v, phi(x, u), phi(x, v), phi(y, u),
                           phi(y, v))


def _breaks_monotonicity(quad):
    return quad[4] < quad[5] and quad[6] > quad[7]


def _reference_monotone(*args, **kwargs):
    """The first quad with phi_xu < phi_xv but phi_yu > phi_yv, or None."""
    return next(filter(_breaks_monotonicity,
                       _reference_quads(*args, **kwargs)), None)


MONOTONE_CLASSES = ["mean", "disc:1/2", "geom:2", "blocks:2,1;mu=1",
                    "blocks:1,2,3;mu=1", "blocks:1,1/2;mu=1/8"]


def _monotone_fields(w):
    return None if w is None else (w.x, w.y, w.u.cycle, w.v.cycle, w.phi_xu,
                                   w.phi_xv, w.phi_yu, w.phi_yv)


class TestMonotoneFalsify:
    @pytest.mark.parametrize("mode", [LIMINF, LIMSUP])
    @pytest.mark.parametrize("alphabet", [(0, 1), (-1, 0, 1), (-2, -1, 0)])
    @pytest.mark.parametrize("spec", MONOTONE_CLASSES)
    def test_matches_reference(self, spec, alphabet, mode):
        seq = parse_sequence(spec)
        w = monotone_falsify(seq, alphabet, 2, 2, mode=mode)
        assert _monotone_fields(w) == _reference_monotone(seq, alphabet, 2, 2,
                                                          mode)

    def test_matches_reference_nonempty(self):
        seq = parse_sequence("blocks:2,1;mu=1")
        w = monotone_falsify(seq, (-1, 0, 1), 2, 2, nonempty_only=True)
        assert w is not None
        assert _monotone_fields(w) == _reference_monotone(
            seq, (-1, 0, 1), 2, 2, nonempty_only=True)

    @pytest.mark.parametrize("spec, alphabet, calls", [
        ("blocks:2,1;mu=1", (0, 1), 42), ("mean", (0, 1, 2), 156)])
    def test_one_evaluation_per_table_entry(self, spec, alphabet, calls,
                                            monkeypatch):
        seen = []
        apply = solver._Shape.apply

        def counting(kernel, rewards, unit, mode):
            seen.append((kernel, rewards))
            return apply(kernel, rewards, unit, mode)

        monkeypatch.setattr(solver._Shape, "apply", counting)
        monotone_falsify(parse_sequence(spec), alphabet, 2, 2)
        assert len(seen) == len(set(seen)) == calls

    def test_budget_counts_table_entries_and_quads(self, monkeypatch):
        # 42 table entries and 6 * 6 * 42 = 1,512 quads.
        seq = mean_sequence()
        assert monotone_falsify(seq, (0, 1), 2, 2, budget=1_554) is None
        with pytest.raises(BudgetExceededError):
            monotone_falsify(seq, (0, 1), 2, 2, budget=1_553)

        def unreachable(*args, **kwargs):
            raise AssertionError("evaluated past the budget")

        monkeypatch.setattr(solver, "eval_exact", unreachable)
        with pytest.raises(BudgetExceededError):
            monotone_falsify(seq, (0, 1), 2, 2, budget=41)

    def test_budget_stops_at_the_witness(self):
        # 7 prefixes by 6 cycles in the table, then the quads up to and
        # including the first witness.
        seq = parse_sequence("blocks:2,1;mu=1")
        quads = 1 + next(i for i, quad in enumerate(
            _reference_quads(seq, (0, 1), 2, 2)) if _breaks_monotonicity(quad))
        w = monotone_falsify(seq, (0, 1), 2, 2, budget=42 + quads)
        assert _monotone_fields(w) == _reference_monotone(seq, (0, 1), 2, 2)
        with pytest.raises(BudgetExceededError):
            monotone_falsify(seq, (0, 1), 2, 2, budget=42 + quads - 1)

    @pytest.mark.parametrize("prefix, cycle, nonempty", [
        (-1, 2, False), (2, 0, False), (0, 2, False), (1, 2, True)])
    def test_rejects_empty_search_bounds(self, prefix, cycle, nonempty):
        # Each leaves fewer than two distinct prefixes or no cycle.
        alphabet = (0,) if nonempty else (0, 1)
        with pytest.raises(ValueError):
            monotone_falsify(mean_sequence(), alphabet, prefix, cycle,
                             nonempty_only=nonempty)

    def test_rejects_empty_alphabet(self):
        with pytest.raises(ValueError, match="alphabet must be nonempty"):
            monotone_falsify(mean_sequence(), (), 2, 2)

    def test_periodic_block_witness(self):
        seq = parse_sequence("blocks:2,1;mu=1")
        w = monotone_falsify(seq, (0, 1), 2, 2)
        assert w is not None
        assert w.x == ()
        assert w.y == (0,)
        assert w.u.cycle == (0, 1)
        assert w.v.cycle == (1, 0)
        assert (w.phi_xu, w.phi_xv, w.phi_yu, w.phi_yv) == \
            (F(1, 3), F(2, 3), F(2, 3), F(1, 3))

    def test_witness_reverifies(self):
        seq = parse_sequence("blocks:2,1;mu=1")
        w = monotone_falsify(seq, (0, 1), 2, 2)
        assert eval_exact(seq, LassoWord(w.x, w.u.cycle)).exact == w.phi_xu
        assert eval_exact(seq, LassoWord(w.x, w.v.cycle)).exact == w.phi_xv
        assert eval_exact(seq, LassoWord(w.y, w.u.cycle)).exact == w.phi_yu
        assert eval_exact(seq, LassoWord(w.y, w.v.cycle)).exact == w.phi_yv
        assert w.phi_xu <= w.phi_xv and w.phi_yu > w.phi_yv

    def test_mean_is_monotone(self):
        assert monotone_falsify(mean_sequence(), (0, 1), 2, 2) is None

    def test_discounted_is_monotone(self):
        assert monotone_falsify(discounted(F(1, 2)), (-1, 0, 1), 2, 2) is None

    def test_nonempty_variant_also_finds_witness(self):
        seq = parse_sequence("blocks:2,1;mu=1")
        w = monotone_falsify(seq, (0, 1), 2, 2, nonempty_only=True)
        assert w is not None
        assert w.x != () and w.y != ()

    def test_budget_distinct_from_absent(self):
        with pytest.raises(BudgetExceededError):
            monotone_falsify(mean_sequence(), (0, 1), 2, 2, budget=5)

    def test_budget_refuses_before_listing_words(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("words listed past the budget")

        monkeypatch.setattr(solver, "_words_by_length", unreachable)
        with pytest.raises(BudgetExceededError,
                           match="^monotonicity search exceeded its budget$"):
            monotone_falsify(mean_sequence(), (0, 1), 20, 2, budget=1_000)
        # One letter gives one word per length: 10**7 + 1 prefixes pass
        # the default budget without a sum over every length.
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError,
                           match="^monotonicity search exceeded its budget$"):
            monotone_falsify(mean_sequence(), (0,), 10**7, 1)
        assert time.perf_counter() - start < 1
        # Too few distinct prefixes is an input error, whatever the budget.
        with pytest.raises(ValueError):
            monotone_falsify(mean_sequence(), (0, 0), 1, 2, nonempty_only=True,
                             budget=0)


class TestFindWitness:
    def test_convergent_non_geometric(self):
        report = find_witness_sequence_failure(
            parse_sequence("blocks:1,1/2;mu=1/8"))
        assert report.found
        assert report.verdict.witness.deviating_payoff == F(151, 48)
        assert any("detour_gadget(4,1,3)" in line for line in report.tried)

    def test_discounted_silent(self):
        report = find_witness_sequence_failure(discounted(F(1, 2)))
        assert not report.found
        assert report.monotonicity is None
        assert len(report.tried) >= 3

    @pytest.mark.parametrize("spec", ["blocks:1;mu=0",
                                      "blocks:0;mu=1;prefix=2"])
    @pytest.mark.parametrize("mode", [LIMINF, LIMSUP])
    def test_first_reward_payoff_silent(self, spec, mode):
        # The first reward decides the payoff, so after any nonempty
        # prefix every cycle ties with every other; a tie is no witness.
        seq = parse_sequence(spec)
        assert monotone_falsify(seq, (0, 1), 2, 2, mode=mode) is None
        report = find_witness_sequence_failure(seq, mode=mode)
        assert not report.found
        assert report.tried[-1] == "monotonicity search: absent"

    def test_periodic_block_monotonicity_route(self):
        report = find_witness_sequence_failure(parse_sequence("blocks:2,1;mu=1"))
        assert report.found
        assert report.monotonicity is not None or report.verdict is not None

    @staticmethod
    def _growing_witness(spec, mode, gadget, lasso_text, payoff):
        report = find_witness_sequence_failure(parse_sequence(spec), mode=mode)
        assert report.found
        assert report.tried[-1] == f"{gadget}: witness-found"
        witness = report.verdict.witness
        assert format_lasso(witness.lasso) == lasso_text
        assert witness.deviating_payoff == payoff
        assert _beats(witness.player, witness.deviating_payoff,
                      witness.memoryless_payoff)
        return witness

    @pytest.mark.parametrize("spec, lasso_text, payoff", [
        ("geom:2", "cycle=0,4,1,2", F(14, 15)),
        ("geom:3/2", "cycle=0,4,1,2", F(16, 13)),
        ("blocks:1,2;mu=2", "cycle=0,4,1,2,1,2", F(19, 14)),
    ])
    def test_growing_two_branch(self, spec, lasso_text, payoff):
        witness = self._growing_witness(spec, LIMINF, "two_branch_gadget()",
                                        lasso_text, payoff)
        assert witness.player == 2

    @pytest.mark.parametrize("spec, lasso_text, payoff", [
        ("geom:2", "cycle=0,1,1,0", F(4, 5)),
        ("geom:3/2", "cycle=0,1,1,0", F(9, 13)),
        ("geom:3", "cycle=0,1,1,0", F(9, 10)),
    ])
    def test_growing_two_branch_limsup(self, spec, lasso_text, payoff):
        # Under limsup the minimizer-owned gadgets find nothing on these
        # period-1 sequences; the maximizer-owned one refutes them.
        witness = self._growing_witness(
            spec, LIMSUP, "two_branch_gadget((0,1),(1,0),owner=1)",
            lasso_text, payoff)
        assert witness.player == 1

    def test_budget_exhaustion_reports_tried(self):
        with pytest.raises(BudgetExceededError,
                           match="^gadget search exceeded budget 2$"):
            find_witness_sequence_failure(
                parse_sequence("blocks:1,1/2;mu=1/8"), budget=2)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        g = two_branch_gadget()
        v1 = check_memoryless(g, geometric(2), mem_bound=2)
        v2 = check_memoryless(g, geometric(2), mem_bound=2)
        assert v1.witness.description == v2.witness.description
        assert v1.witness.lasso == v2.witness.lasso
