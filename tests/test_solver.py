"""Enumerative solving, value iteration, verdicts and witness search."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavg import (LIMINF, LIMSUP, BudgetExceededError, CoeffSeq,
                  UnsupportedSequenceError, VerdictKind, check_memoryless,
                  cycle_choice_gadget, detour_gadget, discounted,
                  enumerate_memoryless, escape_gadget, eval_approx, eval_exact,
                  find_witness_sequence_failure, geometric, lasso,
                  LassoWord, loops_gadget, mean_sequence, monotone_falsify,
                  parse_sequence, random_game, solve_enumerative,
                  two_branch_gadget, value_iter_disc, value_iter_mean)
from wavg import solver

F = Fraction


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
        assert verdict.witness.lasso == lasso((3, 4, 1), (3,))

    def test_two_branch_mean_no_witness(self):
        verdict = check_memoryless(two_branch_gadget(), mean_sequence(),
                                   mem_bound=2)
        assert verdict.kind is VerdictKind.NO_WITNESS_UP_TO_BOUND

    def test_mem_bound_zero_reports_saddle_only(self):
        verdict = check_memoryless(two_branch_gadget(), geometric(2),
                                   mem_bound=0)
        assert verdict.kind is VerdictKind.MEMORYLESS_SADDLE

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            check_memoryless(two_branch_gadget(), geometric(2), mem_bound=2,
                             budget=1)

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
        from wavg import Edge, GameGraph
        edges = (Edge("hub", "left", F(0)), Edge("left", "hub", F(4)),
                 Edge("hub", "right", F(1)), Edge("right", "hub", F(2)))
        g = GameGraph(("hub", "left", "right"),
                      {"hub": 2, "left": 1, "right": 1}, edges, "hub")
        verdict = check_memoryless(g, geometric(2), mem_bound=2)
        assert verdict.kind is VerdictKind.WITNESS_FOUND
        assert verdict.witness.deviating_payoff == F(14, 15)
        assert verdict.witness.player == 2


def _reference_scan(g, options, deviator, seq, mode, value, max_len, spend,
                    cache):
    """Every walk from the start up to ``max_len`` edges, each closed lasso
    evaluated exactly: the reference that both deviation searches match.

    Takes the arguments of solver._dp_scan and solver._walk_scan, so it can
    stand in for either, and charges each candidate its cycle length.
    """
    best = None
    states, rewards, trail = [g.start], [], []
    frames = [iter(enumerate(options[g.start]))]
    while frames:
        step = next(frames[-1], None)
        if step is None:
            frames.pop()
            if trail:
                states.pop()
                rewards.pop()
                trail.pop()
            continue
        idx, edge = step
        states.append(edge.dst)
        rewards.append(edge.weight)
        trail.append(idx)
        depth = len(rewards)
        for cut in range(depth):
            if states[cut] != edge.dst:
                continue
            spend(depth - cut)
            word = LassoWord(tuple(rewards[:cut]), tuple(rewards[cut:]))
            phi = eval_exact(seq, word, mode).exact
            if solver._improves(deviator, phi, value):
                key = (depth - cut, cut, tuple(trail))
                if best is None or key < best[0]:
                    best = (key, word, phi)
        if depth < max_len:
            frames.append(iter(enumerate(options[edge.dst])))
        else:
            states.pop()
            rewards.pop()
            trail.pop()
    return None if best is None else (best[1], best[2])


# The DP deviation search against the reference, both deviators, every
# opponent strategy.  Besides the benchmark classes: a negative series
# total and a negative block sum (the sign of the linear form flips), a
# finite support (ratio 0) and sequence prefixes longer than some cuts.
ORACLE_SEEDS = range(20)
ORACLE_CLASSES = ["mean", "disc:1/2", "disc:2/3", "blocks:2,1;mu=1",
                  "blocks:1,2,3;mu=1", "blocks:1,1/2;mu=1/8;prefix=3,1",
                  "blocks:3,-1;mu=1/2", "blocks:-2,1;mu=1/2",
                  "blocks:-1,-2;mu=1", "blocks:1,2;mu=0",
                  "blocks:1;mu=1/2;prefix=1,-2,3",
                  "blocks:1,2;mu=1;prefix=5,0,1"]
# The growing-class walk against the reference: integer and fractional
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


def _scan(scan, g, seq, deviator, opponent, threshold, mode=LIMINF):
    options = solver._deviation_edges(g, deviator, opponent)
    return scan(g, options, deviator, seq, mode, threshold,
                2 * len(g.states), lambda amount: None, {})


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
                found = _scan(solver._walk_scan, g, seq, deviator, opponent,
                              threshold, mode)
                assert found == _scan(_reference_scan, g, seq, deviator,
                                      opponent, threshold, mode)
                if found is not None:
                    players.append(deviator)
        assert players.count(1) >= 5 and players.count(2) >= 5
        walk = [check_memoryless(g, seq, mem_bound=2, mode=mode)
                for g in games]
        monkeypatch.setattr(solver, "_walk_scan", _reference_scan)
        assert walk == [check_memoryless(g, seq, mem_bound=2, mode=mode)
                        for g in games]


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


class TestMonotoneFalsify:
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
        assert eval_exact(seq, lasso(w.x, w.u.cycle)).exact == w.phi_xu
        assert eval_exact(seq, lasso(w.x, w.v.cycle)).exact == w.phi_xv
        assert eval_exact(seq, lasso(w.y, w.u.cycle)).exact == w.phi_yu
        assert eval_exact(seq, lasso(w.y, w.v.cycle)).exact == w.phi_yv
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

    def test_periodic_block_monotonicity_route(self):
        report = find_witness_sequence_failure(parse_sequence("blocks:2,1;mu=1"))
        assert report.found
        assert report.monotonicity is not None or report.verdict is not None

    def test_budget_exhaustion_reports_tried(self):
        report = find_witness_sequence_failure(
            parse_sequence("blocks:1,1/2;mu=1/8"), budget=2)
        assert not report.found
        assert report.tried[-1] == "(budget exhausted)"


class TestDeterminism:
    def test_repeat_runs_identical(self):
        g = two_branch_gadget()
        v1 = check_memoryless(g, geometric(2), mem_bound=2)
        v2 = check_memoryless(g, geometric(2), mem_bound=2)
        assert v1.witness.description == v2.witness.description
        assert v1.witness.lasso == v2.witness.lasso
