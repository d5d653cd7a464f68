"""Payoff evaluators: exact closed forms, the truncation oracle, agreement."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavg import (CoeffSeq, LassoWord, PayoffValue, RawCoeffTable,
                  UnsupportedSequenceError, analyze, disc_sum, discounted,
                  eval_approx, eval_exact, geometric, lasso, mean_payoff,
                  mean_sequence, parse_lasso, parse_sequence, rotation_values,
                  supports_exact)

from conftest import block_sequences, lassos

F = Fraction


def approx_contains(seq, word, horizon, expected, mode="liminf"):
    got = eval_approx(seq, word, horizon, mode)
    lo, hi = got.bracket
    return lo <= expected <= hi


class TestEvalExact:
    def test_mean_alternating(self):
        assert eval_exact(mean_sequence(), lasso((), (1, 0))).exact == F(1, 2)

    def test_constant_word(self):
        for spec in ("mean", "disc:1/2", "geom:2", "blocks:2,1;mu=1"):
            seq = parse_sequence(spec)
            assert eval_exact(seq, lasso((), (7,))).exact == 7

    def test_doubling_two_cycle(self):
        assert eval_exact(geometric(2), lasso((), (0, 4))).exact == F(4, 3)

    def test_doubling_four_cycle(self):
        value = eval_exact(geometric(2), lasso((), (1, 2, 0, 4))).exact
        assert value == F(14, 15)

    def test_discounted_spike(self):
        value = eval_exact(discounted(F(1, 2)), lasso((1,), (0,))).exact
        assert value == F(1, 2)
        assert value == analyze(discounted(F(1, 2))).inv_psum_liminf

    def test_periodic_block(self):
        seq = parse_sequence("blocks:2,1;mu=1")
        assert eval_exact(seq, lasso((), (1, 0))).exact == F(2, 3)

    def test_rotation_set(self):
        assert set(rotation_values(2, (1, 2, 0, 4))) == {
            F(37, 15), F(26, 15), F(28, 15), F(14, 15)}

    def test_limsup_mode_takes_max_rotation(self):
        value = eval_exact(geometric(2), lasso((), (1, 2, 0, 4)), "limsup")
        assert value.exact == F(37, 15)

    def test_modes_agree_when_limit_exists(self):
        for spec in ("mean", "disc:1/2", "blocks:2,1;mu=1"):
            seq = parse_sequence(spec)
            word = lasso((3,), (1, 0, 2))
            assert (eval_exact(seq, word, "liminf").exact
                    == eval_exact(seq, word, "limsup").exact)

    def test_unsupported_table(self):
        with pytest.raises(UnsupportedSequenceError):
            eval_exact(parse_sequence("table:1,1"), lasso((), (1,)))

    def test_unsupported_growing_block(self):
        seq = CoeffSeq((3,), (1, -1), 2)
        assert not supports_exact(seq)
        with pytest.raises(UnsupportedSequenceError):
            eval_exact(seq, lasso((), (1,)))

    def test_growing_block_phase_limits(self):
        # The six phases of the super-period lcm(2, 3) tend to 5/21, 3/7,
        # 2/7, 3/14, 10/21 and 5/14; liminf and limsup are the extremes.
        seq = parse_sequence("blocks:1,2;mu=2")
        word = parse_lasso("cycle=1,0,0")
        for mode, expected in (("liminf", F(3, 14)), ("limsup", F(10, 21))):
            assert eval_exact(seq, word, mode).exact == expected
            assert approx_contains(seq, word, 200, expected, mode)

    def test_unsupported_vanishing_total(self):
        seq = CoeffSeq((1,), (F(-1, 2),), F(1, 2))  # partial sums 2**(1-n)
        assert analyze(seq).series_sum == 0
        with pytest.raises(UnsupportedSequenceError):
            eval_exact(seq, lasso((), (1, 2)))

    @settings(max_examples=40)
    @given(lassos(max_prefix=3, max_cycle=4))
    def test_mean_equals_cycle_average(self, word):
        assert eval_exact(mean_sequence(), word).exact == mean_payoff(word)

    @settings(max_examples=40)
    @given(block_sequences(), lassos(max_prefix=3, max_cycle=3))
    @example(CoeffSeq((), (1, 0), 1), parse_lasso("prefix=0;cycle=0,1"))
    def test_prefix_independence_of_divergent_classes(self, seq, word):
        if not supports_exact(seq):
            return
        if analyze(seq).series_sum is not None:
            return  # convergent payoffs do depend on prefixes
        # A prefix shifts the block phase against the cycle, so only a
        # leading part whose length is a multiple of the period may go:
        # with block (1,0), prefix=0;cycle=0,1 is worth 1 and cycle=0,1 0.
        kept = word.prefix_len % seq.period
        stripped = LassoWord(word.prefix[word.prefix_len - kept:], word.cycle)
        assert (eval_exact(seq, word).exact
                == eval_exact(seq, stripped).exact)

    def test_spike_words_mean(self):
        for k in range(1, 7):
            for i in range(k):
                word = lasso((), tuple(int(j == i) for j in range(k)))
                assert eval_exact(mean_sequence(), word).exact == F(1, k)
                neg = lasso((), tuple(-int(j == i) for j in range(k)))
                assert eval_exact(mean_sequence(), neg).exact == F(-1, k)

    @settings(max_examples=30)
    @given(lassos(max_prefix=2, max_cycle=4))
    def test_liminf_below_limsup_for_growth(self, word):
        seq = geometric(2)
        lo = eval_exact(seq, word, "liminf").exact
        hi = eval_exact(seq, word, "limsup").exact
        assert lo <= hi
        values = rotation_values(2, word.cycle)
        assert lo == min(values) and hi == max(values)


class TestDiscSum:
    def test_alternating(self):
        assert disc_sum(F(1, 2), lasso((), (1, 0))) == F(2, 3)

    def test_constant(self):
        assert disc_sum(F(1, 4), lasso((), (5,))) == 5

    def test_prefixed_spike(self):
        assert disc_sum(F(1, 2), lasso((1,), (0,))) == F(1, 2)

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            disc_sum(F(3, 2), lasso((), (1,)))

    @settings(max_examples=60)
    @given(st.sampled_from([F(1, 4), F(1, 2), F(9, 10)]),
           lassos(max_prefix=4, max_cycle=6))
    def test_agrees_with_exact_evaluator(self, lam, word):
        assert disc_sum(lam, word) == eval_exact(discounted(lam), word).exact


class TestEvalApprox:
    def test_mean_bracket(self):
        got = eval_approx(mean_sequence(), lasso((), (1, 0)), 1000)
        lo, hi = got.bracket
        assert lo <= F(1, 2) <= hi
        assert hi - lo <= F(2, 1000)

    def test_doubling_bracket(self):
        got = eval_approx(geometric(2), lasso((), (1, 2, 0, 4)), 64)
        lo, hi = got.bracket
        assert lo <= F(14, 15) <= hi
        assert abs(lo - F(14, 15)) <= F(1, 2 ** 50)

    def test_table_constant(self):
        table = parse_sequence("table:" + ",".join(["1"] * 100))
        got = eval_approx(table, lasso((), (3,)), 99)
        assert got.bracket == (3, 3)
        assert got.horizon_used == 99

    def test_table_horizon_overflow(self):
        with pytest.raises(ValueError):
            eval_approx(parse_sequence("table:1,1,1"), lasso((), (1,)), 4)

    def test_minimum_horizon_enforced(self):
        with pytest.raises(ValueError):
            eval_approx(mean_sequence(), lasso((), (1, 0)), 3)

    def test_prefixed_mean_bracket_contains_limit(self):
        got = eval_approx(mean_sequence(), lasso((5, 5, 5, 5), (1,)), 1000)
        lo, hi = got.bracket
        assert lo <= 1 <= hi

    def test_width_shrinks_with_horizon(self):
        for spec, word in [("disc:1/2", lasso((2,), (1, 0))),
                           ("blocks:2,1;mu=1", lasso((), (1, 0, 0)))]:
            seq = parse_sequence(spec)
            widths = []
            for horizon in (50, 100, 200, 400):
                lo, hi = eval_approx(seq, word, horizon).bracket
                widths.append(hi - lo)
            assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_growing_block_sequence_still_bracketable(self):
        seq = CoeffSeq((3,), (2, 1), 2)
        for mode in ("liminf", "limsup"):
            exact = eval_exact(seq, lasso((), (1, 0)), mode).exact
            assert approx_contains(seq, lasso((), (1, 0)), 100, exact, mode)

    @settings(max_examples=40, deadline=None)
    @given(block_sequences(max_prefix=2, max_block=2),
           lassos(max_prefix=2, max_cycle=3, max_num=4))
    def test_bracket_contains_exact_value(self, seq, word):
        if not supports_exact(seq):
            return
        exact = eval_exact(seq, word).exact
        settled = max(seq.prefix_len, word.prefix_len)
        horizon = settled + 4 * lcm(seq.period, word.cycle_len) + 40
        assert approx_contains(seq, word, horizon, exact)

    @settings(max_examples=20, deadline=None)
    @given(lassos(max_prefix=2, max_cycle=3, max_num=4))
    def test_limsup_bracket_contains_limsup_value(self, word):
        seq = geometric(2)
        exact = eval_exact(seq, word, "limsup").exact
        horizon = word.prefix_len + 4 * word.cycle_len + 40
        assert approx_contains(seq, word, horizon, exact, "limsup")


class TestPayoffValue:
    def test_exactly_one_representation(self):
        with pytest.raises(ValueError):
            PayoffValue(mode="liminf")
        with pytest.raises(ValueError):
            PayoffValue(mode="liminf", exact=F(1), bracket=(F(0), F(1)))
        with pytest.raises(ValueError):
            PayoffValue(mode="liminf", bracket=(F(1), F(0)))
        with pytest.raises(ValueError):
            PayoffValue(mode="sometimes", exact=F(1))

    def test_rendering(self):
        assert str(PayoffValue(mode="liminf", exact=F(14, 15))) == "14/15"
        rendered = str(PayoffValue(mode="liminf", bracket=(F(3), F(3)),
                                   horizon_used=9))
        assert rendered == "bracket[3, 3] horizon=9"


class TestLassoParsing:
    def test_round_trip(self):
        word = parse_lasso("prefix=1,2;cycle=0,4")
        assert word == lasso((1, 2), (0, 4))
        assert parse_lasso("cycle=1") == lasso((), (1,))

    def test_requires_cycle(self):
        with pytest.raises(Exception):
            parse_lasso("prefix=1,2")

    def test_symbols(self):
        word = lasso((9,), (1, 2))
        assert [word.symbol(i) for i in range(6)] == [9, 1, 2, 1, 2, 1]
