"""Payoff evaluators: exact closed forms, the truncation oracle, agreement."""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavg import (CoeffSeq, LassoWord, PayoffValue, RawCoeffTable,
                  UnsupportedSequenceError, analyze, disc_sum, discounted,
                  eval_approx, eval_exact, geometric, mean_payoff,
                  mean_sequence, parse_lasso, parse_sequence, random_game,
                  rotation_values, supports_exact)

from wavg import payoff, solver

from conftest import block_sequences, lassos

F = Fraction


def approx_contains(seq, word, horizon, expected, mode="liminf"):
    got = eval_approx(seq, word, horizon, mode)
    lo, hi = got.bracket
    return lo <= expected <= hi


class TestEvalExact:
    def test_mean_alternating(self):
        word = LassoWord((), (1, 0))
        assert eval_exact(mean_sequence(), word).exact == F(1, 2)

    def test_constant_word(self):
        for spec in ("mean", "disc:1/2", "geom:2", "blocks:2,1;mu=1"):
            seq = parse_sequence(spec)
            assert eval_exact(seq, LassoWord((), (7,))).exact == 7

    def test_doubling_two_cycle(self):
        assert eval_exact(geometric(2), LassoWord((), (0, 4))).exact == F(4, 3)

    def test_doubling_four_cycle(self):
        value = eval_exact(geometric(2), LassoWord((), (1, 2, 0, 4))).exact
        assert value == F(14, 15)

    def test_discounted_spike(self):
        value = eval_exact(discounted(F(1, 2)), LassoWord((1,), (0,))).exact
        assert value == F(1, 2)
        assert value == analyze(discounted(F(1, 2))).inv_psum_liminf

    def test_periodic_block(self):
        seq = parse_sequence("blocks:2,1;mu=1")
        assert eval_exact(seq, LassoWord((), (1, 0))).exact == F(2, 3)

    def test_rotation_set(self):
        assert set(rotation_values(2, (1, 2, 0, 4))) == {
            F(37, 15), F(26, 15), F(28, 15), F(14, 15)}

    def test_limsup_mode_takes_max_rotation(self):
        value = eval_exact(geometric(2), LassoWord((), (1, 2, 0, 4)), "limsup")
        assert value.exact == F(37, 15)

    def test_modes_agree_when_limit_exists(self):
        for spec in ("mean", "disc:1/2", "blocks:2,1;mu=1"):
            seq = parse_sequence(spec)
            word = LassoWord((3,), (1, 0, 2))
            assert (eval_exact(seq, word, "liminf").exact
                    == eval_exact(seq, word, "limsup").exact)

    def test_unsupported_table(self):
        with pytest.raises(UnsupportedSequenceError):
            eval_exact(parse_sequence("table:1,1"), LassoWord((), (1,)))

    def test_only_a_coefficient_sequence_has_a_closed_form(self):
        assert supports_exact(RawCoeffTable((1, 1))) is False
        assert supports_exact("mean") is False

    def test_unsupported_growing_block(self):
        seq = CoeffSeq((3,), (1, -1), 2)
        assert not supports_exact(seq)
        with pytest.raises(UnsupportedSequenceError):
            eval_exact(seq, LassoWord((), (1,)))

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
            eval_exact(seq, LassoWord((), (1, 2)))

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
                word = LassoWord((), tuple(int(j == i) for j in range(k)))
                assert eval_exact(mean_sequence(), word).exact == F(1, k)
                neg = LassoWord((), tuple(-int(j == i) for j in range(k)))
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
        assert disc_sum(F(1, 2), LassoWord((), (1, 0))) == F(2, 3)

    def test_constant(self):
        assert disc_sum(F(1, 4), LassoWord((), (5,))) == 5

    def test_prefixed_spike(self):
        assert disc_sum(F(1, 2), LassoWord((1,), (0,))) == F(1, 2)

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            disc_sum(F(3, 2), LassoWord((), (1,)))

    @settings(max_examples=60)
    @given(st.sampled_from([F(1, 4), F(1, 2), F(9, 10)]),
           lassos(max_prefix=4, max_cycle=6))
    def test_agrees_with_exact_evaluator(self, lam, word):
        assert disc_sum(lam, word) == eval_exact(discounted(lam), word).exact


class TestEvalApprox:
    def test_mean_bracket(self):
        got = eval_approx(mean_sequence(), LassoWord((), (1, 0)), 1000)
        lo, hi = got.bracket
        assert lo <= F(1, 2) <= hi
        assert hi - lo <= F(2, 1000)

    def test_doubling_bracket(self):
        got = eval_approx(geometric(2), LassoWord((), (1, 2, 0, 4)), 64)
        lo, hi = got.bracket
        assert lo <= F(14, 15) <= hi
        assert abs(lo - F(14, 15)) <= F(1, 2 ** 50)

    def test_table_constant(self):
        table = parse_sequence("table:" + ",".join(["1"] * 100))
        got = eval_approx(table, LassoWord((), (3,)), 99)
        assert got.bracket == (3, 3)
        assert got.horizon_used == 99

    def test_table_horizon_overflow(self):
        with pytest.raises(ValueError):
            eval_approx(parse_sequence("table:1,1,1"), LassoWord((), (1,)), 4)

    def test_minimum_horizon_enforced(self):
        with pytest.raises(ValueError):
            eval_approx(mean_sequence(), LassoWord((), (1, 0)), 3)

    def test_prefixed_mean_bracket_contains_limit(self):
        got = eval_approx(mean_sequence(), LassoWord((5, 5, 5, 5), (1,)), 1000)
        lo, hi = got.bracket
        assert lo <= 1 <= hi

    def test_width_shrinks_with_horizon(self):
        for spec, word in [("disc:1/2", LassoWord((2,), (1, 0))),
                           ("blocks:2,1;mu=1", LassoWord((), (1, 0, 0)))]:
            seq = parse_sequence(spec)
            widths = []
            for horizon in (50, 100, 200, 400):
                lo, hi = eval_approx(seq, word, horizon).bracket
                widths.append(hi - lo)
            assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_growing_block_sequence_still_bracketable(self):
        seq = CoeffSeq((3,), (2, 1), 2)
        for mode in ("liminf", "limsup"):
            word = LassoWord((), (1, 0))
            exact = eval_exact(seq, word, mode).exact
            assert approx_contains(seq, word, 100, exact, mode)

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


def reward_at(word, i):
    """The reward of ``word`` at position i."""
    if i < word.prefix_len:
        return word.prefix[i]
    return word.cycle[(i - word.prefix_len) % word.cycle_len]


def _reference_approx(seq, word, horizon, mode):
    """The truncation oracle with running Fraction sums, term by term."""
    if isinstance(seq, RawCoeffTable):
        ratios = []
        num = den = F(0)
        for i in range(horizon):
            num += seq.values[i] * reward_at(word, i)
            den += seq.values[i]
            ratios.append(num / den)
        tail = ratios[-min(2 * word.cycle_len, horizon):]
        return min(tail), max(tail)
    p, mu = seq.period, seq.ratio
    super_period = lcm(p, word.cycle_len)
    nums, dens = [F(0)], [F(0)]
    coeffs = seq.terms()
    for i in range(horizon):
        c = next(coeffs)
        nums.append(nums[-1] + c * reward_at(word, i))
        dens.append(dens[-1] + c)
    rho = mu ** (super_period // p)
    lows, highs = [], []
    for r in range(super_period):
        n1 = horizon - ((horizon - r) % super_period)
        points = (n1, n1 - super_period, n1 - 2 * super_period)
        limit = _reference_limit(tuple(nums[n] for n in points),
                                 tuple(dens[n] for n in points), rho)
        sample = nums[n1] / dens[n1]
        lows.append(min(sample, limit))
        highs.append(max(sample, limit))
    if mode == "liminf":
        return min(lows), min(highs)
    return max(lows), max(highs)


def _reference_limit(num_samples, den_samples, rho):
    """The limit of num/den along one phase, from Fraction fits of
    y_j = const + lead * rho**(-j) to the samples y0, y1, y2 (latest first)
    of the numerator and of the denominator; y2 checks each fit."""
    fits = []
    for y0, y1, y2 in (num_samples, den_samples):
        if rho == 1:
            if y0 - y1 != y1 - y2:
                raise RuntimeError(
                    "tail samples do not lie on a single affine trend")
            fits.append((y0 - y1, None))
        elif rho == 0:
            if not y0 == y1 == y2:
                raise RuntimeError(
                    "tail samples of a truncated sequence disagree")
            fits.append((F(0), y0))
        else:
            lead = (y0 - y1) / (1 - 1 / rho)
            const = y0 - lead
            if const + lead / rho ** 2 != y2:
                raise RuntimeError(
                    "tail samples do not lie on a single geometric trend")
            fits.append((lead, const))
    (lead_n, const_n), (lead_d, const_d) = fits
    if rho < 1:
        if const_d != 0:
            return const_n / const_d
        if const_n == 0 and lead_d != 0:
            return lead_n / lead_d
        raise UnsupportedSequenceError(
            "partial sums vanish in the limit; the payoff is not a finite rational")
    if lead_d != 0:
        return lead_n / lead_d
    if lead_n == 0:
        return const_n / const_d
    raise UnsupportedSequenceError(
        "partial ratios diverge along a phase; no finite bracket exists")


def _seeded_word(rng):
    def symbol():
        return F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
    return LassoWord([symbol() for _ in range(rng.randint(0, 3))],
                 [symbol() for _ in range(rng.randint(1, 6))])


# The word-sweep benchmark's exact classes, plus ratio 0 with blocks of
# length 1 and 2.
APPROX_CLASSES = ["mean", "disc:1/2", "disc:2/3", "blocks:2,1;mu=1",
                  "blocks:1,2,3;mu=1", "blocks:1,1/2;mu=1/8;prefix=3,1",
                  "geom:2", "geom:3", "geom:3/2", "blocks:1;mu=0",
                  "blocks:1,1;mu=0", "blocks:2,-1/2;mu=0;prefix=1"]


def _outcome(evaluate, *args):
    """The bracket, or the type and message of the error raised."""
    try:
        return evaluate(*args)
    except (RuntimeError, ValueError, UnsupportedSequenceError) as exc:
        return type(exc), str(exc)


class TestEvalApproxMatchesFractionLoop:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("spec", APPROX_CLASSES)
    def test_sequence_brackets(self, spec, seed):
        seq = parse_sequence(spec)
        rng = random.Random(seed)
        for mode in ("liminf", "limsup"):
            for _ in range(3):
                word = _seeded_word(rng)
                got = eval_approx(seq, word, 160, mode).bracket
                assert got == _reference_approx(seq, word, 160, mode)

    @pytest.mark.parametrize("seed", range(4))
    def test_table_brackets(self, seed):
        rng = random.Random(seed)
        table = RawCoeffTable(tuple(F(rng.randint(1, 9), rng.randint(1, 4))
                                    for _ in range(40)))
        for horizon in (16, 40):
            for mode in ("liminf", "limsup"):
                word = _seeded_word(rng)
                got = eval_approx(table, word, horizon, mode).bracket
                assert got == _reference_approx(table, word, horizon, mode)

    @pytest.mark.parametrize("spec, word, horizon, mode, error", [
        ("blocks:1,-3;mu=3", "prefix=1;cycle=6,-3,4/3,4", 64, "limsup",
         "partial ratios diverge along a phase; no finite bracket exists"),
        ("blocks:-2;mu=1/2;prefix=2,1,1", "prefix=-3;cycle=-2", 160, "liminf",
         "partial sums vanish in the limit; the payoff is not a finite "
         "rational"),
    ])
    def test_fit_errors(self, spec, word, horizon, mode, error):
        seq, word = parse_sequence(spec), parse_lasso(word)
        with pytest.raises(UnsupportedSequenceError, match=error):
            eval_approx(seq, word, horizon, mode)
        with pytest.raises(UnsupportedSequenceError, match=error):
            _reference_approx(seq, word, horizon, mode)

    @pytest.mark.parametrize("mode, want", [
        ("liminf", (F(3), F(1572869, 524289))), ("limsup", (F(5), F(5)))])
    def test_growing_sequence_with_a_bounded_phase(self, mode, want):
        # c = 1, 1, -1, 2, -2, ...: the partial sums at odd n stay at 1,
        # so that phase's limit comes from the constants of the fit.
        seq = parse_sequence("blocks:1,-1;mu=2;prefix=1")
        word = parse_lasso("prefix=5;cycle=3")
        assert eval_approx(seq, word, 40, mode).bracket == want
        assert _reference_approx(seq, word, 40, mode) == want

    @pytest.mark.parametrize("rho", [F(0), F(1, 8), F(2, 3), F(1), F(2),
                                     F(3, 2)])
    def test_fit_on_synthetic_samples(self, rho):
        # Integer samples on a trend, some with one sample knocked off it:
        # the integer fit and the Fraction fit agree on the limit or on
        # the error.  Denominators that sequence admission rules out (a
        # zero partial sum, an affine tail that does not grow) are skipped.
        rng = random.Random(str(rho))
        a, b = rho.numerator, rho.denominator
        for _ in range(300):
            tracks = []
            for _ in range(2):
                const, lead = rng.randint(-3, 3), rng.randint(-3, 3)
                if rho == 0:
                    ys = [const] * 3
                elif rho == 1:
                    ys = [const - lead * j for j in range(3)]
                else:
                    ys = [const * a * a + lead * a ** (2 - j) * b ** j
                          for j in range(3)]
                if rng.random() < 0.3:
                    ys[rng.randrange(3)] += rng.choice((-1, 1))
                tracks.append(tuple(ys))
            dens = tracks[1]
            if dens[0] == 0 or (rho == 1 and dens[0] == dens[1]):
                continue
            got = _outcome(lambda *args: F(*payoff._fitted_limit(*args)),
                           *tracks, a, b)
            want = _outcome(_reference_limit,
                            *(tuple(map(F, ys)) for ys in tracks), rho)
            assert got == want

    def test_seeded_block_sequences(self):
        # Blocks of length 1-3 under every ratio class; some phases
        # diverge or vanish, and both evaluators must fail alike there.
        rng = random.Random(0)
        errors = 0
        for _ in range(160):
            block = ",".join(str(F(rng.randint(-4, 4), rng.choice((1, 2))))
                             for _ in range(rng.randint(1, 3)))
            mu = rng.choice(["0", "1/2", "1", "2", "3"])
            prefix = ",".join(str(rng.randint(-3, 3))
                              for _ in range(rng.randint(0, 2)))
            try:
                seq = parse_sequence(f"blocks:{block};mu={mu}"
                                     + (f";prefix={prefix}" if prefix else ""))
                analyze(seq)
            except ValueError:
                continue
            word = _seeded_word(rng)
            mode = rng.choice(("liminf", "limsup"))
            got = _outcome(lambda *a: eval_approx(*a).bracket,
                           seq, word, 160, mode)
            assert got == _outcome(_reference_approx, seq, word, 160, mode)
            errors += got[0] is UnsupportedSequenceError
        assert errors > 0


def _words_up_to(alphabet, max_len, min_len=0):
    return [word for k in range(min_len, max_len + 1)
            for word in itertools.product(alphabet, repeat=k)]


class TestShapeKernel:
    """eval_exact's shape kernels against oracles that do not use them."""

    @pytest.mark.parametrize("ratio", [F(2), F(3, 2), F(3)])
    def test_growing_extremes_are_rotation_values(self, ratio):
        seq = geometric(ratio)
        for prefix in ((), (5,), (1, -3)):
            for cycle in _words_up_to((-1, 0, 2), 4, min_len=1):
                rotations = rotation_values(ratio, cycle)
                word = LassoWord(prefix, cycle)
                assert eval_exact(seq, word, "liminf").exact == min(rotations)
                assert eval_exact(seq, word, "limsup").exact == max(rotations)

    @pytest.mark.parametrize("spec, oracle", [
        ("blocks:1;mu=1/2;prefix=1,-2,3", None),
        ("blocks:1,1/2;mu=1/8;prefix=3,1", None),
        ("disc:1/2", lambda word: disc_sum(F(1, 2), word)),
        ("mean", mean_payoff)])
    def test_prefixes_shorter_than_the_sequence_prefix(self, spec, oracle):
        # Every word over {0, 1} with |x| <= 3 and |u| <= 3: the prefixed
        # blocks read some of their head past the word's prefix.
        seq = parse_sequence(spec)
        for x in _words_up_to((0, 1), 3):
            for u in _words_up_to((0, 1), 3, min_len=1):
                word = LassoWord(x, u)
                for mode in ("liminf", "limsup"):
                    value = eval_exact(seq, word, mode).exact
                    assert approx_contains(seq, word, 60, value, mode)
                    assert oracle is None or value == oracle(word)


class TestOraclesAvoidTheClosedForm:
    def test_truncation_oracle_and_value_iteration(self, monkeypatch):
        game = random_game(4)
        word = LassoWord((F(1, 2),), (3, -1, 0))
        specs = ["geom:3/2", "disc:2/3", "blocks:2,1;mu=1"]
        want = ([eval_approx(parse_sequence(spec), word, 40, mode).bracket
                 for spec in specs for mode in ("liminf", "limsup")],
                solver.value_iter_disc(game, F(2, 3), 12).values,
                solver.value_iter_mean(game, 12).values)

        def closed_form(*args, **kwargs):
            raise AssertionError("an oracle reached the closed form")

        for module, names in (
                (payoff, ("_Shape", "_phase_sums", "eval_exact")),
                (solver, ("_Shape", "eval_exact"))):
            for name in names:
                monkeypatch.setattr(module, name, closed_form)
        with pytest.raises(AssertionError):
            eval_exact(parse_sequence("mean"), word)
        got = ([eval_approx(parse_sequence(spec), word, 40, mode).bracket
                for spec in specs for mode in ("liminf", "limsup")],
               solver.value_iter_disc(game, F(2, 3), 12).values,
               solver.value_iter_mean(game, 12).values)
        assert got == want


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
        assert word == LassoWord((1, 2), (0, 4))
        assert parse_lasso("cycle=1") == LassoWord((), (1,))

    def test_requires_cycle(self):
        with pytest.raises(Exception):
            parse_lasso("prefix=1,2")

    def test_symbols(self):
        word = LassoWord((9,), (1, 2))
        assert [reward_at(word, i) for i in range(6)] == [9, 1, 2, 1, 2, 1]
