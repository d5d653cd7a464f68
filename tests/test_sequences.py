"""Core sequence machinery: partial sums, admission, classification."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavg import (Classification, CoeffSeq, RawCoeffTable,
                  SequenceAdmissionError, SequenceFormatError, analyze,
                  as_rational,
                  discounted, first_zero_partial_sum, geometric, mean_sequence, parse_rational,
                  parse_sequence, partial_sum)

from conftest import block_sequences

F = Fraction


class TestPartialSum:
    def test_mean_sequence(self):
        assert partial_sum(mean_sequence(), 5) == 5

    def test_discounted_half(self):
        assert partial_sum(discounted(F(1, 2)), 3) == F(7, 4)

    def test_doubling(self):
        assert partial_sum(geometric(2), 4) == 15

    def test_zero_terms(self):
        assert partial_sum(geometric(2), 0) == 0

    def test_prefix_region(self):
        seq = CoeffSeq((3, -1), (2,), F(1, 2))
        assert partial_sum(seq, 1) == 3
        assert partial_sum(seq, 2) == 2
        assert partial_sum(seq, 3) == 4
        assert partial_sum(seq, 4) == 5

    @settings(max_examples=60)
    @given(block_sequences(admitted=False), st.integers(0, 10_000))
    def test_closed_form_matches_term_recurrence(self, seq, n):
        assert partial_sum(seq, n + 1) - partial_sum(seq, n) == seq.term(n)

    @settings(max_examples=40)
    @given(block_sequences(admitted=False), st.integers(0, 300))
    def test_closed_form_matches_accumulation(self, seq, n):
        total = F(0)
        terms = seq.terms()
        for _ in range(n):
            total += next(terms)
        assert partial_sum(seq, n) == total

    @settings(max_examples=40)
    @given(block_sequences(admitted=False), st.integers(0, 200))
    def test_convergent_tail_bound(self, seq, n):
        an_ratio = seq.ratio
        if an_ratio >= 1:
            return
        m, p = seq.prefix_len, seq.period
        if n < m:
            return
        total = sum(seq.prefix, F(0)) + sum(seq.block, F(0)) / (1 - an_ratio)
        peak = max(abs(b) for b in seq.block)
        bound = peak * p * an_ratio ** ((n - m) // p) / (1 - an_ratio)
        assert abs(partial_sum(seq, n) - total) <= bound


class TestZeroPartialSumCheck:
    def test_doubling_passes(self):
        assert first_zero_partial_sum(geometric(2)) is None

    def test_cancelling_prefix(self):
        seq = CoeffSeq((1, -1), (1,), 1)
        assert first_zero_partial_sum(seq) == 2

    def test_periodic_block_passes(self):
        assert first_zero_partial_sum(CoeffSeq((), (2, 1), 1)) is None

    def test_linear_descent_found_analytically(self):
        # d_n = 5, 4, 3, 2, 1, 0: the zero lies beyond the direct region.
        seq = CoeffSeq((5,), (-1,), 1)
        assert first_zero_partial_sum(seq) == 6

    def test_geometric_residue_solved_exactly(self):
        for prefix, block, ratio, first in [
                # c = -3, 2, 1, 1/2, ...: d_3 = 0 via the mu**t = r equation.
                ((-3,), (2,), F(1, 2), 3),
                # A growing ratio: d = -5/2, -3/2, 0.
                ((F(-5, 2),), (1,), F(3, 2), 3),
                # Neither the numerator nor the denominator of the ratio is 1.
                ((F(-19, 9),), (1,), F(2, 3), 4),
                # The zero lies in residue class j = 1 of a two-entry block.
                ((F(-7, 4),), (1, 0), F(1, 2), 6),
                # A ratio near 1: d_3 = -2000001/1000000 + 1 + 1000001/1000000.
                ((F(-2000001, 1000000),), (1,), F(1000001, 1000000), 3)]:
            seq = CoeffSeq(prefix, block, ratio)
            assert first_zero_partial_sum(seq) == first

    def test_near_miss_is_accepted(self):
        for prefix, block, ratio in [((-3,), (2,), F(1, 3)),
                                     ((F(-5, 2),), (2,), F(1, 2)),
                                     ((-2,), (1,), F(2, 3)),
                                     ((-2,), (1,), F(3, 2)),
                                     # A ratio near 1 needs few steps.
                                     ((-1000000,), (1,),
                                      F(1000001, 1000000))]:
            seq = CoeffSeq(prefix, block, ratio)
            assert first_zero_partial_sum(seq) is None

    @settings(max_examples=60)
    @given(block_sequences(admitted=False))
    def test_agrees_with_direct_scan(self, seq):
        analytic = first_zero_partial_sum(seq)
        horizon = 3 * (seq.prefix_len + seq.period) + 60
        direct = None
        total = F(0)
        terms = seq.terms()
        for n in range(1, horizon + 1):
            total += next(terms)
            if total == 0:
                direct = n
                break
        if analytic is None:
            assert direct is None
        elif analytic <= horizon:
            assert direct == analytic


class TestAnalyze:
    def test_discounted_half(self):
        an = analyze(discounted(F(1, 2)))
        assert an.classification is Classification.CONVERGENT
        assert an.series_sum == 2
        assert an.even_sum == F(4, 3)
        assert an.odd_sum == F(2, 3)
        assert an.inv_psum_liminf == F(1, 2)
        assert an.inv_psum_limsup == F(1, 2)

    def test_mean(self):
        an = analyze(mean_sequence())
        assert an.classification is Classification.DIVERGENT_BOUNDED
        assert an.inv_psum_liminf == 0
        assert an.inv_psum_limsup == 0
        assert an.bound == 1

    def test_doubling(self):
        an = analyze(geometric(2))
        assert an.classification is Classification.DIVERGENT_UNBOUNDED
        assert an.inv_psum_liminf == 0

    def test_block_sequence(self):
        an = analyze(parse_sequence("blocks:1,1/2;mu=1/8"))
        assert an.series_sum == F(12, 7)
        assert an.even_sum == F(8, 7)
        assert an.odd_sum == F(4, 7)

    def test_rejects_zero_partial_sum_with_index(self):
        with pytest.raises(SequenceAdmissionError) as err:
            analyze(CoeffSeq((1, -1), (1,), 1))
        assert err.value.violation_index == 2
        assert "d_2" in str(err.value)

    def test_rejects_zero_sum_block(self):
        with pytest.raises(SequenceAdmissionError):
            analyze(CoeffSeq((3,), (1, -1), 1))

    @settings(max_examples=40)
    @given(st.builds(Fraction, st.integers(1, 9), st.integers(10, 20)))
    def test_odd_even_ratio_of_geometric(self, lam):
        an = analyze(geometric(lam))
        assert an.odd_sum / an.even_sum == lam

    @settings(max_examples=50)
    @given(block_sequences())
    def test_split_sums_recombine(self, seq):
        an = analyze(seq)
        if an.classification is Classification.CONVERGENT:
            assert an.even_sum + an.odd_sum == an.series_sum
            if an.series_sum != 0:
                assert an.inv_psum_liminf == 1 / an.series_sum

    @settings(max_examples=40)
    @given(block_sequences())
    @example(CoeffSeq((1,), (0, 0, 1), F(9, 10)))
    def test_even_odd_sums_against_truncation(self, seq):
        an = analyze(seq)
        if an.classification is not Classification.CONVERGENT:
            return
        horizon = 400
        even = odd = F(0)
        terms = seq.terms()
        for i in range(horizon):
            c = next(terms)
            if i % 2 == 0:
                even += c
            else:
                odd += c
        # Every term past the horizon lies in block repetition t >= laps,
        # whose entries are at most |b_j| * mu**t, so the dropped tail of
        # either parity is at most sum|b_j| * mu**laps / (1 - mu).
        laps = (horizon - seq.prefix_len) // seq.period
        tail = (sum(abs(b) for b in seq.block) * seq.ratio ** laps
                / (1 - seq.ratio))
        assert abs(even - an.even_sum) <= tail
        assert abs(odd - an.odd_sum) <= tail


class TestConstructionAndParsing:
    def test_negative_ratio_rejected(self):
        with pytest.raises(SequenceFormatError):
            CoeffSeq((), (1,), F(-1, 2))

    def test_empty_block_rejected(self):
        with pytest.raises(SequenceFormatError):
            CoeffSeq((), (), 1)

    def test_zero_first_coefficient_rejected(self):
        with pytest.raises(SequenceFormatError):
            CoeffSeq((0, 1), (1,), 1)
        with pytest.raises(SequenceFormatError):
            CoeffSeq((), (0,), 1)

    def test_all_zero_block_pinned_to_zero_ratio(self):
        seq = CoeffSeq((5,), (0, 0), 7)
        assert seq.ratio == 0
        assert analyze(seq).classification is Classification.CONVERGENT

    def test_hash_is_computed_once(self, monkeypatch):
        seq = parse_sequence("blocks:1,1/2;mu=1/8;prefix=3")
        same = CoeffSeq((3,), (1, F(1, 2)), F(1, 8))
        pinned, zero = CoeffSeq((5,), (0, 0), 7), CoeffSeq((5,), (0, 0), 0)
        hashes = [hash(seq), hash(pinned)]

        def refuse(self):
            raise AssertionError("a sequence rehashed its Fractions")

        monkeypatch.setattr(Fraction, "__hash__", refuse)
        assert [hash(seq), hash(pinned)] == hashes
        assert hash(same) == hash(seq) and same == seq
        assert hash(zero) == hash(pinned) and zero == pinned
        assert {seq: 1}[same] == 1

    def test_parse_mean(self):
        assert parse_sequence("mean") == mean_sequence()

    def test_parse_disc(self):
        assert parse_sequence("disc:1/2") == discounted(F(1, 2))
        with pytest.raises(SequenceFormatError):
            parse_sequence("disc:3/2")

    def test_parse_geom(self):
        assert parse_sequence("geom:2") == geometric(2)
        with pytest.raises(SequenceFormatError):
            parse_sequence("geom:0")

    def test_parse_blocks(self):
        seq = parse_sequence("blocks:2,1;mu=1")
        assert seq == CoeffSeq((), (2, 1), 1)
        seq = parse_sequence("blocks:1,1/2;mu=1/8;prefix=3")
        assert seq == CoeffSeq((3,), (1, F(1, 2)), F(1, 8))

    def test_parse_table(self):
        table = parse_sequence("table:1,1,1,1")
        assert isinstance(table, RawCoeffTable)
        assert table.values == (1, 1, 1, 1)

    def test_table_rejects_zero_partial_sum(self):
        with pytest.raises(SequenceAdmissionError):
            RawCoeffTable((1, -1, 1))

    def test_table_rejects_empty_values(self):
        with pytest.raises(SequenceFormatError, match="table must be nonempty"):
            RawCoeffTable(())

    def test_as_rational_reads_text_and_refuses_floats(self):
        assert as_rational("1/2") == F(1, 2)
        with pytest.raises(SequenceFormatError, match="cannot interpret 1.5"):
            as_rational(1.5)

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError, match="index must be nonnegative"):
            CoeffSeq().term(-1)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            partial_sum(mean_sequence(), -1)

    def test_malformed_rational(self):
        with pytest.raises(SequenceFormatError):
            parse_rational("1/2/3")
        with pytest.raises(SequenceFormatError):
            parse_rational("1.5")
        # Only ASCII digits, and nothing after the last one: Python's \d
        # matches every Unicode digit and $ matches before a final newline.
        for token in ("\u0663", "\uff11\uff12", "1\n", "1/\u0662"):
            with pytest.raises(SequenceFormatError, match="malformed"):
                parse_rational(token)
        with pytest.raises(SequenceFormatError):
            parse_sequence("blocks:2,1")
