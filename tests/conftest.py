"""Shared hypothesis strategies for sequences, words and games."""

from fractions import Fraction

from hypothesis import settings
from hypothesis import strategies as st

from wavg import CoeffSeq, LassoWord, admit

# Fixed draws and no example database: a clean clone and a used checkout
# run the same examples.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def rationals(max_num=6, max_den=4, allow_negative=True):
    lo = -max_num if allow_negative else 0
    return st.builds(
        Fraction,
        st.integers(min_value=lo, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def ratios():
    """Nonnegative block ratios, biased toward the interesting regimes."""
    return st.one_of(
        st.sampled_from([Fraction(0), Fraction(1), Fraction(2),
                         Fraction(1, 2), Fraction(1, 3), Fraction(3, 2),
                         Fraction(1, 8), Fraction(9, 10)]),
        st.builds(Fraction, st.integers(0, 5), st.integers(1, 5)),
    )


@st.composite
def block_sequences(draw, max_prefix=3, max_block=3, admitted=True):
    """Structurally valid CoeffSeq values; admitted ones by default."""
    prefix = tuple(draw(st.lists(rationals(), max_size=max_prefix)))
    block = tuple(draw(st.lists(rationals(), min_size=1, max_size=max_block)))
    ratio = draw(ratios())
    try:
        seq = CoeffSeq(prefix, block, ratio)
    except Exception:
        return draw(block_sequences(max_prefix=max_prefix,
                                    max_block=max_block, admitted=admitted))
    if admitted:
        try:
            admit(seq)
        except Exception:
            return draw(block_sequences(max_prefix=max_prefix,
                                        max_block=max_block,
                                        admitted=admitted))
    return seq


@st.composite
def lassos(draw, max_prefix=4, max_cycle=6, max_num=5):
    prefix = tuple(draw(st.lists(rationals(max_num=max_num), max_size=max_prefix)))
    cycle = tuple(draw(st.lists(rationals(max_num=max_num), min_size=1,
                                max_size=max_cycle)))
    return LassoWord(prefix, cycle)
