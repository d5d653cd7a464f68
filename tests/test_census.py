"""Census of the paper's theorem over a grid of block sequences.

Mean and discounted sum are the only weighted averages with memoryless
optimal strategies, so ``find-witness`` must refute every grid sequence
that is not payoff-equivalent to one of them, and none that is.
"""

import itertools

import pytest

from wavg import (LIMINF, LIMSUP, find_witness_sequence_failure,
                  parse_sequence)

BLOCKS = [",".join(block) for length in (1, 2, 3)
          for block in itertools.product("12", repeat=length)]
GRID = [f"blocks:{block};mu={mu}{prefix}" for block in BLOCKS
        for mu in ("1/2", "1", "3/2", "2") for prefix in ("", ";prefix=2")]


def classical(seq) -> bool:
    """Payoff-equal to discounted sum (c_i proportional to lam**i, lam < 1)
    or to mean (lam = 1, or ratio 1 with a constant block).  The terms are
    geometric iff c_(i+1) * c_0 = c_1 * c_i through the first block
    repetition, since every later relation repeats a checked one."""
    c0, c1 = seq.term(0), seq.term(1)
    geometric = all(seq.term(i + 1) * c0 == c1 * seq.term(i)
                    for i in range(seq.prefix_len + seq.period))
    return ((geometric and c1 / c0 <= 1)
            or (seq.ratio == 1 and len(set(seq.block)) == 1))


def test_grid_size():
    assert len(GRID) == 112
    assert sum(classical(parse_sequence(spec)) for spec in GRID) == 15


@pytest.mark.parametrize("mode", [LIMINF, LIMSUP])
def test_find_witness_refutes_exactly_the_nonclassical(mode):
    wrong = [spec for spec in GRID
             if find_witness_sequence_failure(parse_sequence(spec),
                                              mode=mode).found
             == classical(parse_sequence(spec))]
    assert wrong == []
