"""The benchmark's own reference computations."""

import random
from fractions import Fraction

import pytest

import reference as ref
import wavg


def test_cycle_average():
    assert ref.cycle_average((Fraction(1), Fraction(0))) == Fraction(1, 2)
    assert ref.cycle_average((Fraction(-3), Fraction(1, 2), Fraction(4))) \
        == Fraction(1, 2)


@pytest.mark.parametrize("lam, prefix, cycle, expected", [
    (Fraction(1, 2), (1,), (0,), Fraction(1, 2)),
    (Fraction(1, 2), (), (1, 0), Fraction(2, 3)),
    (Fraction(1, 3), (), (5,), Fraction(5)),
])
def test_normalized_discounted_known_values(lam, prefix, cycle, expected):
    assert ref.normalized_discounted(lam, prefix, cycle) == expected


def test_normalized_discounted_against_truncated_sums():
    # (1-lam) * sum_{i >= n} lam**i |w_i| <= lam**n * max|w|: an exact tail
    # bound for the partial sums, independent of the closed form.
    rng = random.Random(5)
    for _ in range(40):
        lam = Fraction(rng.randint(1, 9), 10)
        prefix = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(0, 3))]
        cycle = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
        n = 60
        word = prefix + cycle * n
        partial = (1 - lam) * sum(lam ** i * x for i, x in enumerate(word[:n]))
        bound = lam ** n * max(abs(x) for x in word)
        value = ref.normalized_discounted(lam, prefix, cycle)
        assert abs(value - partial) <= bound


def test_memoryless_play_cuts_at_first_repeat():
    game = wavg.two_branch_gadget()
    left, right = game.out_edges("hub")
    choice = {"hub": right, "left": game.out_edges("left")[0],
              "right": game.out_edges("right")[0]}
    assert ref.memoryless_play(game, choice) == ((), (Fraction(1), Fraction(2)))
    detour = wavg.detour_gadget(1, -1, 0)
    stay = detour.out_edges("base")[0]
    back = detour.out_edges("away")[0]
    assert ref.memoryless_play(detour, {"base": stay, "away": back}) == \
        ((), (Fraction(0),))


def test_realizable_two_branch_alternation():
    game = wavg.two_branch_gadget()  # one player: player 2 owns every state
    cycle = tuple(Fraction(x) for x in (1, 2, 0, 4))
    assert ref.realizable(game, 2, {}, (), cycle, max_len=6)
    assert not ref.realizable(game, 2, {}, (), cycle, max_len=3)
    # 1 then 4 is not a walk: the right branch returns with reward 2.
    assert not ref.realizable(game, 2, {}, (), (Fraction(1), Fraction(4)), 6)
    # A prefix that ends where the cycle closes.
    assert ref.realizable(game, 2, {}, (Fraction(0), Fraction(4)),
                          (Fraction(1), Fraction(2)), 6)


def test_realizable_follows_the_opponent():
    text = """state a 1
state b 2
start a
edge a b 1
edge a a 5
edge b a 0
edge b a 7
"""
    game = wavg.parse_game(text)
    zero, seven = game.out_edges("b")
    assert ref.realizable(game, 1, {"b": zero}, (), (Fraction(1), Fraction(0)), 4)
    assert not ref.realizable(game, 1, {"b": seven}, (),
                              (Fraction(1), Fraction(0)), 4)
    # The cycle must return to the state where it started.
    assert not ref.realizable(game, 1, {"b": zero}, (Fraction(1),),
                              (Fraction(0),), 4)


def test_beats_is_strict_in_the_players_direction():
    assert ref.beats(1, Fraction(2), Fraction(1))
    assert not ref.beats(1, Fraction(1), Fraction(1))
    assert ref.beats(2, Fraction(14, 15), Fraction(4, 3))
    assert not ref.beats(2, Fraction(4, 3), Fraction(14, 15))


def test_parse_witness_description():
    text = "player 2 plays cycle=1,2,0,4 against [(no choices)]"
    assert ref.parse_witness_description(text) == (
        2, "cycle=1,2,0,4", "(no choices)")
    with pytest.raises(ValueError):
        ref.parse_witness_description("memoryless maximin 0 differs")
