"""Reference computations made apart from the program under test.

Nothing here imports ``wavg``: the formulas are written from the
definitions, so that the benchmark's correctness checks do not reuse
the closed forms they check.  Game arguments are only read through the
attributes every game graph has (``states``, ``start``, ``owner``,
``out_edges``; edges have ``dst`` and ``weight``).
"""

from __future__ import annotations

from fractions import Fraction


def cycle_average(cycle) -> Fraction:
    """The limit average of the word x cycle^omega: the cycle's mean."""
    return Fraction(sum(cycle, Fraction(0)), len(cycle))


def normalized_discounted(lam: Fraction, prefix, cycle) -> Fraction:
    """(1 - lam) * sum_i lam**i * w_i on the word prefix cycle^omega.

    The cycle part is a geometric series in lam**len(cycle) started at
    lam**len(prefix).
    """
    total = Fraction(0)
    weight = Fraction(1)
    for w in prefix:
        total += weight * w
        weight *= lam
    one_lap = Fraction(0)
    lap_weight = Fraction(1)
    for w in cycle:
        one_lap += lap_weight * w
        lap_weight *= lam
    total += weight * one_lap / (1 - lap_weight)
    return (1 - lam) * total


def memoryless_play(game, choice: dict):
    """The reward lasso of a memoryless profile, by direct simulation.

    ``choice`` maps every state to the edge its owner picks.  The play is
    cut at the first state seen twice.  Returns (prefix, cycle) tuples.
    """
    seen: dict = {}
    rewards: list = []
    q = game.start
    while q not in seen:
        seen[q] = len(rewards)
        edge = choice[q]
        rewards.append(edge.weight)
        q = edge.dst
    cut = seen[q]
    return tuple(rewards[:cut]), tuple(rewards[cut:])


def realizable(game, deviator: int, opponent_choice: dict, prefix, cycle,
               max_len: int) -> bool:
    """Whether some play of the game reads prefix cycle^omega.

    The deviator may take any edge at its own states; everywhere else the
    edge is the opponent's memoryless choice.  The play must be a walk of
    len(prefix) + len(cycle) <= max_len edges from the start whose cycle
    part returns to the state where it began, so that repeating it is a
    play.  The walk is searched breadth-first over (state, cycle-entry
    state) pairs.
    """
    word = tuple(prefix) + tuple(cycle)
    if not cycle or len(word) > max_len:
        return False
    cut = len(prefix)
    frontier = {(game.start, game.start if cut == 0 else None)}
    for position, reward in enumerate(word):
        step = set()
        for q, entry in frontier:
            if game.owner(q) == deviator:
                edges = game.out_edges(q)
            else:
                edges = (opponent_choice[q],)
            for edge in edges:
                if edge.weight != reward:
                    continue
                after = edge.dst
                step.add((after, after if position + 1 == cut else entry))
        frontier = step
        if not frontier:
            return False
    return any(q == entry for q, entry in frontier)


def beats(player: int, deviating: Fraction, memoryless: Fraction) -> bool:
    """Whether a payoff is strictly better than another for the player
    (player 1 maximizes, player 2 minimizes)."""
    return deviating > memoryless if player == 1 else deviating < memoryless


def parse_witness_description(text: str):
    """Split a deviation description 'player D plays LASSO against [OPP]'
    into (D, LASSO, OPP)."""
    head, _, rest = text.partition(" plays ")
    lasso_text, _, opponent = rest.partition(" against [")
    if not head.startswith("player ") or not opponent.endswith("]"):
        raise ValueError(f"unrecognized deviation description {text!r}")
    return int(head[len("player "):]), lasso_text, opponent[:-1]
