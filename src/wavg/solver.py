"""Exact game solving and memoryless-optimality checking.

``solve_enumerative`` reads maximin/minimax over memoryless profiles
exactly off the play tree: a play's profiles are its rows times its
columns, so each play's value is spread over its own rows and columns,
and the full payoff table is built only when read.
``check_memoryless`` picks the value-attaining replies and searches for
finite-memory deviations: against each opponent best response it looks
at the deviator's ultimately periodic plays with prefix+cycle length up
to max_len = |Q| * mem_bound (the configuration bound of a
mem_bound-state strategy), ordered by cycle length, then prefix length,
then edge order.  Any play strictly beating the deviator's memoryless
guarantee against every candidate-optimal opponent refutes memoryless
optimality.

Two scans share one witness order.  ``check_memoryless`` prepares the
arena once: per deviator one table of moves (destination, gain U - V,
reward), signed so that beating v is positive, which every engine reads,
and one table of integer coefficients for the scans.  Under ratio <= 1
the payoff is linear-fractional in the rewards, so "beats v" is the sign
of a linear form: ``_dp_scan`` asks a closed-walk DP per cycle length
and cut which states start a beating cycle for the cut's class, scores
the prefixes by a best-walk DP, and rebuilds the first witness greedily;
one budget unit is one DP cell.
Under a growing ratio the payoff is the extreme phase limit of the
cycle, which ignores the prefix but for the cycle's phase offset:
``_growing_scan`` enumerates closed walks, each decided by the phase
signs of the payoff module's integer per-phase kernel, on a table of the
states each state reaches in exactly k steps, which also gives the
states each cut reaches and the least prefix.

Under ratio <= 1 the scan runs only where ``_best_response``, an exact
solve of the deviator's one-player game with positional optima, finds
that a play of any memory beats the value.  Its play is a lasso of at
most m + |Q|*p edges, so from mem_bound >= p + ceil(m/|Q|) on the scan
misses none: a no-witness there means that, for each player, some
optimal opponent is beaten by no strategy of any memory.  Under a
growing ratio an empty search is a bounded no-witness only.  The scan
returns only the lasso; ``check_memoryless`` confirms it by one exact
evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

from .errors import BudgetExceededError
from .games import (GameGraph, MemorylessStrategies, MemorylessStrategy,
                    detour_gadget, escape_gadget, two_branch_gadget)
from .payoff import (LIMINF, PayoffValue, _Shape, _exact_checks,
                     _int_coeffs, _scaled, eval_exact)
from .sequences import (Classification, CoeffSeq, SeqAnalysis, analyze,
                        as_rational)
from .words import LassoWord, format_lasso


@dataclass
class SolveReport:
    """Exact maximin/minimax over memoryless strategies, with witnesses.

    ``p1_strategies`` and ``p2_strategies`` are read-only sequences in
    enumerate_memoryless order that decode a strategy on its first read,
    so the optimal strategies are the same objects as their entries.
    ``table`` (row sigma, column pi) is built from the plays on its first
    read and kept.
    """

    maximin: PayoffValue
    minimax: PayoffValue
    p1_optimal: MemorylessStrategy
    p2_optimal: MemorylessStrategy
    saddle: bool
    p1_strategies: MemorylessStrategies
    p2_strategies: MemorylessStrategies
    # Each row's minimum and each column's maximum as integers over the
    # table's common denominator, for check_memoryless; no output prints
    # them.
    row_min_keys: list[int]
    col_max_keys: list[int]
    # Per distinct play: its value and its rows and columns, each as a
    # base plus the offsets of the states off its path.
    _plays: list = field(repr=False, compare=False)

    @cached_property
    def table(self) -> list[list[Fraction]]:
        table = [[None] * len(self.p2_strategies)
                 for _ in self.p1_strategies]
        for value, row, row_offsets, col, col_offsets in self._plays:
            cols = [col + o for o in col_offsets]
            for o in row_offsets:
                cells = table[row + o]
                for c in cols:
                    cells[c] = value
        return table


# The default bound on the number of memoryless profiles a table covers.
_TABLE_BUDGET = 500_000


def solve_enumerative(g: GameGraph, seq: CoeffSeq, mode: str = LIMINF,
                      budget: int = _TABLE_BUDGET) -> SolveReport:
    """Solve exactly over every memoryless profile's payoff.

    Each distinct play is found once, from the play tree, and evaluated
    once; the profiles that play it are its rows times its columns, and
    no profile's play is replayed.  Its value, as an integer over the
    values' common denominator (equal exactly where the values are), is
    spread over its own rows for the row minima and over its own columns
    for the column maxima, so a solve costs sum |rows| + sum |cols| steps
    past the play tree, not one per profile.  Ties are broken by
    enumeration order (first strategy found).  Strategies are decoded and
    the table is built only when read.  The number of profiles must not
    exceed ``budget``, which must be nonnegative.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    _exact_checks(seq, mode)
    p1s, p2s = MemorylessStrategies(g, 1), MemorylessStrategies(g, 2)
    profiles = len(p1s) * len(p2s)
    if profiles > budget:
        raise BudgetExceededError(
            f"{profiles} memoryless profiles exceed budget {budget}")
    plays = _play_tree_values(g, seq, mode, p1s, p2s)
    keys, scale = _scaled([play[0] for play in plays])
    row_mins = [math.inf] * len(p1s)
    col_maxs = [-math.inf] * len(p2s)
    for key, (_, row, row_offsets, col, col_offsets) in zip(keys, plays):
        for o in row_offsets:
            if key < row_mins[row + o]:
                row_mins[row + o] = key
        for o in col_offsets:
            if key > col_maxs[col + o]:
                col_maxs[col + o] = key
    maximin, minimax = max(row_mins), min(col_maxs)
    return SolveReport(
        maximin=PayoffValue(mode=mode, exact=Fraction(maximin, scale)),
        minimax=PayoffValue(mode=mode, exact=Fraction(minimax, scale)),
        p1_optimal=p1s[row_mins.index(maximin)],
        p2_optimal=p2s[col_maxs.index(minimax)],
        saddle=maximin == minimax,
        p1_strategies=p1s,
        p2_strategies=p2s,
        row_min_keys=row_mins,
        col_max_keys=col_maxs,
        _plays=plays,
    )


def _play_tree_values(g: GameGraph, seq: CoeffSeq, mode: str,
                      p1s: MemorylessStrategies,
                      p2s: MemorylessStrategies) -> list[tuple]:
    """Every distinct play as its payoff, row base, row offsets, column
    base and column offsets.

    A profile's row is player 1's strategy index and its column player
    2's, each mixed-radix in its own edge indices as ``p1s`` and ``p2s``
    decode them.  A depth-first walk from the start, over an explicit
    stack, fixes a state's edge index only when the walk first reaches
    it.  An edge back to a state on the path closes the play: a distinct
    play, evaluated once by the table's payoff._Shape for its lengths on
    the game's weights scaled to integers.  Its profiles agree with the
    fixed indices, whatever the states off the path choose: the bases
    sum the fixed indices, and the offsets range over the choices of the
    off-path states with two or more moves, the only ones a bitmask of
    the path records.  Plays whose paths hold the same such states share
    their lists of offsets.
    """
    # shifts[q][k]: how far edge index k of state q moves its owner's
    # index; player 1's shifts are scaled by the width, so that one sum
    # over the path is row * width + column.
    width = len(p2s)
    shifts: dict[str, list[int]] = {}
    for strategies, scale in ((p1s, width), (p2s, 1)):
        for q, place in strategies.places.items():
            shifts[q] = [k * place * scale
                         for k in range(len(g.out_edges(q)))]
    branching = [q for q in g.states if len(shifts[q]) > 1]
    bits = {q: 1 << i for i, q in enumerate(branching)}
    # Per player: its branching states' bits and their shifts in its own
    # index; and per set of branching states on a path, the row and column
    # offsets of the profiles that agree with the path.
    free = [[(bits[q], [k * place for k in range(len(shifts[q]))])
             for q, place in strategies.places.items() if q in bits]
            for strategies in (p1s, p2s)]
    spreads: dict[int, list[list[int]]] = {}

    def spread(mask: int) -> list[list[int]]:
        if mask not in spreads:
            spreads[mask] = []
            for side in free:
                offsets = [0]
                for bit, steps in side:
                    if not mask & bit:
                        offsets = [o + step for o in offsets for step in steps]
                spreads[mask].append(offsets)
        return spreads[mask]

    moves, unit = _int_moves(g)
    plays: list = []
    kernels: dict = {}
    path = {g.start: 0}
    rewards: list[int] = []
    # One frame per state on the path: the state, the index shift of the
    # choices above it, the bits of the branching states on the path, and
    # its remaining moves.
    frames = [(g.start, 0, bits.get(g.start, 0),
               iter(enumerate(moves[g.start])))]
    while frames:
        here, above, mask, steps = frames[-1]
        step = next(steps, None)
        if step is None:
            frames.pop()
            del path[here]
            if rewards:
                rewards.pop()
            continue
        idx, (dst, weight, _) = step
        base = above + shifts[here][idx]
        cut = path.get(dst)
        if cut is None:
            path[dst] = len(rewards) + 1
            rewards.append(weight)
            frames.append((dst, base, mask | bits.get(dst, 0),
                           iter(enumerate(moves[dst]))))
            continue
        shape = (cut, len(rewards) + 1 - cut)
        if shape not in kernels:
            kernels[shape] = _Shape(seq, *shape)
        row, col = divmod(base, width)
        row_offsets, col_offsets = spread(mask)
        plays.append((kernels[shape].apply(rewards + [weight], unit, mode),
                      row, row_offsets, col, col_offsets))
    return plays


# ---------------------------------------------------------------------------
# Value iteration (approximate solvers; the enumerative one is the oracle)
# ---------------------------------------------------------------------------

@dataclass
class ValueIteration:
    """Per-state value estimates with a sound sup-norm error bound."""

    values: dict[str, Fraction]
    error_bound: Fraction


def _int_moves(g: GameGraph, value: Fraction = Fraction(0),
               sign: int = 1) -> tuple[dict, int]:
    """Each state's out-edges as (destination, gain, reward) in edge order,
    and the unit: the gain over ``value`` V of the reward U is sign * (U -
    V) as an integer over the least common denominator of V and the
    rewards."""
    (level, *weights), scale = _scaled([value, *(e.weight for e in g.edges)])
    moves = {q: [] for q in g.states}
    for e, w in zip(g.edges, weights):
        moves[e.src].append((e.dst, sign * (w - level), e.weight))
    return moves, scale


def _integer_iteration(g: GameGraph, steps: int, lift: int, a: int,
                       b: int) -> tuple[dict, int]:
    """u and the unit of the weights W after ``steps`` rounds of u(q) <-
    opt of lift * W + a * u(dst) from u = 0, lift times b each round."""
    moves, scale = _int_moves(g)
    u = dict.fromkeys(g.states, 0)
    for _ in range(steps):
        u = {q: (max if g.owner(q) == 1 else min)(
                 lift * w + a * u[dst] for dst, w, _ in moves[q])
             for q in g.states}
        lift *= b
    return u, scale


def value_iter_disc(g: GameGraph, lam, iterations: int) -> ValueIteration:
    """Fixed-point iteration for the normalized discounted objective.

    Iterates v(q) <- opt over edges of (1-lam)*w + lam*v(dst) from v=0,
    exactly: with lam = a/b and the weights W over one unit L, it keeps
    the integers u_t = b**t * L * v_t, where u_(t+1) = opt of
    b**t * (b-a) * W + a * u_t(dst), and divides once at the end.  After
    T steps the sup-norm error is at most lam**T times the largest
    absolute reward.
    """
    lam = as_rational(lam)
    if not 0 < lam < 1:
        raise ValueError("discount factor must lie strictly between 0 and 1")
    if iterations < 1:
        raise ValueError("iterations must be positive")
    a, b = lam.numerator, lam.denominator
    u, scale = _integer_iteration(g, iterations, b - a, a, b)
    unit = scale * b ** iterations
    bound = lam ** iterations * g.max_abs_weight()
    return ValueIteration(values={q: Fraction(u[q], unit) for q in g.states},
                          error_bound=bound)


def value_iter_mean(g: GameGraph, steps: int) -> ValueIteration:
    """T-step total-reward iteration; v_T/T approximates the mean value.

    The totals are kept exactly, as integers over the weights' least
    common denominator, and divided once at the end.  The estimate is
    within 2*|Q|*W/T of each state's mean-payoff value.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    u, scale = _integer_iteration(g, steps, 1, 1, 1)
    estimates = {q: Fraction(u[q], scale * steps) for q in g.states}
    bound = Fraction(2 * len(g.states)) * g.max_abs_weight() / steps
    return ValueIteration(values=estimates, error_bound=bound)


# ---------------------------------------------------------------------------
# Memoryless-optimality verdicts
# ---------------------------------------------------------------------------

class VerdictKind(Enum):
    MEMORYLESS_SADDLE = "memoryless-saddle"
    WITNESS_FOUND = "witness-found"
    NO_WITNESS_UP_TO_BOUND = "no-witness-up-to-bound"


@dataclass
class DeviationWitness:
    """A deviation strictly beating the deviator's memoryless guarantee."""

    description: str
    deviating_payoff: Fraction
    memoryless_payoff: Fraction
    player: Optional[int] = None
    lasso: Optional[LassoWord] = None
    opponent: Optional[MemorylessStrategy] = None


@dataclass
class Verdict:
    kind: VerdictKind
    witness: Optional[DeviationWitness]
    mem_bound: int
    budget: int


def _deviation_edges(g: GameGraph, deviator: int,
                     opponent: MemorylessStrategy, moves: dict) -> dict:
    """Per state, the candidate moves of _int_moves ``moves``: every move
    for the deviator, and elsewhere the move of the opponent's edge."""
    return {q: (tuple(moves[q]) if g.owner(q) == deviator
                else (moves[q][g.out_edges(q).index(opponent.choice[q])],))
            for q in g.states}


def _beating_sign(deviator: int, seq: CoeffSeq) -> int:
    """The sign of the gains under which beating the value is positive:
    the deviator's (1 maximizes), under ratio <= 1 times that of the
    payoff's denominator, the series total under ratio < 1 and the block
    sum under ratio 1.  Under growth each phase's denominator keeps its
    own sign, which _growing_scan reads off the kernel."""
    total = (1 if seq.ratio > 1 else sum(seq.block) if seq.ratio == 1
             else analyze(seq).series_sum)
    return (1 if deviator == 1 else -1) * (1 if total > 0 else -1)


def _relax(layer: dict, steps: dict, weight: int, spend: Callable) -> dict:
    """One DP step: the best score of each state one move on, a move
    adding ``weight`` times its gain.  Over the reversed moves it is a
    backward step, the best completion of each state one move earlier."""
    out: dict = {}
    for here, score in layer.items():
        for dst, gain, _ in steps[here]:
            total = score + weight * gain
            old = out.get(dst)
            if old is None or total > old:
                out[dst] = total
    spend(len(out))
    return out


class _ClosedWalks:
    """Forward closed-walk DPs over one stream of step weights, one per
    start: after ``done`` steps, layers[q] holds the best score of each
    state reached from q in exactly ``done`` steps, step k scoring
    weights[k] times its edge gain.  Only each start's current layer is
    kept."""

    def __init__(self, weights):
        self.weights, self.done, self.layers = weights, 0, None

    def advance(self, steps: dict, length: int, starts,
                spend: Callable) -> dict:
        """Take each start of ``starts`` on to ``length`` steps, drop the
        others, and return the best closed walk at each start that has
        one.  ``starts`` may only shrink from one call to the next."""
        if self.layers is None:
            self.layers = {q: {q: 0} for q in starts}
        weights = self.weights[self.done:length]
        layers, best = {}, {}
        for q in starts:
            layer = self.layers[q]
            for weight in weights:
                layer = _relax(layer, steps, weight, spend)
            layers[q] = layer
            if q in layer:
                best[q] = layer[q]
        self.layers, self.done = layers, length
        return best


def _first_walk(steps: dict, back: dict, start: str, weights, score: int,
                ends: dict, spend: Callable) -> tuple[tuple, str, int]:
    """The edge-index-first walk of len(weights) steps with a positive score.

    Step k scores weights[k] times its move's gain, on top of ``score``;
    the walk must stop in a state of ``ends``, whose value is added.  A
    backward DP over ``back``, the moves of ``steps`` reversed, gives the
    best completion from every (step, state), and the walk takes the
    first move whose best completion stays positive.  Returns the moves'
    rewards, the end state and the score without the end.
    """
    completions = [ends]
    for weight in reversed(weights):
        completions.append(_relax(completions[-1], back, weight, spend))
    completions.reverse()
    rewards, here = [], start
    for k, weight in enumerate(weights):
        later = completions[k + 1]
        for dst, gain, reward in steps[here]:
            if dst in later and score + weight * gain + later[dst] > 0:
                break
        else:
            raise RuntimeError("deviation DP lost its witness")
        score += weight * gain
        rewards.append(reward)
        here = dst
    return tuple(rewards), here, score


def _growing_scan(g: GameGraph, steps: dict, conjunctive: bool,
                  seq: CoeffSeq, coeffs: tuple, max_len: int,
                  spend: Callable) -> Optional[LassoWord]:
    """The deviation scan of a growing class, in _dp_scan's witness order,
    on the signed moves ``steps`` and the check's table ``coeffs``.

    The payoff ignores the prefix x but for the cycle's phase offset
    (cut - m) mod gcd(p, L), which the cut's class m + (cut - m) mod p
    fixes.  So one table of the states each state reaches in exactly k
    steps serves the whole scan: only the first cut of each (class,
    reached states) pair is scanned, as later ones find the same, and the
    least prefix into a start with a beating cycle, then the least beating
    cycle there, is the least trail.

    The cycles of each length are enumerated depth first by edge index,
    pruned by the table.  Phase r's sign is that of W_r times V_r, a
    payoff._Shape fed the cycle's signed gains: a cycle beats v where
    every phase's sign is 1 on the ``conjunctive`` sides (the liminf
    maximizer, the limsup minimizer), where one is on the others.  A cycle
    rotated by r has the same phase limits at the offset moved by r, so a
    walk is cut where it meets a start cleared at the offset of its
    rotation there.  Budget units: |Q| per step of the table, one per edge
    tried or frame left, a candidate's length and its span lcm(p, length).
    """
    m, p = seq.prefix_len, seq.period
    extreme = min if conjunctive else max
    # reach[k][q]: the states q reaches in exactly k steps, as a bitmask
    # over the states.
    bit = {q: 1 << i for i, q in enumerate(steps)}
    reach = [bit]
    for _ in range(max_len):
        last, layer = reach[-1], dict.fromkeys(steps, 0)
        for q, moves in steps.items():
            for dst, _, _ in moves:
                layer[q] |= last[dst]
        reach.append(layer)
        spend(len(layer))
    firsts: dict = {}
    for cut in range(max_len):
        firsts.setdefault(((cut - m) % p, reach[cut][g.start]), cut)

    for length in range(1, max_len + 1):
        d = math.gcd(p, length)
        # found[start, offset]: the first beating cycle there, or None;
        # cleared[offset]: the starts with none; kernel: the length's
        # _Shape on the unsigned coeffs and the signs of its V_r, built for
        # the first candidate.
        found: dict = {}
        cleared = [set() for _ in range(d)]
        kernel: list = []

        def cycle(start: str, offset: int) -> Optional[tuple[Fraction, ...]]:
            key = start, offset
            if key in found:
                return found[key]
            found[key] = None
            target = bit[start]
            if not reach[length][start] & target:
                return None
            # tried: the moves tried and frames left since the last charge.
            rewards, gains, tried, frames = [], [], 0, [iter(steps[start])]
            while frames:
                tried += 1
                move = next(frames[-1], None)
                if move is None:
                    frames.pop()
                    del rewards[-1:], gains[-1:]
                    continue
                dst, gain, reward = move
                left = length - len(frames)
                if (dst in cleared[(offset + len(frames)) % d]
                        or not reach[left][dst] & target):
                    continue
                rewards.append(reward)
                gains.append(gain)
                if left:
                    frames.append(iter(steps[dst]))
                    continue
                spend(tried + length + math.lcm(p, length))
                tried = 0
                if not kernel:
                    shape = _Shape(seq, 0, length, coeffs)
                    kernel[:] = shape, [(v > 0) - (v < 0) for v in shape.dens]
                shape, v_signs = kernel
                # Tail position m reads cycle slot -offset, and the kernel's
                # window slot m mod length: rotate the cycle right by their
                # difference.
                turn = (m + offset) % length
                signs = [((w > 0) - (w < 0)) * v for w, v in zip(
                    shape.numerators(gains[length - turn:]
                                     + gains[:length - turn]), v_signs)]
                if extreme(signs) == 1:
                    found[key] = tuple(rewards)
                    break
                del rewards[-1], gains[-1]
            spend(tried)
            if found[key] is None:
                cleared[offset].add(start)
            return found[key]

        for cut in firsts.values():
            if cut > max_len - length:
                break
            offset = (cut - m) % d
            ends = sum(bit[q] for q in steps
                       if reach[cut][g.start] & bit[q] and cycle(q, offset))
            if ends:
                head, here = [], g.start
                for left in reversed(range(cut)):
                    here, reward = next((dst, reward)
                                        for dst, _, reward in steps[here]
                                        if reach[left][dst] & ends)
                    head.append(reward)
                return LassoWord(tuple(head), found[here, offset])
    return None


def _dp_scan(g: GameGraph, steps: dict, seq: CoeffSeq, coeffs: tuple,
             max_len: int, spend: Callable) -> Optional[LassoWord]:
    """The deviation scan of the classes of ratio <= 1: the first lasso
    x u^w of at most ``max_len`` edges that beats the value v, by cycle
    length, then cut |x|, then edge-index trail, on the signed moves
    ``steps``.  Every phase has one limit, so the mode does not matter.

    For each length and cut, a closed-walk DP scores the starts of a cycle
    of that length for the cut's class, a best-walk DP over (position,
    state) the prefixes of cut steps, and a start whose two scores, each
    times a positive scale, sum past 0 makes a witness: _first_walk
    rebuilds the least prefix to such a start, then the least cycle there.
    Every weight comes from the check's table ``coeffs`` of c_0 ..
    c_(m + p*(max_len+1) - 1); one budget unit is one DP cell.

    The payoff's numerator, the weights of a payoff._Shape, weighs
    position i < cut by (den - num) c_i, 0 under ratio 1, and cycle slot j
    by beta_j; its denominator has a fixed sign.  So beating v is the sign
    of sum (den - num) c_i (x_i - v) + sum beta_j (u_j - v), positive on
    the gains signed by _beating_sign.
    The weights of cut >= m are those of its class m + (cut-m) mod p
    times ratio**laps; a cut below m is its own class but under ratio 1.
    Lengths whose slot weights are the first L terms of one stream times
    a positive factor share one forward DP per (class, stream, start),
    advanced a step per length (see closed_walks), for O(p * tau(p) * |Q|
    * |E| * max_len) cells in all, tau(p) the divisors of p; any other
    length walks its own, O((m+p) * |Q| * |E| * max_len**2) at worst.

    The witness is the first that enumerating every walk finds; it is
    returned for check_memoryless to confirm exactly.
    """
    m, p = seq.prefix_len, seq.period
    a, b = seq.ratio.numerator, seq.ratio.denominator
    back: dict = {q: [] for q in steps}
    for q, moves in steps.items():
        for dst, gain, reward in moves:
            back[dst].append((q, gain, reward))

    # classes[cut] = (first position of its class, ratio**laps as num, den);
    # under ratio 1 a cut below m weighs its prefix and head by 0, so it
    # joins its class at the factor 1 (laps < 0 there).
    classes = []
    for cut in range(max_len):
        laps, residue = divmod(cut - m, p)
        if cut >= m:
            classes.append((m + residue, a ** laps, b ** laps))
        else:
            classes.append((m + residue, 1, 1) if a == b else (cut, 1, 1))

    # reach[cut]: the best prefix score of each state reached in cut steps.
    reach = [{g.start: 0}]
    for k in range(max_len - 1):
        reach.append(_relax(reach[-1], steps, coeffs[k], spend))
    # joined[cut]: the states reached at the cuts of cut's class up to cut,
    # in order of first reach.
    joined, seen = [], {}
    for cut, (first, _, _) in enumerate(classes):
        seen[first] = {**seen.get(first, {}), **reach[cut]}
        joined.append(seen[first])

    # The shared streams: (class, 0) the unfolded one, (class, d) the
    # fold of period d.
    walks: dict = {}

    def closed_walks(first: int, length: int, starts) -> dict:
        """The best closed walk of ``length`` steps at each start, read off
        the stream whose first ``length`` terms, times a positive factor,
        are the slot weights."""
        d = math.gcd(p, length)
        if a == b:
            # Slot j sums c_i over i = first + j + s*length, s < p/d: the
            # slot weights of a cycle of length d, repeated.
            key, factor = (first, d), 1
        elif first >= m and d == p:
            # span = length: slot j weighs den * c_(first+j).
            key, factor = (first, 0), b ** (length // p)
        else:
            betas = _Shape(seq, first, length, coeffs).weights[first:]
            return _ClosedWalks(betas).advance(steps, length, starts, spend)
        if key not in walks:
            # Only multiples of d read the fold of period d.
            walks[key] = _ClosedWalks(
                coeffs[first:] if key[1] == 0
                else _Shape(seq, first, d, coeffs).weights[first:]
                * (max_len // d))
        best = walks[key].advance(steps, length, starts, spend)
        return {q: score * factor for q, score in best.items()}

    for length in range(1, max_len + 1):
        last_cut = max_len - length
        d = math.gcd(p, length)
        shrink = b ** (length // d) - a ** (length // d)
        closed: dict = {}
        for cut in range(last_cut + 1):
            first, num, den = classes[cut]
            if first not in closed:
                # The closed walks start where the class's cuts up to
                # last_cut end: joined at the last of them.
                top = (first if first < m
                       else last_cut - (last_cut - first) % p)
                closed[first] = closed_walks(first, length, joined[top])
            best, head_scale = closed[first], den * shrink
            for q, score in reach[cut].items():
                end = best.get(q)
                if end is not None and score * head_scale + end * num > 0:
                    break
            else:
                continue
            ends = {q: best[q] * num for q in reach[cut] if q in best}
            head, q, score = _first_walk(
                steps, back, g.start, [c * head_scale for c in coeffs[:cut]],
                0, ends, spend)
            betas = _Shape(seq, first, length, coeffs).weights[first:]
            loop, _, _ = _first_walk(
                steps, back, q, [w * num for w in betas], score, {q: 0},
                spend)
            return LassoWord(head, loop)
    return None


def _best_response(g: GameGraph, steps: dict, seq: CoeffSeq,
                   spend: Callable) -> bool:
    """Whether some play, of any memory, beats the value v against the
    opponent fixed in the signed moves ``steps``: an exact solve for the
    convergent and ratio-1 classes.

    A play is m prefix moves from the start, then one lap of the p block
    positions after another.  A move at position i scores c_i times its
    gain, signed by _beating_sign, so beating v is a positive objective.
    A lap's score depends only on the states where it starts and ends, so
    the deviator plays alone on the states, the edge from q to r scoring
    the best lap from q to r.  Under ratio 1 the prefix washes out and a
    lasso beats the value iff its cycle of laps has a positive sum: a
    mean-payoff objective (Ehrenfeucht & Mycielski 1979), which
    Bellman-Ford decides as a positive lap cycle reachable from the
    prefix's ends.  Under ratio a/b < 1 the numerator of the payoff is the
    prefix's score plus the laps', each lap scaling what follows by a/b: a
    discounted sum (Zwick & Paterson 1996), whose best values exact policy
    iteration finds, on integer (numerator, denominator) pairs.  Both
    objectives have positional optima on the lap graph, so the answer
    covers every strategy, and the best play is a lasso of at most
    m + |Q|*p edges.  |Q|*(m+p) budget units, all charged before any
    work; the solve itself is polynomial in |Q| and m+p.
    """
    m, p = seq.prefix_len, seq.period
    spend(len(g.states) * (m + p))
    coeffs = _int_coeffs(seq, m + p)[0]

    def walk(layer: dict, weights) -> dict:
        for weight in weights:
            layer = _relax(layer, steps, weight, lambda amount: None)
        return layer

    # entry[q]: the best prefix score ending in q; laps[q][r]: the best lap
    # score from q to r.
    entry = walk({g.start: 0}, coeffs[:m])
    laps = {q: walk({q: 0}, coeffs[m:]) for q in g.states}

    if seq.ratio == 1:
        # Longest lap walks from the prefix's ends: they settle within |Q|
        # rounds unless a positive lap cycle is reachable.
        score = dict.fromkeys(entry, 0)
        frontier = list(score)
        for _ in g.states:
            improved = {}
            for q in frontier:
                for r, lap in laps[q].items():
                    total = score[q] + lap
                    if r not in score or total > score[r]:
                        score[r] = improved[r] = total
            if not improved:
                return False
            frontier = improved
        return True

    a, b = seq.ratio.numerator, seq.ratio.denominator

    def through(w: int, later: tuple[int, int]) -> tuple[int, int]:
        # A lap scoring w, then the value ``later`` scaled by a/b.
        num, den = later
        return w * b * den + a * num, b * den

    policy = {q: next(iter(laps[q])) for q in g.states}
    while True:
        # Evaluate the policy: each state's path ends in a cycle of K laps,
        # whose first state is worth (n, b**K - a**K), n the numerator of
        # ``through`` folded back around the cycle from (0, 1).  The rest
        # follow back along the paths.
        values: dict[str, tuple[int, int]] = {}
        for root in g.states:
            path, q = [], root
            while q not in values and q not in path:
                path.append(q)
                q = policy[q]
            if q not in values:
                cycle = path[path.index(q):]
                later = (0, 1)
                for c in reversed(cycle):
                    later = through(laps[c][policy[c]], later)
                values[q] = later[0], b ** len(cycle) - a ** len(cycle)
            for c in reversed(path):
                if c not in values:
                    values[c] = through(laps[c][policy[c]], values[policy[c]])
        if any(score * values[q][1] + values[q][0] > 0
               for q, score in entry.items()):
            return True
        # Improve: switch a state to a lap strictly better than its own.
        changed = False
        for q in g.states:
            best_num, best_den = values[q]
            for r, lap in laps[q].items():
                num, den = through(lap, values[r])
                if num * best_den > best_num * den:
                    best_num, best_den = num, den
                    policy[q] = r
                    changed = True
        if not changed:
            return False


def _table_units(seq: CoeffSeq, laps: int) -> int:
    """The budget units of the coefficient table c_0 .. c_(m+p*laps-1) as
    integers over one unit, found before any entry is built: an upper
    bound on its 64-bit words.  Under ratio a/b != 1 the unit divides D *
    b**(laps-1), D the least common denominator of the prefix and block,
    so the entry of lap t has at most log2(N*D) + t*log2(a) +
    (laps-1-t)*log2(b) + 1 bits, N their largest numerator, and 1 + (bits
    - 1)/64 words at most.  Ratio-1 entries do not grow: one unit each."""
    m, p = seq.prefix_len, seq.period
    count = m + p * laps
    a, b = seq.ratio.numerator, seq.ratio.denominator
    if a == b:
        return count
    values = seq.prefix + seq.block
    head = (math.log2(max(abs(v.numerator) for v in values) or 1)
            + math.log2(math.lcm(*(v.denominator for v in values))))
    grow, shrink, last = math.log2(max(a, 1)), math.log2(b), laps - 1
    bits = (m * (head + last * shrink)
            + p * laps * (head + (grow + shrink) * last / 2))
    return count + math.ceil(bits / 64)


def check_memoryless(g: GameGraph, seq: CoeffSeq, mem_bound: int = 2,
                     mode: str = LIMINF, budget: int = 2_000_000) -> Verdict:
    """Decide whether bounded deviations refute memoryless optimality.

    Step 1: if the memoryless table has no saddle, that is already a
    witness.  Step 2: for each player, search deviating plays against every
    opponent strategy that attains the saddle value; memoryless optimality
    of the pair is refuted only if every such opponent can be beaten.
    _growing_scan (ratio > 1) or _dp_scan finds the first such play within
    the bound, the latter only after _best_response finds that one exists.
    Step 3: otherwise report no witness up to the bound, which from
    mem_bound >= p + ceil(m/|Q|) on is a proof under ratio <= 1 (see the
    module docstring); an empty scan there after a beating best response is
    an internal error.
    The table and the search share ``budget``: the table costs one unit per
    memoryless profile, the best response |Q|*(m+p) units, and the scans'
    coefficient table, built once per check, a bound on its 64-bit words
    (_table_units), one per coefficient under ratio 1, each charged before
    it is built.  A negative ``mem_bound`` or ``budget`` is a ValueError.
    """
    if mem_bound < 0:
        raise ValueError("mem_bound must be nonnegative")
    report = solve_enumerative(g, seq, mode, budget)
    maximin = report.maximin.exact
    minimax = report.minimax.exact
    if maximin != minimax:
        witness = DeviationWitness(
            description=(f"memoryless maximin {maximin} differs from "
                         f"minimax {minimax}; some player needs memory"),
            deviating_payoff=minimax,
            memoryless_payoff=maximin,
        )
        return Verdict(VerdictKind.WITNESS_FOUND, witness, mem_bound, budget)
    if mem_bound == 0:
        return Verdict(VerdictKind.MEMORYLESS_SADDLE, None, mem_bound, budget)
    value = maximin
    max_len = len(g.states) * mem_bound
    # One unit per profile of the table, then the search's own units.
    left = budget - len(report.p1_strategies) * len(report.p2_strategies)

    def spend(amount: int):
        nonlocal left
        left -= amount
        if left < 0:
            raise BudgetExceededError("deviation search exceeded its budget")

    growing = seq.ratio > 1
    # The scans' coefficient table, charged and built before the first scan.
    coeffs = None
    complete = not growing and (
        mem_bound >= seq.period + -(-seq.prefix_len // len(g.states)))
    level = max(report.row_min_keys)  # the key of the saddle value
    for deviator in (1, 2):
        if not g.owned_states(deviator):
            continue
        moves = _int_moves(g, value, _beating_sign(deviator, seq))[0]
        conjunctive = (mode == LIMINF) == (deviator == 1)
        # The opponent strategies that hold the deviator to the saddle
        # value, each decoded only when the search reaches it.
        strategies, keys = ((report.p2_strategies, report.col_max_keys)
                            if deviator == 1 else
                            (report.p1_strategies, report.row_min_keys))
        responses = (strategies[i] for i, key in enumerate(keys)
                     if key == level)
        first: Optional[DeviationWitness] = None
        for response in responses:
            steps = _deviation_edges(g, deviator, response, moves)
            if not growing and not _best_response(g, steps, seq, spend):
                break
            if coeffs is None:
                spend(_table_units(seq, max_len + 1))
                coeffs = _int_coeffs(
                    seq, seq.prefix_len + seq.period * (max_len + 1))[0]
            word = (_growing_scan(g, steps, conjunctive, seq, coeffs,
                                  max_len, spend) if growing
                    else _dp_scan(g, steps, seq, coeffs, max_len, spend))
            if word is None:
                if complete:
                    raise RuntimeError(
                        "deviation search missed the best response's play")
                break
            phi = eval_exact(seq, word, mode).exact
            if not (phi > value if deviator == 1 else phi < value):
                raise RuntimeError(
                    "deviation search disagrees with the exact evaluator")
            if first is None:
                first = DeviationWitness(
                    description=(f"player {deviator} plays "
                                 f"{format_lasso(word)} against "
                                 f"[{response.describe()}]"),
                    deviating_payoff=phi,
                    memoryless_payoff=value,
                    player=deviator,
                    lasso=word,
                    opponent=response,
                )
        else:
            # Every response, and the saddle key has one, is beaten.
            return Verdict(VerdictKind.WITNESS_FOUND, first, mem_bound, budget)
    return Verdict(VerdictKind.NO_WITNESS_UP_TO_BOUND, None, mem_bound, budget)


# ---------------------------------------------------------------------------
# Monotonicity falsification
# ---------------------------------------------------------------------------

@dataclass
class MonotonicityWitness:
    """Finite prefixes x, y and cycles u, v with phi(xu) < phi(xv) but
    phi(yu) > phi(yv), refuting the order-preservation property that
    memoryless optimality requires."""

    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]
    u: LassoWord
    v: LassoWord
    phi_xu: Fraction
    phi_xv: Fraction
    phi_yu: Fraction
    phi_yv: Fraction


def _words_by_length(alphabet: Sequence[Fraction], max_len: int,
                     min_len: int = 0) -> list[tuple[Fraction, ...]]:
    return [word for length in range(min_len, max_len + 1)
            for word in itertools.product(alphabet, repeat=length)]


def _count_words(size: int, max_len: int, min_len: int, cap: int) -> int:
    """How many words _words_by_length lists over ``size`` letters, or
    some larger number than ``cap`` once the count passes it."""
    if size == 1:
        return max(0, max_len - min_len + 1)
    count = 0
    for n in range(min_len, max_len + 1):
        count += size ** n
        if count > cap:
            break
    return count


def _order_bits(row: list[Fraction]) -> tuple[int, int]:
    """Bitsets over the ordered pairs (u, v) of a table row, bit u*C + v:
    where row[u] < row[v], and where row[u] > row[v].  The row is sorted
    once and its ties grouped by ==, which costs less than hashing
    Fractions."""
    width = len(row)
    lower, same, seen = [0] * width, [0] * width, 0
    for _, group in itertools.groupby(
            sorted(range(width), key=row.__getitem__), key=row.__getitem__):
        group = list(group)
        mask = sum(1 << v for v in group)
        for v in group:
            lower[v], same[v] = seen, mask
        seen |= mask
    below = above = 0
    for u in range(width):
        below |= (seen ^ lower[u] ^ same[u]) << (u * width)
        above |= lower[u] << (u * width)
    return below, above


def monotone_falsify(seq: CoeffSeq, alphabet, max_prefix_len: int,
                     max_cycle_len: int, mode: str = LIMINF,
                     budget: int = 10_000_000,
                     nonempty_only: bool = False) -> Optional[MonotonicityWitness]:
    """Exhaustive search for a monotonicity violation, first hit in a
    deterministic order (prefixes and cycles by length then alphabet
    order; loops nested x, y, u, v).

    Each (prefix, cycle) pair is evaluated exactly once into a table with
    one row per prefix, by the table's payoff._Shape for its lengths on
    the alphabet scaled to integers.  Each row x then becomes two bitsets
    over the C**2 ordered cycle pairs (u, v), bit u*C + v: ``below`` where
    phi(xu) < phi(xv) and ``above`` where phi(xu) > phi(xv).  A pair of
    prefixes x != y witnesses at the lowest bit of below[x] & above[y],
    which is the first quad in the u, v order.  One budget unit is one
    table entry, charged before any is evaluated, or one quad: C**2 for a
    pair without a witness, and the witness's index + 1 for the pair with
    one.  ``nonempty_only`` restricts the prefixes to nonempty words,
    covering the stricter reading of the property.  Returns None when the
    space contains no witness; raises BudgetExceededError if the search is
    cut short, which is distinct from a verified absence, and ValueError
    if the bounds leave no quad to compare or the budget is negative.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    alphabet = tuple(as_rational(a) for a in alphabet)
    if not alphabet:
        raise ValueError("alphabet must be nonempty")
    shortest = 1 if nonempty_only else 0
    if (_count_words(len(set(alphabet)), max_prefix_len, shortest, 1) < 2
            or max_cycle_len < 1):
        raise ValueError("the search needs two distinct prefixes and a "
                         "cycle; raise the prefix or cycle bound")
    # Each count is exact up to the budget, and both are at least 1.
    remaining = budget - (
        _count_words(len(alphabet), max_prefix_len, shortest, budget)
        * _count_words(len(alphabet), max_cycle_len, 1, budget))
    if remaining < 0:
        raise BudgetExceededError("monotonicity search exceeded its budget")
    _exact_checks(seq, mode)
    prefixes = _words_by_length(alphabet, max_prefix_len, min_len=shortest)
    cycles = _words_by_length(alphabet, max_cycle_len, min_len=1)
    ints, unit = _scaled(alphabet)
    int_cycles = _words_by_length(ints, max_cycle_len, min_len=1)
    kernels = {(i, k): _Shape(seq, i, k)
               for i in range(shortest, max_prefix_len + 1)
               for k in range(1, max_cycle_len + 1)}
    table = [[kernels[len(x), len(u)].apply(x + u, unit, mode)
              for u in int_cycles]
             for x in _words_by_length(ints, max_prefix_len, min_len=shortest)]
    quads = len(cycles) ** 2
    below, above = zip(*map(_order_bits, table))
    for x, row_x, below_x in zip(prefixes, table, below):
        for y, row_y, above_y in zip(prefixes, table, above):
            if x == y:
                continue
            hits = below_x & above_y
            spent = (hits & -hits).bit_length() if hits else quads
            if remaining < spent:
                raise BudgetExceededError(
                    "monotonicity search exceeded its budget")
            remaining -= spent
            if hits:
                iu, iv = divmod(spent - 1, len(cycles))
                return MonotonicityWitness(
                    x=x, y=y,
                    u=LassoWord((), cycles[iu]), v=LassoWord((), cycles[iv]),
                    phi_xu=row_x[iu], phi_xv=row_x[iv],
                    phi_yu=row_y[iu], phi_yv=row_y[iv])
    return None


# ---------------------------------------------------------------------------
# Guided witness search over the gadget families
# ---------------------------------------------------------------------------

@dataclass
class SequenceWitnessReport:
    """Outcome of the guided search for a memoryless-optimality failure."""

    found: bool
    game: Optional[GameGraph] = None
    verdict: Optional[Verdict] = None
    monotonicity: Optional[MonotonicityWitness] = None
    tried: list[str] = field(default_factory=list)


def _detour_triples(lam: Fraction) -> list[tuple[int, int, int]]:
    """Candidate (out, back, loop) reward triples for the detour gadget,
    from rationals on both sides of the odd/even split ratio lam = p/q.

    A rational r/s below lam gives (r + s + 1, 1, s + 1), and one above
    gives (1, r + s + 1, r + 1).  lam itself comes first on both sides,
    then one rational below and one above for k = 1, then for k = 2.
    For lam > 0 these are (n + k*p)/(d + k*q), where n/d is lam's Farey
    neighbour on that side (lam - 1 and lam + 1 when lam is an integer).
    For lam <= 0 they are lam - 1 and lam + 1/2, then lam - 1/2 and
    lam + 1.  Repeated triples are dropped.
    """
    p, q = lam.numerator, lam.denominator
    if lam <= 0:
        pairs = [(lam - 1, lam + Fraction(1, 2)),
                 (lam - Fraction(1, 2), lam + 1)]
    else:
        if q == 1:
            below, above = (p - 1, 1), (p + 1, 1)
        else:
            b = pow(p, -1, q)
            below = ((p * b - 1) // q, b)
            above = ((p * (q - b) + 1) // q, q - b)
        pairs = [tuple(Fraction(n + k * p, d + k * q)
                       for n, d in (below, above)) for k in (1, 2)]
    triples = []
    for lo, hi in [(lam, lam)] + pairs:
        r, s = lo.numerator, lo.denominator
        triples.append((r + s + 1, 1, s + 1))
        r, s = hi.numerator, hi.denominator
        triples.append((1, r + s + 1, r + 1))
    return list(dict.fromkeys(triples))


def _witness_gadgets(an: SeqAnalysis, mode: str
                     ) -> Iterator[tuple[str, GameGraph]]:
    """The (description, game) pairs find_witness_sequence_failure tries,
    in order, each game built only when the search asks for it."""
    liminf = an.inv_psum_liminf
    top = (math.ceil(1 / liminf) + 2
           if liminf is not None and liminf > 0 else 1)
    for w in range(1, top + 1):
        yield f"escape_gadget({w})", escape_gadget(w)
    if an.classification is Classification.DIVERGENT_UNBOUNDED:
        yield "two_branch_gadget()", two_branch_gadget()
        yield ("two_branch_gadget((0,1),(1,0))",
               two_branch_gadget((0, 1), (1, 0)))
        if mode != LIMINF:
            yield ("two_branch_gadget((0,1),(1,0),owner=1)",
                   two_branch_gadget((0, 1), (1, 0), owner=1))
    if (an.classification is Classification.CONVERGENT
            and an.even_sum not in (None, 0)):
        for out, back, loop in _detour_triples(an.odd_sum / an.even_sum):
            yield (f"detour_gadget({out},{back},{loop})",
                   detour_gadget(out, back, loop))


def find_witness_sequence_failure(seq: CoeffSeq, mem_bound: int = 2,
                                  budget: int = 64, mode: str = LIMINF
                                  ) -> SequenceWitnessReport:
    """Search the parametric gadget families for a memoryless failure.

    Escape gadgets are tried on an integer grid sized by the reciprocal
    of the partial-sum liminf.  Growing sequences then try the two
    minimizer-owned two-branch gadgets and, under limsup, where the
    maximizer needs only one phase above the value, a maximizer-owned
    one.  Convergent sequences try detour gadgets on reward triples
    built from two-sided approximations of the odd/even split ratio
    (exact value first on each side).  If no gadget yields a
    witness, the monotonicity falsifier runs as a final route on the
    alphabet {0, 1}, over prefixes of length at most 2 and cycles up to
    the block period, at least 2 and at most 4 long.  ``budget`` bounds
    the gadgets checked; a search that needs more raises
    BudgetExceededError, and a negative one ValueError.  Each gadget is
    built only when its turn comes, so a search never builds more than
    ``budget + 1`` of them.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    _exact_checks(seq, mode)
    tried: list[str] = []
    for description, game in _witness_gadgets(analyze(seq), mode):
        if len(tried) >= budget:
            raise BudgetExceededError(
                f"gadget search exceeded budget {budget}")
        verdict = check_memoryless(game, seq, mem_bound=mem_bound, mode=mode)
        tried.append(f"{description}: {verdict.kind.value}")
        if verdict.kind is VerdictKind.WITNESS_FOUND:
            return SequenceWitnessReport(found=True, game=game,
                                         verdict=verdict, tried=tried)
    witness = monotone_falsify(seq, (0, 1), 2, max(2, min(seq.period, 4)),
                               mode=mode)
    tried.append(
        "monotonicity search: " + ("witness" if witness else "absent"))
    if witness is not None:
        return SequenceWitnessReport(found=True, monotonicity=witness,
                                     tried=tried)
    return SequenceWitnessReport(found=False, tried=tried)
