"""Exact game solving and memoryless-optimality checking.

``solve_enumerative`` builds the full payoff table over memoryless
profiles and reads off maximin/minimax exactly.  ``check_memoryless``
then searches for finite-memory deviations: against each opponent best
response it looks at the deviator's ultimately periodic plays with
prefix+cycle length up to max_len = |Q| * mem_bound (the configuration
bound of a mem_bound-state strategy), ordered by cycle length, then
prefix length, then edge order.  Any play strictly beating the
deviator's memoryless guarantee against every candidate-optimal opponent
refutes memoryless optimality.

The search takes one of two paths, chosen by the sequence class:

* Convergent (ratio < 1) and ratio-1 sequences: the payoff of a lasso is
  linear-fractional in its rewards, so "beats v" is the sign of a linear
  form.  An integer best-walk DP over (position, state) and a
  best-closed-walk DP per (cut class, cycle length, state) decide it in
  O((m+p) * |Q| * |E| * max_len**2) steps for prefix length m and period
  p, and a greedy rebuild returns the first witness in the order above.
  One budget unit is one DP cell filled.
* Growing sequences (ratio a/b > 1, any block length): a lasso's payoff
  is the least (liminf) or greatest (limsup) of its phase limits.  Under
  liminf the maximizer improves only if every phase limit rises above v,
  and under limsup the minimizer only if every phase falls below v: these
  conjunctions do not split into per-state optima.  The other two sides
  need one phase only, but take the same path, so every walk is
  enumerated.  "Beats v" is the sign of the extreme phase of the payoff
  module's integer per-phase kernel, fed the cycle's gains U - V and
  memoized per (cycle, phase offset); only the winning lasso is evaluated
  exactly.  One budget unit is one cycle symbol of a candidate that could
  still precede the best one found.

Either way an empty search is reported as a bounded no-witness, never as
a proof.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import BudgetExceededError, UnsupportedSequenceError
from .games import (GameGraph, MemorylessStrategy, StrategyProfile,
                    detour_gadget, enumerate_memoryless, escape_gadget,
                    induced_lasso)
from .payoff import (LIMINF, PayoffValue, _int_coeffs, _scaled,
                     _tail_limits, eval_exact, supports_exact)
from .sequences import Classification, CoeffSeq, analyze, as_rational
from .words import LassoWord, format_lasso


@dataclass
class SolveReport:
    """Exact maximin/minimax over memoryless strategies, with witnesses."""

    maximin: PayoffValue
    minimax: PayoffValue
    p1_optimal: MemorylessStrategy
    p2_optimal: MemorylessStrategy
    saddle: bool
    p1_strategies: Optional[list[MemorylessStrategy]] = None
    p2_strategies: Optional[list[MemorylessStrategy]] = None
    table: Optional[list[list[Fraction]]] = None


def solve_enumerative(g: GameGraph, seq: CoeffSeq, mode: str = LIMINF,
                      budget: int = 500_000,
                      keep_table: bool = True) -> SolveReport:
    """Solve by enumerating every memoryless profile and evaluating exactly.

    Ties are broken by enumeration order (first strategy found).  The
    number of profiles must not exceed ``budget``.
    """
    if not supports_exact(seq):
        raise UnsupportedSequenceError(
            "sequence has no exact evaluator; use eval_approx-based tooling")
    p1s = list(enumerate_memoryless(g, 1))
    p2s = list(enumerate_memoryless(g, 2))
    if len(p1s) * len(p2s) > budget:
        raise BudgetExceededError(
            f"{len(p1s) * len(p2s)} memoryless profiles exceed budget {budget}")
    memo: dict[LassoWord, Fraction] = {}

    def value(sigma: MemorylessStrategy, pi: MemorylessStrategy) -> Fraction:
        induced = induced_lasso(g, StrategyProfile(sigma, pi))
        if induced in memo:
            return memo[induced]
        phi = eval_exact(seq, induced, mode).exact
        memo[induced] = phi
        return phi

    table = [[value(sigma, pi) for pi in p2s] for sigma in p1s]
    row_mins = [min(row) for row in table]
    col_maxs = [max(table[i][j] for i in range(len(p1s)))
                for j in range(len(p2s))]
    maximin = max(row_mins)
    minimax = min(col_maxs)
    p1_opt = p1s[row_mins.index(maximin)]
    p2_opt = p2s[col_maxs.index(minimax)]
    return SolveReport(
        maximin=PayoffValue(mode=mode, exact=maximin),
        minimax=PayoffValue(mode=mode, exact=minimax),
        p1_optimal=p1_opt,
        p2_optimal=p2_opt,
        saddle=maximin == minimax,
        p1_strategies=p1s if keep_table else None,
        p2_strategies=p2s if keep_table else None,
        table=table if keep_table else None,
    )


# ---------------------------------------------------------------------------
# Value iteration (approximate solvers; the enumerative one is the oracle)
# ---------------------------------------------------------------------------

@dataclass
class ValueIteration:
    """Per-state value estimates with a sound sup-norm error bound."""

    values: dict[str, Fraction]
    error_bound: Fraction
    steps: int


def _opt(owner: int) -> Callable:
    return max if owner == 1 else min


def value_iter_disc(g: GameGraph, lam, iterations: int) -> ValueIteration:
    """Fixed-point iteration for the normalized discounted objective.

    Iterates v(q) <- opt over edges of (1-lam)*w + lam*v(dst) from v=0,
    exactly in rationals; after T steps the sup-norm error is at most
    lam**T times the largest absolute reward.
    """
    lam = as_rational(lam)
    if not 0 < lam < 1:
        raise ValueError("discount factor must lie strictly between 0 and 1")
    if iterations < 1:
        raise ValueError("iterations must be positive")
    v = {q: Fraction(0) for q in g.states}
    for _ in range(iterations):
        v = {
            q: _opt(g.owner(q))(
                (1 - lam) * e.weight + lam * v[e.dst] for e in g.out_edges(q))
            for q in g.states
        }
    bound = lam ** iterations * g.max_abs_weight()
    return ValueIteration(values=v, error_bound=bound, steps=iterations)


def value_iter_mean(g: GameGraph, steps: int) -> ValueIteration:
    """T-step total-reward iteration; v_T/T approximates the mean value.

    The estimate is within 2*|Q|*W/T of each state's mean-payoff value.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    v = {q: Fraction(0) for q in g.states}
    for _ in range(steps):
        v = {
            q: _opt(g.owner(q))(e.weight + v[e.dst] for e in g.out_edges(q))
            for q in g.states
        }
    estimates = {q: v[q] / steps for q in g.states}
    bound = Fraction(2 * len(g.states)) * g.max_abs_weight() / steps
    return ValueIteration(values=estimates, error_bound=bound, steps=steps)


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
                     opponent: MemorylessStrategy):
    """Per-state candidate edges: free for the deviator, fixed elsewhere."""
    options = {}
    for q in g.states:
        if g.owner(q) == deviator:
            options[q] = g.out_edges(q)
        else:
            options[q] = (opponent.choice[q],)
    return options


def _improves(deviator: int, phi: Fraction, value: Fraction) -> bool:
    """Whether ``phi`` beats ``value`` for the deviator (1 maximizes)."""
    return phi > value if deviator == 1 else phi < value


def _scan_deviations(g: GameGraph, opponent: MemorylessStrategy, deviator: int,
                     seq: CoeffSeq, mode: str, value: Fraction, max_len: int,
                     budget_box: list[int],
                     cache: dict) -> Optional[tuple[LassoWord, Fraction]]:
    """First improving bounded lasso play, ordered by (cycle, prefix, edges).

    The candidates are the deviator's plays against the fixed opponent
    that close a cycle within ``max_len`` steps; among those whose payoff
    beats ``value`` in the deviator's direction, the minimum of the (cycle
    length, prefix length, edge index path) key is returned with its
    payoff.  Convergent and ratio-1 sequences take the DP, growing ones
    the enumerative walk.  ``cache`` lives for one check_memoryless call
    and keeps slot weights (DP) or phase signs per cycle (walk).
    """
    options = _deviation_edges(g, deviator, opponent)

    def spend(amount: int):
        budget_box[0] -= amount
        if budget_box[0] < 0:
            raise BudgetExceededError("deviation search exceeded its budget")

    if analyze(seq).classification is Classification.DIVERGENT_UNBOUNDED:
        scan = _walk_scan
    else:
        scan = _dp_scan
    return scan(g, options, deviator, seq, mode, value, max_len, spend, cache)


def _edge_gains(g: GameGraph, options: dict,
                value: Fraction) -> dict[str, tuple[int, ...]]:
    """Per-state integer gains U - V of the candidate edges: each reward
    and ``value`` scaled to integers over one common positive unit."""
    unit = math.lcm(value.denominator, *(e.weight.denominator for e in g.edges))
    level = value.numerator * (unit // value.denominator)
    return {q: tuple(e.weight.numerator * (unit // e.weight.denominator) - level
                     for e in es)
            for q, es in options.items()}


def _walk_scan(g: GameGraph, options: dict, deviator: int, seq: CoeffSeq,
               mode: str, value: Fraction, max_len: int, spend: Callable,
               cache: dict) -> Optional[tuple[LassoWord, Fraction]]:
    """Enumerate every walk from the start up to ``max_len`` edges.

    Only the growing class comes here.  Each visit of a state already on
    the walk closes a candidate lasso x u^w.  Its payoff is the extreme
    phase limit of the tail, which ignores x except for the offset
    (cut - m) mod gcd(p, |u|) of the cycle against the block: the set of
    phase limits is the same for every cut with that offset.  Fed the
    cycle's integer gains U - V, _tail_limits gives pairs (W_r, V_r)
    whose ratios are the phase limits minus v, so "beats v" is the sign
    of the extreme W_r * V_r, memoized per (cycle, offset) in ``cache``.
    A candidate that cannot precede the best one found so far is skipped;
    any other costs its cycle length in budget units.  The winning lasso
    is confirmed by one exact evaluation.  The walk is depth-first over
    an explicit stack, so its depth is not bounded by the recursion
    limit.
    """
    m, p = seq.prefix_len, seq.period
    a, b = seq.ratio.numerator, seq.ratio.denominator
    extreme = min if mode == LIMINF else max
    wanted = 1 if deviator == 1 else -1
    edge_gains = _edge_gains(g, options, value)
    tails: dict[int, tuple[int, ...]] = {}

    def sign(cycle: tuple[int, ...], phase: int) -> int:
        # Tail positions m, m+1, ... against the cycle entered at -phase.
        k = len(cycle)
        span = math.lcm(p, k)
        if span not in tails:
            tails[span] = _int_coeffs(seq, m + span)[0][m:]
        symbols = (cycle[k - phase:] + cycle[:k - phase]) * (span // k)
        laps = span // p
        top = extreme([w * v for w, v in _tail_limits(
            tails[span], symbols, 0, a ** laps, b ** laps)])
        return (top > 0) - (top < 0)

    best: Optional[tuple[tuple, LassoWord]] = None
    states = [g.start]
    rewards: list[Fraction] = []
    gains: list[int] = []
    trail: list[int] = []
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
        idx, edge = step
        gains.append(edge_gains[states[-1]][idx])
        here = edge.dst
        states.append(here)
        rewards.append(edge.weight)
        trail.append(idx)
        depth = len(rewards)
        for cut in range(depth):
            if states[cut] != here:
                continue
            if best is not None and (depth - cut, cut) > best[0][:2]:
                continue
            spend(depth - cut)
            cycle = tuple(gains[cut:])
            memo = (cycle, (cut - m) % math.gcd(p, len(cycle)))
            found = cache.get(memo)
            if found is None:
                found = cache[memo] = sign(*memo)
            if found == wanted:
                key = (depth - cut, cut, tuple(trail))
                if best is None or key < best[0]:
                    best = (key, LassoWord(tuple(rewards[:cut]),
                                           tuple(rewards[cut:])))
        if depth < max_len:
            frames.append(iter(enumerate(options[here])))
        else:
            states.pop()
            rewards.pop()
            gains.pop()
            trail.pop()
    if best is None:
        return None
    word = best[1]
    phi = eval_exact(seq, word, mode).exact
    if not _improves(deviator, phi, value):
        raise RuntimeError("phase sign test disagrees with the exact evaluator")
    return word, phi


def _prefix_weights(seq: CoeffSeq, count: int) -> tuple[tuple[int, ...], int]:
    """Weights of the first ``count`` positions: c_i for ratio < 1, and 0
    for ratio 1, whose payoff ignores any finite prefix."""
    if seq.ratio == 1:
        return (0,) * count, 1
    return _int_coeffs(seq, count)


def _slot_weights(seq: CoeffSeq, first: int,
                  length: int) -> tuple[tuple[int, ...], int]:
    """Weights of the slots of a cycle of ``length`` entered at ``first``.

    Slot j is read at positions n + t*length, n = first + j.  For ratio 1
    the payoff is the slope over one super-period lcm(p, length), in which
    slot j meets each block entry b_s with s = n - m mod gcd(p, length)
    once.  For ratio < 1 the weight is the series of those coefficients:
    the laps still in the sequence prefix, then whole super-periods summed
    in closed form; past m + p it is ratio times the weight p slots back.
    Scaled to integers by a common positive factor.
    """
    m, p, mu = seq.prefix_len, seq.period, seq.ratio
    if mu == 1:
        d = math.gcd(p, length)
        shares, scale = _scaled([sum(seq.block[r::d], Fraction(0))
                                 for r in range(d)])
        return tuple(shares[(first + j - m) % d] for j in range(length)), scale
    super_period = math.lcm(p, length)
    laps = super_period // length
    shrink = 1 - mu ** (super_period // p)
    weights: list[Fraction] = []
    for j in range(length):
        n = first + j
        if j >= p and n >= m + p:
            weights.append(mu * weights[j - p])
            continue
        head = max(0, -((n - m) // length))
        weight = sum((seq.term(n + t * length) for t in range(head)),
                     Fraction(0))
        window = sum((seq.term(n + t * length)
                      for t in range(head, head + laps)), Fraction(0))
        weights.append(weight + window / shrink)
    return _scaled(weights)


def _relax(layer: dict, steps: dict, weight: int, spend: Callable) -> dict:
    """One forward DP step: the best score of each state one edge on."""
    out: dict = {}
    for here, score in layer.items():
        for _, dst, gain in steps[here]:
            total = score + weight * gain
            old = out.get(dst)
            if old is None or total > old:
                out[dst] = total
    spend(len(out))
    return out


def _closed_walks(steps: dict, weights, starts, spend: Callable) -> dict:
    """Best score of a closed walk of len(weights) steps at each start."""
    best = {}
    for q in starts:
        layer = {q: 0}
        for weight in weights:
            layer = _relax(layer, steps, weight, spend)
        if q in layer:
            best[q] = layer[q]
    return best


def _first_walk(options: dict, steps: dict, start: str, weights, score: int,
                ends: dict, spend: Callable) -> tuple[tuple, str, int]:
    """The edge-index-first walk of len(weights) steps with a positive score.

    Step k scores weights[k] times its edge gain, on top of ``score``;
    the walk must stop in a state of ``ends``, whose value is added.  A
    backward DP gives the best completion from every (step, state), and
    the walk takes the first edge whose best completion stays positive.
    Returns the rewards, the end state and the score without the end.
    """
    completions = [ends]
    for weight in reversed(weights):
        later = completions[-1]
        best: dict = {}
        for here, moves in steps.items():
            for _, dst, gain in moves:
                if dst in later:
                    total = weight * gain + later[dst]
                    if here not in best or total > best[here]:
                        best[here] = total
        spend(len(best))
        completions.append(best)
    completions.reverse()
    rewards, here = [], start
    for k, weight in enumerate(weights):
        later = completions[k + 1]
        for idx, dst, gain in steps[here]:
            if dst in later and score + weight * gain + later[dst] > 0:
                break
        else:
            raise RuntimeError("deviation DP lost its witness")
        score += weight * gain
        rewards.append(options[here][idx].weight)
        here = dst
    return tuple(rewards), here, score


def _dp_scan(g: GameGraph, options: dict, deviator: int, seq: CoeffSeq,
             mode: str, value: Fraction, max_len: int, spend: Callable,
             cache: dict) -> Optional[tuple[LassoWord, Fraction]]:
    """Best-walk DP for the convergent and ratio-1 classes.

    The payoff of x u^w is linear-fractional in the rewards: position i<cut
    weighs c_i (0 under ratio 1) and cycle slot j weighs beta_j from
    _slot_weights, over a total of fixed sign.  So beating ``value`` is
    the sign of sum c_i (x_i - v) + sum beta_j (u_j - v), which splits into
    a best prefix walk to each state q and a best closed walk at q.  For
    cut >= m the weights of cut and of its class m + (cut-m) mod p differ
    by the factor ratio**laps, so one closed-walk DP serves each (class,
    cycle length).  Scores are integers; one budget unit per DP cell.
    Scanning cycle length, then cut, then rebuilding the walk greedily by
    edge index gives the same first witness as enumerating every walk.
    """
    an = analyze(seq)
    convergent = an.classification is Classification.CONVERGENT
    total = an.series_sum if convergent else sum(seq.block, Fraction(0))
    sign = (1 if deviator == 1 else -1) * (1 if total > 0 else -1)
    gains = _edge_gains(g, options, value)
    steps = {q: tuple((idx, e.dst, sign * d)
                      for idx, (e, d) in enumerate(zip(es, gains[q])))
             for q, es in options.items()}

    m, p, mu = seq.prefix_len, seq.period, seq.ratio
    prefix_weights, prefix_scale = _prefix_weights(seq, max_len)

    # classes[cut] = (first position of its class, ratio**laps as num, den)
    classes = []
    for cut in range(max_len):
        laps, residue = divmod(cut - m, p)
        if not convergent:
            classes.append((m + residue, 1, 1))
        elif cut < m:
            classes.append((cut, 1, 1))
        else:
            classes.append((m + residue, mu.numerator ** laps,
                            mu.denominator ** laps))

    reach = [{g.start: 0}]
    for k in range(max_len - 1):
        reach.append(_relax(reach[-1], steps, prefix_weights[k], spend))

    for length in range(1, max_len + 1):
        last_cut = max_len - length
        closed: dict = {}
        for cut in range(last_cut + 1):
            first, num, den = classes[cut]
            if first not in closed:
                starts: dict = {}
                for c in range(cut, last_cut + 1):
                    if classes[c][0] == first:
                        starts.update(reach[c])
                if (first, length) not in cache:
                    cache[first, length] = _slot_weights(seq, first, length)
                betas, slot_scale = cache[first, length]
                closed[first] = (betas, slot_scale,
                                 _closed_walks(steps, betas, starts, spend))
            betas, slot_scale, best = closed[first]
            head_scale, loop_scale = den * slot_scale, num * prefix_scale
            for q, score in reach[cut].items():
                end = best.get(q)
                if end is not None and score * head_scale + end * loop_scale > 0:
                    break
            else:
                continue
            ends = {q: best[q] * loop_scale for q in reach[cut] if q in best}
            head, q, score = _first_walk(
                options, steps, g.start,
                [w * head_scale for w in prefix_weights[:cut]], 0, ends, spend)
            loop, _, _ = _first_walk(
                options, steps, q, [b * loop_scale for b in betas], score,
                {q: 0}, spend)
            word = LassoWord(head, loop)
            phi = eval_exact(seq, word, mode).exact
            if not _improves(deviator, phi, value):
                raise RuntimeError(
                    "deviation DP disagrees with the exact evaluator")
            return word, phi
    return None


def check_memoryless(g: GameGraph, seq: CoeffSeq, mem_bound: int = 2,
                     mode: str = LIMINF, budget: int = 2_000_000) -> Verdict:
    """Decide whether bounded deviations refute memoryless optimality.

    Step 1: if the memoryless table has no saddle, that is already a
    witness.  Step 2: for each player, search deviating plays against
    every opponent strategy that attains the saddle value; memoryless
    optimality of the pair is refuted only if every such opponent can be
    beaten.  Step 3: otherwise report no witness up to the bound, which
    is explicitly not a proof of optimality.
    """
    if mem_bound < 0:
        raise ValueError("mem_bound must be nonnegative")
    report = solve_enumerative(g, seq, mode=mode)
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
    budget_box = [budget]
    cache: dict = {}
    row_mins = [min(row) for row in report.table]
    col_maxs = [max(report.table[i][j] for i in range(len(report.p1_strategies)))
                for j in range(len(report.p2_strategies))]
    for deviator in (1, 2):
        if not g.owned_states(deviator):
            continue
        if deviator == 1:
            responses = [pi for j, pi in enumerate(report.p2_strategies)
                         if col_maxs[j] == value]
        else:
            responses = [sigma for i, sigma in enumerate(report.p1_strategies)
                         if row_mins[i] == value]
        first: Optional[DeviationWitness] = None
        beats_every_response = True
        for response in responses:
            found = _scan_deviations(g, response, deviator, seq, mode, value,
                                     max_len, budget_box, cache)
            if found is None:
                beats_every_response = False
                break
            if first is None:
                word, phi = found
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
        if beats_every_response and first is not None:
            return Verdict(VerdictKind.WITNESS_FOUND, first, mem_bound, budget)
    return Verdict(VerdictKind.NO_WITNESS_UP_TO_BOUND, None, mem_bound, budget)


# ---------------------------------------------------------------------------
# Monotonicity falsification
# ---------------------------------------------------------------------------

@dataclass
class MonotonicityWitness:
    """Finite prefixes x, y and cycles u, v with phi(xu) <= phi(xv) but
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
    out: list[tuple[Fraction, ...]] = []
    for length in range(min_len, max_len + 1):
        if length == 0:
            out.append(())
            continue
        out.extend(itertools.product(alphabet, repeat=length))
    return out


def monotone_falsify(seq: CoeffSeq, alphabet, max_prefix_len: int,
                     max_cycle_len: int, mode: str = LIMINF,
                     budget: int = 10_000_000,
                     nonempty_only: bool = False) -> Optional[MonotonicityWitness]:
    """Exhaustive search for a monotonicity violation, first hit in a
    deterministic order (prefixes and cycles by length then alphabet
    order; loops nested x, y, u, v).

    ``nonempty_only`` restricts the prefixes to nonempty words, covering
    the stricter reading of the property.  Returns None when the space
    contains no witness; raises BudgetExceededError if the search is cut
    short, which is distinct from a verified absence.
    """
    alphabet = tuple(as_rational(a) for a in alphabet)
    if not alphabet:
        raise ValueError("alphabet must be nonempty")
    prefixes = _words_by_length(alphabet, max_prefix_len,
                                min_len=1 if nonempty_only else 0)
    cycles = [tuple(c) for c in _words_by_length(alphabet, max_cycle_len,
                                                 min_len=1)]
    memo: dict[tuple, Fraction] = {}

    def phi(prefix: tuple[Fraction, ...], cycle: tuple[Fraction, ...]) -> Fraction:
        key = (prefix, cycle)
        got = memo.get(key)
        if got is None:
            got = eval_exact(seq, LassoWord(prefix, cycle), mode).exact
            memo[key] = got
        return got

    remaining = budget
    for x in prefixes:
        for y in prefixes:
            if x == y:
                continue
            for u in cycles:
                for v in cycles:
                    remaining -= 1
                    if remaining < 0:
                        raise BudgetExceededError(
                            "monotonicity search exceeded its budget")
                    phi_xu, phi_xv = phi(x, u), phi(x, v)
                    if phi_xu > phi_xv:
                        continue
                    phi_yu, phi_yv = phi(y, u), phi(y, v)
                    if phi_yu > phi_yv:
                        return MonotonicityWitness(
                            x=x, y=y,
                            u=LassoWord((), u), v=LassoWord((), v),
                            phi_xu=phi_xu, phi_xv=phi_xv,
                            phi_yu=phi_yu, phi_yv=phi_yv)
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


def _farey_mediants(lam: Fraction) -> tuple[list[Fraction], list[Fraction]]:
    """Two rationals approaching lam from below and two from above."""
    p, q = lam.numerator, lam.denominator
    if lam <= 0:
        return ([lam - 1, lam - Fraction(1, 2)],
                [lam + Fraction(1, 2), lam + 1])
    if q == 1:
        below, above = Fraction(p - 1), Fraction(p + 1)
    else:
        b = pow(p, -1, q)
        below = Fraction((p * b - 1) // q, b)
        above = Fraction((p * (q - b) + 1) // q, q - b)

    def mediant(x: Fraction) -> Fraction:
        return Fraction(x.numerator + p, x.denominator + q)

    m1_below = mediant(below)
    m1_above = mediant(above)
    return [m1_below, mediant(m1_below)], [m1_above, mediant(m1_above)]


def _detour_triples(lam: Fraction) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Candidate (out, back, loop) reward triples derived from two-sided
    rational approximations of the odd/even split ratio."""

    def from_below(fr: Fraction):
        r, s = fr.numerator, fr.denominator
        return (Fraction(r + s + 1), Fraction(1), Fraction(s + 1))

    def from_above(fr: Fraction):
        l, k = fr.numerator, fr.denominator
        return (Fraction(1), Fraction(k + l + 1), Fraction(l + 1))

    lows, highs = _farey_mediants(lam)
    triples = [from_below(lam), from_above(lam)]
    for lo, hi in zip(lows, highs):
        triples.append(from_below(lo))
        triples.append(from_above(hi))
    seen = set()
    unique = []
    for t in triples:
        if t not in seen:
            seen.add(t)
            unique.append(t)
    return unique


def find_witness_sequence_failure(seq: CoeffSeq, mem_bound: int = 2,
                                  budget: int = 64, mode: str = LIMINF,
                                  alphabet=(0, 1), max_prefix_len: int = 2,
                                  max_cycle_len: int = 2,
                                  scan_budget: int = 2_000_000
                                  ) -> SequenceWitnessReport:
    """Search the parametric gadget families for a memoryless failure.

    Escape gadgets are tried on an integer grid sized by the reciprocal
    of the partial-sum liminf; detour gadgets on reward triples built
    from two-sided approximations of the odd/even split ratio (exact
    value first on each side).  If no gadget yields a witness, the
    monotonicity falsifier runs as a final route.  Budget exhaustion
    returns a not-found report carrying the instances tried.
    """
    an = analyze(seq)
    tried: list[str] = []
    candidates: list[tuple[str, GameGraph]] = []
    liminf = an.inv_psum_liminf
    if liminf is not None and liminf > 0:
        top = math.ceil(1 / liminf) + 2
        ws = range(1, top + 1)
    else:
        ws = (1,)
    for w in ws:
        candidates.append((f"escape_gadget({w})", escape_gadget(w, owner=1)))
    if (an.classification is Classification.CONVERGENT
            and an.even_sum not in (None, 0)):
        lam = an.odd_sum / an.even_sum
        for out, back, loop in _detour_triples(lam):
            candidates.append(
                (f"detour_gadget({out},{back},{loop})",
                 detour_gadget(out, back, loop, owner=1)))
    for description, game in candidates:
        if len(tried) >= budget:
            tried.append("(budget exhausted)")
            return SequenceWitnessReport(found=False, tried=tried)
        verdict = check_memoryless(game, seq, mem_bound=mem_bound, mode=mode,
                                   budget=scan_budget)
        tried.append(f"{description}: {verdict.kind.value}")
        if verdict.kind is VerdictKind.WITNESS_FOUND:
            return SequenceWitnessReport(found=True, game=game,
                                         verdict=verdict, tried=tried)
    witness = monotone_falsify(seq, alphabet, max_prefix_len, max_cycle_len,
                               mode=mode)
    tried.append(
        "monotonicity search: " + ("witness" if witness else "absent"))
    if witness is not None:
        return SequenceWitnessReport(found=True, monotonicity=witness,
                                     tried=tried)
    return SequenceWitnessReport(found=False, tried=tried)
