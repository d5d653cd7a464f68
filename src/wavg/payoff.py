"""Weighted-average payoff evaluation on lasso words.

``eval_exact`` computes the payoff exactly by one integer per-phase
evaluator.  After the transient, a lasso word and a block-geometric
sequence both repeat with the period lcm(p, k) of the block and the
cycle, along which the coefficients scale by a fixed factor rho.  Each
residue modulo that period has its own limit of the partial ratios: the
same for every residue when rho <= 1 (convergent and ratio-1
sequences), a sliding-window ratio per residue when rho > 1 (growth).
The payoff is the least of them (liminf) or the greatest (limsup).

``eval_approx`` is the independent truncation oracle: it accumulates
exact partial ratios up to a horizon and brackets the tail limit per
congruence phase by extrapolating the sampled numerators/denominators,
never reusing the closed form above.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .errors import UnsupportedSequenceError
from .sequences import CoeffSeq, RawCoeffTable, RatLike, analyze, as_rational
from .words import LassoWord

LIMINF = "liminf"
LIMSUP = "limsup"
_MODES = (LIMINF, LIMSUP)


@dataclass(frozen=True)
class PayoffValue:
    """An exact payoff or a bracket [lo, hi] guaranteed to contain it."""

    mode: str
    exact: Optional[Fraction] = None
    bracket: Optional[tuple[Fraction, Fraction]] = None
    horizon_used: Optional[int] = None

    def __post_init__(self):
        _check_mode(self.mode)
        if (self.exact is None) == (self.bracket is None):
            raise ValueError("exactly one of exact/bracket must be present")
        if self.bracket is not None and self.bracket[0] > self.bracket[1]:
            raise ValueError("bracket lower bound exceeds upper bound")

    def __str__(self) -> str:
        if self.exact is not None:
            return str(self.exact)
        lo, hi = self.bracket
        return f"bracket[{lo}, {hi}] horizon={self.horizon_used}"


def _check_mode(mode: str) -> str:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    return mode


def mean_payoff(word: LassoWord) -> Fraction:
    """The plain cycle average; the prefix never matters."""
    return sum(word.cycle, Fraction(0)) / word.cycle_len


def disc_sum(lam: RatLike, word: LassoWord) -> Fraction:
    """The normalized discounted sum (1-lam) * sum(lam**i * w_i), 0 < lam < 1."""
    lam = as_rational(lam)
    if not 0 < lam < 1:
        raise ValueError("discount factor must lie strictly between 0 and 1")
    head = Fraction(0)
    power = Fraction(1)
    for w in word.prefix:
        head += power * w
        power *= lam
    cycle_sum = Fraction(0)
    cycle_power = Fraction(1)
    for w in word.cycle:
        cycle_sum += cycle_power * w
        cycle_power *= lam
    k = word.cycle_len
    return (1 - lam) * (head + power * cycle_sum / (1 - lam ** k))


def rotation_values(ratio: RatLike, cycle) -> list[Fraction]:
    """The weighted rotation averages of a cycle under geometric weights.

    Entry i is sum_j ratio**j * cycle[(i+j) % k] divided by sum_j ratio**j.
    """
    ratio = as_rational(ratio)
    cycle = tuple(as_rational(c) for c in cycle)
    k = len(cycle)
    powers = [ratio ** j for j in range(k)]
    denom = sum(powers, Fraction(0))
    return [
        sum(powers[j] * cycle[(i + j) % k] for j in range(k)) / denom
        for i in range(k)
    ]


def supports_exact(seq) -> bool:
    """Whether eval_exact has a closed form for this sequence: a CoeffSeq
    whose reciprocal partial sums 1/d_n converge.  That rules out a zero
    series total and, under growth, a phase whose partial sums stay
    bounded."""
    if not isinstance(seq, CoeffSeq):
        return False
    an = analyze(seq)
    return an.inv_psum_liminf == an.inv_psum_limsup is not None


def _scaled(values) -> tuple[tuple[int, ...], int]:
    """Rationals as integers over their least common denominator."""
    scale = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values), scale


@lru_cache(maxsize=1024)
def _int_coeffs(seq: CoeffSeq, count: int) -> tuple[tuple[int, ...], int]:
    """c_0 .. c_(count-1) as integers over their least common denominator."""
    return _scaled(list(itertools.islice(seq.terms(), count)))


def _tail_limits(coeffs, symbols, head: int, num: int,
                 den: int) -> list[tuple[int, int]]:
    """Integer (numerator, denominator) of the partial-ratio limit along
    each phase of a tail that repeats with the factor rho = num/den.

    ``coeffs`` and ``symbols`` hold positions 0 .. head+span-1, where
    c_(i+span) = rho * c_i and w_(i+span) = w_i for every i >= head.
    With head sums N, D and window sums W, V over positions head ..
    head+span-1, rho <= 1 gives one limit for every phase,
    (N(1-rho) + W) / (D(1-rho) + V).  Under rho > 1 the head washes out
    and phase r tends to W_r / V_r, the window sums from head + r:
    W_r = W + (rho-1) P_r and V_r = V + (rho-1) Q_r, where P_r and Q_r
    sum the first r terms c_i w_i and c_i of the window.  Each pair is
    scaled by den.
    """
    window = coeffs[head:]
    terms = list(map(operator.mul, window, symbols[head:]))
    w, v = sum(terms), sum(window)
    if num <= den:
        n = sum(map(operator.mul, coeffs[:head], symbols[:head]))
        d = sum(coeffs[:head])
        return [(n * (den - num) + w * den, d * (den - num) + v * den)]
    w, v, lift = w * den, v * den, num - den
    return [(w + lift * p, v + lift * q) for p, q in zip(
        itertools.accumulate(terms[:-1], initial=0),
        itertools.accumulate(window[:-1], initial=0))]


def eval_exact(seq: CoeffSeq, word: LassoWord, mode: str = LIMINF) -> PayoffValue:
    """Exact weighted-average payoff of a lasso word, where supported.

    After the transient max(m, |x|), positions repeat with the period
    span = lcm(p, |u|), along which the coefficients scale by rho =
    ratio**(span/p).  The payoff is the least (liminf) or greatest
    (limsup) of the per-phase limits from _tail_limits.  Raises
    UnsupportedSequenceError for raw tables and wherever supports_exact
    is false.
    """
    _check_mode(mode)
    if isinstance(seq, RawCoeffTable):
        raise UnsupportedSequenceError(
            "raw tables have no exact evaluator; use eval_approx")
    if not supports_exact(seq):
        raise UnsupportedSequenceError(
            "the reciprocal partial sums have no single limit, so the payoff "
            "is not a finite rational for every word; use eval_approx")
    head = max(seq.prefix_len, word.prefix_len)
    span = math.lcm(seq.period, word.cycle_len)
    rho = seq.ratio ** (span // seq.period)
    ints, unit = _scaled(word.prefix + word.cycle)
    prefix, cycle = ints[:word.prefix_len], ints[word.prefix_len:]
    symbols = (prefix + cycle * ((head + span) // len(cycle) + 1))[:head + span]
    pairs = _tail_limits(_int_coeffs(seq, head + span)[0], symbols, head,
                         rho.numerator, rho.denominator)
    values = [Fraction(n, d * unit) for n, d in pairs]
    return PayoffValue(mode=mode,
                       exact=min(values) if mode == LIMINF else max(values))


def _phase_limit(mu: Fraction, lead_n: Fraction, const_n: Fraction,
                 lead_d: Fraction, const_d: Fraction) -> Fraction:
    """Limit of (const_n + lead_n*x)/(const_d + lead_d*x) along the tail.

    For mu < 1 the fitted variable x shrinks to 0; for mu > 1 it grows
    without bound; mu == 1 is the affine case where the slopes dominate.
    """
    if mu < 1:
        if const_d != 0:
            return const_n / const_d
        if const_n == 0 and lead_d != 0:
            return lead_n / lead_d
        raise UnsupportedSequenceError(
            "partial sums vanish in the limit; the payoff is not a finite rational")
    # mu >= 1: growth dominated by the leading coefficients
    if lead_d != 0:
        return lead_n / lead_d
    if lead_n == 0:
        return const_n / const_d
    raise UnsupportedSequenceError(
        "partial ratios diverge along a phase; no finite bracket exists")


def _fit(samples: tuple[Fraction, Fraction, Fraction],
         rho: Fraction) -> tuple[Fraction, Fraction]:
    """Fit y_j = const + lead * rho**(-j) to three tail samples (j = 0,1,2).

    Returns (lead, const) with the third sample used as an exactness
    check; the growth factor of the leading term is absorbed into it.
    """
    y0, y1, y2 = samples
    if rho == 0:
        if not y0 == y1 == y2:
            raise RuntimeError("tail samples of a truncated sequence disagree")
        return Fraction(0), y0
    inv = 1 / rho
    lead = (y0 - y1) / (1 - inv)
    const = y0 - lead
    if const + lead * inv * inv != y2:
        raise RuntimeError("tail samples do not lie on a single geometric trend")
    return lead, const


def _fit_affine(samples: tuple[Fraction, Fraction, Fraction]) -> Fraction:
    """Per-step increment of an affine tail (three consistency-checked samples)."""
    y0, y1, y2 = samples
    if y0 - y1 != y1 - y2:
        raise RuntimeError("tail samples do not lie on a single affine trend")
    return y0 - y1


def _approx_table(table: RawCoeffTable, word: LassoWord, horizon: int,
                  mode: str) -> PayoffValue:
    if horizon > len(table.values):
        raise ValueError(
            f"horizon {horizon} exceeds table length {len(table.values)}")
    ratios = []
    num = Fraction(0)
    den = Fraction(0)
    for i in range(horizon):
        c = table.values[i]
        num += c * word.symbol(i)
        den += c
        ratios.append(num / den)
    window = min(2 * word.cycle_len, horizon)
    tail = ratios[-window:]
    return PayoffValue(mode=mode, bracket=(min(tail), max(tail)),
                       horizon_used=horizon)


def eval_approx(seq: Union[CoeffSeq, RawCoeffTable], word: LassoWord,
                horizon: int, mode: str = LIMINF) -> PayoffValue:
    """Truncation-based payoff bracket.

    Partial ratios are accumulated exactly up to the horizon.  For raw
    tables the bracket is the min/max over the final window.  For
    block-geometric sequences, each congruence phase of the tail is
    extrapolated from its last three samples (the numerator and the
    denominator are each geometric-plus-constant per phase, directly
    from the sequence definition), and the bracket spans from the
    sampled values to the fitted limits, so it always contains the true
    liminf/limsup.
    """
    _check_mode(mode)
    k = word.cycle_len
    if horizon < word.prefix_len + 2 * k:
        raise ValueError(
            f"horizon must be at least prefix length + 2*cycle length "
            f"= {word.prefix_len + 2 * k}")
    if isinstance(seq, RawCoeffTable):
        return _approx_table(seq, word, horizon, mode)

    analyze(seq)  # admission check
    m, p, mu = seq.prefix_len, seq.period, seq.ratio
    super_period = math.lcm(p, k)
    settled = max(m, word.prefix_len)
    min_horizon = settled + 3 * super_period
    if horizon < min_horizon:
        raise ValueError(
            f"horizon must be at least {min_horizon} for this sequence/word "
            f"pair (transient {settled} plus three super-periods of "
            f"{super_period})")

    nums = [Fraction(0)]
    dens = [Fraction(0)]
    num = Fraction(0)
    den = Fraction(0)
    coeffs = seq.terms()
    for i in range(horizon):
        c = next(coeffs)
        num += c * word.symbol(i)
        den += c
        nums.append(num)
        dens.append(den)

    rho = mu ** (super_period // p)
    lows = []
    highs = []
    for r in range(super_period):
        n1 = horizon - ((horizon - r) % super_period)
        points = (n1, n1 - super_period, n1 - 2 * super_period)
        num_samples = tuple(nums[n] for n in points)
        den_samples = tuple(dens[n] for n in points)
        if mu == 1:
            limit = _fit_affine(num_samples) / _fit_affine(den_samples)
        else:
            lead_n, const_n = _fit(num_samples, rho)
            lead_d, const_d = _fit(den_samples, rho)
            limit = _phase_limit(mu, lead_n, const_n, lead_d, const_d)
        sample = nums[n1] / dens[n1]
        lows.append(min(sample, limit))
        highs.append(max(sample, limit))
    if mode == LIMINF:
        bracket = (min(lows), min(highs))
    else:
        bracket = (max(lows), max(highs))
    return PayoffValue(mode=mode, bracket=bracket, horizon_used=horizon)
