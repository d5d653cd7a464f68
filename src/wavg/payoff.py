"""Weighted-average payoff evaluation on lasso words.

``eval_exact`` applies one integer shape kernel, built per (sequence,
prefix length, cycle length), to the word's rewards.  After the transient
the word and the sequence repeat with the period lcm(p, k), along which
the coefficients scale by a fixed factor rho, and each residue modulo it
has its own limit of the partial ratios: one linear-fractional form for
every residue when rho <= 1 (convergent and ratio-1 sequences), a
sliding-window ratio per residue when rho > 1 (growth).  The payoff is
the least of them (liminf) or the greatest (limsup).

``eval_approx`` is the independent truncation oracle: it accumulates
exact integer partial sums up to a horizon and brackets the tail limit
per congruence phase by extrapolating the sampled numerators and
denominators, never reusing the closed form above.
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


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")


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


class _Shape:
    """The payoff of every lasso x u^w with |x| = ``prefix_len`` and |u| =
    ``cycle_len``, as one integer fraction per tail phase of its rewards.

    Past head = max(m, |x|) the positions repeat with the period span =
    lcm(p, |u|), along which the coefficients scale by rho = num/den.
    With head sums N, D and window sums W, V over head .. head+span-1,
    rho <= 1 gives every phase the limit (N(1-rho) + W) / (D(1-rho) + V),
    whose numerator is linear in the rewards: ``weights`` gives prefix
    position i the weight (den - num) c_i, and cycle slot j the sum of
    (den - num) c_i over the positions i >= |x| of the head and den c_i
    over those of the window that read it.  Under rho > 1 the head washes
    out and phase r tends to W_r / V_r, the window sums from head + r
    (_phase_sums).  Each pair is scaled by den.  ``coeffs``, the c_i as
    integers over one unit, default to the first head + span.
    """

    def __init__(self, seq: CoeffSeq, prefix_len: int, cycle_len: int,
                 coeffs=None):
        head = max(seq.prefix_len, prefix_len)
        span = math.lcm(seq.period, cycle_len)
        laps = span // seq.period
        num, den = seq.ratio.numerator ** laps, seq.ratio.denominator ** laps
        if coeffs is None:
            coeffs = _int_coeffs(seq, head + span)[0]
        self.window = coeffs[head:head + span]
        self.weights = None
        if num <= den:
            terms = ([(den - num) * c for c in coeffs[:head]]
                     + [den * c for c in self.window])
            self.weights = terms[:prefix_len] + [
                sum(terms[j::cycle_len])
                for j in range(prefix_len, prefix_len + cycle_len)]
            self.dens = [sum(terms)]
        else:
            self.num, self.den, self.laps = num, den, span // cycle_len
            # The window reads the cycle from rewards[start] on.
            self.prefix_len = prefix_len
            self.start = prefix_len + (head - prefix_len) % cycle_len
            self.dens = _phase_sums(self.window, num, den)
        # Per phase, its factor to the least common denominator, found on
        # the first apply: a kernel that is only read for its numerators
        # skips the lcm of its k phases.
        self.scales = None

    def numerators(self, rewards) -> list[int]:
        """Each phase's numerator for the integer rewards, prefix then
        cycle, of a lasso of this shape."""
        if self.weights is not None:
            return [sum(map(operator.mul, self.weights, rewards))]
        symbols = (rewards[self.start:]
                   + rewards[self.prefix_len:self.start]) * self.laps
        return _phase_sums(list(map(operator.mul, self.window, symbols)),
                           self.num, self.den)

    def apply(self, rewards, unit: int, mode: str) -> Fraction:
        """The payoff when the rewards are these integers over ``unit``:
        the first least (liminf) or greatest (limsup) phase limit, compared
        as integers over a common denominator.  It makes no checks."""
        nums, r = self.numerators(rewards), 0
        if len(nums) > 1:
            if self.scales is None:
                scale = math.lcm(*self.dens)
                self.scales = [scale // d for d in self.dens]
            keys = list(map(operator.mul, nums, self.scales))
            r = keys.index((min if mode == LIMINF else max)(keys))
        return Fraction(nums[r], self.dens[r] * unit)


def _phase_sums(window, num: int, den: int) -> list[int]:
    """den times the window sums from each phase r of a tail growing by
    num/den > 1: den * S + (num - den) * (the first r values), where S
    sums the whole window."""
    whole, lift = sum(window) * den, num - den
    return [whole + lift * part
            for part in itertools.accumulate(window[:-1], initial=0)]


def _exact_checks(seq, mode: str) -> None:
    """eval_exact's checks: the mode, and a CoeffSeq with supports_exact."""
    _check_mode(mode)
    if isinstance(seq, RawCoeffTable):
        raise UnsupportedSequenceError(
            "raw tables have no exact evaluator; use eval_approx")
    if not supports_exact(seq):
        raise UnsupportedSequenceError(
            "the reciprocal partial sums have no single limit, so the payoff "
            "is not a finite rational for every word; use eval_approx")


def eval_exact(seq: CoeffSeq, word: LassoWord, mode: str = LIMINF) -> PayoffValue:
    """Exact weighted-average payoff of a lasso word, where supported: the
    _Shape of its lengths applied to its rewards scaled to integers.
    Raises ValueError for a bad mode, and UnsupportedSequenceError for raw
    tables and wherever supports_exact is false."""
    _exact_checks(seq, mode)
    ints, unit = _scaled(word.prefix + word.cycle)
    return PayoffValue(mode=mode, exact=_Shape(
        seq, word.prefix_len, word.cycle_len).apply(ints, unit, mode))


def _fitted_limit(nums: tuple[int, int, int], dens: tuple[int, int, int],
                  a: int, b: int) -> tuple[int, int]:
    """Integer (numerator, denominator) of a phase's limit, fitted to its
    samples y0, y1, y2 of the partial sums at n, n - span and n - 2*span.

    Along a phase the samples are y_j = const + lead * rho**(-j) with
    rho = a/b: lead = a(y0 - y1)/(a - b) and const = (a y1 - b y0)/(a - b).
    The third sample checks the trend: a(a y1 - b y0) + b^2 (y0 - y1) ==
    a(a - b) y2, or y0 - y1 == y1 - y2 for the affine rho = 1, or all
    three equal for rho = 0.  For rho < 1 the leading term shrinks and the
    constants decide the limit; otherwise the leading terms do.
    """
    for y0, y1, y2 in (nums, dens):
        if a == b:
            if y0 - y1 != y1 - y2:
                raise RuntimeError(
                    "tail samples do not lie on a single affine trend")
        elif a == 0:
            if not y0 == y1 == y2:
                raise RuntimeError(
                    "tail samples of a truncated sequence disagree")
        elif a * (a * y1 - b * y0) + b * b * (y0 - y1) != a * (a - b) * y2:
            raise RuntimeError(
                "tail samples do not lie on a single geometric trend")
    (n0, n1, _), (d0, d1, _) = nums, dens
    lead = n0 - n1, d0 - d1
    const = a * n1 - b * n0, a * d1 - b * d0
    if a < b:
        if const[1]:
            return const
        if not const[0] and lead[1]:
            return lead
        raise UnsupportedSequenceError(
            "partial sums vanish in the limit; the payoff is not a finite rational")
    if lead[1]:
        return lead
    if not lead[0]:
        return const
    raise UnsupportedSequenceError(
        "partial ratios diverge along a phase; no finite bracket exists")


def _partial_sums(coeffs, unit: int, word: LassoWord, horizon: int):
    """The partial sums of c_i w_i and of c_i for n = 0 .. horizon, as
    integers over the units (unit * scale, unit): ``coeffs`` holds c_0 ..
    c_(horizon-1) over ``unit``, and the word is scaled once to ``scale``."""
    ints, scale = _scaled(word.prefix + word.cycle)
    prefix, cycle = ints[:word.prefix_len], ints[word.prefix_len:]
    symbols = prefix + cycle * (horizon // len(cycle) + 1)
    nums = list(itertools.accumulate(map(operator.mul, coeffs, symbols),
                                     initial=0))
    dens = list(itertools.accumulate(coeffs, initial=0))
    return nums, dens, unit * scale, unit


def _approx_table(table: RawCoeffTable, word: LassoWord, horizon: int,
                  mode: str) -> PayoffValue:
    if horizon > len(table.values):
        raise ValueError(
            f"horizon {horizon} exceeds table length {len(table.values)}")
    nums, dens, num_unit, den_unit = _partial_sums(
        *_scaled(table.values[:horizon]), word, horizon)
    window = min(2 * word.cycle_len, horizon)
    tail = [Fraction(nums[n] * den_unit, dens[n] * num_unit)
            for n in range(horizon - window + 1, horizon + 1)]
    return PayoffValue(mode=mode, bracket=(min(tail), max(tail)),
                       horizon_used=horizon)


def eval_approx(seq: Union[CoeffSeq, RawCoeffTable], word: LassoWord,
                horizon: int, mode: str = LIMINF) -> PayoffValue:
    """Truncation-based payoff bracket.

    Partial sums are accumulated exactly up to the horizon, as integer
    partial sums over one unit: the coefficients c_0 .. c_(horizon-1)
    from ``seq.terms()`` and the word's rewards are each scaled once to
    integers.  For raw tables the bracket is the min/max over the final
    window.  For block-geometric sequences, each congruence phase of the
    tail is extrapolated from its last three samples by _fitted_limit, on
    the integers (the numerator and the denominator are each
    geometric-plus-constant per phase, directly from the sequence
    definition), and the bracket spans from the sampled values to the
    fitted limits, so it always contains the true liminf/limsup.
    Fractions are built only for each phase's last sample and limit.
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
    # The oldest sample lies past the transient.  Under ratio 0 the
    # partial sums settle only once the block has passed, at m + p.
    settled = max(m + p - 1 if mu == 0 else m, word.prefix_len)
    min_horizon = settled + 3 * super_period
    if horizon < min_horizon:
        raise ValueError(
            f"horizon must be at least {min_horizon} for this sequence/word "
            f"pair (transient {settled} plus three super-periods of "
            f"{super_period})")

    nums, dens, num_unit, den_unit = _partial_sums(
        *_int_coeffs(seq, horizon), word, horizon)
    laps = super_period // p
    a, b = mu.numerator ** laps, mu.denominator ** laps
    lows = []
    highs = []
    for r in range(super_period):
        n1 = horizon - ((horizon - r) % super_period)
        points = (n1, n1 - super_period, n1 - 2 * super_period)
        n, d = _fitted_limit(tuple(nums[i] for i in points),
                             tuple(dens[i] for i in points), a, b)
        limit = Fraction(n * den_unit, d * num_unit)
        sample = Fraction(nums[n1] * den_unit, dens[n1] * num_unit)
        lows.append(min(sample, limit))
        highs.append(max(sample, limit))
    if mode == LIMINF:
        bracket = (min(lows), min(highs))
    else:
        bracket = (max(lows), max(highs))
    return PayoffValue(mode=mode, bracket=bracket, horizon_used=horizon)
