"""Exact coefficient sequences for weighted-average payoffs.

A sequence is stored in block-geometric form: an explicit finite prefix
c_0 .. c_{m-1} followed by a base block b_0 .. b_{p-1} whose values are
rescaled by a fixed nonnegative ratio on every repetition, so that
c_{m+j+t*p} = b_j * ratio**t.  The form covers geometric sequences
(block length 1), eventually periodic sequences (ratio 1) and mixtures
of both, and keeps every partial sum computable in closed form.

Arbitrary finite tables go through :class:`RawCoeffTable` and only
support approximate (bracketing) evaluation.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Union

from .errors import SequenceAdmissionError, SequenceFormatError

RatLike = Union[Fraction, int, str]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(token: str) -> Fraction:
    """Parse a rational literal: 'p/q' or an integer, no whitespace."""
    if not _RATIONAL_RE.match(token):
        raise SequenceFormatError(f"malformed rational {token!r}")
    _, _, denominator = token.partition("/")
    if denominator and int(denominator) == 0:
        raise SequenceFormatError(f"zero denominator in {token!r}")
    return Fraction(token)


def as_rational(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise SequenceFormatError(f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True)
class CoeffSeq:
    """A coefficient sequence in block-geometric normal form.

    ``prefix`` holds the explicit initial coefficients, ``block`` the base
    block values and ``ratio`` the per-repetition scale factor (mu >= 0).
    An all-zero block is pinned to ratio 0 since the tail is identically
    zero whatever the ratio.  The hash is computed once, at construction,
    so the caches keyed by a sequence do not rehash its Fractions.
    """

    prefix: tuple[Fraction, ...] = ()
    block: tuple[Fraction, ...] = (Fraction(1),)
    ratio: Fraction = Fraction(1)

    def __post_init__(self):
        prefix = tuple(as_rational(x) for x in self.prefix)
        block = tuple(as_rational(x) for x in self.block)
        ratio = as_rational(self.ratio)
        if not block:
            raise SequenceFormatError("block must be nonempty")
        if ratio < 0:
            raise SequenceFormatError(
                "block ratio must be nonnegative (sign-alternating ratios are not supported)")
        if all(b == 0 for b in block):
            ratio = Fraction(0)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "_hash", hash((prefix, block, ratio)))
        if self.term(0) == 0:
            raise SequenceFormatError("first coefficient must be nonzero")

    def __hash__(self) -> int:
        return self._hash

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    @property
    def period(self) -> int:
        return len(self.block)

    def term(self, i: int) -> Fraction:
        """The coefficient c_i."""
        if i < 0:
            raise ValueError("coefficient index must be nonnegative")
        if i < len(self.prefix):
            return self.prefix[i]
        t, j = divmod(i - len(self.prefix), len(self.block))
        return self.block[j] * self.ratio ** t

    def terms(self) -> Iterator[Fraction]:
        """Iterate c_0, c_1, ... with O(1) work per term."""
        yield from self.prefix
        scale = Fraction(1)
        while True:
            for b in self.block:
                yield b * scale
            scale *= self.ratio


@dataclass(frozen=True)
class RawCoeffTable:
    """A finite explicit coefficient table c_0 .. c_N (approximate use only)."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        values = tuple(as_rational(x) for x in self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise SequenceFormatError("table must be nonempty")
        if values[0] == 0:
            raise SequenceFormatError("first coefficient must be nonzero")
        running = Fraction(0)
        for n, c in enumerate(values, start=1):
            running += c
            if running == 0:
                raise SequenceAdmissionError(
                    f"partial sum d_{n} is zero", violation_index=n)


class Classification(Enum):
    CONVERGENT = "convergent"
    DIVERGENT_BOUNDED = "divergent-bounded"
    DIVERGENT_UNBOUNDED = "divergent-unbounded"


@dataclass(frozen=True)
class SeqAnalysis:
    """Analytic facts about an admitted sequence.

    ``series_sum`` is the total of the series when it converges;
    ``even_sum``/``odd_sum`` split it over even/odd indices.
    ``inv_psum_liminf``/``inv_psum_limsup`` are the liminf/limsup of the
    reciprocals of the partial sums (exact whenever the block form pins
    them down).  ``bound`` witnesses |c_n| <= bound in the
    divergent-bounded case.
    """

    classification: Classification
    series_sum: Optional[Fraction] = None
    even_sum: Optional[Fraction] = None
    odd_sum: Optional[Fraction] = None
    inv_psum_liminf: Optional[Fraction] = None
    inv_psum_limsup: Optional[Fraction] = None
    bound: Optional[Fraction] = None


def _residue_form(seq: CoeffSeq) -> list[tuple[Fraction, Fraction]]:
    """The pairs (C_j, D_j), one per block residue j, such that
    d_{m+t*p+j} = C_j + D_j * g(t) for every t >= 0, where g(t) = t under
    ratio 1 and g(t) = ratio**t otherwise."""
    head = sum(seq.prefix, Fraction(0))
    block_sum = sum(seq.block, Fraction(0))
    partials = itertools.accumulate(seq.block[:-1], initial=Fraction(0))
    if seq.ratio == 1:
        return [(head + s, block_sum) for s in partials]
    shifted = block_sum / (1 - seq.ratio)
    return [(head + shifted, s - shifted) for s in partials]


def partial_sum(seq: CoeffSeq, n: int) -> Fraction:
    """The partial sum d_n = c_0 + ... + c_{n-1}, in closed form.

    Costs O(period + log n) arithmetic operations, not O(n).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    m, mu = seq.prefix_len, seq.ratio
    if n <= m:
        return sum(seq.prefix[:n], Fraction(0))
    t, j = divmod(n - m, seq.period)
    c, d = _residue_form(seq)[j]
    return c + d * (t if mu == 1 else mu ** t)


def _power_index(mu: Fraction, r: Fraction) -> Optional[int]:
    """The t >= 0 with mu**t == r, if any, for mu > 0, mu != 1.  In lowest
    terms mu**t is a**t / b**t, so the loop stops once either part passes
    r's: within log2 of r's larger part steps, however close mu is to 1."""
    t, acc = 0, Fraction(1)
    while (acc != r and acc.numerator <= r.numerator
           and acc.denominator <= r.denominator):
        acc *= mu
        t += 1
    return t if acc == r else None


def first_zero_partial_sum(seq: CoeffSeq) -> Optional[int]:
    """The least n >= 1 with d_n == 0, or None if every partial sum is nonzero.

    The decision is analytic: indices up to prefix+block are checked
    directly; beyond them, C_j + D_j * g(t) = 0 is solved for t per
    residue class j of the residue form, and solutions are kept only
    when t is a positive integer.  This makes admission a proof, not a
    sampling heuristic.
    """
    m, p, mu = seq.prefix_len, seq.period, seq.ratio
    for n in range(1, m + p + 1):
        if partial_sum(seq, n) == 0:
            return n
    if mu == 0:
        return None  # tail constant, equal to d_{m+p}, checked above
    candidates = []
    for j, (c, d) in enumerate(_residue_form(seq)):
        if d == 0:
            t = 1 if c == 0 else None
        elif mu == 1:
            r = -c / d
            t = r.numerator if r.denominator == 1 else None
        else:
            t = _power_index(mu, -c / d)
        if t is not None and t >= 1:
            candidates.append(m + t * p + j)
    return min(candidates) if candidates else None


def admit(seq: CoeffSeq) -> None:
    """Raise SequenceAdmissionError unless the sequence is usable for payoffs."""
    n = first_zero_partial_sum(seq)
    if n is not None:
        raise SequenceAdmissionError(
            f"partial sum d_{n} is zero", violation_index=n)
    if seq.ratio == 1 and sum(seq.block, Fraction(0)) == 0:
        raise SequenceAdmissionError(
            "periodic block sums to zero: partial sums stay bounded and the "
            "ratio-limit machinery does not apply")


@lru_cache(maxsize=None)
def analyze(seq: CoeffSeq) -> SeqAnalysis:
    """Classify the sequence and compute its exact analytic summary."""
    admit(seq)
    m, p, mu = seq.prefix_len, seq.period, seq.ratio
    if mu < 1:
        total = _residue_form(seq)[0][0]
        # Even/odd split via the alternating series: each tail term lands at
        # index m+j+t*p, whose parity flips with t exactly when p is odd.
        sign = -1 if p % 2 else 1
        alternating = sum(
            (c if i % 2 == 0 else -c) for i, c in enumerate(seq.prefix))
        alternating += sum(
            (b if (m + j) % 2 == 0 else -b) for j, b in enumerate(seq.block)
        ) / (1 - sign * mu)
        even = (total + alternating) / 2
        odd = (total - alternating) / 2
        inv = 1 / total if total != 0 else None
        return SeqAnalysis(Classification.CONVERGENT, series_sum=total,
                           even_sum=even, odd_sum=odd,
                           inv_psum_liminf=inv, inv_psum_limsup=inv)
    if mu == 1:
        bound = max(abs(c) for c in seq.prefix + seq.block)
        return SeqAnalysis(Classification.DIVERGENT_BOUNDED,
                           inv_psum_liminf=Fraction(0),
                           inv_psum_limsup=Fraction(0), bound=bound)
    # mu > 1: along residue class j the partial sums are C_j + D_j * mu**t,
    # so 1/d_n accumulates at 0 (D_j != 0) or at 1/C_j (D_j == 0).
    points = [Fraction(0) if d != 0 else 1 / c for c, d in _residue_form(seq)]
    return SeqAnalysis(Classification.DIVERGENT_UNBOUNDED,
                       inv_psum_liminf=min(points),
                       inv_psum_limsup=max(points))


def mean_sequence() -> CoeffSeq:
    """The all-ones sequence (plain averaging)."""
    return CoeffSeq((), (Fraction(1),), Fraction(1))


def geometric(lam: RatLike) -> CoeffSeq:
    """The sequence c_i = lam**i, for any lam > 0."""
    lam = as_rational(lam)
    if lam <= 0:
        raise SequenceFormatError("geometric ratio must be positive")
    return CoeffSeq((), (Fraction(1),), lam)


def discounted(lam: RatLike) -> CoeffSeq:
    """The sequence c_i = lam**i with 0 < lam < 1."""
    lam = as_rational(lam)
    if not 0 < lam < 1:
        raise SequenceFormatError("discount factor must lie strictly between 0 and 1")
    return CoeffSeq((), (Fraction(1),), lam)


def _parse_csv(text: str) -> tuple[Fraction, ...]:
    if not text:
        raise SequenceFormatError("empty value list")
    return tuple(parse_rational(tok) for tok in text.split(","))


def parse_sequence(text: str) -> Union[CoeffSeq, RawCoeffTable]:
    """Parse a sequence spec string.

    Grammar:
        mean
        disc:<rat>                       0 < rat < 1
        geom:<rat>                       rat > 0
        blocks:<r0,r1,...>;mu=<rat>[;prefix=<r0,...>]
        table:<r0,r1,...>
    """
    if text == "mean":
        return mean_sequence()
    head, sep, rest = text.partition(":")
    if not sep:
        raise SequenceFormatError(f"unrecognized sequence spec {text!r}")
    if head == "disc":
        return discounted(parse_rational(rest))
    if head == "geom":
        return geometric(parse_rational(rest))
    if head == "table":
        return RawCoeffTable(_parse_csv(rest))
    if head == "blocks":
        parts = rest.split(";")
        block = _parse_csv(parts[0])
        options: dict = {}
        for extra in parts[1:]:
            key, eq, value = extra.partition("=")
            if key in options:
                raise SequenceFormatError(f"repeated blocks option {key!r}")
            if key == "mu" and eq:
                options[key] = parse_rational(value)
            elif key == "prefix" and eq:
                options[key] = _parse_csv(value)
            else:
                raise SequenceFormatError(f"unrecognized blocks option {extra!r}")
        if "mu" not in options:
            raise SequenceFormatError("blocks spec requires ;mu=<rat>")
        return CoeffSeq(options.get("prefix", ()), block, options["mu"])
    raise SequenceFormatError(f"unrecognized sequence spec {text!r}")
