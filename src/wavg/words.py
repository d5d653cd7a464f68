"""Ultimately periodic reward words (lassos): finite prefix + repeated cycle."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SequenceFormatError
from .sequences import as_rational, parse_rational


@dataclass(frozen=True)
class LassoWord:
    """An infinite reward word given by a finite prefix and a nonempty cycle."""

    prefix: tuple[Fraction, ...]
    cycle: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(as_rational(x) for x in self.prefix))
        object.__setattr__(self, "cycle", tuple(as_rational(x) for x in self.cycle))
        if not self.cycle:
            raise SequenceFormatError("lasso cycle must be nonempty")

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    @property
    def cycle_len(self) -> int:
        return len(self.cycle)


def parse_lasso(text: str) -> LassoWord:
    """Parse 'prefix=r0,r1,...;cycle=s0,s1,...' (prefix part optional)."""
    parts: dict[str, tuple[Fraction, ...]] = {}
    for part in text.split(";"):
        key, eq, value = part.partition("=")
        if not eq:
            raise SequenceFormatError(f"malformed lasso component {part!r}")
        if key in parts:
            raise SequenceFormatError(f"repeated lasso component {key!r}")
        items = tuple(parse_rational(tok) for tok in value.split(",")) if value else ()
        if key not in ("prefix", "cycle"):
            raise SequenceFormatError(f"unrecognized lasso component {key!r}")
        parts[key] = items
    if "cycle" not in parts:
        raise SequenceFormatError("lasso spec requires cycle=...")
    return LassoWord(parts.get("prefix", ()), parts["cycle"])


def format_lasso(word: LassoWord) -> str:
    cycle = "cycle=" + ",".join(str(c) for c in word.cycle)
    if word.prefix:
        return "prefix=" + ",".join(str(c) for c in word.prefix) + ";" + cycle
    return cycle
