"""Finite two-player game graphs, strategies, play extraction and gadgets.

States are partitioned between player 1 (maximizer) and player 2
(minimizer); every state has at least one outgoing edge.  Parallel
edges between the same pair of states are allowed as long as their
weights differ, so one-state graphs with several self-loops are
first-class.  Because of that, strategies select outgoing *edges*, not
successor states.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import GameFormatError
from .sequences import RatLike, as_rational, parse_rational
from .words import LassoWord


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    weight: Fraction

    def __post_init__(self):
        object.__setattr__(self, "weight", as_rational(self.weight))

    def __str__(self) -> str:
        return f"{self.src}->{self.dst}({self.weight})"


@dataclass
class GameGraph:
    """A weighted game graph with an owner per state and a start state."""

    states: tuple[str, ...]
    owners: dict[str, int]
    edges: tuple[Edge, ...]
    start: str
    _out: dict[str, tuple[Edge, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        self.states = tuple(self.states)
        self.edges = tuple(self.edges)
        known = set(self.states)
        if len(known) != len(self.states):
            raise GameFormatError("duplicate state names")
        for q, owner in self.owners.items():
            if q not in known:
                raise GameFormatError(f"owner given for unknown state {q!r}")
            if owner not in (1, 2):
                raise GameFormatError(f"owner of {q!r} must be 1 or 2")
        if set(self.owners) != known:
            missing = [q for q in self.states if q not in self.owners]
            raise GameFormatError(f"states without owner: {missing}")
        out: dict[str, list[Edge]] = {q: [] for q in self.states}
        seen = set()
        for e in self.edges:
            if e.src not in out:
                raise GameFormatError(f"edge from unknown state {e.src!r}")
            if e.dst not in out:
                raise GameFormatError(f"edge to unknown state {e.dst!r}")
            key = (e.src, e.dst, e.weight)
            if key in seen:
                raise GameFormatError(f"duplicate edge {e}")
            seen.add(key)
            out[e.src].append(e)
        for q in self.states:
            if not out[q]:
                raise GameFormatError(f"state {q!r} has no outgoing edge")
        if self.start not in out:
            raise GameFormatError(f"unknown start state {self.start!r}")
        self._out = {q: tuple(es) for q, es in out.items()}

    def out_edges(self, q: str) -> tuple[Edge, ...]:
        return self._out[q]

    def owner(self, q: str) -> int:
        return self.owners[q]

    def owned_states(self, player: int) -> tuple[str, ...]:
        return tuple(q for q in self.states if self.owners[q] == player)

    def max_abs_weight(self) -> Fraction:
        return max(abs(e.weight) for e in self.edges)


@dataclass
class MemorylessStrategy:
    """One chosen outgoing edge per owned state."""

    choice: dict[str, Edge]

    def describe(self) -> str:
        if not self.choice:
            return "(no choices)"
        return ", ".join(str(self.choice[q]) for q in sorted(self.choice))


@dataclass
class FiniteMemoryStrategy:
    """A strategy driven by a finite memory automaton.

    The memory starts at 0, the edge choice depends on (memory, state),
    and the memory is updated on every arrival: after moving to q' the
    new memory is update[(memory, q')].  A memoryless strategy is the
    one-state automaton, with choice[(0, q)] its edge at q and update 0.
    """

    choice: dict[tuple[int, str], Edge]
    update: dict[tuple[int, str], int]


def induced_lasso(g: GameGraph, p1: MemorylessStrategy | FiniteMemoryStrategy,
                  p2: MemorylessStrategy | FiniteMemoryStrategy) -> LassoWord:
    """Simulate the unique play of the profile (p1, p2) and return its
    reward lasso.

    Each seat's strategy is read once as the choice and update tables
    of its memory automaton, a memoryless one as the one-state automaton.
    The play is cut at the first repeated (state, memory, memory)
    configuration, so the result has prefix+cycle length at most |Q|
    times the product of the memory sizes.
    """
    tables = []
    for strategy in (p1, p2):
        if isinstance(strategy, MemorylessStrategy):
            strategy = FiniteMemoryStrategy(
                {(0, q): edge for q, edge in strategy.choice.items()},
                dict.fromkeys(((0, q) for q in g.states), 0))
        tables.append((strategy.choice, strategy.update))
    (choice1, update1), (choice2, update2) = tables
    q, m1, m2 = g.start, 0, 0
    rewards: list[Fraction] = []
    seen: dict[tuple, int] = {}
    config = (q, m1, m2)
    while config not in seen:
        seen[config] = len(rewards)
        edge = choice1[m1, q] if g.owner(q) == 1 else choice2[m2, q]
        if edge.src != q:
            raise ValueError(f"strategy chose edge {edge} from state {q!r}")
        rewards.append(edge.weight)
        q = edge.dst
        m1, m2 = update1[m1, q], update2[m2, q]
        config = (q, m1, m2)
    cut = seen[config]
    return LassoWord(tuple(rewards[:cut]), tuple(rewards[cut:]))


def enumerate_memoryless(g: GameGraph, player: int) -> Iterator[MemorylessStrategy]:
    """All memoryless strategies, lexicographic by state then edge order."""
    owned = g.owned_states(player)
    options = [g.out_edges(q) for q in owned]
    for combo in itertools.product(*options):
        yield MemorylessStrategy(dict(zip(owned, combo)))


class MemorylessStrategies(Sequence):
    """A player's memoryless strategies in enumerate_memoryless order, as a
    read-only sequence: strategy i is decoded from i on its first read and
    kept, so that a second read returns the same object.

    The index is mixed-radix in the edge indices of the owned states, in
    g.states order, the last one fastest: edge index k of state q adds
    k * places[q].
    """

    def __init__(self, g: GameGraph, player: int):
        self._g = g
        self._owned = g.owned_states(player)
        self.places: dict[str, int] = {}
        size = 1
        for q in reversed(self._owned):
            self.places[q] = size
            size *= len(g.out_edges(q))
        self._size = size
        self._decoded: dict[int, MemorylessStrategy] = {}

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: int) -> MemorylessStrategy:
        if not -self._size <= index < self._size:
            raise IndexError("strategy index out of range")
        index %= self._size
        strategy = self._decoded.get(index)
        if strategy is None:
            choice = {}
            for q in self._owned:
                edges = self._g.out_edges(q)
                choice[q] = edges[index // self.places[q] % len(edges)]
            strategy = self._decoded[index] = MemorylessStrategy(choice)
        return strategy


def count_memoryless(g: GameGraph, player: int) -> int:
    return len(MemorylessStrategies(g, player))


# ---------------------------------------------------------------------------
# Gadget constructors (player-1 graphs; two_branch_gadget takes an owner)
# ---------------------------------------------------------------------------

def loops_gadget(weights) -> GameGraph:
    """A single state with one self-loop per given weight."""
    weights = [as_rational(w) for w in weights]
    edges = tuple(Edge("s", "s", w) for w in weights)
    return GameGraph(("s",), {"s": 1}, edges, "s")


def escape_gadget(w: RatLike) -> GameGraph:
    """A reward-1 self-loop with a one-shot exit of reward w to a 0-loop sink."""
    w = as_rational(w)
    edges = (
        Edge("stay", "stay", Fraction(1)),
        Edge("stay", "out", w),
        Edge("out", "out", Fraction(0)),
    )
    return GameGraph(("stay", "out"), {"stay": 1, "out": 1}, edges, "stay")


def detour_gadget(out: RatLike, back: RatLike, loop: RatLike) -> GameGraph:
    """A self-loop of reward ``loop`` plus a two-edge detour out/back."""
    edges = (
        Edge("base", "base", as_rational(loop)),
        Edge("base", "away", as_rational(out)),
        Edge("away", "base", as_rational(back)),
    )
    return GameGraph(("base", "away"), {"base": 1, "away": 1}, edges, "base")


def cycle_choice_gadget(k: int) -> GameGraph:
    """A hub choosing among k length-k cycles; cycle i carries reward 1
    on its (i+1)-th edge and 0 elsewhere."""
    if k < 1:
        raise ValueError("k must be at least 1")
    states = ["hub"]
    edges: list[Edge] = []
    for i in range(k):
        chain = [f"c{i}s{j}" for j in range(1, k)]
        states.extend(chain)
        nodes = ["hub"] + chain + ["hub"]
        for step in range(k):
            edges.append(Edge(nodes[step], nodes[step + 1],
                              Fraction(1 if step == i else 0)))
    return GameGraph(tuple(states), dict.fromkeys(states, 1), tuple(edges), "hub")


def two_branch_gadget(left=(0, 4), right=(1, 2), owner: int = 2) -> GameGraph:
    """A hub choosing between two two-edge round trips.

    The defaults give the 3-state counterexample graph: left branch
    out/back rewards (0, 4), right branch (1, 2).
    """
    lo, lb = (as_rational(x) for x in left)
    ro, rb = (as_rational(x) for x in right)
    edges = (
        Edge("hub", "left", lo),
        Edge("left", "hub", lb),
        Edge("hub", "right", ro),
        Edge("right", "hub", rb),
    )
    owners = {"hub": owner, "left": owner, "right": owner}
    return GameGraph(("hub", "left", "right"), owners, edges, "hub")


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def parse_game(text: str) -> GameGraph:
    """Parse the line-oriented game format.

    Grammar ('#' starts a comment):
        state <name> <1|2>
        edge <srcName> <dstName> <rational>
        start <name>
    Exactly one start line; states must be declared before use.
    """
    states: list[str] = []
    owners: dict[str, int] = {}
    edges: list[Edge] = []
    start: str | None = None
    declared: set[str] = set()
    edge_keys: set[tuple] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "state":
            if len(parts) != 3:
                raise GameFormatError("state line needs: state <name> <1|2>", lineno)
            name, owner_tok = parts[1], parts[2]
            if name in declared:
                raise GameFormatError(f"duplicate state {name!r}", lineno)
            if owner_tok not in ("1", "2"):
                raise GameFormatError(f"owner must be 1 or 2, got {owner_tok!r}", lineno)
            declared.add(name)
            states.append(name)
            owners[name] = int(owner_tok)
        elif kind == "edge":
            if len(parts) != 4:
                raise GameFormatError(
                    "edge line needs: edge <src> <dst> <rational>", lineno)
            src, dst, weight_tok = parts[1], parts[2], parts[3]
            for endpoint in (src, dst):
                if endpoint not in declared:
                    raise GameFormatError(f"unknown state {endpoint!r}", lineno)
            try:
                weight = parse_rational(weight_tok)
            except Exception:
                raise GameFormatError(f"malformed rational {weight_tok!r}", lineno)
            key = (src, dst, weight)
            if key in edge_keys:
                raise GameFormatError(
                    f"duplicate edge {src}->{dst}({weight})", lineno)
            edge_keys.add(key)
            edges.append(Edge(src, dst, weight))
        elif kind == "start":
            if len(parts) != 2:
                raise GameFormatError("start line needs: start <name>", lineno)
            if start is not None:
                raise GameFormatError("duplicate start line", lineno)
            if parts[1] not in declared:
                raise GameFormatError(f"unknown state {parts[1]!r}", lineno)
            start = parts[1]
        else:
            raise GameFormatError(f"unrecognized directive {kind!r}", lineno)
    if start is None:
        raise GameFormatError("missing start line")
    return GameGraph(tuple(states), owners, tuple(edges), start)


def serialize_game(g: GameGraph) -> str:
    lines = [f"state {q} {g.owner(q)}" for q in g.states]
    lines.append(f"start {g.start}")
    lines.extend(f"edge {e.src} {e.dst} {e.weight}" for e in g.edges)
    return "\n".join(lines) + "\n"


def random_game(seed: int, max_states: int = 5,
                max_out_degree: int = 3) -> GameGraph:
    """A seed-determined random game with rewards in [-4, 4]."""
    rng = random.Random(seed)
    n = rng.randint(2, max_states)
    names = tuple(f"q{i}" for i in range(n))
    owners = {q: rng.randint(1, 2) for q in names}
    edges = []
    for q in names:
        degree = rng.randint(1, min(max_out_degree, n))
        targets = rng.sample(names, degree)
        for target in targets:
            weight = Fraction(rng.randint(-4, 4))
            edges.append(Edge(q, target, weight))
    return GameGraph(names, owners, tuple(edges), names[0])
