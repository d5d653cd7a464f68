"""Span tracing at the layer boundaries of ``wavg``.

A :class:`Tracer` replaces the public functions of each layer with
wrappers, at every place other modules look them up (``wavg.solver``
binds its own ``eval_exact``, ``wavg.cli`` goes through
``payoff.eval_exact``, and so on).  Each call records one span: name,
parent span, and four clock readings, ``enter <= start <= end <= exit``.
``start``/``end`` bracket the wrapped call; ``enter``/``exit`` also cover
the wrapper's own bookkeeping.  A span's self time is its duration
``end - start`` minus the ``exit - enter`` of its child spans, so the
bookkeeping of a child is charged to no layer; it shows only in the
traced-minus-untraced difference.

A generator function (``enumerate_memoryless``) records one span per
resumption, so time its caller spends between two items is not charged
to it.

Spans stay in memory in flat arrays and are written out by
:meth:`Tracer.write` when the run ends.
"""

from __future__ import annotations

import gzip
import itertools
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

# (module, function, is_generator); the layer is the module's short name.
TRACED = (
    ("wavg.sequences", "parse_sequence", False),
    ("wavg.sequences", "analyze", False),
    ("wavg.payoff", "eval_exact", False),
    ("wavg.payoff", "eval_approx", False),
    ("wavg.games", "enumerate_memoryless", True),
    ("wavg.games", "induced_lasso", False),
    ("wavg.solver", "solve_enumerative", False),
    ("wavg.solver", "check_memoryless", False),
    ("wavg.solver", "monotone_falsify", False),
    ("wavg.solver", "find_witness_sequence_failure", False),
    ("wavg.cli", "main", False),
    ("wavg.verify", "verify_paper", False),
)


def span_name(module: str, function: str) -> str:
    return module.split(".", 1)[1] + "." + function


def self_times(parent, enter, start, end, exit_) -> list:
    """Self time of every span: ``end - start`` minus the children's
    ``exit - enter``.  ``parent[i]`` is the index of span i's parent, or -1;
    a parent is always recorded before its children."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= exit_[i] - enter[i]
    return own


def _words(alphabet, min_len: int, max_len: int) -> list:
    words = []
    for length in range(min_len, max_len + 1):
        words.extend(itertools.product(alphabet, repeat=length))
    return words


def quads_examined(alphabet, max_prefix_len: int, max_cycle_len: int,
                   nonempty_only: bool = False, witness=None) -> int:
    """How many (x, y, u, v) with x != y ``monotone_falsify`` compares:
    the whole space, or up to and including the witness it returns.
    Words are ordered by length, then alphabet order; loops nest x, y,
    u, v."""
    alphabet = tuple(Fraction(a) for a in alphabet)
    prefixes = _words(alphabet, 1 if nonempty_only else 0, max_prefix_len)
    cycles = _words(alphabet, 1, max_cycle_len)
    p, c = len(prefixes), len(cycles)
    if witness is None:
        return p * (p - 1) * c * c
    ix, iy = prefixes.index(witness.x), prefixes.index(witness.y)
    iu, iv = cycles.index(witness.u.cycle), cycles.index(witness.v.cycle)
    return (ix * (p - 1) + iy - (iy > ix)) * c * c + iu * c + iv + 1


class Tracer:
    """Records spans and counters for the wrapped ``wavg`` functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.enter = array("d")
        self.start = array("d")
        self.end = array("d")
        self.exit = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct_evals: set = set()

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int, enter: float) -> int:
        index = len(self.name_of)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.enter.append(enter)
        self.start.append(0.0)
        self.end.append(0.0)
        self.exit.append(0.0)
        self.stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float):
        self.stack.pop()
        self.start[index] = start
        self.end[index] = end

    def wrap(self, name: str, fn, is_generator: bool = False):
        name_id = len(self.names)
        self.names.append(name)
        clock, counts = self.clock, self.counts
        note = getattr(self, "_note_" + name.replace(".", "_"), None)
        budget_error = sys.modules["wavg.errors"].BudgetExceededError

        def failed(exc: BaseException):
            counts[name + ".failed"] += 1
            # Count a budget error once, not once per span it unwinds.
            if isinstance(exc, budget_error) and not hasattr(exc, "_counted"):
                exc._counted = True
                counts["solver.budget_exceeded"] += 1

        if is_generator:
            def generator_wrapper(*args, **kwargs):
                counts[name + ".calls"] += 1
                inner = fn(*args, **kwargs)
                while True:
                    enter = clock()
                    index = self._open(name_id, enter)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._close(index, start, clock())
                        self.exit[index] = clock()
                        return
                    except BaseException as exc:
                        self._close(index, start, clock())
                        failed(exc)
                        self.exit[index] = clock()
                        raise
                    end = clock()
                    self._close(index, start, end)
                    counts[name + ".items"] += 1
                    self.exit[index] = clock()
                    yield item
            return generator_wrapper

        def wrapper(*args, **kwargs):
            enter = clock()
            index = self._open(name_id, enter)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                self._close(index, start, end)
                counts[name + ".calls"] += 1
                failed(exc)
                self.exit[index] = clock()
                raise
            end = clock()
            self._close(index, start, end)
            counts[name + ".calls"] += 1
            if note is not None:
                note(result, *args, **kwargs)
            self.exit[index] = clock()
            return result
        return wrapper

    # Per-function counters, taken after ``end`` so no layer is charged.

    def _note_payoff_eval_exact(self, result, seq, word, mode="liminf"):
        self.distinct_evals.add((seq, word, mode))

    def _note_solver_monotone_falsify(self, result, seq, alphabet,
                                      max_prefix_len, max_cycle_len,
                                      mode="liminf", budget=10_000_000,
                                      nonempty_only=False):
        self.counts["solver.monotone_falsify.quads"] += quads_examined(
            alphabet, max_prefix_len, max_cycle_len, nonempty_only, result)

    def _note_solver_find_witness_sequence_failure(self, result, *args, **kwargs):
        self.counts["solver.find_witness_sequence_failure.gadgets_tried"] += sum(
            1 for line in result.tried
            if not line.startswith(("monotonicity search", "(budget")))

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every traced function wherever a ``wavg`` module binds it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "wavg" or key.startswith("wavg.")]
        for module_name, function, is_generator in TRACED:
            original = getattr(sys.modules[module_name], function)
            wrapper = self.wrap(span_name(module_name, function), original,
                                is_generator)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    # -- reading -------------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; marks split the spans into phases."""
        return len(self.name_of)

    def take_counts(self) -> Counter:
        """Counters since the last call, with the eval_exact distinct count."""
        counts = self.counts.copy()
        counts["payoff.eval_exact.distinct"] = len(self.distinct_evals)
        self.counts.clear()
        self.distinct_evals.clear()
        return counts

    def self_by_name(self, first: int, last: int) -> Counter:
        """Summed self time per span name over spans [first, last)."""
        parent = [p - first if p >= first else -1
                  for p in self.parent[first:last]]
        own = self_times(parent, self.enter[first:last], self.start[first:last],
                         self.end[first:last], self.exit[first:last])
        totals: Counter = Counter()
        for name_id, value in zip(self.name_of[first:last], own):
            totals[self.names[name_id]] += value
        return totals

    def write(self, path) -> int:
        """Write every span as a gzip'd TSV row; returns the span count."""
        own = self_times(self.parent, self.enter, self.start, self.end,
                         self.exit)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span\tname\tparent\tenter\tstart\tend\texit\tself\n")
            for i, name_id in enumerate(self.name_of):
                out.write(f"{i}\t{self.names[name_id]}\t{self.parent[i]}\t"
                          f"{self.enter[i]!r}\t{self.start[i]!r}\t"
                          f"{self.end[i]!r}\t{self.exit[i]!r}\t{own[i]!r}\n")
        return len(self.name_of)
