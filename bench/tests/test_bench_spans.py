"""Self-time arithmetic and counters of the traced run."""

import itertools
import sys
from fractions import Fraction

import pytest

import spans
import wavg


def test_self_times_subtract_children_with_their_bookkeeping():
    # root [0, 20]; child A runs [2, 5] inside its wrapper [1, 6];
    # child B runs [8, 15] inside [7, 16]; B's child C runs [10, 11]
    # inside [9.5, 11.5].
    parent = [-1, 0, 0, 2]
    enter = [0.0, 1.0, 7.0, 9.5]
    start = [0.0, 2.0, 8.0, 10.0]
    end = [20.0, 5.0, 15.0, 11.0]
    exit_ = [20.0, 6.0, 16.0, 11.5]
    own = spans.self_times(parent, enter, start, end, exit_)
    assert own == [20 - 5 - 9, 3.0, 7 - 2, 1.0]


class FakeClock:
    """Every reading is one tick after the last."""

    def __init__(self):
        self.ticks = itertools.count()

    def __call__(self):
        return float(next(self.ticks))


def test_tracer_records_nested_spans_and_counts():
    tracer = spans.Tracer(clock=FakeClock())

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("layer.inner", inner)

    def outer(x):
        return traced_inner(x) + traced_inner(x)

    traced_outer = tracer.wrap("layer.outer", outer)
    assert traced_outer(1) == 4
    assert tracer.mark() == 3
    assert list(tracer.parent) == [-1, 0, 0]
    counts = tracer.take_counts()
    assert counts["layer.outer.calls"] == 1
    assert counts["layer.inner.calls"] == 2
    own = tracer.self_by_name(0, 3)
    # Each wrapped call reads the clock four times; inner spans last one
    # tick, and each inner wrapper spans three.
    assert own["layer.inner"] == 2.0
    outer_duration = tracer.end[0] - tracer.start[0]
    assert own["layer.outer"] == outer_duration - 2 * 3.0


def test_tracer_counts_failures_and_generator_items():
    tracer = spans.Tracer(clock=FakeClock())

    def broken():
        raise wavg.BudgetExceededError("out of budget")

    def items():
        yield from "abc"

    traced_broken = tracer.wrap("solver.broken", broken)
    traced_items = tracer.wrap("games.items", items, is_generator=True)
    with pytest.raises(wavg.BudgetExceededError):
        traced_broken()
    assert list(traced_items()) == ["a", "b", "c"]
    counts = tracer.take_counts()
    assert counts["solver.broken.failed"] == 1
    assert counts["solver.budget_exceeded"] == 1
    assert counts["games.items.calls"] == 1
    assert counts["games.items.items"] == 3
    assert tracer.mark() == 1 + 4  # one span per resumption
    assert tracer.stack == []


@pytest.mark.parametrize("spec", ["mean", "blocks:2,1;mu=1"])
def test_quads_examined_matches_the_falsifier_budget(spec):
    # monotone_falsify spends one unit of budget per (x, y, u, v); the
    # count is exact iff the search fits that budget but not one less.
    seq = wavg.parse_sequence(spec)
    alphabet = (0, 1)
    witness = wavg.monotone_falsify(seq, alphabet, 2, 2)
    quads = spans.quads_examined(alphabet, 2, 2, False, witness)
    assert (witness is None) == (quads == 7 * 6 * 6 * 6)
    again = wavg.monotone_falsify(seq, alphabet, 2, 2, budget=quads)
    assert again == witness
    with pytest.raises(wavg.BudgetExceededError):
        wavg.monotone_falsify(seq, alphabet, 2, 2, budget=quads - 1)


@pytest.fixture
def restored_wavg():
    modules = {k: dict(vars(m)) for k, m in sys.modules.items()
               if k == "wavg" or k.startswith("wavg.")}
    yield
    for key, saved in modules.items():
        vars(sys.modules[key]).update(saved)


def test_install_traces_calls_between_modules(restored_wavg):
    import wavg.cli  # noqa: F401  (installed wrappers cover every module)
    game, seq = wavg.two_branch_gadget(), wavg.geometric(2)
    untraced = wavg.check_memoryless(game, seq, 2)
    original = wavg.payoff.eval_exact
    tracer = spans.Tracer()
    tracer.install()
    assert wavg.payoff.eval_exact is not original
    assert wavg.solver.eval_exact is wavg.payoff.eval_exact
    traced = wavg.check_memoryless(game, seq, 2)
    assert traced.witness.deviating_payoff == untraced.witness.deviating_payoff
    counts = tracer.take_counts()
    assert counts["solver.check_memoryless.calls"] == 1
    assert counts["solver.solve_enumerative.calls"] == 1
    assert counts["payoff.eval_exact.calls"] >= 2
    assert counts["games.enumerate_memoryless.items"] == (
        wavg.count_memoryless(game, 1) + wavg.count_memoryless(game, 2))
    names = {tracer.names[i] for i in tracer.name_of}
    assert {"solver.check_memoryless", "solver.solve_enumerative",
            "payoff.eval_exact", "sequences.analyze",
            "games.induced_lasso"} <= names
    assert Fraction(14, 15) == traced.witness.deviating_payoff
