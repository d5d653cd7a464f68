"""Game graphs, strategies, play extraction, gadgets and the file format."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavg import (Edge, FiniteMemoryStrategy, GameFormatError, GameGraph,
                  LassoWord, MemorylessStrategy, count_memoryless,
                  cycle_choice_gadget, detour_gadget, enumerate_memoryless,
                  escape_gadget, induced_lasso, loops_gadget,
                  parse_game, random_game, serialize_game, two_branch_gadget)

F = Fraction


def profile_for(g, strategy, player):
    other = MemorylessStrategy({
        q: g.out_edges(q)[0] for q in g.owned_states(3 - player)})
    if player == 1:
        return strategy, other
    return other, strategy


def alternating_two_branch() -> FiniteMemoryStrategy:
    g = two_branch_gadget()
    hub = g.out_edges("hub")
    back = {q: g.out_edges(q)[0] for q in ("left", "right")}
    choice = {(0, "hub"): hub[1], (1, "hub"): hub[0]}  # right first, then left
    for mem in (0, 1):
        choice[(mem, "left")] = back["left"]
        choice[(mem, "right")] = back["right"]
    update = {(m, q): m for m in (0, 1) for q in ("left", "right")}
    update[(0, "hub")] = 1
    update[(1, "hub")] = 0
    return FiniteMemoryStrategy(choice, update)


class TestGraphInvariants:
    def test_parallel_self_loops_allowed(self):
        g = loops_gadget((1, 0))
        assert len(g.states) == 1 and len(g.edges) == 2

    def test_duplicate_edge_triple_rejected(self):
        with pytest.raises(GameFormatError):
            GameGraph(("a",), {"a": 1},
                      (Edge("a", "a", F(1)), Edge("a", "a", F(1))), "a")

    def test_missing_out_edge_rejected(self):
        with pytest.raises(GameFormatError) as err:
            GameGraph(("a", "b"), {"a": 1, "b": 2},
                      (Edge("a", "b", F(0)),), "a")
        assert "b" in str(err.value)

    def test_unknown_start_rejected(self):
        with pytest.raises(GameFormatError):
            GameGraph(("a",), {"a": 1}, (Edge("a", "a", F(0)),), "z")

    @pytest.mark.parametrize("states, owners, edges, message", [
        (("a", "a"), {"a": 1}, (("a", "a"),), "duplicate state names"),
        (("a",), {"a": 1, "b": 2}, (("a", "a"),),
         "owner given for unknown state 'b'"),
        (("a",), {"a": 3}, (("a", "a"),), "owner of 'a' must be 1 or 2"),
        (("a", "b"), {"a": 1}, (("a", "b"), ("b", "a")),
         "states without owner: ['b']"),
        (("a",), {"a": 1}, (("a", "a"), ("b", "a")),
         "edge from unknown state 'b'"),
        (("a",), {"a": 1}, (("a", "b"),), "edge to unknown state 'b'"),
    ], ids=["duplicate-name", "unknown-owner", "owner-3", "no-owner",
            "edge-from", "edge-to"])
    def test_constructor_checks(self, states, owners, edges, message):
        with pytest.raises(GameFormatError) as err:
            GameGraph(states, owners,
                      tuple(Edge(src, dst, F(1)) for src, dst in edges), "a")
        assert str(err.value) == message


class TestGadgets:
    def test_two_branch_shape(self):
        g = two_branch_gadget()
        assert len(g.states) == 3
        assert len(g.edges) == 4
        assert {e.weight for e in g.edges} == {F(0), F(1), F(2), F(4)}
        assert g.owner("hub") == 2

    def test_single_cycle_choice_degenerates(self):
        g = cycle_choice_gadget(1)
        assert len(g.states) == 1
        assert g.edges[0].weight == 1
        assert g.edges[0].src == g.edges[0].dst == "hub"

    def test_cycle_choice_structure(self):
        k = 4
        g = cycle_choice_gadget(k)
        assert len(g.states) == 1 + k * (k - 1)
        assert len(g.edges) == k * k
        spikes = [e for e in g.edges if e.weight == 1]
        assert len(spikes) == k

    def test_detour_memoryless_plays(self):
        g = detour_gadget(1, -1, 0)
        plays = {
            induced_lasso(g, *profile_for(g, s, 1))
            for s in enumerate_memoryless(g, 1)
        }
        assert plays == {LassoWord((), (0,)), LassoWord((), (1, -1))}

    def test_escape_structure(self):
        g = escape_gadget(F(7, 3))
        weights = {(e.src, e.dst): e.weight for e in g.edges}
        assert weights[("stay", "out")] == F(7, 3)
        assert weights[("stay", "stay")] == 1
        assert weights[("out", "out")] == 0

    def test_gadgets_round_trip(self):
        for g in (loops_gadget((1, 0)), loops_gadget((-1, 0)),
                  escape_gadget(2), detour_gadget(4, 1, 3),
                  cycle_choice_gadget(3), two_branch_gadget()):
            assert parse_game(serialize_game(g)) == g


class TestInducedLasso:
    def test_two_branch_always_left(self):
        g = two_branch_gadget()
        left = MemorylessStrategy({
            "hub": g.out_edges("hub")[0],
            "left": g.out_edges("left")[0],
            "right": g.out_edges("right")[0],
        })
        word = induced_lasso(g, MemorylessStrategy({}), left)
        assert word == LassoWord((), (0, 4))

    def test_self_loop(self):
        g = loops_gadget((F(5, 2),))
        s = MemorylessStrategy({"s": g.edges[0]})
        assert (induced_lasso(g, *profile_for(g, s, 1))
                == LassoWord((), (F(5, 2),)))

    def test_alternating_memory_strategy(self):
        g = two_branch_gadget()
        word = induced_lasso(
            g, MemorylessStrategy({}), alternating_two_branch())
        assert word == LassoWord((), (1, 2, 0, 4))

    def test_memory_in_player_one_seat(self):
        g = two_branch_gadget(owner=1)
        word = induced_lasso(
            g, alternating_two_branch(), MemorylessStrategy({}))
        assert word == LassoWord((), (1, 2, 0, 4))

    def test_memory_in_both_seats(self):
        # Player 1 alternates at the hub, right first; player 2 counts
        # arrivals at the hub mod 3 and returns by the first edge on 0.
        # The play repeats when both memories do, after six round trips:
        # a cut at the first repeated (state, m1) would take two.
        edges = (Edge("hub", "left", F(0)), Edge("hub", "right", F(1)),
                 Edge("left", "hub", F(2)), Edge("left", "hub", F(3)),
                 Edge("right", "hub", F(4)), Edge("right", "hub", F(5)))
        g = GameGraph(("hub", "left", "right"),
                      {"hub": 1, "left": 2, "right": 2}, edges, "hub")
        p1 = FiniteMemoryStrategy(
            {(0, "hub"): edges[1], (1, "hub"): edges[0]},
            {(m, q): 1 - m if q == "hub" else m
             for m in (0, 1) for q in g.states})
        p2 = FiniteMemoryStrategy(
            {(m, q): g.out_edges(q)[min(m, 1)]
             for m in range(3) for q in ("left", "right")},
            {(m, q): (m + 1) % 3 if q == "hub" else m
             for m in range(3) for q in g.states})
        assert induced_lasso(g, p1, p2) == LassoWord(
            (), (1, 4, 0, 3, 1, 5, 0, 2, 1, 5, 0, 3))

    def test_automaton_is_its_two_tables(self):
        s = alternating_two_branch()
        assert FiniteMemoryStrategy(choice=s.choice, update=s.update) == s
        assert [f.name for f in dataclasses.fields(FiniteMemoryStrategy)] \
            == ["choice", "update"]

    @settings(max_examples=40)
    @given(st.integers(0, 500))
    def test_memoryless_is_a_one_state_automaton(self, seed):
        g = random_game(seed)
        profile = [next(enumerate_memoryless(g, p)) for p in (1, 2)]
        automata = [FiniteMemoryStrategy(
            {(0, q): edge for q, edge in s.choice.items()},
            {(0, q): 0 for q in g.states}) for s in profile]
        assert induced_lasso(g, *automata) == induced_lasso(g, *profile)

    def test_deterministic(self):
        g = two_branch_gadget()
        profile = MemorylessStrategy({}), alternating_two_branch()
        assert induced_lasso(g, *profile) == induced_lasso(g, *profile)

    def test_edge_from_another_state_rejected(self):
        g = two_branch_gadget()
        wrong = MemorylessStrategy({"hub": g.out_edges("left")[0]})
        with pytest.raises(ValueError, match="from state 'hub'"):
            induced_lasso(g, MemorylessStrategy({}), wrong)

    @settings(max_examples=40)
    @given(st.integers(0, 500))
    def test_memoryless_lasso_length_bound(self, seed):
        g = random_game(seed)
        p1 = next(enumerate_memoryless(g, 1))
        p2 = next(enumerate_memoryless(g, 2))
        word = induced_lasso(g, p1, p2)
        assert word.prefix_len + word.cycle_len <= len(g.states)


class TestEnumeration:
    def test_two_branch_minimizer_count(self):
        g = two_branch_gadget()
        assert count_memoryless(g, 2) == 2
        assert len(list(enumerate_memoryless(g, 2))) == 2

    def test_out_degree_one(self):
        g = loops_gadget((3,))
        assert len(list(enumerate_memoryless(g, 1))) == 1

    def test_product_count(self):
        edges = (
            Edge("a", "a", F(0)), Edge("a", "b", F(1)),
            Edge("b", "a", F(0)), Edge("b", "b", F(1)), Edge("b", "c", F(2)),
            Edge("c", "a", F(0)),
        )
        g = GameGraph(("a", "b", "c"), {"a": 1, "b": 1, "c": 1}, edges, "a")
        assert count_memoryless(g, 1) == 6
        assert len(list(enumerate_memoryless(g, 1))) == 6
        assert len(list(enumerate_memoryless(g, 2))) == 1

    def test_lexicographic_order(self):
        g = two_branch_gadget()
        strategies = list(enumerate_memoryless(g, 2))
        assert strategies[0].choice["hub"].dst == "left"
        assert strategies[1].choice["hub"].dst == "right"

    @settings(max_examples=25)
    @given(st.integers(0, 300))
    def test_count_matches_degree_product(self, seed):
        g = random_game(seed)
        for player in (1, 2):
            expected = 1
            for q in g.owned_states(player):
                expected *= len(g.out_edges(q))
            assert len(list(enumerate_memoryless(g, player))) == expected


class TestFileFormat:
    def test_round_trip_random(self):
        for seed in range(20):
            g = random_game(seed)
            assert parse_game(serialize_game(g)) == g

    def test_comments_and_blanks(self):
        text = """
        # a tiny game
        state a 1   # the only state
        start a
        edge a a 7/3
        """
        g = parse_game(text)
        assert g.edges[0].weight == F(7, 3)

    def test_duplicate_state(self):
        text = "state a 1\nstate a 2\nstart a\nedge a a 1\n"
        with pytest.raises(GameFormatError) as err:
            parse_game(text)
        assert err.value.line == 2

    def test_unknown_endpoint(self):
        text = "state a 1\nstart a\nedge a b 1\n"
        with pytest.raises(GameFormatError) as err:
            parse_game(text)
        assert err.value.line == 3

    def test_missing_out_edges_names_state(self):
        text = "state a 1\nstate b 2\nstart a\nedge a b 1\n"
        with pytest.raises(GameFormatError) as err:
            parse_game(text)
        assert "'b'" in str(err.value)

    def test_malformed_rational(self):
        text = "state a 1\nstart a\nedge a a 1.5\n"
        with pytest.raises(GameFormatError) as err:
            parse_game(text)
        assert err.value.line == 3

    def test_duplicate_start(self):
        text = "state a 1\nstart a\nstart a\nedge a a 1\n"
        with pytest.raises(GameFormatError) as err:
            parse_game(text)
        assert err.value.line == 3

    def test_missing_start(self):
        with pytest.raises(GameFormatError):
            parse_game("state a 1\nedge a a 1\n")

    def test_random_game_deterministic(self):
        assert random_game(42) == random_game(42)
        assert serialize_game(random_game(7)) == serialize_game(random_game(7))
