"""Tree construction, decision matrices, JSON/DOT round trips."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import generators
from ludokit import core, tree
from ludokit.errors import BudgetExceededError, LudokitError, TreeInvariantError
from ludokit.tree import (
    CHANCE,
    STATE,
    TERMINAL,
    TRUNCATED,
    build_forest,
    build_tree,
    decision_matrix,
    export_dot,
    export_json,
    import_json,
    tree_stats,
    validate_tree,
)


@pytest.fixture(scope="module")
def ttt_depth2(ttt):
    s0 = core.initial_states(ttt)[0]
    return build_tree(ttt, s0, depth_limit=2)


class TestBuild:
    def test_flip_structure(self, ttt, ttt_depth2):
        t = ttt_depth2
        root_edges = t.node_children[t.root]
        assert len(root_edges) == 1
        assert t.edge_label[root_edges[0]] == frozenset({(("flip", "flip"),)})
        chance = t.edge_dst[root_edges[0]]
        assert t.node_kind[chance] == CHANCE
        probs = sorted(str(t.edge_prob[e]) for e in t.node_children[chance])
        assert probs == ["1/2", "1/2"]

    def test_eight_edges_after_first_move(self, ttt, ttt_depth2):
        t = ttt_depth2
        chance = t.children(t.root)[0]
        x_first = next(
            n for n in t.children(chance)
            if ttt.state_to_dict(t.node_state[n])["turn"] == "X"
        )
        move_one = next(
            t.edge_dst[e] for e in t.node_children[x_first]
            if t.edge_label[e] == frozenset({(("1", None),)})
        )
        assert len(t.node_children[move_one]) == 8

    def test_depth_limit_truncates(self, ttt):
        s0 = core.initial_states(ttt)[0]
        t = build_tree(ttt, s0, depth_limit=0)
        assert t.node_kind[t.root] == STATE
        chance = t.children(t.root)[0]
        for child in t.children(chance):
            assert t.node_kind[child] == TRUNCATED
            assert not t.node_children[child]

    def test_forest_of_one(self, ttt):
        assert len(build_forest(ttt, depth_limit=1)) == 1

    def test_forest_size_matches_initial_set(self, systems):
        forest = build_forest(systems["mixed_a"])
        assert len(forest) == 4  # the t track is free in the initial set

    def test_empty_initial_set_rejected(self, ttt):
        import dataclasses

        from ludokit.core import And, Lit

        bad = dataclasses.replace(
            ttt, init=And((Lit("turn", "start"), Lit("turn", "X")))
        )
        with pytest.raises(TreeInvariantError):
            build_forest(bad)

    def test_budget_aborts(self, ttt):
        s0 = core.initial_states(ttt)[0]
        with pytest.raises(BudgetExceededError):
            build_tree(ttt, s0, node_budget=50)

    def test_nonterminating_system_hits_budget(self):
        text = """
players P
track t { a }
decisions m
action noop { when t=a set t=a }
init t=a
legal P m when t=a
consequence (m) -> prob 1: noop
outcome default never
"""
        from ludokit.dsl import parse_game

        loop = parse_game(text)
        with pytest.raises(BudgetExceededError):
            build_tree(loop, ("a",), node_budget=1000)

    def test_terminal_outcomes_match_core(self, systems):
        sys = systems["parity"]
        t = build_forest(sys)[0]
        for n in t.iter_nodes():
            if t.node_kind[n] == TERMINAL:
                assert t.node_outcome[n] == core.outcome(sys, t.node_state[n])

    def test_degenerate_initial_terminal(self):
        from ludokit.dsl import parse_game

        text = """
players P
track t { a, b }
decisions m
action go { when t=a set t=b }
init t=b
legal P m when t=a
consequence (m) -> prob 1: go
outcome default done
"""
        sys = parse_game(text)
        t = build_forest(sys)[0]
        assert t.node_kind[t.root] == TERMINAL
        assert t.node_outcome[t.root] == "done"


class TestDecisionMatrix:
    def test_root_flip_matrix(self, ttt, ttt_depth2):
        m = decision_matrix(ttt_depth2, ttt_depth2.root)
        assert m.choice_sets == (("flip",), ("flip",))
        assert list(m.mapping) == [("flip", "flip")]
        assert m.empty_domain

    def test_parity_matrix(self, systems):
        t = build_forest(systems["parity"])[0]
        m = decision_matrix(t, t.root)
        assert m.choice_sets == (("left", "right"), ("left", "right"))
        assert len(m.mapping) == 4
        assert len(m.edges()) == 4
        assert not m.empty_domain

    def test_trio_matrix_inactive_player(self, trio_matrix_a):
        m = decision_matrix(trio_matrix_a, trio_matrix_a.root)
        sizes = sorted(len(cs) for cs in m.choice_sets)
        assert sizes == [1, 2, 3]  # P2 inactive, P1 two choices, P3 three
        assert m.choice_sets[1] == (None,)
        assert len(m.mapping) == 6
        assert len(m.edges()) == 4

    def test_matrix_on_chance_node_rejected(self, ttt_depth2):
        chance = ttt_depth2.children(ttt_depth2.root)[0]
        with pytest.raises(TreeInvariantError):
            decision_matrix(ttt_depth2, chance)

    def test_matrix_on_terminal_rejected(self, systems):
        t = build_forest(systems["parity"])[0]
        leaf = t.children(t.root)[0]
        with pytest.raises(TreeInvariantError):
            decision_matrix(t, leaf)


class TestJsonRoundTrip:
    def test_round_trip_depth2(self, ttt_depth2):
        text = export_json(ttt_depth2)
        again = import_json(text)
        assert export_json(again) == text
        assert again.node_count() == ttt_depth2.node_count()

    def test_round_trip_swap_pair(self, swap_pair_left):
        text = export_json(swap_pair_left)
        assert export_json(import_json(text)) == text

    def test_truncation_marks_survive(self, ttt):
        s0 = core.initial_states(ttt)[0]
        t = build_tree(ttt, s0, depth_limit=1)
        again = import_json(export_json(t))
        assert tree_stats(again).truncated_leaves == tree_stats(t).truncated_leaves > 0

    def test_bad_probability_sum_rejected(self, swap_pair_left):
        doc = json.loads(export_json(swap_pair_left))
        for edge in doc["edges"]:
            if edge.get("prob") == "1/3":
                edge["prob"] = "1/2"
        with pytest.raises(TreeInvariantError, match="sum"):
            import_json(json.dumps(doc))

    def test_malformed_json_rejected(self):
        with pytest.raises(TreeInvariantError, match="malformed"):
            import_json("{not json")

    def test_double_parent_rejected(self, swap_pair_left):
        doc = json.loads(export_json(swap_pair_left))
        doc["edges"].append(dict(doc["edges"][-1]))
        with pytest.raises(TreeInvariantError, match="two incoming"):
            import_json(json.dumps(doc))

    @pytest.mark.parametrize("bad", [[0], "0", 0.5, True, None])
    def test_non_integer_node_refs_rejected(self, swap_pair_left, bad):
        text = export_json(swap_pair_left)
        for patch in (
            lambda d: d["nodes"][-1].update(id=bad),
            lambda d: d.update(root=bad),
            lambda d: d["edges"][0].update({"from": bad}),
            lambda d: d["edges"][0].update(to=bad),
        ):
            doc = json.loads(text)
            patch(doc)
            with pytest.raises(TreeInvariantError, match="integer node id"):
                import_json(json.dumps(doc))

    def test_all_null_tuple_rejected(self):
        doc = {
            "players": ["P"],
            "root": 0,
            "nodes": [
                {"id": 0, "kind": "state"},
                {"id": 1, "kind": "terminal", "outcome": "w"},
            ],
            "edges": [
                {"from": 0, "to": 1, "kind": "decision", "tuples": [[[None]]]},
            ],
        }
        with pytest.raises(TreeInvariantError, match="all-null"):
            import_json(json.dumps(doc))

    def test_overlapping_sibling_tuples_rejected(self):
        doc = {
            "players": ["P"],
            "root": 0,
            "nodes": [
                {"id": 0, "kind": "state"},
                {"id": 1, "kind": "terminal", "outcome": "w"},
                {"id": 2, "kind": "terminal", "outcome": "w"},
            ],
            "edges": [
                {"from": 0, "to": 1, "kind": "decision", "tuples": [[["m"]]]},
                {"from": 0, "to": 2, "kind": "decision", "tuples": [[["m"]]]},
            ],
        }
        with pytest.raises(TreeInvariantError, match="share"):
            import_json(json.dumps(doc))

    def test_non_total_matrix_rejected(self):
        doc = {
            "players": ["A", "B"],
            "root": 0,
            "nodes": [
                {"id": 0, "kind": "state"},
                {"id": 1, "kind": "terminal", "outcome": "w"},
                {"id": 2, "kind": "terminal", "outcome": "w"},
            ],
            "edges": [
                {"from": 0, "to": 1, "kind": "decision", "tuples": [[["x", "u"]]]},
                {"from": 0, "to": 2, "kind": "decision", "tuples": [[["y", "v"]]]},
            ],
        }
        with pytest.raises(TreeInvariantError, match="total"):
            import_json(json.dumps(doc))

    def test_chance_to_chance_rejected(self):
        doc = {
            "players": ["P"],
            "root": 0,
            "nodes": [
                {"id": 0, "kind": "state"},
                {"id": 1, "kind": "chance"},
                {"id": 2, "kind": "chance"},
                {"id": 3, "kind": "terminal", "outcome": "w"},
                {"id": 4, "kind": "terminal", "outcome": "w"},
            ],
            "edges": [
                {"from": 0, "to": 1, "kind": "decision", "tuples": [[["m"]]]},
                {"from": 1, "to": 2, "kind": "chance", "prob": "1/2"},
                {"from": 1, "to": 3, "kind": "chance", "prob": "1/2"},
                {"from": 2, "to": 4, "kind": "chance", "prob": "1"},
            ],
        }
        with pytest.raises(TreeInvariantError, match="chance"):
            import_json(json.dumps(doc))

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(TreeInvariantError, match="malformed JSON"):
            import_json("[" * 100_000 + "]" * 100_000)

    @pytest.mark.parametrize("bad", [5, None, {"a": 1}])
    def test_non_list_tuple_sequence_rejected(self, bad):
        doc = {
            "players": ["P"],
            "root": 0,
            "nodes": [
                {"id": 0, "kind": "state"},
                {"id": 1, "kind": "terminal", "outcome": "w"},
            ],
            "edges": [{"from": 0, "to": 1, "kind": "decision", "tuples": [bad]}],
        }
        with pytest.raises(TreeInvariantError, match="malformed tuple sequence"):
            import_json(json.dumps(doc))

    def test_duplicate_players_rejected(self, swap_pair_left):
        doc = json.loads(export_json(swap_pair_left))
        doc["players"] = [doc["players"][0]] * len(doc["players"])
        with pytest.raises(TreeInvariantError, match="repeats a player"):
            import_json(json.dumps(doc))

    @pytest.mark.parametrize("kind", [[], {}, 1, None])
    def test_non_string_node_kind_rejected(self, kind):
        doc = {"players": ["P"], "root": 0, "nodes": [{"id": 0, "kind": kind}], "edges": []}
        with pytest.raises(TreeInvariantError, match="unknown node kind"):
            import_json(json.dumps(doc))

    def test_random_trees_round_trip(self):
        for seed in range(40):
            t = generators.random_tree(random.Random(seed), max_nodes=40,
                                       allow_truncated=seed % 3 == 0)
            validate_tree(t)
            text = export_json(t)
            assert export_json(import_json(text)) == text


# Documents shaped like tree documents, whose every part may also be an
# arbitrary JSON value, so that most of them reach the deeper checks.
_words = st.sampled_from(
    ["state", "chance", "terminal", "truncated", "decision", "P", "Q", "a", "1/2", "1"]
)
_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | _words | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_words, inner, max_size=3),
    max_leaves=8,
)
_ids = st.integers(0, 3) | _values
_tuples = st.lists(
    st.lists(st.lists(st.sampled_from([None, "a", "b"]) | _values, max_size=3) | _values,
             max_size=2) | _values,
    max_size=3,
) | _values
_nodes = st.fixed_dictionaries(
    {"id": _ids, "kind": _words | _values},
    optional={"state": st.lists(_words, max_size=2) | _values, "outcome": _words | _values,
              "truncated": _values},
) | _values
_edges = st.fixed_dictionaries(
    {"from": _ids, "to": _ids, "kind": _words | _values},
    optional={"tuples": _tuples, "prob": _words | _values},
) | _values
_tree_docs = st.fixed_dictionaries(
    {
        "players": st.lists(_words, max_size=3) | _values,
        "root": _ids,
        "nodes": st.lists(_nodes, max_size=4),
        "edges": st.lists(_edges, max_size=4),
    }
) | _values


@settings(max_examples=300, deadline=None)
@given(_tree_docs)
def test_import_json_raises_only_ludokit_errors(doc):
    try:
        import_json(json.dumps(doc))
    except LudokitError:
        pass


class TestDot:
    def test_dot_output(self, swap_pair_left):
        dot = export_dot(swap_pair_left)
        assert dot.startswith("digraph")
        assert "doublecircle" in dot  # terminals
        assert "1/3" in dot
        assert dot == export_dot(swap_pair_left)  # byte-stable

    def test_dot_marks_truncated(self, ttt):
        s0 = core.initial_states(ttt)[0]
        t = build_tree(ttt, s0, depth_limit=0)
        assert "dashed" in export_dot(t)


class TestStats:
    def test_depth2_stats(self, ttt_depth2):
        stats = tree_stats(ttt_depth2)
        assert stats.nodes == ttt_depth2.node_count()
        assert stats.chance_nodes == 1
        assert stats.truncated_leaves > 0
