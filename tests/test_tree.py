"""Tree construction, decision matrices, JSON/DOT round trips."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import generators
import oracles
from ludokit import core, equiv, reduce, tree
from ludokit.errors import (
    BudgetExceededError,
    LudokitError,
    NoRuleMatchesError,
    TreeInvariantError,
)
from ludokit.tree import (
    CHANCE,
    CHANCE_EDGE,
    DECISION_EDGE,
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


# A game whose only move leads back to its only state: an infinite tree.
LOOP_GAME = """
players P
track t { a }
decisions m
action noop { when t=a set t=a }
init t=a
legal P m when t=a
consequence (m) -> prob 1: noop
outcome default never
"""


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
        from ludokit.dsl import parse_game

        loop = parse_game(LOOP_GAME)
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


GAMES = [
    "tictactoe", "3to15", "misere", "perturbed", "endofturn",
    "forbidden", "parity", "mixed_a", "mixed_b",
]


def arrays(t: tree.GameTree) -> tuple:
    return (
        t.players, t.root, list(t.node_kind), t.node_state, t.node_outcome, t.node_children,
        list(t.node_parent_edge), list(t.edge_kind), list(t.edge_src), list(t.edge_dst),
        t.edge_prob, t.edge_label,
    )


def x_first(system) -> core.GameState:
    """The empty board with X to move: the root of one half of the forest."""
    return system.state_from_dict({"turn": "X", **{f"c{i}": "e" for i in range(1, 10)}})


class TestSharedBuild:
    """`build_tree` shares equal subtrees; `unfold` gives the unshared build."""

    def assert_unfolds_to(self, shared: tree.GameTree, reference: tree.GameTree) -> None:
        assert arrays(tree.unfold(shared)) == arrays(reference)
        assert tree_stats(shared) == tree_stats(reference)
        assert shared.node_count() == reference.node_count() == len(reference.node_kind)
        assert shared.depth() == reference.depth()
        # iter_nodes walks the unfolded tree: once per path, in preorder
        assert [(shared.node_kind[n], shared.node_state[n]) for n in shared.iter_nodes()] == [
            (reference.node_kind[n], reference.node_state[n]) for n in reference.iter_nodes()
        ]

    @pytest.mark.parametrize("game", GAMES)
    def test_depth3_forests(self, systems, game):
        shared = build_forest(systems[game], depth_limit=3)
        reference = oracles.build_forest(systems[game], depth_limit=3)
        for t, ref in zip(shared, reference, strict=True):
            self.assert_unfolds_to(t, ref)

    @pytest.mark.parametrize("game", ["parity", "mixed_a"])
    def test_full_forests(self, systems, game):
        for t, ref in zip(build_forest(systems[game]), oracles.build_forest(systems[game]),
                          strict=True):
            self.assert_unfolds_to(t, ref)

    def test_x_first_forbidden(self, systems):
        forbidden = systems["forbidden"]
        shared = build_tree(forbidden, x_first(forbidden))
        reference = oracles.build_tree(forbidden, x_first(forbidden))
        assert len(reference.node_kind) == 179_116
        assert len(shared.node_kind) < len(reference.node_kind) // 20
        self.assert_unfolds_to(shared, reference)

    def test_unshared_arena_unfolds_to_itself(self, systems):
        reference = oracles.build_forest(systems["parity"])[0]
        assert not tree.is_shared(reference)
        assert arrays(tree.unfold(reference)) == arrays(reference)

    def test_copy_shares_the_label_cache(self, systems):
        t = build_forest(systems["parity"])[0]
        tree.node_meta(t, t.root)
        dup = t.copy()
        assert dup.label_cache is t.label_cache and t.label_cache
        assert arrays(dup) == arrays(t)

    def test_every_producer_yields_list_columns(self, systems):
        """Arena columns are plain lists wherever an arena is made: an
        `array` column would make each read of an id above 256 allocate,
        and an `array` never equals a list."""
        built = build_forest(systems["parity"])[0]
        imported = tree.import_json(tree.export_json(built))
        arenas = {
            "build_tree": built,
            "import_json": imported,
            "unfold": tree.unfold(built),
            "compact": tree.compact(built),
            "copy": built.copy(),
            "relabel_tree": equiv.relabel_tree(imported, outcome_map={}),
            "normalize": reduce.normalize(built)[0],
        }
        for name, t in arenas.items():
            for column in tree.GameTree.__slots__:
                value = getattr(t, column)
                if column not in ("players", "root", "system", "label_cache"):
                    assert type(value) is list, (name, column)

    def test_one_node_per_state(self, ttt):
        t = build_forest(ttt)[0]
        states = [t.node_state[n] for n in tree.postorder(t) if t.node_kind[n] != CHANCE]
        assert len(states) == len(set(states))
        assert tree.is_shared(t)


# One player walks a 0 -> 1 -> 2: m is legal at 0 and 1, n at 1 only.
# Consequence rules are filled in per test.
WALK_GAME = """
players P
track a {{ 0, 1, 2 }}
decisions m, n
action up {{ when a=0 set a=1 ; when a=1 set a=2 }}
init a=0
legal P m when not a=2
legal P n when a=1
{rules}
outcome default done
"""


class TestConsequenceResolution:
    """`build_tree` resolves consequences as the rules say, whether the
    engine answers per decision tuple or per (tuple, state)."""

    @pytest.mark.parametrize("game", GAMES)
    def test_fixture_forests_export_as_with_first_principles(self, systems, game):
        """Depths 1-5, against an engine that reads every consequence off
        the rules (`oracles.with_oracle_consequences`)."""
        reference = oracles.with_oracle_consequences(systems[game])
        for depth in range(1, 6):
            got = [export_json(t) for t in build_forest(systems[game], depth_limit=depth)]
            want = [export_json(t) for t in build_forest(reference, depth_limit=depth)]
            assert got == want

    def test_unguarded_rules_hold_no_per_state_entries(self, ttt):
        """Every tic-tac-toe rule is unguarded, so after the depth-5 build
        the engine holds one answer per decision tuple and none per
        (tuple, state)."""
        import dataclasses

        ttt = dataclasses.replace(ttt)  # a fresh engine
        assert all(rule.guard is None for rule in ttt.consequence_rules)
        build_forest(ttt, depth_limit=5)
        engine = ttt.engine()
        assert len(engine._cons_fixed) == 19  # (flip, flip) and 9 moves each
        assert engine._cons_cache == {}

    @pytest.mark.parametrize("depth", [None, 0])
    @pytest.mark.parametrize(
        "rules",
        [
            "consequence (m) -> prob 1: up",
            "consequence (m) -> prob 1: up\nconsequence (n) when a=0 -> prob 1: up",
        ],
        ids=["no-rule", "guard-fails"],
    )
    def test_unmatched_tuple_raises(self, rules, depth):
        """No rule matches (n) at a=1: an expanded node raises, and so does
        the truncated frontier of a depth-0 build."""
        from ludokit.dsl import parse_game

        sys = parse_game(WALK_GAME.format(rules=rules))
        with pytest.raises(NoRuleMatchesError):
            build_tree(sys, ("0",), depth_limit=depth)

    def test_guard_decides_per_state(self):
        """(m)'s first rule is guarded, so (m) resolves per state: the
        unguarded rule at a=0, the guarded coin at a=1.  (n)'s first match
        is the unguarded wildcard."""
        from ludokit.dsl import parse_game

        sys = parse_game(WALK_GAME.format(rules="""
consequence (m) when a=1 -> prob 1/2: up ; prob 1/2: up
consequence (*) -> prob 1: up
"""))
        t = build_tree(sys, ("0",))
        assert [t.node_kind[n] for n in t.iter_nodes()] == [
            STATE, STATE, CHANCE, TERMINAL, TERMINAL, TERMINAL
        ]
        t = build_tree(sys, ("0",), depth_limit=0)
        assert [t.node_kind[n] for n in t.iter_nodes()] == [STATE, TRUNCATED]


class TestBudget:
    """The budget bounds the unfolded tree, not the shared arena."""

    TTT_NODES = 1_099_894

    def test_cycle_raises_whatever_the_budget(self):
        from ludokit.dsl import parse_game

        with pytest.raises(BudgetExceededError, match="cycle"):
            build_tree(parse_game(LOOP_GAME), ("a",), node_budget=10**12)

    def test_unfolded_count_is_budgeted(self, ttt):
        s0 = core.initial_states(ttt)[0]
        t = build_tree(ttt, s0, node_budget=self.TTT_NODES)
        assert len(t.node_kind) == 10_958
        assert tree_stats(t).nodes == t.node_count() == self.TTT_NODES
        with pytest.raises(BudgetExceededError, match=str(self.TTT_NODES)):
            build_tree(ttt, s0, node_budget=self.TTT_NODES - 1)

    def test_arena_over_budget_stops_early(self, ttt):
        s0 = core.initial_states(ttt)[0]
        with pytest.raises(BudgetExceededError, match="while expanding"):
            build_tree(ttt, s0, node_budget=100)


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


# Words naming each check `node_meta` makes, as its messages spell them.
MATRIX_CHECKS = (
    "no outgoing edges", "non-decision edge", "empty tuple set", "all-null",
    "share the joint choice", "not total",
)


def check_word(fn, *args) -> str:
    """The `MATRIX_CHECKS` word of the TreeInvariantError `fn(*args)` raises."""
    with pytest.raises(TreeInvariantError) as info:
        fn(*args)
    words = [w for w in MATRIX_CHECKS if w in str(info.value)]
    assert len(words) == 1, str(info.value)
    return words[0]


def non_total_tree() -> tree.GameTree:
    """Two players whose only cells are (a, x) and (b, y): not a total matrix."""
    t = tree.GameTree(("A", "B"))
    t.root = t.add_node(STATE)
    for joint, outcome in ((("a", "x"), "w"), (("b", "y"), "l")):
        leaf = t.add_node(TERMINAL, outcome=outcome)
        t.add_edge(t.root, leaf, DECISION_EDGE, label=frozenset({(joint,)}))
    return t


def corruptions(t: tree.GameTree, node: int):
    """(word, copy of t with one corruption at the node) per applicable check."""
    edges = t.node_children[node]
    e0, n = edges[0], len(t.players)
    label = t.edge_label[e0]
    relabeled = [
        ("empty tuple set", e0, frozenset()),
        ("all-null", e0, label | {((None,) * n,)}),
    ]
    if len(edges) > 1:
        relabeled.append(("share the joint choice", edges[1], t.edge_label[edges[1]] | label))
    if n > 1:
        # A new choice for every player: one more cell, many more missing.
        relabeled.append(("not total", e0, label | {(("\x7f",) * n,)}))
    for word, e, bad in relabeled:
        dup = t.copy()
        dup.edge_label[e] = bad
        yield word, dup
    dup = t.copy()
    dup.edge_kind[e0], dup.edge_label[e0], dup.edge_prob[e0] = CHANCE_EDGE, None, Fraction(1)
    yield "non-decision edge", dup
    dup = t.copy()
    dup.node_children[node] = []
    yield "no outgoing edges", dup


class TestNodeMeta:
    def test_non_total_matrix_is_refused_everywhere(self):
        """Every entry point refuses the non-total matrix with the same check."""
        for fn in (
            tree.validate_tree,
            equiv.canonical_form,
            lambda t: equiv.equivalent_up_to_relabeling(t, non_total_tree()),
            reduce.normalize,
        ):
            with pytest.raises(TreeInvariantError, match="not total"):
                fn(non_total_tree())

    def test_agrees_with_the_reference_decoder(self):
        """On random trees and their normal forms, `node_meta` and
        `decision_matrix` agree with the per-call reference decoder."""
        checked = 0
        for seed in range(150):
            t = generators.random_tree(random.Random(seed), allow_truncated=seed % 3 == 0)
            for form in (t, reduce.normalize(t)[0]):
                for n in tree.postorder(form):
                    if form.node_kind[n] != STATE:
                        continue
                    choice_sets, mapping = oracles.reference_matrix(form, n)
                    meta = tree.node_meta(form, n)
                    m = decision_matrix(form, n)
                    sizes = tuple(len(cs) for cs in choice_sets)
                    owners = [i for i, cs in enumerate(choice_sets) if cs != (None,)]
                    edges = form.node_children[n]
                    assert meta.sizes == sizes
                    assert meta.choices == tuple(frozenset(cs) for cs in choice_sets)
                    assert meta.counts == tuple(list(mapping.values()).count(e) for e in edges)
                    assert meta.active == sum(1 for k in sizes if k > 1)
                    assert meta.owner == (owners[0] if len(owners) == 1 else None)
                    assert meta.total == sum(sizes)
                    assert m.choice_sets == choice_sets
                    assert list(m.mapping.items()) == list(mapping.items())
                    checked += 1
        assert checked > 1000

    def test_equal_choice_sets_are_one_object(self, systems):
        """Choice sets are hash-consed through the label cache: equal sets of
        different records, and of different trees of one system, are one
        object."""
        sets = []
        for t in tree.build_forest(systems["tictactoe"], depth_limit=3):
            form = reduce.normalize(t)[0]
            for arena in (t, form):
                for n in tree.postorder(arena):
                    if arena.node_kind[n] == STATE:
                        sets.extend(tree.node_meta(arena, n).choices)
        assert len(sets) > 500
        assert len({id(c) for c in sets}) == len(set(sets)) < 100

    def test_corrupted_labels_raise_the_reference_check(self):
        """Each corruption raises the same check in `node_meta`,
        `decision_matrix` and the reference, even on a warm shared cache."""
        seen = set()
        for seed in range(40):
            t = generators.random_tree(random.Random(seed))
            for n in tree.postorder(t):
                if t.node_kind[n] != STATE:
                    continue
                tree.node_meta(t, n)  # warm the cache the copies share
                for word, bad in corruptions(t, n):
                    assert check_word(oracles.reference_matrix, bad, n) == word
                    assert check_word(tree.node_meta, bad, n) == word
                    assert check_word(decision_matrix, bad, n) == word
                    seen.add(word)
        assert seen == set(MATRIX_CHECKS)


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
