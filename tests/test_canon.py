"""The matrix canonical-form memo in `tree.label_cache`: sound and used."""

from __future__ import annotations

import random

import pytest

import generators
import oracles
from conftest import fixture_text
from ludokit import canon, equiv, reduce, tree
from ludokit.tree import DECISION_EDGE, GameTree, STATE, TERMINAL

COLD_MATRIX = canon.canonical_matrix


def cold_matrix(t: GameTree, node: int, axis_order, cols):
    """`canonical_matrix` computed with a fresh label cache."""
    warm = t.label_cache
    t.label_cache = {}
    try:
        return COLD_MATRIX(t, node, axis_order, cols)
    finally:
        t.label_cache = warm


def keys_for(t: GameTree, labeling) -> tuple[dict[int, bytes], dict[int, list[int]]]:
    """Every node's key and recorded out-edge order under one labeling."""
    keys: dict[int, bytes] = {}
    orders: dict[int, list[int]] = {}
    canon._fill_keys(t, tree.postorder(t), keys, orders, *canon._labeling(t, *labeling), False)
    return keys, orders


def simultaneous_nodes(t: GameTree) -> list[int]:
    return [
        n for n in tree.postorder(t)
        if t.node_kind[n] == STATE and tree.node_meta(t, n).active > 1
    ]


def assert_memo_sound(forest: list[GameTree], monkeypatch) -> int:
    """Keys and recorded out-edge orders of every candidate labeling, from
    the forest's warm shared cache, equal those from a fresh cache per
    call; returns how many matrix orders were compared."""
    compared = 0
    for labeling in canon.assignments_for(forest, canon.PIN_NONE):
        for t in forest:
            warm = keys_for(t, labeling)
            with monkeypatch.context() as m:
                m.setattr(canon, "canonical_matrix", cold_matrix)
                assert keys_for(t, labeling) == warm
            compared += len(simultaneous_nodes(t))
    return compared


def twin_matrices() -> tuple[GameTree, list[int]]:
    """P2 picks one of two state nodes with equal edge labels whose edges
    lead to differently arranged outcomes.  There P1 picks from 2 choices
    and P3 from 3 at the same time, so the axis order changes the form."""
    t = GameTree(("P1", "P2", "P3"))
    t.root = t.add_node(STATE)
    cells = {
        0: [("a", "x"), ("a", "y")],
        1: [("a", "z")],
        2: [("b", "x"), ("b", "y"), ("b", "z")],
    }
    labels = [
        frozenset(((c1, None, c3),) for c1, c3 in cells[k]) for k in range(3)
    ]
    nodes = []
    for pick, outcomes in (("l", ("w1", "w2", "w3")), ("r", ("w2", "w1", "w3"))):
        node = t.add_node(STATE)
        t.add_edge(t.root, node, DECISION_EDGE, label=frozenset({((None, pick, None),)}))
        for label, outcome in zip(labels, outcomes):
            t.add_edge(node, t.add_node(TERMINAL, outcome=outcome), DECISION_EDGE, label=label)
        nodes.append(node)
    tree.validate_tree(t)
    return t, nodes


class TestMatrixMemoSoundness:
    def test_equal_labels_different_child_keys(self, monkeypatch):
        t, nodes = twin_matrices()
        keys = oracles.subtree_keys(t)
        labels = [[t.edge_label[e] for e in t.node_children[n]] for n in nodes]
        assert labels[0] == labels[1]
        cols = [{e: keys[t.edge_dst[e]] for e in t.node_children[n]} for n in nodes]
        cold = [cold_matrix(t, n, [0, 1, 2], c) for n, c in zip(nodes, cols)]
        assert cold[0][0] != cold[1][0]
        assert [canon.canonical_matrix(t, n, [0, 1, 2], c) for n, c in zip(nodes, cols)] == cold
        assert assert_memo_sound([t], monkeypatch) > 0

    def test_one_node_under_two_axis_orders(self):
        t, (u, _) = twin_matrices()
        keys = oracles.subtree_keys(t)
        cols = {e: keys[t.edge_dst[e]] for e in t.node_children[u]}
        axes = ([0, 1, 2], [2, 1, 0])
        cold = [cold_matrix(t, u, axis, cols) for axis in axes]
        assert cold[0][0] != cold[1][0]
        assert [canon.canonical_matrix(t, u, axis, cols) for axis in axes] == cold

    def test_random_three_player_trees(self, monkeypatch):
        rng = random.Random(10)
        compared = 0
        for _ in range(40):
            t = generators.random_tree(rng, max_nodes=20, n_players=3)
            normal, _ = reduce.normalize(t)
            players = list(t.players)
            renamed = equiv.relabel_tree(
                t, dict(zip(players, rng.sample(players, 3))), {"w1": "w2", "w2": "w1"}
            )
            assert normal.label_cache is t.label_cache is renamed.label_cache
            for forest in ([t], [normal], [renamed]):
                compared += assert_memo_sound(forest, monkeypatch)
        assert compared > 50

    def test_parity_forest(self, systems, monkeypatch):
        forest = tree.build_forest(systems["parity"])
        assert assert_memo_sound(forest, monkeypatch) > 0

    @pytest.mark.parametrize("name", ["trio_matrix_a.json", "trio_matrix_b.json"])
    def test_trio_matrix_fixtures(self, name, monkeypatch):
        t = tree.import_json(fixture_text(name))
        assert assert_memo_sound([t], monkeypatch) > 0


def test_repeats_are_served_from_the_cache(monkeypatch):
    calls = []
    solve = canon._matrix_fingerprint_general

    def counting(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(canon, "_matrix_fingerprint_general", counting)
    t = tree.import_json(fixture_text("trio_matrix_a.json"))
    equiv.canonical_form(t)
    first = len(calls)
    assert first > 0
    equiv.canonical_form(t)
    assert len(calls) == first
    renamed = equiv.relabel_tree(
        t, {"P1": "P3", "P2": "P1", "P3": "P2"}, {"q1": "q4", "q4": "q1"}
    )
    assert equiv.canonical_form(renamed) == equiv.canonical_form(t)
    assert len(calls) == first
