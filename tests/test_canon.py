"""The matrix solver and its memo in `tree.label_cache`: the pruned solver
agrees with the reference, and the memo is sound and used."""

from __future__ import annotations

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import generators
import oracles
from conftest import PINS, fixture_text
from ludokit import canon, equiv, reduce, tree
from ludokit.errors import TreeInvariantError
from ludokit.tree import CHANCE, CHANCE_EDGE, DECISION_EDGE, GameTree, STATE, TERMINAL

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


# ---------------------------------------------------------------------------
# The pruned solver against the reference solver
# ---------------------------------------------------------------------------


def solve_calls(fn, *args):
    """`fn(*args)` and the number of calls of the solver's inner `solve`."""
    calls = [0]
    where = ("solve", fn.__code__.co_filename)

    def count(frame, event, arg):
        # a trace function sees Python calls only; returning None leaves
        # the called frame untraced
        if (frame.f_code.co_name, frame.f_code.co_filename) == where:
            calls[0] += 1

    previous = sys.gettrace()
    sys.settrace(count)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, calls[0]


PATTERNS = ("random", "single-edge", "diagonal", "latin")
# Axis sizes: 2-3 axes of 1-4 choices.  The reference solver tries up to
# prod(size!) leaves, so shapes above 600 (such as 4x4x2) are left out.
SHAPES = [
    sizes
    for n_axes in (2, 3)
    for sizes in itertools.product(range(1, 5), repeat=n_axes)
    if math.prod(map(math.factorial, sizes)) <= 600
]


@st.composite
def colored_matrices(draw):
    """(cells, choice lists, edge colors) of a total matrix of one of
    `SHAPES` with 1-4 edges, in a shuffled cell order."""
    sizes = draw(st.sampled_from(SHAPES))
    idxs = list(itertools.product(*(range(n) for n in sizes)))
    n_edges = draw(st.integers(1, 4))
    pattern = draw(st.sampled_from(PATTERNS))
    if pattern == "single-edge":
        raw = [0] * len(idxs)
    elif pattern == "diagonal":
        raw = [int(len(set(idx)) == 1) for idx in idxs]
    elif pattern == "latin":
        raw = [sum(idx) % n_edges for idx in idxs]
    else:
        raw = draw(st.lists(st.integers(0, n_edges - 1), min_size=len(idxs), max_size=len(idxs)))
    used = sorted(set(raw))
    epos = {e: i for i, e in enumerate(draw(st.permutations(used)))}
    n_colors = draw(st.integers(1, len(used)))
    edge_cols = [b"c%d" % draw(st.integers(0, n_colors - 1)) for _ in used]
    cells = draw(st.permutations([(idx, epos[e]) for idx, e in zip(idxs, raw)]))
    choice_lists = [["x%d" % i for i in range(n)] for n in sizes]
    return cells, choice_lists, edge_cols


class TestPrunedSolver:
    @settings(max_examples=300, deadline=None)
    @given(colored_matrices())
    def test_agrees_with_the_reference(self, matrix):
        cells, choice_lists, edge_cols = matrix
        got, calls = solve_calls(canon._matrix_fingerprint_general, cells, choice_lists, edge_cols)
        want, ref_calls = solve_calls(
            oracles.reference_matrix_fingerprint, cells, choice_lists, edge_cols
        )
        assert got[:2] == want  # fingerprint and edge order
        assert calls <= ref_calls

    @settings(max_examples=200, deadline=None)
    @given(colored_matrices(), st.randoms(use_true_random=False))
    def test_choice_orders_pair_renumbered_matrices(self, matrix, rnd):
        """A matrix and a copy with its choices and edges renumbered get one
        fingerprint, and the choices of equal rank, axis by axis, carry
        each cell onto the copy's cell on the edge of equal rank."""
        cells, choice_lists, edge_cols = matrix
        perms = [rnd.sample(range(len(c)), len(c)) for c in choice_lists]
        moved = rnd.sample(range(len(edge_cols)), len(edge_cols))
        copy_cells = [(tuple(map(list.__getitem__, perms, idx)), moved[e]) for idx, e in cells]
        copy_cols = [edge_cols[moved.index(e)] for e in range(len(edge_cols))]
        fingerprint, edges, ranks = canon._matrix_fingerprint_general(
            cells, choice_lists, edge_cols
        )
        copy_fingerprint, copy_edges, copy_ranks = canon._matrix_fingerprint_general(
            copy_cells, choice_lists, copy_cols
        )
        assert fingerprint == copy_fingerprint
        assert [sorted(r) for r in ranks] == [list(range(len(c))) for c in choice_lists]
        ranked = [{r: c for c, r in enumerate(rank)} for rank in copy_ranks]
        copy_edge = dict(copy_cells)
        for idx, e in cells:
            image = tuple(ranked[a][ranks[a][c]] for a, c in enumerate(idx))
            assert copy_edges.index(copy_edge[image]) == edges.index(e)

    def test_one_edge_takes_one_call_per_axis(self):
        sizes = (3, 3, 2)
        cells = [(idx, 0) for idx in itertools.product(*(range(n) for n in sizes))]
        choice_lists = [list(range(n)) for n in sizes]
        got, calls = solve_calls(canon._matrix_fingerprint_general, cells, choice_lists, [b"k"])
        assert got[:2] == oracles.reference_matrix_fingerprint(cells, choice_lists, [b"k"])
        assert calls == len(sizes) + 1

    def test_small_trees_corpus(self, monkeypatch):
        """Every solver run of a small-trees pass (seed 7 of the benchmark's
        corpus: agency check, witness check and both canonical forms per
        tree) agrees with the reference, in at most 1,300 `solve` calls."""
        runs = []
        pruned = canon._matrix_fingerprint_general

        def checked(cells, choice_lists, edge_cols):
            got, calls = solve_calls(pruned, cells, choice_lists, edge_cols)
            assert got[:2] == oracles.reference_matrix_fingerprint(cells, choice_lists, edge_cols)
            runs.append(calls)
            return got

        monkeypatch.setattr(canon, "_matrix_fingerprint_general", checked)
        for t, player_map, outcome_map in generators.small_trees_corpus(7):
            renamed = equiv.relabel_tree(t, player_map, outcome_map)
            witness = equiv.agency_equivalent(t, renamed)
            assert witness is not None and not equiv.verify_witness(witness)
            assert equiv.canonical_form(t) == equiv.canonical_form(renamed)
        assert len(runs) == 708
        assert sum(runs) <= 1300


class TestKeyFn:
    """`make_key_fn` keys a node when first asked, from its children's
    keys, keying any unkeyed descendant first."""

    @pytest.mark.parametrize("seed", range(20))
    def test_any_order_gives_the_batch_keys_once(self, seed, systems, monkeypatch):
        rng = random.Random(seed)
        if seed == 0:
            t = tree.build_forest(systems["parity"])[0]
        else:
            t = generators.random_tree(rng, max_nodes=40, n_players=1 + seed % 3)
        expected, _ = keys_for(t, (canon.literal_player_codes(t.players), {}))
        encoded = []
        fill_keys = canon._fill_keys

        def counted(t, order, *rest):
            encoded.extend(order)
            return fill_keys(t, order, *rest)

        monkeypatch.setattr(canon, "_fill_keys", counted)
        key = canon.make_key_fn(t, canon.PIN_SYMMETRY)
        asked = list(expected)
        rng.shuffle(asked)
        assert {n: key(n) for n in asked} == expected
        assert sorted(encoded) == sorted(expected)

    def test_a_cycle_raises(self):
        t = generators.two_node_cycle()
        with pytest.raises(TreeInvariantError, match="cycle"):
            canon.make_key_fn(t, canon.PIN_SYMMETRY)(t.root)


def assert_key_pass_matches_reference(forest: list[GameTree]) -> int:
    """The signatures, and each candidate labeling's keys and out-edge
    orders under every pin regime of PINS, equal the reference key pass's;
    so do `make_key_fn`'s keys where players and outcomes are pinned.
    Returns how many (labeling, tree) key passes were compared."""
    got, want = canon._forest_signatures(forest), oracles.reference_forest_signatures(forest)
    assert got == want
    assert list(got[1]) == list(want[1])  # outcomes in the order first met
    compared = 0
    for pin in PINS:
        pin_states = "states" in pin
        for labeling in canon.assignments_for(forest, pin):
            for t in forest:
                order = tree.postorder(t)
                got_pass: tuple[dict, dict] = ({}, {})
                want_pass: tuple[dict, dict] = ({}, {})
                canon._fill_keys(t, order, *got_pass, *canon._labeling(t, *labeling), pin_states)
                oracles.reference_fill_keys(
                    t, order, *want_pass, *oracles.reference_labeling(t, *labeling), pin_states
                )
                assert got_pass == want_pass
                compared += 1
        if "players" in pin and "outcomes" in pin:
            for t in forest:
                want_keys: dict[int, bytes] = {}
                literal = oracles.reference_labeling(t, canon.literal_player_codes(t.players), {})
                oracles.reference_fill_keys(
                    t, tree.postorder(t), want_keys, {}, *literal, pin_states
                )
                key = canon.make_key_fn(t, pin)
                assert {n: key(n) for n in want_keys} == want_keys
    return compared


def two_depth_arena() -> GameTree:
    """A shared state node reached at depth 1 and, through a chance node on
    one path only, at depth 2; so are the terminals below it."""
    t = GameTree(("P", "Q"))
    t.root = t.add_node(STATE)
    coin = t.add_node(CHANCE)
    shared = t.add_node(STATE, state="shared")
    t.add_edge(t.root, coin, DECISION_EDGE, label=frozenset({(("a", None),)}))
    t.add_edge(t.root, shared, DECISION_EDGE, label=frozenset({(("b", None),)}))
    t.add_edge(coin, shared, CHANCE_EDGE, prob=Fraction(1, 3))
    t.add_edge(coin, t.add_node(TERMINAL, outcome="l"), CHANCE_EDGE, prob=Fraction(2, 3))
    for choice, outcome in (("c", "w"), ("d", "l"), ("e", "w")):
        leaf = t.add_node(TERMINAL, outcome=outcome)
        t.add_edge(shared, leaf, DECISION_EDGE, label=frozenset({((None, choice),)}))
    tree.validate_tree(t)
    return t


class TestKeyPassAgainstReference:
    """The flat signature walk and the key pass with per-labeling constants
    give the bytes of the reference key pass in `oracles`."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_trees_and_normal_forms(self, seed):
        rng = random.Random(seed)
        t = generators.random_tree(
            rng, max_nodes=30, n_players=rng.choice((1, 2, 3)), allow_truncated=True
        )
        assert assert_key_pass_matches_reference([t]) > 0
        assert assert_key_pass_matches_reference([reduce.normalize(t)[0]]) > 0

    @pytest.mark.parametrize(
        "name", ["tictactoe", "3to15", "misere", "perturbed", "endofturn", "mixed_a", "mixed_b"]
    )
    def test_depth3_fixture_forests(self, systems, name):
        forest = tree.build_forest(systems[name], depth_limit=3)
        assert assert_key_pass_matches_reference(forest) > 0

    def test_node_reached_at_two_depths(self):
        t = two_depth_arena()
        p_sigs, o_sigs, kinds, probs = canon._forest_signatures([t])
        # the shared node's leaves count at depths 2 and 3, the coin's at 2
        assert o_sigs == {"l": b"[(2, 2), (3, 1)]", "w": b"[(2, 2), (3, 2)]"}
        assert probs == {Fraction(1, 3): 1, Fraction(2, 3): 1}
        assert assert_key_pass_matches_reference([t]) > 0
