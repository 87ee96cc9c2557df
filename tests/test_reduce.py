"""The four reductions and normalization to a fixed point."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

import generators
from ludokit import canon, core, equiv, reduce, tree
from ludokit.errors import StaleSiteError
from ludokit.reduce import (
    find_bookkeeping_sites,
    find_matrix_redundancy_sites,
    find_single_player_sites,
    find_symmetry_sites,
    normalize,
    reduce_bookkeeping,
    reduce_matrix_redundancy,
    reduce_single_player,
    reduce_symmetry,
)
from ludokit.tree import (
    CHANCE,
    CHANCE_EDGE,
    DECISION_EDGE,
    GameTree,
    STATE,
    TERMINAL,
    decision_matrix,
    validate_tree,
)


def chain_tree(length: int, outcome: str = "w") -> GameTree:
    """A forced chain of `length` state nodes ending in a terminal."""
    t = GameTree(("P", "Q"))
    nodes = [t.add_node(STATE, state=("s%d" % i,)) for i in range(length)]
    leaf = t.add_node(TERMINAL, outcome=outcome)
    t.root = nodes[0]
    for a, b in zip(nodes, nodes[1:] + [leaf]):
        t.add_edge(a, b, DECISION_EDGE, label=frozenset({(("m", None),)}))
    return t


def promote_tree() -> GameTree:
    """Two moves then three promotions, all by the same player."""
    t = GameTree(("P", "Q"))
    root = t.add_node(STATE)
    t.root = root
    for move in ("m1", "m2"):
        mid = t.add_node(STATE)
        t.add_edge(root, mid, DECISION_EDGE, label=frozenset({((move, None),)}))
        for promo in ("pa", "pb", "pc"):
            leaf = t.add_node(TERMINAL, outcome=move + promo)
            t.add_edge(mid, leaf, DECISION_EDGE, label=frozenset({((promo, None),)}))
    return t


class TestBookkeeping:
    def test_case1_chain_collapses_to_leaf(self):
        t = chain_tree(3)
        sites = find_bookkeeping_sites(t)
        assert len(sites) == 1 and sites[0].root == t.root
        reduce_bookkeeping(t, sites[0])
        assert t.node_kind[t.root] == TERMINAL
        assert t.node_outcome[t.root] == "w"

    def test_chance_parent_products(self, swap_pair_right):
        t = swap_pair_right.copy()
        # clear the duplicate-choice redundancies so the forced node is a clean site
        while True:
            sites = find_matrix_redundancy_sites(t)
            if not sites:
                break
            reduce_matrix_redundancy(t, sites[0])
        sites = find_bookkeeping_sites(t)
        assert len(sites) == 1
        reduce_bookkeeping(t, sites[0])
        validate_tree(t)
        chance = t.children(t.root)[0]
        assert t.node_kind[chance] == CHANCE
        probs = sorted(t.edge_prob[e] for e in t.node_children[chance])
        assert probs == [Fraction(1, 3)] * 3  # 1/3 and 2/3*(1/2 each)

    def test_path_probabilities_conserved(self, swap_pair_right):
        form, _ = normalize(swap_pair_right)
        chance = form.children(form.root)[0]
        total = sum(
            (form.edge_prob[e] for e in form.node_children[chance]), Fraction(0)
        )
        assert total == 1

    def test_trivial_root_chance_shape_is_normal(self, ttt):
        # root -> single decision edge -> chance -> ... is already reduced
        s0 = core.initial_states(ttt)[0]
        t = tree.build_tree(ttt, s0, depth_limit=0)
        assert find_bookkeeping_sites(t) == []

    def test_stale_site_rejected(self):
        t = chain_tree(4)
        sites = find_bookkeeping_sites(t)
        reduce_bookkeeping(t, sites[0])
        with pytest.raises(StaleSiteError):
            reduce_bookkeeping(t, sites[0])


class TestSinglePlayer:
    def test_move_then_promote(self):
        t = promote_tree()
        sites = find_single_player_sites(t)
        assert [s.root for s in sites] == [t.root]
        reduce_single_player(t, sites[0])
        validate_tree(t)
        edges = t.node_children[t.root]
        assert len(edges) == 6
        for e in edges:
            (seq,) = t.edge_label[e]
            assert len(seq) == 2  # composite two-step choices
        m = decision_matrix(t, t.root)
        assert len(m.choice_sets[0]) == 6  # P's choices are the sequences
        assert m.choice_sets[1] == (None,)

    def test_depth_one_site_excluded(self, systems):
        t = tree.build_forest(systems["parity"])[0]
        assert find_single_player_sites(t) == []

    def test_other_player_boundary(self):
        # P's chain ending at a Q-owned node: the Q node stays a leaf
        t = GameTree(("P", "Q"))
        root = t.add_node(STATE)
        mid = t.add_node(STATE)
        qnode = t.add_node(STATE)
        z1 = t.add_node(TERMINAL, outcome="a")
        z2 = t.add_node(TERMINAL, outcome="b")
        z3 = t.add_node(TERMINAL, outcome="c")
        t.root = root
        t.add_edge(root, mid, DECISION_EDGE, label=frozenset({(("x", None),)}))
        t.add_edge(root, z3, DECISION_EDGE, label=frozenset({(("y", None),)}))
        t.add_edge(mid, qnode, DECISION_EDGE, label=frozenset({(("z", None),)}))
        t.add_edge(qnode, z1, DECISION_EDGE, label=frozenset({((None, "u"),)}))
        t.add_edge(qnode, z2, DECISION_EDGE, label=frozenset({((None, "v"),)}))
        sites = find_single_player_sites(t)
        assert [s.root for s in sites] == [root]
        reduce_single_player(t, sites[0])
        validate_tree(t)
        # the composite edge reaches the Q node; Q's subtree is intact
        assert sorted(len(t.edge_label[e]) for e in t.node_children[root]) == [1, 1]
        assert any(
            t.node_kind[t.edge_dst[e]] == STATE for e in t.node_children[root]
        )


class TestSymmetry:
    def test_equal_outcome_leaves_merge(self):
        t = GameTree(("P",))
        root = t.add_node(STATE)
        t.root = root
        for d in ("a", "b", "c"):
            leaf = t.add_node(TERMINAL, outcome="draw" if d != "c" else "win")
            t.add_edge(root, leaf, DECISION_EDGE, label=frozenset({((d,),)}))
        sites = find_symmetry_sites(t)
        assert len(sites) == 1
        reduce_symmetry(t, sites[0])
        validate_tree(t)
        labels = sorted(len(t.edge_label[e]) for e in t.node_children[root])
        assert labels == [1, 2]  # the two draw edges merged their tuple sets

    def test_chance_probabilities_add_and_splice(self):
        t = GameTree(("P",))
        root = t.add_node(STATE)
        chance = t.add_node(CHANCE)
        z1 = t.add_node(TERMINAL, outcome="w")
        z2 = t.add_node(TERMINAL, outcome="w")
        t.root = root
        t.add_edge(root, chance, DECISION_EDGE, label=frozenset({(("m",),)}))
        t.add_edge(chance, z1, CHANCE_EDGE, prob=Fraction(1, 2))
        t.add_edge(chance, z2, CHANCE_EDGE, prob=Fraction(1, 2))
        sites = find_symmetry_sites(t)
        assert len(sites) == 1
        reduce_symmetry(t, sites[0])
        validate_tree(t)
        # probability reached 1, so the chance node is spliced out entirely
        (edge,) = t.node_children[root]
        assert t.node_kind[t.edge_dst[edge]] == TERMINAL

    def test_stale_after_subtree_change(self):
        t = GameTree(("P",))
        root = t.add_node(STATE)
        t.root = root
        for d in ("a", "b"):
            leaf = t.add_node(TERMINAL, outcome="draw")
            t.add_edge(root, leaf, DECISION_EDGE, label=frozenset({((d,),)}))
        sites = find_symmetry_sites(t)
        t.node_outcome[t.children(root)[0]] = "win"
        with pytest.raises(StaleSiteError):
            reduce_symmetry(t, sites[0])


class TestMatrixRedundancy:
    def test_trio_redundant_choice_deleted(self, trio_matrix_b):
        t = trio_matrix_b.copy()
        sites = find_matrix_redundancy_sites(t)
        assert [s.root for s in sites] == [t.root]
        reduce_matrix_redundancy(t, sites[0])
        validate_tree(t)
        m = decision_matrix(t, t.root)
        assert sorted(len(cs) for cs in m.choice_sets) == [1, 2, 2]
        assert m.choice_sets[2] == ("c", "d")  # e was redundant with c

    def test_all_distinct_matrix_unchanged(self, systems):
        t = tree.build_forest(systems["parity"])[0]
        assert find_matrix_redundancy_sites(t) == []
        before = tree.export_json(t)
        reduce_matrix_redundancy(t, t.root)
        assert tree.export_json(t) == before

    def test_blank_matrix_after_reduction(self, swap_pair_right):
        t = swap_pair_right.copy()
        while True:
            sites = find_matrix_redundancy_sites(t)
            if not sites:
                break
            reduce_matrix_redundancy(t, sites[0])
        forced = [
            n for n in t.iter_nodes()
            if t.node_kind[n] == STATE and len(t.node_children[n]) == 1
        ]
        assert forced  # the two-choice node collapsed to a blank single-edge matrix
        for n in forced:
            assert decision_matrix(t, n).empty_domain


class TestNormalize:
    def test_swap_pair_right_reaches_left_normal_form(self, swap_pair_left, swap_pair_right):
        left_form, _ = normalize(swap_pair_left)
        right_form, _ = normalize(swap_pair_right)
        assert equiv.equivalent_up_to_relabeling(left_form, right_form) is not None

    def test_input_not_modified(self, swap_pair_right):
        before = tree.export_json(swap_pair_right)
        normalize(swap_pair_right)
        assert tree.export_json(swap_pair_right) == before

    def test_idempotence(self, swap_pair_left, swap_pair_right, systems):
        corpus = [
            swap_pair_left,
            swap_pair_right,
            tree.build_forest(systems["parity"])[0],
            tree.build_forest(systems["mixed_a"])[0],
            chain_tree(4),
            promote_tree(),
        ]
        for t in corpus:
            form, _ = normalize(t)
            again, trace = normalize(form)
            assert trace.steps == []
            assert again.structurally_equal(form)

    def test_no_sites_remain(self, swap_pair_right):
        form, _ = normalize(swap_pair_right)
        assert find_matrix_redundancy_sites(form) == []
        assert find_bookkeeping_sites(form) == []
        assert find_single_player_sites(form) == []
        assert find_symmetry_sites(form) == []

    def test_trace_measure_strictly_decreases(self, swap_pair_right):
        _, trace = normalize(swap_pair_right)
        assert trace.steps
        for step in trace.steps:
            assert (step.nodes_after, step.choices_after) < (
                step.nodes_before,
                step.choices_before,
            )

    def test_trace_json(self, swap_pair_right):
        _, trace = normalize(swap_pair_right)
        doc = json.loads(trace.to_json())
        assert all(set(d) >= {"kind", "root", "nodes_before", "nodes_after"} for d in doc)

    def test_truncation_sites_skipped(self, ttt):
        s0 = core.initial_states(ttt)[0]
        partial = tree.build_tree(ttt, s0, depth_limit=1)
        form, _ = normalize(partial)
        # the frontier survives untouched, and normalize is deterministic
        assert tree.tree_stats(form).truncated_leaves == tree.tree_stats(partial).truncated_leaves
        again, _ = normalize(partial)
        assert again.structurally_equal(form)

    def test_order_robustness_on_corpus(self, swap_pair_left, swap_pair_right, systems):
        corpus = [
            swap_pair_left,
            swap_pair_right,
            tree.build_forest(systems["parity"])[0],
            promote_tree(),
            generators.random_tree(random.Random(42), max_nodes=45),
            generators.random_tree(random.Random(43), max_nodes=45),
        ]
        for t in corpus:
            canonical, _ = normalize(t)
            forms = [normalize(t, shuffle_seed=seed)[0] for seed in range(10)]
            for form in forms:
                assert equiv.equivalent_up_to_relabeling(canonical, form) is not None

    def test_outcome_multiset_preserved_without_symmetry(self):
        # bookkeeping and single-player reductions never touch outcomes
        for builder in (lambda: chain_tree(4, "w"), promote_tree):
            t = builder()
            before = sorted(
                t.node_outcome[n] for n in t.iter_nodes()
                if t.node_kind[n] == TERMINAL
            )
            form, trace = normalize(t)
            assert {s.kind for s in trace.steps} <= {"bookkeeping", "single-player"}
            after = sorted(
                form.node_outcome[n] for n in form.iter_nodes()
                if form.node_kind[n] == TERMINAL
            )
            assert after == before

    def test_generic_engine_matches_fast_engine(self):
        for seed in range(25):
            t = generators.random_tree(random.Random(seed), max_nodes=35)
            fast, _ = normalize(t)
            slow, _ = normalize(t, shuffle_seed=seed * 7 + 1)
            assert equiv.equivalent_up_to_relabeling(fast, slow) is not None


def twin_chance_tree() -> GameTree:
    """Two identical chance nodes, each over two identical matrix subtrees.

    Merging a chance node's twin children reaches probability 1 and splices
    the chance node out, so the first occurrence's finished node is its
    surviving child rather than the chance node itself.
    """
    t = GameTree(("P", "Q"))
    root = t.add_node(STATE, state=("r",))
    t.root = root

    def matrix() -> int:
        s = t.add_node(STATE, state=("s",))
        for i, joint in enumerate([("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]):
            leaf = t.add_node(TERMINAL, outcome="w" if i in (0, 3) else "l")
            t.add_edge(s, leaf, DECISION_EDGE, label=frozenset({(joint,)}))
        return s

    for move in ("m1", "m2"):
        c = t.add_node(CHANCE)
        t.add_edge(root, c, DECISION_EDGE, label=frozenset({((move, None),)}))
        for _ in range(2):
            t.add_edge(c, matrix(), CHANCE_EDGE, prob=Fraction(1, 2))
    leaf = t.add_node(TERMINAL, outcome="x")
    t.add_edge(root, leaf, DECISION_EDGE, label=frozenset({(("m3", None),)}))
    return t


def midgame_tree(system, marks: int) -> GameTree:
    """The full tree below a board with `marks` cells already filled."""
    s = dict(zip((track.name for track in system.tracks), core.initial_states(system)[0]))
    for i, cell in enumerate(["c1", "c2", "c3", "c4", "c5"][:marks]):
        s[cell] = "X" if i % 2 == 0 else "O"
    s["turn"] = "X" if marks % 2 == 0 else "O"
    return tree.build_tree(system, system.state_from_dict(s))


def _step_counts(trace) -> list[tuple]:
    """A trace without its node ids: kind and the four measure counts."""
    return [
        (s.kind, s.nodes_before, s.nodes_after, s.choices_before, s.choices_after)
        for s in trace.steps
    ]


class TestSharing:
    """Normalizing each distinct subtree once and replaying its trace."""

    @pytest.fixture(scope="class")
    def corpus(self, systems):
        trees = [twin_chance_tree(), midgame_tree(systems["tictactoe"], 4)]
        for name in ("tictactoe", "forbidden"):
            trees += tree.build_forest(systems[name], depth_limit=3)
        return trees

    def test_corpus_shares_subtrees(self, corpus):
        for t in corpus:
            ids, _ = reduce._intern(t)
            assert len(set(ids[n] for n in t.iter_nodes())) < t.node_count()

    def test_form_is_a_valid_tree_and_input_untouched(self, corpus):
        for t in corpus:
            before = t.copy()
            form, _ = normalize(t)
            validate_tree(form)  # rejects a node reached twice
            assert t.structurally_equal(before)

    def test_matches_randomized_oracle(self, corpus):
        for t in corpus:
            form, _ = normalize(t)
            oracle, _ = normalize(t, shuffle_seed=5)
            assert canon.canonical_form(form) == canon.canonical_form(oracle)

    def test_trace_matches_unshared_reference(self, corpus, systems, monkeypatch):
        trees = corpus + [midgame_tree(systems["tictactoe"], 3)]
        shared = [normalize(t) for t in trees]
        intern = reduce._intern

        def unshared(t):
            """Every node its own subtree id: the normalizer shares nothing."""
            ids, costs = intern(t)
            return list(range(len(t.node_kind))), [costs[i] for i in ids]

        monkeypatch.setattr(reduce, "_intern", unshared)
        for t, (form, trace) in zip(trees, shared):
            ref_form, ref_trace = normalize(t)
            assert tree.export_json(form) == tree.export_json(ref_form)
            assert _step_counts(trace) == _step_counts(ref_trace)

    def test_first_occurrence_spliced_out(self):
        t = twin_chance_tree()
        form, trace = normalize(t)
        validate_tree(form)
        assert form.node_count() == 5
        # merging the twin matrices removes 3 nodes and splices the chance
        # node out; the second chance node replays the first one's step
        splices = [s for s in trace.steps if s.nodes_before - s.nodes_after == 4]
        assert len(splices) == 2
        assert splices[0].root == splices[1].root
        assert t.node_kind[splices[0].root] == CHANCE
