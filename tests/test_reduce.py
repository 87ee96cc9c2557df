"""The four reductions and normalization to a fixed point."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import generators
import oracles
from conftest import deadline, fixture_path, fixture_text
from ludokit import canon, core, dsl, equiv, reduce, tree
from ludokit.errors import TreeInvariantError
from ludokit.reduce import normalize
from oracles import (
    StaleSiteError,
    find_bookkeeping_sites,
    find_matrix_redundancy_sites,
    find_single_player_sites,
    find_symmetry_sites,
    normalize_random,
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
        meta = tree.node_meta(t, t.root)
        assert meta.sizes[0] == 6  # P's choices are the sequences
        assert meta.choices[1] == frozenset({None})

    def test_depth_one_site_excluded(self, systems):
        t = tree.unfold(tree.build_forest(systems["parity"])[0])
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
        meta = tree.node_meta(t, t.root)
        assert sorted(meta.sizes) == [1, 2, 2]
        assert meta.choices[2] == frozenset({"c", "d"})  # e was redundant with c

    def test_all_distinct_matrix_unchanged(self, systems):
        t = tree.unfold(tree.build_forest(systems["parity"])[0])
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
            assert tree.node_meta(t, n).active == 0


@st.composite
def _matrices(draw):
    """A one-node tree whose decision matrix is total: every joint choice of
    1-3 players with 1-3 choices each maps onto one of its edges, and each
    edge carries at least one joint choice (about a third of the draws one
    each)."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    joints = list(itertools.product(*[[f"c{i}" for i in range(n)] for n in sizes]))
    if draw(st.integers(0, 2)) == 0:
        cells = list(range(len(joints)))
    else:
        drawn = draw(
            st.lists(st.integers(0, len(joints) - 1), min_size=len(joints), max_size=len(joints))
        )
        first: dict[int, int] = {}
        cells = [first.setdefault(c, len(first)) for c in drawn]
    t = GameTree(tuple(f"P{i}" for i in range(len(sizes))))
    t.root = t.add_node(STATE)
    for edge in range(max(cells) + 1):
        label = frozenset((joint,) for joint, c in zip(joints, cells) if c == edge)
        t.add_edge(t.root, t.add_node(TERMINAL, outcome="w"), DECISION_EDGE, label=label)
    return t


class TestPrunedLabels:
    """`reduce._pruned_labels` equals the reference loop, and normalize
    never asks it about a matrix whose every edge carries one joint choice."""

    @settings(max_examples=300, deadline=None)
    @given(_matrices())
    def test_equals_reference_on_random_matrices(self, t):
        meta = tree.node_meta(t, t.root)
        assert reduce._pruned_labels(meta) == oracles.reference_pruned_labels(meta)

    def test_equals_reference_on_every_small_trees_miss(self, monkeypatch):
        """Every cache miss of `_pruned_at` over a small-trees pass (seed 7:
        the agency check of each tree against its relabeling, and both
        canonical forms)."""
        pruned = reduce._pruned_labels
        misses = []

        def checked(meta):
            got = pruned(meta)
            assert got == oracles.reference_pruned_labels(meta)
            misses.append((all(c == 1 for c in meta.counts), got is not None))
            return got

        monkeypatch.setattr(reduce, "_pruned_labels", checked)
        for t, player_map, outcome_map in generators.small_trees_corpus(7):
            renamed = equiv.relabel_tree(t, player_map, outcome_map)
            assert equiv.agency_equivalent(t, renamed) is not None
            assert equiv.canonical_form(t) == equiv.canonical_form(renamed)
        # normalize looks nothing up where every edge carries one joint
        # choice, so no miss takes the early exit (480 of 1,194 misses did
        # when it looked them up); 478 prune something
        assert len(misses) == 714
        assert sum(one_each for one_each, _ in misses) == 0
        assert sum(changed for _, changed in misses) == 478


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
        # The per-site finders refuse shared arenas, and a normal form is one.
        form = tree.unfold(normalize(swap_pair_right)[0])
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
            forms = [normalize_random(t, seed)[0] for seed in range(10)]
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
            slow, _ = normalize_random(t, seed * 7 + 1)
            assert equiv.equivalent_up_to_relabeling(fast, slow) is not None

    @pytest.mark.xfail(
        strict=True,
        reason="single-player absorbs a child only while its children are state or "
        "terminal nodes, and a Case-2 bookkeeping step that fires first makes a "
        "grandchild a chance node, so the normal form depends on rewrite order",
    )
    def test_tree_agency_equivalent_to_its_random_reductions(self):
        # seeds 131 and 154 of the generator above, outside the 25 it runs
        for seed, order in ((131, 1), (154, 2)):
            t = generators.random_tree(random.Random(seed), max_nodes=35)
            reduced, _ = normalize_random(t, order)
            assert equiv.agency_equivalent(t, reduced) is not None


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


def shared_chance_arena(reached_last_first: bool) -> GameTree:
    """A shared arena: three moves lead to one chance node, whose two
    edges both lead to one matrix node.

    Merging the chance node's twin children reaches probability 1 and
    splices it out of the edge the walk reached it by; the other moves'
    edges must then be pointed at the surviving matrix node.  The chance
    node's parent pointer names the move edge added last; the walk reaches
    it first by the last move in the root's child order, which
    `reached_last_first` makes that edge or another one.
    """
    t = GameTree(("P", "Q"))
    root = t.add_node(STATE, state=("r",))
    t.root = root
    s = t.add_node(STATE, state=("s",))
    for i, joint in enumerate([("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]):
        leaf = t.add_node(TERMINAL, outcome="w" if i in (0, 3) else "l")
        t.add_edge(s, leaf, DECISION_EDGE, label=frozenset({(joint,)}))
    c = t.add_node(CHANCE)
    for _ in range(2):
        t.add_edge(c, s, CHANCE_EDGE, prob=Fraction(1, 2))
    for move in ("m1", "m2", "m3"):
        t.add_edge(root, c, DECISION_EDGE, label=frozenset({((move, None),)}))
    if not reached_last_first:
        t.node_children[root].reverse()
    leaf = t.add_node(TERMINAL, outcome="x")
    t.add_edge(root, leaf, DECISION_EDGE, label=frozenset({(("m4", None),)}))
    return t


def midgame_tree(system, marks: int) -> GameTree:
    """The full tree below a board with `marks` cells already filled."""
    s = dict(zip((track.name for track in system.tracks), core.initial_states(system)[0]))
    for i, cell in enumerate(["c1", "c2", "c3", "c4", "c5"][:marks]):
        s[cell] = "X" if i % 2 == 0 else "O"
    s["turn"] = "X" if marks % 2 == 0 else "O"
    return tree.build_tree(system, system.state_from_dict(s))


def _arrays(t: GameTree) -> tuple:
    """Copies of every array of the arena, for array-for-array comparison."""
    return (
        t.players, t.root, list(t.node_kind), list(t.node_state), list(t.node_outcome),
        [list(c) for c in t.node_children], list(t.node_parent_edge), list(t.edge_kind),
        list(t.edge_src), list(t.edge_dst), list(t.edge_prob), list(t.edge_label),
    )


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
            ids, _ = oracles._intern(t)
            assert len(set(ids[n] for n in t.iter_nodes())) < t.node_count()

    def test_form_is_a_valid_tree_and_input_untouched(self, corpus):
        for t in corpus:
            before = t.copy()
            form, _ = normalize(t)
            validate_tree(form)  # checks each arena node once
            validate_tree(tree.unfold(form))
            assert t.structurally_equal(before)

    def test_matches_randomized_oracle(self, corpus):
        for t in corpus:
            form, _ = normalize(t)
            oracle, _ = normalize_random(t, 5)
            assert canon.canonical_form(form) == canon.canonical_form(oracle)

    def test_trace_matches_unshared_reference(self, corpus, systems, monkeypatch):
        trees = corpus + [midgame_tree(systems["tictactoe"], 3)]
        shared = [normalize(t) for t in trees]
        intern = oracles._intern

        def unshared(t):
            """Every node its own subtree id: the normalizer shares nothing."""
            ids, costs = intern(t)
            return list(range(len(t.node_kind))), [costs[i] for i in ids]

        monkeypatch.setattr(oracles, "_intern", unshared)
        for t, (form, trace) in zip(trees, shared):
            ref_form, ref_trace = oracles.normalize_in_place(t)
            assert tree.export_json(form) == tree.export_json(ref_form)
            assert _step_counts(trace) == _step_counts(ref_trace)

    def test_pruned_labels_cache_agrees(self, corpus, monkeypatch):
        cached = reduce._pruned_at
        calls = []

        def checked(t, node):
            got = cached(t, node)
            fresh = reduce._pruned_labels(tree.node_meta(t, node))
            assert got == fresh
            calls.append(got)
            return got

        monkeypatch.setattr(reduce, "_pruned_at", checked)
        for t in corpus:
            normalize(t)
        assert any(got is not None for got in calls) and None in calls

    def test_per_site_api_rejects_shared_arenas(self, systems):
        """Sites name arena nodes, so a shared arena is refused, untouched."""
        t = midgame_tree(systems["tictactoe"], 4)
        assert tree.is_shared(t)
        before = t.copy()
        for find in (
            find_matrix_redundancy_sites,
            find_bookkeeping_sites,
            find_single_player_sites,
            find_symmetry_sites,
        ):
            with pytest.raises(TreeInvariantError):
                find(t)
        for kind, apply in (
            ("matrix-redundancy", reduce_matrix_redundancy),
            ("bookkeeping", reduce_bookkeeping),
            ("single-player", reduce_single_player),
        ):
            with pytest.raises(TreeInvariantError):
                apply(t, oracles.ReductionSite(kind, t.root))
        first, second = t.node_children[t.root][:2]
        with pytest.raises(TreeInvariantError):
            reduce_symmetry(t, oracles.ReductionSite("symmetry", t.root, (second, first)))
        assert t.structurally_equal(before)
        assert find_bookkeeping_sites(tree.unfold(t))

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

    # A built arena is normalized as it is, never unfolded.

    @pytest.fixture(scope="class")
    def arenas(self, systems):
        """Two hand-built arenas, every fixture's depth-3 forest, the full
        parity and mixed_a forests, and the full X-first half of forbidden."""
        trees = [shared_chance_arena(True), shared_chance_arena(False)]
        for name in sorted(systems):
            trees += tree.build_forest(systems[name], depth_limit=3)
        for name in ("parity", "mixed_a"):
            trees += tree.build_forest(systems[name])
        trees.append(midgame_tree(systems["forbidden"], 0))
        return trees

    @pytest.fixture(scope="class")
    def results(self, arenas):
        """Per arena: its arrays before, and (normal form, trace) of the
        arena and of its unfolding."""
        out = []
        for t in arenas:
            before = _arrays(t)
            out.append((before, normalize(t), normalize(tree.unfold(t))))
        return out

    def test_corpus_is_shared(self, arenas):
        # two hand-built arenas, parity (twice), the four tic-tac-toe
        # boards, forbidden (twice)
        assert sum(tree.is_shared(t) for t in arenas) >= 10
        forbidden = arenas[-1]
        assert len(forbidden.node_kind) * 20 < forbidden.node_count()

    def test_same_form_and_steps_as_unfolded_input(self, results):
        for _, (form, trace), (ref_form, ref_trace) in results:
            assert tree.export_json(form) == tree.export_json(ref_form)
            assert _step_counts(trace) == _step_counts(ref_trace)
            validate_tree(form)

    def test_trace_roots_name_input_nodes(self, arenas, results):
        for t, (_, (_, trace), _) in zip(arenas, results):
            for step in trace.steps:
                assert t.node_kind[step.root] in (STATE, CHANCE)

    def test_shared_input_untouched(self, arenas, results):
        for t, (before, _, _) in zip(arenas, results):
            assert _arrays(t) == before

    def test_matches_in_place_oracle(self, arenas):
        """The memoized engine gives the in-place engine's arrays and step
        counts, and writes nothing into its input, `consume` or not."""
        randoms = [
            generators.random_tree(
                random.Random(seed), max_nodes=30 + seed % 50, n_players=2 + seed % 2,
                allow_truncated=seed % 3 == 0,
            )
            for seed in range(300)
        ]
        for t in arenas + randoms:
            before = _arrays(t)
            ref_form, ref_trace = oracles.normalize_in_place(t)
            for consume in (False, True):
                form, trace = normalize(t, consume=consume)
                assert _arrays(tree.unfold(form)) == _arrays(ref_form)
                assert _step_counts(trace) == _step_counts(ref_trace)
                assert _arrays(t) == before

    def test_unfolds_nothing(self, arenas, monkeypatch):
        """`normalize` unfolds nothing: neither its input nor its output."""
        unfolded, interned = [], []
        real_memo = reduce._normal_form

        def refuse_unfold(t):
            unfolded.append(t)
            raise AssertionError("normalize unfolded an arena")

        def counting_memo(t, trace):
            interned.append(len(t.node_kind))
            return real_memo(t, trace)

        monkeypatch.setattr(tree, "unfold", refuse_unfold)
        monkeypatch.setattr(tree, "_unfold", refuse_unfold)
        monkeypatch.setattr(reduce, "_normal_form", counting_memo)
        for t in arenas:
            for consume in (False, True):
                unfolded.clear()
                interned.clear()
                normalize(t.copy() if consume else t, consume=consume)
                assert unfolded == []
                assert interned == [len(t.node_kind)]

    def test_lazy_steps_match_eager_reference(self, systems, monkeypatch):
        """With all sharing off, every step goes through `record`, and the
        tree's own measure, taken as each step is recorded, is the eager
        reference for `steps` and `to_json`.  The arena's steps, replays
        included, have the same counts."""
        trees = [
            twin_chance_tree(),
            midgame_tree(systems["tictactoe"], 4),
            midgame_tree(systems["forbidden"], 4),
            generators.random_tree(random.Random(7), max_nodes=45),
        ]
        shared = [normalize(t)[1] for t in trees]
        intern, fast, record = oracles._intern, oracles._normalize_fast, reduce.ReductionTrace.record
        work: list[GameTree] = []
        measures: list[tuple[int, int]] = []
        eager: list[reduce.TraceStep] = []

        def unshared(t):
            ids, costs = intern(t)
            return list(range(len(t.node_kind))), [costs[i] for i in ids]

        def measured_fast(t, trace):
            work.append(t)
            measures.append(oracles.tree_measure(t))
            return fast(t, trace)

        def eager_record(self, kind, root, dn, dc):
            record(self, kind, root, dn, dc)
            (nodes, choices), after = measures[-1], oracles.tree_measure(work[-1])
            measures.append(after)
            eager.append(reduce.TraceStep(kind, root, nodes, after[0], choices, after[1]))

        monkeypatch.setattr(oracles, "_intern", unshared)
        monkeypatch.setattr(oracles, "_normalize_fast", measured_fast)
        monkeypatch.setattr(reduce.ReductionTrace, "record", eager_record)
        for t, shared_trace in zip(trees, shared):
            eager.clear()
            _, trace = oracles.normalize_in_place(tree.unfold(t))
            assert eager and trace.steps == eager
            assert trace.steps is trace.steps
            assert trace.to_json() == json.dumps(
                [s._asdict() for s in eager], indent=2
            ) + "\n"
            assert _step_counts(shared_trace) == _step_counts(trace)

    def test_non_decreasing_step_raises(self, swap_pair_right, monkeypatch):
        trace = reduce.ReductionTrace((10, 10))
        for dn, dc in ((0, 0), (0, 1), (1, -5)):
            with pytest.raises(AssertionError, match="did not decrease"):
                trace.record("symmetry", 0, dn, dc)
        assert trace.steps == []
        monkeypatch.setattr(reduce, "_matrix_redundancy_at", lambda t, node: True)
        with pytest.raises(AssertionError, match="did not decrease"):
            normalize(swap_pair_right)


class TestNormalizer:
    """One normalizer over an arena of many roots gives each root the form
    `normalize` gives its own tree."""

    @pytest.mark.parametrize("game", ["tictactoe", "forbidden", "endofturn", "mixed_a", "parity"])
    def test_each_root_gets_its_normal_form(self, systems, game):
        system = systems[game]
        pool = sorted(core.reachable_states(system))
        rng = random.Random(len(game))
        roots = [pool[rng.randrange(len(pool))] for _ in range(30)]
        builder = tree.ArenaBuilder(system, 3)
        normalizer = reduce.normalizer(builder.tree)
        for s in roots:
            node = normalizer.form(builder.add_root(s))
            reference = normalize(tree.build_tree(system, s, depth_limit=3))[0]
            assert _arrays(tree.compact(normalizer.out.rooted(node))) == _arrays(reference)


def isomorphic_copy(t: GameTree, rng: random.Random) -> GameTree:
    """A copy of the unshared tree `t` that only an isomorphism relates to
    it: each node's out-edges in shuffled order, each node's choices renamed
    by a permutation per player, and each node a state of its own."""
    dup = GameTree(t.players)

    def copy(v: int) -> int:
        c = dup.add_node(t.node_kind[v], state=("s%d" % len(dup.node_kind),),
                         outcome=t.node_outcome[v])
        edges = list(t.node_children[v])
        rng.shuffle(edges)
        renames = []
        for p in range(len(t.players)):
            names = sorted({
                joint[p] for e in edges for seq in t.edge_label[e] or () for joint in seq
                if joint[p] is not None
            })
            renames.append(dict(zip(names, rng.sample(names, len(names)))))
        for e in edges:
            label = t.edge_label[e]
            if label is not None:
                label = frozenset(
                    tuple(tuple(d if d is None else renames[p][d] for p, d in enumerate(joint))
                          for joint in seq)
                    for seq in label
                )
            dup.add_edge(c, copy(t.edge_dst[e]), t.edge_kind[e], t.edge_prob[e], label)
        return c

    dup.root = copy(t.root)
    return dup


def test_normalization_respects_isomorphism():
    """Trees related by an isomorphism under pinned players and outcomes
    have equal literal keys, and so do their normal forms: the invariant
    that lets similarity match built trees with equal keys unnormalized."""
    for seed in range(300):
        rng = random.Random(seed)
        t = generators.random_tree(rng, n_players=2 + seed // 2 % 2,
                                   allow_truncated=seed % 2 == 1)
        dup = isomorphic_copy(t, rng)
        assert canon.make_key_fn(t)(t.root) == canon.make_key_fn(dup)(dup.root), seed
        nt, ndup = normalize(t)[0], normalize(dup)[0]
        assert canon.make_key_fn(nt)(nt.root) == canon.make_key_fn(ndup)(ndup.root), seed


class TestWorklist:
    """`normalize` reruns after a rewrite only the rewrites it can enable;
    a check it skips could not have fired, so its normal forms and traces
    are those of the in-place oracle, which reruns every check."""

    @staticmethod
    def subtree_form(t: GameTree, node: int) -> str:
        sub = t.copy()
        sub.root = node
        return tree.export_json(normalize(sub)[0])

    def test_symmetry_merge_enables_single_player(self):
        """A merge can clear the collision that blocked an absorb.  P1's
        choices x, x.y and x.y.y lead to w, a copy of w, and a leaf.
        Absorbing w would make x.y (taken by its copy's edge); absorbing
        the copy would make x.y.y (taken by the leaf's edge).  Once the two
        copies merge, matrix redundancy keeps x alone on their edge, and w
        is absorbed in the next round."""
        t = GameTree(("P1", "P2"))
        root = t.root = t.add_node(STATE)
        leaf = t.add_node(TERMINAL, outcome="w3")
        for base in (("x",), ("x", "y")):
            w = t.add_node(STATE)
            seq = tuple((c, None) for c in base)
            t.add_edge(root, w, DECISION_EDGE, label=frozenset({seq}))
            for move, outcome in (("y", "w1"), ("z", "w2")):
                end = t.add_node(TERMINAL, outcome=outcome)
                t.add_edge(w, end, DECISION_EDGE, label=frozenset({((move, None),)}))
        seq = (("x", None), ("y", None), ("y", None))
        t.add_edge(root, leaf, DECISION_EDGE, label=frozenset({seq}))
        form, trace = normalize(t)
        ref_form, ref_trace = oracles.normalize_in_place(t)
        assert [step.kind for step in trace.steps] == [
            "symmetry", "matrix-redundancy", "single-player"
        ]
        assert form.node_count() == 4
        assert tree.export_json(form) == tree.export_json(ref_form)
        assert trace.to_json() == ref_trace.to_json()

    @pytest.mark.parametrize("variant", ["2-player", "3-player", "truncated"])
    def test_exports_and_traces_equal_the_in_place_oracle(self, variant):
        """Export bytes and trace JSON equal the oracle's.  A step's `root`
        names the first input node of its memo key, where the oracle names
        the first of its exact subtree: where the two differ (a handful of
        these trees, as before the worklist), both name input nodes of
        equal normal form."""
        fired = set()
        for seed in range(200):
            t = generators.random_tree(
                random.Random(f"worklist/{variant}/{seed}"),
                max_nodes=30 + seed % 50,
                n_players=3 if variant == "3-player" else 2,
                allow_truncated=variant == "truncated",
            )
            form, trace = normalize(t)
            ref_form, ref_trace = oracles.normalize_in_place(t)
            assert tree.export_json(form) == tree.export_json(ref_form)
            steps, ref_steps = json.loads(trace.to_json()), json.loads(ref_trace.to_json())
            assert len(steps) == len(ref_steps)
            for step, ref in zip(steps, ref_steps):
                root, ref_root = step.pop("root"), ref.pop("root")
                assert step == ref
                if root != ref_root:
                    assert self.subtree_form(t, root) == self.subtree_form(t, ref_root)
            fired.update(step["kind"] for step in steps)
        assert fired == {"matrix-redundancy", "bookkeeping", "single-player", "symmetry"}


class TestWorkCounts:
    """What normalizing the X-first forbidden tree computes, counted: a
    change that recomputes a per-node fact shows here without timing the
    host.  The system is parsed afresh, so its label cache starts cold."""

    def test_x_first_forbidden(self, monkeypatch):
        system = dsl.parse_file(fixture_path("forbidden.game"))
        t = midgame_tree(system, 0)
        counts = {"node_meta": 0, "pruned": 0}
        keyed: list = []
        arenas: list = []
        node_meta, pruned_labels = reduce.node_meta, reduce._pruned_labels
        fill_keys, compact = canon._fill_keys, reduce.compact

        def counted_meta(t, node):
            counts["node_meta"] += 1
            return node_meta(t, node)

        def counted_pruned(meta):
            counts["pruned"] += 1
            return pruned_labels(meta)

        def counted_keys(t, order, memo, *rest):
            order = list(order)
            keyed.extend((id(memo), n) for n in order)
            return fill_keys(t, order, memo, *rest)

        def kept_compact(arena):
            arenas.append(arena)
            return compact(arena)

        monkeypatch.setattr(reduce, "node_meta", counted_meta)
        monkeypatch.setattr(reduce, "_pruned_labels", counted_pruned)
        monkeypatch.setattr(canon, "_fill_keys", counted_keys)
        monkeypatch.setattr(reduce, "compact", kept_compact)
        form, _ = normalize(t)
        assert form.node_count() == 22_404
        # 8,300 calls and 1,413 computations when matrix redundancy looked up
        # matrices whose every edge carries one joint choice
        assert counts == {"node_meta": 7_844, "pruned": 957}
        # each output node is keyed at most once, and only when asked for
        assert len(keyed) == len(set(keyed)) == 3_633 < len(arenas[0].node_kind)

    def test_x_first_forbidden_trace(self):
        """The trace of the tree perfbench's agency-forbidden normalizes (the
        opening coin replaced by X moving first), pinned.  A repeated
        subtree's steps are kept as a span of earlier steps, so 5,835
        recorded steps and 5,156 spans spell all 104,994."""
        coin = "consequence (flip, flip) -> prob 1/2: X_first ; prob 1/2: O_first"
        text = fixture_text("forbidden.game")
        assert text.count(coin) == 1
        system = dsl.parse_game(text.replace(coin, "consequence (flip, flip) -> prob 1: X_first"))
        (t,) = tree.build_forest(system)
        _, trace = normalize(t)
        assert trace.length == len(trace.steps) == 104_994
        assert len(trace._log) == 5_835 + 5_156
        assert hashlib.sha256(trace.to_json().encode()).hexdigest() == (
            "dc7b2205fd295561e8c59633bcc511a608f58adc16f3f674fd8da8c2d0c0492a"
        )


class TestSharedForm:
    """`normalize` returns its hash-consed arena: only reachable nodes,
    numbered as `unfold` numbers them, standing for its unfolding."""

    @pytest.fixture(scope="class")
    def results(self, systems):
        """Per input: (input, normal form, trace) over every fixture's
        depth-3 forest, the full parity and mixed_a forests, X-first
        forbidden and 300 random trees."""
        trees = []
        for name in sorted(systems):
            trees += tree.build_forest(systems[name], depth_limit=3)
        for name in ("parity", "mixed_a"):
            trees += tree.build_forest(systems[name])
        trees.append(midgame_tree(systems["forbidden"], 0))
        trees += [
            generators.random_tree(
                random.Random(seed), max_nodes=30 + seed % 50, n_players=1 + seed % 3,
                allow_truncated=seed % 3 == 0,
            )
            for seed in range(300)
        ]
        return [(t, *normalize(t)) for t in trees]

    def test_every_node_reachable(self, results):
        for _, form, _ in results:
            assert sorted(tree.postorder(form)) == list(range(len(form.node_kind)))
            assert len(form.edge_kind) == sum(len(c) for c in form.node_children)

    def test_exports_are_those_of_the_unfolding(self, results):
        for _, form, _ in results:
            unfolded = tree.unfold(form)
            assert tree.export_json(form) == tree.export_json(unfolded)
            assert tree.export_dot(form) == tree.export_dot(unfolded)

    def test_unshared_form_has_the_unfolded_arrays(self, results):
        shared = 0
        for _, form, _ in results:
            if tree.is_shared(form):
                shared += 1
            else:
                assert _arrays(form) == _arrays(tree.unfold(form))
        assert 100 < shared < len(results) - 100

    def test_node_count_is_the_unfolded_count(self, results):
        for _, form, _ in results:
            assert form.node_count() == len(tree.unfold(form).node_kind)
        forbidden = results[-301][1]
        assert forbidden.node_count() == 22_404
        assert len(forbidden.node_kind) == 2_775

    def test_trace_is_that_of_the_memoized_pass(self, results):
        """The renumbering touches no trace: its steps and `root` ids are
        those `_normal_form` records, and they end at the form's measure."""
        for t, form, trace in results:
            raw = reduce.ReductionTrace()
            reduce._normal_form(t, raw)
            assert trace.to_json() == raw.to_json()
            assert oracles.tree_measure(form) == (
                (trace.steps[-1].nodes_after, trace.steps[-1].choices_after)
                if trace.steps else trace.start
            )

    def test_validate_accepts_sharing_and_rejects_a_cycle(self, systems):
        built = tree.build_forest(systems["parity"])[0]
        assert tree.is_shared(built)
        validate_tree(built)
        with pytest.raises(TreeInvariantError, match="cycle"):
            validate_tree(generators.two_node_cycle())

    def test_normalize_refuses_a_cycle(self):
        """The walk meets a node it has entered but not finished, and
        refuses it at once instead of descending around the cycle."""
        with deadline(1.0), pytest.raises(TreeInvariantError, match="node 0 lies on a cycle"):
            normalize(generators.two_node_cycle())

    def test_import_still_rejects_two_incoming_edges(self):
        doc = {
            "players": ["P"],
            "root": 0,
            "nodes": [
                {"id": 0, "kind": "state"},
                {"id": 1, "kind": "terminal", "outcome": "w"},
            ],
            "edges": [
                {"from": 0, "to": 1, "kind": "decision", "tuples": [[["a"]]]},
                {"from": 0, "to": 1, "kind": "decision", "tuples": [[["b"]]]},
            ],
        }
        with pytest.raises(TreeInvariantError, match="two incoming edges"):
            tree.import_json(json.dumps(doc))
