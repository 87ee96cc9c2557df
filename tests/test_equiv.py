"""Equivalence predicates, witnesses, canonical forms."""

from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction

import pytest

import generators
import oracles
from ludokit import core, equiv, reduce, tree
from ludokit.equiv import (
    agency_equivalent,
    canonical_form,
    compose_witnesses,
    equivalent_up_to_relabeling,
    invert_witness,
    match_matrices,
    strip,
    structural_correspondences,
    structurally_equivalent,
    verify_witness,
)
from ludokit.tree import (
    CHANCE,
    CHANCE_EDGE,
    DECISION_EDGE,
    GameTree,
    STATE,
    TERMINAL,
    decision_matrix,
)


def path_tree(outcomes: list[str]) -> GameTree:
    t = GameTree(("P",))
    prev = t.add_node(STATE)
    t.root = prev
    for i, outcome in enumerate(outcomes):
        if i == len(outcomes) - 1:
            node = t.add_node(TERMINAL, outcome=outcome)
        else:
            node = t.add_node(STATE)
        t.add_edge(prev, node, DECISION_EDGE, label=frozenset({((f"d{i}",),)}))
        prev = node
    return t


def star_tree(outcomes: list[str]) -> GameTree:
    t = GameTree(("P",))
    root = t.add_node(STATE)
    t.root = root
    for i, outcome in enumerate(outcomes):
        leaf = t.add_node(TERMINAL, outcome=outcome)
        t.add_edge(root, leaf, DECISION_EDGE, label=frozenset({((f"d{i}",),)}))
    return t


class TestStrip:
    def test_same_game_same_skeleton(self, systems):
        a = tree.build_tree(systems["tictactoe"], core.initial_states(systems["tictactoe"])[0], depth_limit=2)
        b = tree.build_tree(systems["3to15"], core.initial_states(systems["3to15"])[0], depth_limit=2)
        assert strip(a) == strip(b)
        assert structurally_equivalent(a, b)

    def test_different_leaf_counts_differ(self):
        assert strip(star_tree(["w", "w"])) != strip(star_tree(["w", "w", "w"]))

    def test_single_node_skeleton(self):
        t = GameTree(("P",))
        t.root = t.add_node(TERMINAL, outcome="w")
        assert strip(t).node_count == 1

    def test_kinds_not_retained(self):
        # a chance fan and a decision fan strip to the same shape
        chance = GameTree(("P",))
        root = chance.add_node(STATE)
        cn = chance.add_node(CHANCE)
        chance.root = root
        chance.add_edge(root, cn, DECISION_EDGE, label=frozenset({(("m",),)}))
        for _ in range(2):
            leaf = chance.add_node(TERMINAL, outcome="w")
            chance.add_edge(cn, leaf, CHANCE_EDGE, prob=Fraction(1, 2))
        plain = path_tree(["w"])
        mid = plain  # root->leaf
        fan = star_tree(["a", "b"])
        deep = GameTree(("P",))
        r = deep.add_node(STATE)
        m = deep.add_node(STATE)
        deep.root = r
        deep.add_edge(r, m, DECISION_EDGE, label=frozenset({(("m",),)}))
        for d in ("x", "y"):
            leaf = deep.add_node(TERMINAL, outcome="w")
            deep.add_edge(m, leaf, DECISION_EDGE, label=frozenset({((d,),)}))
        assert strip(chance) == strip(deep)


class TestStructuralCorrespondences:
    def test_path_unique(self):
        maps = list(structural_correspondences(path_tree(["w"] * 3), path_tree(["x"] * 3)))
        assert len(maps) == 1

    def test_symmetric_star(self):
        maps = list(structural_correspondences(star_tree(["a", "b"]), star_tree(["c", "d"])))
        assert len(maps) == 2

    def test_swap_pair_correspondence_exists(self, swap_pair_left, swap_pair_right):
        maps = structural_correspondences(swap_pair_left, swap_pair_right)
        first = next(maps, None)
        assert first is not None
        assert first[swap_pair_left.root] == swap_pair_right.root

    def test_mismatch_empty(self):
        maps = list(structural_correspondences(star_tree(["a"]), star_tree(["a", "b"])))
        assert maps == []

    def test_maps_are_isomorphisms(self):
        a = star_tree(["a", "a", "b"])
        b = star_tree(["x", "y", "z"])
        for f in structural_correspondences(a, b):
            assert len(set(f.values())) == len(f) == a.node_count()
            for n in a.iter_nodes():
                for e in a.node_children[n]:
                    child = a.edge_dst[e]
                    assert b.parent(f[child]) == f[n]


class TestMatchMatrices:
    def test_trio_matrix_pure_renaming(self, trio_matrix_a, trio_matrix_b):
        ma = decision_matrix(trio_matrix_a, trio_matrix_a.root)
        mb = decision_matrix(trio_matrix_b, trio_matrix_b.root)
        identity = {p: p for p in trio_matrix_a.players}
        lam = match_matrices(ma, mb, identity)
        assert lam is not None
        assert sorted(len(m) for m in lam.values()) == [1, 2, 3]

    def test_swap_pair_matrix_verdicts(self, swap_pair_left, swap_pair_right):
        swap = {"P1": "p2", "P2": "p1"}
        nodes_l = {"A": 0, "B": 3, "D": 5, "C": 9}
        nodes_r = {"A": 0, "B": 3, "D": 5, "C": 9}
        def matrix(t, n):
            return decision_matrix(t, n)
        assert match_matrices(matrix(swap_pair_left, nodes_l["A"]), matrix(swap_pair_right, nodes_r["A"]), swap) is not None
        assert match_matrices(matrix(swap_pair_left, nodes_l["C"]), matrix(swap_pair_right, nodes_r["C"]), swap) is not None
        assert match_matrices(matrix(swap_pair_left, nodes_l["B"]), matrix(swap_pair_right, nodes_r["B"]), swap) is None
        assert match_matrices(matrix(swap_pair_left, nodes_l["D"]), matrix(swap_pair_right, nodes_r["D"]), swap) is None

    def test_empty_domain_matrices_match(self, swap_pair_left):
        m = decision_matrix(swap_pair_left, 3)  # the blank B matrix
        assert m.empty_domain
        swapped = dataclasses.replace(m)
        assert match_matrices(m, swapped, {"P1": "P1", "P2": "P2"}) is not None

    def test_size_mismatch_fails(self, trio_matrix_a, swap_pair_left):
        ma = decision_matrix(trio_matrix_a, trio_matrix_a.root)
        mb = decision_matrix(swap_pair_left, swap_pair_left.root)
        assert match_matrices(ma, mb, {"P1": "P1", "P2": "P2", "P3": "P2"}) is None


def rename_system(sys, decision_map=None, value_map=None, outcome_map=None):
    """Apply bijective renamings to decisions, track values, and outcomes."""
    decision_map = decision_map or {}
    value_map = value_map or {}
    outcome_map = outcome_map or {}

    def d(name):
        return decision_map.get(name, name)

    def v(track, name):
        return value_map.get((track, name), name)

    def o(name):
        return outcome_map.get(name, name)

    def expr(e):
        if isinstance(e, core.Lit):
            return core.Lit(e.track, v(e.track, e.value))
        if isinstance(e, core.Not):
            return core.Not(expr(e.operand))
        if isinstance(e, core.And):
            return core.And(tuple(expr(p) for p in e.parts))
        if isinstance(e, core.Or):
            return core.Or(tuple(expr(p) for p in e.parts))
        return e

    tracks = tuple(
        core.TrackSpec(t.name, tuple(v(t.name, val) for val in t.values))
        for t in sys.tracks
    )
    actions = {
        name: core.ActionDef(
            name,
            tuple(
                core.ActionClause(
                    None if c.guard is None else expr(c.guard),
                    tuple((tr, v(tr, val)) for tr, val in c.assignments),
                )
                for c in a.clauses
            ),
        )
        for name, a in sys.actions.items()
    }
    cons = tuple(
        core.ConsequenceRule(
            tuple(
                e if e in (None, core.WILDCARD) else d(e) for e in r.pattern
            ),
            None if r.guard is None else expr(r.guard),
            r.results,
        )
        for r in sys.consequence_rules
    )
    legal = tuple(
        core.LegalityRule(r.player, d(r.decision), expr(r.region))
        for r in sys.legality_rules
    )
    return dataclasses.replace(
        sys,
        tracks=tracks,
        init=expr(sys.init),
        decisions=tuple(d(x) for x in sys.decisions),
        actions=actions,
        consequence_rules=cons,
        legality_rules=legal,
        outcomes=tuple(o(x) for x in sys.outcomes),
        outcome_rules=tuple(
            core.OutcomeRule(expr(r.region), o(r.outcome)) for r in sys.outcome_rules
        ),
        default_outcome=o(sys.default_outcome),
        named_sets={k: expr(e) for k, e in sys.named_sets.items()},
    )


class TestEquivalentUpToRelabeling:
    def test_signatures_computed_once_per_forest(self, systems, monkeypatch):
        from ludokit import canon

        a = tree.build_forest(systems["tictactoe"], depth_limit=2)
        b = tree.build_forest(systems["3to15"], depth_limit=2)
        walked = []
        signatures = canon._forest_signatures
        monkeypatch.setattr(
            canon, "_forest_signatures", lambda forest: walked.append(forest) or signatures(forest)
        )
        assert equivalent_up_to_relabeling(a, b) is not None
        assert walked == [a, b]

    def test_labeling_limit_is_a_ludokit_error(self):
        from ludokit import LabelingLimitError, LudokitError

        nine = star_tree([f"o{i}" for i in range(9)])
        with pytest.raises(LabelingLimitError) as excinfo:
            equivalent_up_to_relabeling(nine, nine)
        assert isinstance(excinfo.value, LudokitError)
        assert "1 x 362880" in str(excinfo.value)
        # pinned outcomes leave no symmetric labelings to try
        assert equivalent_up_to_relabeling(nine, nine, pin={"outcomes"}) is not None

    def test_reflexive_with_full_pin(self, swap_pair_left):
        w = equivalent_up_to_relabeling(
            swap_pair_left, swap_pair_left, pin={"players", "outcomes", "states"}
        )
        assert w is not None
        assert verify_witness(w, pin={"players", "outcomes", "states"}) == []

    def test_depth_limited_tictactoe_vs_3to15(self, systems):
        a = tree.build_tree(systems["tictactoe"], core.initial_states(systems["tictactoe"])[0], depth_limit=2)
        b = tree.build_tree(systems["3to15"], core.initial_states(systems["3to15"])[0], depth_limit=2)
        w = equivalent_up_to_relabeling(a, b)
        assert w is not None
        assert verify_witness(w) == []
        # pinning players still succeeds: the identity map works
        assert equivalent_up_to_relabeling(a, b, pin={"players"}) is not None

    def test_probability_perturbation_breaks_equivalence(self, swap_pair_left):
        t = swap_pair_left.copy()
        for e in range(len(t.edge_prob)):
            if t.edge_prob[e] == Fraction(1, 3):
                t.edge_prob[e] = Fraction(333, 1000)
            elif t.edge_prob[e] == Fraction(2, 3):
                t.edge_prob[e] = Fraction(667, 1000)
        assert equivalent_up_to_relabeling(swap_pair_left, t) is None

    def test_systematic_renaming_insensitivity(self, systems):
        sys = systems["tictactoe"]
        renamed = rename_system(
            sys,
            decision_map={str(i): f"cell{i}" for i in range(1, 10)},
            value_map={(f"c{i}", "e"): "blank" for i in range(1, 10)},
            outcome_map={"X_wins": "first_wins", "O_wins": "second_wins"},
        )
        assert core.validate_system(renamed) == []
        a = tree.build_tree(sys, core.initial_states(sys)[0], depth_limit=2)
        b = tree.build_tree(renamed, core.initial_states(renamed)[0], depth_limit=2)
        w = equivalent_up_to_relabeling(a, b)
        assert w is not None and verify_witness(w) == []
        # identity renaming gives plain equivalence (all label classes pinned)
        c = tree.build_tree(sys, core.initial_states(sys)[0], depth_limit=2)
        w2 = equivalent_up_to_relabeling(a, c, pin={"players", "outcomes", "states"})
        assert w2 is not None and verify_witness(w2, pin={"players", "outcomes", "states"}) == []

    def test_forest_multiplicity(self, systems):
        forest_a = tree.build_forest(systems["mixed_a"])
        assert equivalent_up_to_relabeling(forest_a, forest_a[:3]) is None
        w = equivalent_up_to_relabeling(forest_a, list(reversed(forest_a)))
        assert w is not None and verify_witness(w) == []

    def test_duplicate_trees_must_pair(self):
        # two copies of one tree vs two different trees sharing shape
        a1 = star_tree(["x", "x"])
        a2 = star_tree(["x", "x"])
        b1 = star_tree(["x", "x"])
        b2 = star_tree(["x", "y"])
        assert equivalent_up_to_relabeling([a1, a2], [b1, b1.copy()]) is not None
        assert equivalent_up_to_relabeling([a1, a2], [b1, b2]) is None

    def test_truncated_pairs_with_truncated_only(self, ttt):
        s0 = core.initial_states(ttt)[0]
        partial = tree.build_tree(ttt, s0, depth_limit=2)
        partial2 = tree.build_tree(ttt, s0, depth_limit=2)
        w = equivalent_up_to_relabeling(partial, partial2)
        assert w is not None and verify_witness(w) == []
        deeper = tree.build_tree(ttt, s0, depth_limit=3)
        assert equivalent_up_to_relabeling(partial, deeper) is None

    def test_player_count_mismatch(self, trio_matrix_a, swap_pair_left):
        assert equivalent_up_to_relabeling(trio_matrix_a, swap_pair_left) is None


class TestAgency:
    def test_swap_pair_agency_with_swapped_players(self, swap_pair_left, swap_pair_right):
        w = agency_equivalent(swap_pair_left, swap_pair_right)
        assert w is not None
        assert w.player_map == {"P1": "p2", "P2": "p1"}
        assert verify_witness(w) == []

    def test_not_agency_equivalent_before_vs_smaller(self, swap_pair_left):
        assert agency_equivalent(swap_pair_left, star_tree(["a", "b"])) is None

    def test_mixed_pair_not_equivalent(self, systems):
        assert agency_equivalent(systems["mixed_a"], systems["mixed_b"]) is None


class TestWitnessMachinery:
    def test_witness_json(self, swap_pair_left, swap_pair_right):
        w = agency_equivalent(swap_pair_left, swap_pair_right)
        doc = json.loads(w.to_json())
        assert doc["players"] == {"P1": "p2", "P2": "p1"}
        assert doc["trees"][0]["nodes"]
        assert doc["trees"][0]["choices"]

    def test_inverted_witness_verifies(self, swap_pair_left, swap_pair_right):
        w = agency_equivalent(swap_pair_left, swap_pair_right)
        assert verify_witness(invert_witness(w)) == []

    def test_composed_witness_verifies(self, swap_pair_left, swap_pair_right):
        w1 = agency_equivalent(swap_pair_left, swap_pair_right)
        w2 = agency_equivalent(swap_pair_right, swap_pair_left)
        # compose across the shared middle normal forms
        w2b = equivalent_up_to_relabeling(w1.right_forest, w2.right_forest)
        composed = compose_witnesses(w1, w2b)
        assert verify_witness(composed) == []

    def test_corrupted_witness_detected(self, swap_pair_left, swap_pair_right):
        w = agency_equivalent(swap_pair_left, swap_pair_right)
        pair = w.pairs[0]
        nodes = list(pair.node_map)
        terminals = [
            n for n in nodes
            if w.left_forest[0].node_kind[n] == TERMINAL
        ]
        a, b = terminals[0], terminals[1]
        pair.node_map[a], pair.node_map[b] = pair.node_map[b], pair.node_map[a]
        assert verify_witness(w) != []


class TestCanonicalForm:
    def test_keys_stable_across_serialization(self, swap_pair_left):
        again = tree.import_json(tree.export_json(swap_pair_left))
        assert canonical_form(swap_pair_left).digest == canonical_form(again).digest

    def test_pin_flags_change_keys(self, systems):
        forest = tree.build_forest(systems["parity"])
        assert canonical_form(forest).digest != canonical_form(
            forest, pin={"players", "outcomes"}
        ).digest or True  # keys may coincide only by chance; just exercise

    def test_agreement_with_witness_search_random(self):
        rng = random.Random(2024)
        for trial in range(120):
            a = generators.random_tree(rng, max_nodes=28)
            if trial % 3 == 0:
                b = a.copy()
            elif trial % 3 == 1:
                b = generators.random_tree(rng, max_nodes=28)
            else:
                b, _ = reduce.normalize(a)
            key_equal = canonical_form(a).digest == canonical_form(b).digest
            witness = equivalent_up_to_relabeling(a, b)
            assert key_equal == (witness is not None)
            if witness is not None:
                assert verify_witness(witness) == []

    def test_opening_subtree_keys_match_witness_search(self, ttt):
        # corner openings are pairwise equivalent (players and outcomes
        # identical); corner vs center openings are not
        def after(cell):
            return tree.build_tree(
                ttt,
                ttt.state_from_dict(
                    {"turn": "O", f"c{cell}": "X",
                     **{f"c{i}": "e" for i in range(1, 10) if i != cell}}
                ),
            )

        corner1, corner3, center = after(1), after(3), after(5)
        pin = {"players", "outcomes"}
        k1 = canonical_form(corner1, pin=pin).digest
        k3 = canonical_form(corner3, pin=pin).digest
        k5 = canonical_form(center, pin=pin).digest
        assert k1 == k3 and k1 != k5
        w = equivalent_up_to_relabeling(corner1, corner3, pin=pin)
        assert w is not None and verify_witness(w, pin=pin) == []
        assert equivalent_up_to_relabeling(corner1, center, pin=pin) is None

    def test_agreement_with_brute_force(self):
        rng = random.Random(7)
        checked_equal = 0
        for trial in range(60):
            a = generators.random_tree(rng, max_nodes=16, n_players=2)
            if trial % 2 == 0:
                b = a.copy()
            else:
                b = generators.random_tree(rng, max_nodes=16, n_players=2)
            for pin in (frozenset(), frozenset({"players"}), frozenset({"outcomes"})):
                expected = oracles.brute_equivalent(a, b, pin)
                got = equivalent_up_to_relabeling(a, b, pin=pin) is not None
                assert got == expected, f"trial {trial} pin {sorted(pin)}"
                checked_equal += got
        assert checked_equal > 20  # both verdicts exercised


class TestMatchCandidates:
    """`equiv._candidates` groups right choices by profile; the candidate lists
    must equal those of recomputing every profile per left choice."""

    def state_pairs(self, witness):
        for pair in witness.pairs:
            lt = witness.left_forest[pair.left_index]
            rt = witness.right_forest[pair.right_index]
            for u, v in sorted(pair.node_map.items()):
                if lt.node_kind[u] == STATE and lt.node_children[u]:
                    yield lt, rt, u, v, pair.node_map

    def assert_candidates_agree(self, witness, rng) -> int:
        checked = 0
        for lt, rt, u, v, node_map in self.state_pairs(witness):
            lm, rm = decision_matrix(lt, u), decision_matrix(rt, v)
            rindex = {p: i for i, p in enumerate(rm.players)}
            order = [(i, rindex[witness.player_map[p]]) for i, p in enumerate(lm.players)]
            edge_map = equiv._induced_edge_map(lt, rt, node_map, u, v)
            right_edges = list(edge_map.values())
            rng.shuffle(right_edges)
            scrambled = dict(zip(edge_map, right_edges))
            for em in (None, edge_map, scrambled):
                assert equiv._candidates(lm, rm, order, em) == oracles.match_candidates(
                    lm, rm, order, em
                )
            checked += 1
        return checked

    def test_random_trees_and_normal_forms(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(80):
            a = generators.random_tree(rng, max_nodes=30, n_players=rng.choice((2, 3)))
            b, _ = reduce.normalize(a)
            for left, right in ((a, a.copy()), (b, b.copy())):
                w = equivalent_up_to_relabeling(left, right)
                checked += self.assert_candidates_agree(w, rng)
        assert checked > 500

    def test_tictactoe_against_3to15(self, systems):
        forests = [tree.build_forest(systems[g], depth_limit=3) for g in ("tictactoe", "3to15")]
        w = equivalent_up_to_relabeling(*forests)
        assert self.assert_candidates_agree(w, random.Random(3)) > 50
        assert verify_witness(w) == []
