"""Equivalence predicates, witnesses, canonical forms."""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import generators
import oracles
from conftest import PINS, deadline
from ludokit import canon, core, equiv, reduce, tree
from ludokit.equiv import (
    agency_equivalent,
    canonical_form,
    compose_witnesses,
    equivalent_up_to_relabeling,
    invert_witness,
    strip,
    structural_correspondences,
    structurally_equivalent,
    verify_witness,
)
from ludokit.errors import TreeInvariantError
from ludokit.tree import (
    CHANCE,
    CHANCE_EDGE,
    DECISION_EDGE,
    GameTree,
    STATE,
    TERMINAL,
)


def set_child_pair(pair, link, i, child_pair) -> None:
    """Replace the i-th child pair of a related pair of a witness."""
    pairing = list(pair.links[link])
    pairing[i] = child_pair
    pair.links[link] = tuple(pairing)


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


def binary_tree(depth: int) -> GameTree:
    """P picks left or right `depth` times; every leaf is outcome w."""
    t = GameTree(("P",))
    t.root = t.add_node(STATE)
    frontier = [t.root]
    for level in range(depth):
        kind = STATE if level < depth - 1 else TERMINAL
        grown = []
        for node in frontier:
            for d in ("l", "r"):
                child = t.add_node(kind, outcome=None if kind == STATE else "w")
                t.add_edge(node, child, DECISION_EDGE, label=frozenset({((d,),)}))
                grown.append(child)
        frontier = grown
    return t


class TestStrip:
    def test_same_game_same_skeleton(self, systems):
        a = tree.build_tree(systems["tictactoe"], core.initial_states(systems["tictactoe"])[0], depth_limit=2)
        b = tree.build_tree(systems["3to15"], core.initial_states(systems["3to15"])[0], depth_limit=2)
        assert strip(a) == strip(b)
        assert structurally_equivalent(a, b)

    def test_forests_pair_members_in_any_order(self):
        path, star, deep = path_tree(["w", "w"]), star_tree(["a", "b"]), binary_tree(2)
        assert structurally_equivalent([path, star], [star_tree(["x", "y"]), path_tree(["z"] * 2)])
        assert not structurally_equivalent([path, star], [star, deep])
        assert not structurally_equivalent([path, star], [star])

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

    def test_binary_tree_map_count(self):
        # every one of the 3 inner nodes may swap its two children
        maps = list(structural_correspondences(binary_tree(2), binary_tree(2)))
        assert len(maps) == 8
        assert len({tuple(sorted(f.items())) for f in maps}) == 8

    def test_first_map_is_lazy(self):
        """2^127 maps relate the depth-7 tree to itself; the first comes
        without the others being made."""
        t = binary_tree(7)
        with deadline(5.0):
            first = next(structural_correspondences(t, t))
        assert len(set(first.values())) == len(first) == t.node_count() == 255

    def test_swap_pair_correspondence_exists(self, swap_pair_left, swap_pair_right):
        maps = structural_correspondences(swap_pair_left, swap_pair_right)
        first = next(maps, None)
        assert first is not None
        assert first[swap_pair_left.root] == swap_pair_right.root

    def test_mismatch_empty(self):
        maps = list(structural_correspondences(star_tree(["a"]), star_tree(["a", "b"])))
        assert maps == []

    def test_shared_arena_rejected(self, systems):
        built = tree.build_forest(systems["parity"])[0]
        assert tree.is_shared(built)
        plain = tree.unfold(built)
        for left, right in ((built, plain), (plain, built)):
            with pytest.raises(TreeInvariantError):
                structural_correspondences(left, right)
        f = next(structural_correspondences(plain, plain))
        assert len(set(f.values())) == len(f) == built.node_count()

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
    """Whether two decision matrices match, asked of whole trees."""

    def test_trio_matrix_pure_renaming(self, trio_matrix_a, trio_matrix_b):
        w = equivalent_up_to_relabeling(trio_matrix_a, trio_matrix_b, pin={"players"})
        assert w is not None and verify_witness(w, pin={"players"}) == []
        maps = w.choice_maps(w.pairs[0], trio_matrix_a.root, trio_matrix_b.root)
        assert sorted(len(m) for m in maps.values()) == [1, 2, 3]

    def test_swap_pair_matrix_verdicts(self, swap_pair_left, swap_pair_right):
        """The two trees have one shape and one node numbering.  Relating
        each node to its namesake under the player swap, the matrices at A
        (node 0) and C (node 9) match, and those at B (node 3) and D
        (node 5) do not."""
        left, right = swap_pair_left, swap_pair_right
        links = {}
        for n in left.iter_nodes():
            image = {right.edge_dst[e]: e for e in right.node_children[n]}
            links[(n, n)] = tuple((e, image[left.edge_dst[e]]) for e in left.node_children[n])
        w = equiv.EquivalenceWitness(
            {"P1": "p2", "P2": "p1"},
            {f"o{i}": f"w{i}" for i in (1, 2, 3)},
            [equiv.TreePairWitness(0, 0, links)],
            [left],
            [right],
        )
        assert verify_witness(w) == [
            "node 3: decision matrices do not match",
            "node 5: decision matrices do not match",
        ]

    def test_empty_domain_matrices_match(self, swap_pair_left):
        t = swap_pair_left
        w = equivalent_up_to_relabeling(t, t.copy())
        assert verify_witness(w) == []
        assert tree.node_meta(t, 3).active == 0  # the blank B matrix
        assert w.choice_maps(w.pairs[0], 3, 3) == {"P1": {None: None}, "P2": {"m": "m"}}

    def test_size_mismatch_fails(self, trio_matrix_a):
        """Relating the trio matrix to itself with P1 (2 choices) and P3
        (3 choices) swapped is reported."""
        t = trio_matrix_a
        w = equivalent_up_to_relabeling(t, t.copy())
        w.player_map = {"P1": "P3", "P2": "P2", "P3": "P1"}
        assert verify_witness(w) == [f"node {t.root}: decision matrices do not match"]


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
    return sys._replace(
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
        lt = w.left_forest[0]
        # swap the images of two terminals: the right edges of their child pairs
        spots = [
            (link, i)
            for link, pairing in pair.links.items()
            for i, (e, _) in enumerate(pairing)
            if lt.node_kind[lt.edge_dst[e]] == TERMINAL
        ]
        (a, i), (b, j) = spots[0], spots[1]
        (ea, ra), (eb, rb) = pair.links[a][i], pair.links[b][j]
        set_child_pair(pair, a, i, (ea, rb))
        set_child_pair(pair, b, j, (eb, ra))
        assert verify_witness(w) != []


# sha256 of `to_json()` on depth-3 forests; the witness bytes are an export
# format, so a change of the key pass or of the walk must keep them.
WITNESS_DIGESTS = [
    ("tictactoe", "3to15", "relabel",
     "ab95973523e56449368268965f574defd8be22bdb9a3ec11d73be1bd93e5841e"),
    ("mixed_a", "mixed_a", "relabel",
     "7d51a1f33ec6161438cc250c24d0e1b98e0c106dcfaa705776f459f418c01e60"),
    ("mixed_a", "mixed_a", "agency",
     "9379ce3b995d76c6a787a0f1c321860268e872de6eb030753d377295495a5ef8"),
    ("perturbed", "perturbed", "relabel",
     "ab95973523e56449368268965f574defd8be22bdb9a3ec11d73be1bd93e5841e"),
    # pairs chance edges of equal probability
    ("endofturn", "endofturn", "agency",
     "c530105496896c16c42f5b2568bdbd5395eacb33c7cfbf8d20fda0e6a1add72f"),
]


@pytest.mark.parametrize("left,right,mode,digest", WITNESS_DIGESTS)
def test_witness_bytes_are_stable(systems, left, right, mode, digest):
    compare = equivalent_up_to_relabeling if mode == "relabel" else agency_equivalent
    witness = compare(
        tree.build_forest(systems[left], depth_limit=3),
        tree.build_forest(systems[right], depth_limit=3),
    )
    assert verify_witness(witness) == []
    assert hashlib.sha256(witness.to_json().encode()).hexdigest() == digest


class TestSharedWitness:
    """Witnesses of built forests relate pairs of shared nodes."""

    @pytest.fixture(scope="class")
    def forests(self, systems):
        games = ("tictactoe", "3to15")
        shared = [tree.build_forest(systems[g], depth_limit=3) for g in games]
        unshared = [oracles.build_forest(systems[g], depth_limit=3) for g in games]
        return shared, unshared

    def test_verifies_and_unfolds_to_the_unshared_witness(self, forests):
        (left, right), (uleft, uright) = forests
        w = equivalent_up_to_relabeling(left, right)
        assert verify_witness(w) == []
        reference = equivalent_up_to_relabeling(uleft, uright)
        assert [p.node_map for p in w.pairs] == [p.node_map for p in reference.pairs]
        assert w.to_json() == reference.to_json()
        assert verify_witness(invert_witness(w)) == []
        back = equivalent_up_to_relabeling(right, left)
        assert verify_witness(compose_witnesses(w, back)) == []

    def test_swapped_child_pairs_detected(self, forests):
        (left, right), _ = forests
        w = equivalent_up_to_relabeling(left, right)
        pair = w.pairs[0]
        lt = w.left_forest[0]
        keys = oracles.subtree_keys(lt)
        # a child pairing whose first two left children differ even with
        # players and outcomes pinned: swapping their images is wrong
        link = next(
            link for link, pairing in sorted(pair.links.items())
            if len(pairing) > 1
            and keys[lt.edge_dst[pairing[0][0]]] != keys[lt.edge_dst[pairing[1][0]]]
        )
        (a, ra), (b, rb) = pair.links[link][:2]
        set_child_pair(pair, link, 0, (a, rb))
        set_child_pair(pair, link, 1, (b, ra))
        assert verify_witness(w) != []


class TestCanonicalForm:
    def test_keys_stable_across_serialization(self, swap_pair_left):
        again = tree.import_json(tree.export_json(swap_pair_left))
        assert canonical_form(swap_pair_left).digest == canonical_form(again).digest

    def test_pin_flags_change_keys(self, systems):
        forest = tree.build_forest(systems["parity"])
        assert canonical_form(forest).digest != canonical_form(
            forest, pin={"players", "outcomes"}
        ).digest
        # Misere tic-tac-toe renames the outcomes: equal keys unless pinned.
        ttt = tree.build_forest(systems["tictactoe"], depth_limit=5)
        mis = tree.build_forest(systems["misere"], depth_limit=5)
        assert canonical_form(ttt) == canonical_form(mis)
        assert canonical_form(ttt, pin={"outcomes"}) != canonical_form(mis, pin={"outcomes"})

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


def rename_choices(t: GameTree, prefix: str) -> GameTree:
    """A copy with every decision renamed by `prefix`: the same game."""

    def entry(d):
        return d if d is None else prefix + d

    dup = t.copy()
    dup.edge_label = [
        label if label is None
        else frozenset(tuple(tuple(map(entry, dtuple)) for dtuple in seq) for seq in label)
        for label in t.edge_label
    ]
    return dup


def latin_square(n: int, rows: list[str], cols: list[str]) -> GameTree:
    """R picks row i and C column j at once; the cell leads to outcome
    s(i + j mod n), one edge and terminal per symbol."""
    t = GameTree(("R", "C"))
    t.root = t.add_node(STATE)
    for k in range(n):
        leaf = t.add_node(TERMINAL, outcome=f"s{k}")
        cells = [(rows[i], cols[(k - i) % n]) for i in range(n)]
        t.add_edge(t.root, leaf, DECISION_EDGE, label=frozenset((cell,) for cell in cells))
    return t


def latin_pair(n: int) -> tuple[GameTree, GameTree]:
    """An order-n cyclic Latin square and a copy whose rows and columns are
    renamed by shuffled names."""
    rng = random.Random(n)
    rows, cols = [f"r{i}" for i in range(n)], [f"c{j}" for j in range(n)]
    names = [f"x{i}" for i in range(n)], [f"y{j}" for j in range(n)]
    for shuffled in names:
        rng.shuffle(shuffled)
    return latin_square(n, rows, cols), latin_square(n, *names)


class TestChoiceCertificates:
    """Where two or more players choose, a witness records its choice maps,
    and `verify_witness` checks them as a certificate."""

    @staticmethod
    def multi_chooser_pairs(witness):
        """(pair, left tree, right tree, u, v) per related state pair where
        two or more players choose."""
        for pair in witness.pairs:
            lt, rt = witness.trees(pair)
            for u, v in sorted(pair.links):
                if lt.node_kind[u] == STATE and tree.node_meta(lt, u).active > 1:
                    yield pair, lt, rt, u, v

    def assert_certified(self, witness) -> int:
        """Each multi-chooser pair's recorded maps pass the certificate
        check, and the brute-force search agrees that a bijection exists;
        returns how many pairs were checked."""
        assert witness is not None and verify_witness(witness) == []
        pm = witness.player_map
        checked = 0
        for pair, lt, rt, u, v in self.multi_chooser_pairs(witness):
            rindex = {p: j for j, p in enumerate(rt.players)}
            axes = [(i, rindex[pm[p]]) for i, p in enumerate(lt.players)]
            pairing = pair.links[(u, v)]
            assert equiv._carries_cells(
                pair.choices[(u, v)], lt.players, axes, tree.node_meta(lt, u),
                tree.node_meta(rt, v), pairing, lt.node_children[u], rt.node_children[v],
            )
            assert oracles._brute_matrices_match(lt, u, rt, v, pm, dict(pairing))
            checked += 1
        return checked

    def test_fixture_witnesses(self, systems, trio_matrix_a, trio_matrix_b):
        checked = 0
        for game in ("parity", "mixed_a", "mixed_b", "endofturn"):
            forest = tree.build_forest(systems[game], depth_limit=3)
            renamed = [rename_choices(t, "n_") for t in forest]
            checked += self.assert_certified(equivalent_up_to_relabeling(forest, renamed))
            checked += self.assert_certified(agency_equivalent(forest, renamed))
        for compare in (equivalent_up_to_relabeling, agency_equivalent):
            checked += self.assert_certified(compare(trio_matrix_a, trio_matrix_b))
        # parity's and the trio matrices are the corpus's simultaneous moves
        assert checked >= 4

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from((2, 3)))
    def test_random_trees(self, seed, n_players):
        rng = random.Random(seed)
        a = generators.random_tree(rng, max_nodes=30, n_players=n_players)
        players = list(a.players)
        b = rename_choices(
            equiv.relabel_tree(a, dict(zip(players, rng.sample(players, n_players)))), "n_"
        )
        self.assert_certified(equivalent_up_to_relabeling(a, b))
        self.assert_certified(agency_equivalent(a, b))

    def test_zip_maps_pass_the_certificate_check(self, systems):
        """Where at most one player chooses, the maps `choice_maps` derives
        from the child pairing pass the same check."""
        forests = [tree.build_forest(systems[g], depth_limit=3) for g in ("tictactoe", "3to15")]
        w = equivalent_up_to_relabeling(*forests)
        rng = random.Random(4)
        witnesses = [w] + [
            equivalent_up_to_relabeling(t, rename_choices(t, "n_"))
            for t in (generators.random_tree(rng, max_nodes=30, n_players=3) for _ in range(40))
        ]
        checked = 0
        for w in witnesses:
            for pair in w.pairs:
                lt, rt = w.trees(pair)
                rindex = {p: j for j, p in enumerate(rt.players)}
                axes = [(i, rindex[w.player_map[p]]) for i, p in enumerate(lt.players)]
                for (u, v), pairing in sorted(pair.links.items()):
                    if lt.node_kind[u] != STATE or tree.node_meta(lt, u).active > 1:
                        continue
                    assert equiv._carries_cells(
                        w.choice_maps(pair, u, v), lt.players, axes, tree.node_meta(lt, u),
                        tree.node_meta(rt, v), pairing, lt.node_children[u], rt.node_children[v],
                    )
                    checked += 1
        assert checked > 300

    def test_one_chooser_verdict_is_the_brute_force_verdict(self):
        """Where at most one player chooses, `verify_witness` accepts a
        random child pairing exactly when some choice bijection carries
        the matrix along it."""
        rng = random.Random(5)
        answers = Counter()
        for _ in range(300):
            t = GameTree(("P", "Q"))
            t.root = t.add_node(STATE)
            n_edges = rng.randint(1, 4)
            cells: list[list[str]] = [[f"d{e}"] for e in range(n_edges)]
            for k in range(n_edges, n_edges + rng.randint(0, 3)):
                cells[rng.randrange(n_edges)].append(f"d{k}")
            for choices in cells:
                label = frozenset(((c, "q"),) for c in choices)
                t.add_edge(t.root, t.add_node(TERMINAL, outcome="w"), DECISION_EDGE, label=label)
            other = rename_choices(t, "n_")
            redges = list(other.node_children[other.root])
            rng.shuffle(redges)
            pairing = tuple(zip(t.node_children[t.root], redges))
            links = {(t.root, other.root): pairing}
            links.update({(t.edge_dst[le], other.edge_dst[re]): () for le, re in pairing})
            w = equiv.EquivalenceWitness(
                {"P": "P", "Q": "Q"}, {"w": "w"}, [equiv.TreePairWitness(0, 0, links)], [t], [other]
            )
            accepted = verify_witness(w) == []
            assert accepted == oracles._brute_matrices_match(
                t, t.root, other, other.root, w.player_map, dict(pairing)
            )
            answers[accepted] += 1
        assert answers[True] > 50 and answers[False] > 50

    def latin_witness(self, n: int):
        left, right = latin_pair(n)
        w = equivalent_up_to_relabeling(left, right, pin={"outcomes"})
        assert w is not None
        return w

    def test_corrupted_map_is_reported(self):
        for corrupt in ("not a bijection", "rows swapped"):
            w = self.latin_witness(3)
            (pair,) = w.pairs
            rows = pair.choices[(0, 0)]["R"]
            r0, r1 = sorted(rows)[:2]
            if corrupt == "not a bijection":
                rows[r0] = rows[r1]
            else:
                rows[r0], rows[r1] = rows[r1], rows[r0]
            assert verify_witness(w, pin={"outcomes"}) == ["node 0: decision matrices do not match"]

    def test_missing_map_is_reported(self):
        w = self.latin_witness(3)
        del w.pairs[0].choices[(0, 0)]
        assert verify_witness(w, pin={"outcomes"}) == [
            "node 0: no choice maps where two or more players choose"
        ]

    @pytest.mark.parametrize("n", range(3, 11))
    def test_latin_squares_verify(self, n):
        """Every row and column of a cyclic Latin square meets each symbol
        once, so no choice can be told from another by the edges it
        reaches; the check is linear all the same."""
        w = self.latin_witness(n)
        back = invert_witness(w)
        with deadline(2.0):
            assert verify_witness(w, pin={"outcomes"}) == []
            assert verify_witness(back, pin={"outcomes"}) == []
            assert verify_witness(compose_witnesses(w, back), pin={"outcomes"}) == []
            assert verify_witness(compose_witnesses(back, w), pin={"outcomes"}) == []
        if n <= 4:
            pairing = w.pairs[0].links[(0, 0)]
            left, right = w.trees(w.pairs[0])
            assert oracles._brute_matrices_match(left, 0, right, 0, w.player_map, dict(pairing))
        assert json.loads(w.to_json())["trees"][0]["choices"]["0"]["R"]


def two_rounds(branches: list[tuple[str, ...]]) -> GameTree:
    """P picks a branch, then a leaf: the outcomes of branch i in order."""
    t = GameTree(("P",))
    t.root = t.add_node(STATE)
    for i, outcomes in enumerate(branches):
        mid = t.add_node(STATE)
        t.add_edge(t.root, mid, DECISION_EDGE, label=frozenset({((f"b{i}",),)}))
        for j, outcome in enumerate(outcomes):
            leaf = t.add_node(TERMINAL, outcome=outcome)
            t.add_edge(mid, leaf, DECISION_EDGE, label=frozenset({((f"c{j}",),)}))
    return t


@pytest.fixture(scope="module")
def depth5_forests(systems):
    return {
        g: tree.build_forest(systems[g], depth_limit=5)
        for g in ("tictactoe", "3to15", "misere", "perturbed")
    }


class TestWorkCounts:
    """How many candidate labelings a comparison keys on each side, counted:
    a change that keys a labeling it need not shows here without timing the
    host.  The left side keys its first labeling only, and the right side
    stops at the first labeling whose forest key is the left side's."""

    @staticmethod
    def keyed(monkeypatch, left, right, pin=()):
        """The verdict, and the labelings keyed on the left and on the right."""
        left_ids = {id(t) for t in left}
        calls = {"left": 0, "right": 0}
        fill_keys = canon._fill_keys

        def counted(t, *rest):
            calls["left" if id(t) in left_ids else "right"] += 1
            return fill_keys(t, *rest)

        monkeypatch.setattr(canon, "_fill_keys", counted)
        verdict = equivalent_up_to_relabeling(left, right, pin)
        assert calls["left"] % len(left) == calls["right"] % len(right) == 0
        return verdict, calls["left"] // len(left), calls["right"] // len(right)

    def test_depth5_tictactoe_against_3to15(self, depth5_forests, monkeypatch):
        left, right = depth5_forests["tictactoe"], depth5_forests["3to15"]
        witness, on_left, on_right = self.keyed(monkeypatch, left, right)
        assert witness is not None
        assert (on_left, on_right) == (1, 1)
        # with the left minimum as its target, the right side stops at the
        # labeling its own minimum keeps
        target = canon.best_assignment_with_keys(left, canon.PIN_NONE)[0]
        full = canon.best_assignment_with_keys(right, canon.PIN_NONE)
        stopped = canon.best_assignment_with_keys(right, canon.PIN_NONE, target=target)
        assert full[0] == target
        assert stopped[:2] == full[:2]

    @pytest.mark.parametrize("game,pin", [("misere", {"outcomes"}), ("perturbed", ())])
    def test_depth5_rejects_key_nothing(self, depth5_forests, monkeypatch, game, pin):
        left, right = depth5_forests["tictactoe"], depth5_forests[game]
        assert self.keyed(monkeypatch, left, right, pin) == (None, 0, 0)

    def test_equal_profiles_unequal_keys_try_every_labeling(self, monkeypatch):
        left, right = two_rounds([("w", "l"), ("w", "l")]), two_rounds([("w", "w"), ("l", "l")])
        pin = canon.PIN_NONE
        assert canon.forest_profile([left], pin) == canon.forest_profile([right], pin)
        assert self.keyed(monkeypatch, [left], [right]) == (None, 1, 2)

    def test_only_the_last_right_labeling_matches(self, monkeypatch):
        """Outcomes a and b are tied by their signatures, and only the right
        side's last numbering of them keys as the left's first does."""
        left = two_rounds([("a", "a", "b"), ("b",)])
        right = equiv.relabel_tree(left, outcome_map={"a": "b", "b": "a"})
        assert len(canon.assignments_for([right], canon.PIN_NONE)) == 2
        witness, on_left, on_right = self.keyed(monkeypatch, [left], [right])
        assert (on_left, on_right) == (1, 2)
        assert witness.outcome_map == {"a": "b", "b": "a"}
        assert verify_witness(witness) == []


def tied_pairs() -> list[tuple[list[GameTree], list[GameTree]]]:
    """Forest pairs whose players or outcomes tie by signature."""
    pairs = [([a], [b]) for a, b in (latin_pair(n) for n in (2, 3, 4))]
    left = two_rounds([("a", "a", "b"), ("b",)])
    for right in (
        equiv.relabel_tree(left, outcome_map={"a": "b", "b": "a"}),
        two_rounds([("b", "a", "b"), ("a",)]),
    ):
        pairs.append(([left], [right]))
    pairs.append(([two_rounds([("w", "l"), ("w", "l")])], [two_rounds([("w", "w"), ("l", "l")])]))
    squares = [
        latin_square(n, [f"r{i}" for i in range(n)], [f"c{i}" for i in range(n)]) for n in (3, 2)
    ]
    swapped = [
        equiv.relabel_tree(t, {"R": "C", "C": "R"}, {"s1": "s2", "s2": "s1"}) for t in squares
    ]
    pairs.append((squares, swapped[::-1]))
    return pairs


class TestFirstLabelingDecides:
    """The relabel decision keys only the left forest's first candidate
    labeling.  Its verdict is the canonical keys' under every pin regime,
    and each positive verdict's witness verifies."""

    @staticmethod
    def assert_decided(left, right, pin) -> bool:
        witness = equivalent_up_to_relabeling(left, right, pin)
        assert (witness is not None) == (canonical_form(left, pin) == canonical_form(right, pin))
        if witness is not None:
            assert verify_witness(witness, pin) == []
        return witness is not None

    @pytest.mark.parametrize("pin", PINS, ids=lambda p: "+".join(sorted(p)) or "none")
    def test_tied_labels(self, pin):
        verdicts = [self.assert_decided(left, right, pin) for left, right in tied_pairs()]
        # the latin squares' renamed choices, then the relabeled outcomes
        if "outcomes" in pin:
            assert verdicts == [True, True, True, False, False, False, False]
        else:
            assert verdicts == [True, True, True, True, True, False, True]

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from((1, 2, 3)),
        st.integers(1, 2),
        st.sampled_from(PINS),
        st.sampled_from(("relabeled", "one tree replaced", "unrelated")),
    )
    def test_random_forests(self, seed, n_players, size, pin, right_kind):
        rng = random.Random(seed)
        outcomes = ("w1", "w2", "w3")

        def forest() -> list[GameTree]:
            return [
                generators.random_tree(rng, max_nodes=20, n_players=n_players)
                for _ in range(size)
            ]

        left = forest()
        if right_kind == "unrelated":
            right = forest()
        else:
            players = list(left[0].players)
            player_map = dict(zip(players, rng.sample(players, n_players)))
            outcome_map = dict(zip(outcomes, rng.sample(outcomes, len(outcomes))))
            right = [equiv.relabel_tree(t, player_map, outcome_map) for t in left]
            rng.shuffle(right)
            if right_kind == "one tree replaced":
                right[0] = forest()[0]
        self.assert_decided(left, right, pin)


def test_one_chooser_cell_counts_are_checked():
    """Where one player chooses and an edge carries two cells, pairing it
    with an edge of one cell is reported."""
    t = GameTree(("P", "Q"))
    t.root = t.add_node(STATE)
    for outcome, choices in (("w1", ("a", "b")), ("w2", ("c",))):
        leaf = t.add_node(TERMINAL, outcome=outcome)
        t.add_edge(t.root, leaf, DECISION_EDGE, label=frozenset(((c, None),) for c in choices))
    w = equivalent_up_to_relabeling(t, t.copy())
    assert verify_witness(w) == []
    (pair,) = w.pairs
    (e1, r1), (e2, r2) = pair.links[(t.root, t.root)]
    pair.links[(t.root, t.root)] = ((e1, r2), (e2, r1))
    pair.links[(t.edge_dst[e1], t.edge_dst[r2])] = ()
    pair.links[(t.edge_dst[e2], t.edge_dst[r1])] = ()
    assert f"node {t.root}: decision matrices do not match" in verify_witness(w)


class TestEmptyForest:
    """An empty forest is an invalid input at every entry point."""

    def test_relabel(self):
        with pytest.raises(TreeInvariantError, match="empty forest"):
            equivalent_up_to_relabeling([], [])

    def test_agency(self):
        with pytest.raises(TreeInvariantError, match="empty forest"):
            agency_equivalent([], [])

    def test_equiv_canonical_form(self):
        with pytest.raises(TreeInvariantError, match="empty forest"):
            canonical_form([])

    def test_canon_canonical_form(self):
        with pytest.raises(TreeInvariantError, match="empty forest"):
            canon.canonical_form([])

    def test_verify_witness(self):
        witness = equiv.EquivalenceWitness({}, {}, [], [], [])
        with pytest.raises(TreeInvariantError, match="empty forest"):
            verify_witness(witness)
