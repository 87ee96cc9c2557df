"""Acceptance criteria: the exit bar for the whole artifact.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(visible with `pytest -s tests/test_acceptance.py`).
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import generators
import oracles
from conftest import fixture_path, fixture_text
from ludokit import cli, core, equiv, reduce, tree
from ludokit.similarity import StateMap, exhaustive_proportion, similarity
from ludokit.tree import CHANCE, TERMINAL


def _announce(line: str) -> None:
    # collected into the terminal summary (uncaptured) and printed inline
    import conftest

    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


@contextmanager
def criterion(number: int, description: str):
    started = time.time()
    try:
        yield
    except Exception:
        _announce(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.time() - started
    _announce(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.1f}s)")


def test_01_tree_scale(ttt):
    with criterion(1, "full coin-flip tree has exactly 2 x 255168 leaves"):
        started = time.time()
        oracle_games = oracles.count_tictactoe_games()
        assert oracle_games == 255168
        s0 = core.initial_states(ttt)[0]
        built = tree.build_tree(ttt, s0)
        stats = tree.tree_stats(built)
        assert stats.terminal_leaves == 2 * oracle_games == 510336
        assert time.time() - started <= 60


def test_02_opening_shape(ttt):
    with criterion(2, "depth-2 build reproduces the opening structure"):
        started = time.time()
        s0 = core.initial_states(ttt)[0]
        t = tree.build_tree(ttt, s0, depth_limit=2)
        root_edges = t.node_children[t.root]
        assert len(root_edges) == 1
        assert t.edge_label[root_edges[0]] == frozenset({(("flip", "flip"),)})
        chance = t.edge_dst[root_edges[0]]
        assert t.node_kind[chance] == CHANCE
        probs = [t.edge_prob[e] for e in t.node_children[chance]]
        assert sorted(probs) == [Fraction(1, 2), Fraction(1, 2)]
        x_first = next(
            n for n in t.children(chance)
            if ttt.state_to_dict(t.node_state[n])["turn"] == "X"
        )
        after_move_one = next(
            t.edge_dst[e] for e in t.node_children[x_first]
            if t.edge_label[e] == frozenset({(("1", None),)})
        )
        assert len(t.node_children[after_move_one]) == 8
        assert time.time() - started < 1


def test_03_symmetry_reduction(ttt):
    with criterion(3, "X-first subtree normalizes to 3 first-move classes"):
        started = time.time()
        s_x = ttt.state_from_dict(
            {"turn": "X", **{f"c{i}": "e" for i in range(1, 10)}}
        )
        subtree = tree.build_tree(ttt, s_x)
        # independent check: canonical keys of the 9 original move subtrees
        keys = oracles.subtree_keys(subtree)
        first_moves = [subtree.edge_dst[e] for e in subtree.node_children[subtree.root]]
        assert len(first_moves) == 9
        classes = {keys[n] for n in first_moves}
        assert len(classes) == 3
        form, _ = reduce.normalize(subtree)
        assert len(form.node_children[form.root]) == 3
        assert time.time() - started <= 300


@pytest.fixture(scope="module")
def normalized_ttt(ttt_forest):
    return [reduce.normalize(t)[0] for t in ttt_forest]


def test_04_agency_equivalence_positives(systems, normalized_ttt, swap_pair_left, swap_pair_right):
    with criterion(4, "bookkeeping/symmetry variants and the worked pair are agency equivalent"):
        started = time.time()
        # (a) declaring end-of-turn is not meaningfully different
        eot_forest = tree.build_forest(systems["endofturn"])
        eot_forms = [reduce.normalize(t)[0] for t in eot_forest]
        w_a = equiv.equivalent_up_to_relabeling(normalized_ttt, eot_forms)
        assert w_a is not None
        assert equiv.verify_witness(w_a) == []
        # (b) forbidding redundant openings is not meaningfully different
        forb_forest = tree.build_forest(systems["forbidden"])
        forb_forms = [reduce.normalize(t)[0] for t in forb_forest]
        w_b = equiv.equivalent_up_to_relabeling(normalized_ttt, forb_forms)
        assert w_b is not None
        assert equiv.verify_witness(w_b) == []
        # (c) the worked two-player pair, with the player swap, via the CLI
        code = cli.main([
            "equiv", fixture_path("swap_pair_left.json"), fixture_path("swap_pair_right.json"),
            "--mode", "agency",
        ])
        assert code == 0
        w_c = equiv.agency_equivalent(swap_pair_left, swap_pair_right)
        assert w_c is not None
        assert w_c.player_map == {"P1": "p2", "P2": "p1"}
        assert equiv.verify_witness(w_c) == []
        assert time.time() - started <= 600


def test_05_relabeling_discrimination(systems, ttt_forest):
    with criterion(5, "relabeling verdicts: number game yes; misere pinned no; perturbed no"):
        started = time.time()
        f315 = tree.build_forest(systems["3to15"])
        w = equiv.equivalent_up_to_relabeling(ttt_forest, f315)
        assert w is not None
        del f315
        fmis = tree.build_forest(systems["misere"])
        assert equiv.equivalent_up_to_relabeling(ttt_forest, fmis) is not None
        assert equiv.equivalent_up_to_relabeling(ttt_forest, fmis, pin={"outcomes"}) is None
        del fmis
        fpert = tree.build_forest(systems["perturbed"])
        assert equiv.equivalent_up_to_relabeling(ttt_forest, fpert) is None
        assert time.time() - started <= 300


def test_06_reduction_soundness_suite():
    with criterion(6, "1000 generated trees: termination, idempotence, conservation, key/witness agreement"):
        rng = random.Random(20260809)
        failures = []
        for trial in range(1000):
            size = rng.choice((20, 40, 80, 120, 200))
            t = generators.random_tree(rng, max_nodes=size, n_players=rng.choice((2, 3)))
            form, trace = reduce.normalize(t)
            # termination with a strictly decreasing measure at every step
            for step in trace.steps:
                assert (step.nodes_after, step.choices_after) < (
                    step.nodes_before, step.choices_before,
                )
            # structural invariants of the result, including exact
            # probability sums at every merged chance structure
            tree.validate_tree(form)
            # idempotence
            again, trace2 = reduce.normalize(form)
            assert trace2.steps == []
            assert again.structurally_equal(form)
            # canonical-key / witness-search agreement
            if trial % 2 == 0:
                other = t.copy()
            else:
                other = generators.random_tree(rng, max_nodes=size)
            if len(other.players) == len(t.players):
                key_equal = (
                    equiv.canonical_form(t).digest == equiv.canonical_form(other).digest
                )
                witness = equiv.equivalent_up_to_relabeling(t, other)
                assert key_equal == (witness is not None)
                if witness is not None:
                    assert equiv.verify_witness(witness) == []
        assert failures == []


def _law_corpus(systems, swap_pair_left, swap_pair_right):
    depth2 = {
        name: tree.build_forest(systems[name], depth_limit=2)
        for name in ("tictactoe", "3to15", "misere")
    }
    return {
        "ttt_d2": depth2["tictactoe"],
        "t315_d2": depth2["3to15"],
        "misere_d2": depth2["misere"],
        "parity": tree.build_forest(systems["parity"]),
        "mixed_a": tree.build_forest(systems["mixed_a"]),
        "swap_pair_left": [swap_pair_left],
        "swap_pair_right": [swap_pair_right],
        "trio_matrix_a": [tree.import_json(fixture_text("trio_matrix_a.json"))],
    }


def test_07_equivalence_relation_laws(systems, swap_pair_left, swap_pair_right):
    with criterion(7, "reflexivity, symmetry, transitivity across the fixture corpus"):
        corpus = _law_corpus(systems, swap_pair_left, swap_pair_right)

        # Reflexivity: identity witnesses for every member, all predicates.
        for name, forest in corpus.items():
            skel = sorted(equiv.strip(t).digest for t in forest)
            assert skel == sorted(equiv.strip(t).digest for t in forest)
            w = equiv.equivalent_up_to_relabeling(forest, forest)
            assert w is not None and equiv.verify_witness(w) == [], name
            wa = equiv.agency_equivalent(forest, forest)
            assert wa is not None and equiv.verify_witness(wa) == [], name

        # Symmetry: invert found witnesses and re-verify.
        pairs = [
            ("relabel", corpus["ttt_d2"], corpus["t315_d2"]),
            ("relabel", corpus["ttt_d2"], corpus["misere_d2"]),
            ("agency", corpus["swap_pair_left"], corpus["swap_pair_right"]),
        ]
        witnesses = []
        for mode, left, right in pairs:
            if mode == "relabel":
                w = equiv.equivalent_up_to_relabeling(left, right)
            else:
                w = equiv.agency_equivalent(left, right)
            assert w is not None, mode
            assert equiv.verify_witness(w) == []
            assert equiv.verify_witness(equiv.invert_witness(w)) == []
            witnesses.append(w)

        # Transitivity: compose ttt ~ 3to15 with 3to15 ~ misere.
        w_ab = equiv.equivalent_up_to_relabeling(corpus["ttt_d2"], corpus["t315_d2"])
        w_bc = equiv.equivalent_up_to_relabeling(corpus["t315_d2"], corpus["misere_d2"])
        composed = equiv.compose_witnesses(w_ab, w_bc)
        assert equiv.verify_witness(composed) == []
        # and for agency, through the shared normal forms
        w1 = equiv.agency_equivalent(corpus["swap_pair_left"], corpus["swap_pair_right"])
        w2 = equiv.equivalent_up_to_relabeling(w1.right_forest, w1.left_forest)
        composed2 = equiv.compose_witnesses(w1, w2)
        assert equiv.verify_witness(composed2) == []

        # Structural correspondences compose as bijections.
        f = next(equiv.structural_correspondences(swap_pair_left, swap_pair_right))
        g = {v: k for k, v in f.items()}
        assert all(g[f[n]] == n for n in f)


def test_08_similarity(systems):
    with criterion(8, "self-similarity 1.0, magic-square 1.0, determinism, Wilson coverage"):
        started = time.time()
        ttt, t315 = systems["tictactoe"], systems["3to15"]
        ident = StateMap.identity(ttt, ttt)
        self_report = similarity(ttt, ttt, ident, samples=500, depth=2, seed=17)
        assert self_report.estimate == 1.0 and self_report.matches == 500

        magic = StateMap.from_json(fixture_text("magic_square_psi.json"))
        cross = similarity(ttt, t315, magic, samples=500, depth=2, seed=23)
        assert cross.estimate == 1.0 and cross.matches == 500

        again = similarity(ttt, t315, magic, samples=500, depth=2, seed=23)
        assert again.to_json() == cross.to_json()

        a, b = systems["mixed_a"], systems["mixed_b"]
        psi = StateMap.from_json(fixture_text("mixed_psi.json"))
        matches, total = exhaustive_proportion(a, b, psi, depth=2)
        truth = matches / total
        assert (matches, total) == (6, 8)
        covered = sum(
            1
            for seed in range(200)
            if (
                lambda r: r.interval_low <= truth <= r.interval_high
            )(similarity(a, b, psi, samples=30, depth=2, seed=seed))
        )
        assert covered >= 190
        assert time.time() - started <= 600


def test_09_gameplay_tree_agreement(ttt, ttt_forest):
    with criterion(9, "100 seeded playthroughs trace root-to-leaf paths with matching outcomes"):
        t = ttt_forest[0]
        s0 = core.initial_states(ttt)[0]
        for seed in range(100):
            result = core.play(ttt, s0, seed=seed)
            node = t.root
            assert t.node_state[node] == s0
            for step in result.steps:
                edge = next(
                    e for e in t.node_children[node]
                    if t.edge_label[e] == frozenset({(step.decision_tuple,)})
                )
                target = t.edge_dst[edge]
                if t.node_kind[target] == CHANCE:
                    target = next(
                        t.edge_dst[e] for e in t.node_children[target]
                        if t.node_state[t.edge_dst[e]] == step.next_state
                    )
                assert t.node_state[target] == step.next_state
                node = target
            assert t.node_kind[node] == TERMINAL
            assert t.node_outcome[node] == result.outcome
