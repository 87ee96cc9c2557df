"""Streaming exports: byte equality with the reference renderers in `oracles`.

`export_json`, `export_dot` and the CLI's `tree`/`reduce` output are written
chunk by chunk with cached fragments; the references build the whole
document and dump it.  Built trees share nodes, so their exports are
compared with the references' rendering of the unshared tree that
`oracles.build_tree` builds; normal forms share nodes too, and are compared
with the rendering of their `unfold`.  Every test here compares bytes.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import pytest

import generators
import oracles
from conftest import deadline, fixture_path, fixture_text
from ludokit import cli, equiv, reduce, tree
from ludokit.errors import TreeInvariantError
from ludokit.tree import CHANCE, CHANCE_EDGE, DECISION_EDGE, STATE, TERMINAL, TRUNCATED

GAMES = [
    "tictactoe", "3to15", "misere", "perturbed", "endofturn",
    "forbidden", "parity", "mixed_a", "mixed_b",
]
TREE_FILES = [
    "swap_pair_left.json", "swap_pair_right.json", "trio_matrix_a.json",
    "trio_matrix_b.json", "nine_outcomes.json",
]


def assert_exports_match(t: tree.GameTree) -> None:
    assert tree.export_json(t) == oracles.export_json(t)
    assert tree.export_dot(t) == oracles.export_dot(t)


def assert_form_exports_match(form: tree.GameTree) -> None:
    """A normal form may share nodes; the references render its unfolding."""
    unfolded = tree.unfold(form)
    assert tree.export_json(form) == oracles.export_json(unfolded)
    assert tree.export_dot(form) == oracles.export_dot(unfolded)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _build_depth3_forests(monkeypatch) -> None:
    """The CLI's `.game` inputs build depth-3 forests; `equiv` looks
    `build_forest` up on the tree module when it runs."""
    build = tree.build_forest
    monkeypatch.setattr(
        tree, "build_forest", lambda system, node_budget: build(system, 3, node_budget)
    )


@pytest.fixture(scope="module")
def depth3_forests(systems):
    return {g: tree.build_forest(systems[g], depth_limit=3) for g in GAMES}


@pytest.fixture(scope="module")
def depth3_references(systems):
    """The same forests built unshared, one node per root path."""
    return {g: oracles.build_forest(systems[g], depth_limit=3) for g in GAMES}


class TestLibrary:
    @pytest.mark.parametrize("game", GAMES)
    def test_fixture_depth3_and_normal_form(self, depth3_forests, depth3_references, game):
        for t, reference in zip(depth3_forests[game], depth3_references[game], strict=True):
            assert tree.export_json(t) == oracles.export_json(reference)
            assert tree.export_dot(t) == oracles.export_dot(reference)
            assert_form_exports_match(reduce.normalize(t)[0])

    @pytest.mark.parametrize("name", TREE_FILES)
    def test_tree_fixture_files(self, name):
        t = tree.import_json(fixture_text(name))
        assert_exports_match(t)
        assert_form_exports_match(reduce.normalize(t)[0])

    def test_truncated_tree(self, ttt):
        t = tree.build_forest(ttt, depth_limit=2)[0]
        assert any(t.node_kind[n] == TRUNCATED for n in t.iter_nodes())
        assert_exports_match(t)
        assert '"truncated": true' in tree.export_json(t)

    def test_random_trees_and_normal_forms(self):
        for seed in range(200):
            rng = random.Random(seed)
            t = generators.random_tree(
                rng, max_nodes=50, n_players=1 + seed % 3, allow_truncated=seed % 4 == 0
            )
            assert_exports_match(t)
            assert_form_exports_match(reduce.normalize(t)[0])

    def test_single_node_tree_has_no_edges(self):
        t = tree.GameTree(("P",))
        t.root = t.add_node(TERMINAL, ("s",), "win")
        assert '"edges": []' in tree.export_json(t)
        assert_exports_match(t)

    def test_names_needing_escapes(self):
        players = ('P"1', "Ü\\")
        t = tree.GameTree(players)
        t.root = t.add_node(STATE, ('x"y', "é", "tab\there"))
        coin = t.add_node(CHANCE)
        t.add_edge(t.root, coin, DECISION_EDGE, label=frozenset({(('d"1', None),)}))
        for outcome, prob in (('o"\\', Fraction(1, 3)), ("é\n", Fraction(2, 3))):
            leaf = t.add_node(TERMINAL, ("c", "☃", ""), outcome)
            t.add_edge(coin, leaf, CHANCE_EDGE, prob=prob)
        tree.validate_tree(t)
        assert_exports_match(t)

    @pytest.mark.parametrize("export", [tree.export_json, tree.export_dot], ids=["json", "dot"])
    def test_exports_refuse_a_cycle(self, export):
        """The shared preorder walk sizes each node after its children; a
        child not yet sized lies on a cycle."""
        with deadline(1.0), pytest.raises(TreeInvariantError, match="node 0 lies on a cycle"):
            export(generators.two_node_cycle())

    @pytest.mark.parametrize("level", [0, 1, 2, 5])
    def test_level_indents_every_line(self, systems, level):
        t = tree.build_forest(systems["parity"])[0]
        chunks: list[str] = []
        tree.write_json(t, chunks.append, level=level)
        reference = oracles.build_forest(systems["parity"])[0]
        lines = oracles.export_json(reference).rstrip("\n").split("\n")
        assert "".join(chunks) == "\n".join("  " * level + line for line in lines)


    def test_repeated_fragments_are_shared_chunks(self, systems):
        """A state block, outcome, label tail or probability is rendered once
        and written as its own chunk, so repeats are one object."""
        t = tree.build_forest(systems["tictactoe"], depth_limit=3)[0]
        chunks: list[str] = []
        tree.write_json(t, chunks.append)
        for marker in ('"state":', '"outcome":', '"tuples":', '"prob":'):
            mine = [c for c in chunks if marker in c]
            assert len({id(c) for c in mine}) == len(set(mine))
        states = [c for c in chunks if '"state":' in c]
        with_state = [n for n in t.iter_nodes() if t.node_state[n] is not None]
        assert len(states) == len(with_state) > len(set(states))


class TestCli:
    @pytest.mark.parametrize("game", GAMES)
    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_tree_depth3(self, capsys, depth3_references, game, fmt):
        code, out, _ = run(
            capsys, "tree", fixture_path(f"{game}.game"), "--depth", "3", "--format", fmt
        )
        assert code == 0
        assert out == oracles.cli_trees(depth3_references[game], fmt)

    def test_tree_forest_to_file(self, capsys, systems, tmp_path):
        forest = oracles.build_forest(systems["mixed_a"])
        assert len(forest) == 4
        path = tmp_path / "forest.json"
        code, out, _ = run(capsys, "tree", fixture_path("mixed_a.game"), "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text(encoding="utf-8") == oracles.cli_trees(forest)
        assert json.loads(path.read_text())["forest"][3]["players"] == ["P"]

    def test_tree_stats_then_export(self, capsys, depth3_references):
        code, out, _ = run(
            capsys, "tree", fixture_path("parity.game"), "--depth", "3", "--stats", "--out", "-"
        )
        assert code == 0
        stats, _, text = out.partition("\n")
        assert stats.startswith("tree 0:")
        assert text == oracles.cli_trees(depth3_references["parity"])

    @pytest.mark.parametrize(
        "left, right",
        [(g, g) for g in GAMES] + [("tictactoe", "3to15"), ("tictactoe", "misere"),
                                  ("mixed_a", "mixed_b")],
    )
    def test_equiv_witness_depth3(self, capsys, monkeypatch, depth3_references, left, right):
        """The witness of two shared forests unfolds to the bytes of the
        witness of the unshared ones."""
        _build_depth3_forests(monkeypatch)
        code, out, _ = run(
            capsys, "equiv", fixture_path(f"{left}.game"), fixture_path(f"{right}.game"),
            "--witness",
        )
        reference = equiv.equivalent_up_to_relabeling(
            depth3_references[left], depth3_references[right]
        )
        assert code == (0 if reference is not None else 1)
        if reference is None:
            assert out == "relabel: not equivalent\n"
        else:
            assert out == "relabel: equivalent\n" + reference.to_json()

    def test_agency_witness_parity_depth3(self, capsys, monkeypatch):
        """Pinned bytes: parity's depth-3 normal form is unshared, and the
        witness names its nodes by the ids `unfold` gives them."""
        _build_depth3_forests(monkeypatch)
        game = fixture_path("parity.game")
        code, out, _ = run(capsys, "equiv", game, game, "--mode", "agency", "--witness")
        assert code == 0
        choices = {"\"left\"": "left", "\"right\"": "right"}
        assert out == "agency: equivalent\n" + json.dumps(
            {
                "players": {"A": "A", "B": "B"},
                "outcomes": {"A_wins": "A_wins", "B_wins": "B_wins"},
                "trees": [
                    {
                        "left": 0,
                        "right": 0,
                        "nodes": {"0": 0, "1": 1, "2": 2},
                        "choices": {"0": {"A": choices, "B": choices}},
                    }
                ],
            },
            indent=2,
        ) + "\n"

    def test_reduce_forest(self, capsys, systems):
        forms = [reduce.normalize(t)[0] for t in tree.build_forest(systems["mixed_a"])]
        code, out, _ = run(capsys, "reduce", fixture_path("mixed_a.game"))
        assert code == 0
        assert out == oracles.cli_trees(forms)

    @pytest.mark.parametrize("name", TREE_FILES)
    def test_reduce_tree_file(self, capsys, name):
        form = reduce.normalize(tree.import_json(fixture_text(name)))[0]
        code, out, _ = run(capsys, "reduce", fixture_path(name))
        assert code == 0
        assert out == oracles.cli_trees([tree.unfold(form)])

    def test_reduce_trace_then_form_on_stdout(self, capsys, swap_pair_right):
        form, trace = reduce.normalize(swap_pair_right)
        code, out, _ = run(capsys, "reduce", fixture_path("swap_pair_right.json"), "--trace")
        assert code == 0
        trace_text = json.dumps(json.loads(trace.to_json()), indent=2) + "\n"
        assert out == trace_text + oracles.cli_trees([tree.unfold(form)])


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["tree", "reduce"])
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_out_exits_2(self, capsys, tmp_path, command, target):
        path = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path
        source = "parity.game" if command == "tree" else "swap_pair_right.json"
        code, out, err = run(capsys, command, fixture_path(source), "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"cannot write {path}:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_reduce_trace_path_exits_2(self, capsys, tmp_path, target):
        path = tmp_path / "missing" / "t.json" if target == "missing-dir" else tmp_path
        code, out, err = run(
            capsys, "reduce", fixture_path("swap_pair_right.json"), "--trace", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"cannot write {path}:")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
    @pytest.mark.parametrize("command", ["tree", "reduce"])
    def test_failed_write_exits_2(self, capsys, command):
        source = "parity.game" if command == "tree" else "swap_pair_right.json"
        code, _, err = run(capsys, command, fixture_path(source), "--out", "/dev/full")
        assert code == 2
        assert err.startswith("cannot write /dev/full:")

    def test_output_opened_before_the_tree_is_built(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a tree for an unwritable output")

        monkeypatch.setattr(tree, "build_tree", refuse)
        monkeypatch.setattr(cli, "_load_forest", refuse)
        path = str(tmp_path / "missing" / "x.json")
        assert run(capsys, "tree", fixture_path("parity.game"), "--out", path)[0] == 2
        assert run(capsys, "reduce", fixture_path("parity.game"), "--out", path)[0] == 2

    def test_reduce_trace_and_out_same_file_exit_2(self, capsys, tmp_path):
        path = str(tmp_path / "both.json")
        code, _, err = run(
            capsys, "reduce", fixture_path("swap_pair_right.json"),
            "--out", path, "--trace", path,
        )
        assert code == 2
        assert "both name" in err

