"""Command-line interface: verdict exit codes, reports, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    LOOP_GAME, WIDE_GAME, deadline, fixture_path, fixture_text, ninety_nine_cells,
)
from ludokit import cli, equiv


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_complete_game(self, capsys):
        code, out, err = run(capsys, "validate", fixture_path("tictactoe.game"))
        assert code == 0
        assert "complete" in out
        assert err == ""

    def test_violations_exit_1(self, capsys, tmp_path):
        broken = fixture_text("tictactoe.game").replace(
            "consequence (flip, flip) -> prob 1/2: X_first ; prob 1/2: O_first\n", ""
        )
        path = tmp_path / "broken.game"
        path.write_text(broken)
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "no-consequence" in out

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.game"
        path.write_text("players P\ntrack t {")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "error" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/x.game")
        assert code == 2
        assert err

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "validate", fixture_path("parity.game"), "--json")
        assert code == 0
        assert json.loads(out)["complete"] is True

    def test_violations_do_not_depend_on_string_hashing(self, tmp_path):
        """Thousands of no-consequence violations come out in one order under
        any hash seed."""
        guarded = fixture_text("tictactoe.game").replace(
            "consequence ($i, 0) -> prob 1", "consequence ($i, 0) when c1=e -> prob 1"
        )
        path = tmp_path / "guarded.game"
        path.write_text(guarded)
        outs = []
        for seed in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-m", "ludokit", "validate", str(path)],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": os.pathsep.join(sys.path)},
            )
            assert done.returncode == 1 and done.stdout.count("no-consequence") > 1000
            outs.append(done.stdout)
        assert outs[0] == outs[1]


class TestPlay:
    def test_deterministic_transcript(self, capsys):
        code1, out1, _ = run(capsys, "play", fixture_path("tictactoe.game"), "--seed", "7")
        code2, out2, _ = run(capsys, "play", fixture_path("tictactoe.game"), "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.strip().splitlines()[-1].startswith("outcome:")
        assert any(o in out1 for o in ("X_wins", "O_wins", "draw"))

    def test_first_policy(self, capsys):
        code, out, _ = run(
            capsys, "play", fixture_path("tictactoe.game"), "--seed", "3",
            "--policy", "first",
        )
        assert code == 0
        assert "(flip,flip)" in out

    def test_json_steps_are_legal_shape(self, capsys):
        code, out, _ = run(
            capsys, "play", fixture_path("parity.game"), "--seed", "1", "--json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["outcome"] in ("A_wins", "B_wins", "draw")
        assert len(doc["steps"]) == 1


class TestTree:
    def test_stats_depth2(self, capsys):
        code, out, _ = run(
            capsys, "tree", fixture_path("tictactoe.game"), "--depth", "2", "--stats"
        )
        assert code == 0
        assert "chance=1" in out

    def test_dot_output(self, capsys):
        code, out, _ = run(
            capsys, "tree", fixture_path("parity.game"), "--format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph")

    def test_json_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "tree.json"
        code, _, _ = run(
            capsys, "tree", fixture_path("parity.game"), "--out", str(out_path)
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["players"] == ["A", "B"]

    def test_custom_root(self, capsys):
        literal = "turn=X," + ",".join(f"c{i}=e" for i in range(1, 10))
        code, out, _ = run(
            capsys, "tree", fixture_path("tictactoe.game"), "--root", literal,
            "--depth", "0", "--stats",
        )
        assert code == 0
        assert "truncated=9" in out

    def test_illegal_root_literal_exit_2(self, capsys):
        code, _, err = run(
            capsys, "tree", fixture_path("tictactoe.game"), "--root", "turn=banana",
        )
        assert code == 2
        assert err


class TestReduce:
    def test_reduce_tree_json(self, capsys, tmp_path):
        out_path = tmp_path / "nf.json"
        code, _, _ = run(
            capsys, "reduce", fixture_path("swap_pair_right.json"), "--out", str(out_path)
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["nodes"]) == 10

    def test_trace_emitted(self, capsys):
        code, out, _ = run(capsys, "reduce", fixture_path("swap_pair_right.json"), "--trace")
        assert code == 0
        # stdout carries the trace JSON then the tree JSON; both parse
        assert "matrix-redundancy" in out

    def test_idempotent(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        run(capsys, "reduce", fixture_path("swap_pair_right.json"), "--out", str(first))
        trace_path = tmp_path / "trace.json"
        code, _, _ = run(
            capsys, "reduce", str(first), "--out", str(second),
            "--trace", str(trace_path),
        )
        assert code == 0
        assert json.loads(trace_path.read_text()) == []
        assert first.read_text() == second.read_text()

    def test_trace_and_out_spelled_differently_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(
            capsys, "reduce", fixture_path("swap_pair_right.json"),
            "--trace", "x.json", "--out", "./x.json",
        )
        assert code == 2
        assert "both name" in err
        assert not (tmp_path / "x.json").exists()

    def test_trace_and_out_through_a_symlink_exit_2(self, capsys, tmp_path):
        real = tmp_path / "real.json"
        real.write_text("kept")
        link = tmp_path / "link.json"
        os.symlink(real, link)
        code, _, err = run(
            capsys, "reduce", fixture_path("swap_pair_right.json"),
            "--trace", str(real), "--out", str(link),
        )
        assert code == 2
        assert "both name" in err
        assert real.read_text() == "kept"

    def _reduced(self, capsys, tmp_path):
        """A copy of swap_pair_right.json, and what reduce prints for it."""
        path = tmp_path / "F.json"
        path.write_text(fixture_text("swap_pair_right.json"))
        code, out, _ = run(capsys, "reduce", str(path), "--trace", "-")
        assert code == 0
        return path, out

    def test_out_naming_the_input(self, capsys, tmp_path):
        path, out = self._reduced(capsys, tmp_path)
        code, stdout, err = run(capsys, "reduce", str(path), "--out", str(path))
        assert (code, stdout, err) == (0, "", "")
        assert out.endswith(path.read_text())
        assert json.loads(path.read_text())["root"] == 0

    def test_out_naming_the_input_by_a_second_spelling(self, capsys, tmp_path, monkeypatch):
        path, out = self._reduced(capsys, tmp_path)
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "reduce", "F.json", "--out", "./F.json")
        assert (code, err) == (0, "")
        assert out.endswith(path.read_text())

    def test_trace_naming_the_input(self, capsys, tmp_path):
        path, out = self._reduced(capsys, tmp_path)
        code, stdout, err = run(capsys, "reduce", str(path), "--trace", str(path))
        assert (code, err) == (0, "")
        assert path.read_text() + stdout == out
        assert json.loads(path.read_text())[0]["kind"] == "matrix-redundancy"

    def test_failed_load_leaves_the_input_unchanged(self, capsys, tmp_path):
        path = tmp_path / "F.json"
        path.write_text('{"players": ["P"]')
        for flag in ("--out", "--trace"):
            code, _, err = run(capsys, "reduce", str(path), flag, str(path))
            assert code == 2
            assert "malformed JSON" in err
            assert path.read_text() == '{"players": ["P"]'


    def test_non_integer_node_id_exit_2(self, capsys, tmp_path):
        doc = json.loads(fixture_text("swap_pair_right.json"))
        doc["nodes"][0]["id"] = [doc["nodes"][0]["id"]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "reduce", str(path))
        assert code == 2
        assert "integer node id" in err


class TestForestDocuments:
    """`tree` and `reduce` write several trees as ``{"forest": [...]}``;
    `equiv` and `reduce` read that document back."""

    def test_tree_forest_round_trip(self, capsys, tmp_path):
        game = fixture_path("mixed_a.game")
        forest = str(tmp_path / "forest.json")
        assert run(capsys, "tree", game, "--out", forest)[0] == 0
        assert len(json.loads((tmp_path / "forest.json").read_text())["forest"]) == 4
        assert run(capsys, "equiv", forest, game) == (0, "relabel: equivalent\n", "")
        assert run(capsys, "reduce", forest) == run(capsys, "reduce", game)

    def test_reduce_forest_round_trip(self, capsys, tmp_path):
        game = fixture_path("mixed_a.game")
        normal = str(tmp_path / "normal.json")
        assert run(capsys, "reduce", game, "--out", normal)[0] == 0
        code, out, _ = run(capsys, "equiv", normal, game, "--mode", "agency")
        assert (code, out) == (0, "agency: equivalent\n")
        assert run(capsys, "reduce", normal)[1] == (tmp_path / "normal.json").read_text()

    @pytest.mark.parametrize("forest", ["[]", "{}", "3"])
    def test_empty_or_non_list_forest_exits_2(self, capsys, tmp_path, forest):
        path = tmp_path / "forest.json"
        path.write_text('{"forest": %s}' % forest)
        for verb in (["equiv", str(path), str(path)], ["reduce", str(path)]):
            code, out, err = run(capsys, *verb)
            assert (code, out) == (2, "")
            assert "'forest' must be a nonempty list" in err

    def test_forest_of_different_players_exits_2(self, capsys, tmp_path):
        member = json.loads(fixture_text("swap_pair_left.json"))
        renamed = dict(member, players=[member["players"][0], "Q2"])
        path = tmp_path / "forest.json"
        path.write_text(json.dumps({"forest": [member, renamed]}))
        code, out, err = run(capsys, "equiv", str(path), str(path))
        assert (code, out) == (2, "")
        assert "must list the same players" in err


class TestEquiv:
    def test_swap_pair_agency_exit_0(self, capsys):
        code, out, _ = run(
            capsys, "equiv", fixture_path("swap_pair_left.json"),
            fixture_path("swap_pair_right.json"), "--mode", "agency", "--witness",
        )
        assert code == 0
        assert "equivalent" in out
        assert '"P1": "p2"' in out

    def test_swap_pair_relabel_exit_1(self, capsys):
        code, out, _ = run(
            capsys, "equiv", fixture_path("swap_pair_left.json"),
            fixture_path("swap_pair_right.json"), "--mode", "relabel",
        )
        assert code == 1
        assert "not equivalent" in out

    def test_structural_mode(self, capsys):
        code, _, _ = run(
            capsys, "equiv", fixture_path("swap_pair_left.json"),
            fixture_path("swap_pair_right.json"), "--mode", "structural",
        )
        assert code == 0

    def test_mixed_pair_agency_differs(self, capsys):
        code, _, _ = run(
            capsys, "equiv", fixture_path("mixed_a.game"),
            fixture_path("mixed_b.game"), "--mode", "agency",
        )
        assert code == 1

    def test_pinned_self_compare(self, capsys):
        code, _, _ = run(
            capsys, "equiv", fixture_path("mixed_a.game"), fixture_path("mixed_a.game"),
            "--mode", "relabel", "--pin", "players,outcomes",
        )
        assert code == 0

    def test_json_verdict(self, capsys):
        code, out, _ = run(
            capsys, "equiv", fixture_path("parity.game"), fixture_path("parity.game"),
            "--json",
        )
        assert code == 0
        assert json.loads(out)["equivalent"] is True


    def test_labeling_limit_exits_2(self, capsys):
        # one player choosing among 9 distinct outcomes: 9! symmetric labelings
        nine = fixture_path("nine_outcomes.json")
        code, out, err = run(capsys, "equiv", nine, nine)
        assert code == 2
        assert out == ""
        assert "too many symmetric labelings" in err


class TestSim:
    def test_self_similarity(self, capsys):
        code, out, _ = run(
            capsys, "sim", fixture_path("mixed_a.game"), fixture_path("mixed_a.game"),
            "--samples", "40", "--depth", "2", "--seed", "1",
        )
        assert code == 0
        assert "estimate 1.0000" in out

    def test_map_file(self, capsys):
        code, out, _ = run(
            capsys, "sim", fixture_path("mixed_a.game"), fixture_path("mixed_b.game"),
            "--map", fixture_path("mixed_psi.json"), "--samples", "60",
            "--depth", "2", "--seed", "4", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert 0.5 < doc["estimate"] < 1.0

    def test_missing_map_guidance(self, capsys):
        code, _, err = run(
            capsys, "sim", fixture_path("tictactoe.game"), fixture_path("3to15.game"),
            "--samples", "5", "--depth", "1",
        )
        assert code == 2
        assert "--map" in err

    def test_determinism_byte_exact(self, capsys):
        args = (
            "sim", fixture_path("mixed_a.game"), fixture_path("mixed_b.game"),
            "--map", fixture_path("mixed_psi.json"), "--samples", "30",
            "--depth", "2", "--seed", "9", "--json",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


    def test_map_tracks_not_object_exit_2(self, capsys, tmp_path):
        doc = json.loads(fixture_text("mixed_psi.json"))
        doc["tracks"] = [1, 2]
        path = tmp_path / "psi.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "sim", fixture_path("mixed_a.game"), fixture_path("mixed_b.game"),
            "--map", str(path), "--samples", "5",
        )
        assert code == 2
        assert "'tracks' must be an object" in err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_no_args(self, capsys):
        assert cli.main([]) == 2

    def test_negative_counts_exit_2(self, capsys):
        game = fixture_path("mixed_a.game")
        for argv in (
            ["tree", fixture_path("tictactoe.game"), "--depth", "-1", "--stats"],
            ["tree", game, "--budget", "-1"],
            ["reduce", game, "--budget", "-1"],
            ["equiv", game, game, "--budget", "-1"],
            ["sim", game, game, "--depth", "-5"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == "" and "non-negative" in err

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_non_positive_samples_is_a_usage_error(self, capsys, samples):
        """The parser refuses a sample count below 1, before any game is
        read, and says it must be positive."""
        game = fixture_path("mixed_a.game")
        code, out, err = run(capsys, "sim", game, game, "--samples", samples)
        assert (code, out) == (2, "")
        assert err.endswith(
            f"ludokit sim: error: argument --samples: must be positive, got {samples}\n"
        )


class TestCyclicGame:
    def test_validate_names_a_state_on_the_loop(self, capsys, tmp_path):
        path = tmp_path / "loop.game"
        path.write_text(LOOP_GAME)
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1 and err == ""
        assert "cycle: the reachable state graph has a cycle through t=a" in out

    def test_play_exits_2_within_a_second(self, capsys, tmp_path):
        path = tmp_path / "loop.game"
        path.write_text(LOOP_GAME)
        with deadline(1):
            code, out, err = run(capsys, "play", str(path))
        assert code == 2 and out == ""
        assert err.strip() == (
            "playthrough still running after 100000 rounds (at t=a); the game may cycle"
        )

    def test_depth_limited_tree_still_builds(self, capsys, tmp_path):
        path = tmp_path / "loop.game"
        path.write_text(LOOP_GAME)
        code, out, _ = run(capsys, "tree", str(path), "--depth", "3", "--stats")
        assert code == 0 and "truncated=1" in out


class TestResourceErrors:
    """Running out of memory or of recursion depth is exit 2 with one line
    on stderr, never a traceback with exit 1 ("not equivalent")."""

    @pytest.mark.parametrize("error, message", [
        (MemoryError, "out of memory"),
        (RecursionError, "recursion limit reached"),
    ])
    @pytest.mark.parametrize("argv, target", [
        (["validate", fixture_path("parity.game")], (cli, "check_completeness")),
        (["equiv", fixture_path("parity.game"), fixture_path("parity.game")],
         (equiv, "equivalent_up_to_relabeling")),
    ])
    def test_exit_2_with_one_line(self, capsys, monkeypatch, error, message, argv, target):
        def fail(*args, **kwargs):
            raise error()

        monkeypatch.setattr(*target, fail)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(message) and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("error, message", [
        (OSError(5, "Input/output error"), "operating system error: [Errno 5] Input/output error"),
        (TimeoutError("still running after 1 s"),
         "operating system error: still running after 1 s"),
        (TimeoutError(), "operating system error: TimeoutError"),
    ])
    def test_other_os_errors_do_not_name_stdout(self, capsys, monkeypatch, error, message):
        """Only a failed write or flush of stdout is blamed on stdout; an
        OSError from anywhere else gets a line of its own, and exit 2."""
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "check_completeness", fail)
        code, out, err = run(capsys, "validate", fixture_path("parity.game"))
        assert (code, out, err) == (2, "", message + "\n")

    @pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="needs resource.RLIMIT_AS")
    def test_full_forest_witness_under_a_memory_limit(self):
        """The full-forest witness of ttt vs 3to15 needs about 1.5 GB.  With
        the child's address space capped at 400 MB it runs out of memory,
        and the exit is 2 with one line, not a traceback.  The limit is set
        in the child only."""
        cap = 400 * 2**20

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        done = subprocess.run(
            [sys.executable, "-m", "ludokit", "equiv", "--witness",
             fixture_path("tictactoe.game"), fixture_path("3to15.game")],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=_src_env(),
            preexec_fn=limit, timeout=300,
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr == "out of memory\n"

    @pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="needs resource.RLIMIT_AS")
    @pytest.mark.parametrize("verb", [["validate"], ["tree", "--depth", "1"]])
    def test_initial_state_budget_under_a_memory_limit(self, tmp_path, verb):
        """Both verbs refuse to list the 3^90 candidate initial states of
        the 99-cell mutant: exit 2 with one line, well inside a 100 MB
        address-space cap set in the child."""
        path = tmp_path / "cells99.game"
        path.write_text(ninety_nine_cells())
        cap = 100 * 2**20

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        done = subprocess.run(
            [sys.executable, "-m", "ludokit", *verb, str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_src_env(),
            preexec_fn=limit, timeout=10,
        )
        assert (done.returncode, done.stdout) == (2, ""), done.stderr
        assert done.stderr == (
            "init leaves more than 10,000,000 candidate initial states to enumerate\n"
        )

    @pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="needs resource.RLIMIT_AS")
    @pytest.mark.parametrize("scope, code, out, err", [
        ("all", 2, "", "scope 'all' leaves more than 10,000,000 states to enumerate\n"),
        ("reachable", 0, "complete (2 states checked, scope reachable)\n", ""),
    ])
    def test_state_budget_under_a_memory_limit(self, tmp_path, scope, code, out, err):
        """The wide game has 2 reachable states in a product of 3^20:
        `--scope all` refuses to walk the product, exit 2 with one line,
        and `--scope reachable` checks the 2, both inside a 100 MB
        address-space cap set in the child."""
        path = tmp_path / "wide.game"
        path.write_text(WIDE_GAME)
        cap = 100 * 2**20

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        done = subprocess.run(
            [sys.executable, "-m", "ludokit", "validate", "--scope", scope, str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_src_env(),
            preexec_fn=limit, timeout=10,
        )
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)

    def test_state_budget_in_process(self, capsys, tmp_path):
        path = tmp_path / "wide.game"
        path.write_text(WIDE_GAME)
        with deadline(10):
            code, out, err = run(capsys, "validate", "--scope", "all", str(path))
        assert (code, out) == (2, "")
        assert err == "scope 'all' leaves more than 10,000,000 states to enumerate\n"

    @pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="needs resource.RLIMIT_AS")
    def test_play_starts_from_the_first_initial_state(self, tmp_path):
        """`play` draws only the first initial state of the 99-cell mutant,
        so it plays to an outcome inside the same 100 MB cap."""
        path = tmp_path / "cells99.game"
        path.write_text(ninety_nine_cells())
        cap = 100 * 2**20

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        done = subprocess.run(
            [sys.executable, "-m", "ludokit", "play", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_src_env(),
            preexec_fn=limit, timeout=10,
        )
        assert (done.returncode, done.stderr) == (0, ""), done.stderr
        assert done.stdout.splitlines()[-1].startswith("outcome: ")


class TestRobustness:
    def test_deep_nesting_exits_2_without_traceback(self, capsys, tmp_path):
        text = fixture_text("mixed_a.game").replace(
            "init u=p", "init " + "(" * 5000 + "u=p" + ")" * 5000
        )
        path = tmp_path / "deep.game"
        path.write_text(text)
        code, out, err = run(capsys, "tree", str(path), "--depth", "1")
        assert code == 2
        assert out == ""
        assert f"{path}:16:" in err and "nesting deeper than" in err
        assert "Traceback" not in err

    def test_non_ascii_digit_exits_2(self, capsys, tmp_path):
        text = fixture_text("mixed_a.game").replace(
            "init u=p", "init u=p\nforall i in ²..3 { legal P m when u=q }"
        )
        path = tmp_path / "digit.game"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert f"{path}:17:" in err and "integer range" in err
        assert "Traceback" not in err

    def test_long_named_set_chain_exits_2(self, capsys, tmp_path):
        sets = "".join(f"set S{k} = S{k + 1}\n" for k in range(1500)) + "set S1500 = u=p\n"
        text = fixture_text("mixed_a.game").replace("init u=p", sets + "init S0")
        path = tmp_path / "chain.game"
        path.write_text(text)
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert "named set 'S1000' starts a chain of set references" in err
        assert "Traceback" not in err

    def test_unknown_pin_flag_exits_2(self, capsys):
        parity = fixture_path("parity.game")
        code, out, err = run(capsys, "equiv", parity, parity, "--pin", "players,bogus")
        assert code == 2
        assert out == ""
        assert "unknown pin flags: ['bogus']" in err
        assert "Traceback" not in err

    def test_non_list_tuple_sequence_exits_2(self, capsys, tmp_path):
        doc = json.loads(fixture_text("swap_pair_left.json"))
        next(e for e in doc["edges"] if e["kind"] == "decision")["tuples"] = [5]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for verb in (["equiv", str(path), str(path)], ["reduce", str(path)]):
            code, out, err = run(capsys, *verb)
            assert code == 2
            assert out == ""
            assert "malformed tuple sequence 5" in err

    def test_duplicate_players_exit_2(self, capsys, tmp_path):
        doc = json.loads(fixture_text("swap_pair_left.json"))
        doc["players"] = [doc["players"][0]] * len(doc["players"])
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "equiv", str(path), str(path))
        assert code == 2
        assert out == ""
        assert "repeats a player name" in err

    def test_malformed_map_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "psi.json"
        path.write_text('{"tracks": ')
        code, out, err = run(
            capsys, "sim", fixture_path("mixed_a.game"), fixture_path("mixed_b.game"),
            "--map", str(path), "--samples", "5",
        )
        assert code == 2
        assert out == ""
        assert f"{path}: malformed state map JSON" in err

    def test_python_dash_m(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-m", "ludokit", "validate", fixture_path("tictactoe.game")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "complete" in done.stdout


# Each command reads the file named "{}" as its one arbitrary input.
_INPUT_ARGVS = [
    ("equiv", "{}.json", fixture_path("swap_pair_left.json")),
    ("equiv", "{}.game", fixture_path("parity.game")),
    ("reduce", "{}.json"),
    ("reduce", "{}.game"),
    ("validate", "{}.game"),
    ("sim", fixture_path("mixed_a.game"), fixture_path("mixed_b.game"),
     "--map", "{}.json", "--samples", "1"),
]


@settings(max_examples=120, deadline=None)
@given(
    data=st.binary(max_size=40) | st.text(max_size=40).map(str.encode),
    argv=st.sampled_from(_INPUT_ARGVS),
)
def test_any_input_bytes_keep_the_exit_contract(data, argv):
    """Whatever bytes an input file holds, `main` returns an exit code and
    raises nothing; bytes that are not UTF-8 are an input error (exit 2)."""
    with tempfile.TemporaryDirectory() as tmp:
        stem = os.path.join(tmp, "input")
        for suffix in (".json", ".game"):
            with open(stem + suffix, "wb") as handle:
                handle.write(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([arg.replace("{}", stem) for arg in argv])
    assert code in (0, 1, 2)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        assert code == 2
        assert "not UTF-8" in err.getvalue()


def _src_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestUnwritableStdout:
    """A report that cannot be written is exit 2 with one stderr line, never
    a traceback or exit 1, whichever verb writes it."""

    ARGVS = [
        ["validate", fixture_path("parity.game")],
        ["play", fixture_path("parity.game")],
        ["tree", "--depth", "1", fixture_path("parity.game")],
        ["reduce", fixture_path("parity.game")],
        ["equiv", "--witness", fixture_path("parity.game"), fixture_path("parity.game")],
        ["sim", "--samples", "1", fixture_path("parity.game"), fixture_path("parity.game")],
    ]

    @staticmethod
    def _run(argv, stdout, buffered=True):
        """Run the CLI on `stdout`; unless `buffered`, each write reaches the
        descriptor at once, so the failure comes from inside the verb rather
        than from the flush after it."""
        env = _src_env()
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run(
            [sys.executable, "-m", "ludokit", *argv], stdout=stdout,
            stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: argv[0])
    def test_closed_pipe_exits_2(self, argv, buffered):
        """The pipe's read end is closed before the child starts, so its
        first write to stdout fails with a broken pipe.  Buffered, the
        report is still held when `main` returns; the exit must stay 2, not
        the 120 Python gives a flush that fails at interpreter exit."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = self._run(argv, write_end, buffered)
        finally:
            os.close(write_end)
        assert done.returncode == 2, done.stderr
        assert done.stderr == "cannot write stdout: Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: argv[0])
    def test_full_device_exits_2(self, argv):
        with open("/dev/full", "w") as full:
            done = self._run(argv, full)
        assert done.returncode == 2, done.stderr
        assert done.stderr == "cannot write stdout: No space left on device\n"

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["tree", "--depth", "1", "--stats", "--out"],
        ["reduce", "--trace", "--out"],
    ], ids=lambda argv: argv[0])
    def test_stdout_failure_beside_an_output_file_names_stdout(self, tmp_path, argv, buffered):
        """A file open for `--out` does not take the blame for stdout."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = self._run([*argv, str(tmp_path / "out.json"), fixture_path("parity.game")],
                             write_end, buffered)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (2, "cannot write stdout: Broken pipe\n")

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: argv[0])
    def test_closed_descriptor_exits_2(self, argv):
        """Started with no stdout at all, Python sets `sys.stdout` to None."""
        done = subprocess.run(
            [sys.executable, "-m", "ludokit", *argv], stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, env=_src_env(), timeout=120,
            preexec_fn=lambda: os.close(1),
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr == "cannot write stdout: stdout is closed\n"

    def test_output_file_needs_no_stdout(self, tmp_path):
        out = tmp_path / "tree.json"
        done = subprocess.run(
            [sys.executable, "-m", "ludokit", "tree", "--depth", "1",
             fixture_path("parity.game"), "--out", str(out)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=_src_env(), timeout=120, preexec_fn=lambda: os.close(1),
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(out.read_text())["nodes"]


_SMALL_GAME = """\
game g
players A
track t { a, b }
decisions go
action flip { set t=b }
init t=a
legal A go when t=a
consequence (go) -> prob 1: flip
outcome default done
"""


class TestLongNumbers:
    """A number with more digits than `int()` converts is a positioned
    diagnostic and exit 2, wherever the grammar reads one."""

    NINES = "9" * 5000

    @pytest.mark.parametrize("old, new", [
        ("init t=a", "init t=a\nforall i in 1..NINES { legal A go when t=b }"),
        ("prob 1: flip", "prob NINES/1: flip"),
        ("init t=a", "init t=a\nforall i in 1..2 if i < NINES { legal A go when t=b }"),
    ], ids=["range-bound", "probability", "guard-constant"])
    def test_exit_2_at_the_token(self, capsys, tmp_path, old, new):
        text = _SMALL_GAME.replace(old, new.replace("NINES", self.NINES))
        lines = text.split("\n")
        line = next(k for k, source in enumerate(lines, 1) if self.NINES in source)
        col = lines[line - 1].index(self.NINES) + 1
        path = tmp_path / "long.game"
        path.write_text(text)
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert err == f"{path}:{line}:{col}: error: integer literal too long (5000 digits)\n"
