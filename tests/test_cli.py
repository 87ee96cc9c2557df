"""Command-line interface: verdict exit codes, reports, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from conftest import fixture_path, fixture_text
from ludokit import cli


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


    def test_non_integer_node_id_exit_2(self, capsys, tmp_path):
        doc = json.loads(fixture_text("swap_pair_right.json"))
        doc["nodes"][0]["id"] = [doc["nodes"][0]["id"]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "reduce", str(path))
        assert code == 2
        assert "integer node id" in err


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
            ["sim", game, game, "--samples", "-1"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == "" and "non-negative" in err


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
