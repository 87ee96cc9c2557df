"""Grammar: parsing, diagnostics, macro expansion, serialization."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import generators
from conftest import fixture_text
from ludokit import core
from ludokit.dsl import GameParseError, parse_game, serialize_game


MINIMAL = """
players P
track t { a, b }
decisions m
action go { when t=a set t=b }
init t=a
legal P m when t=a
consequence (m) -> prob 1: go
outcome default done
"""


def diagnostics_of(text: str) -> list[str]:
    with pytest.raises(GameParseError) as excinfo:
        parse_game(text, "test.game")
    return [str(d) for d in excinfo.value.diagnostics]


class TestParsing:
    def test_tictactoe_shape(self):
        sys = parse_game(fixture_text("tictactoe.game"), "tictactoe.game")
        assert len(sys.players) == 2
        assert len(sys.tracks) == 10
        assert len(sys.decisions) == 10
        assert sys.name == "tictactoe"

    def test_forall_legality_expansion(self):
        sys = parse_game(fixture_text("tictactoe.game"), "tictactoe.game")
        x_moves = [
            r for r in sys.legality_rules if r.player == "X" and r.decision != "flip"
        ]
        assert len(x_moves) == 9
        assert sorted(r.decision for r in x_moves) == [str(i) for i in range(1, 10)]

    def test_minimal_system(self):
        sys = parse_game(MINIMAL)
        assert sys.players == ("P",)
        assert sys.default_outcome == "done"
        assert core.check_completeness(sys).complete

    def test_comprehension_all(self):
        sys = parse_game(MINIMAL.replace("init t=a", "init (all v in {a}: t=$v)"))
        assert sys.init == core.Lit("t", "a")

    def test_comprehension_any_with_guard(self):
        text = MINIMAL.replace(
            "init t=a", "init (any i in 1..3 if i < 3: t=a)"
        )
        sys = parse_game(text)
        # two instantiations of the same literal, flattened disjunction
        assert isinstance(sys.init, core.Or) or sys.init == core.Lit("t", "a")

    def test_wildcard_pattern(self):
        text = MINIMAL.replace(
            "consequence (m) -> prob 1: go", "consequence (*) -> prob 1: go"
        )
        sys = parse_game(text)
        assert sys.consequence_rules[0].pattern == (core.WILDCARD,)

    def test_null_pattern(self):
        text = MINIMAL + "consequence (0) -> prob 1: go\n"
        sys = parse_game(text)
        assert sys.consequence_rules[1].pattern == (None,)


class TestDiagnostics:
    def test_probability_sum(self):
        text = MINIMAL.replace(
            "consequence (m) -> prob 1: go",
            "consequence (m) -> prob 1/2: go ; prob 1/3: go",
        )
        messages = diagnostics_of(text)
        assert any("sum" in m for m in messages)

    def test_span_format(self):
        messages = diagnostics_of(MINIMAL.replace("legal P m", "legal Q m"))
        assert any(re.match(r"test\.game:\d+:\d+: error: .*Q", m) for m in messages)

    def test_unknown_track(self):
        assert any("unknown track" in m for m in diagnostics_of(
            MINIMAL.replace("init t=a", "init z=a")))

    def test_unknown_value(self):
        assert any("no value" in m for m in diagnostics_of(
            MINIMAL.replace("init t=a", "init t=z")))

    def test_unknown_decision_in_pattern(self):
        assert any("unknown decision" in m for m in diagnostics_of(
            MINIMAL.replace("consequence (m)", "consequence (zz)")))

    def test_unknown_action(self):
        assert any("unknown action" in m for m in diagnostics_of(
            MINIMAL.replace("prob 1: go", "prob 1: gone")))

    def test_arity_mismatch(self):
        assert any("arity" in m for m in diagnostics_of(
            MINIMAL.replace("consequence (m)", "consequence (m, m)")))

    def test_cyclic_named_sets(self):
        text = MINIMAL + "set A = B\nset B = A\n"
        assert any("cyclic" in m for m in diagnostics_of(text))

    def test_unbound_macro_variable(self):
        assert any("unbound macro variable" in m for m in diagnostics_of(
            MINIMAL.replace("init t=a", "init t=$q")))

    def test_reserved_decision_name(self):
        assert any("reserved" in m for m in diagnostics_of(
            MINIMAL.replace("decisions m", "decisions m, 0")))

    def test_duplicate_track(self):
        assert any("duplicate track" in m for m in diagnostics_of(
            MINIMAL + "track t { x }\n"))

    def test_missing_default_outcome(self):
        assert any("default outcome" in m for m in diagnostics_of(
            MINIMAL.replace("outcome default done", "")))

    def test_unsatisfiable_init(self):
        assert any("init" in m for m in diagnostics_of(
            MINIMAL.replace("init t=a", "init t=a and t=b")))

    def test_syntax_error_has_position(self):
        messages = diagnostics_of("players P\ntrack t {")
        assert messages and re.match(r"test\.game:\d+:\d+: error:", messages[0])

    def test_empty_comprehension(self):
        assert any("expands to no terms" in m for m in diagnostics_of(
            MINIMAL.replace("init t=a", "init (any i in 1..3 if i > 9: t=a)")))

    def test_deep_nesting_is_a_diagnostic(self):
        deep = MINIMAL.replace("init t=a", "init " + "(" * 5000 + "t=a" + ")" * 5000)
        messages = diagnostics_of(deep)
        assert len(messages) == 1
        assert messages[0].startswith("test.game:6:")
        assert "nesting deeper than" in messages[0]

    def test_deep_guard_and_forall_nesting_are_diagnostics(self):
        guard = MINIMAL.replace(
            "legal P m when t=a",
            "forall i in 1..2 if " + "(" * 5000 + "i" + ")" * 5000 + " = 1 { legal P m when t=a }",
        )
        assert any("nesting deeper than" in m for m in diagnostics_of(guard))
        blocks = MINIMAL.replace(
            "legal P m when t=a", "forall i in 1..1 { " * 5000 + "legal P m when t=a" + " }" * 5000
        )
        assert any("nesting deeper than" in m for m in diagnostics_of(blocks))


class TestDeepNesting:
    @pytest.mark.parametrize("opener", [
        "(t=a and ", "(t=a or ", "not (", "(all i in 1..1: ", "(t=b or not t=a and ",
    ])
    def test_500_levels_parse_evaluate_and_serialize(self, opener):
        import oracles

        levels = opener.count("(") + opener.count("not")
        n = 500 // levels
        text = MINIMAL.replace(
            "init t=a", "init " + opener * n + "t=a" + ")" * (n * opener.count("("))
        )
        sys = parse_game(text)
        assert core.initial_states(sys) == oracles.initial_states(sys)
        printed = serialize_game(sys)
        assert serialize_game(parse_game(printed)) == printed

    def test_400_nots_parse_and_evaluate_as_defined(self):
        import oracles

        for count, expected in ((400, [("a",)]), (401, [("b",)])):
            sys = parse_game(MINIMAL.replace("init t=a", "init " + "not " * count + "t=a"))
            init = sys.init
            for _ in range(count):
                assert isinstance(init, core.Not)
                init = init.operand
            assert init == core.Lit("t", "a")
            assert core.initial_states(sys) == expected == oracles.initial_states(sys)
            for state in core.enumerate_states(sys):
                assert core.eval_state_set(sys.init, state, sys) is oracles.eval_expr(
                    sys, sys.init, state
                )

    def test_chained_named_sets_of_400_nots(self):
        # 1200 negations in all, too deep for the recursive oracle
        sets = "set A = " + "not " * 400 + "B\nset B = " + "not " * 400 + "C\nset C = " + (
            "not " * 400 + "t=a\n"
        )
        sys = parse_game(MINIMAL.replace("init t=a", sets + "init A"))
        assert core.initial_states(sys) == [("a",)]
        assert core.eval_state_set(core.Ref("A"), ("b",), sys) is False

    def test_long_guard_arithmetic(self):
        sys = parse_game(MINIMAL.replace(
            "legal P m when t=a",
            "forall i in 1..3 if " + " + ".join(["i"] * 3000) + " - 2 * (i + i) * 1 = 5992 "
            "{ legal P m when t=a }",
        ))
        assert len(sys.legality_rules) == 1


class TestSerialization:
    @pytest.mark.parametrize("name", [
        "tictactoe", "3to15", "misere", "perturbed", "endofturn",
        "forbidden", "parity", "mixed_a", "mixed_b",
    ])
    def test_round_trip_fixtures(self, name):
        sys = parse_game(fixture_text(f"{name}.game"), f"{name}.game")
        text = serialize_game(sys)
        again = parse_game(text, f"{name}.serialized")
        assert again == sys

    def test_rule_order_preserved(self):
        text = MINIMAL + "outcome early when t=b\noutcome late when t=b\n"
        sys = parse_game(text)
        again = parse_game(serialize_game(sys))
        assert [r.outcome for r in again.outcome_rules] == ["early", "late"]

    def test_serialization_is_fixed_point(self):
        sys = parse_game(fixture_text("tictactoe.game"))
        once = serialize_game(sys)
        twice = serialize_game(parse_game(once))
        assert once == twice

    def test_macros_not_reconstructed(self):
        sys = parse_game(fixture_text("tictactoe.game"))
        assert "forall" not in serialize_game(sys)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_round_trip_random_systems(seed):
    """parse(serialize(sys)) == sys over random structurally valid systems."""
    sys = generators.random_system(random.Random(seed))
    assert core.validate_system(sys) == []
    text = serialize_game(sys)
    again = parse_game(text, "generated.game")
    assert again == sys
