"""Grammar: parsing, diagnostics, macro expansion, serialization."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import generators
from conftest import fixture_text
from ludokit import core
from ludokit.dsl import (
    MAX_BINDINGS,
    GameParseError,
    Token,
    _Expander,
    _Parser,
    _lex,
    parse_game,
    serialize_game,
)
from ludokit.errors import LudokitError


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


class TestBindingLimit:
    """An integer range, and the combinations of one binder list, are
    bounded by `MAX_BINDINGS`, so a huge range is a diagnostic at once."""

    def test_huge_range_exits_2_at_once(self, tmp_path, capsys):
        import time

        from ludokit import cli

        path = tmp_path / "big.game"
        path.write_text(fixture_text("parity.game") + "forall z in 1..3000000 { }\n")
        started = time.process_time()
        code = cli.main(["validate", str(path)])
        assert time.process_time() - started < 1.0
        assert code == 2
        assert capsys.readouterr().err == (
            f"{path}:31:13: error: range 1..3000000 has 3000000 values, more than 100000\n"
        )

    def test_range_at_the_limit_is_accepted(self):
        assert MAX_BINDINGS == 100_000
        parse_game(MINIMAL + f"forall z in 1..{MAX_BINDINGS} {{ }}\n")
        assert any("has 100001 values" in m for m in diagnostics_of(
            MINIMAL + f"forall z in 0..{MAX_BINDINGS} {{ }}\n"
        ))

    def test_binder_product_is_bounded(self):
        """One diagnostic, at the first binder, and no second one for the
        comprehension expanding to no terms."""
        messages = diagnostics_of(MINIMAL.replace(
            "init t=a", "init (any i in 1..100, j in 1..100, k in 1..11: t=a)"
        ))
        assert messages == [
            "test.game:6:11: error: binders expand to 110000 combinations, more than 100000"
        ]
        # inside a forall, once, not once per iteration
        messages = diagnostics_of(MINIMAL.replace(
            "legal P m when t=a",
            "forall z in 1..3 { legal P m when (all i in 1..100, j in 1..100, k in 1..11: t=a) }",
        ))
        assert messages == [
            "test.game:7:40: error: binders expand to 110000 combinations, more than 100000"
        ]
        parse_game(MINIMAL.replace(
            "init t=a", "init (any i in 1..100, j in 1..100, k in 1..10 if i = j: t=a)"
        ))

    @pytest.mark.parametrize("game", [
        "tictactoe", "3to15", "misere", "perturbed", "endofturn", "forbidden", "parity",
        "mixed_a", "mixed_b",
    ])
    def test_every_fixture_parses(self, game):
        """3to15 combines three 1..9 binders: 729 combinations."""
        parse_game(fixture_text(f"{game}.game"), f"{game}.game")


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


def chain_of_sets(count: int, body: str = "{ref}") -> str:
    """MINIMAL with init S0 and sets S0 .. S<count-1>, each referencing the
    next through `body`; the last one is t=a."""
    sets = "".join(
        f"set S{k} = " + body.format(ref=f"S{k + 1}") + "\n" for k in range(count - 1)
    )
    return MINIMAL.replace("init t=a", sets + f"set S{count - 1} = t=a\ninit S0")


class TestNamedSetChains:
    def test_400_sets_parse_and_evaluate_as_defined(self):
        import oracles

        sys = parse_game(chain_of_sets(400))
        assert len(sys.named_sets) == 400
        assert core.initial_states(sys) == [("a",)] == oracles.initial_states(sys)
        for name in ("S0", "S200", "S399"):
            for state in core.enumerate_states(sys):
                assert core.eval_state_set(core.Ref(name), state, sys) is oracles.eval_expr(
                    sys, core.Ref(name), state
                )

    def test_1501_sets_is_a_diagnostic(self):
        messages = diagnostics_of(chain_of_sets(1501))
        assert len(messages) == 1
        assert "'S1000' starts a chain of set references 501 levels deep" in messages[0]

    def test_500_sets_is_the_limit(self):
        assert len(parse_game(chain_of_sets(500)).named_sets) == 500
        messages = diagnostics_of(chain_of_sets(501))
        assert len(messages) == 1 and "'S0' starts a chain" in messages[0]

    def test_deep_sets_count_their_helper_calls(self):
        # 120 alternating levels inside each set: 1 + 120 // 40 = 4 calls per set
        body = "(t=a and (t=b or " * 60 + "{ref}" + "))" * 60
        assert core.initial_states(parse_game(chain_of_sets(125, body))) == [("a",)]
        messages = diagnostics_of(chain_of_sets(126, body))
        assert len(messages) == 1 and "'S0' starts a chain" in messages[0]

    def test_cycle_in_a_long_chain(self):
        text = chain_of_sets(1000).replace("set S999 = t=a", "set S999 = S0")
        messages = diagnostics_of(text)
        assert any("cyclic named-set reference through 'S0'" in m for m in messages)


@pytest.mark.parametrize("where", [
    ("forall i in 1..3 if", "forall i in ²..3 if"),
    ("forall i in 1..3 if", "forall i in 1..³ if"),
    ("prob 1/2:", "prob ¹/2:"),
    ("prob 1/2:", "prob 1/²:"),
    ("if i > 1 {", "if i > ² {"),
])
def test_non_ascii_digits_are_diagnostics(where):
    text = MINIMAL.replace(
        "consequence (m) -> prob 1: go",
        "consequence (m) -> prob 1/2: go ; prob 1/2: go\n"
        "forall i in 1..3 if i > 1 { legal P m when t=b }",
    )
    old, new = where
    assert old in text
    assert diagnostics_of(text.replace(old, new))


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


# ---------------------------------------------------------------------------
# Fuzzing: whatever the text, only a LudokitError may escape the parser
# ---------------------------------------------------------------------------

FUZZ_GAMES = [
    "tictactoe", "3to15", "misere", "perturbed", "endofturn",
    "forbidden", "parity", "mixed_a", "mixed_b",
]
_TOKEN = re.compile(r"\w+|\s+|.", re.DOTALL)
_SPARE = ["(", ")", "{", "}", ",", ";", ":", "=", "..", "$i", "0", "*", "prob", "1/2",
          "when", "set", "not", "and", "or", "forall", "in", "if", "\n", " ", "#", "-1"]


def _parses_or_raises_ludokit_error(text: str) -> None:
    try:
        parse_game(text)
    except LudokitError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=400))
def test_parse_arbitrary_text(text):
    _parses_or_raises_ludokit_error(text)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_SPARE + ["players", "track", "P", "a", "x"]), max_size=60))
def test_parse_token_soup(tokens):
    _parses_or_raises_ludokit_error(" ".join(tokens))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(FUZZ_GAMES),
    st.lists(
        st.tuples(
            st.sampled_from(["delete", "duplicate", "replace", "insert", "swap"]),
            st.integers(0, 10**6),
            st.integers(0, 10**6),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_parse_mutated_fixtures(game, edits):
    tokens = _TOKEN.findall(fixture_text(f"{game}.game"))
    vocabulary = sorted(set(tokens)) + _SPARE
    for op, i, j in edits:
        i %= len(tokens)
        if op == "delete":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        elif op == "replace":
            tokens[i] = vocabulary[j % len(vocabulary)]
        elif op == "insert":
            tokens.insert(i, vocabulary[j % len(vocabulary)])
        else:
            j %= len(tokens)
            tokens[i], tokens[j] = tokens[j], tokens[i]
        if not tokens:
            tokens = [" "]
    _parses_or_raises_ludokit_error("".join(tokens))


# ---------------------------------------------------------------------------
# The front end's passes against their references in `oracles`
# ---------------------------------------------------------------------------

# Every punctuator, the characters that start one or several, blanks and
# line ends, "$", comments, and non-ASCII characters on both sides of
# `str.isalnum`: letters, decimal digits, a superscript and a Roman numeral
# (alphanumeric, not decimal), a no-break space, a form feed, a line
# separator and a currency sign (not alphanumeric).
_LEX_PIECES = [
    "->", "..", "<=", ">=", "!=", "{", "}", "(", ")", ",", ";", ":", "=", "*", "/",
    "+", "-", "<", ">", "!", ".", " ", "\t", "\r", "\n", "#", "# note", "$", "_",
    "a", "Z", "0", "9", "c$i", "é", "ß", "中", "٣", "²", "Ⅻ", " ", "\x0c",
    " ", "€", "players", "0x", "1..9",
]


def _lex_outcome(lex, text):
    try:
        return lex(text, "fuzz.game")
    except GameParseError as exc:
        return exc.diagnostics


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_LEX_PIECES), max_size=40).map("".join) | st.text(max_size=60))
def test_lexer_matches_the_reference(text):
    """The same tokens, or the same diagnostic, as the character-by-character
    lexer; a comment that ends the file leaves the end-of-file column at
    its "#"."""
    import oracles

    assert _lex_outcome(_lex, text) == _lex_outcome(oracles.reference_lex, text)


def test_comment_at_end_of_file_keeps_the_column():
    assert _lex("players P  # note", "p")[-1] == Token("eof", "", 1, 12)
    assert _lex("players P\n# note\n", "p")[-1] == Token("eof", "", 3, 1)
    assert _lex("", "p") == [Token("eof", "", 1, 1)]


def _arith_text():
    """Guard arithmetic over binders i and j, the outer forall variable w,
    the unbound q and the non-integer-valued x (bound to a name), with
    literals and parentheses."""
    atoms = st.sampled_from(["i", "j", "w", "q", "x", "0", "1", "2", "10"])
    return st.recursive(
        atoms,
        lambda kids: st.one_of(
            st.tuples(kids, st.sampled_from([" + ", " - ", " * "]), kids).map("".join),
            kids.map(lambda k: f"({k})"),
        ),
        max_leaves=6,
    )


def _guard_text():
    comparison = st.tuples(
        _arith_text(), st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), _arith_text()
    ).map(" ".join)
    return st.lists(comparison, min_size=1, max_size=3).map(" and ".join)


def _expand_both(text: str):
    import oracles

    decls = _Parser(_lex(text, "fuzz.game"), "fuzz.game").parse_file()
    mine, reference = _Expander("fuzz.game"), oracles.ReferenceExpander("fuzz.game")
    return (
        (mine.expand_decls(decls, {}), mine.diagnostics),
        (reference.expand_decls(decls, {}), reference.diagnostics),
    )


@settings(max_examples=300, deadline=None)
@given(
    _guard_text(),
    st.sampled_from(["any", "all"]),
    st.sampled_from(["i in 1..3", "i in {1, x, 2}", "i in 0..0"]),
    st.sampled_from(["j in 2..4", "i in {3, 1}", "j in {x}", "j in 1..2, k in {a, b}"]),
    st.sampled_from(["1..2", "{3, x}"]),
    st.booleans(),
)
def test_expansion_matches_the_reference(guard, kind, first, second, outer, as_forall):
    """Comprehensions and forall blocks under generated guards expand to the
    same declarations, with the same diagnostics in the same order (unbound
    variables, non-integer values, empty comprehensions), as when every
    guard is interpreted per combination."""
    x = "" if "x" in outer else "forall x in {v} { "
    close = "" if "x" in outer else " }"
    if as_forall:
        body = f"forall {first} if {guard} {{ decisions d$i$w$q }}"
    else:
        body = f"set S$w = ({kind} {first}, {second} if {guard}: t$i=v$j$q)"
    text = f"{x}forall w in {outer} {{ {body} }}{close}"
    mine, reference = _expand_both(text)
    assert mine == reference


def test_expansion_of_every_fixture_matches_the_reference():
    for game in ["tictactoe", "3to15", "endofturn", "forbidden", "parity", "mixed_a"]:
        mine, reference = _expand_both(fixture_text(f"{game}.game"))
        assert mine == reference and not mine[1]


def test_a_guard_too_large_to_compile_is_interpreted():
    """A 150-term sum is past what the guard compiler takes; its value and
    an unbound variable's diagnostics come from the interpreter."""
    guard = " + ".join(["i"] * 150)
    mine, reference = _expand_both(f"set S = (any i in 1..3 if {guard} = 300: t$i=v)")
    assert mine == reference and mine[0][0].expr.track.text == "t2"
    mine, reference = _expand_both(f"set S = (any i in 1..3 if {guard} + q = 300: t$i=v)")
    assert mine == reference and len(mine[1]) == 4  # three unbound q, then no terms
