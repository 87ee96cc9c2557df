"""Core semantics: state sets, actions, legality, consequences, play."""

from __future__ import annotations

import dataclasses
import functools
import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_path
from ludokit import core, dsl, tree
from ludokit.core import (
    And,
    GameSystem,
    Lit,
    Not,
    Or,
    Ref,
    TrackSpec,
    first_policy,
)
from ludokit.errors import (
    IllegalDecisionError,
    NoRuleMatchesError,
    NonTerminalStateError,
    TerminalStateError,
)


def state_of(sys, **assignment):
    base = {t.name: t.values[0] for t in sys.tracks}
    base.update(assignment)
    return sys.state_from_dict(base)


def board(sys, turn="start", **cells):
    base = {f"c{i}": "e" for i in range(1, 10)}
    base.update(cells)
    return state_of(sys, turn=turn, **base)


class TestEvalStateSet:
    def test_initial_state_in_init(self, ttt):
        s0 = core.initial_states(ttt)[0]
        assert core.eval_state_set(ttt.init, s0, ttt)

    def test_complement(self, ttt):
        s0 = core.initial_states(ttt)[0]
        assert not core.eval_state_set(Not(Lit("turn", "start")), s0, ttt)

    def test_winning_disjunction_on_sum15_triple(self, systems):
        # In the number-claiming rendering the triple {2, 7, 6} sums to 15.
        sys = systems["3to15"]
        s = state_of(sys, turn="O", n2="X", n7="X", n6="X",
                     **{f"n{i}": "e" for i in (1, 3, 4, 5, 8, 9)})
        assert core.eval_state_set(Ref("EX"), s, sys)
        assert core.eval_state_set(Ref("E"), s, sys)

    def test_row_win_on_grid(self, ttt):
        s = board(ttt, turn="O", c1="X", c2="X", c3="X")
        assert core.eval_state_set(Ref("EX"), s, ttt)
        assert not core.eval_state_set(Ref("EO"), s, ttt)


class TestApplyAction:
    def test_first_move_action(self, ttt):
        s0 = core.initial_states(ttt)[0]
        s1 = core.apply_action(ttt, "X_first", s0)
        assert ttt.state_to_dict(s1)["turn"] == "X"
        assert s1[1:] == s0[1:]

    def test_identity_when_no_clause_matches(self, ttt):
        s0 = core.initial_states(ttt)[0]
        assert core.apply_action(ttt, "next", s0) == s0

    def test_product_left_to_right(self, ttt):
        s = board(ttt, turn="X")
        s2 = core.apply_action(ttt, ("X_1", "next"), s)
        d = ttt.state_to_dict(s2)
        assert d["turn"] == "O" and d["c1"] == "X"

    def test_total_on_all_states(self, ttt):
        # apply_action never fails, whatever the state
        for s in list(core.enumerate_states(ttt))[:300]:
            for name in ("X_first", "next", "X_5"):
                out = core.apply_action(ttt, name, s)
                assert len(out) == len(ttt.tracks)


class TestLegalSets:
    def test_initial_legal_set(self, ttt):
        s0 = core.initial_states(ttt)[0]
        assert core.legal_set(ttt, "X", s0) == {"flip"}

    def test_wrong_turn_empty(self, ttt):
        s = board(ttt, turn="O")
        assert core.legal_set(ttt, "X", s) == frozenset()

    def test_nine_moves_on_empty_board(self, ttt):
        s = board(ttt, turn="X")
        assert core.legal_set(ttt, "X", s) == set(str(i) for i in range(1, 10))

    def test_win_blocks_play(self, ttt):
        s = board(ttt, turn="O", c1="X", c2="X", c3="X")
        assert core.legal_set(ttt, "O", s) == frozenset()


class TestHashConsedLegalSets:
    """The engine keeps one object per distinct legal set and per distinct
    tuple of them, so the sets it caches stay few for the collector."""

    def test_equal_legal_sets_are_one_object(self, ttt):
        s1 = board(ttt, turn="X", c1="X", c2="O")
        s2 = board(ttt, turn="X", c1="O", c2="X")
        assert s1 != s2
        assert core.legal_set(ttt, "X", s1) == set("3456789")
        assert core.legal_set(ttt, "X", s1) is core.legal_set(ttt, "X", s2)
        engine = ttt.engine()
        assert engine.legal_sets(s1) is engine.legal_sets(s2)

    @pytest.fixture
    def depth5_build(self):
        """A fresh system's engine, and the tracked objects its first
        depth-5 build leaves alive after a full collection."""
        system = dsl.parse_file(fixture_path("tictactoe.game"))
        engine = system.engine()
        gc.collect()
        before = len(gc.get_objects())
        t = tree.build_tree(system, core.initial_states(system)[0], depth_limit=5)
        gc.collect()
        return t, engine, len(gc.get_objects()) - before

    def test_depth5_build_keeps_one_tuple_per_distinct_value(self, depth5_build):
        t, engine, _ = depth5_build
        states = {s for s in t.node_state if s is not None}
        assert len(states) == 4_701
        tuples = [engine.legal_sets(s) for s in states]
        assert len({id(sets) for sets in tuples}) == len(set(tuples)) <= 766
        assert len({id(s) for sets in tuples for s in sets}) == 384

    def test_depth5_build_leaves_few_tracked_objects(self, depth5_build):
        """18,855 when each state kept its own tuple and frozensets."""
        _, _, tracked = depth5_build
        assert tracked <= 8_000


class TestTerminality:
    def test_initial_not_terminal(self, ttt):
        assert not core.is_terminal(ttt, core.initial_states(ttt)[0])

    def test_full_board_draw_terminal(self, ttt):
        s = board(ttt, turn="X", c1="X", c2="X", c3="O", c4="O", c5="O",
                  c6="X", c7="X", c8="X", c9="O")
        assert core.is_terminal(ttt, s)
        assert core.outcome(ttt, s) == "draw"

    def test_win_state_terminal(self, ttt):
        s = board(ttt, turn="O", c1="X", c2="X", c3="X")
        assert core.is_terminal(ttt, s)
        assert core.outcome(ttt, s) == "X_wins"

    def test_terminal_iff_no_legal_tuples(self, ttt):
        # cross-check the two code paths on a state sample
        states = list(core.enumerate_states(ttt))[::601]
        for s in states:
            empty = all(
                not core.legal_set(ttt, p, s) for p in ttt.players
            )
            assert core.is_terminal(ttt, s) == empty
            if empty:
                with pytest.raises(TerminalStateError):
                    core.legal_decision_tuples(ttt, s)


class TestDecisionTuples:
    def test_initial_tuple(self, ttt):
        s0 = core.initial_states(ttt)[0]
        assert core.legal_decision_tuples(ttt, s0) == [("flip", "flip")]

    def test_eight_replies(self, ttt):
        s = board(ttt, turn="O", c1="X")
        tuples = core.legal_decision_tuples(ttt, s)
        assert tuples == [(None, str(i)) for i in range(2, 10)]
        assert len(tuples) == 8

    def test_nine_openings(self, ttt):
        s = board(ttt, turn="X")
        tuples = core.legal_decision_tuples(ttt, s)
        assert tuples == [(str(i), None) for i in range(1, 10)]


class TestConsequences:
    def test_coin_flip(self, ttt):
        s0 = core.initial_states(ttt)[0]
        results = core.consequences(ttt, ("flip", "flip"), s0)
        assert results == (
            (Fraction(1, 2), ("X_first",)),
            (Fraction(1, 2), ("O_first",)),
        )

    def test_move_consequence(self, ttt):
        s = board(ttt, turn="X")
        assert core.consequences(ttt, ("1", None), s) == ((Fraction(1), ("X_1", "next")),)

    def test_probability_sum_enforced_at_validation(self, ttt):
        bad_rule = dataclasses.replace(
            ttt.consequence_rules[0],
            results=((Fraction(1, 2), ("X_first",)), (Fraction(1, 3), ("O_first",))),
        )
        bad = dataclasses.replace(
            ttt, consequence_rules=(bad_rule,) + ttt.consequence_rules[1:]
        )
        problems = core.validate_system(bad)
        assert any("sum" in p for p in problems)

    def test_strict_mode_flags_overlap(self, ttt):
        dup = dataclasses.replace(
            ttt, consequence_rules=ttt.consequence_rules + (ttt.consequence_rules[0],)
        )
        s0 = core.initial_states(dup)[0]
        with pytest.warns(core.AmbiguityWarning):
            core.consequences(dup, ("flip", "flip"), s0, strict=True)


class TestOutcome:
    def test_triple_outcome(self, systems):
        sys = systems["3to15"]
        s = state_of(sys, turn="O", n2="X", n7="X", n6="X",
                     **{f"n{i}": "e" for i in (1, 3, 4, 5, 8, 9)})
        # opponent can still move: block all wins first
        s = state_of(sys, turn="O", n2="X", n7="X", n6="X", n1="O", n3="O",
                     n4="O", n5="O", n8="O", n9="O")
        assert core.outcome(sys, s) == "X_wins"

    def test_non_terminal_errors(self, ttt):
        with pytest.raises(NonTerminalStateError):
            core.outcome(ttt, core.initial_states(ttt)[0])


class TestEnumerateStates:
    def test_product_size(self, ttt):
        expected = 1
        for t in ttt.tracks:
            expected *= len(t.values)
        assert expected == 3 ** 10 == 59049
        assert sum(1 for _ in core.enumerate_states(ttt)) == expected

    def test_filter_by_init(self, ttt):
        assert len(core.initial_states(ttt)) == 1

    def test_single_track_stream(self):
        sys = _tiny_system()
        assert list(core.enumerate_states(sys)) == [("a",), ("b",)]


def _tiny_system() -> GameSystem:
    track = TrackSpec("t", ("a", "b"))
    return GameSystem(
        players=("P",),
        tracks=(track,),
        init=Lit("t", "a"),
        decisions=("m",),
        actions={"go": core.ActionDef("go", (core.ActionClause(Lit("t", "a"), (("t", "b"),)),))},
        consequence_rules=(core.ConsequenceRule(("m",), None, ((Fraction(1), ("go",)),)),),
        legality_rules=(core.LegalityRule("P", "m", Lit("t", "a")),),
        outcomes=("done",),
        outcome_rules=(),
        default_outcome="done",
    )


class TestCompleteness:
    def test_tictactoe_reachable_complete(self, ttt):
        report = core.check_completeness(ttt, scope="reachable")
        assert report.complete
        assert report.states_checked > 5000

    def test_tictactoe_all_complete(self, ttt):
        report = core.check_completeness(ttt, scope="all")
        assert report.complete
        assert report.states_checked == 59049

    def test_missing_consequence_detected(self, ttt):
        broken = dataclasses.replace(ttt, consequence_rules=ttt.consequence_rules[1:])
        report = core.check_completeness(broken, scope="reachable")
        kinds = {v.kind for v in report.violations}
        assert "no-consequence" in kinds
        witness = next(v for v in report.violations if v.kind == "no-consequence")
        assert witness.decision_tuple == ("flip", "flip")

    def test_probability_sum_violation_reported(self, ttt):
        bad_rule = dataclasses.replace(
            ttt.consequence_rules[0],
            results=((Fraction(1, 2), ("X_first",)), (Fraction(1, 3), ("O_first",))),
        )
        bad = dataclasses.replace(
            ttt, consequence_rules=(bad_rule,) + ttt.consequence_rules[1:]
        )
        report = core.check_completeness(bad, scope="reachable")
        assert any(v.kind == "probability-sum" for v in report.violations)

    def test_empty_initial_set(self, ttt):
        impossible = dataclasses.replace(
            ttt, init=And((Lit("turn", "start"), Lit("turn", "X")))
        )
        report = core.check_completeness(impossible)
        assert any(v.kind == "empty-initial-set" for v in report.violations)


class TestPlay:
    def test_playthrough_legal_and_ends(self, ttt):
        s0 = core.initial_states(ttt)[0]
        result = core.play(ttt, s0, seed=7)
        assert result.outcome in ("X_wins", "O_wins", "draw")
        for step in result.steps:
            for player, decision in zip(ttt.players, step.decision_tuple):
                legal = core.legal_set(ttt, player, step.state)
                if decision is None:
                    assert not legal
                else:
                    assert decision in legal
        assert core.is_terminal(ttt, result.steps[-1].next_state)

    def test_determinism(self, ttt):
        s0 = core.initial_states(ttt)[0]
        assert core.play(ttt, s0, seed=123) == core.play(ttt, s0, seed=123)
        assert core.play(ttt, s0, seed=123) != core.play(ttt, s0, seed=124)

    def test_first_policy(self, ttt):
        s0 = core.initial_states(ttt)[0]
        result = core.play(ttt, s0, policy=first_policy, seed=5)
        # after the coin, the mover always claims the lowest open cell
        moves = [step.decision_tuple for step in result.steps[1:]]
        claimed = [d for t in moves for d in t if d is not None]
        assert claimed == sorted(claimed)

    def test_coin_frequency(self, ttt):
        s0 = core.initial_states(ttt)[0]
        x_first = 0
        n = 10_000
        for seed in range(n):
            result = core.play(ttt, s0, seed=seed)
            if result.steps[0].actions == ("X_first",):
                x_first += 1
        assert abs(x_first / n - 0.5) < 0.02

    def test_illegal_policy_rejected(self, ttt):
        s0 = core.initial_states(ttt)[0]
        with pytest.raises(IllegalDecisionError):
            core.play(ttt, s0, policy=lambda p, legal, s: "9", seed=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_apply_action_total_property(seed):
    """Actions are total state transformers on random small systems."""
    import random as _random

    import generators

    rng = _random.Random(seed)
    sys = generators.random_system(rng)
    assert core.validate_system(sys) == []
    states = list(core.enumerate_states(sys))
    for _ in range(10):
        s = rng.choice(states)
        name = rng.choice(sorted(sys.actions))
        result = core.apply_action(sys, name, s)
        assert len(result) == len(sys.tracks)
        for value, track in zip(result, sys.tracks):
            assert value in track.values


# ---------------------------------------------------------------------------
# The generated rule engine against first-principles semantics
# ---------------------------------------------------------------------------

_TRACKS = (
    TrackSpec("a", ("0", "1", "2")),
    TrackSpec("b", ("x", "y")),
    TrackSpec("c", ("p", "q")),
)


@functools.lru_cache(maxsize=None)
def _expressions(refs: tuple[str, ...]):
    lits = st.sampled_from([Lit(t.name, v) for t in _TRACKS for v in t.values])
    leaves = lits | st.sampled_from([Ref(n) for n in refs]) if refs else lits

    def compound(kids):
        parts = st.lists(kids, max_size=4).map(tuple)
        return st.builds(Not, kids) | st.builds(And, parts) | st.builds(Or, parts)

    return st.recursive(leaves, compound, max_leaves=25)


def _expr_system(named_sets: dict, init=Lit("a", "0")) -> GameSystem:
    return GameSystem(
        players=("P",),
        tracks=_TRACKS,
        init=init,
        decisions=(),
        actions={},
        consequence_rules=(),
        legality_rules=(),
        outcomes=("o",),
        outcome_rules=(),
        default_outcome="o",
        named_sets=named_sets,
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_generated_expressions_match_first_principles(data):
    """Every expression evaluates as its definition says, on every state."""
    import oracles

    named_sets: dict = {}
    for i in range(data.draw(st.integers(0, 3))):
        named_sets[f"S{i}"] = data.draw(_expressions(tuple(named_sets)))
    expr = data.draw(_expressions(tuple(named_sets)))
    sys = _expr_system(named_sets, init=expr)
    engine = sys.engine()
    fn = engine.compile(expr)
    for state in core.enumerate_states(sys):
        assert engine.eval(fn, state) is oracles.eval_expr(sys, expr, state)
    assert core.initial_states(sys) == oracles.initial_states(sys)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_engine_matches_first_principles_on_random_systems(seed):
    """Legal sets, consequences, actions and outcomes on every state."""
    import itertools
    import random as _random

    import generators
    import oracles

    sys = generators.random_system(_random.Random(seed))
    engine = sys.engine()
    choices = [(None,) + sys.decisions] * len(sys.players)
    for state in core.enumerate_states(sys):
        assert engine.legal_sets(state) == oracles.legal_sets(sys, state)
        assert engine.outcome(state) == oracles.outcome(sys, state)
        for name in sys.actions:
            assert core.apply_action(sys, name, state) == oracles.apply_action(sys, name, state)
        for dtuple in itertools.product(*choices):
            expected = oracles.consequences(sys, dtuple, state)
            if expected is None:
                with pytest.raises(NoRuleMatchesError):
                    engine.consequences(dtuple, state)
            else:
                assert engine.consequences(dtuple, state) == expected
    assert core.initial_states(sys) == oracles.initial_states(sys)


# Consequence rules over two players choosing among m, n and z; no pattern
# names z, so a tuple with z matches only wildcards.
_CHOICES = (None, "m", "n", "z")
_PATTERN_ENTRIES = st.sampled_from(("m", "n", None, core.WILDCARD))
_GUARDS = _expressions(())


@st.composite
def _consequence_systems(draw):
    """Two players on `_TRACKS` with random consequence rules.

    Patterns mix exact, null and wildcard entries, guards are random state
    sets or absent, and one pattern always has a guarded rule right ahead of
    an unguarded one.  Rule k's one result applies action `r<k>`, which sets
    track a to k mod 3, so results tell rules apart and builds go places.
    Legality is random per player, decision and state set.
    """
    patterns = st.tuples(_PATTERN_ENTRIES, _PATTERN_ENTRIES)
    rules = draw(st.lists(st.tuples(patterns, st.none() | _GUARDS), max_size=5))
    shadowed = draw(patterns)
    at = draw(st.integers(0, len(rules)))
    rules[at:at] = [(shadowed, draw(_GUARDS)), (shadowed, None)]
    legality = [
        core.LegalityRule(player, decision, draw(_GUARDS))
        for player in ("P", "Q")
        for decision in ("m", "n", "z")
        if draw(st.booleans())
    ]
    return GameSystem(
        players=("P", "Q"),
        tracks=_TRACKS,
        init=Lit("a", "0"),
        decisions=("m", "n", "z"),
        actions={
            f"r{k}": core.ActionDef(f"r{k}", (core.ActionClause(None, (("a", str(k % 3)),)),))
            for k in range(len(rules))
        },
        consequence_rules=tuple(
            core.ConsequenceRule(pattern, guard, ((Fraction(1), (f"r{k}",)),))
            for k, (pattern, guard) in enumerate(rules)
        ),
        legality_rules=tuple(legality),
        outcomes=("o",),
        outcome_rules=(),
        default_outcome="o",
    )


@settings(max_examples=150, deadline=None)
@given(_consequence_systems(), st.booleans())
def test_consequences_match_first_principles(sys, strict_first):
    """Plain and strict lookups, first and repeated, in either order, give
    the first rule whose pattern and guard match; strict lookups warn when
    more than one does, and a tuple no rule matches raises."""
    import itertools
    import warnings

    import oracles

    engine = sys.engine()
    lookups = [True, False, True] if strict_first else [False, True, False]
    for strict in lookups:
        for state in core.enumerate_states(sys):
            for dtuple in itertools.product(_CHOICES, repeat=2):
                expected = oracles.consequences(sys, dtuple, state)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    if expected is None:
                        with pytest.raises(NoRuleMatchesError):
                            engine.consequences(dtuple, state, strict=strict)
                    else:
                        assert engine.consequences(dtuple, state, strict=strict) == expected
                ambiguous = strict and len(oracles.matching_rules(sys, dtuple, state)) > 1
                assert [w.category for w in caught] == (
                    [core.AmbiguityWarning] if ambiguous else []
                )


@settings(max_examples=150, deadline=None)
@given(_consequence_systems(), st.integers(0, 2))
def test_builds_match_first_principles_consequences(sys, depth):
    """A depth-limited build equals, byte for byte, the build whose engine
    reads consequences off the rules; where that build meets a tuple no
    rule matches, at an expanded node or at the truncated frontier, both
    raise."""
    import oracles
    from ludokit import tree

    s0 = core.initial_states(sys)[0]
    try:
        want = tree.export_json(tree.build_tree(oracles.with_oracle_consequences(sys), s0, depth))
    except NoRuleMatchesError:
        with pytest.raises(NoRuleMatchesError):
            tree.build_tree(sys, s0, depth)
    else:
        assert tree.export_json(tree.build_tree(sys, s0, depth)) == want


class TestGeneratedEngine:
    def test_deep_expressions_split_into_helpers(self):
        """Nesting far past one generated function's depth still evaluates."""
        import oracles

        deep = Lit("b", "x")
        for i in range(300):
            deep = Not(deep) if i % 3 else And((Lit("c", "p"), Or((deep, Lit("a", "2")))))
        sys = _expr_system({"D": deep}, init=Not(Ref("D")))
        for state in core.enumerate_states(sys):
            assert core.eval_state_set(deep, state, sys) is oracles.eval_expr(sys, deep, state)
        assert core.initial_states(sys) == oracles.initial_states(sys)

    def test_names_with_quotes_and_parentheses(self):
        """Names and values from a system never reach the generated source."""
        import oracles

        t = TrackSpec("t') or True or ('", ('a"); raise SystemExit("', "b')", "\\"))
        u = TrackSpec('u"]', (")", "(("))
        named = {"x) or (1": Or((Lit(t.name, "b')"), Lit(u.name, ")")))}
        act = core.ActionDef(
            "go'", (core.ActionClause(Ref("x) or (1"), ((t.name, "\\"), (u.name, "(("))),)
        )
        sys = GameSystem(
            players=("P')",),
            tracks=(t, u),
            init=And((Lit(t.name, 'a"); raise SystemExit("'), Lit(u.name, ")"))),
            decisions=('m"',),
            actions={act.name: act},
            consequence_rules=(
                core.ConsequenceRule(('m"',), Ref("x) or (1"), ((Fraction(1), (act.name,)),)),
            ),
            legality_rules=(core.LegalityRule("P')", 'm"', Not(Lit(t.name, "\\"))),),
            outcomes=("o')",),
            outcome_rules=(core.OutcomeRule(Lit(u.name, "(("), "o')"),),
            default_outcome="o')",
            named_sets=named,
        )
        assert core.validate_system(sys) == []
        engine = sys.engine()
        assert core.initial_states(sys) == [('a"); raise SystemExit("', ")")]
        for state in core.enumerate_states(sys):
            assert engine.legal_sets(state) == oracles.legal_sets(sys, state)
            assert engine.outcome(state) == oracles.outcome(sys, state)
            assert core.apply_action(sys, act.name, state) == oracles.apply_action(
                sys, act.name, state
            )
            if oracles.consequences(sys, ('m"',), state) is not None:
                assert engine.consequences(('m"',), state) == oracles.consequences(
                    sys, ('m"',), state
                )

    def test_consequence_index_keeps_first_match_order(self):
        wild = core.ConsequenceRule(("*",), Lit("t", "b"), ((Fraction(1), ("stay",)),))
        exact = core.ConsequenceRule(("m",), None, ((Fraction(1), ("go",)),))
        base = _tiny_system()
        sys = dataclasses.replace(
            base,
            actions={**base.actions, "stay": core.ActionDef("stay", ())},
            consequence_rules=(wild, exact),
        )
        assert core.consequences(sys, ("m",), ("a",)) == exact.results
        assert core.consequences(sys, ("m",), ("b",)) == wild.results
        with pytest.warns(core.AmbiguityWarning):
            assert core.consequences(sys, ("m",), ("b",), strict=True) == wild.results
        with pytest.raises(NoRuleMatchesError):
            core.consequences(sys, (None,), ("a",))


class TestInitialStates:
    def test_every_fixture_matches_the_brute_force_filter(self, systems):
        import oracles

        for name, sys in systems.items():
            assert core.initial_states(sys) == oracles.initial_states(sys), name

    def test_conjunctive_init_tests_one_candidate(self, ttt, monkeypatch):
        engine = ttt.engine()
        tested = []
        init_fn = engine.init_fn
        monkeypatch.setattr(engine, "init_fn", lambda s, m: tested.append(s) or init_fn(s, m))
        assert core.initial_states(ttt) == [("start",) + ("e",) * 9]
        assert len(tested) == 1

    @pytest.mark.parametrize(
        "init, expected",
        [
            ("(t=a or t=c) and u=p", [("a", "p"), ("c", "p")]),
            ("not t=a and u=q", [("b", "q"), ("c", "q"), ("d", "q")]),
            ("start and t=b", [("b", "q")]),
            ("t=d or u=q", [("a", "q"), ("b", "q"), ("c", "q"), ("d", "p"), ("d", "q")]),
        ],
    )
    def test_inits_beyond_a_conjunction_of_literals(self, init, expected):
        import oracles
        from conftest import fixture_text
        from ludokit import dsl

        text = fixture_text("mixed_a.game").replace(
            "init u=p", f"set start = u=q and not t=c\ninit {init}"
        )
        sys = dsl.parse_game(text)
        assert core.initial_states(sys) == expected == oracles.initial_states(sys)

    def test_contradictory_literals(self):
        from conftest import fixture_text
        from ludokit import dsl

        sys = dataclasses.replace(_tiny_system(), init=And((Lit("t", "a"), Lit("t", "b"))))
        assert core.initial_states(sys) == []
        text = fixture_text("mixed_a.game").replace("init u=p", "init u=p and t=a and u=q")
        with pytest.raises(dsl.GameParseError, match="no state satisfies"):
            dsl.parse_game(text)
