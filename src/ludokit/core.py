"""Executable game-system semantics: states, legality, consequences, outcomes, play.

A game system is a finite description of a discrete game without hidden
information: a list of players, a factored state space (one finite value
track per factor), a set of decisions players may take, state-modifying
actions, and three rule families tying them together (legality, consequence,
outcome).  Everything here is exact: probabilities are `fractions.Fraction`
end to end, so downstream equality checks never depend on float tolerance.

Systems are immutable after construction and safe to share across threads.
All operations are pure functions of their inputs plus an explicit seed.
"""

from __future__ import annotations

import functools
import itertools
import random
import warnings
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .errors import (
    AmbiguityWarning,
    IllegalDecisionError,
    NoRuleMatchesError,
    NonTerminalStateError,
    RoundLimitError,
    TerminalStateError,
)

# A probability is an exact rational in (0, 1]; Fraction already stores
# lowest terms and gives exact arithmetic.
Probability = Fraction

# One value identifier per track, in track-list order.
GameState = tuple[str, ...]

# One entry per player: a decision identifier, or None for the null decision.
DecisionTuple = tuple[Optional[str], ...]

# In consequence-rule patterns, "*" matches any decision including null.
WILDCARD = "*"

# Nodes a tree build may create before it refuses.  It lives here, not in
# `tree`, so that the command line's defaults need no tree-layer import.
DEFAULT_NODE_BUDGET = 10_000_000


# ---------------------------------------------------------------------------
# Value records
# ---------------------------------------------------------------------------


def _record_eq(self, other):
    if self.__class__ is other.__class__:
        return tuple.__eq__(self, other)
    return False if isinstance(other, tuple) else NotImplemented


def _record_ne(self, other):
    eq = _record_eq(self, other)
    return eq if eq is NotImplemented else not eq


def typed_record(cls):
    """Make a NamedTuple record equal only to records of its own class.

    Plain tuple equality would give ``And(p) == Or(p)`` and
    ``Lit("t", "a") == ("t", "a")``.  The hash stays the tuple's, which is
    consistent with this equality and is the hash a frozen dataclass gave:
    that of its field tuple.
    """
    cls.__eq__, cls.__ne__, cls.__hash__ = _record_eq, _record_ne, tuple.__hash__
    return cls


class SlotRecord:
    """Base of the records with mutable or lazily filled fields.

    A subclass declares its `__slots__` and an `__init__`; `_fields` names
    the constructor's fields in order.  Records of one class are equal when
    those fields are, `repr` shows the fields not in `_hidden`, and a record
    is unhashable: the equality, `repr` and hash a mutable dataclass with
    the same fields gave.  `_replace` returns a copy with some fields
    changed, as a NamedTuple's does.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _hidden: frozenset[str] = frozenset()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields if f not in self._hidden
        )
        return f"{self.__class__.__qualname__}({shown})"

    def _replace(self, **changes):
        values = {f: getattr(self, f) for f in self._fields}
        values.update(changes)
        return self.__class__(**values)


# ---------------------------------------------------------------------------
# State-set expressions
# ---------------------------------------------------------------------------


@typed_record
class Lit(NamedTuple):
    """Literal ``track = value``: the set of states where the track holds value."""

    track: str
    value: str


@typed_record
class Not(NamedTuple):
    operand: "Expr"


@typed_record
class And(NamedTuple):
    parts: tuple["Expr", ...]


@typed_record
class Or(NamedTuple):
    parts: tuple["Expr", ...]


@typed_record
class Ref(NamedTuple):
    """Reference to a named state set."""

    name: str


Expr = Union[Lit, Not, And, Or, Ref]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@typed_record
class TrackSpec(NamedTuple):
    """One factor of the state space: a named, ordered finite value set."""

    name: str
    values: tuple[str, ...]


@typed_record
class ActionClause(NamedTuple):
    guard: Optional[Expr]  # None means the whole state space
    assignments: tuple[tuple[str, str], ...]  # (track, value) pairs


@typed_record
class ActionDef(NamedTuple):
    """A state transformer: first matching clause applies, else identity."""

    name: str
    clauses: tuple[ActionClause, ...]


@typed_record
class ConsequenceRule(NamedTuple):
    """Maps matching decision tuples in a state region to weighted action lists.

    Pattern entries are a decision id, None (null only), or ``"*"`` (any,
    including null).  Result probabilities must sum to exactly 1.
    """

    pattern: tuple[Optional[str], ...]
    guard: Optional[Expr]
    results: tuple[tuple[Fraction, tuple[str, ...]], ...]


@typed_record
class LegalityRule(NamedTuple):
    player: str
    decision: str
    region: Expr


@typed_record
class OutcomeRule(NamedTuple):
    region: Expr
    outcome: str


class GameSystem(SlotRecord):
    """A complete game description; immutable after construction.

    Rule lists are ordered: consequence and outcome rules use first-match
    semantics, so serialization must preserve their order.  `_engine` holds
    the compiled rules once `engine()` has built them; it is neither compared
    nor shown.
    """

    __slots__ = (
        "players", "tracks", "init", "decisions", "actions", "consequence_rules",
        "legality_rules", "outcomes", "outcome_rules", "default_outcome",
        "named_sets", "name", "_engine",
    )
    _fields = __slots__[:-1]

    def __init__(
        self,
        players: tuple[str, ...],
        tracks: tuple[TrackSpec, ...],
        init: Expr,
        decisions: tuple[str, ...],
        actions: dict[str, ActionDef],
        consequence_rules: tuple[ConsequenceRule, ...],
        legality_rules: tuple[LegalityRule, ...],
        outcomes: tuple[str, ...],
        outcome_rules: tuple[OutcomeRule, ...],
        default_outcome: str,
        named_sets: Optional[dict[str, Expr]] = None,
        name: Optional[str] = None,
    ):
        self.players = players
        self.tracks = tracks
        self.init = init
        self.decisions = decisions
        self.actions = actions
        self.consequence_rules = consequence_rules
        self.legality_rules = legality_rules
        self.outcomes = outcomes
        self.outcome_rules = outcome_rules
        self.default_outcome = default_outcome
        self.named_sets = {} if named_sets is None else named_sets
        self.name = name
        self._engine: Optional[_Engine] = None

    def engine(self) -> "_Engine":
        if self._engine is None:
            self._engine = _Engine(self)
        return self._engine

    def track_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tracks)

    def state_from_dict(self, assignment: dict[str, str]) -> GameState:
        """Build a state from a full track->value mapping, validating it."""
        missing = [t.name for t in self.tracks if t.name not in assignment]
        if missing:
            raise ValueError(f"state literal missing tracks: {', '.join(missing)}")
        extra = set(assignment) - set(self.track_names())
        if extra:
            raise ValueError(f"unknown tracks in state literal: {', '.join(sorted(extra))}")
        values = []
        for track in self.tracks:
            v = assignment[track.name]
            if v not in track.values:
                raise ValueError(f"track {track.name!r} has no value {v!r}")
            values.append(v)
        return tuple(values)

    def state_to_dict(self, state: GameState) -> dict[str, str]:
        return {t.name: v for t, v in zip(self.tracks, state)}


def format_state(sys: GameSystem, state: GameState) -> str:
    return ",".join(f"{t.name}={v}" for t, v in zip(sys.tracks, state))


def format_decision_tuple(t: DecisionTuple) -> str:
    return "(" + ",".join("0" if d is None else d for d in t) + ")"


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------


def validate_system(sys: GameSystem) -> list[str]:
    """Return structural problems (empty list means the system is well formed).

    Checks reference resolution, probability sums, named-set acyclicity, and
    pattern arity.  Does not enumerate states; see `check_completeness` for
    the behavioral checks.
    """
    problems: list[str] = []
    if not sys.players:
        problems.append("player list is empty")
    if len(set(sys.players)) != len(sys.players):
        problems.append("duplicate player names")
    if not sys.tracks:
        problems.append("no tracks declared")
    track_names = [t.name for t in sys.tracks]
    if len(set(track_names)) != len(track_names):
        problems.append("duplicate track names")
    tracks = {t.name: t for t in sys.tracks}
    for t in sys.tracks:
        if not t.values:
            problems.append(f"track {t.name!r} has no values")
        if len(set(t.values)) != len(t.values):
            problems.append(f"track {t.name!r} has duplicate values")
    if len(set(sys.decisions)) != len(sys.decisions):
        problems.append("duplicate decision names")
    for d in sys.decisions:
        if d in ("0", WILDCARD):
            problems.append(f"decision name {d!r} is reserved")
    if len(set(sys.outcomes)) != len(sys.outcomes):
        problems.append("duplicate outcome names")

    # Each expression is walked once, into a template: its problems and its
    # references to named sets, in the order a depth-first walk meets them.
    # Expanding a template puts each referenced set's problems in place of
    # the reference, so a set's problems repeat wherever it is referenced.
    def template(expr: Expr, where: str) -> list:
        items: list = []
        todo = [expr]
        while todo:
            expr = todo.pop()
            if isinstance(expr, Lit):
                track = tracks.get(expr.track)
                if track is None:
                    items.append(f"{where}: unknown track {expr.track!r}")
                elif expr.value not in track.values:
                    items.append(f"{where}: track {expr.track!r} has no value {expr.value!r}")
            elif isinstance(expr, Not):
                todo.append(expr.operand)
            elif isinstance(expr, (And, Or)):
                todo.extend(reversed(expr.parts))
            elif isinstance(expr, Ref):
                if expr.name in sys.named_sets:
                    items.append(expr)
                else:
                    items.append(f"{where}: unknown named set {expr.name!r}")
        return items

    templates = {name: template(expr, f"set {name}") for name, expr in sys.named_sets.items()}
    # The problems of each set that reaches no cycle of references: they do
    # not depend on the path to the set, so they are gathered once.
    expanded: dict[str, list[str]] = {}

    def expand(items: list, where: str) -> None:
        # depth first with an explicit stack: named-set chains nest arbitrarily;
        # a frame is [template items left, where, sets on the path, index of
        # its first problem, whether its walk met a cycle]
        todo = [[iter(items), where, (), len(problems), False]]
        while todo:
            frame = todo[-1]
            pending, where, path = frame[0], frame[1], frame[2]
            for item in pending:
                if not isinstance(item, Ref):
                    problems.append(item)
                elif item.name in path:
                    problems.append(f"{where}: cyclic named-set reference through {item.name!r}")
                    for open_frame in todo:
                        open_frame[4] = True
                elif item.name in expanded:
                    problems.extend(expanded[item.name])
                else:
                    todo.append([
                        iter(templates[item.name]), f"set {item.name}",
                        path + (item.name,), len(problems), False,
                    ])
                    break
            else:
                todo.pop()
                if path and not frame[4]:
                    expanded[path[-1]] = problems[frame[3]:]

    def check_expr(expr: Expr, where: str) -> None:
        expand(template(expr, where), where)

    for name in sys.named_sets:
        expand([Ref(name)], "")
    check_expr(sys.init, "init")

    decisions = set(sys.decisions)
    for action in sys.actions.values():
        for clause in action.clauses:
            if clause.guard is not None:
                check_expr(clause.guard, f"action {action.name}")
            for track_name, value in clause.assignments:
                track = tracks.get(track_name)
                if track is None:
                    problems.append(
                        f"action {action.name}: unknown track {track_name!r}"
                    )
                elif value not in track.values:
                    problems.append(
                        f"action {action.name}: track {track_name!r} has no value {value!r}"
                    )
    for rule in sys.legality_rules:
        if rule.player not in sys.players:
            problems.append(f"legality rule: unknown player {rule.player!r}")
        if rule.decision not in decisions:
            problems.append(f"legality rule: unknown decision {rule.decision!r}")
        check_expr(rule.region, f"legal {rule.player} {rule.decision}")
    for i, rule in enumerate(sys.consequence_rules):
        where = f"consequence rule #{i + 1}"
        if len(rule.pattern) != len(sys.players):
            problems.append(
                f"{where}: pattern arity {len(rule.pattern)} != {len(sys.players)} players"
            )
        for entry in rule.pattern:
            if entry is not None and entry != WILDCARD and entry not in decisions:
                problems.append(f"{where}: unknown decision {entry!r} in pattern")
        if rule.guard is not None:
            check_expr(rule.guard, where)
        if not rule.results:
            problems.append(f"{where}: no results")
        total = sum((p for p, _ in rule.results), Fraction(0))
        if rule.results and total != 1:
            problems.append(f"{where}: probabilities sum to {total}, not 1")
        for p, names in rule.results:
            if not 0 < p <= 1:
                problems.append(f"{where}: probability {p} not in (0, 1]")
            for action_name in names:
                if action_name not in sys.actions:
                    problems.append(f"{where}: unknown action {action_name!r}")
    for i, rule in enumerate(sys.outcome_rules):
        where = f"outcome rule #{i + 1}"
        if rule.outcome not in sys.outcomes:
            problems.append(f"{where}: unknown outcome {rule.outcome!r}")
        check_expr(rule.region, where)
    if sys.default_outcome not in sys.outcomes:
        problems.append(f"default outcome {sys.default_outcome!r} not declared")
    return problems


# ---------------------------------------------------------------------------
# Compiled evaluation engine
# ---------------------------------------------------------------------------

_EvalFn = Callable[[GameState, list], bool]

# Nesting levels one generated function may hold before a subexpression moves
# into a helper function; Python's parser rejects more than 200 nested
# parentheses, and the generator's own recursion stays this shallow.
_SPLIT_DEPTH = 40


class _CodeGen:
    """Generates straight-line Python for state-set expressions.

    Every generated function takes the state tuple ``s`` and the per-state
    named-set memo list ``m``.  The source holds only integer indices and
    generated identifiers; every value from the system (track values,
    decision and outcome names) is bound as a constant in the namespace the
    source is executed in, so no name from a ``.game`` file is ever parsed as
    Python.
    """

    def __init__(
        self, track_index: dict[str, int], ref_index: dict[str, int], namespace: dict
    ):
        self.track_index = track_index
        self.ref_index = ref_index
        self.namespace = namespace
        self.sources: list[str] = []
        self.pending: list[tuple[str, Expr]] = []
        self.count = 0

    def fresh(self, prefix: str) -> str:
        self.count += 1
        return f"_{prefix}{self.count}"

    def const(self, value) -> str:
        name = self.fresh("k")
        self.namespace[name] = value
        return name

    def expr(self, expr: Expr, depth: int = 0) -> str:
        """A Python expression for `expr`; deep subexpressions become helpers."""
        if depth >= _SPLIT_DEPTH:
            return f"{self.function(expr)}(s, m)"
        if isinstance(expr, Lit):
            return f"s[{self.track_index[expr.track]}] == {self.const(expr.value)}"
        if isinstance(expr, Not):
            return f"not {self.expr(expr.operand, depth + 1)}"
        if isinstance(expr, (And, Or)):
            if not expr.parts:
                return "True" if isinstance(expr, And) else "False"
            op = " and " if isinstance(expr, And) else " or "
            return "(" + op.join(self.expr(p, depth + 1) for p in expr.parts) + ")"
        if isinstance(expr, Ref):
            k = self.ref_index[expr.name]
            return f"(_r{k}(s, m) if m[{k}] is None else m[{k}])"
        raise TypeError(f"not a state-set expression: {expr!r}")

    def function(self, expr: Expr) -> str:
        """Name of a generated function returning `expr`; emitted by `flush`."""
        name = self.fresh("f")
        self.pending.append((name, expr))
        return name

    def define(self, body: list[str], name: Optional[str] = None) -> str:
        name = name or self.fresh("f")
        self.sources.append(f"def {name}(s, m):\n" + "".join(f"    {line}\n" for line in body))
        return name

    def named_set(self, k: int, expr: Expr) -> None:
        """``_r<k>``: evaluates named set `k` and stores the result in its memo slot."""
        self.define([f"v = m[{k}] = {self.expr(expr)}", "return v"], f"_r{k}")

    def collect(self, rules: list[tuple[Expr, object]]) -> str:
        """A function returning the frozenset of the values whose region holds."""
        body = ["r = []"]
        for region, value in rules:
            body += [f"if {self.expr(region)}:", f"    r.append({self.const(value)})"]
        return self.define(body + ["return frozenset(r)"])

    def first_match(self, cases: list[tuple[Optional[Expr], str]], default: str) -> str:
        """A function returning the result source of the first case whose guard
        holds (a None guard always holds), else `default`."""
        body = []
        for guard, result in cases:
            if guard is None:
                body.append(f"return {result}")
                break
            body += [f"if {self.expr(guard)}:", f"    return {result}"]
        else:
            body.append(f"return {default}")
        return self.define(body)

    def flush(self) -> dict[str, object]:
        """Emit the pending functions and execute all source; returns the namespace."""
        while self.pending:
            name, expr = self.pending.pop()
            self.define([f"return {self.expr(expr)}"], name)
        exec(_compile_rules("".join(self.sources)), self.namespace)
        self.sources = []
        return self.namespace


@functools.lru_cache(maxsize=16)
def _compile_rules(source: str):
    """The code object of generated rule source, compiled once per process.

    The source names every constant, so systems that differ only in their
    track values, decisions or outcomes share one source and one code
    object; each engine executes it into its own namespace of constants.
    The cache keeps the sources and code objects of the 16 most recently
    compiled distinct sources.
    """
    return compile(source, "<ludokit rules>", "exec")


class _Engine:
    """Per-system compiled rules and caches.

    Every state-set expression of the system is compiled once into generated
    straight-line Python (see `_CodeGen`): short-circuit ``and``/``or``/``not``
    over ``s[i] == constant`` tests.  A named set gets one generated function
    ``_r<k>`` and one slot in a per-state memo list, so a shared set (like a
    win condition used in every legality rule) is computed once per state.
    Each player's legality rules form one function returning that player's
    legal set; the outcome rules form one function returning the first
    matching outcome, and each action one function returning the successor
    state.  `init_fn` is init's function; `initial_states` first restricts
    the tracks that init's top-level literals force.  Legal-set and outcome
    lookups are cached by state, which makes tree construction fast on
    transposition-heavy games.  The cached legal sets are hash-consed: equal
    frozensets, and equal per-state tuples of them, are one shared object.
    Frozensets, and tuples that hold them, stay tracked by the cyclic
    garbage collector, and every full collection walks them all, so the
    fewer there are, the cheaper each collection.  Actions are not cached:
    a build applies each (actions, state) pair once, since it expands each
    state node once.

    Consequence rules are indexed by decision tuple, on the tuple's first
    lookup: a pattern match depends only on the tuple.  When the first rule
    whose pattern matches has no guard, first-match picks it in every state,
    so its results are stored per tuple in `_cons_fixed` and a lookup is one
    dict hit.  Only a tuple whose first match is guarded tests guards, in
    rule order, and caches its answer per (tuple, state).  Strict lookups
    always scan every matching rule.
    """

    def __init__(self, sys: GameSystem):
        self.sys = sys
        self.track_index = {t.name: i for i, t in enumerate(sys.tracks)}
        self.value_lists = tuple(t.values for t in sys.tracks)
        self.ref_index = {name: i for i, name in enumerate(sys.named_sets)}
        self._memo_len = len(self.ref_index)
        gen = _CodeGen(self.track_index, self.ref_index, {})
        for name, expr in sys.named_sets.items():
            gen.named_set(self.ref_index[name], expr)
        init = gen.function(sys.init)
        legal = [
            gen.collect([(r.region, r.decision) for r in sys.legality_rules if r.player == p])
            for p in sys.players
        ]
        outcome = gen.first_match(
            [(r.region, gen.const(r.outcome)) for r in sys.outcome_rules],
            gen.const(sys.default_outcome),
        )
        guards = [None if r.guard is None else gen.function(r.guard) for r in sys.consequence_rules]
        actions = {}
        for name, action in sys.actions.items():
            cases = []
            for clause in action.clauses:
                assigned = {self.track_index[t]: gen.const(v) for t, v in clause.assignments}
                state = "".join(assigned.get(i, f"s[{i}]") + ", " for i in range(len(sys.tracks)))
                cases.append((clause.guard, f"({state})"))
            actions[name] = gen.first_match(cases, "s")
        ns = self._namespace = gen.flush()

        self.init_fn: _EvalFn = ns[init]
        self._legal_fns = tuple(ns[name] for name in legal)
        self._outcome_fn = ns[outcome]
        self._action_fns = {name: ns[fn] for name, fn in actions.items()}
        self._cons_rules = [
            (rule.pattern, None if fn is None else ns[fn], rule.results)
            for rule, fn in zip(sys.consequence_rules, guards)
        ]
        # decision tuple -> ((guard_fn, results), ...) of the rules whose
        # patterns match it, in rule order
        self._cons_index: dict[DecisionTuple, tuple] = {}
        # decision tuple -> results, for tuples whose first match is unguarded
        self._cons_fixed: dict[DecisionTuple, tuple] = {}

        self._legal_cache: dict[GameState, tuple[frozenset[str], ...]] = {}
        # One shared object per distinct legal set and per distinct tuple of
        # them; never evicted, it grows only with distinct values.
        self._interned: dict = {}
        # (decision tuple, state) -> results, for the other tuples
        self._cons_cache: dict[tuple[DecisionTuple, GameState], tuple] = {}
        self._outcome_cache: dict[GameState, str] = {}
        # The label cache of every tree `tree.build_tree` builds from this
        # system, so a matrix met again in a later build is decoded, pruned
        # and solved once.  Its entries are keyed by immutable labels, and
        # all those trees have the system's player count, so none goes stale.
        self.label_cache: dict = {}

    # -- expression compilation -------------------------------------------

    def compile(self, expr: Expr) -> _EvalFn:
        """A generated function for an expression outside the system's rules.

        It runs in a copy of the rules' namespace, so it can call the named
        sets' functions while concurrent calls share no generator state.
        """
        gen = _CodeGen(self.track_index, self.ref_index, dict(self._namespace))
        name = gen.function(expr)
        return gen.flush()[name]

    def fresh_memo(self) -> list:
        return [None] * self._memo_len

    def eval(self, fn: _EvalFn, state: GameState) -> bool:
        return fn(state, self.fresh_memo())

    # -- cached semantic lookups ------------------------------------------

    def legal_sets(self, state: GameState) -> tuple[frozenset[str], ...]:
        cached = self._legal_cache.get(state)
        if cached is None:
            memo = self.fresh_memo()
            intern = self._interned.setdefault
            sets = tuple([intern(s, s) for s in [fn(state, memo) for fn in self._legal_fns]])
            cached = self._legal_cache[state] = intern(sets, sets)
        return cached

    def consequences(self, dtuple: DecisionTuple, state: GameState, strict: bool = False):
        if not strict:
            cached = self._cons_fixed.get(dtuple)
            if cached is None:
                cached = self._cons_cache.get((dtuple, state))
            if cached is not None:
                return cached
        candidates = self._cons_index.get(dtuple)
        if candidates is None:
            candidates = self._cons_index[dtuple] = tuple(
                (guard_fn, results)
                for pattern, guard_fn, results in self._cons_rules
                if _pattern_matches(pattern, dtuple)
            )
            if candidates and candidates[0][0] is None:
                self._cons_fixed[dtuple] = candidates[0][1]
                if not strict:
                    return candidates[0][1]
        memo = self.fresh_memo()
        matches = []
        for guard_fn, results in candidates:
            if guard_fn is None or guard_fn(state, memo):
                matches.append(results)
                if not strict:
                    break
        if not matches:
            raise NoRuleMatchesError(state, dtuple)
        if strict and len(matches) > 1:
            warnings.warn(
                AmbiguityWarning(
                    f"{len(matches)} consequence rules match "
                    f"{format_decision_tuple(dtuple)}; first-match applies"
                )
            )
        if candidates[0][0] is not None:  # a guarded first match
            self._cons_cache[(dtuple, state)] = matches[0]
        return matches[0]

    def apply_actions(self, names: tuple[str, ...], state: GameState) -> GameState:
        n = self._memo_len
        for name in names:
            fn = self._action_fns.get(name)
            if fn is None:
                raise KeyError(f"unknown action {name!r}")
            state = fn(state, [None] * n)
        return state

    def outcome(self, state: GameState) -> str:
        cached = self._outcome_cache.get(state)
        if cached is None:
            cached = self._outcome_cache[state] = self._outcome_fn(state, self.fresh_memo())
        return cached


def _pattern_matches(pattern: tuple[Optional[str], ...], dtuple: DecisionTuple) -> bool:
    for want, got in zip(pattern, dtuple):
        if want == WILDCARD:
            continue
        if want != got:
            return False
    return True


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def eval_state_set(expr: Expr, state: GameState, sys: GameSystem) -> bool:
    """True iff the state lies in the subset denoted by the expression."""
    engine = sys.engine()
    return engine.eval(engine.compile(expr), state)


def apply_action(sys: GameSystem, names, state: GameState) -> GameState:
    """Apply an action or product of actions, left to right as written."""
    if isinstance(names, str):
        names = (names,)
    return sys.engine().apply_actions(tuple(names), state)


def legal_set(sys: GameSystem, player: str, state: GameState) -> frozenset[str]:
    """All decisions legal for the player at the state (union over rules)."""
    idx = sys.players.index(player)
    return sys.engine().legal_sets(state)[idx]


def is_terminal(sys: GameSystem, state: GameState) -> bool:
    """True iff no player has a legal decision."""
    return not any(sys.engine().legal_sets(state))


def legal_decision_tuples(sys: GameSystem, state: GameState) -> list[DecisionTuple]:
    """All joint decision tuples at a non-terminal state.

    The product over players of their legal sets, substituting the null
    decision for players with no legal decision.  Deterministic order:
    per-player decisions sorted, then the cartesian product.
    """
    sets = sys.engine().legal_sets(state)
    if not any(sets):
        raise TerminalStateError(f"state {state!r} is terminal")
    choices = [sorted(s) if s else [None] for s in sets]
    return [tuple(combo) for combo in itertools.product(*choices)]


def consequences(
    sys: GameSystem, dtuple: DecisionTuple, state: GameState, strict: bool = False
) -> tuple[tuple[Fraction, tuple[str, ...]], ...]:
    """Resolve the first matching consequence rule for a legal tuple.

    In strict mode a match by more than one rule emits `AmbiguityWarning`
    (first-match still decides the result).
    """
    return sys.engine().consequences(dtuple, state, strict=strict)


def outcome(sys: GameSystem, state: GameState) -> str:
    """Outcome of a terminal state: first matching rule, else the default."""
    if not is_terminal(sys, state):
        raise NonTerminalStateError(f"state {state!r} is not terminal")
    return sys.engine().outcome(state)


def enumerate_states(sys: GameSystem) -> Iterator[GameState]:
    """Yield every state of the track product once, in lexicographic track order."""
    yield from itertools.product(*sys.engine().value_lists)


def initial_states(sys: GameSystem) -> list[GameState]:
    """All initial states, in lexicographic enumeration order."""
    return list(iter_initial_states(sys))


def iter_initial_states(sys: GameSystem) -> Iterator[GameState]:
    """The initial states lazily, in lexicographic enumeration order.

    The literals of init's top-level conjunction (looking through `And` and
    `Ref`) restrict their tracks before the product is filtered, so a fully
    specified init tests one candidate state instead of the whole space.
    The product is filtered as it is drawn, so a caller that asks only
    whether some initial state exists stops at the first, however large
    the product of the tracks init leaves free.
    """
    engine = sys.engine()
    forced: dict[int, list[str]] = {}
    stack, seen = [sys.init], set()
    while stack:
        expr = stack.pop()
        if isinstance(expr, Lit):
            forced.setdefault(engine.track_index[expr.track], []).append(expr.value)
        elif isinstance(expr, And):
            stack.extend(expr.parts)
        elif isinstance(expr, Ref) and expr.name not in seen:
            seen.add(expr.name)
            stack.append(sys.named_sets[expr.name])
    candidates = [
        [v for v in values if all(v == f for f in forced.get(i, ()))]
        for i, values in enumerate(engine.value_lists)
    ]
    fn = engine.init_fn
    return (s for s in itertools.product(*candidates) if fn(s, engine.fresh_memo()))


def reachable_states(sys: GameSystem) -> set[GameState]:
    """Forward closure of the initial states under all legal consequences.

    Tuples without a covering consequence rule contribute no successors (the
    gap itself is reported by `check_completeness`, which revisits every
    reachable state).
    """
    return set(_explore(sys)[0])


def _explore(sys: GameSystem) -> tuple[dict[GameState, None], Optional[GameState]]:
    """The states reachable from the initial states, in the order they are
    first met, and a state on a cycle among them, or None if they have no
    cycle.

    Depth first from each initial state in order, with an explicit stack;
    the first edge back into a state on the current path closes a cycle
    through that state.
    """
    seen: dict[GameState, None] = {}
    on_cycle: Optional[GameState] = None
    for root in initial_states(sys):
        if root in seen:
            continue
        seen[root] = None
        on_path = {root}
        stack = [(root, iter(_successors(sys, root)))]
        while stack:
            state, pending = stack[-1]
            for succ in pending:
                if succ in on_path:
                    if on_cycle is None:
                        on_cycle = succ
                elif succ not in seen:
                    seen[succ] = None
                    on_path.add(succ)
                    stack.append((succ, iter(_successors(sys, succ))))
                    break
            else:
                stack.pop()
                on_path.discard(state)
    return seen, on_cycle


def _successors(sys: GameSystem, state: GameState) -> list[GameState]:
    """The states one round can lead to from `state`, in decision-tuple
    order and then result order; a tuple without a covering consequence rule
    leads nowhere, and a terminal state has no successor."""
    engine = sys.engine()
    out: list[GameState] = []
    if not any(engine.legal_sets(state)):
        return out
    for dtuple in legal_decision_tuples(sys, state):
        try:
            results = engine.consequences(dtuple, state)
        except NoRuleMatchesError:
            continue
        for _, action_names in results:
            out.append(engine.apply_actions(action_names, state))
    return out


# ---------------------------------------------------------------------------
# Completeness
# ---------------------------------------------------------------------------


@typed_record
class Violation(NamedTuple):
    kind: str
    message: str
    state: Optional[GameState] = None
    decision_tuple: Optional[DecisionTuple] = None


@typed_record
class CompletenessReport(NamedTuple):
    scope: str
    states_checked: int
    violations: list[Violation]

    @property
    def complete(self) -> bool:
        return not self.violations


def check_completeness(sys: GameSystem, scope: str = "reachable") -> CompletenessReport:
    """Verify the gameplay loop can always run over the given state scope.

    Checks that the initial set is nonempty, that every legal decision tuple
    at every in-scope non-terminal state resolves to consequences whose
    probabilities sum to exactly 1, that outcomes resolve on in-scope
    terminal states, and that the reachable state graph has no cycle, so
    every playthrough ends.  Violations are reported with state witnesses,
    never raised.  Reachable states are checked in the order a depth-first
    walk from the initial states first meets them, so the report does not
    depend on string hashing.
    """
    if scope not in ("reachable", "all"):
        raise ValueError(f"scope must be 'reachable' or 'all', not {scope!r}")
    engine = sys.engine()
    violations: list[Violation] = []

    for i, rule in enumerate(sys.consequence_rules):
        total = sum((p for p, _ in rule.results), Fraction(0))
        if total != 1:
            violations.append(
                Violation(
                    "probability-sum",
                    f"consequence rule #{i + 1} probabilities sum to {total}, not 1",
                )
            )

    if next(iter_initial_states(sys), None) is None:
        violations.append(Violation("empty-initial-set", "no state satisfies init"))
        return CompletenessReport(scope, 0, violations)

    reachable, on_cycle = _explore(sys)
    if scope == "reachable":
        states: Iterator[GameState] = iter(reachable)
    else:
        states = enumerate_states(sys)

    checked = 0
    for state in states:
        checked += 1
        if not any(engine.legal_sets(state)):
            engine.outcome(state)  # default outcome guarantees resolution
            continue
        for dtuple in legal_decision_tuples(sys, state):
            try:
                results = engine.consequences(dtuple, state)
            except NoRuleMatchesError:
                violations.append(
                    Violation(
                        "no-consequence",
                        f"no consequence rule matches {format_decision_tuple(dtuple)} "
                        f"at {format_state(sys, state)}",
                        state=state,
                        decision_tuple=dtuple,
                    )
                )
                continue
            for _, action_names in results:
                engine.apply_actions(action_names, state)
    if on_cycle is not None:
        violations.append(
            Violation(
                "cycle",
                f"the reachable state graph has a cycle through {format_state(sys, on_cycle)}, "
                "so a playthrough need not end",
                state=on_cycle,
            )
        )
    return CompletenessReport(scope, checked, violations)


# ---------------------------------------------------------------------------
# Gameplay
# ---------------------------------------------------------------------------


@typed_record
class PlayStep(NamedTuple):
    state: GameState
    decision_tuple: DecisionTuple
    consequence_index: int
    actions: tuple[str, ...]
    next_state: GameState


@typed_record
class Playthrough(NamedTuple):
    initial_state: GameState
    steps: tuple[PlayStep, ...]
    outcome: str


# Rounds after which `play` gives up: a game whose state graph has a cycle
# may never reach a terminal state.
MAX_PLAY_ROUNDS = 100_000

# A policy maps (player, legal set, state) to one of the legal decisions.
Policy = Callable[[str, frozenset[str], GameState], str]


def first_policy(player: str, legal: frozenset[str], state: GameState) -> str:
    """Pick the lexicographically first legal decision."""
    return min(legal)


def play(
    sys: GameSystem,
    s0: GameState,
    policy: Optional[Policy] = None,
    seed: int = 0,
) -> Playthrough:
    """Run one full playthrough from s0 and return the trace.

    Each round every player with a nonempty legal set picks a decision (from
    `policy`, default uniform random), the joint tuple resolves to its
    consequence distribution, one weighted entry is sampled, and its actions
    apply left to right.  The random generator is `random.Random(seed)`
    (Mersenne Twister, stable across platforms), consumed by consequence
    sampling and by the default uniform policy, so a fixed seed and policy
    reproduce the playthrough exactly.  A playthrough still running after
    `MAX_PLAY_ROUNDS` rounds raises `RoundLimitError`.
    """
    engine = sys.engine()
    rng = random.Random(seed)
    if policy is None:
        def policy(player: str, legal: frozenset[str], state: GameState) -> str:
            return rng.choice(sorted(legal))

    steps: list[PlayStep] = []
    state = s0
    for _ in range(MAX_PLAY_ROUNDS):
        sets = engine.legal_sets(state)
        if not any(sets):
            break
        decisions: list[Optional[str]] = []
        for player, legal in zip(sys.players, sets):
            if not legal:
                decisions.append(None)
                continue
            d = policy(player, legal, state)
            if d not in legal:
                raise IllegalDecisionError(
                    f"policy chose {d!r} for {player} but legal set is {sorted(legal)}"
                )
            decisions.append(d)
        dtuple = tuple(decisions)
        results = engine.consequences(dtuple, state)
        if len(results) == 1:
            index = 0
        else:
            u = rng.random()
            acc = Fraction(0)
            index = len(results) - 1
            for i, (p, _) in enumerate(results):
                acc += p
                if u < acc:
                    index = i
                    break
        action_names = results[index][1]
        next_state = engine.apply_actions(action_names, state)
        steps.append(PlayStep(state, dtuple, index, action_names, next_state))
        state = next_state
    else:
        if any(engine.legal_sets(state)):
            raise RoundLimitError(
                f"playthrough still running after {MAX_PLAY_ROUNDS} rounds "
                f"(at {format_state(sys, state)}); the game may cycle"
            )
    return Playthrough(s0, tuple(steps), engine.outcome(state))
