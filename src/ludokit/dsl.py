"""Textual grammar for game systems: parse, expand macros, validate, serialize.

Grammar (one declaration per statement, ``#`` line comments, UTF-8):

    game NAME
    players P1, P2, ...
    track NAME { v1, v2, ... }
    decisions d1, d2, ...              # may repeat; accumulates
    set NAME = EXPR
    action NAME { [when EXPR] set t=v, ... ; ... }
    init EXPR
    legal PLAYER DECISION when EXPR
    consequence (PAT, ...) [when EXPR] -> prob P: ACT[, ACT]* [; prob P: ...]*
    outcome NAME when EXPR
    outcome default NAME
    forall VAR in LIST [if GUARD] { declarations }

Expressions are boolean combinations of ``track = value`` literals, ``not``,
``and``, ``or``, parentheses, and references to named sets.  A parenthesized
comprehension ``(any VAR in LIST[, VAR in LIST]* [if GUARD]: EXPR)`` (or
``all``) expands to the disjunction (conjunction) of the instantiated body.

LIST is ``{a, b, c}`` or an integer range ``lo..hi``.  Macro binders are
interpolated into identifiers with ``$``: inside a ``forall i`` block, the
identifier ``c$i`` becomes ``c1``, ``c2``, ...  GUARD is an integer
comparison (``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``) over ``+ - *``
arithmetic on binders that hold integer-valued names.

Parentheses, ``not`` and ``forall`` blocks nest at most `MAX_NESTING`
(500) levels deep; deeper input is a diagnostic, not a recursion error.
So do chains of named sets that reference each other: each set on a chain
is one level, plus one per 40 levels of nesting inside it.  An integer
range lists at most `MAX_BINDINGS` (100,000) values, and the binders of
one comprehension combine to at most as many.

Pattern entries in ``consequence`` are a decision id, ``0`` (null decision
only), or ``*`` (any decision, including null).  Probabilities are exact
rationals ``num/den`` (or ``1``), and each rule's probabilities must sum
to 1.  Rule order is semantic: consequence and outcome rules apply
first-match.

Macro expansion happens before validation and is purely syntactic;
serialization emits the expanded form (macros are not reconstructed), and
``parse(serialize(sys))`` returns a system equal to ``sys`` field for field.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

from . import core
from .core import (
    ActionClause,
    ActionDef,
    And,
    ConsequenceRule,
    Expr,
    GameSystem,
    LegalityRule,
    Lit,
    Not,
    Or,
    OutcomeRule,
    Ref,
    TrackSpec,
    WILDCARD,
    typed_record,
)
from .errors import LudokitError

KEYWORDS = {
    "game", "players", "track", "decisions", "set", "action", "legal",
    "consequence", "outcome", "init", "forall", "when", "prob", "default",
    "not", "and", "or", "any", "all", "in", "if",
}

# One match per token of a line: blanks, then a punctuator (the two-character
# ones first, so "->" is never "-" and ">"), an identifier of alphanumerics,
# "_" and "$" (`\w` is `str.isalnum` or "_"), a comment, any other character
# (an error), or the line's end after trailing blanks.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(->|\.\.|[<>!]=|[{}(),;:=*/+\-<>])|([\w$]+)|(#.*)|(.)|\Z)"
)


@typed_record
class Diagnostic(NamedTuple):
    path: str
    line: int
    col: int
    severity: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.severity}: {self.message}"


class GameParseError(LudokitError):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("\n".join(str(d) for d in diagnostics))


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


@typed_record
class Token(NamedTuple):
    kind: str  # "ident", "punct", "eof"
    value: str
    line: int
    col: int


def _lex(text: str, path: str) -> list[Token]:
    """The tokens of `text`, ending with an "eof" token.

    Lines and columns count from 1, a column in code points.  The end-of-file
    token sits after the last line's last character, or at the start of a
    comment that ends the file.
    """
    tokens: list[Token] = []
    append = tokens.append
    for line, source in enumerate(text.split("\n"), 1):
        end = len(source) + 1
        for match in _TOKEN.finditer(source):
            group = match.lastindex
            if group is None:  # the line's end
                break
            col = match.start(group) + 1
            if group == 1:
                append(Token("punct", match[1], line, col))
            elif group == 2:
                append(Token("ident", match[2], line, col))
            elif group == 3:
                end = col
            else:
                raise GameParseError(
                    [Diagnostic(path, line, col, "error", f"unexpected character {match[4]!r}")]
                )
    tokens.append(Token("eof", "", line, end))
    return tokens


# ---------------------------------------------------------------------------
# Raw (pre-expansion) AST with source spans
# ---------------------------------------------------------------------------


@typed_record
class Name(NamedTuple):
    """An identifier occurrence, possibly containing $binder templates."""

    text: str
    line: int
    col: int


@typed_record
class RLit(NamedTuple):
    track: Name
    value: Name


@typed_record
class RRef(NamedTuple):
    name: Name


@typed_record
class RNot(NamedTuple):
    operand: "RExpr"


@typed_record
class RAnd(NamedTuple):
    parts: tuple["RExpr", ...]


@typed_record
class ROr(NamedTuple):
    parts: tuple["RExpr", ...]


@typed_record
class Binder(NamedTuple):
    var: str
    values: tuple[str, ...]
    line: int
    col: int


# GUARD arithmetic: ("int", k) | ("var", name, line, col) |
# ("sum", ((sign, (factor, ...)), ...)), a signed sum of products
Arith = tuple


@typed_record
class Comparison(NamedTuple):
    op: str
    left: Arith
    right: Arith


@typed_record
class Guard(NamedTuple):
    comparisons: tuple[Comparison, ...]
    line: int
    col: int


@typed_record
class RComprehension(NamedTuple):
    kind: str  # "any" | "all"
    binders: tuple[Binder, ...]
    guard: Optional[Guard]
    body: "RExpr"
    line: int
    col: int


RExpr = Union[RLit, RRef, RNot, RAnd, ROr, RComprehension]


@typed_record
class DGame(NamedTuple):
    name: Name


@typed_record
class DPlayers(NamedTuple):
    names: tuple[Name, ...]


@typed_record
class DTrack(NamedTuple):
    name: Name
    values: tuple[Name, ...]


@typed_record
class DDecisions(NamedTuple):
    names: tuple[Name, ...]


@typed_record
class DSet(NamedTuple):
    name: Name
    expr: RExpr


@typed_record
class RActionClause(NamedTuple):
    guard: Optional[RExpr]
    assignments: tuple[tuple[Name, Name], ...]


@typed_record
class DAction(NamedTuple):
    name: Name
    clauses: tuple[RActionClause, ...]


@typed_record
class DInit(NamedTuple):
    expr: RExpr
    line: int
    col: int


@typed_record
class DLegal(NamedTuple):
    player: Name
    decision: Name
    region: RExpr


@typed_record
class DConsequence(NamedTuple):
    pattern: tuple[Name, ...]  # entries "0" and "*" are special
    guard: Optional[RExpr]
    results: tuple[tuple[Fraction, tuple[Name, ...]], ...]
    line: int
    col: int


@typed_record
class DOutcome(NamedTuple):
    name: Name
    region: RExpr


@typed_record
class DDefaultOutcome(NamedTuple):
    name: Name


@typed_record
class DForall(NamedTuple):
    binder: Binder
    guard: Optional[Guard]
    body: tuple["Decl", ...]


Decl = Union[
    DGame, DPlayers, DTrack, DDecisions, DSet, DAction, DInit, DLegal,
    DConsequence, DOutcome, DDefaultOutcome, DForall,
]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# Deepest nesting the parser accepts: each open parenthesis, ``not`` and
# ``forall`` block is one level.  The parser and the later passes over the
# syntax tree recurse about once per level, so this keeps every accepted file
# well inside Python's recursion limit and turns deeper input into a
# diagnostic.
MAX_NESTING = 500

# Most values one integer range may list, and most combinations one binder
# list may expand to.  Binders are expanded eagerly, so a larger range would
# only spend time and memory before any diagnostic.
MAX_BINDINGS = 100_000


class _Parser:
    def __init__(self, tokens: list[Token], path: str):
        self.tokens = tokens
        self.path = path
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, tok: Token, message: str) -> GameParseError:
        return GameParseError(
            [Diagnostic(self.path, tok.line, tok.col, "error", message)]
        )

    def enter(self, tok: Token) -> None:
        """Open one nesting level at `tok`; leave it with ``self.depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.fail(
                tok, f"nesting deeper than {MAX_NESTING} levels of parentheses, not and forall"
            )

    def expect_punct(self, value: str) -> Token:
        tok = self.next()
        if tok.kind != "punct" or tok.value != value:
            raise self.fail(tok, f"expected {value!r}, found {tok.value or 'end of file'!r}")
        return tok

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == value

    def eat_punct(self, value: str) -> bool:
        if self.at_punct(value):
            self.pos += 1
            return True
        return False

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.value == word

    def eat_keyword(self, word: str) -> bool:
        if self.at_keyword(word):
            self.pos += 1
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        tok = self.next()
        if tok.kind != "ident" or tok.value != word:
            raise self.fail(tok, f"expected {word!r}, found {tok.value or 'end of file'!r}")
        return tok

    def expect_name(self, what: str = "identifier") -> Name:
        tok = self.next()
        if tok.kind != "ident":
            raise self.fail(tok, f"expected {what}, found {tok.value or 'end of file'!r}")
        if tok.value in KEYWORDS:
            raise self.fail(tok, f"keyword {tok.value!r} cannot be used as {what}")
        return Name(tok.value, tok.line, tok.col)

    def integer(self, tok: Token, message: str) -> int:
        """The value of `tok`, a decimal literal; else fail with `message`."""
        if tok.kind != "ident" or not tok.value.isdecimal():
            raise self.fail(tok, message)
        try:
            return int(tok.value)
        except ValueError:  # more digits than int() converts
            raise self.fail(tok, f"integer literal too long ({len(tok.value)} digits)") from None

    def name_list(self) -> tuple[Name, ...]:
        names = [self.expect_name()]
        while self.eat_punct(","):
            names.append(self.expect_name())
        return tuple(names)

    # -- declarations ------------------------------------------------------

    def parse_file(self) -> list[Decl]:
        decls: list[Decl] = []
        while self.peek().kind != "eof":
            decls.append(self.declaration())
        return decls

    def declaration(self) -> Decl:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(tok, f"expected a declaration, found {tok.value!r}")
        word = tok.value
        if word == "game":
            self.next()
            return DGame(self.expect_name("game name"))
        if word == "players":
            self.next()
            return DPlayers(self.name_list())
        if word == "track":
            self.next()
            name = self.expect_name("track name")
            self.expect_punct("{")
            values = self.name_list()
            self.expect_punct("}")
            return DTrack(name, values)
        if word == "decisions":
            self.next()
            return DDecisions(self.name_list())
        if word == "set":
            self.next()
            name = self.expect_name("set name")
            self.expect_punct("=")
            return DSet(name, self.expression())
        if word == "action":
            self.next()
            name = self.expect_name("action name")
            self.expect_punct("{")
            clauses = [self.action_clause()]
            while self.eat_punct(";"):
                clauses.append(self.action_clause())
            self.expect_punct("}")
            return DAction(name, tuple(clauses))
        if word == "init":
            self.next()
            return DInit(self.expression(), tok.line, tok.col)
        if word == "legal":
            self.next()
            player = self.expect_name("player name")
            decision = self.expect_name("decision name")
            self.expect_keyword("when")
            return DLegal(player, decision, self.expression())
        if word == "consequence":
            return self.consequence()
        if word == "outcome":
            self.next()
            if self.eat_keyword("default"):
                return DDefaultOutcome(self.expect_name("outcome name"))
            name = self.expect_name("outcome name")
            self.expect_keyword("when")
            return DOutcome(name, self.expression())
        if word == "forall":
            self.enter(self.next())
            binder = self.binder()
            guard = self.guard() if self.at_keyword("if") else None
            self.expect_punct("{")
            body: list[Decl] = []
            while not self.at_punct("}"):
                if self.peek().kind == "eof":
                    raise self.fail(self.peek(), "unterminated forall block")
                body.append(self.declaration())
            self.expect_punct("}")
            self.depth -= 1
            return DForall(binder, guard, tuple(body))
        raise self.fail(tok, f"unknown declaration {word!r}")

    def action_clause(self) -> RActionClause:
        guard = self.expression() if self.eat_keyword("when") else None
        self.expect_keyword("set")
        assignments = [self.assignment()]
        while self.eat_punct(","):
            assignments.append(self.assignment())
        return RActionClause(guard, tuple(assignments))

    def assignment(self) -> tuple[Name, Name]:
        track = self.expect_name("track name")
        self.expect_punct("=")
        return track, self.expect_name("value")

    def consequence(self) -> DConsequence:
        tok = self.expect_keyword("consequence")
        self.expect_punct("(")
        pattern = [self.pattern_entry()]
        while self.eat_punct(","):
            pattern.append(self.pattern_entry())
        self.expect_punct(")")
        guard = self.expression() if self.eat_keyword("when") else None
        self.expect_punct("->")
        results = [self.result()]
        while self.eat_punct(";"):
            results.append(self.result())
        return DConsequence(tuple(pattern), guard, tuple(results), tok.line, tok.col)

    def pattern_entry(self) -> Name:
        tok = self.next()
        if tok.kind == "punct" and tok.value == "*":
            return Name(WILDCARD, tok.line, tok.col)
        if tok.kind == "ident" and tok.value not in KEYWORDS:
            return Name(tok.value, tok.line, tok.col)
        raise self.fail(tok, "expected a decision, 0, or * in pattern")

    def result(self) -> tuple[Fraction, tuple[Name, ...]]:
        self.expect_keyword("prob")
        tok = self.next()
        num = self.integer(tok, "expected a probability numerator")
        den = 1
        if self.eat_punct("/"):
            den = self.integer(self.next(), "expected a probability denominator")
        if den == 0 or not 0 < Fraction(num, den) <= 1:
            raise self.fail(tok, f"probability {num}/{den} not in (0, 1]")
        self.expect_punct(":")
        actions = [self.expect_name("action name")]
        while self.eat_punct(","):
            actions.append(self.expect_name("action name"))
        return Fraction(num, den), tuple(actions)

    # -- expressions --------------------------------------------------------

    def expression(self) -> RExpr:
        """``or`` of ``and`` of ``not``-prefixed atoms.

        One Python frame per parenthesis level: ``not`` chains and the
        operand lists are loops, and a parenthesized group or comprehension
        body recurses here directly.
        """
        ors: list[RExpr] = []
        ands: list[RExpr] = []
        while True:
            nots = 0
            while self.at_keyword("not"):
                self.enter(self.next())
                nots += 1
            tok = self.peek()
            if self.eat_punct("("):
                self.enter(tok)
                head = None
                if self.at_keyword("any") or self.at_keyword("all"):
                    head = self.comprehension_head()
                expr = self.expression()
                if head is not None:
                    kind, binders, guard, comp_tok = head
                    expr = RComprehension(kind, binders, guard, expr, comp_tok.line, comp_tok.col)
                self.expect_punct(")")
                self.depth -= 1
            elif tok.kind == "ident" and tok.value not in KEYWORDS:
                name = self.expect_name()
                expr = RLit(name, self.expect_name("value")) if self.eat_punct("=") else RRef(name)
            else:
                raise self.fail(tok, f"expected an expression, found {tok.value or 'end of file'!r}")
            for _ in range(nots):
                expr = RNot(expr)
            self.depth -= nots
            ands.append(expr)
            if self.eat_keyword("and"):
                continue
            ors.append(ands[0] if len(ands) == 1 else RAnd(_flatten(RAnd, ands)))
            ands = []
            if not self.eat_keyword("or"):
                return ors[0] if len(ors) == 1 else ROr(_flatten(ROr, ors))

    def comprehension_head(self) -> tuple[str, tuple[Binder, ...], Optional[Guard], Token]:
        """``any``/``all``, the binders and the guard, up to the ``:`` before the body."""
        tok = self.next()
        first = self.tokens[self.pos]
        binders = [self.binder()]
        while self.eat_punct(","):
            binders.append(self.binder())
        count = math.prod(len(b.values) for b in binders)
        if count > MAX_BINDINGS:
            raise self.fail(
                first, f"binders expand to {count} combinations, more than {MAX_BINDINGS}"
            )
        guard = self.guard() if self.at_keyword("if") else None
        self.expect_punct(":")
        return tok.value, tuple(binders), guard, tok

    def binder(self) -> Binder:
        var = self.expect_name("binder variable")
        self.expect_keyword("in")
        if self.eat_punct("{"):
            values = [self.expect_name().text]
            while self.eat_punct(","):
                values.append(self.expect_name().text)
            self.expect_punct("}")
            return Binder(var.text, tuple(values), var.line, var.col)
        lo_tok = self.next()
        lo = self.integer(lo_tok, "expected a value list {..} or integer range lo..hi")
        self.expect_punct("..")
        hi = self.integer(self.next(), "expected an integer range bound")
        if hi < lo:
            raise self.fail(lo_tok, f"empty range {lo}..{hi}")
        if hi - lo >= MAX_BINDINGS:
            raise self.fail(
                lo_tok, f"range {lo}..{hi} has {hi - lo + 1} values, more than {MAX_BINDINGS}"
            )
        return Binder(var.text, tuple(str(v) for v in range(lo, hi + 1)), var.line, var.col)

    def guard(self) -> Guard:
        tok = self.expect_keyword("if")
        comparisons = [self.comparison()]
        while self.eat_keyword("and"):
            comparisons.append(self.comparison())
        return Guard(tuple(comparisons), tok.line, tok.col)

    def comparison(self) -> Comparison:
        left = self.arith()
        op_tok = self.next()
        if op_tok.kind != "punct" or op_tok.value not in ("=", "!=", "<", "<=", ">", ">="):
            raise self.fail(op_tok, "expected a comparison operator in guard")
        return Comparison(op_tok.value, left, self.arith())

    def arith(self) -> Arith:
        """A signed sum of products; one Python frame per parenthesis level."""
        terms: list[tuple[str, tuple[Arith, ...]]] = []
        sign = "+"
        while True:
            factors: list[Arith] = []
            while True:
                tok = self.next()
                if tok.kind == "punct" and tok.value == "(":
                    self.enter(tok)
                    factors.append(self.arith())
                    self.expect_punct(")")
                    self.depth -= 1
                elif tok.kind == "ident" and not tok.value.isdecimal():
                    factors.append(("var", tok.value, tok.line, tok.col))
                else:
                    value = self.integer(tok, "expected an integer or binder variable")
                    factors.append(("int", value))
                if not self.eat_punct("*"):
                    break
            terms.append((sign, tuple(factors)))
            if not (self.at_punct("+") or self.at_punct("-")):
                return ("sum", tuple(terms))
            sign = self.next().value


def _flatten(cls, parts: list[RExpr]) -> tuple[RExpr, ...]:
    out: list[RExpr] = []
    for p in parts:
        if isinstance(p, cls):
            out.extend(p.parts)
        else:
            out.append(p)
    return tuple(out)


# ---------------------------------------------------------------------------
# Macro expansion
# ---------------------------------------------------------------------------


# Arithmetic nodes of the largest guard `_Expander.guard_test` compiles;
# larger guards are interpreted.  Python's compiler recurses once per
# operator and parenthesis, so a long sum or deep nesting would exhaust it.
_GUARD_NODES = 100

_MACRO = re.compile(r"\$(\w*)")  # a binder reference: "$", then `\w` as in `_TOKEN`

_COMPARE = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


class _Expander:
    """Substitutes forall binders into identifiers, purely syntactically."""

    def __init__(self, path: str):
        self.path = path
        self.diagnostics: list[Diagnostic] = []
        self.compiled_guards: dict[str, Callable] = {}  # by their source

    def error(self, line: int, col: int, message: str) -> None:
        self.diagnostics.append(Diagnostic(self.path, line, col, "error", message))

    def subst(self, name: Name, env: dict[str, str]) -> Name:
        if "$" not in name.text:
            return name

        def value(match: re.Match) -> str:
            if match[1] in env:
                return env[match[1]]
            self.error(name.line, name.col, f"unbound macro variable {match[0]}")
            return match[0]

        return Name(_MACRO.sub(value, name.text), name.line, name.col)

    def eval_arith(self, node: Arith, env: dict[str, str]) -> Optional[int]:
        if node[0] == "int":
            return node[1]
        if node[0] == "var":
            _, var, line, col = node
            value = env.get(var)
            if value is None:
                self.error(line, col, f"unbound macro variable {var} in guard")
                return None
            try:
                return int(value)
            except ValueError:
                self.error(line, col, f"binder {var}={value!r} is not integer-valued")
                return None
        total: Optional[int] = 0
        for sign, factors in node[1]:
            # evaluate every factor, so each unbound variable gets a diagnostic
            product: Optional[int] = 1
            for factor in factors:
                value = self.eval_arith(factor, env)
                product = None if value is None or product is None else product * value
            if total is None or product is None:
                total = None
            else:
                total += product if sign == "+" else -product
        return total

    def eval_guard(self, guard: Guard, env: dict[str, str]) -> bool:
        for comparison in guard.comparisons:
            lv = self.eval_arith(comparison.left, env)
            rv = self.eval_arith(comparison.right, env)
            if lv is None or rv is None:
                return False
            ok = {
                "=": lv == rv, "!=": lv != rv, "<": lv < rv,
                "<=": lv <= rv, ">": lv > rv, ">=": lv >= rv,
            }[comparison.op]
            if not ok:
                return False
        return True

    def guard_test(self, guard: Guard, binders: tuple[Binder, ...], env: dict[str, str]):
        """`guard` compiled to a function of one integer per binder, and
        those integers: each binder's values as integers, or None for a
        binder the guard does not read.  Variables bound outside the
        binders become constants.

        None instead where evaluating the guard could report a diagnostic,
        because a variable it reads is unbound or not integer-valued, or
        where its arithmetic is too large to compile; `eval_guard` then
        interprets it per combination.
        """
        slot = {b.var: i for i, b in enumerate(binders)}  # a later binder shadows
        used: set[int] = set()
        nodes = [0]

        def source(node: Arith) -> str:
            nodes[0] += 1
            if nodes[0] > _GUARD_NODES:
                raise ValueError("too large to compile")
            if node[0] == "int":
                return str(node[1])
            if node[0] == "var":
                if node[1] in slot:
                    used.add(slot[node[1]])
                    return f"a{slot[node[1]]}"
                return str(int(env[node[1]]))  # KeyError or ValueError: interpret
            return "(0" + "".join(
                f" {sign} " + "*".join(source(f) for f in factors)
                for sign, factors in node[1]
            ) + ")"

        try:
            body = " and ".join(
                f"{source(c.left)} {_COMPARE[c.op]} {source(c.right)}"
                for c in guard.comparisons
            )
            numbers = [
                [int(v) for v in b.values] if i in used else [None] * len(b.values)
                for i, b in enumerate(binders)
            ]
        except (KeyError, ValueError):
            return None
        code = f"lambda {', '.join(f'a{i}' for i in range(len(binders)))}: {body}"
        test = self.compiled_guards.get(code)
        if test is None:
            # the source holds only generated names, integers and operators
            test = self.compiled_guards[code] = eval(code, {})
        return test, numbers

    def bindings(self, binders: tuple[Binder, ...], guard: Optional[Guard], env: dict[str, str]):
        """The environments of the binders' combinations that pass `guard`,
        in `itertools.product` order.

        A lazy iterator: a guard interpreted per combination reports its
        diagnostics between the expansions of the combinations before it.
        """
        names = [b.var for b in binders]
        combos = itertools.product(*(b.values for b in binders))
        compiled = None if guard is None else self.guard_test(guard, binders, env)
        if compiled is None:
            for combo in combos:
                inner = dict(env)
                inner.update(zip(names, combo))
                if guard is None or self.eval_guard(guard, inner):
                    yield inner
            return
        test, numbers = compiled
        for combo, values in zip(combos, itertools.product(*numbers)):
            if test(*values):
                inner = dict(env)
                inner.update(zip(names, combo))
                yield inner

    def expand_decls(self, decls, env: dict[str, str]) -> list[Decl]:
        out: list[Decl] = []
        for decl in decls:
            if isinstance(decl, DForall):
                for inner in self.bindings((decl.binder,), decl.guard, env):
                    out.extend(self.expand_decls(decl.body, inner))
            else:
                out.append(self.expand_decl(decl, env))
        return out

    def expand_decl(self, decl: Decl, env: dict[str, str]) -> Decl:
        s = lambda n: self.subst(n, env)
        if isinstance(decl, DGame):
            return DGame(s(decl.name))
        if isinstance(decl, DPlayers):
            return DPlayers(tuple(s(n) for n in decl.names))
        if isinstance(decl, DTrack):
            return DTrack(s(decl.name), tuple(s(v) for v in decl.values))
        if isinstance(decl, DDecisions):
            return DDecisions(tuple(s(n) for n in decl.names))
        if isinstance(decl, DSet):
            return DSet(s(decl.name), self.expand_expr(decl.expr, env))
        if isinstance(decl, DAction):
            clauses = tuple(
                RActionClause(
                    None if c.guard is None else self.expand_expr(c.guard, env),
                    tuple((s(t), s(v)) for t, v in c.assignments),
                )
                for c in decl.clauses
            )
            return DAction(s(decl.name), clauses)
        if isinstance(decl, DInit):
            return DInit(self.expand_expr(decl.expr, env), decl.line, decl.col)
        if isinstance(decl, DLegal):
            return DLegal(s(decl.player), s(decl.decision), self.expand_expr(decl.region, env))
        if isinstance(decl, DConsequence):
            return DConsequence(
                tuple(s(p) for p in decl.pattern),
                None if decl.guard is None else self.expand_expr(decl.guard, env),
                tuple((p, tuple(s(a) for a in acts)) for p, acts in decl.results),
                decl.line,
                decl.col,
            )
        if isinstance(decl, DOutcome):
            return DOutcome(s(decl.name), self.expand_expr(decl.region, env))
        if isinstance(decl, DDefaultOutcome):
            return DDefaultOutcome(s(decl.name))
        raise TypeError(decl)

    def expand_expr(self, expr: RExpr, env: dict[str, str]) -> RExpr:
        if isinstance(expr, RLit):
            return RLit(self.subst(expr.track, env), self.subst(expr.value, env))
        if isinstance(expr, RRef):
            return RRef(self.subst(expr.name, env))
        if isinstance(expr, RNot):
            return RNot(self.expand_expr(expr.operand, env))
        if isinstance(expr, (RAnd, ROr)):
            # comprehensions may expand to same-class conjunctions; flatten
            # so the printed form re-parses to an identical node
            parts = []
            for p in expr.parts:  # a loop, not a comprehension: one frame per level
                parts.append(self.expand_expr(p, env))
            return type(expr)(_flatten(type(expr), parts))
        if isinstance(expr, RComprehension):
            parts: list[RExpr] = []
            for inner in self.bindings(expr.binders, expr.guard, env):
                parts.append(self.expand_expr(expr.body, inner))
            if not parts:
                self.error(expr.line, expr.col, "comprehension expands to no terms")
                return RAnd(())
            if len(parts) == 1:
                return parts[0]
            cls = ROr if expr.kind == "any" else RAnd
            return cls(_flatten(cls, parts))
        raise TypeError(expr)


# ---------------------------------------------------------------------------
# Semantic analysis and system construction
# ---------------------------------------------------------------------------


class _Builder:
    def __init__(self, path: str):
        self.path = path
        self.diagnostics: list[Diagnostic] = []

    def error(self, name_or_line, col: Optional[int] = None, message: str = "") -> None:
        if isinstance(name_or_line, Name):
            line, col = name_or_line.line, name_or_line.col
        else:
            line = name_or_line
        self.diagnostics.append(Diagnostic(self.path, line, col, "error", message))

    def build(self, decls: list[Decl]) -> Optional[GameSystem]:
        game_name: Optional[str] = None
        players: list[str] = []
        players_seen = False
        tracks: list[TrackSpec] = []
        track_map: dict[str, TrackSpec] = {}
        decisions: list[str] = []
        named_sets: dict[str, Expr] = {}
        set_spans: dict[str, Name] = {}
        actions: dict[str, ActionDef] = {}
        init_expr: Optional[Expr] = None
        legality: list[LegalityRule] = []
        cons_rules: list[ConsequenceRule] = []
        outcome_rules: list[OutcomeRule] = []
        default_outcome: Optional[str] = None

        # First pass: declarations that define namespaces.
        for decl in decls:
            if isinstance(decl, DGame):
                if game_name is not None:
                    self.error(decl.name, message="duplicate game declaration")
                game_name = decl.name.text
            elif isinstance(decl, DPlayers):
                if players_seen:
                    self.error(decl.names[0], message="duplicate players declaration")
                players_seen = True
                for n in decl.names:
                    if n.text in players:
                        self.error(n, message=f"duplicate player {n.text!r}")
                    else:
                        players.append(n.text)
            elif isinstance(decl, DTrack):
                if decl.name.text in track_map:
                    self.error(decl.name, message=f"duplicate track {decl.name.text!r}")
                    continue
                values: list[str] = []
                for v in decl.values:
                    if v.text in values:
                        self.error(v, message=f"duplicate value {v.text!r} in track {decl.name.text!r}")
                    else:
                        values.append(v.text)
                spec = TrackSpec(decl.name.text, tuple(values))
                tracks.append(spec)
                track_map[spec.name] = spec
            elif isinstance(decl, DDecisions):
                for n in decl.names:
                    if n.text in ("0", WILDCARD):
                        self.error(n, message=f"decision name {n.text!r} is reserved")
                    elif n.text in decisions:
                        self.error(n, message=f"duplicate decision {n.text!r}")
                    else:
                        decisions.append(n.text)
            elif isinstance(decl, DSet):
                if decl.name.text in set_spans:
                    self.error(decl.name, message=f"duplicate set {decl.name.text!r}")
                else:
                    set_spans[decl.name.text] = decl.name
            elif isinstance(decl, DAction):
                if decl.name.text in actions:
                    self.error(decl.name, message=f"duplicate action {decl.name.text!r}")
                actions[decl.name.text] = ActionDef(decl.name.text, ())  # placeholder

        if not players:
            self.error(1, 1, "no players declared")

        def checked(track: Name, value: Name) -> tuple[str, str]:
            """A ``track=value`` pair; reports an unknown track or value."""
            spec = track_map.get(track.text)
            if spec is None:
                self.error(track, message=f"unknown track {track.text!r}")
            elif value.text not in spec.values:
                self.error(value, message=f"track {track.text!r} has no value {value.text!r}")
            return track.text, value.text

        def resolve_expr(expr: RExpr) -> Expr:
            if isinstance(expr, RLit):
                return Lit(*checked(expr.track, expr.value))
            if isinstance(expr, RRef):
                if expr.name.text not in set_spans:
                    self.error(expr.name, message=f"unknown named set {expr.name.text!r}")
                return Ref(expr.name.text)
            if isinstance(expr, RNot):
                return Not(resolve_expr(expr.operand))
            if isinstance(expr, (RAnd, ROr)):
                parts = []
                for p in expr.parts:  # one frame per level, as in expand_expr
                    parts.append(resolve_expr(p))
                return (And if isinstance(expr, RAnd) else Or)(tuple(parts))
            raise TypeError(f"unexpanded node {expr!r}")

        # Second pass: bodies (namespaces now known).
        for decl in decls:
            if isinstance(decl, DSet):
                named_sets[decl.name.text] = resolve_expr(decl.expr)
            elif isinstance(decl, DAction):
                clauses = []
                for clause in decl.clauses:
                    guard = None if clause.guard is None else resolve_expr(clause.guard)
                    assignments = [checked(track, value) for track, value in clause.assignments]
                    clauses.append(ActionClause(guard, tuple(assignments)))
                actions[decl.name.text] = ActionDef(decl.name.text, tuple(clauses))
            elif isinstance(decl, DInit):
                if init_expr is not None:
                    self.error(decl.line, decl.col, "duplicate init declaration")
                init_expr = resolve_expr(decl.expr)
            elif isinstance(decl, DLegal):
                if decl.player.text not in players:
                    self.error(decl.player, message=f"unknown player {decl.player.text!r}")
                if decl.decision.text not in decisions:
                    self.error(decl.decision, message=f"unknown decision {decl.decision.text!r}")
                legality.append(
                    LegalityRule(decl.player.text, decl.decision.text, resolve_expr(decl.region))
                )
            elif isinstance(decl, DConsequence):
                if players and len(decl.pattern) != len(players):
                    self.error(
                        decl.line,
                        decl.col,
                        f"pattern arity {len(decl.pattern)} does not match {len(players)} players",
                    )
                pattern: list[Optional[str]] = []
                for entry in decl.pattern:
                    if entry.text == "0":
                        pattern.append(None)
                    elif entry.text == WILDCARD:
                        pattern.append(WILDCARD)
                    else:
                        if entry.text not in decisions:
                            self.error(entry, message=f"unknown decision {entry.text!r} in pattern")
                        pattern.append(entry.text)
                guard = None if decl.guard is None else resolve_expr(decl.guard)
                total = sum((p for p, _ in decl.results), Fraction(0))
                if total != 1:
                    self.error(
                        decl.line, decl.col, f"consequence probabilities sum to {total}, not 1"
                    )
                results = []
                for p, act_names in decl.results:
                    for a in act_names:
                        if a.text not in actions:
                            self.error(a, message=f"unknown action {a.text!r}")
                    results.append((p, tuple(a.text for a in act_names)))
                cons_rules.append(ConsequenceRule(tuple(pattern), guard, tuple(results)))
            elif isinstance(decl, DOutcome):
                outcome_rules.append(OutcomeRule(resolve_expr(decl.region), decl.name.text))
            elif isinstance(decl, DDefaultOutcome):
                if default_outcome is not None:
                    self.error(decl.name, message="duplicate default outcome")
                default_outcome = decl.name.text

        # The outcome list is derived in canonical order (rule order, then the
        # default) so serialization round-trips regardless of where the
        # default was declared in the source.
        outcomes: list[str] = []
        for rule in outcome_rules:
            if rule.outcome not in outcomes:
                outcomes.append(rule.outcome)
        if default_outcome is not None and default_outcome not in outcomes:
            outcomes.append(default_outcome)

        # Named-set references: report cycles, and chains too deep to evaluate.
        # The compiled rules call one function per set on a chain, plus one
        # helper per core._SPLIT_DEPTH levels of nesting inside each set; a
        # chain may open at most MAX_NESTING such calls.  Depth first with an
        # explicit stack, visiting each set's references in the order a
        # recursive walk would.
        def refs_of(expr: Expr) -> tuple[list[str], int]:
            """The sets `expr` references, and the calls evaluating it opens."""
            found: list[str] = []
            deepest = 0
            stack = [(expr, 0)]
            while stack:
                node, level = stack.pop()
                deepest = max(deepest, level)
                if isinstance(node, Ref):
                    if node.name in named_sets:
                        found.append(node.name)
                elif isinstance(node, Not):
                    stack.append((node.operand, level + 1))
                elif isinstance(node, (And, Or)):
                    stack.extend((part, level + 1) for part in node.parts)
            return found, 1 + deepest // core._SPLIT_DEPTH

        chain: dict[str, int] = {}  # finished set -> calls on its deepest chain
        visiting: set[str] = set()
        for root in named_sets:
            if root in chain:
                continue
            visiting.add(root)
            path = [(root, *refs_of(named_sets[root]))]
            cursor = [0]
            while path:
                name, refs, calls = path[-1]
                if cursor[-1] < len(refs):
                    ref = refs[cursor[-1]]
                    cursor[-1] += 1
                    if ref in chain:
                        continue
                    if ref in visiting:
                        self.error(
                            set_spans[ref], message=f"cyclic named-set reference through {ref!r}"
                        )
                        chain[ref] = 0
                        continue
                    visiting.add(ref)
                    path.append((ref, *refs_of(named_sets[ref])))
                    cursor.append(0)
                    continue
                path.pop()
                cursor.pop()
                visiting.discard(name)
                below = max((chain.get(r, 0) for r in refs), default=0)
                depth = chain[name] = calls + below
                if depth > MAX_NESTING >= below:
                    self.error(
                        set_spans[name],
                        message=f"named set {name!r} starts a chain of set references "
                        f"{depth} levels deep, more than {MAX_NESTING}",
                    )

        if init_expr is None:
            self.error(1, 1, "missing init declaration")
        if default_outcome is None:
            self.error(1, 1, "missing default outcome declaration")
        if not tracks:
            self.error(1, 1, "no tracks declared")

        if self.diagnostics:
            return None

        sys = GameSystem(
            players=tuple(players),
            tracks=tuple(tracks),
            init=init_expr,
            decisions=tuple(decisions),
            actions=actions,
            consequence_rules=tuple(cons_rules),
            legality_rules=tuple(legality),
            outcomes=tuple(outcomes),
            outcome_rules=tuple(outcome_rules),
            default_outcome=default_outcome,
            named_sets=named_sets,
            name=game_name,
        )
        problems = core.validate_system(sys)
        if problems:  # anything span-aware checks missed
            for p in problems:
                self.error(1, 1, p)
            return None
        if next(core.iter_initial_states(sys), None) is None:
            self.error(1, 1, "no state satisfies the init expression")
            return None
        return sys


def parse_game(text: str, path: str = "<string>") -> GameSystem:
    """Parse and validate a game description; raises GameParseError on problems."""
    decls = _Parser(_lex(text, path), path).parse_file()
    expander = _Expander(path)
    expanded = expander.expand_decls(decls, {})
    if expander.diagnostics:
        raise GameParseError(expander.diagnostics)
    builder = _Builder(path)
    sys = builder.build(expanded)
    if builder.diagnostics:
        raise GameParseError(builder.diagnostics)
    assert sys is not None
    return sys


def parse_file(path: str) -> GameSystem:
    with open(path, encoding="utf-8") as handle:
        return parse_game(handle.read(), path)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _format_expr(expr: Expr, parent: str = "or") -> str:
    if isinstance(expr, Lit):
        return f"{expr.track}={expr.value}"
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, Not):
        return f"not {_format_expr(expr.operand, 'not')}"
    if isinstance(expr, (And, Or)):
        word = "and" if isinstance(expr, And) else "or"
        texts = []
        for p in expr.parts:  # one frame per level, as in expand_expr
            texts.append(_format_expr(p, word))
        body = f" {word} ".join(texts)
        bare = parent != "not" if word == "and" else parent == "or"
        return body if bare else f"({body})"
    raise TypeError(expr)


def serialize_game(sys: GameSystem) -> str:
    """Render a system to canonical source; parse(serialize(sys)) == sys.

    Macros are not reconstructed: an expanded system serializes to expanded
    rules.  Rule order is preserved so first-match semantics survive the
    round trip.
    """
    lines: list[str] = []
    if sys.name is not None:
        lines.append(f"game {sys.name}")
    lines.append("players " + ", ".join(sys.players))
    for track in sys.tracks:
        lines.append(f"track {track.name} {{ " + ", ".join(track.values) + " }")
    if sys.decisions:
        lines.append("decisions " + ", ".join(sys.decisions))
    for name, expr in sys.named_sets.items():
        lines.append(f"set {name} = " + _format_expr(expr))
    for action in sys.actions.values():
        clauses = []
        for clause in action.clauses:
            assigns = ", ".join(f"{t}={v}" for t, v in clause.assignments)
            if clause.guard is None:
                clauses.append(f"set {assigns}")
            else:
                clauses.append(f"when {_format_expr(clause.guard)} set {assigns}")
        lines.append(f"action {action.name} {{ " + " ; ".join(clauses) + " }")
    lines.append("init " + _format_expr(sys.init))
    for rule in sys.legality_rules:
        lines.append(f"legal {rule.player} {rule.decision} when " + _format_expr(rule.region))
    for rule in sys.consequence_rules:
        pattern = ", ".join("0" if e is None else e for e in rule.pattern)
        results = " ; ".join(
            f"prob {p}: " + ", ".join(names) for p, names in rule.results
        )
        guard = "" if rule.guard is None else f" when {_format_expr(rule.guard)}"
        lines.append(f"consequence ({pattern}){guard} -> {results}")
    for rule in sys.outcome_rules:
        lines.append(f"outcome {rule.outcome} when " + _format_expr(rule.region))
    lines.append(f"outcome default {sys.default_outcome}")
    return "\n".join(lines) + "\n"
