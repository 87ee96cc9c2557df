"""Independent test oracles.

Everything here is deliberately written from first principles, sharing no
logic with the package's canonical-key machinery, so key-based verdicts can
be checked against definition-faithful brute force.
"""

from __future__ import annotations

import itertools

from ludokit.core import WILDCARD, And, Lit, Not, Or, Ref
from ludokit.tree import (
    CHANCE,
    GameTree,
    STATE,
    TERMINAL,
    TRUNCATED,
    decision_matrix,
)

WIN_LINES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (2, 4, 6),
)


def _winner(board: list) -> str | None:
    for a, b, c in WIN_LINES:
        if board[a] is not None and board[a] == board[b] == board[c]:
            return board[a]
    return None


def count_tictactoe_games(first: str = "X", second: str = "O") -> int:
    """Number of distinct tic-tac-toe games (move sequences), stopping play
    at a win or a full board.  Known value: 255168."""
    board: list = [None] * 9
    total = 0
    stack: list[tuple[tuple, str]] = [(tuple(board), first)]

    def recurse(board: list, mover: str, other: str) -> int:
        if _winner(board) is not None:
            return 1
        empties = [i for i, v in enumerate(board) if v is None]
        if not empties:
            return 1
        count = 0
        for i in empties:
            board[i] = mover
            count += recurse(board, other, mover)
            board[i] = None
        return count

    total = recurse(board, first, second)
    return total


def enumerate_tictactoe_playthroughs(limit: int | None = None):
    """Yield move sequences (cell indices 0-8) of complete games, X first."""
    board: list = [None] * 9
    out = []

    def recurse(mover: str, other: str, moves: tuple):
        if limit is not None and len(out) >= limit:
            return
        if _winner(board) is not None or all(v is not None for v in board):
            out.append(moves)
            return
        for i in range(9):
            if board[i] is None:
                board[i] = mover
                recurse(other, mover, moves + (i,))
                board[i] = None

    recurse("X", "O", ())
    return out


# ---------------------------------------------------------------------------
# Rule semantics read straight off the definitions (no compilation, no caches)
# ---------------------------------------------------------------------------


def eval_expr(sys, expr, state) -> bool:
    """True iff `state` lies in the state set `expr`."""
    if isinstance(expr, Lit):
        return state[[t.name for t in sys.tracks].index(expr.track)] == expr.value
    if isinstance(expr, Not):
        return not eval_expr(sys, expr.operand, state)
    if isinstance(expr, And):
        return all(eval_expr(sys, part, state) for part in expr.parts)
    if isinstance(expr, Or):
        return any(eval_expr(sys, part, state) for part in expr.parts)
    if isinstance(expr, Ref):
        return eval_expr(sys, sys.named_sets[expr.name], state)
    raise TypeError(expr)


def initial_states(sys) -> list:
    """Every state of the track product that satisfies init, in product order."""
    return [
        state
        for state in itertools.product(*(t.values for t in sys.tracks))
        if eval_expr(sys, sys.init, state)
    ]


def legal_sets(sys, state) -> tuple:
    """Per player, the decisions of the legality rules whose region holds."""
    return tuple(
        frozenset(
            rule.decision
            for rule in sys.legality_rules
            if rule.player == player and eval_expr(sys, rule.region, state)
        )
        for player in sys.players
    )


def consequences(sys, dtuple, state):
    """Results of the first rule whose pattern and guard match, else None."""
    for rule in sys.consequence_rules:
        if all(want in (WILDCARD, got) for want, got in zip(rule.pattern, dtuple)) and (
            rule.guard is None or eval_expr(sys, rule.guard, state)
        ):
            return rule.results
    return None


def apply_action(sys, name, state) -> tuple:
    """The first clause whose guard holds sets its tracks; no clause, no change."""
    names = [t.name for t in sys.tracks]
    for clause in sys.actions[name].clauses:
        if clause.guard is None or eval_expr(sys, clause.guard, state):
            values = list(state)
            for track, value in clause.assignments:
                values[names.index(track)] = value
            return tuple(values)
    return state


def outcome(sys, state) -> str:
    for rule in sys.outcome_rules:
        if eval_expr(sys, rule.region, state):
            return rule.outcome
    return sys.default_outcome


# ---------------------------------------------------------------------------
# Brute-force equivalence up to relabeling
# ---------------------------------------------------------------------------


def _brute_matrices_match(lt, u, rt, v, pi, edge_map) -> bool:
    lm = decision_matrix(lt, u)
    rm = decision_matrix(rt, v)
    rindex = {p: i for i, p in enumerate(rm.players)}
    axes = [(i, rindex[pi[p]]) for i, p in enumerate(lm.players)]
    if any(len(lm.choice_sets[i]) != len(rm.choice_sets[j]) for i, j in axes):
        return False
    options = [
        list(itertools.permutations(rm.choice_sets[j])) for _, j in axes
    ]
    for combo in itertools.product(*options):
        lam = [dict(zip(lm.choice_sets[i], combo[k])) for k, (i, _) in enumerate(axes)]
        ok = True
        for joint, edge in lm.mapping.items():
            rjoint: list = [None] * len(rm.players)
            for k, (i, j) in enumerate(axes):
                rjoint[j] = lam[k][joint[i]]
            if rm.mapping.get(tuple(rjoint)) != edge_map[edge]:
                ok = False
                break
        if ok:
            return True
    return False


def brute_equivalent(lt: GameTree, rt: GameTree, pin=frozenset()) -> bool:
    """Definition-faithful backtracking search for a relabeling equivalence."""
    pin = frozenset(pin)
    if len(lt.players) != len(rt.players):
        return False
    if "players" in pin:
        if sorted(lt.players) != sorted(rt.players):
            return False
        player_maps = [{p: p for p in lt.players}]
    else:
        player_maps = [
            dict(zip(lt.players, perm))
            for perm in itertools.permutations(rt.players)
        ]

    for pi in player_maps:
        omap: dict = {}
        oused: set = set()

        def undo(trail: list) -> None:
            for lo in trail:
                oused.discard(omap.pop(lo))

        def try_match(u: int, v: int):
            """Returns a trail of outcome assignments, or None on failure."""
            lk, rk = lt.node_kind[u], rt.node_kind[v]
            if lk != rk:
                return None
            if "states" in pin and lt.node_state[u] != rt.node_state[v]:
                return None
            if lk == TERMINAL:
                lo, ro = lt.node_outcome[u], rt.node_outcome[v]
                if "outcomes" in pin:
                    return [] if lo == ro else None
                if lo in omap:
                    return [] if omap[lo] == ro else None
                if ro in oused:
                    return None
                omap[lo] = ro
                oused.add(ro)
                return [lo]
            if lk == TRUNCATED:
                return []
            lchildren = [lt.edge_dst[e] for e in lt.node_children[u]]
            rchildren = [rt.edge_dst[e] for e in rt.node_children[v]]
            if len(lchildren) != len(rchildren):
                return None

            def pair_up(ls: list, rs: list):
                if not ls:
                    return [], {}
                a = ls[0]
                for idx, b in enumerate(rs):
                    if lk == CHANCE:
                        ea = lt.node_parent_edge[a]
                        eb = rt.node_parent_edge[b]
                        if lt.edge_prob[ea] != rt.edge_prob[eb]:
                            continue
                    trail = try_match(a, b)
                    if trail is None:
                        continue
                    rest = pair_up(ls[1:], rs[:idx] + rs[idx + 1 :])
                    if rest is not None:
                        rest_trail, rest_map = rest
                        rest_map = dict(rest_map)
                        rest_map[a] = b
                        return trail + rest_trail, rest_map
                    undo(trail)
                return None

            result = pair_up(lchildren, rchildren)
            if result is None:
                return None
            trail, child_map = result
            if lk == STATE:
                edge_map = {}
                for e in lt.node_children[u]:
                    child = child_map[lt.edge_dst[e]]
                    edge_map[e] = rt.node_parent_edge[child]
                if not _brute_matrices_match(lt, u, rt, v, pi, edge_map):
                    undo(trail)
                    return None
            return trail

        if try_match(lt.root, rt.root) is not None:
            return True
    return False
