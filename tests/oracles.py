"""Independent test oracles.

Everything here is deliberately written from first principles, sharing no
logic with the package's canonical-key machinery, so key-based verdicts can
be checked against definition-faithful brute force.  The exceptions, the
reference renderers, the reference matrix solver, the reference
matrix-redundancy loop, the in-place normalizer, the per-site engine
with its randomized `normalize_random`, the reference key pass and the
front end's reference passes, say so where they start.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ludokit import canon, core
from ludokit.dsl import (
    DAction,
    DConsequence,
    DDecisions,
    DDefaultOutcome,
    DForall,
    DGame,
    DInit,
    DLegal,
    DOutcome,
    DPlayers,
    DSet,
    DTrack,
    Diagnostic,
    GameParseError,
    Name,
    RActionClause,
    RAnd,
    RComprehension,
    RLit,
    RNot,
    ROr,
    RRef,
    Token,
    _flatten,
)
from ludokit.core import (
    WILDCARD,
    And,
    DecisionTuple,
    GameState,
    GameSystem,
    Lit,
    Not,
    Or,
    Ref,
    format_decision_tuple,
)
from ludokit.errors import (
    BudgetExceededError,
    LudokitError,
    NoRuleMatchesError,
    StateMapError,
    TreeInvariantError,
)
from ludokit.reduce import (
    ReductionTrace,
    _absorb_children_once,
    _absorbable,
    _is_forced,
    _merge_pair,
)
from ludokit.tree import (
    CHANCE,
    CHANCE_EDGE,
    DECISION_EDGE,
    DEFAULT_NODE_BUDGET,
    EdgeLabel,
    GameTree,
    NodeMeta,
    STATE,
    TERMINAL,
    TRUNCATED,
    _decode_seq,
    choice_rank,
    is_shared,
    node_meta,
    postorder,
    require_unshared,
    unfold,
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
# The unshared tree builder: one node per root path
# ---------------------------------------------------------------------------


def build_tree(
    sys: GameSystem,
    s0: GameState,
    depth_limit: Optional[int] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> GameTree:
    """Build the game tree rooted at s0, every node its own copy: the
    unfolded reference for the shared arena `ludokit.tree.build_tree` makes.

    Per legal decision tuple one decision edge is drawn; a singleton
    consequence list leads straight to a state node, otherwise through a
    chance node with probability-labeled chance edges.  `depth_limit` counts
    decision rounds from the root: state nodes more than `depth_limit` rounds
    deep are left unexpanded and marked truncated.  `node_budget` bounds total
    node count (systems can describe infinite trees).
    """
    engine = sys.engine()
    tree = GameTree(sys.players)
    label_cache: dict[DecisionTuple, EdgeLabel] = {}

    def label_for(dtuple: DecisionTuple) -> EdgeLabel:
        lab = label_cache.get(dtuple)
        if lab is None:
            lab = frozenset({(dtuple,)})
            label_cache[dtuple] = lab
        return lab

    # Per-state expansion cache: transposition-heavy games revisit states.
    expansion_cache: dict[GameState, Optional[list]] = {}

    def expansion(state: GameState):
        cached = expansion_cache.get(state, False)
        if cached is not False:
            return cached
        sets = engine.legal_sets(state)
        if not any(sets):
            expansion_cache[state] = None
            return None
        import itertools as _it

        choices = [sorted(s) if s else [None] for s in sets]
        out = []
        for dtuple in _it.product(*choices):
            results = engine.consequences(dtuple, state)
            resolved = tuple(
                (p, engine.successor(names)(state)) for p, names in results
            )
            out.append((dtuple, resolved))
        expansion_cache[state] = out
        return out

    budget = node_budget
    root = tree.add_node(STATE, state=s0)
    tree.root = root
    # (node, state, generation)
    stack: list[tuple[int, GameState, int]] = [(root, s0, 0)]
    count = 1
    add_node = tree.add_node
    add_edge = tree.add_edge
    while stack:
        node, state, gen = stack.pop()
        moves = expansion(state)
        if moves is None:
            tree.node_kind[node] = TERMINAL
            tree.node_outcome[node] = engine.outcome(state)
            continue
        if depth_limit is not None and gen > depth_limit:
            tree.node_kind[node] = TRUNCATED
            continue
        for dtuple, results in moves:
            if count + len(results) + 1 > budget:
                raise BudgetExceededError(
                    f"node budget {node_budget} exceeded while expanding "
                    f"{format_decision_tuple(dtuple)}"
                )
            if len(results) == 1:
                succ = results[0][1]
                child = add_node(STATE, state=succ)
                count += 1
                add_edge(node, child, DECISION_EDGE, label=label_for(dtuple))
                stack.append((child, succ, gen + 1))
            else:
                chance = add_node(CHANCE)
                count += 1
                add_edge(node, chance, DECISION_EDGE, label=label_for(dtuple))
                for p, succ in results:
                    child = add_node(STATE, state=succ)
                    count += 1
                    add_edge(chance, child, CHANCE_EDGE, prob=p)
                    stack.append((child, succ, gen + 1))
    return tree


def build_forest(sys: GameSystem, depth_limit: Optional[int] = None) -> list[GameTree]:
    """The unshared `build_tree` of each initial state, in the library's order."""
    return [build_tree(sys, s0, depth_limit) for s0 in core.initial_states(sys)]


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


def matching_rules(sys, dtuple, state) -> list:
    """Every consequence rule whose pattern and guard match, in rule order."""
    return [
        rule
        for rule in sys.consequence_rules
        if all(want in (WILDCARD, got) for want, got in zip(rule.pattern, dtuple))
        and (rule.guard is None or eval_expr(sys, rule.guard, state))
    ]


def consequences(sys, dtuple, state):
    """Results of the first rule whose pattern and guard match, else None."""
    matches = matching_rules(sys, dtuple, state)
    return matches[0].results if matches else None


def with_oracle_consequences(sys: GameSystem) -> GameSystem:
    """A copy of `sys` whose engine resolves every consequence lookup with
    `consequences` above: no index, no cache, guards read off the rules.
    Its move plans keep no tuple's moves, so a walk over states looks up
    every tuple, at a truncated frontier too."""
    copy = sys._replace()
    engine = copy.engine()

    def resolve(dtuple, state, strict=False):
        results = consequences(copy, dtuple, state)
        if results is None:
            raise NoRuleMatchesError(state, dtuple)
        return results

    plan = engine.move_plan
    engine.consequences = resolve
    engine.move_plan = lambda sets: tuple((d, label, None) for d, label, _ in plan(sets))
    return copy


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
    """Whether some per-player choice bijections carry the matrix at u onto
    the one at v, under the player map `pi` and the edge map `edge_map`."""
    lsets, lmapping = reference_matrix(lt, u)
    rsets, rmapping = reference_matrix(rt, v)
    rindex = {p: i for i, p in enumerate(rt.players)}
    axes = [(i, rindex[pi[p]]) for i, p in enumerate(lt.players)]
    if any(len(lsets[i]) != len(rsets[j]) for i, j in axes):
        return False
    options = [
        list(itertools.permutations(rsets[j])) for _, j in axes
    ]
    for combo in itertools.product(*options):
        lam = [dict(zip(lsets[i], combo[k])) for k, (i, _) in enumerate(axes)]
        ok = True
        for joint, edge in lmapping.items():
            rjoint: list = [None] * len(rt.players)
            for k, (i, j) in enumerate(axes):
                rjoint[j] = lam[k][joint[i]]
            if rmapping.get(tuple(rjoint)) != edge_map[edge]:
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
            lchildren = lt.node_children[u]
            rchildren = rt.node_children[v]
            if len(lchildren) != len(rchildren):
                return None

            def pair_up(ls: list, rs: list):
                """Pairs the out-edges `ls` with `rs`: (trail, edge map) or None."""
                if not ls:
                    return [], {}
                a = ls[0]
                for idx, b in enumerate(rs):
                    if lk == CHANCE and lt.edge_prob[a] != rt.edge_prob[b]:
                        continue
                    trail = try_match(lt.edge_dst[a], rt.edge_dst[b])
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
            trail, edge_map = result
            if lk == STATE:
                if not _brute_matrices_match(lt, u, rt, v, pi, edge_map):
                    undo(trail)
                    return None
            return trail

        if try_match(lt.root, rt.root) is not None:
            return True
    return False


def subtree_keys(tree: GameTree, pin=canon.PIN_SYMMETRY) -> dict[int, bytes]:
    """Every live node's `canon.make_key_fn` key under literal labels."""
    key = canon.make_key_fn(tree, pin)
    return {n: key(n) for n in postorder(tree)}


# ---------------------------------------------------------------------------
# Reference renderers: the exports as a document built whole, then dumped.
# Unlike the rest of this module they use `canon`: the export order breaks
# ties between equally likely chance edges by fully pinned subtree keys, so
# these check the text around that order, not the keys.
# ---------------------------------------------------------------------------


def _export_order(tree: GameTree) -> dict:
    """Canonically ordered out-edges per live node."""
    keys = subtree_keys(tree, canon.PIN_ALL)

    def label_key(label):
        return sorted(
            tuple(tuple("\x00" if d is None else d for d in t) for t in seq) for seq in label
        )

    order = {}
    for n in tree.iter_nodes():
        edges = tree.node_children[n]
        if not edges:
            order[n] = []
        elif tree.node_kind[n] == CHANCE:
            order[n] = sorted(edges, key=lambda e: (-tree.edge_prob[e], keys[tree.edge_dst[e]]))
        else:
            order[n] = sorted(edges, key=lambda e: label_key(tree.edge_label[e]))
    return order


def _export_ids(tree: GameTree, order: dict) -> tuple[dict, list]:
    ids, sequence = {}, []
    stack = [tree.root]
    while stack:
        n = stack.pop()
        ids[n] = len(sequence)
        sequence.append(n)
        for e in reversed(order[n]):
            stack.append(tree.edge_dst[e])
    return ids, sequence


def export_json(tree: GameTree) -> str:
    """The tree document as a dict, rendered by ``json.dumps(indent=2)``."""
    order = _export_order(tree)
    ids, sequence = _export_ids(tree, order)
    kind_names = {STATE: "state", CHANCE: "chance", TERMINAL: "terminal"}
    nodes, edges = [], []
    for n in sequence:
        entry: dict = {"id": ids[n], "kind": kind_names[min(tree.node_kind[n], TERMINAL)]}
        if tree.node_kind[n] == TRUNCATED:
            entry["kind"] = "state"
            entry["truncated"] = True
        if tree.node_state[n] is not None:
            entry["state"] = list(tree.node_state[n])
        if tree.node_outcome[n] is not None:
            entry["outcome"] = tree.node_outcome[n]
        nodes.append(entry)
        for e in order[n]:
            edge: dict = {"from": ids[n], "to": ids[tree.edge_dst[e]]}
            if tree.edge_kind[e] == DECISION_EDGE:
                edge["kind"] = "decision"
                edge["tuples"] = sorted(
                    ([list(t) for t in seq] for seq in tree.edge_label[e]),
                    key=lambda s: json.dumps(s),
                )
            else:
                edge["kind"] = "chance"
                edge["prob"] = str(tree.edge_prob[e])
            edges.append(edge)
    doc = {"players": list(tree.players), "root": ids[tree.root], "nodes": nodes, "edges": edges}
    return json.dumps(doc, indent=2) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_label(label) -> str:
    seqs = sorted(
        label, key=lambda seq: tuple(tuple("\x00" if d is None else d for d in t) for t in seq)
    )
    return "{" + ", ".join(".".join(format_decision_tuple(t) for t in seq) for seq in seqs) + "}"


def export_dot(tree: GameTree) -> str:
    """Graphviz text assembled as a list of lines."""
    order = _export_order(tree)
    ids, sequence = _export_ids(tree, order)
    lines = ["digraph gametree {"]
    for n in sequence:
        kind = tree.node_kind[n]
        if kind == STATE:
            attrs = 'shape=circle style=filled fillcolor=black label="" width=0.15'
        elif kind == CHANCE:
            attrs = 'shape=circle label="" width=0.25'
        elif kind == TERMINAL:
            attrs = f'shape=doublecircle label="{_dot_escape(tree.node_outcome[n])}"'
        else:
            attrs = 'shape=square style=dashed label="..."'
        lines.append(f"  n{ids[n]} [{attrs}];")
    for n in sequence:
        for e in order[n]:
            if tree.edge_kind[e] == DECISION_EDGE:
                label = _dot_escape(_dot_label(tree.edge_label[e]))
            else:
                label = str(tree.edge_prob[e])
            lines.append(f'  n{ids[n]} -> n{ids[tree.edge_dst[e]]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cli_trees(forest: list, fmt: str = "json") -> str:
    """What ``ludokit tree``/``reduce`` print for `forest`: each tree's DOT,
    one tree's document, or ``{"forest": [...]}`` re-dumped from the parsed
    documents."""
    if fmt == "dot":
        return "".join(export_dot(t) for t in forest)
    if len(forest) == 1:
        return export_json(forest[0])
    doc = {"forest": [json.loads(export_json(t)) for t in forest]}
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# The reference matrix decoder: the loop the library's matrix view ran
# before `tree.node_meta` took the decoding over, kept as it was, checks
# included.
# ---------------------------------------------------------------------------


def reference_matrix(tree: GameTree, node: int) -> tuple[tuple, dict]:
    """(choice sets sorted by `choice_rank`, joint choice -> edge) of a state
    node, decoded from its labels on every call."""
    if tree.node_kind[node] != STATE:
        raise TreeInvariantError(
            f"node {node} is {tree.kind_name(node)}; decision matrices live on state nodes"
        )
    edges = tree.node_children[node]
    if not edges:
        raise TreeInvariantError(f"state node {node} has no outgoing edges")
    n = len(tree.players)
    mapping: dict[tuple, int] = {}
    per_player: list[set] = [set() for _ in range(n)]
    for e in edges:
        if tree.edge_kind[e] != DECISION_EDGE:
            raise TreeInvariantError(f"state node {node} has a non-decision edge")
        label = tree.edge_label[e]
        if not label:
            raise TreeInvariantError(f"edge {e} has an empty tuple set")
        for seq in label:
            joint = _decode_seq(seq, n, f"edge {e}")
            if all(c is None for c in joint):
                raise TreeInvariantError(f"edge {e} carries an all-null decision tuple")
            if joint in mapping:
                raise TreeInvariantError(
                    f"sibling edges of node {node} share the joint choice {joint!r}"
                )
            mapping[joint] = e
            for i, c in enumerate(joint):
                per_player[i].add(c)
    choice_sets = tuple(
        tuple(sorted(s, key=choice_rank)) if s else (None,) for s in per_player
    )
    expected = 1
    for cs in choice_sets:
        expected *= len(cs)
    if len(mapping) != expected:
        raise TreeInvariantError(
            f"decision matrix at node {node} is not total: "
            f"{len(mapping)} joint choices over a domain of {expected}"
        )
    covered = set(mapping.values())
    if covered != set(edges):
        raise TreeInvariantError(
            f"decision matrix at node {node} does not cover all outgoing edges"
        )
    return choice_sets, mapping


# ---------------------------------------------------------------------------
# The reference matrix-redundancy loop, kept verbatim: `reduce._pruned_labels`
# answers a matrix where one player chooses in closed form, and `reduce`
# skips matrices whose every edge carries one joint choice.  The oracle
# engines below run this loop at every node.
# ---------------------------------------------------------------------------


def reference_pruned_labels(meta: NodeMeta) -> Optional[tuple[frozenset, ...]]:
    """Per-edge labels once every redundant choice is deleted, or None."""
    entries = [
        (pos, seq, joint) for pos, pairs in enumerate(meta.decoded) for seq, joint in pairs
    ]
    n = len(meta.choices)
    changed = False
    while True:
        deleted = False
        for i in range(n):
            sig: dict = {}
            for pos, _, joint in entries:
                sig.setdefault(joint[i], []).append((joint[:i] + joint[i + 1 :], pos))
            groups: dict = {}
            for choice, results in sig.items():
                groups.setdefault(frozenset(results), []).append(choice)
            doomed = set()
            for members in groups.values():
                if len(members) > 1:
                    members.sort(key=choice_rank)
                    doomed.update(members[1:])
            if doomed:
                entries = [t for t in entries if t[2][i] not in doomed]
                deleted = changed = True
        if not deleted:
            break
    if not changed:
        return None
    per_edge: list[set] = [set() for _ in meta.decoded]
    for pos, seq, _ in entries:
        per_edge[pos].add(seq)
    if not all(per_edge):
        raise AssertionError("matrix redundancy orphaned an edge")
    return tuple([frozenset(seqs) for seqs in per_edge])


def _matrix_redundancy_at(tree: GameTree, node: int) -> bool:
    """Delete redundant choices at the node by the reference loop; returns
    True if anything changed."""
    pruned = reference_pruned_labels(node_meta(tree, node))
    if pruned is None:
        return False
    for e, label in zip(tree.node_children[node], pruned):
        tree.edge_label[e] = label
    return True


# ---------------------------------------------------------------------------
# The reference matrix solver: `canon._matrix_fingerprint_general` as it was
# before automorphism pruning, kept verbatim.  It individualizes every member
# of a tied class and keeps the first minimum, so the pruned solver must give
# the same (fingerprint, edge order) on every input.
# ---------------------------------------------------------------------------


def reference_matrix_fingerprint(
    cells: list[tuple], choice_lists: list[list], edge_cols: list[bytes]
) -> tuple[bytes, list[int]]:
    """Canonical form of a multi-player matrix by refinement + branching.

    cells: (choice-index tuple, edge position) pairs covering the product;
    edge_cols: each edge position's color.  Returns (fingerprint, edge
    positions in the order realizing it).
    """
    n_axes = len(choice_lists)
    n_edges = len(edge_cols)

    def refine(choice_class: list[list[int]], edge_class: list[int]):
        while True:
            changed = False
            new_edge_sigs = [[] for _ in range(n_edges)]
            for idx, epos in cells:
                new_edge_sigs[epos].append(
                    tuple(choice_class[a][idx[a]] for a in range(n_axes))
                )
            sig_map = {}
            new_edge_class = []
            for epos in range(n_edges):
                sig = (edge_class[epos], tuple(sorted(new_edge_sigs[epos])))
                if sig not in sig_map:
                    sig_map[sig] = None
                new_edge_class.append(sig)
            ordered = {s: i for i, s in enumerate(sorted(sig_map))}
            new_edge_class = [ordered[s] for s in new_edge_class]
            if new_edge_class != edge_class:
                changed = True
                edge_class = new_edge_class
            for a in range(n_axes):
                sigs = [[] for _ in choice_lists[a]]
                for idx, epos in cells:
                    sigs[idx[a]].append(
                        (
                            edge_class[epos],
                            tuple(
                                choice_class[b][idx[b]]
                                for b in range(n_axes)
                                if b != a
                            ),
                        )
                    )
                keyed = [
                    (choice_class[a][i], tuple(sorted(sigs[i])))
                    for i in range(len(choice_lists[a]))
                ]
                ordered = {s: i for i, s in enumerate(sorted(set(keyed)))}
                new_class = [ordered[k] for k in keyed]
                if new_class != choice_class[a]:
                    changed = True
                    choice_class[a] = new_class
            if not changed:
                return choice_class, edge_class

    def solve(choice_class: list[list[int]], edge_class: list[int]):
        choice_class = [list(c) for c in choice_class]
        choice_class, edge_class = refine(choice_class, edge_class)
        for a in range(n_axes):
            counts = Counter(choice_class[a])
            dup = sorted(c for c, k in counts.items() if k > 1)
            if dup:
                target = dup[0]
                members = [i for i, c in enumerate(choice_class[a]) if c == target]
                best = None
                for m in members:
                    trial = [list(c) for c in choice_class]
                    # individualize m below its class peers
                    trial[a] = [
                        c * 2 + (0 if i == m else 1) if c == target else c * 2
                        for i, c in enumerate(trial[a])
                    ]
                    result = solve(trial, list(edge_class))
                    if best is None or result[0] < best[0]:
                        best = result
                return best
        # discrete: derive canonical orders
        inv = []
        for a in range(n_axes):
            perm = sorted(range(len(choice_lists[a])), key=lambda i: choice_class[a][i])
            inv.append({old: new for new, old in enumerate(perm)})
        cellmap = {}
        for idx, epos in cells:
            cellmap[tuple(inv[a][idx[a]] for a in range(n_axes))] = epos
        flat = []
        edge_first: dict[int, int] = {}
        for idx in itertools.product(*(range(len(c)) for c in choice_lists)):
            epos = cellmap[idx]
            pos = edge_first.setdefault(epos, len(edge_first))
            flat.append(pos)
        edge_perm = sorted(edge_first, key=edge_first.get)
        enc = repr(
            (
                tuple(len(c) for c in choice_lists),
                tuple(flat),
                tuple(edge_cols[epos] for epos in edge_perm),
            )
        ).encode()
        return enc, edge_perm

    col_rank = {c: i for i, c in enumerate(sorted(set(edge_cols)))}
    return solve(
        [[0] * len(c) for c in choice_lists],
        [col_rank[c] for c in edge_cols],
    )


# ---------------------------------------------------------------------------
# The in-place normalizer: the reference for `ludokit.reduce.normalize`.
# Unlike the rest of this module it uses the package's rewrite helpers and
# `canon` keys: it checks the memoized engine's sharing and bookkeeping, not
# the rewrites themselves.  It keeps its own single-player site test, which
# the package engine folds into its loop.
# ---------------------------------------------------------------------------


def node_choice_total(tree: GameTree, node: int) -> int:
    """Total choice-set cardinality of the node's decision matrix (0 off state nodes)."""
    if tree.node_kind[node] != STATE or not tree.node_children[node]:
        return 0
    return node_meta(tree, node).total


def _owner_of(tree: GameTree, node: int) -> Optional[int]:
    """The unique player with a non-null choice at the node, if any."""
    if tree.node_kind[node] != STATE:
        return None
    return node_meta(tree, node).owner


def _single_player_site_at(tree: GameTree, node: int) -> bool:
    """Does a (truncation-free) single-player site root here?"""
    owner = _owner_of(tree, node)
    if owner is None:
        return False
    if any(
        tree.node_kind[tree.edge_dst[e]] == TRUNCATED
        for e in tree.node_children[node]
    ):
        return False  # a site leaf would be a truncated node
    return any(
        _absorbable(tree, owner, tree.edge_dst[e])
        for e in tree.node_children[node]
    )


def _intern(tree: GameTree) -> tuple[list[int], list[tuple[int, int]]]:
    """Hash-cons the tree: one id per distinct subtree.

    Returns every node's id (indexed by node) and, per id, the subtree's
    (node count, total choice count).  The key is exact and ordered: kind,
    state, outcome and each out-edge's kind, label, probability and child
    id.  So it is sound on imported, reduced and depth-limited trees alike,
    where equal states need not root equal subtrees.
    """
    ids = [0] * len(tree.node_kind)
    table: dict[tuple, int] = {}
    costs: list[tuple[int, int]] = []
    node_children = tree.node_children
    edge_dst = tree.edge_dst
    edge_kind = tree.edge_kind
    edge_label = tree.edge_label
    edge_prob = tree.edge_prob
    for n in postorder(tree):
        children = node_children[n]
        key = (
            tree.node_kind[n],
            tree.node_state[n],
            tree.node_outcome[n],
            tuple(
                (edge_kind[e], edge_label[e], edge_prob[e], ids[edge_dst[e]])
                for e in children
            ),
        )
        i = table.get(key)
        if i is None:
            i = table[key] = len(costs)
            nodes, choices = 1, node_choice_total(tree, n)
            for e in children:
                child_nodes, child_choices = costs[ids[edge_dst[e]]]
                nodes += child_nodes
                choices += child_choices
            costs.append((nodes, choices))
        ids[n] = i
    return ids, costs


def _normalize_fast(tree: GameTree, trace: ReductionTrace) -> GameTree:
    """Bottom-up normalization with incremental canonical keys, in place.

    The input may be a DAG (a built arena) and is not unfolded.  Each
    distinct subtree (`_intern` class) is normalized once, at the first of
    its nodes the walk reaches.  The walk carries each node's incoming edge,
    because on a DAG a node's parent pointer names only one of its parents:
    a node is finished into the edge it was reached by, and a symmetry merge
    that splices it out rewrites that edge.  A later edge into a finished
    class is pointed at the finished node, and the class's trace steps are
    replayed, so the trace is exactly that of processing the copy.

    This is sound because each arena node is processed at most once, after
    all of its children, and processing writes only into the node's own
    out-edges and the incoming edge being walked.  Every other edge into the
    node's class is redirected when the walk pops it, so no parent sees a
    stale child, and a finished node's children and labels never change
    again.  Parent pointers are not kept up to date; `unfold` writes the
    output tree with fresh ones.
    """
    key_fn = canon.make_key_fn(tree, canon.PIN_SYMMETRY)
    facts: dict[int, tuple[int, int, bool]] = {}

    def finished_facts(node: int) -> tuple[int, int, bool]:
        """(node count, choice count, has a truncated node) of a finished
        subtree; it never changes again, so a memo entry stays valid."""
        got = facts.get(node)
        if got is not None:
            return got
        for n in postorder(tree, node, facts):
            nodes, choices = 1, node_choice_total(tree, n)
            trunc = tree.node_kind[n] == TRUNCATED
            for e in tree.node_children[n]:
                child_nodes, child_choices, child_trunc = facts[tree.edge_dst[e]]
                nodes += child_nodes
                choices += child_choices
                trunc = trunc or child_trunc
            facts[n] = (nodes, choices, trunc)
        return facts[node]

    ids, costs = _intern(tree)
    trace.start = costs[ids[tree.root]]
    record = trace.record

    def splice_forced_child(v: int, e_vw: int) -> bool:
        """Bookkeeping, pairwise: splice a forced state child of v."""
        w = tree.edge_dst[e_vw]
        if not _is_forced(tree, w):
            return False
        e_wx = tree.node_children[w][0]
        x = tree.edge_dst[e_wx]
        x_kind = tree.node_kind[x]
        w_choices = node_choice_total(tree, w)
        if x_kind in (STATE, TERMINAL):
            tree.edge_dst[e_vw] = x
            record("bookkeeping", w, -1, -w_choices)
            return True
        if x_kind == CHANCE:
            if any(
                tree.node_kind[tree.edge_dst[e]] == TRUNCATED
                for e in tree.node_children[x]
            ):
                return False  # site leaves include a truncated node
            if tree.node_kind[v] == CHANCE:
                p_r = tree.edge_prob[e_vw]
                tree.node_children[v].remove(e_vw)
                for e in tree.node_children[x]:
                    tree.add_edge(v, tree.edge_dst[e], CHANCE_EDGE, prob=p_r * tree.edge_prob[e])
                record("bookkeeping", w, -2, -w_choices)
            else:
                tree.edge_dst[e_vw] = x
                record("bookkeeping", w, -1, -w_choices)
            return True
        return False  # truncated target: skip

    def process(v: int, e_in: int) -> None:
        """Normalize v's node, whose children are finished; `e_in` leads to
        v (-1 at the root)."""
        while True:
            changed = False
            if tree.node_kind[v] == STATE and tree.node_children[v]:
                before = node_choice_total(tree, v)
                if _matrix_redundancy_at(tree, v):
                    record("matrix-redundancy", v, 0, node_choice_total(tree, v) - before)
                    changed = True
            if tree.node_kind[v] in (STATE, CHANCE):
                for e in list(tree.node_children[v]):
                    if e in tree.node_children[v] and splice_forced_child(v, e):
                        changed = True
            if tree.node_kind[v] == STATE and _single_player_site_at(tree, v):
                owner = _owner_of(tree, v)
                before_v = node_choice_total(tree, v)
                absorbed = _absorb_children_once(tree, v, owner)
                if absorbed:
                    changed = True
                    dc = (
                        node_choice_total(tree, v)
                        - before_v
                        - sum(node_choice_total(tree, w) for w in absorbed)
                    )
                    record("single-player", v, -len(absorbed), dc)
            # symmetry merges among the (now stable-keyed) children
            groups: dict[bytes, list[int]] = {}
            for e in tree.node_children[v]:
                dst = tree.edge_dst[e]
                if finished_facts(dst)[2]:
                    continue
                groups.setdefault(key_fn(dst), []).append(e)
            spliced_out = False
            for edges in groups.values():
                if len(edges) < 2:
                    continue
                survivor = edges[0]
                for victim in edges[1:]:
                    nodes, choices, _ = finished_facts(tree.edge_dst[victim])
                    stand = _merge_pair(tree, v, victim, survivor)
                    spliced = stand != v
                    if spliced:
                        _splice_into(tree, e_in, stand)
                    record("symmetry", v, -nodes - (1 if spliced else 0), -choices)
                    changed = True
                    if spliced:
                        spliced_out = True
                        break
                if spliced_out:
                    break
            if spliced_out:
                return  # v itself was removed
            if not changed:
                return

    # Children first, not descending into a finished class.  An entry is
    # (node, incoming edge, its first step), the first step -1 while the
    # node is yet to be entered.
    # finished: class id -> (finished node, its steps lo:hi)
    finished: dict[int, tuple[int, int, int]] = {}
    stack: list[tuple[int, int, int]] = [(tree.root, -1, -1)]
    while stack:
        v, e, lo = stack.pop()
        if lo < 0:
            done = finished.get(ids[v])
            if done is None:
                stack.append((v, e, trace.length))
                for c in tree.node_children[v]:
                    stack.append((tree.edge_dst[c], c, -1))
                continue
            node, lo, hi = done
            # v is not the root: the root's subtree is the largest, so unique
            tree.edge_dst[e] = node
            # A replay repeats steps that `record` has already checked, so
            # it cannot fail the check; the measures follow from the steps.
            trace.replay(lo, hi)
            continue
        if tree.node_kind[v] not in (TERMINAL, TRUNCATED):
            process(v, e)
        finished[ids[v]] = (tree.edge_dst[e] if e >= 0 else tree.root, lo, trace.length)

    # Root-level bookkeeping (Case 1 with the root as the subtree root).
    while _is_forced(tree, tree.root):
        e = tree.node_children[tree.root][0]
        x = tree.edge_dst[e]
        if tree.node_kind[x] not in (STATE, TERMINAL):
            break
        old_root = tree.root
        cost = node_choice_total(tree, old_root)
        tree.root = x
        record("bookkeeping", old_root, -1, -cost)
    return tree


def normalize_in_place(tree: GameTree) -> tuple[GameTree, ReductionTrace]:
    """`ludokit.reduce.normalize` as it rewrote the input arena in place, on
    a copy of `tree`.  The result is written out by `unfold`."""
    trace = ReductionTrace()
    work = tree.copy()
    _normalize_fast(work, trace)
    return unfold(work), trace


# ---------------------------------------------------------------------------
# The per-site engine: `normalize_random` checks that `ludokit.reduce.normalize`
# does not depend on the order of the rewrites.  Like the in-place normalizer
# it uses the package's rewrite helpers and `canon` keys.  Sites name nodes by
# arena id, so a shared arena is refused with `TreeInvariantError`; a stale
# site raises `StaleSiteError`.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionSite:
    """A detected rewrite opportunity at node `root`.

    Applying it re-checks that `root` is still reachable from the tree's
    root and that the site's structure still holds.
    """

    kind: str  # "matrix-redundancy" | "bookkeeping" | "single-player" | "symmetry"
    root: int
    payload: tuple = ()


class StaleSiteError(LudokitError):
    """A reduction site no longer matches the tree it was detected on."""


def tree_measure(tree: GameTree) -> tuple[int, int]:
    """(node count, total choice-set cardinality): the termination measure."""
    nodes = 0
    choices = 0
    for n in tree.iter_nodes():
        nodes += 1
        choices += node_choice_total(tree, n)
    return nodes, choices


def _parent_edges(tree: GameTree) -> dict[int, int]:
    """Per node reachable from the root, the edge into it (-1 at the root).

    The per-site rewrites run on unshared trees, where that edge is unique.
    """
    parent = {tree.root: -1}
    edge_dst = tree.edge_dst
    for n in tree.iter_nodes():
        for e in tree.node_children[n]:
            parent[edge_dst[e]] = e
    return parent


def _parent(tree: GameTree, parent_edges: dict[int, int], node: int) -> int:
    e = parent_edges[node]
    return -1 if e < 0 else tree.edge_src[e]


def _check_live(tree: GameTree, node: int) -> None:
    if node not in _parent_edges(tree):
        raise StaleSiteError(f"node {node} is no longer in the tree")


def _has_truncated(tree: GameTree, node: int) -> bool:
    return any(tree.node_kind[n] == TRUNCATED for n in postorder(tree, node))


def _splice_into(tree: GameTree, e: int, new: int) -> None:
    """Move `new` (with its subtree) to the end of edge `e`, or to the root
    when `e` is -1: into the position of the node `e` led to."""
    if e < 0:
        tree.root = new
    else:
        tree.edge_dst[e] = new


def find_matrix_redundancy_sites(tree: GameTree) -> list[ReductionSite]:
    require_unshared(tree, "find_matrix_redundancy_sites")
    return [
        ReductionSite("matrix-redundancy", node)
        for node in tree.iter_nodes()
        if tree.node_kind[node] == STATE
        and tree.node_children[node]
        and reference_pruned_labels(node_meta(tree, node)) is not None
    ]


def reduce_matrix_redundancy(tree: GameTree, site) -> GameTree:
    """Apply the duplicate-choice reduction at one node (no-op if none)."""
    require_unshared(tree, "reduce_matrix_redundancy")
    node = site.root if isinstance(site, ReductionSite) else site
    _check_live(tree, node)
    if tree.node_kind[node] != STATE:
        raise TreeInvariantError(f"node {node} is not a state node")
    _matrix_redundancy_at(tree, node)
    return tree


def _bookkeeping_walk(tree: GameTree, root: int):
    """Interiors, leaves, and path probabilities of the maximal site at root.

    Returns (interiors, leaves: [(node, prob)], has_chance, touches_truncated).
    """
    interiors: list[int] = []
    leaves: list[tuple[int, Fraction]] = []
    has_chance = False
    touches_truncated = False
    stack: list[tuple[int, Fraction, bool]] = [(root, Fraction(1), True)]
    while stack:
        node, prob, is_root = stack.pop()
        kind = tree.node_kind[node]
        if kind == CHANCE:
            has_chance = True
            interiors.append(node)
            for e in tree.node_children[node]:
                stack.append((tree.edge_dst[e], prob * tree.edge_prob[e], False))
        elif _is_forced(tree, node):
            interiors.append(node)
            e = tree.node_children[node][0]
            stack.append((tree.edge_dst[e], prob, False))
        else:
            if kind == TRUNCATED:
                touches_truncated = True
            leaves.append((node, prob))
    return interiors, leaves, has_chance, touches_truncated


def find_bookkeeping_sites(tree: GameTree) -> list[ReductionSite]:
    """Maximal bookkeeping subtrees that actually shrink the tree."""
    require_unshared(tree, "find_bookkeeping_sites")
    parent_edges = _parent_edges(tree)
    sites = []
    for node in tree.iter_nodes():
        if not _is_forced(tree, node):
            continue
        parent = _parent(tree, parent_edges, node)
        if parent >= 0 and _is_forced(tree, parent):
            continue  # not maximal: parent's site contains this one
        interiors, leaves, has_chance, touches = _bookkeeping_walk(tree, node)
        if touches:
            continue
        if not has_chance:
            sites.append(ReductionSite("bookkeeping", node, ("case1",)))
            continue
        if parent < 0 and len(interiors) == 2 and tree.node_kind[interiors[1]] == CHANCE:
            continue  # root -> chance -> leaves is already the reduced shape
        sites.append(ReductionSite("bookkeeping", node, ("case2",)))
    return sites


def reduce_bookkeeping(tree: GameTree, site: ReductionSite) -> GameTree:
    """Collapse one maximal bookkeeping subtree (cases per the definition)."""
    require_unshared(tree, "reduce_bookkeeping")
    root = site.root
    _check_live(tree, root)
    if not _is_forced(tree, root):
        raise StaleSiteError(f"node {root} no longer roots a bookkeeping subtree")
    interiors, leaves, has_chance, touches = _bookkeeping_walk(tree, root)
    if touches:
        raise StaleSiteError("site touches a truncated frontier node")
    if not has_chance:
        assert len(leaves) == 1
        leaf = leaves[0][0]
        _splice_into(tree, _parent_edges(tree)[root], leaf)
        return tree
    total = sum((p for _, p in leaves), Fraction(0))
    if total != 1:
        raise AssertionError(f"path probabilities sum to {total}, not 1")
    parent_edge = _parent_edges(tree)[root]
    if parent_edge < 0:
        # Case 2c: keep the root and its single decision edge.
        e_r = tree.node_children[root][0]
        c = tree.add_node(CHANCE)
        tree.edge_dst[e_r] = c
        for leaf, p in leaves:
            tree.add_edge(c, leaf, CHANCE_EDGE, prob=p)
    elif tree.node_kind[tree.edge_src[parent_edge]] == CHANCE:
        # Case 2b: fold into the parent chance node, scaling by its edge.
        parent = tree.edge_src[parent_edge]
        p_r = tree.edge_prob[parent_edge]
        tree.node_children[parent].remove(parent_edge)
        for leaf, p in leaves:
            tree.add_edge(parent, leaf, CHANCE_EDGE, prob=p_r * p)
    else:
        # Case 2a: a fresh chance node takes the root's position.
        c = tree.add_node(CHANCE)
        _splice_into(tree, parent_edge, c)
        for leaf, p in leaves:
            tree.add_edge(c, leaf, CHANCE_EDGE, prob=p)
    return tree


def find_single_player_sites(tree: GameTree) -> list[ReductionSite]:
    """Maximal single-player deterministic subtrees of depth at least two."""
    require_unshared(tree, "find_single_player_sites")
    parent_edges = _parent_edges(tree)
    sites = []
    for node in tree.iter_nodes():
        if not _single_player_site_at(tree, node):
            continue
        parent = _parent(tree, parent_edges, node)
        if (
            parent >= 0
            and _owner_of(tree, parent) == _owner_of(tree, node)
            and _single_player_site_at(tree, parent)
            and _absorbable(tree, _owner_of(tree, parent), node)
        ):
            continue  # parent's site strictly contains this one
        sites.append(ReductionSite("single-player", node))
    return sites


def reduce_single_player(tree: GameTree, site: ReductionSite) -> GameTree:
    """Collapse one maximal single-player subtree into composite choices."""
    require_unshared(tree, "reduce_single_player")
    root = site.root
    _check_live(tree, root)
    if not _single_player_site_at(tree, root):
        raise StaleSiteError(f"node {root} no longer roots a single-player site")
    owner = _owner_of(tree, root)
    absorbed_any = False
    while True:
        absorbed = _absorb_children_once(tree, root, owner)
        if not absorbed:
            break
        absorbed_any = True
    if not absorbed_any:
        raise StaleSiteError(f"node {root} has no absorbable children")
    return tree


def find_symmetry_sites(tree: GameTree) -> list[ReductionSite]:
    """Sibling pairs equivalent up to relabeling with identical players/outcomes."""
    require_unshared(tree, "find_symmetry_sites")
    keys = subtree_keys(tree)
    sites = []
    for node in tree.iter_nodes():
        groups: dict[bytes, list[int]] = {}
        for e in tree.node_children[node]:
            dst = tree.edge_dst[e]
            if _has_truncated(tree, dst):
                continue
            groups.setdefault(keys[dst], []).append(e)
        for edges in groups.values():
            if len(edges) > 1:
                survivor = edges[0]
                for victim in edges[1:]:
                    sites.append(ReductionSite("symmetry", node, (victim, survivor)))
    return sites


def reduce_symmetry(tree: GameTree, site: ReductionSite) -> GameTree:
    """Merge one symmetry-redundant subtree into its sibling."""
    require_unshared(tree, "reduce_symmetry")
    victim_edge, survivor_edge = site.payload
    parent = site.root
    _check_live(tree, parent)
    if victim_edge not in tree.node_children[parent] or survivor_edge not in tree.node_children[parent]:
        raise StaleSiteError("merge edges are no longer siblings")
    keys = subtree_keys(tree)
    if keys[tree.edge_dst[victim_edge]] != keys[tree.edge_dst[survivor_edge]]:
        raise StaleSiteError("subtree equivalence no longer holds")
    node = _merge_pair(tree, parent, victim_edge, survivor_edge)
    if node != parent:
        _splice_into(tree, _parent_edges(tree)[parent], node)
    return tree


def normalize_random(tree: GameTree, seed: int) -> tuple[GameTree, ReductionTrace]:
    """Reference engine: detect all sites, apply one at random, repeat.

    Used to check that the normal form does not depend on the order of the
    rewrites.  Its per-site rewrites name nodes by arena id, so it works on
    a copy of the input, unfolded first when the input is shared; trace ids
    are those of the copy.  The input is left unchanged.
    """
    work = unfold(tree) if is_shared(tree) else tree.copy()
    rng = random.Random(seed)
    trace = ReductionTrace()
    trace.start = measure = tree_measure(work)
    while True:
        sites = (
            find_matrix_redundancy_sites(work)
            + find_bookkeeping_sites(work)
            + find_single_player_sites(work)
            + find_symmetry_sites(work)
        )
        if not sites:
            return unfold(work), trace
        site = rng.choice(sites)
        if site.kind == "matrix-redundancy":
            reduce_matrix_redundancy(work, site)
        elif site.kind == "bookkeeping":
            reduce_bookkeeping(work, site)
        elif site.kind == "single-player":
            reduce_single_player(work, site)
        else:
            reduce_symmetry(work, site)
        before, measure = measure, tree_measure(work)
        trace.record(site.kind, site.root, measure[0] - before[0], measure[1] - before[1])


# ---------------------------------------------------------------------------
# Reference key pass: `canon`'s labeling, node encoder and signature walk as
# they were before the labeling kept its constants and the walk went flat,
# copied unchanged but for their names.  Like the reference renderers they
# use `canon` (its digest and its matrix solver); the key pass and the walk
# must agree with them byte for byte.
# ---------------------------------------------------------------------------

_digest = canon._digest
canonical_matrix = canon.canonical_matrix


def reference_labeling(tree: GameTree, player_code: dict[str, bytes], outcome_code: dict[str, bytes]):
    """A labeling's axis order, its axis header and its outcome coder; an
    outcome missing from `outcome_code` gets a literal code."""
    players = tree.players
    axis_order = sorted(range(len(players)), key=lambda i: player_code[players[i]])
    axis_header = b",".join(player_code[players[i]] for i in axis_order) + b";"

    def out_code(outcome: str) -> bytes:
        code = outcome_code.get(outcome)
        return code if code is not None else b"O:" + outcome.encode()

    return axis_order, axis_header, out_code


def reference_fill_keys(
    tree: GameTree,
    order,
    memo: dict[int, bytes],
    orders: dict[int, list[int]],
    axis_order: list[int],
    axis_header: bytes,
    out_code,
    pin_states: bool,
) -> None:
    """Compute keys for `order` (children-first) into `memo`, and each node's
    out-edges into `orders` in the order its encoding lists them; the hot loop."""
    node_kind = tree.node_kind
    node_outcome = tree.node_outcome
    node_state = tree.node_state
    node_children = tree.node_children
    edge_dst = tree.edge_dst
    edge_prob = tree.edge_prob
    prob_bytes: dict = {}
    digest = _digest
    meta_of = node_meta
    for n in order:
        kind = node_kind[n]
        if kind == STATE:
            edges = node_children[n]
            _, sizes, counts, active, _, _, _ = meta_of(tree, n)
            if active <= 1:
                # Single-active-player matrix: fully described by sizes plus
                # the multiset of (child key, choices onto the child's edge).
                parts = sorted([
                    (memo[edge_dst[e]] + b"#%d;" % c, e) for e, c in zip(edges, counts)
                ])
                enc = (
                    b"S"
                    + axis_header
                    + repr([sizes[i] for i in axis_order]).encode()
                    + b"".join([part for part, _ in parts])
                )
                orders[n] = [e for _, e in parts]
            else:
                cols = {e: memo[edge_dst[e]] for e in edges}
                fingerprint, orders[n], _ = canonical_matrix(tree, n, axis_order, cols)
                enc = b"S" + axis_header + b"G" + fingerprint
            if pin_states:
                enc += repr(node_state[n]).encode()
        elif kind == TERMINAL:
            enc = b"T" + out_code(node_outcome[n])
        elif kind == CHANCE:
            parts = []
            for e in node_children[n]:
                p = edge_prob[e]
                pb = prob_bytes.get(p)
                if pb is None:
                    pb = prob_bytes[p] = str(p).encode() + b"@"
                parts.append((pb + memo[edge_dst[e]], e))
            parts.sort()
            enc = b"C" + b"|".join([part for part, _ in parts])
            orders[n] = [e for _, e in parts]
        else:
            enc = b"U"
            if pin_states:
                enc += repr(node_state[n]).encode()
        memo[n] = digest(enc)


def reference_forest_signatures(forest: list[GameTree]):
    """Renaming-invariant statistics of the unfolded forest.

    Per player, the (depth, choice-set size) multiset of its state nodes;
    per outcome, the depth multiset of its terminals; and the multisets of
    node kinds and chance probabilities.  Each arena node is visited once,
    parents first, carrying how many root paths reach it at each depth.
    """
    players = forest[0].players
    player_sig: dict[str, Counter] = {p: Counter() for p in players}
    outcome_sig: dict[str, Counter] = {}
    kind_counts: Counter = Counter()
    prob_counts: Counter = Counter()
    for tree in forest:
        node_kind = tree.node_kind
        node_children = tree.node_children
        edge_dst = tree.edge_dst
        depths: dict[int, dict[int, int]] = {tree.root: {0: 1}}  # node -> {depth: paths}
        for n in reversed(postorder(tree)):
            at = depths.pop(n)
            paths = sum(at.values())
            kind = node_kind[n]
            kind_counts[kind] += paths
            for e in node_children[n]:
                below = depths.setdefault(edge_dst[e], {})
                for d, k in at.items():
                    below[d + 1] = below.get(d + 1, 0) + k
            if kind == TERMINAL:
                sig = outcome_sig.setdefault(tree.node_outcome[n], Counter())
                for d, k in at.items():
                    sig[d] += k
            elif kind == STATE:
                sizes = node_meta(tree, n).sizes
                for i, p in enumerate(players):
                    sig = player_sig[p]
                    for d, k in at.items():
                        sig[(d, sizes[i])] += k
            elif kind == CHANCE:
                for e in node_children[n]:
                    prob_counts[tree.edge_prob[e]] += paths
    p_sigs = {p: repr(sorted(c.items())).encode() for p, c in player_sig.items()}
    o_sigs = {o: repr(sorted(c.items())).encode() for o, c in outcome_sig.items()}
    return p_sigs, o_sigs, kind_counts, prob_counts


# ---------------------------------------------------------------------------
# The front end's reference passes: the character-by-character lexer, the
# validation walk that re-walks a named set at every reference, and the
# macro expander that interprets each guard per combination.  They are the
# package's earlier implementations, kept verbatim; `tests/test_dsl.py`
# requires the same tokens, problems, expansions and diagnostics of the
# package's passes.
# ---------------------------------------------------------------------------


_PUNCT = (
    "->", "..", "<=", ">=", "!=", "{", "}", "(", ")", ",", ";", ":", "=",
    "*", "/", "+", "-", "<", ">",
)


def reference_lex(text: str, path: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        matched = None
        for p in _PUNCT:
            if text.startswith(p, i):
                matched = p
                break
        if matched:
            tokens.append(Token("punct", matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if ch.isalnum() or ch in "_$":
            start = i
            while i < n and (text[i].isalnum() or text[i] in "_$"):
                i += 1
            tokens.append(Token("ident", text[start:i], line, col))
            col += i - start
            continue
        raise GameParseError(
            [Diagnostic(path, line, col, "error", f"unexpected character {ch!r}")]
        )
    tokens.append(Token("eof", "", line, col))
    return tokens



def reference_validate_system(sys: GameSystem) -> list[str]:
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

    def check_expr(expr: Expr, where: str, stack: tuple[str, ...] = ()) -> None:
        # depth first with an explicit stack: named-set chains nest arbitrarily
        todo: list[tuple[Expr, str, tuple[str, ...]]] = [(expr, where, stack)]
        while todo:
            expr, where, stack = todo.pop()
            if isinstance(expr, Lit):
                track = tracks.get(expr.track)
                if track is None:
                    problems.append(f"{where}: unknown track {expr.track!r}")
                elif expr.value not in track.values:
                    problems.append(
                        f"{where}: track {expr.track!r} has no value {expr.value!r}"
                    )
            elif isinstance(expr, Not):
                todo.append((expr.operand, where, stack))
            elif isinstance(expr, (And, Or)):
                todo.extend((part, where, stack) for part in reversed(expr.parts))
            elif isinstance(expr, Ref):
                if expr.name not in sys.named_sets:
                    problems.append(f"{where}: unknown named set {expr.name!r}")
                elif expr.name in stack:
                    problems.append(
                        f"{where}: cyclic named-set reference through {expr.name!r}"
                    )
                else:
                    todo.append(
                        (sys.named_sets[expr.name], f"set {expr.name}", stack + (expr.name,))
                    )

    for name, expr in sys.named_sets.items():
        check_expr(expr, f"set {name}", (name,))
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


def reference_check_completeness(sys: GameSystem, scope: str = "reachable"):
    """`core.check_completeness` as two walks: the reachable walk finds the
    states and a cycle, and a second pass expands every in-scope state again
    to find the decision tuples no consequence rule covers."""
    engine = sys.engine()
    violations: list = []
    for i, rule in enumerate(sys.consequence_rules):
        total = sum((p for p, _ in rule.results), Fraction(0))
        if total != 1:
            violations.append(
                core.Violation(
                    "probability-sum",
                    f"consequence rule #{i + 1} probabilities sum to {total}, not 1",
                )
            )
    if next(core.iter_initial_states(sys), None) is None:
        violations.append(core.Violation("empty-initial-set", "no state satisfies init"))
        return core.CompletenessReport(scope, 0, violations)
    reachable, on_cycle = core._explore(sys)[:2]
    states = iter(reachable) if scope == "reachable" else core.enumerate_states(sys)
    checked = 0
    for state in states:
        checked += 1
        plan = engine.move_plan(engine.legal_sets(state))
        if not plan:
            engine.outcome(state)
            continue
        for dtuple, _, moves in plan:
            if moves is None:
                try:
                    moves = engine.moves(dtuple, state)
                except NoRuleMatchesError:
                    violations.append(
                        core.Violation(
                            "no-consequence",
                            f"no consequence rule matches {format_decision_tuple(dtuple)} "
                            f"at {core.format_state(sys, state)}",
                            state=state,
                            decision_tuple=dtuple,
                        )
                    )
                    continue
            for _, successor in moves:
                successor(state)
    if on_cycle is not None:
        violations.append(
            core.Violation(
                "cycle",
                f"the reachable state graph has a cycle through "
                f"{core.format_state(sys, on_cycle)}, so a playthrough need not end",
                state=on_cycle,
            )
        )
    return core.CompletenessReport(scope, checked, violations)



class ReferenceExpander:
    """Substitutes forall binders into identifiers, purely syntactically."""

    def __init__(self, path: str):
        self.path = path
        self.diagnostics: list[Diagnostic] = []

    def error(self, line: int, col: int, message: str) -> None:
        self.diagnostics.append(Diagnostic(self.path, line, col, "error", message))

    def subst(self, name: Name, env: dict[str, str]) -> Name:
        text = name.text
        if "$" not in text:
            return name
        out = []
        i = 0
        while i < len(text):
            if text[i] == "$":
                j = i + 1
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                var = text[i + 1 : j]
                if var in env:
                    out.append(env[var])
                else:
                    self.error(name.line, name.col, f"unbound macro variable ${var}")
                    out.append(text[i:j])
                i = j
            else:
                out.append(text[i])
                i += 1
        return Name("".join(out), name.line, name.col)

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

    def expand_decls(self, decls, env: dict[str, str]) -> list[Decl]:
        out: list[Decl] = []
        for decl in decls:
            if isinstance(decl, DForall):
                for value in decl.binder.values:
                    inner = dict(env)
                    inner[decl.binder.var] = value
                    if decl.guard is not None and not self.eval_guard(decl.guard, inner):
                        continue
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
            for combo in itertools.product(*(b.values for b in expr.binders)):
                inner = dict(env)
                for b, value in zip(expr.binders, combo):
                    inner[b.var] = value
                if expr.guard is not None and not self.eval_guard(expr.guard, inner):
                    continue
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
# The reference state-map check: `StateMap.validate` as it was before it
# compared sets and lengths, kept verbatim (sorted lists of names).
# ---------------------------------------------------------------------------


def reference_validate_state_map(self, src: GameSystem, dst: GameSystem) -> None:
    src_tracks = {t.name: t for t in src.tracks}
    dst_tracks = {t.name: t for t in dst.tracks}
    if sorted(self.tracks) != sorted(src_tracks):
        raise StateMapError("track map does not cover exactly the source tracks")
    if sorted(self.tracks.values()) != sorted(dst_tracks):
        raise StateMapError("track map is not a bijection onto the target tracks")
    for name in self.values:
        if name not in self.tracks:
            raise StateMapError(f"value map for unknown track {name!r}")
    for name, target in self.tracks.items():
        vmap = self.values.get(name)
        if vmap is None:
            raise StateMapError(f"missing value map for track {name!r}")
        if sorted(vmap) != sorted(src_tracks[name].values):
            raise StateMapError(f"value map for {name!r} does not cover its values")
        if sorted(vmap.values()) != sorted(dst_tracks[target].values):
            raise StateMapError(
                f"value map for {name!r} is not a bijection onto {target!r}"
            )
    if self.players is not None:
        if sorted(self.players) != sorted(src.players) or sorted(
            self.players.values()
        ) != sorted(dst.players):
            raise StateMapError("player map is not a bijection between player lists")
    if self.outcomes is not None:
        if sorted(self.outcomes) != sorted(src.outcomes) or sorted(
            self.outcomes.values()
        ) != sorted(dst.outcomes):
            raise StateMapError("outcome map is not a bijection between outcome sets")
