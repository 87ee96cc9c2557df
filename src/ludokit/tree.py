"""Game-tree construction, decision matrices, and import/export.

Trees are stored as flat arenas (parallel arrays indexed by node/edge id)
because realistic games produce trees with millions of nodes.  Deleted
nodes become unreachable tombstones; `compact` renumbers densely and
unfolds nodes that normalization left shared.  Facts derived from edge
labels are cached under the (immutable) labels themselves, so rewriting a
tree never makes a cache entry stale.

Node kinds: state, chance, terminal, truncated.  Decision edges leave state
nodes and carry a nonempty set of decision-tuple sequences (a freshly built
tree has singleton sets of length-1 sequences); chance edges leave chance
nodes and carry an exact rational probability.  Truncated nodes are
unexpanded frontier state nodes of a depth-limited build; they carry no
outcome and never have children.

Children are stored in deterministic order (decision edges by lexicographic
tuple set, chance edges by descending probability then subtree canonical
key) so exports are byte-stable; logical semantics treat children as
unordered.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterator, Optional, Union

from .core import (
    DecisionTuple,
    GameState,
    GameSystem,
    format_decision_tuple,
    initial_states,
)
from .errors import BudgetExceededError, TreeInvariantError

STATE = 0
CHANCE = 1
TERMINAL = 2
TRUNCATED = 3

_KIND_NAMES = {STATE: "state", CHANCE: "chance", TERMINAL: "terminal", TRUNCATED: "truncated"}
_KIND_CODES = {v: k for k, v in _KIND_NAMES.items()}

DECISION_EDGE = 0
CHANCE_EDGE = 1

DEFAULT_NODE_BUDGET = 10_000_000

# A decision-tuple sequence; single-player reductions produce length > 1.
TupleSeq = tuple[DecisionTuple, ...]
# An edge label: a set of alternative tuple sequences.
EdgeLabel = frozenset  # of TupleSeq

# A matrix choice: a decision id, None (null), or a tuple sequence.
Choice = Union[str, None, TupleSeq]


class GameTree:
    """Arena of state/chance/terminal nodes with decision/chance edges."""

    __slots__ = (
        "players", "node_kind", "node_state", "node_outcome", "node_children",
        "node_parent_edge", "edge_kind", "edge_src", "edge_dst", "edge_prob",
        "edge_label", "root", "system", "label_cache",
    )

    def __init__(self, players: tuple[str, ...], system: Optional[GameSystem] = None):
        self.players = players
        self.system = system
        # Keyed by immutable label values (an edge label, or a node's tuple
        # of out-edge labels), so it survives every rewrite.
        self.label_cache: dict = {}
        self.node_kind = array("b")
        self.node_state: list[Optional[GameState]] = []
        self.node_outcome: list[Optional[str]] = []
        self.node_children: list[list[int]] = []
        self.node_parent_edge = array("i")
        self.edge_kind = array("b")
        self.edge_src = array("i")
        self.edge_dst = array("i")
        self.edge_prob: list[Optional[Fraction]] = []
        self.edge_label: list[Optional[EdgeLabel]] = []
        self.root = -1

    # -- construction -------------------------------------------------------

    def add_node(
        self,
        kind: int,
        state: Optional[GameState] = None,
        outcome: Optional[str] = None,
    ) -> int:
        self.node_kind.append(kind)
        self.node_state.append(state)
        self.node_outcome.append(outcome)
        self.node_children.append([])
        self.node_parent_edge.append(-1)
        return len(self.node_kind) - 1

    def add_edge(
        self,
        src: int,
        dst: int,
        kind: int,
        prob: Optional[Fraction] = None,
        label: Optional[EdgeLabel] = None,
    ) -> int:
        self.edge_kind.append(kind)
        self.edge_src.append(src)
        self.edge_dst.append(dst)
        self.edge_prob.append(prob)
        self.edge_label.append(label)
        eid = len(self.edge_kind) - 1
        self.node_children[src].append(eid)
        self.node_parent_edge[dst] = eid
        return eid

    # -- queries ------------------------------------------------------------

    def kind_name(self, node: int) -> str:
        return _KIND_NAMES[self.node_kind[node]]

    def children(self, node: int) -> list[int]:
        """Child node ids (edge targets) in stored order."""
        return [self.edge_dst[e] for e in self.node_children[node]]

    def parent(self, node: int) -> int:
        e = self.node_parent_edge[node]
        return -1 if e < 0 else self.edge_src[e]

    def iter_nodes(self) -> Iterator[int]:
        """Live nodes, preorder from the root."""
        stack = [self.root]
        while stack:
            n = stack.pop()
            yield n
            children = self.node_children[n]
            for e in reversed(children):
                stack.append(self.edge_dst[e])

    def node_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def subtree_nodes(self, node: int) -> Iterator[int]:
        stack = [node]
        while stack:
            n = stack.pop()
            yield n
            for e in self.node_children[n]:
                stack.append(self.edge_dst[e])

    def depth(self) -> int:
        best = 0
        stack = [(self.root, 0)]
        while stack:
            n, d = stack.pop()
            best = max(best, d)
            for e in self.node_children[n]:
                stack.append((self.edge_dst[e], d + 1))
        return best

    def copy(self) -> "GameTree":
        dup = GameTree(self.players, self.system)
        dup.node_kind = array("b", self.node_kind)
        dup.node_state = list(self.node_state)
        dup.node_outcome = list(self.node_outcome)
        dup.node_children = [list(c) for c in self.node_children]
        dup.node_parent_edge = array("i", self.node_parent_edge)
        dup.edge_kind = array("b", self.edge_kind)
        dup.edge_src = array("i", self.edge_src)
        dup.edge_dst = array("i", self.edge_dst)
        dup.edge_prob = list(self.edge_prob)
        dup.edge_label = list(self.edge_label)
        dup.root = self.root
        return dup

    def compact(self) -> "GameTree":
        """A fresh tree holding only live nodes, renumbered in preorder.

        Every visit of a node gets its own copy, so a node reached along
        several edges (normalization shares each distinct finished subtree)
        is unfolded into a tree.  On a tree this is a plain renumbering.
        """
        dup = GameTree(self.players, self.system)
        out_edges: list[list[tuple[int, int]]] = []  # per new node: (old edge, new child)
        stack = [(self.root, -1, -1)]  # (old node, new parent, old edge into it)
        while stack:
            n, parent, e = stack.pop()
            new = dup.add_node(self.node_kind[n], self.node_state[n], self.node_outcome[n])
            out_edges.append([])
            if parent >= 0:
                out_edges[parent].append((e, new))
            for child_edge in reversed(self.node_children[n]):
                stack.append((self.edge_dst[child_edge], new, child_edge))
        for src, edges in enumerate(out_edges):
            for e, dst in edges:
                dup.add_edge(src, dst, self.edge_kind[e], self.edge_prob[e], self.edge_label[e])
        dup.root = 0
        return dup

    def structurally_equal(self, other: "GameTree") -> bool:
        """Exact equality of the live arenas (labels included, order included)."""
        def encode(tree: GameTree):
            out = []
            for n in tree.iter_nodes():
                out.append(
                    (
                        tree.node_kind[n], tree.node_state[n], tree.node_outcome[n],
                        tuple(
                            (tree.edge_kind[e], tree.edge_prob[e], tree.edge_label[e])
                            for e in tree.node_children[n]
                        ),
                    )
                )
            return out

        return self.players == other.players and encode(self) == encode(other)


# ---------------------------------------------------------------------------
# Construction from a system
# ---------------------------------------------------------------------------


def build_tree(
    sys: GameSystem,
    s0: GameState,
    depth_limit: Optional[int] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> GameTree:
    """Build the game tree rooted at s0.

    Per legal decision tuple one decision edge is drawn; a singleton
    consequence list leads straight to a state node, otherwise through a
    chance node with probability-labeled chance edges.  `depth_limit` counts
    decision rounds from the root: state nodes more than `depth_limit` rounds
    deep are left unexpanded and marked truncated.  `node_budget` bounds total
    node count (systems can describe infinite trees).
    """
    engine = sys.engine()
    tree = GameTree(sys.players, sys)
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
                (p, engine.apply_actions(names, state)) for p, names in results
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


def build_forest(
    sys: GameSystem,
    depth_limit: Optional[int] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[GameTree]:
    """One tree per initial state, in lexicographic state order."""
    roots = initial_states(sys)
    if not roots:
        raise TreeInvariantError("system has an empty initial set")
    return [build_tree(sys, s0, depth_limit, node_budget) for s0 in roots]


# ---------------------------------------------------------------------------
# Decision matrices
# ---------------------------------------------------------------------------


def choice_rank(choice: Choice):
    """Sort key for matrix choices: null, then decision ids, then sequences."""
    if choice is None:
        return (0, "")
    if isinstance(choice, str):
        return (1, choice)
    return (2, repr(choice))


@dataclass
class DecisionMatrix:
    """Per-player choice sets and the total map from joint choices to edges.

    In a fresh tree the choices are the legal sets (null-padded) and each
    joint tuple maps to the edge carrying it; reductions substitute tuple
    sequences for choices.  When every player has a single choice the domain
    is empty and the matrix maps () to its single edge.
    """

    node: int
    players: tuple[str, ...]
    choice_sets: tuple[tuple[Choice, ...], ...]
    mapping: dict[tuple[Choice, ...], int]

    @property
    def empty_domain(self) -> bool:
        return all(len(cs) == 1 for cs in self.choice_sets)

    def edges(self) -> list[int]:
        seen: dict[int, None] = {}
        for edge in self.mapping.values():
            seen.setdefault(edge)
        return list(seen)

    def domain(self) -> list[tuple[Choice, ...]]:
        """Joint choice tuples; empty when the matrix has an empty domain."""
        if self.empty_domain:
            return []
        return list(self.mapping)


def _decode_seq(seq: TupleSeq, n_players: int, where: str) -> tuple[Choice, ...]:
    """The joint choice tuple one tuple sequence of an edge label encodes.

    A length-1 sequence is the tuple itself; a longer sequence is a
    composite choice belonging to the single player who acts in it.
    """
    if len(seq) == 1:
        entries = seq[0]
        if len(entries) != n_players:
            raise TreeInvariantError(f"{where}: tuple arity {len(entries)} != {n_players}")
        return tuple(entries)
    owners = {i for dtuple in seq for i, d in enumerate(dtuple) if d is not None}
    if len(owners) != 1:
        raise TreeInvariantError(
            f"{where}: composite sequence must belong to exactly one player"
        )
    joint: list[Choice] = [None] * n_players
    joint[owners.pop()] = seq
    return tuple(joint)


def decoded_label(tree: GameTree, label: EdgeLabel) -> tuple:
    """(tuple sequence, joint choice tuple) pairs of an edge label, cached.

    Labels repeat heavily across a tree (every claim-cell-3 edge carries the
    same tuple set), so hot paths share one decode per distinct label.  Each
    sequence stays paired with its joint: an equal label need not iterate
    its sequences in the same order.
    """
    pairs = tree.label_cache.get(label)
    if pairs is None:
        n = len(tree.players)
        pairs = tree.label_cache[label] = tuple(
            (seq, _decode_seq(seq, n, "label")) for seq in label
        )
    return pairs


def decision_matrix(tree: GameTree, node: int) -> DecisionMatrix:
    """The strategic-form game played at a non-terminal state node.

    Choices and the map are read from the outgoing edge labels, which agrees
    with the legal sets on freshly built trees and stays correct on reduced
    and imported ones.  Raises on chance, terminal, and truncated nodes.
    """
    if tree.node_kind[node] != STATE:
        raise TreeInvariantError(
            f"node {node} is {tree.kind_name(node)}; decision matrices live on state nodes"
        )
    edges = tree.node_children[node]
    if not edges:
        raise TreeInvariantError(f"state node {node} has no outgoing edges")
    n = len(tree.players)
    mapping: dict[tuple[Choice, ...], int] = {}
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
    return DecisionMatrix(node, tree.players, choice_sets, mapping)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_tree(tree: GameTree) -> None:
    """Check every GameTree invariant; raises TreeInvariantError with a witness."""
    if tree.root < 0:
        raise TreeInvariantError("tree has no root")
    seen: set[int] = set()
    stack = [tree.root]
    while stack:
        n = stack.pop()
        if n in seen:
            raise TreeInvariantError(f"node {n} reached twice (not a tree)")
        seen.add(n)
        kind = tree.node_kind[n]
        edges = tree.node_children[n]
        if kind == CHANCE:
            if tree.node_state[n] is not None:
                raise TreeInvariantError(f"chance node {n} carries a state label")
            if tree.node_outcome[n] is not None:
                raise TreeInvariantError(f"chance node {n} carries an outcome")
            if not edges:
                raise TreeInvariantError(f"chance node {n} has no outgoing edges")
            total = Fraction(0)
            for e in edges:
                if tree.edge_kind[e] != CHANCE_EDGE:
                    raise TreeInvariantError(f"chance node {n} has a decision edge out")
                p = tree.edge_prob[e]
                if p is None or not 0 < p <= 1:
                    raise TreeInvariantError(f"edge {e} probability {p} not in (0, 1]")
                if tree.node_kind[tree.edge_dst[e]] == CHANCE:
                    raise TreeInvariantError(f"chance edge {e} leads to a chance node")
                total += p
            if total != 1:
                raise TreeInvariantError(
                    f"chance node {n} probabilities sum to {total}, not 1"
                )
        elif kind == STATE:
            if tree.node_outcome[n] is not None:
                raise TreeInvariantError(f"non-terminal state node {n} carries an outcome")
            if not edges:
                raise TreeInvariantError(f"state node {n} has no outgoing decision edge")
            decision_matrix(tree, n)
        elif kind == TERMINAL:
            if tree.node_outcome[n] is None:
                raise TreeInvariantError(f"terminal node {n} has no outcome")
            if edges:
                raise TreeInvariantError(f"terminal node {n} has children")
        elif kind == TRUNCATED:
            if edges:
                raise TreeInvariantError(f"truncated node {n} has children")
            if tree.node_outcome[n] is not None:
                raise TreeInvariantError(f"truncated node {n} carries an outcome")
        for e in edges:
            if tree.edge_src[e] != n:
                raise TreeInvariantError(f"edge {e} source inconsistent")
            stack.append(tree.edge_dst[e])
    if tree.node_kind[tree.root] == CHANCE:
        raise TreeInvariantError("root must be a state-like node")


# ---------------------------------------------------------------------------
# Deterministic child ordering for exports
# ---------------------------------------------------------------------------


def _label_sort_key(label: EdgeLabel):
    return sorted(
        tuple(tuple("\x00" if d is None else d for d in t) for t in seq)
        for seq in label
    )


def _preorder(tree: GameTree) -> tuple[list[int], dict[int, int], list[list[int]]]:
    """The canonical numbering shared by the exports.

    Returns the live nodes in preorder (a node's id is its position there),
    the id of each node, and per position the node's out-edges in canonical
    order: decision edges by sorted tuple sequences, chance edges by
    descending probability, then by the child's fully pinned subtree key.
    """
    from . import canon  # local import: canon orders chance edges by subtree key

    keys = canon.subtree_keys(
        tree, pin_players=True, pin_outcomes=True, pin_states=True
    )
    label_keys: dict = {}

    def label_key(e: int):
        label = tree.edge_label[e]
        key = label_keys.get(label)
        if key is None:
            key = label_keys[label] = _label_sort_key(label)
        return key

    def chance_key(e: int):
        return (-tree.edge_prob[e], keys[tree.edge_dst[e]])

    sequence: list[int] = []
    order: list[list[int]] = []
    stack = [tree.root]
    while stack:
        n = stack.pop()
        sequence.append(n)
        edges = tree.node_children[n]
        if edges:
            edges = sorted(edges, key=chance_key if tree.node_kind[n] == CHANCE else label_key)
            for e in reversed(edges):
                stack.append(tree.edge_dst[e])
        order.append(edges)
    return sequence, {n: i for i, n in enumerate(sequence)}, order


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def _seq_from_json(data, n_players: int, where: str) -> TupleSeq:
    if not isinstance(data, list):
        raise TreeInvariantError(f"{where}: malformed tuple sequence {data!r}")
    seq = []
    for dtuple in data:
        if not isinstance(dtuple, list) or len(dtuple) != n_players:
            raise TreeInvariantError(f"{where}: malformed decision tuple {dtuple!r}")
        entries = []
        for d in dtuple:
            if d is None:
                entries.append(None)
            elif isinstance(d, str):
                entries.append(d)
            else:
                raise TreeInvariantError(f"{where}: bad decision entry {d!r}")
        seq.append(tuple(entries))
    if not seq:
        raise TreeInvariantError(f"{where}: empty decision sequence")
    return tuple(seq)


def _json_list(value, indent: str) -> str:
    """``json.dumps(value, indent=2)`` of nested sequences of strings and
    nulls, every line after the first prefixed with `indent`."""
    if not value:
        return "[]"
    inner = indent + "  "
    items = [
        "null" if v is None else _quote(v) if isinstance(v, str) else _json_list(v, inner)
        for v in value
    ]
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def write_json(tree: GameTree, write: Callable[[str], object], level: int = 0) -> None:
    """Stream `export_json`'s document, without its final newline, to `write`.

    The text is ``json.dumps(doc, indent=2)`` of the document, nested `level`
    indent steps deep (the CLI writes a forest as a list of such documents).
    It is written a node or an edge per chunk.  The fragments that repeat are
    rendered once per call: each distinct state's ``"state"`` block, outcome,
    edge label's sorted ``"tuples"`` block and probability; strings are quoted
    by the C encoder's ``encode_basestring_ascii``, as ``json.dumps`` does.
    """
    sequence, ids, order = _preorder(tree)
    pad = "  " * level
    i1, i2, i3 = pad + "  ", pad + "    ", pad + "      "
    write(
        f'{pad}{{\n{i1}"players": {_json_list(tree.players, i1)},\n'
        f'{i1}"root": {ids[tree.root]},\n{i1}"nodes": ['
    )
    kinds = {
        STATE: f',\n{i3}"kind": "state"',
        CHANCE: f',\n{i3}"kind": "chance"',
        TERMINAL: f',\n{i3}"kind": "terminal"',
        TRUNCATED: f',\n{i3}"kind": "state",\n{i3}"truncated": true',
    }
    states: dict = {None: ""}
    outcomes: dict = {None: ""}
    close = f"\n{i2}}}"
    sep = "\n"
    for i, n in enumerate(sequence):
        state = tree.node_state[n]
        state_text = states.get(state)
        if state_text is None:
            state_text = states[state] = f',\n{i3}"state": {_json_list(state, i3)}'
        outcome = tree.node_outcome[n]
        outcome_text = outcomes.get(outcome)
        if outcome_text is None:
            outcome_text = outcomes[outcome] = f',\n{i3}"outcome": {_quote(outcome)}'
        write(
            f'{sep}{i2}{{\n{i3}"id": {i}{kinds[tree.node_kind[n]]}'
            f"{state_text}{outcome_text}{close}"
        )
        sep = ",\n"
    write(f'\n{i1}],\n{i1}"edges": [')
    tails: dict = {}
    probs: dict = {}
    sep = "\n"
    for i, edges in enumerate(order):
        for e in edges:
            if tree.edge_kind[e] == DECISION_EDGE:
                label = tree.edge_label[e]
                tail = tails.get(label)
                if tail is None:
                    tuples = _json_list(sorted(label, key=json.dumps), i3)
                    tail = tails[label] = (
                        f',\n{i3}"kind": "decision",\n{i3}"tuples": {tuples}{close}'
                    )
            else:
                prob = tree.edge_prob[e]
                tail = probs.get(prob)
                if tail is None:
                    tail = probs[prob] = (
                        f',\n{i3}"kind": "chance",\n{i3}"prob": {_quote(str(prob))}{close}'
                    )
            write(
                f'{sep}{i2}{{\n{i3}"from": {i},\n{i3}"to": {ids[tree.edge_dst[e]]}{tail}'
            )
            sep = ",\n"
    write(f"]\n{pad}}}" if sep == "\n" else f"\n{i1}]\n{pad}}}")


def export_json(tree: GameTree) -> str:
    """Lossless JSON rendering; node ids renumbered in canonical preorder.

    The text is ``json.dumps(doc, indent=2)`` plus a newline, where `doc`
    lists the players, the root id, the nodes in canonical preorder and each
    node's out-edges in canonical order.  No `doc` is built: `write_json`
    streams the text, rendering each distinct state, outcome, edge label and
    probability once, and this returns its chunks joined.
    """
    chunks: list[str] = []
    write_json(tree, chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _node_ref(value, where: str) -> int:
    """A node id from a tree document: an integer (booleans excluded)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TreeInvariantError(f"{where} must be an integer node id, not {value!r}")
    return value


def import_json(text: str) -> GameTree:
    """Parse and fully validate a tree document."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise TreeInvariantError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TreeInvariantError("tree document must be a JSON object")
    players = doc.get("players")
    if not isinstance(players, list) or not players or not all(isinstance(p, str) for p in players):
        raise TreeInvariantError("tree document needs a nonempty 'players' list")
    if len(set(players)) != len(players):
        raise TreeInvariantError(f"tree document repeats a player name: {players!r}")
    tree = GameTree(tuple(players))
    nodes = doc.get("nodes")
    edges = doc.get("edges")
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise TreeInvariantError("tree document needs 'nodes' and 'edges' lists")
    id_map: dict = {}
    for entry in nodes:
        if not isinstance(entry, dict) or "id" not in entry or "kind" not in entry:
            raise TreeInvariantError(f"malformed node entry {entry!r}")
        node_id = _node_ref(entry["id"], "node 'id'")
        kind_name = entry["kind"]
        if not isinstance(kind_name, str) or kind_name not in _KIND_CODES:
            raise TreeInvariantError(f"unknown node kind {kind_name!r}")
        kind = _KIND_CODES[kind_name]
        if entry.get("truncated"):
            if kind_name != "state":
                raise TreeInvariantError("only state nodes can be truncated")
            kind = TRUNCATED
        state = entry.get("state")
        if state is not None:
            if not isinstance(state, list) or not all(isinstance(v, str) for v in state):
                raise TreeInvariantError(f"malformed state label on node {entry['id']}")
            state = tuple(state)
        outcome = entry.get("outcome")
        if outcome is not None and not isinstance(outcome, str):
            raise TreeInvariantError(f"malformed outcome on node {entry['id']}")
        if node_id in id_map:
            raise TreeInvariantError(f"duplicate node id {node_id}")
        id_map[node_id] = tree.add_node(kind, state, outcome)
    if "root" not in doc or _node_ref(doc["root"], "'root'") not in id_map:
        raise TreeInvariantError("missing or unknown root id")
    tree.root = id_map[doc["root"]]
    incoming: set = set()
    for entry in edges:
        if not isinstance(entry, dict):
            raise TreeInvariantError(f"malformed edge entry {entry!r}")
        try:
            src = id_map[_node_ref(entry["from"], "edge 'from'")]
            dst = id_map[_node_ref(entry["to"], "edge 'to'")]
        except KeyError as exc:
            raise TreeInvariantError(f"edge references unknown node {exc}") from exc
        if dst in incoming:
            raise TreeInvariantError(f"node {entry['to']} has two incoming edges")
        incoming.add(dst)
        kind_name = entry.get("kind")
        if kind_name == "decision":
            tuples = entry.get("tuples")
            if not isinstance(tuples, list) or not tuples:
                raise TreeInvariantError(f"decision edge {entry!r} needs a 'tuples' list")
            label = frozenset(
                _seq_from_json(seq, len(players), f"edge {entry['from']}->{entry['to']}")
                for seq in tuples
            )
            if len(label) != len(tuples):
                raise TreeInvariantError(
                    f"edge {entry['from']}->{entry['to']} repeats a tuple sequence"
                )
            if tree.node_kind[src] not in (STATE, TRUNCATED):
                raise TreeInvariantError("decision edges must leave state nodes")
            tree.add_edge(src, dst, DECISION_EDGE, label=label)
        elif kind_name == "chance":
            prob_text = entry.get("prob")
            if not isinstance(prob_text, str):
                raise TreeInvariantError(f"chance edge {entry!r} needs a 'prob' string")
            try:
                prob = Fraction(prob_text)
            except (ValueError, ZeroDivisionError) as exc:
                raise TreeInvariantError(f"bad probability {prob_text!r}") from exc
            if tree.node_kind[src] != CHANCE:
                raise TreeInvariantError("chance edges must leave chance nodes")
            tree.add_edge(src, dst, CHANCE_EDGE, prob=prob)
        else:
            raise TreeInvariantError(f"unknown edge kind {kind_name!r}")
    if tree.root < 0 or tree.node_parent_edge[tree.root] != -1:
        raise TreeInvariantError("root must have no incoming edge")
    reachable = set(tree.iter_nodes())
    if len(reachable) != len(tree.node_kind):
        raise TreeInvariantError("tree document contains unreachable nodes")
    validate_tree(tree)
    return tree


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def format_label(label: EdgeLabel) -> str:
    seqs = sorted(
        label,
        key=lambda seq: tuple(tuple("\x00" if d is None else d for d in t) for t in seq),
    )
    parts = []
    for seq in seqs:
        text = ".".join(format_decision_tuple(t) for t in seq)
        parts.append(text)
    return "{" + ", ".join(parts) + "}"


def write_dot(tree: GameTree, write: Callable[[str], object]) -> None:
    """Stream `export_dot`'s text to `write`, a line per chunk.

    Nodes are numbered in the canonical preorder `write_json` uses.  Each
    distinct edge label and probability, and each outcome's node attributes,
    are rendered once per call.
    """
    sequence, ids, order = _preorder(tree)
    write("digraph gametree {\n")
    kinds = {
        STATE: 'shape=circle style=filled fillcolor=black label="" width=0.15',
        CHANCE: 'shape=circle label="" width=0.25',
        TRUNCATED: 'shape=square style=dashed label="..."',
    }
    terminals: dict = {}
    for i, n in enumerate(sequence):
        kind = tree.node_kind[n]
        if kind == TERMINAL:
            outcome = tree.node_outcome[n]
            attrs = terminals.get(outcome)
            if attrs is None:
                attrs = terminals[outcome] = f'shape=doublecircle label="{_dot_escape(outcome)}"'
        else:
            attrs = kinds[kind]
        write(f"  n{i} [{attrs}];\n")
    labels: dict = {}
    for i, edges in enumerate(order):
        for e in edges:
            key = tree.edge_label[e] if tree.edge_kind[e] == DECISION_EDGE else tree.edge_prob[e]
            label = labels.get(key)
            if label is None:
                label = labels[key] = (
                    _dot_escape(format_label(key)) if isinstance(key, frozenset) else str(key)
                )
            write(f'  n{i} -> n{ids[tree.edge_dst[e]]} [label="{label}"];\n')
    write("}\n")


def export_dot(tree: GameTree) -> str:
    """Graphviz rendering: node kinds by shape, labels on edges.

    Nodes are ``n<id>`` with the ids of `export_json`.  `write_dot` streams
    the text a line at a time, rendering each distinct edge label,
    probability and terminal outcome once, and this returns its chunks
    joined.
    """
    chunks: list[str] = []
    write_dot(tree, chunks.append)
    return "".join(chunks)


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------


@dataclass
class TreeStats:
    nodes: int
    state_nodes: int
    chance_nodes: int
    terminal_leaves: int
    truncated_leaves: int
    edges: int
    depth: int


def tree_stats(tree: GameTree) -> TreeStats:
    counts = {STATE: 0, CHANCE: 0, TERMINAL: 0, TRUNCATED: 0}
    edges = 0
    for n in tree.iter_nodes():
        counts[tree.node_kind[n]] += 1
        edges += len(tree.node_children[n])
    return TreeStats(
        nodes=sum(counts.values()),
        state_nodes=counts[STATE],
        chance_nodes=counts[CHANCE],
        terminal_leaves=counts[TERMINAL],
        truncated_leaves=counts[TRUNCATED],
        edges=edges,
        depth=tree.depth(),
    )
