"""Game-tree construction, decision matrices, and import/export.

Trees are stored as flat arenas, one plain list per node or edge field
(a column) indexed by node or edge id, because realistic games produce
trees with millions of nodes; lists rather than `array`s, because reading
an `array` allocates a fresh int for every id above 256.  An arena may
share nodes: `build_tree` makes one node per distinct subtree it can name
(a state, or a state and the rounds left), reached along every edge that
leads to it, and normalization shares finished subtrees.  Such an arena
stands for its unfolding, the tree with one copy of a node per root path.
Passes that compute per-node facts (stats, keys, exports) visit each arena
node once and weight it by its number of root paths, so every count they
report (`tree_stats`, `GameTree.node_count`, the ids in an export) is an
unfolded-tree count; `iter_nodes` yields a shared node once per path, and
`unfold` writes the unfolding out as a fresh arena.  Shared nodes have
several parents, so `node_parent_edge` names one of them only; it is exact
on unshared arenas such as imported trees.

Nodes that a rewrite cuts off stay in the arena, unreachable; `unfold`
and `compact` drop them.  Facts derived from edge labels are cached under
the (immutable) labels themselves, so rewriting a tree never makes a cache
entry stale.  The chief such fact is a state node's `NodeMeta`: `node_meta`
is the one place out-edge labels are decoded into a decision matrix and
checked, and validation, the canonical keys, the rewrites and the witness
check all read it.

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

import itertools
import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .core import (
    DEFAULT_NODE_BUDGET,
    DecisionTuple,
    GameState,
    GameSystem,
    format_decision_tuple,
    initial_states,
    typed_record,
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
        "edge_label", "root", "label_cache",
    )

    def __init__(self, players: tuple[str, ...]):
        self.players = players
        # Keyed by immutable label values (an edge label, a node's tuple of
        # out-edge labels, or such a value under a tag), so it survives
        # every rewrite.
        self.label_cache: dict = {}
        self.node_kind: list[int] = []
        self.node_state: list[Optional[GameState]] = []
        self.node_outcome: list[Optional[str]] = []
        self.node_children: list[list[int]] = []
        self.node_parent_edge: list[int] = []
        self.edge_kind: list[int] = []
        self.edge_src: list[int] = []
        self.edge_dst: list[int] = []
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
        """Nodes of the unfolded tree, preorder from the root.

        A shared node is yielded once per path to it; `postorder` visits
        each node of the arena once.
        """
        stack = [self.root]
        while stack:
            n = stack.pop()
            yield n
            children = self.node_children[n]
            for e in reversed(children):
                stack.append(self.edge_dst[e])

    def node_count(self) -> int:
        """Nodes of the unfolded tree: a shared node counts once per path."""
        return _unfolded_sizes(self, postorder(self))[self.root]

    def depth(self) -> int:
        """Edges on the longest path from the root."""
        height = [0] * len(self.node_kind)
        dst = self.edge_dst
        for n in postorder(self):
            height[n] = max([height[dst[e]] + 1 for e in self.node_children[n]], default=0)
        return height[self.root]

    def copy(self) -> "GameTree":
        """An independent arena with the same columns; the label cache is
        shared, as its entries are keyed by immutable labels."""
        dup = GameTree(self.players)
        dup.label_cache = self.label_cache
        dup.node_kind = list(self.node_kind)
        dup.node_state = list(self.node_state)
        dup.node_outcome = list(self.node_outcome)
        dup.node_children = [list(c) for c in self.node_children]
        dup.node_parent_edge = list(self.node_parent_edge)
        dup.edge_kind = list(self.edge_kind)
        dup.edge_src = list(self.edge_src)
        dup.edge_dst = list(self.edge_dst)
        dup.edge_prob = list(self.edge_prob)
        dup.edge_label = list(self.edge_label)
        dup.root = self.root
        return dup

    def rooted(self, root: int) -> "GameTree":
        """The arena seen from another root: a tree over the same column
        lists, so it costs nothing to make and sees the arena grow, and it
        must not be rewritten."""
        view = GameTree(self.players)
        for name in GameTree.__slots__:
            setattr(view, name, getattr(self, name))
        view.root = root
        return view

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
# Walking a shared arena
# ---------------------------------------------------------------------------


def postorder(tree: GameTree, node: Optional[int] = None, done=()) -> list[int]:
    """Each node below `node` (default: the root) once, children first.

    Nodes in `done` (a memo) are left out and not descended into.  On an
    arena with a cycle the order is not children-first; `_unfolded_sizes`
    detects that.
    """
    node_children = tree.node_children
    edge_dst = tree.edge_dst
    seen: set[int] = set()
    order: list[int] = []
    stack = [tree.root if node is None else node]  # n: enter n; ~n: leave n
    push = stack.append
    pop = stack.pop
    while stack:
        n = pop()
        if n < 0:
            order.append(~n)
        elif n not in seen:
            seen.add(n)
            push(~n)
            for e in node_children[n]:
                child = edge_dst[e]
                if child not in seen and child not in done:
                    push(child)
    return order


def _unfolded_sizes(
    tree: GameTree, order: list[int], size: Optional[list[int]] = None
) -> list[int]:
    """Per node of `order` (`postorder(tree)`), its subtree's unfolded size.

    With `size`, the sizes of the nodes `order` leaves out, it is extended
    to the arena and filled in, and returned.  Raises TreeInvariantError on
    a cycle: a child on one is reached before its size is known.
    """
    if size is None:
        size = [0] * len(tree.node_kind)
    else:
        size.extend([0] * (len(tree.node_kind) - len(size)))
    node_children = tree.node_children
    edge_dst = tree.edge_dst
    for n in order:
        s = 1
        for e in node_children[n]:
            k = size[edge_dst[e]]
            if not k:
                raise TreeInvariantError(f"node {edge_dst[e]} lies on a cycle")
            s += k
        size[n] = s
    return size


def _path_counts(tree: GameTree, order: list[int]) -> list[int]:
    """Per node, the number of root paths to it: its copies in the unfolded
    tree.  `order` is `postorder(tree)`."""
    count = [0] * len(tree.node_kind)
    count[tree.root] = 1
    node_children = tree.node_children
    edge_dst = tree.edge_dst
    for n in reversed(order):
        c = count[n]
        for e in node_children[n]:
            count[edge_dst[e]] += c
    return count


def _unfold(tree: GameTree) -> tuple[GameTree, list[int]]:
    """`unfold`, plus the arena node each new node copies.

    Every new node but the root is created with its incoming edge, so new
    edge i leads to new node i + 1.
    """
    node_kind = tree.node_kind
    node_children = tree.node_children
    edge_dst = tree.edge_dst
    size = _unfolded_sizes(tree, postorder(tree))[tree.root]
    origin = [tree.root]  # per new node
    edge_origin: list[int] = []  # per new edge
    edge_src: list[int] = []
    children: list = [None] * size
    stack = [(tree.root, 0)]  # (arena node, new node) to expand
    while stack:
        n, m = stack.pop()
        mine = children[m] = []
        for e in node_children[n]:
            child = edge_dst[e]
            c = len(origin)
            mine.append(c - 1)
            origin.append(child)
            edge_origin.append(e)
            edge_src.append(m)
            if node_kind[child] != CHANCE:
                stack.append((child, c))
                continue
            # A chance node's children are created along with it.
            theirs = children[c] = []
            for e2 in node_children[child]:
                g = len(origin)
                theirs.append(g - 1)
                origin.append(edge_dst[e2])
                edge_origin.append(e2)
                edge_src.append(c)
                stack.append((edge_dst[e2], g))

    out = GameTree(tree.players)
    out.label_cache = tree.label_cache
    out.node_kind = [node_kind[n] for n in origin]
    out.node_state = [tree.node_state[n] for n in origin]
    out.node_outcome = [tree.node_outcome[n] for n in origin]
    out.node_children = children
    out.node_parent_edge = list(range(-1, size - 1))
    out.edge_kind = [tree.edge_kind[e] for e in edge_origin]
    out.edge_src = edge_src
    out.edge_dst = list(range(1, size))
    out.edge_prob = [tree.edge_prob[e] for e in edge_origin]
    out.edge_label = [tree.edge_label[e] for e in edge_origin]
    out.root = 0
    return out, origin


def unfold(tree: GameTree) -> GameTree:
    """The tree the arena denotes, as a fresh arena: one node per root path.

    Nodes are numbered as an unshared `build_tree` numbers them: a node's
    children get ids when the node is expanded, a chance child's children
    right after it, and the last child created is expanded first.  So
    unfolding a built arena gives exactly the columns an unshared build
    would.  The label cache is shared: its entries are keyed by immutable
    labels.
    """
    return _unfold(tree)[0]


def compact(tree: GameTree) -> GameTree:
    """The part of the arena reachable from the root, as a fresh arena that
    keeps its sharing.

    Nodes and edges are numbered in the order in which `unfold` creates the
    first copy of each, and a node's parent edge is the one its first copy
    is created along, so on an unshared arena the columns are exactly those
    of `unfold`.  The walk replays `unfold`'s stack but expands a node only
    when it is first popped: when `unfold` pops a later copy, the subtree
    of the first is done, so the later copy creates no new node.  Every
    child is still pushed, so that each node is first popped when it is in
    `unfold`.  The label cache is shared.
    """
    node_kind = tree.node_kind
    node_children = tree.node_children
    edge_dst = tree.edge_dst
    new_id = {tree.root: 0}
    origin = [tree.root]  # per new node
    parent_edge = [-1]  # per new node
    edge_origin: list[int] = []  # per new edge
    edge_src: list[int] = []  # per new edge, a new node
    children: list[list[int]] = [[]]  # per new node

    def copy_edge(e: int, m: int) -> int:
        """Number edge e out of new node m, and its target if new; returns it."""
        children[m].append(len(edge_origin))
        edge_origin.append(e)
        edge_src.append(m)
        child = edge_dst[e]
        if child not in new_id:
            new_id[child] = len(origin)
            origin.append(child)
            parent_edge.append(len(edge_origin) - 1)
            children.append([])
        return child

    expanded: set[int] = set()
    stack = [tree.root]
    while stack:
        n = stack.pop()
        if n in expanded:
            continue
        expanded.add(n)
        m = new_id[n]
        for e in node_children[n]:
            child = copy_edge(e, m)
            if node_kind[child] != CHANCE:
                stack.append(child)
                continue
            # A chance node's children are created along with each copy.
            if child not in expanded:
                expanded.add(child)
                c = new_id[child]
                for e2 in node_children[child]:
                    copy_edge(e2, c)
            for e2 in node_children[child]:
                stack.append(edge_dst[e2])

    out = GameTree(tree.players)
    out.label_cache = tree.label_cache
    out.node_kind = [node_kind[n] for n in origin]
    out.node_state = [tree.node_state[n] for n in origin]
    out.node_outcome = [tree.node_outcome[n] for n in origin]
    out.node_children = children
    out.node_parent_edge = parent_edge
    out.edge_kind = [tree.edge_kind[e] for e in edge_origin]
    out.edge_src = edge_src
    out.edge_dst = [new_id[edge_dst[e]] for e in edge_origin]
    out.edge_prob = [tree.edge_prob[e] for e in edge_origin]
    out.edge_label = [tree.edge_label[e] for e in edge_origin]
    out.root = 0
    return out


def is_shared(tree: GameTree) -> bool:
    """Is some node reached along more than one path from the root?

    The n reachable nodes form a tree exactly when n - 1 edges leave them:
    one into each node but the root.  A cycle answers True.
    """
    order = postorder(tree)
    node_children = tree.node_children
    return sum(len(node_children[n]) for n in order) != len(order) - 1


def require_unshared(tree: GameTree, what: str) -> None:
    """Raise TreeInvariantError if the arena shares a node.

    `what` names or rewrites nodes by arena id, which is sound only on a
    tree: on a shared arena one id stands for every copy of the node.
    """
    if is_shared(tree):
        raise TreeInvariantError(f"{what} needs an unshared tree; unfold the arena first")


# ---------------------------------------------------------------------------
# Construction from a system
# ---------------------------------------------------------------------------


class ArenaBuilder:
    """Builds the trees of any number of roots of one system into one arena.

    Per legal decision tuple one decision edge is drawn; a singleton
    consequence list leads straight to a state node, otherwise through a
    chance node with probability-labeled chance edges.  `depth_limit` counts
    decision rounds from each root: state nodes more than `depth_limit`
    rounds deep are left unexpanded and marked truncated.

    A state's subtree depends only on the state (and, under `depth_limit`,
    on the rounds left), so the arena holds one node per state, or per
    (state, rounds left) under `depth_limit`, whichever root reaches it;
    each state node owns a chance node per decision tuple that needs one.
    All roots count rounds against one limit, so a node's round from its
    root names its rounds left.  `add_root` hands out node ids in the order
    an unshared build of that root creates them, skipping nodes the arena
    already holds, so the arena is shared across roots the way a BDD
    package's unique table is shared across functions.  `node_budget`
    bounds each root's unfolded tree (systems can describe infinite trees).
    Every arena built from one system shares the system engine's label
    cache.

    `players` and `outcomes`, bijections from the system's names, rename
    the arena's labels as they are written: `tree.players` and each
    terminal's outcome carry the names they map to, so the arena is the
    relabeled arena, and no relabeled copy is made.
    """

    __slots__ = (
        "tree", "depth_limit", "node_budget", "_engine", "_nodes", "_labels", "_size",
        "_outcomes",
    )

    def __init__(
        self,
        sys: GameSystem,
        depth_limit: Optional[int] = None,
        node_budget: int = DEFAULT_NODE_BUDGET,
        players: Optional[dict[str, str]] = None,
        outcomes: Optional[dict[str, str]] = None,
    ):
        self._engine = sys.engine()
        self.tree = GameTree(
            sys.players if players is None else tuple(players[p] for p in sys.players)
        )
        self.tree.label_cache = self._engine.label_cache
        self.depth_limit = depth_limit
        self.node_budget = node_budget
        self._outcomes = outcomes
        self._nodes: dict = {}  # state, or (state, round) under a depth limit
        self._labels: dict[DecisionTuple, EdgeLabel] = {}
        self._size: list[int] = []  # per node, its unfolded size

    def add_root(self, s0: GameState) -> int:
        """The node of s0's tree, built on what the arena already holds.

        A tree larger than the budget, or a state graph with a cycle, raises
        BudgetExceededError.  On any exception, such as a decision tuple no
        consequence rule matches, the arena is left as it was before the
        call, so no later root finds a node of this one half expanded.
        """
        tree = self.tree
        engine = self._engine
        depth_limit = self.depth_limit
        node_budget = self.node_budget
        nodes = self._nodes
        labels = self._labels
        outcomes = self._outcomes
        node_kind, node_outcome = tree.node_kind, tree.node_outcome
        parent_edge = tree.node_parent_edge
        start, edge_start, keys_start = len(node_kind), len(tree.edge_kind), len(nodes)
        # old node -> its parent edge before this root pointed a new edge at it
        adopted: dict[int, int] = {}

        def label_for(dtuple: DecisionTuple) -> EdgeLabel:
            lab = labels.get(dtuple)
            if lab is None:
                lab = labels[dtuple] = frozenset({(dtuple,)})
            return lab

        add_node = tree.add_node
        add_edge = tree.add_edge
        limited = depth_limit is not None
        # (node, state, round) of created, unexpanded nodes
        stack: list[tuple[int, GameState, int]] = []

        def node_for(state: GameState, gen: int) -> int:
            key = (state, gen) if limited else state
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = add_node(STATE, state=state)
                stack.append((node, state, gen))
            elif node < start and node not in adopted:
                adopted[node] = parent_edge[node]
            return node

        try:
            root = node_for(s0, 0)
            if root < start:
                return root
            while stack:
                node, state, gen = stack.pop()
                sets = engine.legal_sets(state)
                if not any(sets):
                    node_kind[node] = TERMINAL
                    outcome = engine.outcome(state)
                    node_outcome[node] = outcome if outcomes is None else outcomes[outcome]
                    continue
                dtuples = itertools.product(*[sorted(s) if s else [None] for s in sets])
                if limited and gen > depth_limit:
                    # Unexpanded, but a decision tuple no consequence rule
                    # matches still raises, as it does on an expanded node.
                    for dtuple in dtuples:
                        engine.consequences(dtuple, state)
                    node_kind[node] = TRUNCATED
                    continue
                for dtuple in dtuples:
                    results = engine.consequences(dtuple, state)
                    if len(results) == 1:
                        succ = engine.apply_actions(results[0][1], state)
                        add_edge(node, node_for(succ, gen + 1), DECISION_EDGE,
                                 label=label_for(dtuple))
                    else:
                        chance = add_node(CHANCE)
                        add_edge(node, chance, DECISION_EDGE, label=label_for(dtuple))
                        for p, names in results:
                            succ = engine.apply_actions(names, state)
                            add_edge(chance, node_for(succ, gen + 1), CHANCE_EDGE, prob=p)
                if len(node_kind) - start > node_budget:
                    raise BudgetExceededError(
                        f"node budget {node_budget} exceeded while expanding "
                        f"{format_decision_tuple(dtuple)}"
                    )
            try:
                size = _unfolded_sizes(tree, postorder(tree, root, range(start)), self._size)
            except TreeInvariantError:
                raise BudgetExceededError(
                    f"node budget {node_budget} exceeded: the state graph has a cycle, "
                    "so the tree is infinite"
                ) from None
            if size[root] > node_budget:
                raise BudgetExceededError(
                    f"node budget {node_budget} exceeded: the tree has {size[root]} nodes"
                )
        except BaseException:
            for column in (node_kind, tree.node_state, node_outcome, tree.node_children,
                           parent_edge, self._size):
                del column[start:]
            for column in (tree.edge_kind, tree.edge_src, tree.edge_dst, tree.edge_prob,
                           tree.edge_label):
                del column[edge_start:]
            for node, edge in adopted.items():
                parent_edge[node] = edge
            while len(nodes) > keys_start:  # this root's keys, the last inserted
                nodes.popitem()
            raise
        return root


def build_tree(
    sys: GameSystem,
    s0: GameState,
    depth_limit: Optional[int] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> GameTree:
    """Build the game tree rooted at s0, as a DAG that shares equal subtrees.

    The one-root case of `ArenaBuilder`, which describes the tree.  Node ids
    are handed out in the order an unshared build creates them, skipping
    repeats, and `unfold` recovers that build's columns exactly.
    `node_budget` bounds the node count of the unfolded tree: a larger tree,
    or a state graph with a cycle, raises BudgetExceededError.
    """
    builder = ArenaBuilder(sys, depth_limit, node_budget)
    builder.tree.root = builder.add_root(s0)
    return builder.tree


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


class NodeMeta(NamedTuple):
    """What a state node's out-edge labels spell, per player and per edge."""

    choices: tuple[frozenset, ...]  # per player: the node's choice set
    sizes: tuple[int, ...]  # per player: len(choices[i])
    counts: tuple[int, ...]  # per edge: joint choices mapped onto it
    active: int  # players with more than one choice
    decoded: tuple[tuple, ...]  # per edge: its (sequence, joint) pairs
    owner: Optional[int]  # the only player whose choice set is not {None}
    total: int  # sum(sizes)


_NULL_ONLY = frozenset({None})


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


def node_meta(tree: GameTree, node: int) -> NodeMeta:
    """The matrix a state node's out-edge labels spell, checked and cached.

    The one place labels are decoded.  The record is cached in
    `tree.label_cache` under the node's tuple of edge labels, and each
    label's (sequence, joint choice) pairs under the label: labels repeat
    heavily across a tree, and nodes with equal labels (equal matrices)
    share one entry.  Labels are immutable values, so no rewrite makes an
    entry stale.  Each sequence stays paired with its joint, as an equal
    label need not iterate its sequences in the same order.  The per-player
    choice sets are hash-consed under ``("choices", set)`` keys, so equal
    sets in different records are one object: frozensets stay tracked by
    the cyclic garbage collector, and every full collection walks them all.

    A miss checks the matrix: the node has decision edges only, each with
    a nonempty label of well-formed, not all-null sequences; no joint
    choice repeats; and the joint choices cover the product of the choice
    sets.  Every check reads the labels only (a chance edge's label is
    None), so a tuple of labels that passed once passes at every node, and
    one that fails is not cached.
    """
    edges = tree.node_children[node]
    labels = tuple([tree.edge_label[e] for e in edges])
    cache = tree.label_cache
    meta = cache.get(labels)
    if meta is not None:
        return meta
    if not edges:
        raise TreeInvariantError(f"state node {node} has no outgoing edges")
    n = len(tree.players)
    decoded = []
    seen: set = set()
    for e, label in zip(edges, labels):
        if tree.edge_kind[e] != DECISION_EDGE:
            raise TreeInvariantError(f"state node {node} has a non-decision edge")
        if not label:
            raise TreeInvariantError(f"edge {e} has an empty tuple set")
        pairs = cache.get(label)
        if pairs is None:
            pairs = tuple([(seq, _decode_seq(seq, n, f"edge {e}")) for seq in label])
            for _, joint in pairs:
                if all(c is None for c in joint):
                    raise TreeInvariantError(f"edge {e} carries an all-null decision tuple")
            cache[label] = pairs
        for _, joint in pairs:
            if joint in seen:
                raise TreeInvariantError(
                    f"sibling edges of node {node} share the joint choice {joint!r}"
                )
            seen.add(joint)
        decoded.append(pairs)
    choices = tuple([cache.setdefault(("choices", c), c) for c in map(frozenset, zip(*seen))])
    sizes = tuple(map(len, choices))
    if len(seen) != math.prod(sizes):
        raise TreeInvariantError(
            f"decision matrix at node {node} is not total: "
            f"{len(seen)} joint choices over a domain of {math.prod(sizes)}"
        )
    owners = [i for i, c in enumerate(choices) if c != _NULL_ONLY]
    meta = cache[labels] = NodeMeta(
        choices, sizes, tuple(map(len, decoded)), sum(1 for s in sizes if s > 1),
        tuple(decoded), owners[0] if len(owners) == 1 else None, sum(sizes),
    )
    return meta


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_tree(tree: GameTree) -> None:
    """Check every GameTree invariant; raises TreeInvariantError with a witness.

    A shared arena, such as a built tree or a normal form, is valid when
    its unfolding is: each node reachable from the root is checked once,
    however many paths reach it, and a cycle is rejected.
    """
    if tree.root < 0:
        raise TreeInvariantError("tree has no root")
    order = postorder(tree)
    _unfolded_sizes(tree, order)  # raises on a cycle
    for n in order:
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
            node_meta(tree, n)
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
    if tree.node_kind[tree.root] == CHANCE:
        raise TreeInvariantError("root must be a state-like node")


# ---------------------------------------------------------------------------
# Deterministic child ordering for exports
# ---------------------------------------------------------------------------


def _seq_sort_key(seq: TupleSeq):
    return tuple(tuple("\x00" if d is None else d for d in t) for t in seq)


def _label_sort_key(label: EdgeLabel):
    return sorted(map(_seq_sort_key, label))


def _preorder(tree: GameTree) -> tuple[list[int], list, list[int]]:
    """The canonical numbering shared by the exports.

    Returns the nodes of the unfolded tree in preorder (a shared node once
    per path to it; a node's id is its position there), per arena node its
    out-edges in canonical order, and per arena node its unfolded subtree
    size: a child's id is its parent's id plus one plus the sizes of the
    children before it.  Decision edges sort by their sorted tuple
    sequences, chance edges by descending probability, and equally likely
    ones by the child's fully pinned subtree key.  Both sorts run once per
    arena node, and keys are computed only below tied chance edges.  Raises
    TreeInvariantError on a cycle, as `validate_tree` does.
    """
    from . import canon  # local import: canon orders tied chance edges by subtree key

    node_kind = tree.node_kind
    node_children = tree.node_children
    edge_dst = tree.edge_dst
    edge_prob = tree.edge_prob
    edge_label = tree.edge_label
    label_keys: dict = {}
    key_fn = None

    def label_key(e: int):
        label = edge_label[e]
        key = label_keys.get(label)
        if key is None:
            key = label_keys[label] = _label_sort_key(label)
        return key

    order = postorder(tree)
    size = _unfolded_sizes(tree, order)  # raises on a cycle
    ordered: list = [None] * len(node_kind)
    for n in order:
        edges = node_children[n]
        if edges:
            if node_kind[n] != CHANCE:
                edges = sorted(edges, key=label_key)
            else:
                probs = [edge_prob[e] for e in edges]
                tied = {p for p in probs if probs.count(p) > 1}
                if tied and key_fn is None:
                    key_fn = canon.make_key_fn(tree, canon.PIN_ALL)
                edges = sorted(
                    edges,
                    key=lambda e: (
                        -edge_prob[e],
                        key_fn(edge_dst[e]) if edge_prob[e] in tied else b"",
                    ),
                )
        ordered[n] = edges

    sequence: list[int] = []
    stack = [tree.root]
    while stack:
        n = stack.pop()
        sequence.append(n)
        for e in reversed(ordered[n]):
            stack.append(edge_dst[e])
    return sequence, ordered, size


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
    The fragments that repeat are rendered once per call: each distinct
    state's ``"state"`` block, outcome, edge label's sorted ``"tuples"``
    block and probability.  Each is written as a chunk of its own, so a
    caller that keeps the chunks keeps one copy of it, not one per node or
    edge.  Strings are quoted by the C encoder's ``encode_basestring_ascii``,
    as ``json.dumps`` does.
    """
    sequence, ordered, size = _preorder(tree)
    pad = "  " * level
    i1, i2, i3 = pad + "  ", pad + "    ", pad + "      "
    write(
        f'{pad}{{\n{i1}"players": {_json_list(tree.players, i1)},\n'
        f'{i1}"root": 0,\n{i1}"nodes": ['
    )
    kinds = {
        STATE: f',\n{i3}"kind": "state"',
        CHANCE: f',\n{i3}"kind": "chance"',
        TERMINAL: f',\n{i3}"kind": "terminal"',
        TRUNCATED: f',\n{i3}"kind": "state",\n{i3}"truncated": true',
    }
    close = f"\n{i2}}}"
    states: dict = {}
    # an outcome's text ends the node
    outcomes: dict = {None: close}
    sep = "\n"
    for i, n in enumerate(sequence):
        write(f'{sep}{i2}{{\n{i3}"id": {i}{kinds[tree.node_kind[n]]}')
        state = tree.node_state[n]
        if state is not None:
            state_text = states.get(state)
            if state_text is None:
                state_text = states[state] = f',\n{i3}"state": {_json_list(state, i3)}'
            write(state_text)
        outcome = tree.node_outcome[n]
        outcome_text = outcomes.get(outcome)
        if outcome_text is None:
            outcome_text = outcomes[outcome] = f',\n{i3}"outcome": {_quote(outcome)}{close}'
        write(outcome_text)
        sep = ",\n"
    write(f'\n{i1}],\n{i1}"edges": [')
    tails: dict = {}
    probs: dict = {}
    sep = "\n"
    edge_dst = tree.edge_dst
    for i, n in enumerate(sequence):
        to = i + 1
        for e in ordered[n]:
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
            write(f'{sep}{i2}{{\n{i3}"from": {i},\n{i3}"to": {to}')
            write(tail)
            to += size[edge_dst[e]]
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


def _parse_json(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise TreeInvariantError(f"malformed JSON: {exc}") from exc


def import_json(text: str) -> GameTree:
    """Parse and fully validate a tree document."""
    return _tree_from_doc(_parse_json(text))


def import_forest_json(text: str) -> list[GameTree]:
    """The trees of a tree document, or of a ``{"forest": [...]}`` document
    of several (as the CLI writes them), each checked as by `import_json`."""
    doc = _parse_json(text)
    if not isinstance(doc, dict) or "forest" not in doc:
        return [_tree_from_doc(doc)]
    members = doc["forest"]
    if not isinstance(members, list) or not members:
        raise TreeInvariantError("'forest' must be a nonempty list of tree documents")
    forest = [_tree_from_doc(member) for member in members]
    if any(t.players != forest[0].players for t in forest):
        raise TreeInvariantError("the trees of a forest must list the same players")
    return forest


def _tree_from_doc(doc) -> GameTree:
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
    seqs = sorted(label, key=_seq_sort_key)
    return "{" + ", ".join(".".join(format_decision_tuple(t) for t in seq) for seq in seqs) + "}"


def write_dot(tree: GameTree, write: Callable[[str], object]) -> None:
    """Stream `export_dot`'s text to `write`, a line per chunk.

    Nodes are numbered in the canonical preorder `write_json` uses.  Each
    distinct edge label and probability, and each outcome's node attributes,
    are rendered once per call.
    """
    sequence, ordered, size = _preorder(tree)
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
    edge_dst = tree.edge_dst
    for i, n in enumerate(sequence):
        to = i + 1
        for e in ordered[n]:
            key = tree.edge_label[e] if tree.edge_kind[e] == DECISION_EDGE else tree.edge_prob[e]
            label = labels.get(key)
            if label is None:
                label = labels[key] = (
                    _dot_escape(format_label(key)) if isinstance(key, frozenset) else str(key)
                )
            write(f'  n{i} -> n{to} [label="{label}"];\n')
            to += size[edge_dst[e]]
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


@typed_record
class TreeStats(NamedTuple):
    nodes: int
    state_nodes: int
    chance_nodes: int
    terminal_leaves: int
    truncated_leaves: int
    edges: int
    depth: int


def tree_stats(tree: GameTree) -> TreeStats:
    """Counts of the unfolded tree, from one visit of each arena node: a
    shared node counts once per path to it."""
    order = postorder(tree)
    paths = _path_counts(tree, order)
    counts = {STATE: 0, CHANCE: 0, TERMINAL: 0, TRUNCATED: 0}
    edges = 0
    for n in order:
        c = paths[n]
        counts[tree.node_kind[n]] += c
        edges += c * len(tree.node_children[n])
    return TreeStats(
        nodes=sum(counts.values()),
        state_nodes=counts[STATE],
        chance_nodes=counts[CHANCE],
        terminal_leaves=counts[TERMINAL],
        truncated_leaves=counts[TRUNCATED],
        edges=edges,
        depth=tree.depth(),
    )
