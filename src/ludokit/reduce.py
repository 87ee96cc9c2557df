"""Agency-preserving tree reductions and normalization to a fixed point.

Four rewrites prune differences that do not change what players can
meaningfully decide:

- matrix redundancy: drop duplicate choices that lead to identical edges;
- bookkeeping: collapse regions where exactly one joint decision exists at
  every step (chance structure inside is preserved as path-product
  probabilities);
- single-player: collapse chance-free regions owned by one player into
  composite choices labeled by decision-tuple sequences;
- symmetry: merge a subtree into a sibling subtree that is equivalent up to
  relabeling with identical players and outcomes (decision edges union their
  tuple sets; chance edges add their probabilities).

`normalize` applies these to a fixed point in a canonical order
(matrix-redundancy, bookkeeping, single-player, symmetry; repeat) via a
bottom-up pass: once a node's local loop stabilizes its whole subtree is
normal, so sibling-subtree comparisons can use cached canonical keys.  The
pass hash-conses its input first and normalizes each distinct subtree once;
later copies share the finished subtree, and the normal form is unfolded
back into a tree on output.  The public `reduce_*` operations apply one
maximal site at a time and verify the measure (node count, then total
choice count) strictly decreases; a site whose node has been cut off from
the root, or whose structure no longer holds, raises `StaleSiteError`.
Per-node matrix facts come from `canon._node_meta`, which caches them under
the node's edge labels, so rewrites need no cache invalidation.

Sites that touch truncated frontier nodes are skipped, so depth-limited
partial trees normalize deterministically without inventing semantics for
the unexplored region.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import canon
from .errors import BudgetExceededError, StaleSiteError, TreeInvariantError
from .tree import (
    CHANCE,
    CHANCE_EDGE,
    DECISION_EDGE,
    GameTree,
    STATE,
    TERMINAL,
    TRUNCATED,
    choice_rank,
)

MAX_LABEL_SEQUENCES = 1_000_000
_NULL_ONLY = frozenset({None})


@dataclass(frozen=True)
class ReductionSite:
    """A detected rewrite opportunity at node `root`.

    Applying it re-checks that `root` is still reachable from the tree's
    root and that the site's structure still holds.
    """

    kind: str  # "matrix-redundancy" | "bookkeeping" | "single-player" | "symmetry"
    root: int
    payload: tuple = ()


@dataclass(frozen=True)
class TraceStep:
    kind: str
    root: int
    nodes_before: int
    nodes_after: int
    choices_before: int
    choices_after: int


@dataclass
class ReductionTrace:
    steps: list[TraceStep] = field(default_factory=list)

    def record(self, kind: str, root: int, before: tuple[int, int], after: tuple[int, int]) -> None:
        if after >= before:
            raise AssertionError(
                f"{kind} at node {root} did not decrease the measure: {before} -> {after}"
            )
        self.steps.append(TraceStep(kind, root, before[0], after[0], before[1], after[1]))

    def to_json(self) -> str:
        return json.dumps(
            [
                {
                    "kind": s.kind,
                    "root": s.root,
                    "nodes_before": s.nodes_before,
                    "nodes_after": s.nodes_after,
                    "choices_before": s.choices_before,
                    "choices_after": s.choices_after,
                }
                for s in self.steps
            ],
            indent=2,
        ) + "\n"


# ---------------------------------------------------------------------------
# Measure helpers
# ---------------------------------------------------------------------------


def node_choice_total(tree: GameTree, node: int) -> int:
    """Total choice-set cardinality of the node's decision matrix (0 off state nodes)."""
    if tree.node_kind[node] != STATE or not tree.node_children[node]:
        return 0
    return sum(canon.node_player_sizes(tree, node))


def tree_measure(tree: GameTree) -> tuple[int, int]:
    """(node count, total choice-set cardinality): the termination measure."""
    nodes = 0
    choices = 0
    for n in tree.iter_nodes():
        nodes += 1
        choices += node_choice_total(tree, n)
    return nodes, choices


def _subtree_cost(tree: GameTree, node: int) -> tuple[int, int]:
    nodes = 0
    choices = 0
    for n in tree.subtree_nodes(node):
        nodes += 1
        choices += node_choice_total(tree, n)
    return nodes, choices


def _owner_of(tree: GameTree, node: int) -> Optional[int]:
    """The unique player with a non-null choice at the node, if any."""
    if tree.node_kind[node] != STATE:
        return None
    choices = canon._node_meta(tree, node).choices
    candidates = [i for i, c in enumerate(choices) if c != _NULL_ONLY]
    return candidates[0] if len(candidates) == 1 else None


def _is_live(tree: GameTree, node: int) -> bool:
    """Is `node` still reachable from the root along current edges?"""
    while node != tree.root:
        e = tree.node_parent_edge[node]
        if e < 0 or tree.edge_dst[e] != node:
            return False
        node = tree.edge_src[e]
        if e not in tree.node_children[node]:
            return False
    return True


def _check_live(tree: GameTree, node: int) -> None:
    if not _is_live(tree, node):
        raise StaleSiteError(f"node {node} is no longer in the tree")


def _has_truncated(tree: GameTree, node: int) -> bool:
    return any(tree.node_kind[n] == TRUNCATED for n in tree.subtree_nodes(node))


def _splice_into(tree: GameTree, old: int, new: int) -> None:
    """Move `new` (with its subtree) into `old`'s position."""
    e = tree.node_parent_edge[old]
    if e < 0:
        tree.root = new
        tree.node_parent_edge[new] = -1
    else:
        tree.edge_dst[e] = new
        tree.node_parent_edge[new] = e


# ---------------------------------------------------------------------------
# Matrix redundancy
# ---------------------------------------------------------------------------


def _pruned_labels(meta: canon.NodeMeta) -> Optional[list[frozenset]]:
    """Per-edge labels once every redundant choice is deleted, or None.

    A choice of one player is redundant when another of that player's
    choices leads to the same edge against every joint choice of the
    others; of such a group the first by `choice_rank` survives.  Deleting
    repeats until no choice is redundant.  A pure function of the labels.
    """
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
                groups.setdefault(tuple(sorted(results, key=repr)), []).append(choice)
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
    return [frozenset(seqs) for seqs in per_edge]


def _matrix_redundancy_at(tree: GameTree, node: int) -> bool:
    """Delete redundant choices at the node; returns True if anything changed."""
    pruned = _pruned_labels(canon._node_meta(tree, node))
    if pruned is None:
        return False
    for e, label in zip(tree.node_children[node], pruned):
        tree.edge_label[e] = label
    return True


def find_matrix_redundancy_sites(tree: GameTree) -> list[ReductionSite]:
    return [
        ReductionSite("matrix-redundancy", node)
        for node in tree.iter_nodes()
        if tree.node_kind[node] == STATE
        and tree.node_children[node]
        and _pruned_labels(canon._node_meta(tree, node)) is not None
    ]


def reduce_matrix_redundancy(tree: GameTree, site) -> GameTree:
    """Apply the duplicate-choice reduction at one node (no-op if none)."""
    node = site.root if isinstance(site, ReductionSite) else site
    _check_live(tree, node)
    if tree.node_kind[node] != STATE:
        raise TreeInvariantError(f"node {node} is not a state node")
    _matrix_redundancy_at(tree, node)
    return tree


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------


def _is_forced(tree: GameTree, node: int) -> bool:
    """State node with exactly one decision edge (one joint decision)."""
    return (
        tree.node_kind[node] == STATE
        and len(tree.node_children[node]) == 1
        and tree.edge_kind[tree.node_children[node][0]] == DECISION_EDGE
    )


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
    sites = []
    for node in tree.iter_nodes():
        if not _is_forced(tree, node):
            continue
        parent = tree.parent(node)
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
        _splice_into(tree, root, leaf)
        return tree
    total = sum((p for _, p in leaves), Fraction(0))
    if total != 1:
        raise AssertionError(f"path probabilities sum to {total}, not 1")
    parent_edge = tree.node_parent_edge[root]
    if parent_edge < 0:
        # Case 2c: keep the root and its single decision edge.
        e_r = tree.node_children[root][0]
        c = tree.add_node(CHANCE)
        tree.edge_dst[e_r] = c
        tree.node_parent_edge[c] = e_r
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
        _splice_into(tree, root, c)
        for leaf, p in leaves:
            tree.add_edge(c, leaf, CHANCE_EDGE, prob=p)
    return tree


# ---------------------------------------------------------------------------
# Single-player subtrees
# ---------------------------------------------------------------------------


def _concat_labels(a: frozenset, b: frozenset, cap: int) -> frozenset:
    out = {sa + sb for sa in a for sb in b}
    if len(out) > cap:
        raise BudgetExceededError("composite choice labels exceed the sequence budget")
    return frozenset(out)


def _absorbable(tree: GameTree, v: int, owner: int, child: int) -> bool:
    """Can `child` be folded into its parent's composite choices?"""
    if tree.node_kind[child] != STATE or not tree.node_children[child]:
        return False
    if _owner_of(tree, child) != owner:
        return False
    for e in tree.node_children[child]:
        dst_kind = tree.node_kind[tree.edge_dst[e]]
        if dst_kind not in (STATE, TERMINAL):
            return False
    return True


def _absorb_children_once(tree: GameTree, v: int, owner: int) -> list[int]:
    """Fold every absorbable child of v one level; returns absorbed child ids."""
    absorbed = []
    children_edges = list(tree.node_children[v])
    for e_vw in children_edges:
        w = tree.edge_dst[e_vw]
        if not _absorbable(tree, v, owner, w):
            continue
        base = tree.edge_label[e_vw]
        new_labels = []
        collision = False
        existing = set()
        for e in tree.node_children[v]:
            if e != e_vw:
                existing.update(tree.edge_label[e])
        for e_wl in tree.node_children[w]:
            label = _concat_labels(base, tree.edge_label[e_wl], MAX_LABEL_SEQUENCES)
            if existing & label:
                collision = True
                break
            existing.update(label)
            new_labels.append((tree.edge_dst[e_wl], label))
        if collision:
            continue  # composite sequences would collide; leave this child alone
        tree.node_children[v].remove(e_vw)
        for leaf, label in new_labels:
            tree.add_edge(v, leaf, DECISION_EDGE, label=label)
        absorbed.append(w)
    return absorbed


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
        _absorbable(tree, node, owner, tree.edge_dst[e])
        for e in tree.node_children[node]
    )


def find_single_player_sites(tree: GameTree) -> list[ReductionSite]:
    """Maximal single-player deterministic subtrees of depth at least two."""
    sites = []
    for node in tree.iter_nodes():
        if not _single_player_site_at(tree, node):
            continue
        parent = tree.parent(node)
        if (
            parent >= 0
            and _owner_of(tree, parent) == _owner_of(tree, node)
            and _single_player_site_at(tree, parent)
            and _absorbable(tree, parent, _owner_of(tree, parent), node)
        ):
            continue  # parent's site strictly contains this one
        sites.append(ReductionSite("single-player", node))
    return sites


def reduce_single_player(tree: GameTree, site: ReductionSite) -> GameTree:
    """Collapse one maximal single-player subtree into composite choices."""
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


# ---------------------------------------------------------------------------
# Symmetry-redundant subtrees
# ---------------------------------------------------------------------------


def find_symmetry_sites(tree: GameTree) -> list[ReductionSite]:
    """Sibling pairs equivalent up to relabeling with identical players/outcomes."""
    keys = canon.subtree_keys(tree, pin_players=True, pin_outcomes=True)
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


def _merge_pair(tree: GameTree, parent: int, victim_edge: int, survivor_edge: int) -> bool:
    """Merge victim subtree onto survivor; returns True if the parent chance
    node was spliced out (merged probability reached 1)."""
    if tree.edge_kind[victim_edge] == DECISION_EDGE:
        tree.edge_label[survivor_edge] = tree.edge_label[survivor_edge] | tree.edge_label[victim_edge]
        tree.node_children[parent].remove(victim_edge)
        return False
    prob = tree.edge_prob[survivor_edge] + tree.edge_prob[victim_edge]
    tree.edge_prob[survivor_edge] = prob
    tree.node_children[parent].remove(victim_edge)
    if prob == 1:
        assert len(tree.node_children[parent]) == 1
        survivor = tree.edge_dst[survivor_edge]
        _splice_into(tree, parent, survivor)
        return True
    return False


def reduce_symmetry(tree: GameTree, site: ReductionSite) -> GameTree:
    """Merge one symmetry-redundant subtree into its sibling."""
    victim_edge, survivor_edge = site.payload
    parent = site.root
    _check_live(tree, parent)
    if victim_edge not in tree.node_children[parent] or survivor_edge not in tree.node_children[parent]:
        raise StaleSiteError("merge edges are no longer siblings")
    keys = canon.subtree_keys(tree, pin_players=True, pin_outcomes=True)
    if keys[tree.edge_dst[victim_edge]] != keys[tree.edge_dst[survivor_edge]]:
        raise StaleSiteError("subtree equivalence no longer holds")
    _merge_pair(tree, parent, victim_edge, survivor_edge)
    return tree


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


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
    for n in canon._postorder(tree, tree.root):
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
    """Bottom-up normalization with incremental canonical keys.

    Each distinct subtree of the input is normalized once.  A later copy of
    an already finished subtree is not processed again: its parent edge is
    pointed at the first copy's finished node, and the first copy's trace
    steps are replayed, so the trace and its running measure are exactly
    those of processing the copy.  This is sound because finishing a
    subtree writes only inside it and into its own parent edge, and later
    rewrites by its ancestors touch their own edges and their children's
    parent pointers, never a finished node's children or labels.  The tree
    is a DAG from then on (parent pointers of shared nodes name one of
    their parents); `GameTree.compact` unfolds it.
    """
    key_fn = canon.make_key_fn(tree, canon.PIN_SYMMETRY)
    trunc_memo: dict[int, bool] = {}

    def has_trunc(node: int) -> bool:
        cached = trunc_memo.get(node)
        if cached is not None:
            return cached
        for n in canon._postorder(tree, node, trunc_memo):
            if n not in trunc_memo:
                trunc_memo[n] = tree.node_kind[n] == TRUNCATED or any(
                    trunc_memo[tree.edge_dst[e]] for e in tree.node_children[n]
                )
        return trunc_memo[node]

    ids, costs = _intern(tree)
    nodes_live, choices_live = costs[ids[tree.root]]

    def record(kind: str, at: int, dn: int, dc: int) -> None:
        nonlocal nodes_live, choices_live
        before = (nodes_live, choices_live)
        nodes_live += dn
        choices_live += dc
        trace.record(kind, at, before, (nodes_live, choices_live))

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
            tree.node_parent_edge[x] = e_vw
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
                tree.node_parent_edge[x] = e_vw
                record("bookkeeping", w, -1, -w_choices)
            return True
        return False  # truncated target: skip

    def process(v: int) -> None:
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
                if has_trunc(dst):
                    continue
                groups.setdefault(key_fn(dst), []).append(e)
            spliced_out = False
            for edges in groups.values():
                if len(edges) < 2:
                    continue
                survivor = edges[0]
                for victim in edges[1:]:
                    cost = _subtree_cost(tree, tree.edge_dst[victim])
                    spliced = _merge_pair(tree, v, victim, survivor)
                    extra = (1, 0) if spliced else (0, 0)
                    record("symmetry", v, -(cost[0] + extra[0]), -cost[1])
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

    # canon._postorder's order, not descending into a repeated subtree.
    # finished: subtree id -> (finished node, slice of trace.steps).
    finished: dict[int, tuple[int, int, int]] = {}
    stack: list[tuple[int, int]] = [(tree.root, -1)]
    while stack:
        v, first_step = stack.pop()
        if first_step < 0:
            done = finished.get(ids[v])
            if done is None:
                stack.append((v, len(trace.steps)))
                for e in tree.node_children[v]:
                    stack.append((tree.edge_dst[e], -1))
                continue
            node, lo, hi = done
            # v is not the root: the root's subtree is the largest, so unique
            tree.edge_dst[tree.node_parent_edge[v]] = node
            for s in trace.steps[lo:hi]:
                record(
                    s.kind, s.root,
                    s.nodes_after - s.nodes_before, s.choices_after - s.choices_before,
                )
            continue
        e = tree.node_parent_edge[v]
        if tree.node_kind[v] not in (TERMINAL, TRUNCATED):
            process(v)
        finished[ids[v]] = (
            tree.edge_dst[e] if e >= 0 else tree.root, first_step, len(trace.steps)
        )

    # Root-level bookkeeping (Case 1 with the root as the subtree root).
    while _is_forced(tree, tree.root):
        e = tree.node_children[tree.root][0]
        x = tree.edge_dst[e]
        if tree.node_kind[x] not in (STATE, TERMINAL):
            break
        old_root = tree.root
        cost = node_choice_total(tree, old_root)
        tree.root = x
        tree.node_parent_edge[x] = -1
        record("bookkeeping", old_root, -1, -cost)
    return tree


def _normalize_random(tree: GameTree, trace: ReductionTrace, rng: random.Random) -> GameTree:
    """Reference engine: detect all sites, apply one at random, repeat."""
    while True:
        sites = (
            find_matrix_redundancy_sites(tree)
            + find_bookkeeping_sites(tree)
            + find_single_player_sites(tree)
            + find_symmetry_sites(tree)
        )
        if not sites:
            return tree
        site = rng.choice(sites)
        before = tree_measure(tree)
        if site.kind == "matrix-redundancy":
            reduce_matrix_redundancy(tree, site)
        elif site.kind == "bookkeeping":
            reduce_bookkeeping(tree, site)
        elif site.kind == "single-player":
            reduce_single_player(tree, site)
        else:
            reduce_symmetry(tree, site)
        trace.record(site.kind, site.root, before, tree_measure(tree))


def normalize(
    tree: GameTree, shuffle_seed: Optional[int] = None, consume: bool = False
) -> tuple[GameTree, ReductionTrace]:
    """Reduce a tree to its normal form; the input tree is never modified.

    The default engine applies the canonical order bottom-up, normalizing
    each distinct subtree once and unfolding the shared result on output;
    passing `shuffle_seed` switches to a reference engine that repeatedly
    picks a random site, used to check order robustness.  `consume=True`
    skips the defensive copy when the caller owns the tree.
    """
    work = tree if consume else tree.copy()
    trace = ReductionTrace()
    if shuffle_seed is None:
        _normalize_fast(work, trace)
    else:
        _normalize_random(work, trace, random.Random(shuffle_seed))
    return work.compact(), trace
