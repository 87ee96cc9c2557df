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
pass only reads its input, which may be a shared arena (a built tree): it
builds the normal form into a fresh hash-consed arena, normalizing each
distinct subtree once, and returns that arena's reachable part, still
shared.  Like a built tree, the form stands for its unfolding: exports,
node counts and witnesses unfold it on demand.  This pass is the
package's one rewriting engine; each helper below reads or rewrites one
node's out-edges for it.  Per-node matrix facts (choice sets, their total
size, the one player who chooses) come from `tree.node_meta`, which caches
them under the node's edge labels, so rewrites need no cache invalidation.

Sites that touch truncated frontier nodes are skipped, so depth-limited
partial trees normalize deterministically without inventing semantics for
the unexplored region.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from . import canon
from .errors import BudgetExceededError
from .tree import (
    CHANCE,
    CHANCE_EDGE,
    DECISION_EDGE,
    GameTree,
    NodeMeta,
    STATE,
    TERMINAL,
    TRUNCATED,
    choice_rank,
    compact,
    node_meta,
)

MAX_LABEL_SEQUENCES = 1_000_000


@dataclass(frozen=True)
class TraceStep:
    kind: str
    root: int
    nodes_before: int
    nodes_after: int
    choices_before: int
    choices_after: int


class ReductionTrace:
    """The steps of one normalization, from the measure it started at.

    Each step is kept as (kind, root, node change, choice change); `steps`
    spells them out as `TraceStep`s, measures included, on first access.
    """

    def __init__(self, start: tuple[int, int] = (0, 0)) -> None:
        self.start = start
        self.deltas: list[tuple[str, int, int, int]] = []
        self._steps: list[TraceStep] = []

    def record(self, kind: str, root: int, dn: int, dc: int) -> None:
        """Add a step that changes the measure by (dn, dc); it must decrease it."""
        if (dn, dc) >= (0, 0):
            raise AssertionError(
                f"{kind} at node {root} did not decrease the measure: changed it by ({dn}, {dc})"
            )
        self.deltas.append((kind, root, dn, dc))

    @property
    def steps(self) -> list[TraceStep]:
        steps = self._steps
        if len(steps) < len(self.deltas):
            if steps:
                nodes, choices = steps[-1].nodes_after, steps[-1].choices_after
            else:
                nodes, choices = self.start
            for kind, root, dn, dc in self.deltas[len(steps):]:
                steps.append(TraceStep(kind, root, nodes, nodes + dn, choices, choices + dc))
                nodes += dn
                choices += dc
        return steps

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
    return node_meta(tree, node).total


# ---------------------------------------------------------------------------
# Matrix redundancy
# ---------------------------------------------------------------------------


def _pruned_labels(meta: NodeMeta) -> Optional[tuple[frozenset, ...]]:
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
    return tuple([frozenset(seqs) for seqs in per_edge])


def _pruned_at(tree: GameTree, node: int) -> Optional[tuple[frozenset, ...]]:
    """`_pruned_labels` of the node's matrix, cached beside its `NodeMeta`
    in `tree.label_cache` under the node's edge labels."""
    key = ("pruned", tuple([tree.edge_label[e] for e in tree.node_children[node]]))
    cache = tree.label_cache
    if key in cache:
        return cache[key]
    pruned = cache[key] = _pruned_labels(node_meta(tree, node))
    return pruned


def _matrix_redundancy_at(tree: GameTree, node: int) -> bool:
    """Delete redundant choices at the node; returns True if anything changed."""
    pruned = _pruned_at(tree, node)
    if pruned is None:
        return False
    for e, label in zip(tree.node_children[node], pruned):
        tree.edge_label[e] = label
    return True


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
    if node_meta(tree, child).owner != owner:
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


# ---------------------------------------------------------------------------
# Symmetry-redundant subtrees
# ---------------------------------------------------------------------------


def _merge_pair(tree: GameTree, parent: int, victim_edge: int, survivor_edge: int) -> int:
    """Merge victim subtree onto survivor; returns the node that now stands
    for `parent`: the survivor's child when the merged probability reached 1
    and the chance node drops out, else `parent` itself."""
    tree.node_children[parent].remove(victim_edge)
    if tree.edge_kind[victim_edge] == DECISION_EDGE:
        tree.edge_label[survivor_edge] = tree.edge_label[survivor_edge] | tree.edge_label[victim_edge]
        return parent
    prob = tree.edge_prob[survivor_edge] + tree.edge_prob[victim_edge]
    tree.edge_prob[survivor_edge] = prob
    if prob == 1:
        assert len(tree.node_children[parent]) == 1
        return tree.edge_dst[survivor_edge]
    return parent


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def _normal_form(tree: GameTree, trace: ReductionTrace) -> GameTree:
    """The normal form of `tree` as a fresh shared arena; `tree` is only read.

    `nf(v)` is memoized on v's kind, state and outcome and each out-edge's
    kind, label, probability and `nf(child)`, the unique-table scheme of
    hash-consing.  A new key copies v into the output arena with edges to
    its children's finished forms, and the canonical-order loop rewrites
    that copy's out-edges only.  The loop reads nothing but the key's
    fields, so equal keys have equal normal forms on imported, reduced and
    depth-limited trees alike.  A finished node never changes again, so any
    number of parents can share it, and nothing needs a parent.  Each
    input node is visited once, after its children.  A repeated input node
    replays the trace steps of its whole subtree and a repeated key the
    steps of its own loop, so the trace is that of the unfolded tree, and a
    step's `root` names the first input node copied into the node it
    rewrote.  The output's measure is known from the finished nodes, so the
    trace starts at that measure minus the steps' changes.
    """
    out = GameTree(tree.players, tree.system)
    out.label_cache = tree.label_cache
    key_fn = canon.make_key_fn(out, canon.PIN_SYMMETRY)
    origin: list[int] = []  # per output node, the input node it copies
    # per finished output node: (node count, choice count, has a truncated node)
    facts: dict[int, tuple[int, int, bool]] = {}
    deltas = trace.deltas

    def record(kind: str, node: int, dn: int, dc: int) -> None:
        trace.record(kind, origin[node], dn, dc)

    def splice_forced_child(v: int, e_vw: int) -> bool:
        """Bookkeeping, pairwise: splice a forced state child of v."""
        w = out.edge_dst[e_vw]
        if not _is_forced(out, w):
            return False
        x = out.edge_dst[out.node_children[w][0]]
        x_kind = out.node_kind[x]
        if x_kind == TRUNCATED:
            return False
        if x_kind == CHANCE and any(
            out.node_kind[out.edge_dst[e]] == TRUNCATED for e in out.node_children[x]
        ):
            return False  # site leaves include a truncated node
        w_choices = node_choice_total(out, w)
        if x_kind == CHANCE and out.node_kind[v] == CHANCE:
            # fold x's edges into v, scaled by the edge into w
            p_r = out.edge_prob[e_vw]
            out.node_children[v].remove(e_vw)
            for e in out.node_children[x]:
                out.add_edge(v, out.edge_dst[e], CHANCE_EDGE, prob=p_r * out.edge_prob[e])
            record("bookkeeping", w, -2, -w_choices)
        else:
            out.edge_dst[e_vw] = x
            record("bookkeeping", w, -1, -w_choices)
        return True

    def process(v: int) -> int:
        """Normalize the copy v, a state or chance node whose children are
        finished; returns the node that stands for it."""
        is_state = out.node_kind[v] == STATE
        while True:
            changed = False
            if is_state:
                before = node_choice_total(out, v)
                if _matrix_redundancy_at(out, v):
                    record("matrix-redundancy", v, 0, node_choice_total(out, v) - before)
                    changed = True
            for e in list(out.node_children[v]):
                if e in out.node_children[v] and splice_forced_child(v, e):
                    changed = True
            # Single-player: a site roots at v when one player owns v's
            # choices and no child is truncated (a site leaf would be one).
            owner = node_meta(out, v).owner if is_state else None
            if owner is not None and not any(
                out.node_kind[out.edge_dst[e]] == TRUNCATED for e in out.node_children[v]
            ):
                before_v = node_choice_total(out, v)
                absorbed = _absorb_children_once(out, v, owner)
                if absorbed:
                    changed = True
                    dc = (
                        node_choice_total(out, v)
                        - before_v
                        - sum(node_choice_total(out, w) for w in absorbed)
                    )
                    record("single-player", v, -len(absorbed), dc)
            # symmetry merges among the (now stable-keyed) children
            groups: dict[bytes, list[int]] = {}
            for e in out.node_children[v]:
                dst = out.edge_dst[e]
                if facts[dst][2]:
                    continue
                groups.setdefault(key_fn(dst), []).append(e)
            for edges in groups.values():
                survivor = edges[0]
                for victim in edges[1:]:
                    nodes, choices, _ = facts[out.edge_dst[victim]]
                    stand = _merge_pair(out, v, victim, survivor)
                    record("symmetry", v, -nodes - (stand != v), -choices)
                    changed = True
                    if stand != v:
                        return stand  # v itself was removed
            if not changed:
                return v

    # Children first.  A stack entry is (input node, its first step), the
    # first step -1 while the node is yet to be entered.
    # done: input node -> (its normal form, the steps of its subtree lo:hi)
    # table: memo key -> (normal form, the steps of its own loop lo:hi)
    done: dict[int, tuple[int, int, int]] = {}
    table: dict[tuple, tuple[int, int, int]] = {}
    add_node, add_edge = out.add_node, out.add_edge
    stack: list[tuple[int, int]] = [(tree.root, -1)]
    while stack:
        v, lo = stack.pop()
        if lo < 0:
            got = done.get(v)
            if got is None:
                stack.append((v, len(deltas)))
                for e in tree.node_children[v]:
                    stack.append((tree.edge_dst[e], -1))
            else:
                # A replay repeats deltas that `record` has already checked,
                # so it cannot fail the check.
                deltas.extend(deltas[got[1]:got[2]])
            continue
        edges = tuple(
            (tree.edge_kind[e], tree.edge_label[e], tree.edge_prob[e], done[tree.edge_dst[e]][0])
            for e in tree.node_children[v]
        )
        key = (tree.node_kind[v], tree.node_state[v], tree.node_outcome[v], edges)
        got = table.get(key)
        if got is None:
            c = add_node(key[0], key[1], key[2])
            origin.append(v)
            for kind, label, prob, child in edges:
                add_edge(c, child, kind, prob, label)
            mark = len(deltas)
            if key[0] in (STATE, CHANCE):
                c = process(c)
            if c not in facts:
                nodes, choices = 1, node_choice_total(out, c)
                trunc = out.node_kind[c] == TRUNCATED
                for e in out.node_children[c]:
                    child_nodes, child_choices, child_trunc = facts[out.edge_dst[e]]
                    nodes += child_nodes
                    choices += child_choices
                    trunc = trunc or child_trunc
                facts[c] = (nodes, choices, trunc)
            got = table[key] = (c, mark, len(deltas))
        else:
            deltas.extend(deltas[got[1]:got[2]])
        done[v] = (got[0], lo, len(deltas))

    # Root-level bookkeeping (Case 1 with the root as the subtree root).
    root = done[tree.root][0]
    while _is_forced(out, root):
        x = out.edge_dst[out.node_children[root][0]]
        if out.node_kind[x] not in (STATE, TERMINAL):
            break
        record("bookkeeping", root, -1, -node_choice_total(out, root))
        root = x
    out.root = root
    nodes, choices, _ = facts[root]
    trace.start = (nodes - sum(d[2] for d in deltas), choices - sum(d[3] for d in deltas))
    return out


def normalize(tree: GameTree, consume: bool = False) -> tuple[GameTree, ReductionTrace]:
    """Reduce a tree to its normal form; the input is never written.

    The rewrites apply in the canonical order, bottom-up, to fresh copies
    of the input's nodes (`_normal_form`).  A shared input arena, such as a
    built one, is not unfolded: each distinct subtree is normalized once, so
    trace node ids name the input's arena nodes.  The normal form is a
    shared arena like a built tree, holding each distinct finished subtree
    once; exports, counts and witnesses unfold it on demand.  `compact`
    keeps its reachable nodes and numbers them as `unfold` would, so an
    unshared form has exactly the arrays of its unfolding.  `consume` is
    accepted for callers that pass it and has no effect.
    """
    trace = ReductionTrace()
    return compact(_normal_form(tree, trace)), trace
