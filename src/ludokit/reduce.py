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
normal, so sibling-subtree comparisons can use cached canonical keys.

The local loop is a worklist.  The first round runs all four checks; after
that a check reruns only when a rewrite that fired could enable it, in the
same round if it comes later in the order, else in the next:

| rewrite that fired | rewrites to rerun |
| --- | --- |
| matrix redundancy (it reaches its own fixpoint) | none |
| symmetry merge | matrix redundancy (a no-op after a one-chooser merge) and single-player; `_absorb_children_once`'s collision check reads sibling labels |
| splice or absorb | all four |

Matrix redundancy only rewrites the node's labels: bookkeeping and
symmetry read its children, which stay the same, and it is pending only
together with single-player, which runs after it.  A symmetry merge
unions one edge's label into another's and drops a child, so it enables
no splice and leaves no two children of equal keys.  A check that is
skipped could not have fired, so the steps and the normal form are those
of rerunning every check until none fires.

Matrix redundancy looks nothing up where every edge carries one joint
choice, as it cannot fire there.  Where, besides, one player chooses,
it would prune a merged edge's union back to the first-ranked of its
choices (`_first_ranked`), so a merge there keeps only that choice and
builds no union.  The matrix-redundancy step is recorded after the
round's merges, where the next round would have recorded it, with its
change read from the `node_meta` of the merged labels; every edge then
still carries one joint choice.  Children are keyed on demand, each
finished node at most once.

The pass only reads its input, which may be a shared arena (a built
tree): it builds the normal form into a fresh hash-consed arena,
normalizing each distinct subtree once, and returns that arena's
reachable part, still shared.  Like a built tree, the form stands for
its unfolding: exports, node counts and witnesses unfold it on demand.
This pass is the package's one rewriting engine; each helper below reads
or rewrites one node's out-edges for it.  Per-node matrix facts (choice
sets, their total size, the one player who chooses) come from
`tree.node_meta`, which caches them under the node's edge labels, so
rewrites need no cache invalidation.

Sites that touch truncated frontier nodes are skipped, so depth-limited
partial trees normalize deterministically without inventing semantics for
the unexplored region.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, NamedTuple, Optional

from . import canon
from .core import typed_record
from .errors import BudgetExceededError, TreeInvariantError
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


@typed_record
class TraceStep(NamedTuple):
    kind: str
    root: int
    nodes_before: int
    nodes_after: int
    choices_before: int
    choices_after: int


class ReductionTrace:
    """The steps of one normalization, from the measure it started at.

    Each step is kept as (kind, root, node change, choice change), and a
    repeat of earlier steps as the span (lo, hi) of their positions;
    `length` counts the steps, repeats included.  `steps` spells them out
    as `TraceStep`s, measures included, on first access, in one forward
    pass: a span points backward, at steps already spelled.
    """

    def __init__(self, start: tuple[int, int] = (0, 0)) -> None:
        self.start = start
        self.length = 0
        self._log: list[tuple] = []  # steps and spans, in order
        self._spelled = 0  # entries of `_log` already in `_steps`
        self._steps: list[TraceStep] = []

    def record(self, kind: str, root: int, dn: int, dc: int) -> None:
        """Add a step that changes the measure by (dn, dc); it must decrease it."""
        if (dn, dc) >= (0, 0):
            raise AssertionError(
                f"{kind} at node {root} did not decrease the measure: changed it by ({dn}, {dc})"
            )
        self._log.append((kind, root, dn, dc))
        self.length += 1

    def replay(self, lo: int, hi: int) -> None:
        """Repeat the steps at positions lo:hi, which `record` has checked."""
        if lo < hi:
            self._log.append((lo, hi))
            self.length += hi - lo

    @property
    def steps(self) -> list[TraceStep]:
        steps = self._steps
        log = self._log
        if self._spelled < len(log):
            if steps:
                nodes, choices = steps[-1].nodes_after, steps[-1].choices_after
            else:
                nodes, choices = self.start
            for entry in log[self._spelled:]:
                if len(entry) == 2:
                    deltas = [
                        (s.kind, s.root, s.nodes_after - s.nodes_before,
                         s.choices_after - s.choices_before)
                        for s in steps[entry[0]:entry[1]]
                    ]
                else:
                    deltas = [entry]
                for kind, root, dn, dc in deltas:
                    steps.append(TraceStep(kind, root, nodes, nodes + dn, choices, choices + dc))
                    nodes += dn
                    choices += dc
            self._spelled = len(log)
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
# Matrix redundancy
# ---------------------------------------------------------------------------


def _first_ranked(pairs: Iterable[tuple], i: int) -> tuple:
    """The (sequence, joint choice) pair whose choice of player i ranks
    first by `choice_rank`: of the choices of a matrix's one chooser that
    share an edge, the one matrix redundancy keeps."""
    return min(pairs, key=lambda pair: choice_rank(pair[1][i]))


def _pruned_labels(meta: NodeMeta) -> Optional[tuple[frozenset, ...]]:
    """Per-edge labels once every redundant choice is deleted, or None.

    A choice of one player is redundant when another of that player's
    choices leads to the same edge against every joint choice of the
    others; of such a group the first by `choice_rank` survives.  Deleting
    repeats until no choice is redundant.  A pure function of the labels.
    When one player has more than one choice, the others have one joint
    choice, so that player's choices are redundant exactly when they share
    an edge: each edge keeps its first, and nothing is left to delete.
    """
    if meta.active == 1:
        i = meta.sizes.index(max(meta.sizes))  # the player who chooses
        kept = [_first_ranked(pairs, i)[0] for pairs in meta.decoded]
        if len(kept) == sum(meta.counts):
            return None
        return tuple([frozenset([seq]) for seq in kept])
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


def _absorbable(tree: GameTree, owner: int, child: int) -> bool:
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
        if not _absorbable(tree, owner, w):
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


def _merge_pair(
    tree: GameTree, parent: int, victim_edge: int, survivor_edge: int,
    chooser: Optional[int] = None,
) -> int:
    """Merge victim subtree onto survivor; returns the node that now stands
    for `parent`: the survivor's child when the merged probability reached 1
    and the chance node drops out, else `parent` itself.

    A decision edge takes the union of the two labels.  Given the
    `chooser` of a one-chooser matrix whose every edge carries one joint
    choice, it takes the label of the two whose choice ranks first
    instead: what matrix redundancy would prune that union back to."""
    tree.node_children[parent].remove(victim_edge)
    if tree.edge_kind[victim_edge] == DECISION_EDGE:
        labels, pairs = tree.edge_label, tree.label_cache  # `node_meta` cached the pairs
        survivor, victim = labels[survivor_edge], labels[victim_edge]
        if chooser is None:
            labels[survivor_edge] = survivor | victim
        elif _first_ranked(pairs[survivor] + pairs[victim], chooser)[0] in victim:
            labels[survivor_edge] = victim
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

MATRIX_REDUNDANCY, BOOKKEEPING, SINGLE_PLAYER, SYMMETRY = 1, 2, 4, 8
ALL_REWRITES = MATRIX_REDUNDANCY | BOOKKEEPING | SINGLE_PLAYER | SYMMETRY
# What a symmetry merge can enable: it changes the merged edge's label
ENABLED_BY_SYMMETRY = MATRIX_REDUNDANCY | SINGLE_PLAYER


class Normalizer(NamedTuple):
    """What `normalizer` returns: the output arena, the trace, the key memo
    of finished nodes and the function from an input node to its form."""

    out: GameTree
    trace: ReductionTrace
    key_fn: Callable[[int], bytes]
    form: Callable[[int], int]


def normalizer(tree: GameTree, trace: Optional[ReductionTrace] = None) -> Normalizer:
    """Normal forms of any number of roots of one input arena, built into
    one output arena `out`; the input is only read.

    `nf(v)` is memoized on v's kind, state and outcome and each out-edge's
    kind, label, probability and `nf(child)`, the unique-table scheme of
    hash-consing.  A new key copies v into the output arena with edges to
    its children's finished forms, and the canonical-order loop rewrites
    that copy's out-edges only.  The loop reads nothing but the key's
    fields, so equal keys have equal normal forms on imported, reduced and
    depth-limited trees alike.  A finished node never changes again, so any
    number of parents can share it, nothing needs a parent, and its facts
    are computed once.  Each input node is visited once, after its
    children, whichever root reaches it first: the output arena, the unique
    table, the map of done input nodes and the facts of finished nodes are
    kept across roots, as a BDD package keeps one unique table for many
    functions.  `key_fn` is the literal-code key memo (players and outcomes
    pinned) of the finished nodes, which the symmetry rewrite groups
    siblings by.

    `form(v)` returns the output node of input node v's normal form.  The
    trace records the steps of every root in the order they ran.  A
    repeated input node replays the trace steps of its whole subtree and a
    repeated key the steps of its own loop, so the trace of one root is
    that of its unfolded tree, and a step's `root` names the first input
    node copied into the node it rewrote.  The output's measure is known
    from the finished nodes, so `form(v)` sets the trace to start at v's
    measure minus the running total of the steps' changes: after one root,
    the trace is that root's.
    """
    if trace is None:
        trace = ReductionTrace()
    out = GameTree(tree.players)
    out.label_cache = tree.label_cache
    key_fn = canon.make_key_fn(out, canon.PIN_SYMMETRY)
    origin: list[int] = []  # per output node, the input node it copies
    # per finished output node: (node count, choice count, has a truncated
    # node, its own choice total, the owner single-player may absorb it
    # into, the node bookkeeping splices it to or -1)
    facts: dict[int, tuple[int, int, bool, int, Optional[int], int]] = {}
    node_kind, node_children = out.node_kind, out.node_children
    edge_dst, edge_prob = out.edge_dst, out.edge_prob
    total = [0, 0]  # the changes of the steps in `trace`, summed

    def record(kind: str, node: int, dn: int, dc: int) -> None:
        trace.record(kind, origin[node], dn, dc)
        total[0] += dn
        total[1] += dc

    def replay(lo: int, hi: int, dn: int, dc: int) -> None:
        trace.replay(lo, hi)
        total[0] += dn
        total[1] += dc

    def splice_target(w: int) -> int:
        """Bookkeeping, pairwise: the node a parent's edge into the finished
        node w is redirected to, or -1 when w is not a forced state node or
        the site's leaves include a truncated node."""
        if not _is_forced(out, w):
            return -1
        x = edge_dst[node_children[w][0]]
        x_kind = node_kind[x]
        if x_kind == TRUNCATED or x_kind == CHANCE and any(
            node_kind[edge_dst[e]] == TRUNCATED for e in node_children[x]
        ):
            return -1
        return x

    def splice(v: int, e_vw: int, x: int) -> None:
        """Splice out the forced child w that v's edge e_vw leads to, whose
        splice target is x."""
        w = edge_dst[e_vw]
        w_choices = facts[w][3]
        if node_kind[x] == CHANCE and node_kind[v] == CHANCE:
            # fold x's edges into v, scaled by the edge into w
            p_r = edge_prob[e_vw]
            node_children[v].remove(e_vw)
            for e in node_children[x]:
                out.add_edge(v, edge_dst[e], CHANCE_EDGE, prob=p_r * edge_prob[e])
            record("bookkeeping", w, -2, -w_choices)
        else:
            edge_dst[e_vw] = x
            record("bookkeeping", w, -1, -w_choices)

    def process(v: int) -> tuple[int, Optional[NodeMeta]]:
        """Normalize the copy v, a state or chance node whose children are
        finished; returns the node that stands for it and, when that is v,
        v's `node_meta` if the loop holds it current.  Each round runs the
        pending rewrites in the canonical order (see the module docstring)."""
        is_state = node_kind[v] == STATE
        children = node_children[v]
        applicable = ALL_REWRITES if is_state else BOOKKEEPING | SYMMETRY
        pending = applicable
        meta = None  # `node_meta` of v's labels as they are now, once read
        while pending:
            if pending & MATRIX_REDUNDANCY:
                pending &= ~MATRIX_REDUNDANCY
                if meta is None:
                    meta = node_meta(out, v)
                # Where every edge carries one joint choice, two choices of
                # a player meet the same joint choice of the others on
                # different edges, so none is redundant.
                if sum(meta.counts) > len(meta.counts) and _matrix_redundancy_at(out, v):
                    after = node_meta(out, v)
                    record("matrix-redundancy", v, 0, after.total - meta.total)
                    meta = after
            if pending & BOOKKEEPING:
                pending &= ~BOOKKEEPING
                # a splice rewrites or removes only its own edge
                for e in list(children):
                    x = facts[edge_dst[e]][5]
                    if x >= 0:
                        splice(v, e, x)
                        pending = applicable
            if pending & SINGLE_PLAYER:
                pending &= ~SINGLE_PLAYER
                if meta is None:
                    meta = node_meta(out, v)
                # A site roots at v when one player owns v's choices, no
                # child is truncated (a site leaf would be one) and a child
                # is absorbable.
                owner = meta.owner
                if (
                    owner is not None
                    and any([facts[edge_dst[e]][4] == owner for e in children])
                    and not any([node_kind[edge_dst[e]] == TRUNCATED for e in children])
                ):
                    absorbed = _absorb_children_once(out, v, owner)
                    if absorbed:
                        after = node_meta(out, v)
                        dc = after.total - meta.total - sum(facts[w][3] for w in absorbed)
                        record("single-player", v, -len(absorbed), dc)
                        meta = after
                        pending = applicable
            if pending & SYMMETRY:
                pending &= ~SYMMETRY
                # merges among the (finished, so stable-keyed) children
                groups: dict[bytes, list[int]] = {}
                for e in children:
                    dst = edge_dst[e]
                    if not facts[dst][2]:
                        groups.setdefault(key_fn(dst), []).append(e)
                # One chooser and one joint choice per edge: a merge keeps
                # what matrix redundancy would keep of the union, and its
                # step is recorded after the merges (see the module docstring)
                chooser = None
                if is_state and meta.active == 1 and sum(meta.counts) == len(meta.counts):
                    chooser = meta.sizes.index(max(meta.sizes))
                merged = False
                for edges in groups.values():
                    survivor = edges[0]
                    for victim in edges[1:]:
                        nodes, choices = facts[edge_dst[victim]][:2]
                        stand = _merge_pair(out, v, victim, survivor, chooser)
                        record("symmetry", v, -nodes - (stand != v), -choices)
                        if stand != v:
                            return stand, None  # v itself was removed
                        merged = True
                if merged:
                    pending |= ENABLED_BY_SYMMETRY & applicable
                    if chooser is None:
                        meta = None
                    else:
                        after = node_meta(out, v)
                        record("matrix-redundancy", v, 0, after.total - meta.total)
                        meta = after
        return v, meta

    def finish(c: int, meta: Optional[NodeMeta]) -> None:
        """Record the facts of the finished node c, given its `node_meta`
        when the caller holds it."""
        nodes, choices, absorber = 1, 0, None
        kind = node_kind[c]
        edges = node_children[c]
        if kind == STATE:
            if meta is None:
                meta = node_meta(out, c)
            choices = meta.total
            if meta.owner is not None and all(
                [node_kind[edge_dst[e]] in (STATE, TERMINAL) for e in edges]
            ):
                absorber = meta.owner
        own = choices
        trunc = kind == TRUNCATED
        for e in edges:
            child_nodes, child_choices, child_trunc = facts[edge_dst[e]][:3]
            nodes += child_nodes
            choices += child_choices
            trunc = trunc or child_trunc
        facts[c] = (nodes, choices, trunc, own, absorber, splice_target(c))

    # Children first.  A stack entry is (input node, its first step, the
    # running totals there), the first step -1 while the node is yet to be
    # entered.
    # done: input node -> (its normal form, the steps of its subtree lo:hi,
    #   their changes summed), or () while the node is entered but not done:
    #   meeting it again then means it lies on a cycle
    # table: memo key -> (normal form, the steps of its own loop lo:hi,
    #   their changes summed)
    done: dict[int, tuple] = {}
    table: dict[tuple, tuple[int, int, int, int, int]] = {}
    add_node, add_edge = out.add_node, out.add_edge
    in_children, in_dst = tree.node_children, tree.edge_dst
    in_kind, in_label, in_prob = tree.edge_kind, tree.edge_label, tree.edge_prob

    def form(top: int) -> int:
        stack: list[tuple[int, int, int, int]] = [(top, -1, 0, 0)]
        while stack:
            v, lo, dn0, dc0 = stack.pop()
            if lo < 0:
                got = done.get(v)
                if got is None:
                    done[v] = ()
                    stack.append((v, trace.length, total[0], total[1]))
                    for e in in_children[v]:
                        stack.append((in_dst[e], -1, 0, 0))
                elif not got:
                    raise TreeInvariantError(f"node {v} lies on a cycle")
                else:
                    replay(*got[1:])
                continue
            edges = tuple([
                (in_kind[e], in_label[e], in_prob[e], done[in_dst[e]][0])
                for e in in_children[v]
            ])
            key = (tree.node_kind[v], tree.node_state[v], tree.node_outcome[v], edges)
            got = table.get(key)
            if got is None:
                c = add_node(key[0], key[1], key[2])
                origin.append(v)
                for kind, label, prob, child in edges:
                    add_edge(c, child, kind, prob, label)
                mark, dn, dc = trace.length, total[0], total[1]
                meta = None
                if key[0] in (STATE, CHANCE):
                    c, meta = process(c)
                if c not in facts:
                    finish(c, meta)
                got = table[key] = (c, mark, trace.length, total[0] - dn, total[1] - dc)
            else:
                replay(*got[1:])
            done[v] = (got[0], lo, trace.length, total[0] - dn0, total[1] - dc0)

        # Root-level bookkeeping (Case 1 with the root as the subtree
        # root): it moves the root down and rewrites no node.
        root = done[top][0]
        while _is_forced(out, root):
            x = edge_dst[node_children[root][0]]
            if node_kind[x] not in (STATE, TERMINAL):
                break
            record("bookkeeping", root, -1, -facts[root][3])
            root = x
        nodes, choices = facts[root][:2]
        trace.start = (nodes - total[0], choices - total[1])
        return root

    return Normalizer(out, trace, key_fn, form)


def _normal_form(tree: GameTree, trace: ReductionTrace) -> GameTree:
    """The normal form of `tree` as a fresh shared arena, its steps recorded
    in `trace`: `normalizer`'s one-root case."""
    norm = normalizer(tree, trace)
    norm.out.root = norm.form(tree.root)
    return norm.out


def normalize(tree: GameTree, consume: bool = False) -> tuple[GameTree, ReductionTrace]:
    """Reduce a tree to its normal form; the input is never written.

    The rewrites apply in the canonical order, bottom-up, to fresh copies
    of the input's nodes (`normalizer`, of which this is the one-root
    case).  A shared input arena, such as a built one, is not unfolded:
    each distinct subtree is normalized once, so trace node ids name the
    input's arena nodes.  The normal form is a
    shared arena like a built tree, holding each distinct finished subtree
    once; exports, counts and witnesses unfold it on demand.  `compact`
    keeps its reachable nodes and numbers them as `unfold` would, so an
    unshared form has exactly the columns of its unfolding.  `consume` is
    accepted for callers that pass it and has no effect.  Raises
    TreeInvariantError on a cycle, as `validate_tree` does.
    """
    trace = ReductionTrace()
    return compact(_normal_form(tree, trace)), trace
