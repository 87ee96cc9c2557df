"""Canonical subtree keys: hash-based canonical forms for game trees.

Two subtrees get equal keys exactly when they are equivalent up to
relabeling under the chosen pin regime.  Keys are computed bottom-up:

- terminal nodes encode their outcome (literal when outcomes are pinned,
  otherwise a canonical outcome number),
- chance nodes encode the sorted multiset of (exact probability, child key),
- state nodes encode a canonical form of their decision matrix with edges
  colored by child keys, quotiented by per-player choice relabeling.

Label classes that may be freely renamed (players, outcomes when unpinned)
are handled by enumerating candidate numberings and taking the minimum root
key over the orbit.  Candidates are pruned by cheap renaming-invariant
signatures (per-label multisets of depth/size statistics), so the orbit is
tiny in practice.  Keys are 128-bit blake2b digests; collisions are
cryptographically negligible and key/witness agreement is property-tested
against a definition-faithful search.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from hashlib import blake2b
from typing import Callable, NamedTuple, Optional

from .errors import LabelingLimitError
from .tree import CHANCE, GameTree, STATE, TERMINAL, choice_rank, decoded_label

Pin = frozenset
PIN_NONE: Pin = frozenset()
PIN_SYMMETRY: Pin = frozenset({"players", "outcomes"})


def _digest(data: bytes) -> bytes:
    return blake2b(data, digest_size=16).digest()


@dataclass(frozen=True)
class CanonicalKey:
    """Canonical form of a tree (or forest): equal keys == equivalent trees."""

    digest: bytes
    pinned: Pin

    def hex(self) -> str:
        return self.digest.hex()


# ---------------------------------------------------------------------------
# Per-node matrix facts (cached on the tree under the node's edge labels)
# ---------------------------------------------------------------------------


class NodeMeta(NamedTuple):
    """What a state node's out-edge labels spell, per player and per edge."""

    choices: tuple[frozenset, ...]  # per player: the node's choice set
    sizes: tuple[int, ...]  # per player: len(choices[i])
    counts: tuple[int, ...]  # per edge: joint choices mapped onto it
    active: int  # players with more than one choice
    decoded: tuple[tuple, ...]  # per edge: its (sequence, joint) pairs


def _node_meta(tree: GameTree, node: int) -> NodeMeta:
    """The node's matrix facts, cached under its tuple of edge labels.

    Labels are immutable values, so no rewrite can make an entry stale;
    nodes with equal labels (equal matrices) share one entry.
    """
    labels = tuple([tree.edge_label[e] for e in tree.node_children[node]])
    meta = tree.label_cache.get(labels)
    if meta is None:
        decoded = tuple([decoded_label(tree, label) for label in labels])
        choices = tuple(
            frozenset([joint[i] for pairs in decoded for _, joint in pairs])
            for i in range(len(tree.players))
        )
        sizes = tuple([len(c) for c in choices])
        meta = tree.label_cache[labels] = NodeMeta(
            choices, sizes, tuple([len(pairs) for pairs in decoded]),
            sum(1 for s in sizes if s > 1), decoded,
        )
    return meta


def node_player_sizes(tree: GameTree, node: int) -> tuple[int, ...]:
    """Per-player choice-set sizes at a state node (by player index)."""
    return _node_meta(tree, node).sizes


# ---------------------------------------------------------------------------
# Canonical matrix fingerprints
# ---------------------------------------------------------------------------


def _matrix_fingerprint_general(
    cells: list[tuple],
    choice_lists: list[list],
    edge_ids: list[int],
    cols: dict[int, bytes],
) -> tuple[bytes, list[list], list[int]]:
    """Canonical form of a multi-player matrix by refinement + branching.

    cells: (choice-index tuple, edge position) pairs covering the product.
    Returns (fingerprint, per-axis choice order, edge order) realizing it.
    """
    n_axes = len(choice_lists)
    n_edges = len(edge_ids)
    edge_cols = [cols[e] for e in edge_ids]

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
        axis_orders = []
        for a in range(n_axes):
            perm = sorted(range(len(choice_lists[a])), key=lambda i: choice_class[a][i])
            axis_orders.append(perm)
        inv = [
            {old: new for new, old in enumerate(perm)} for perm in axis_orders
        ]
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
        return enc, axis_orders, edge_perm

    col_rank = {c: i for i, c in enumerate(sorted(set(edge_cols)))}
    enc, axis_orders, edge_perm = solve(
        [[0] * len(c) for c in choice_lists],
        [col_rank[c] for c in edge_cols],
    )
    ordered_choices = [
        [choice_lists[a][i] for i in axis_orders[a]] for a in range(len(choice_lists))
    ]
    ordered_edges = [edge_ids[epos] for epos in edge_perm]
    return enc, ordered_choices, ordered_edges


def matrix_structure(tree: GameTree, node: int, axis_order: list[int]):
    """Cells and per-axis choice lists of the node's matrix, in axis order."""
    edges = tree.node_children[node]
    joints = [
        (joint, e)
        for e, pairs in zip(edges, _node_meta(tree, node).decoded)
        for _, joint in pairs
    ]
    per_axis: list[dict] = [{} for _ in axis_order]
    for joint, _ in joints:
        for pos, player_idx in enumerate(axis_order):
            per_axis[pos].setdefault(joint[player_idx])
    choice_lists = [list(d) for d in per_axis]
    index = [{c: i for i, c in enumerate(lst)} for lst in choice_lists]
    edge_ids = list(dict.fromkeys(e for _, e in joints))
    edge_pos = {e: i for i, e in enumerate(edge_ids)}
    cells = [
        (
            tuple(index[pos][joint[player_idx]] for pos, player_idx in enumerate(axis_order)),
            edge_pos[e],
        )
        for joint, e in joints
    ]
    return cells, choice_lists, edge_ids


def canonical_matrix(
    tree: GameTree, node: int, axis_order: list[int], cols: dict[int, bytes]
) -> tuple[bytes, list[list], list[int]]:
    """Canonical matrix fingerprint plus the orders realizing it.

    Returns (fingerprint, per-axis canonical choice order, canonical edge
    order).  Axis order is the global player order of the current numbering.
    """
    cells, choice_lists, edge_ids = matrix_structure(tree, node, axis_order)
    sizes = tuple(len(c) for c in choice_lists)
    active = [a for a, s in enumerate(sizes) if s > 1]
    if len(active) <= 1:
        # Single-player structure: the matrix is determined by how many of
        # the active player's choices land on each edge color.
        per_edge: dict[int, int] = {}
        for _, epos in cells:
            per_edge[epos] = per_edge.get(epos, 0) + 1
        order = sorted(per_edge, key=lambda epos: (cols[edge_ids[epos]], per_edge[epos]))
        enc = repr(
            (sizes, tuple((cols[edge_ids[epos]], per_edge[epos]) for epos in order))
        ).encode()
        if active:
            a = active[0]
            epos_rank = {epos: i for i, epos in enumerate(order)}
            cellmap = {idx[a]: epos for idx, epos in cells}
            perm = sorted(
                range(len(choice_lists[a])),
                key=lambda i: (epos_rank[cellmap[i]], choice_rank(choice_lists[a][i])),
            )
            axis_orders = [
                [choice_lists[b][i] for i in (perm if b == a else range(len(choice_lists[b])))]
                for b in range(len(choice_lists))
            ]
        else:
            axis_orders = [list(c) for c in choice_lists]
        return enc, axis_orders, [edge_ids[epos] for epos in order]
    return _matrix_fingerprint_general(cells, choice_lists, edge_ids, cols)


# ---------------------------------------------------------------------------
# Subtree keys
# ---------------------------------------------------------------------------


def literal_player_codes(players) -> dict[str, bytes]:
    return {p: b"P:" + p.encode() for p in players}


def literal_outcome_codes(outcomes) -> dict[str, bytes]:
    return {o: b"O:" + o.encode() for o in outcomes}


def _postorder(tree: GameTree, node: int, done=()) -> list[int]:
    """Children-first order of the subtree at `node`, last child first.

    Nodes in `done` (a memo) are left out and not descended into.  On a
    DAG a shared node not in `done` appears once per path to it.
    """
    order: list[int] = []
    stack: list[tuple[int, bool]] = [(node, False)]
    while stack:
        n, processed = stack.pop()
        if processed:
            order.append(n)
            continue
        stack.append((n, True))
        for e in tree.node_children[n]:
            child = tree.edge_dst[e]
            if child not in done:
                stack.append((child, False))
    return order


def make_key_fn(
    tree: GameTree,
    pin: Pin = PIN_SYMMETRY,
    player_code: Optional[dict[str, bytes]] = None,
    outcome_code: Optional[dict[str, bytes]] = None,
) -> Callable[[int], bytes]:
    """A memoized per-node key function bound to one labeling assignment.

    Children's keys must be available (computed on demand) before a node's
    key; suitable for incremental bottom-up use during normalization.
    Outcomes absent from `outcome_code` get literal codes (normalization
    only ever compares siblings inside one tree, where that is sound).
    """
    if player_code is None:
        if "players" not in pin:
            raise ValueError("unpinned players need an explicit numbering")
        player_code = literal_player_codes(tree.players)
    if outcome_code is None and "outcomes" not in pin:
        raise ValueError("unpinned outcomes need an explicit numbering")
    pin_states = "states" in pin
    axis_order = sorted(range(len(tree.players)), key=lambda i: player_code[tree.players[i]])
    axis_header = b",".join(player_code[tree.players[i]] for i in axis_order) + b";"
    memo: dict[int, bytes] = {}
    node_kind = tree.node_kind
    node_outcome = tree.node_outcome
    node_state = tree.node_state
    node_children = tree.node_children
    edge_dst = tree.edge_dst
    edge_prob = tree.edge_prob

    def out_code(outcome: str) -> bytes:
        if outcome_code is None:
            return b"O:" + outcome.encode()
        code = outcome_code.get(outcome)
        return code if code is not None else b"O:" + outcome.encode()

    def key(node: int) -> bytes:
        cached = memo.get(node)
        if cached is not None:
            return cached
        _fill_keys(
            tree,
            (n for n in _postorder(tree, node, memo) if n not in memo),
            memo,
            axis_order,
            axis_header,
            pin_states,
            out_code,
        )
        return memo[node]

    return key


def _fill_keys(
    tree: GameTree,
    order,
    memo: dict[int, bytes],
    axis_order: list[int],
    axis_header: bytes,
    pin_states: bool,
    out_code,
) -> None:
    """Compute keys for `order` (children-first) into `memo`; the hot loop."""
    node_kind = tree.node_kind
    node_outcome = tree.node_outcome
    node_state = tree.node_state
    node_children = tree.node_children
    edge_dst = tree.edge_dst
    edge_prob = tree.edge_prob
    prob_bytes: dict = {}
    digest = _digest
    meta_of = _node_meta
    for n in order:
        kind = node_kind[n]
        if kind == STATE:
            edges = node_children[n]
            _, sizes, counts, active, _ = meta_of(tree, n)
            if active <= 1:
                # Single-active-player matrix: fully described by sizes plus
                # the multiset of (child key, choices onto the child's edge).
                parts = [
                    memo[edge_dst[e]] + b"#%d;" % c for e, c in zip(edges, counts)
                ]
                parts.sort()
                enc = (
                    b"S"
                    + axis_header
                    + repr([sizes[i] for i in axis_order]).encode()
                    + b"".join(parts)
                )
            else:
                cols = {e: memo[edge_dst[e]] for e in edges}
                fingerprint, _, _ = canonical_matrix(tree, n, axis_order, cols)
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
                parts.append(pb + memo[edge_dst[e]])
            parts.sort()
            enc = b"C" + b"|".join(parts)
        else:
            enc = b"U"
            if pin_states:
                enc += repr(node_state[n]).encode()
        memo[n] = digest(enc)


def ordered_edges(
    tree: GameTree, node: int, axis_order: list[int], keys: dict[int, bytes]
) -> tuple[bytes, list[int]]:
    """Matrix encoding plus a canonical edge order (for witness pairing).

    Two corresponding state nodes get equal encodings and positionally
    corresponding edge orders exactly when their matrices match under the
    current labeling assignment.
    """
    edges = tree.node_children[node]
    _, sizes, counts, active, _ = _node_meta(tree, node)
    if active <= 1:
        pairs = sorted(
            (keys[tree.edge_dst[e]] + b"#%d;" % c, e) for e, c in zip(edges, counts)
        )
        enc = repr([sizes[i] for i in axis_order]).encode() + b"".join(
            part for part, _ in pairs
        )
        return enc, [e for _, e in pairs]
    cols = {e: keys[tree.edge_dst[e]] for e in edges}
    fingerprint, _, edge_order = canonical_matrix(tree, node, axis_order, cols)
    return b"G" + fingerprint, edge_order


def subtree_keys(
    tree: GameTree,
    pin_players: bool = True,
    pin_outcomes: bool = True,
    pin_states: bool = False,
    player_code: Optional[dict[str, bytes]] = None,
    outcome_code: Optional[dict[str, bytes]] = None,
) -> dict[int, bytes]:
    """Keys for every live node under one labeling assignment."""
    pin = set()
    if pin_players:
        pin.add("players")
    if pin_outcomes:
        pin.add("outcomes")
    if pin_states:
        pin.add("states")
    fn = make_key_fn(tree, frozenset(pin), player_code, outcome_code)
    return {n: fn(n) for n in tree.iter_nodes()}


# ---------------------------------------------------------------------------
# Candidate labeling assignments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Assignment:
    player_code: tuple[tuple[str, bytes], ...]
    outcome_code: tuple[tuple[str, bytes], ...]

    def players(self) -> dict[str, bytes]:
        return dict(self.player_code)

    def outcomes(self) -> dict[str, bytes]:
        return dict(self.outcome_code)


def _signature_groups(signatures: dict[str, bytes]) -> list[list[str]]:
    """Items grouped by equal signature, groups in signature order."""
    groups: dict[bytes, list[str]] = {}
    for item, sig in sorted(signatures.items()):
        groups.setdefault(sig, []).append(item)
    return [groups[sig] for sig in sorted(groups)]


def _numbering_count(signatures: dict[str, bytes]) -> int:
    count = 1
    for group in _signature_groups(signatures):
        count *= math.factorial(len(group))
    return count


def _grouped_numberings(signatures: dict[str, bytes]) -> list[dict[str, bytes]]:
    """All canonical numberings: items sorted by signature, permuting ties."""
    ordered_groups = _signature_groups(signatures)
    per_group_perms = [list(itertools.permutations(g)) for g in ordered_groups]
    numberings = []
    for combo in itertools.product(*per_group_perms):
        flat = [item for group in combo for item in group]
        numberings.append({item: b"#%d" % i for i, item in enumerate(flat)})
    return numberings


def _forest_signatures(forest: list[GameTree]):
    """Renaming-invariant per-player and per-outcome statistics."""
    players = forest[0].players
    player_sig: dict[str, Counter] = {p: Counter() for p in players}
    outcome_sig: dict[str, Counter] = {}
    for tree in forest:
        depth = {tree.root: 0}
        for n in tree.iter_nodes():
            d = depth[n]
            for e in tree.node_children[n]:
                depth[tree.edge_dst[e]] = d + 1
            kind = tree.node_kind[n]
            if kind == TERMINAL:
                outcome_sig.setdefault(tree.node_outcome[n], Counter())[d] += 1
            elif kind == STATE:
                sizes = node_player_sizes(tree, n)
                for i, p in enumerate(players):
                    player_sig[p][(d, sizes[i])] += 1
    p_sigs = {p: repr(sorted(c.items())).encode() for p, c in player_sig.items()}
    o_sigs = {o: repr(sorted(c.items())).encode() for o, c in outcome_sig.items()}
    return p_sigs, o_sigs


def _cached_signatures(forest: list[GameTree], cache: Optional[dict]):
    if cache is None:
        return _forest_signatures(forest)
    if "signatures" not in cache:
        cache["signatures"] = _forest_signatures(forest)
    return cache["signatures"]


def forest_profile(forest: list[GameTree], pin: Pin, cache: Optional[dict] = None) -> tuple:
    """A cheap renaming-invariant fingerprint used to reject comparisons early.

    Equivalent forests (under the pin regime) always have equal profiles;
    unequal profiles prove inequivalence without any canonicalization.
    `cache`, a dict the caller keeps for this one forest, carries the
    per-label signatures over to `assignments_for`, so one comparison walks
    the forest for them once.
    """
    kind_counts = Counter()
    prob_counts: Counter = Counter()
    for tree in forest:
        for n in tree.iter_nodes():
            kind_counts[tree.node_kind[n]] += 1
            if tree.node_kind[n] == CHANCE:
                for e in tree.node_children[n]:
                    prob_counts[tree.edge_prob[e]] += 1
    p_sigs, o_sigs = _cached_signatures(forest, cache)
    if "players" in pin:
        player_part = tuple(sorted(p_sigs.items()))
    else:
        player_part = tuple(sorted(p_sigs.values()))
    if "outcomes" in pin:
        outcome_part = tuple(sorted(o_sigs.items()))
    else:
        outcome_part = tuple(sorted(o_sigs.values()))
    return (
        len(forest),
        tuple(sorted(kind_counts.items())),
        tuple(sorted(prob_counts.items())),
        player_part,
        outcome_part,
    )


MAX_ASSIGNMENTS = 20000


def assignments_for(
    forest: list[GameTree], pin: Pin, cache: Optional[dict] = None
) -> list[Assignment]:
    """Candidate (player, outcome) numberings compatible with the signatures.

    Raises `LabelingLimitError` when there are more than MAX_ASSIGNMENTS of
    them; `cache` is as in `forest_profile`.
    """
    players = forest[0].players
    p_sigs, o_sigs = _cached_signatures(forest, cache)
    p_count = 1 if "players" in pin else _numbering_count(p_sigs)
    o_count = 1 if "outcomes" in pin else _numbering_count(o_sigs)
    if p_count * o_count > MAX_ASSIGNMENTS:
        raise LabelingLimitError(
            "too many symmetric labelings to canonicalize "
            f"({p_count} x {o_count}, limit {MAX_ASSIGNMENTS})"
        )
    if "players" in pin:
        player_codes = [literal_player_codes(players)]
    else:
        player_codes = _grouped_numberings(p_sigs)
    if "outcomes" in pin:
        outcome_codes = [literal_outcome_codes(o_sigs)]
    else:
        outcome_codes = _grouped_numberings(o_sigs)
    return [
        Assignment(tuple(sorted(pc.items())), tuple(sorted(oc.items())))
        for pc in player_codes
        for oc in outcome_codes
    ]


def best_assignment(forest: list[GameTree], pin: Pin) -> tuple[bytes, Assignment]:
    """The canonical (minimum) forest key and the assignment achieving it."""
    digest, assignment, _ = best_assignment_with_keys(forest, pin, keep_keys=False)
    return digest, assignment


def best_assignment_with_keys(
    forest: list[GameTree], pin: Pin, keep_keys: bool = True, cache: Optional[dict] = None
) -> tuple[bytes, Assignment, Optional[list[dict[int, bytes]]]]:
    """Like `best_assignment`, optionally keeping the argmin per-node keys.

    `cache` is as in `forest_profile`.
    """
    orders = [_postorder(tree, tree.root) for tree in forest]
    best: Optional[tuple[bytes, Assignment, Optional[list]]] = None
    for assignment in assignments_for(forest, pin, cache):
        pcodes = assignment.players()
        ocodes = assignment.outcomes()
        key_dicts = []
        root_keys = []
        for tree, order in zip(forest, orders):
            players = tree.players
            axis_order = sorted(range(len(players)), key=lambda i: pcodes[players[i]])
            axis_header = b",".join(pcodes[players[i]] for i in axis_order) + b";"
            memo: dict[int, bytes] = {}
            _fill_keys(
                tree, order, memo, axis_order, axis_header,
                "states" in pin,
                lambda o: ocodes.get(o, b"O:" + o.encode()),
            )
            if keep_keys:
                key_dicts.append(memo)
            root_keys.append(memo[tree.root])
        combined = _digest(b"F%d|" % len(root_keys) + b"|".join(sorted(root_keys)))
        if best is None or combined < best[0]:
            best = (combined, assignment, key_dicts if keep_keys else None)
    assert best is not None
    return best


def canonical_form(tree_or_forest, pin: Pin = PIN_NONE) -> CanonicalKey:
    """Canonical key of a tree or forest; equal keys == equivalent."""
    forest = tree_or_forest if isinstance(tree_or_forest, list) else [tree_or_forest]
    digest, _ = best_assignment(forest, pin)
    return CanonicalKey(digest, pin)
