"""Canonical subtree keys: hash-based canonical forms for game trees.

Two subtrees get equal keys exactly when they are equivalent up to
relabeling under the chosen pin regime.  Keys are computed bottom-up, once
per arena node: a node that a built tree shares among several parents is
keyed once, and its key is that of each of its copies in the unfolded tree.

- terminal nodes encode their outcome (literal when outcomes are pinned,
  otherwise a canonical outcome number),
- chance nodes encode the sorted multiset of (exact probability, child key),
- state nodes encode a canonical form of their decision matrix with edges
  colored by child keys, quotiented by per-player choice relabeling; the
  matrix is read from `tree.node_meta`, which decodes and checks each
  node's labels once per distinct tuple of labels.  Where two or more
  players choose, `_matrix_fingerprint_general` finds that form by
  refinement and branching on tied choices.  It skips a branch that an
  automorphism maps onto an explored one (the twin rule: two choices
  whose rows, the other coordinates -> edge, are equal), since its least
  encoding is the same and a tie keeps the first branch.

`_fill_keys` is the one node encoder.  With each key it records the node's
out-edges in the order its encoding lists them, so two nodes of equal keys
correspond child by child in those orders: the equivalence walk reads them
instead of deriving the pairing again.  Where two or more players choose,
the matrix memo keeps each axis's choices in the order of the encoding as
well, and the walk pairs choices of equal rank into the witness's choice
bijections.

Label classes that may be freely renamed (players, outcomes when unpinned)
are handled by enumerating candidate numberings and taking the minimum root
key over the orbit; deciding equivalence needs only one labeling of one side
(`equiv._keyed_alike`).  Candidates are pruned by cheap renaming-invariant
signatures (per-label multisets of depth/size statistics of the unfolded
tree, counted with each arena node's root paths), so the orbit is tiny in
practice.  Keys are 128-bit blake2b digests; collisions are
cryptographically negligible and key/witness agreement is property-tested
against a definition-faithful search.
"""

from __future__ import annotations

import itertools
import math
from hashlib import blake2b
from typing import Callable, NamedTuple, Optional

from .core import typed_record
from .errors import LabelingLimitError, TreeInvariantError
from .tree import CHANCE, GameTree, STATE, TERMINAL, choice_rank, node_meta, postorder

Pin = frozenset
PIN_NONE: Pin = frozenset()
PIN_SYMMETRY: Pin = frozenset({"players", "outcomes"})
PIN_ALL: Pin = frozenset({"players", "outcomes", "states"})


def _digest(data: bytes) -> bytes:
    return blake2b(data, digest_size=16).digest()


@typed_record
class CanonicalKey(NamedTuple):
    """Canonical form of a tree (or forest): equal keys == equivalent trees."""

    digest: bytes
    pinned: Pin

    def hex(self) -> str:
        return self.digest.hex()


# ---------------------------------------------------------------------------
# Canonical matrix fingerprints
# ---------------------------------------------------------------------------


def _matrix_fingerprint_general(
    cells: list[tuple], choice_lists: list[list], edge_cols: list[bytes]
) -> tuple[bytes, list[int], list[list[int]]]:
    """Canonical form of a multi-player matrix by refinement + branching.

    cells: (choice-index tuple, edge position) pairs covering the product;
    edge_cols: each edge position's color.  Returns (fingerprint, edge
    positions in the order realizing it, per axis each choice's rank in
    that order): of the leaves of the search, the first with the least
    encoding.  Two matrices of equal fingerprint correspond through their
    orders: rank r of axis k to rank r of axis k, and the i-th edge to the
    i-th edge.

    Branches that an automorphism maps onto an explored branch are skipped
    (the twin rule).  Two choices of one axis are twins when their rows
    (the other coordinates -> edge) are equal, so swapping them leaves every
    cell's edge unchanged.  A twin of an explored member of a tied class has
    an isomorphic subtree, hence the same least encoding, and a tie keeps
    the first branch.  When a whole tied class is one twin group, each of
    its members would be individualized in turn along a single path, and
    refinement splits nothing in between, so the class is made discrete in
    index order in one step.
    """
    n_axes = len(choice_lists)
    n_edges = len(edge_cols)
    sizes = [len(c) for c in choice_lists]
    # per edge: its cells; per axis and choice: its cells as (edge, the
    # other coordinates)
    by_edge: list[list[tuple]] = [[] for _ in range(n_edges)]
    by_choice = [[[] for _ in range(n)] for n in sizes]
    for idx, epos in cells:
        by_edge[epos].append(idx)
        for a in range(n_axes):
            by_choice[a][idx[a]].append((epos, idx[:a] + idx[a + 1 :]))
    # twin[a][i]: the first choice of axis a whose row (the other
    # coordinates -> edge) equals choice i's
    twin = []
    for rows in by_choice:
        first: dict = {}
        twin.append([
            first.setdefault(tuple(sorted([(other, epos) for epos, other in row])), i)
            for i, row in enumerate(rows)
        ])
    getitem = list.__getitem__

    def refine(choice_class: list[list[int]], edge_class: list[int]):
        """Refine to the fixpoint of the edge step and the axis steps, run in
        turn; stops once every step in a row has changed nothing.  A step
        whose classes are already 0..n-1 is skipped: it cannot change them."""
        parts = [edge_class, *choice_class]  # step k refines parts[k]
        discrete = [sorted(p) == list(range(len(p))) for p in parts]
        quiet = 0  # steps in a row that changed nothing
        k = 0
        while quiet <= n_axes:
            if not discrete[k]:
                if k == 0:
                    choices = parts[1:]
                    keyed = [
                        (c, tuple(sorted([tuple(map(getitem, choices, idx)) for idx in on_edge])))
                        for c, on_edge in zip(parts[0], by_edge)
                    ]
                else:
                    edges, others = parts[0], parts[1:k] + parts[k + 1 :]
                    keyed = [
                        (c, tuple(sorted([
                            (edges[epos], tuple(map(getitem, others, other)))
                            for epos, other in row
                        ])))
                        for c, row in zip(parts[k], by_choice[k - 1])
                    ]
                ordered = {sig: i for i, sig in enumerate(sorted(set(keyed)))}
                new_class = [ordered[sig] for sig in keyed]
                discrete[k] = len(ordered) == len(new_class)
                if new_class != parts[k]:
                    parts[k] = new_class
                    quiet = -1
            quiet += 1
            k = (k + 1) % (n_axes + 1)
        return parts[1:], parts[0]

    def solve(choice_class: list[list[int]], edge_class: list[int]):
        choice_class, edge_class = refine(choice_class, edge_class)
        for a in range(n_axes):
            classes = choice_class[a]  # numbered 0..k-1 by refine
            count = [0] * sizes[a]
            for c in classes:
                count[c] += 1
            target = next((c for c, k in enumerate(count) if k > 1), None)
            if target is not None:
                members = [i for i, c in enumerate(classes) if c == target]
                if len({twin[a][m] for m in members}) == 1:
                    # one twin group: the path individualizing its members in turn
                    step = {m: target + r for r, m in enumerate(members)}
                    shift = len(members) - 1
                    trial = list(choice_class)
                    trial[a] = [
                        step[i] if c == target else c + shift if c > target else c
                        for i, c in enumerate(classes)
                    ]
                    return solve(trial, edge_class)
                best = None
                explored = set()
                for m in members:
                    if twin[a][m] in explored:
                        continue
                    explored.add(twin[a][m])
                    trial = list(choice_class)
                    # individualize m below its class peers
                    trial[a] = [
                        c * 2 + (0 if i == m else 1) if c == target else c * 2
                        for i, c in enumerate(classes)
                    ]
                    result = solve(trial, edge_class)
                    if best is None or result[0] < best[0]:
                        best = result
                return best
        # discrete: each choice's class is its canonical index; read the
        # cells in that order, numbering edges by first occurrence
        flat = [0] * len(cells)
        for idx, epos in cells:
            pos = 0
            for a in range(n_axes):
                pos = pos * sizes[a] + choice_class[a][idx[a]]
            flat[pos] = epos
        edge_first: dict[int, int] = {}
        for epos in flat:
            edge_first.setdefault(epos, len(edge_first))
        edge_perm = list(edge_first)
        enc = repr(
            (
                tuple(sizes),
                tuple([edge_first[epos] for epos in flat]),
                tuple(edge_cols[epos] for epos in edge_perm),
            )
        ).encode()
        return enc, edge_perm, choice_class

    col_rank = {c: i for i, c in enumerate(sorted(set(edge_cols)))}
    return solve(
        [[0] * len(c) for c in choice_lists],
        [col_rank[c] for c in edge_cols],
    )


def matrix_structure(tree: GameTree, node: int, axis_order: list[int]):
    """Cells and per-axis choice lists of the node's matrix, in axis order.

    Each axis lists its choices in `choice_rank` order, so ties between
    automorphic choices break the same way in every process.
    """
    edges = tree.node_children[node]
    joints = [
        (joint, e)
        for e, pairs in zip(edges, node_meta(tree, node).decoded)
        for _, joint in pairs
    ]
    per_axis: list[set] = [set() for _ in axis_order]
    for joint, _ in joints:
        for pos, player_idx in enumerate(axis_order):
            per_axis[pos].add(joint[player_idx])
    choice_lists = [sorted(d, key=choice_rank) for d in per_axis]
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
) -> tuple[bytes, list[int], tuple[tuple, ...]]:
    """Canonical fingerprint of a state node's matrix with two or more
    active players, the edge order realizing it, and per axis the choices
    in the order realizing it.

    Axis order is the global player order of the current numbering; `cols`
    colors each out-edge by its child's key.  The solver's whole input
    derives from the node's edge labels, the axis order and the child keys
    in edge order, so the result is cached in `tree.label_cache` under
    those values, its edge order kept as positions in `node_children`:
    nodes, labelings and trees sharing the cache solve each matrix once.
    """
    edges = tree.node_children[node]
    memo_key = (
        "matrix",
        tuple([tree.edge_label[e] for e in edges]),
        tuple(axis_order),
        tuple([cols[e] for e in edges]),
    )
    found = tree.label_cache.get(memo_key)
    if found is None:
        cells, choice_lists, edge_ids = matrix_structure(tree, node, axis_order)
        enc, edge_perm, ranks = _matrix_fingerprint_general(
            cells, choice_lists, [cols[e] for e in edge_ids]
        )
        position = {e: i for i, e in enumerate(edges)}
        ordered = [tuple([c for _, c in sorted(zip(r, cs))]) for r, cs in zip(ranks, choice_lists)]
        found = tree.label_cache[memo_key] = (
            enc, tuple([position[edge_ids[p]] for p in edge_perm]), tuple(ordered)
        )
    return found[0], [edges[p] for p in found[1]], found[2]


# ---------------------------------------------------------------------------
# Subtree keys
# ---------------------------------------------------------------------------


def literal_player_codes(players) -> dict[str, bytes]:
    return {p: b"P:" + p.encode() for p in players}


def literal_outcome_codes(outcomes) -> dict[str, bytes]:
    return {o: b"O:" + o.encode() for o in outcomes}


def axes(players, player_code: dict[str, bytes]) -> list[int]:
    """Player indices by code: the axis order of a labeling's matrices."""
    return sorted(range(len(players)), key=lambda i: player_code[players[i]])


def _labeling(tree: GameTree, player_code: dict[str, bytes], outcome_code: dict[str, bytes]):
    """A labeling's axis order, axis header and outcome coder, and its tables
    of constants (terminal keys per outcome, single-chooser prefixes per
    `sizes`) that `_fill_keys` fills as it meets them; an outcome missing
    from `outcome_code` gets a literal code."""
    players = tree.players
    axis_order = axes(players, player_code)
    axis_header = b",".join(player_code[players[i]] for i in axis_order) + b";"

    def out_code(outcome: str) -> bytes:
        code = outcome_code.get(outcome)
        return code if code is not None else b"O:" + outcome.encode()

    return axis_order, axis_header, out_code, {}, {}


def make_key_fn(tree: GameTree, pin: Pin = PIN_SYMMETRY) -> Callable[[int], bytes]:
    """A memoized per-node key function under literal player and outcome codes.

    Each node is keyed at most once, when first asked for, straight from
    its children's keys: a miss keys the node's unkeyed descendants in one
    `_fill_keys` pass over their postorder.  The nodes keyed so far must not
    change, so normalization can key its finished nodes on demand.  Literal
    codes are sound only where labels are pinned, so `pin` must pin players
    and outcomes.  The codes are the tree's own names, so two key functions
    agree on equivalent nodes of two trees that name their labels alike: an
    arena built in another game's names (`tree.ArenaBuilder`) is keyed in
    that game's codes.
    """
    if "players" not in pin or "outcomes" not in pin:
        raise ValueError("literal keys need players and outcomes pinned")
    labeling = _labeling(tree, literal_player_codes(tree.players), {})
    pin_states = "states" in pin
    memo: dict[int, bytes] = {}
    orders: dict[int, list[int]] = {}

    def key(node: int) -> bytes:
        cached = memo.get(node)
        if cached is not None:
            return cached
        try:
            _fill_keys(tree, postorder(tree, node, memo), memo, orders, *labeling, pin_states)
        except KeyError:
            # Only on a cycle does the postorder list a node before a child.
            raise TreeInvariantError("the arena has a cycle") from None
        return memo[node]

    return key


_TRUNCATED_KEY = _digest(b"U")  # a truncated node's key, states unpinned


def _fill_keys(
    tree: GameTree,
    order,
    memo: dict[int, bytes],
    orders: dict[int, list[int]],
    axis_order: list[int],
    axis_header: bytes,
    out_code,
    leaf_keys: dict[str, bytes],
    prefixes: dict[tuple, bytes],
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
        if kind == TERMINAL:
            outcome = node_outcome[n]
            key = leaf_keys.get(outcome)
            if key is None:
                key = leaf_keys[outcome] = digest(b"T" + out_code(outcome))
            memo[n] = key
            continue
        if kind == STATE:
            edges = node_children[n]
            _, sizes, counts, active, _, _, _ = meta_of(tree, n)
            if active <= 1:
                # Single-active-player matrix: fully described by sizes plus
                # the multiset of (child key, choices onto the child's edge).
                parts = sorted([
                    (memo[edge_dst[e]] + b"#%d;" % c, e) for e, c in zip(edges, counts)
                ])
                prefix = prefixes.get(sizes)
                if prefix is None:
                    prefix = prefixes[sizes] = (
                        b"S" + axis_header + repr([sizes[i] for i in axis_order]).encode()
                    )
                enc = prefix + b"".join([part for part, _ in parts])
                orders[n] = [e for _, e in parts]
            else:
                cols = {e: memo[edge_dst[e]] for e in edges}
                fingerprint, orders[n], _ = canonical_matrix(tree, n, axis_order, cols)
                enc = b"S" + axis_header + b"G" + fingerprint
            if pin_states:
                enc += repr(node_state[n]).encode()
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
        elif pin_states:
            enc = b"U" + repr(node_state[n]).encode()
        else:
            memo[n] = _TRUNCATED_KEY
            continue
        memo[n] = digest(enc)


# ---------------------------------------------------------------------------
# Candidate labeling assignments
# ---------------------------------------------------------------------------


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
    """Renaming-invariant statistics of the unfolded forest.

    Per player, the (depth, choice-set size) multiset of its state nodes;
    per outcome, the depth multiset of its terminals; and the multisets of
    node kinds and chance probabilities.  One flat pass per tree visits each
    arena node once, parents first, with its depth and its count of root
    paths in two lists; a node reached at several depths keeps {depth:
    paths} in a dict instead.  State nodes are tallied per (depth, sizes)
    and terminals per (outcome, depth), and expanded per player and outcome
    once at the end.
    """
    if not forest:
        raise TreeInvariantError("empty forest")
    players = forest[0].players
    states: dict[tuple, int] = {}  # (depth, sizes) -> paths
    terminals: dict[tuple, int] = {}  # (outcome, depth) -> paths
    kinds = [0] * 4  # paths per node kind: STATE, CHANCE, TERMINAL, TRUNCATED
    probs: dict = {}
    for tree in forest:
        node_kind = tree.node_kind
        node_outcome = tree.node_outcome
        node_children = tree.node_children
        edge_dst = tree.edge_dst
        edge_prob = tree.edge_prob
        depth = [-1] * len(node_kind)  # -1: not reached yet; -2: in `several`
        paths = [0] * len(node_kind)
        several: dict[int, dict[int, int]] = {}
        depth[tree.root] = 0
        paths[tree.root] = 1
        for n in reversed(postorder(tree)):
            d = depth[n]
            kind = node_kind[n]
            if kind == STATE:
                sizes = node_meta(tree, n).sizes
            for d, k in ((d, paths[n]),) if d >= 0 else several.pop(n).items():  # per depth
                kinds[kind] += k
                below = d + 1
                for e in node_children[n]:
                    c = edge_dst[e]
                    at = depth[c]
                    if at == below:
                        paths[c] += k
                    elif at == -1:
                        depth[c] = below
                        paths[c] = k
                    else:
                        if at >= 0:
                            several[c] = {at: paths[c]}
                            depth[c] = -2
                        several[c][below] = several[c].get(below, 0) + k
                if kind == STATE:
                    key = (d, sizes)
                    states[key] = states.get(key, 0) + k
                elif kind == TERMINAL:
                    key = (node_outcome[n], d)
                    terminals[key] = terminals.get(key, 0) + k
                elif kind == CHANCE:
                    for e in node_children[n]:
                        p = edge_prob[e]
                        probs[p] = probs.get(p, 0) + k
    player_sig: dict[str, dict] = {p: {} for p in players}
    for (d, sizes), k in states.items():
        for p, size in zip(players, sizes):
            sig = player_sig[p]
            sig[d, size] = sig.get((d, size), 0) + k
    outcome_sig: dict[str, dict] = {}
    for (outcome, d), k in terminals.items():
        sig = outcome_sig.setdefault(outcome, {})
        sig[d] = sig.get(d, 0) + k
    p_sigs = {p: repr(sorted(c.items())).encode() for p, c in player_sig.items()}
    o_sigs = {o: repr(sorted(c.items())).encode() for o, c in outcome_sig.items()}
    return p_sigs, o_sigs, {kind: k for kind, k in enumerate(kinds) if k}, probs


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
    p_sigs, o_sigs, kind_counts, prob_counts = _cached_signatures(forest, cache)
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
) -> list[tuple[dict[str, bytes], dict[str, bytes]]]:
    """Candidate labelings compatible with the signatures, as (player code,
    outcome code) pairs of dicts.

    Raises `LabelingLimitError` when there are more than MAX_ASSIGNMENTS of
    them; `cache` is as in `forest_profile`.
    """
    p_sigs, o_sigs, _, _ = _cached_signatures(forest, cache)
    players = forest[0].players
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
    return [(pc, oc) for pc in player_codes for oc in outcome_codes]


def labeled_keys(
    forest: list[GameTree], labeling: tuple, pin: Pin, postorders: Optional[list] = None
) -> tuple[bytes, tuple, list[dict[int, bytes]], list[dict[int, list[int]]]]:
    """The forest key under one labeling (an `assignments_for` pair), that
    labeling, and per tree its node keys and out-edge orders (see
    `_fill_keys`).

    `postorders`, each tree's `postorder`, spares a caller that keys several
    labelings a walk per labeling.
    """
    if postorders is None:
        postorders = [postorder(tree) for tree in forest]
    keys: list[dict[int, bytes]] = []
    orders: list[dict[int, list[int]]] = []
    for tree, order in zip(forest, postorders):
        keys.append({})
        orders.append({})
        _fill_keys(tree, order, keys[-1], orders[-1], *_labeling(tree, *labeling), "states" in pin)
    root_keys = sorted([memo[tree.root] for tree, memo in zip(forest, keys)])
    return _digest(b"F%d|" % len(root_keys) + b"|".join(root_keys)), labeling, keys, orders


def best_assignment_with_keys(
    forest: list[GameTree], pin: Pin, cache: Optional[dict] = None, target: Optional[bytes] = None
) -> tuple[bytes, tuple, list[dict[int, bytes]], list[dict[int, list[int]]]]:
    """`labeled_keys` of the labeling with the canonical (minimum) forest
    key: of the candidates that reach it, the first.

    `cache` is as in `forest_profile`.  With `target`, the first labeling
    whose forest key equals it is returned instead, and later ones are not
    keyed; where `target` is the minimum, that is the labeling the minimum
    keeps.
    """
    postorders = [postorder(tree) for tree in forest]
    best: Optional[tuple] = None
    for labeling in assignments_for(forest, pin, cache):
        keyed = labeled_keys(forest, labeling, pin, postorders)
        if keyed[0] == target:
            return keyed
        if best is None or keyed[0] < best[0]:
            best = keyed
    assert best is not None
    return best


def canonical_form(tree_or_forest, pin: Pin = PIN_NONE) -> CanonicalKey:
    """Canonical key of a tree or forest; equal keys == equivalent."""
    forest = tree_or_forest if isinstance(tree_or_forest, list) else [tree_or_forest]
    return CanonicalKey(best_assignment_with_keys(forest, pin)[0], pin)
