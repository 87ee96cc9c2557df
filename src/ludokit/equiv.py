"""Graded game-tree equivalence: structural, up-to-relabeling, and agency.

Three nested predicates:

- structural equivalence: the stripped trees (pure shape, all labels and
  node kinds removed) are equal;
- equivalence up to relabeling: a structural correspondence additionally
  preserves exact chance probabilities, matches every decision matrix under
  one global player bijection (with free per-node choice relabeling), and
  relates outcomes by one global bijection;
- agency equivalence: the normal forms (after the reduce module's rewrites)
  are equivalent up to relabeling.

Decisions are made through canonical keys (see `canon`); a successful
comparison yields an `EquivalenceWitness` carrying the node correspondence
and the global player/outcome maps.  Built trees and normal forms share
nodes, so the correspondence of a tree pair is a relation on pairs of arena
nodes, each related pair with a child pairing that matches its out-edges
one to one; the walk that finds it visits each distinct pair once, pairing
children by position in the out-edge orders the key pass recorded.
Unfolded from the root pair it is a bijection between the unfolded trees,
which `TreePairWitness.node_map` and `EquivalenceWitness.to_json` build on
demand.  `verify_witness` replays the defining conditions directly on the
trees, once per related pair and independently of the key machinery, and
is used by the test suite to re-check every witness the search returns.

Pinning: `pin` is a set drawn from {"players", "outcomes", "states"}.  A
pinned label class must match identically instead of up to bijection
(pinning players and outcomes yields the sibling-merge predicate of the
symmetry reduction; pinning everything is plain equality of labeled trees
up to choice relabeling).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from hashlib import blake2b
from typing import Iterator, NamedTuple, Optional, Union

from . import canon, reduce as reduce_mod
from .core import GameSystem, typed_record
from .errors import LudokitError, TreeInvariantError
from .tree import (
    CHANCE,
    DecisionMatrix,
    GameTree,
    STATE,
    TERMINAL,
    _unfold,
    build_forest,
    decision_matrix,
    is_shared,
    node_meta,
    postorder,
    require_unshared,
)

Pin = frozenset
ForestLike = Union[GameTree, list]
# A child pairing: (left edge, right edge) pairs.
Pairing = tuple[tuple[int, int], ...]


def _as_forest(value: ForestLike) -> list[GameTree]:
    if isinstance(value, GameTree):
        return [value]
    return list(value)


def _as_pin(pin) -> Pin:
    pin = frozenset(pin or ())
    unknown = pin - {"players", "outcomes", "states"}
    if unknown:
        raise ValueError(f"unknown pin flags: {sorted(unknown)}")
    return pin


# ---------------------------------------------------------------------------
# Stripping and structural equivalence
# ---------------------------------------------------------------------------


@typed_record
class Skeleton(NamedTuple):
    """Pure shape of a tree: node/edge arrangement only, no labels, no kinds."""

    digest: bytes
    node_count: int


def _shape_keys(tree: GameTree) -> dict[int, bytes]:
    keys: dict[int, bytes] = {}
    for n in postorder(tree):
        child_keys = sorted(keys[tree.edge_dst[e]] for e in tree.node_children[n])
        keys[n] = blake2b(b"(" + b"".join(child_keys) + b")", digest_size=16).digest()
    return keys


def strip(tree: GameTree) -> Skeleton:
    """Remove every label, including node kinds; only the shape remains."""
    keys = _shape_keys(tree)
    return Skeleton(keys[tree.root], tree.node_count())


def structurally_equivalent(left: GameTree, right: GameTree) -> bool:
    return strip(left) == strip(right)


def structural_correspondences(
    left: GameTree, right: GameTree
) -> Iterator[dict[int, int]]:
    """All node bijections realizing skeleton equality, lazily.

    Symmetric trees yield several; an empty stream means the trees are not
    structurally equivalent.  Exponentially many maps can exist; consume
    lazily.  The maps relate arena nodes, so both arenas must be unshared
    (TreeInvariantError otherwise, at the call): `unfold` a built tree first.
    """
    require_unshared(left, "structural_correspondences")
    require_unshared(right, "structural_correspondences")
    return _correspondences(left, right)


def _correspondences(left: GameTree, right: GameTree) -> Iterator[dict[int, int]]:
    lkeys = _shape_keys(left)
    rkeys = _shape_keys(right)
    if lkeys[left.root] != rkeys[right.root]:
        return

    def gen(u: int, v: int) -> Iterator[dict[int, int]]:
        lgroups: dict[bytes, list[int]] = {}
        for e in left.node_children[u]:
            dst = left.edge_dst[e]
            lgroups.setdefault(lkeys[dst], []).append(dst)
        rgroups: dict[bytes, list[int]] = {}
        for e in right.node_children[v]:
            dst = right.edge_dst[e]
            rgroups.setdefault(rkeys[dst], []).append(dst)

        def group_matchings(key_index: int, keys_list: list[bytes]) -> Iterator[dict[int, int]]:
            if key_index == len(keys_list):
                yield {u: v}
                return
            key = keys_list[key_index]
            lmembers = lgroups[key]
            for perm in itertools.permutations(rgroups[key]):
                child_streams = [gen(a, b) for a, b in zip(lmembers, perm)]
                for combo in _product_of_maps(child_streams):
                    for rest in group_matchings(key_index + 1, keys_list):
                        merged = dict(combo)
                        merged.update(rest)
                        yield merged

        keys_list = sorted(lgroups)
        if sorted(rgroups) != keys_list or any(
            len(lgroups[k]) != len(rgroups[k]) for k in keys_list
        ):
            return
        yield from group_matchings(0, keys_list)

    yield from gen(left.root, right.root)


def _product_of_maps(streams: list[Iterator[dict]]) -> Iterator[dict]:
    if not streams:
        yield {}
        return
    materialized = [list(s) for s in streams]
    for combo in itertools.product(*materialized):
        merged: dict = {}
        for part in combo:
            merged.update(part)
        yield merged


# ---------------------------------------------------------------------------
# Matrix matching
# ---------------------------------------------------------------------------


def _choice_profiles(mapping: dict, axis: int, choices, image) -> dict:
    """Per choice on `axis`: the sorted images of the edges its cells reach."""
    rows: dict = {c: [] for c in choices}
    for joint, edge in mapping.items():
        row = rows.get(joint[axis])
        if row is not None:
            row.append(image(edge))
    return {c: tuple(sorted(row)) for c, row in rows.items()}


def _candidates(
    left: DecisionMatrix,
    right: DecisionMatrix,
    order: list[tuple[int, int]],
    edge_map: Optional[dict[int, int]],
) -> Optional[list[dict]]:
    """Per axis pair (i, j) of `order`: each left choice's possible images,
    in right choice order; None when some left choice has none.

    With `edge_map`, a right choice is possible only if the sorted edges its
    cells reach equal the mapped edges of the left choice's cells.
    """
    candidates: list[dict] = []
    for i, j in order:
        if edge_map is None:
            candidates.append({c: list(right.choice_sets[j]) for c in left.choice_sets[i]})
            continue
        by_profile: dict = {}
        for c2, rp in _choice_profiles(right.mapping, j, right.choice_sets[j], repr).items():
            by_profile.setdefault(rp, []).append(c2)
        cand: dict = {}
        for c, lp in _choice_profiles(
            left.mapping, i, left.choice_sets[i], lambda edge: repr(edge_map.get(edge))
        ).items():
            matches = by_profile.get(lp)
            if matches is None:
                return None
            cand[c] = matches
        candidates.append(cand)
    return candidates


def match_matrices(
    left: DecisionMatrix,
    right: DecisionMatrix,
    player_map: dict[str, str],
    edge_map: Optional[dict[int, int]] = None,
) -> Optional[dict[str, dict]]:
    """Search per-player choice bijections making the matrices agree.

    `player_map` is the fixed global player correspondence.  With `edge_map`
    (from an enclosing structural correspondence) the matrices must map onto
    corresponding edges; without it some edge bijection is searched as well.
    Returns {left player: {left choice: right choice}} or None.  The null
    choice is relabelable like any other.
    """
    if set(player_map) != set(left.players) or set(player_map.values()) != set(right.players):
        return None
    rindex = {p: i for i, p in enumerate(right.players)}
    order = [(i, rindex[player_map[p]]) for i, p in enumerate(left.players)]
    lsets = left.choice_sets
    rsets = right.choice_sets
    if any(len(lsets[i]) != len(rsets[j]) for i, j in order):
        return None

    lcells = list(left.mapping.items())

    candidates = _candidates(left, right, order, edge_map)
    if candidates is None:
        return None

    def backtrack(pos: int, assigned: list[dict]) -> Optional[list[dict]]:
        if pos == len(order):
            return assigned
        i, j = order[pos]
        cand = candidates[pos]
        choices = sorted(lsets[i], key=lambda c: len(cand[c]))
        for images in _bijections(choices, cand):
            trial = assigned + [images]
            if _consistent(trial, pos + 1):
                result = backtrack(pos + 1, trial)
                if result is not None:
                    return result
        return None

    def _bijections(choices, cand) -> Iterator[dict]:
        used: set = set()
        images: dict = {}

        def rec(k: int) -> Iterator[dict]:
            if k == len(choices):
                yield dict(images)
                return
            c = choices[k]
            for c2 in cand[c]:
                marker = repr(c2)
                if marker in used:
                    continue
                used.add(marker)
                images[c] = c2
                yield from rec(k + 1)
                used.discard(marker)
                del images[c]

        yield from rec(0)

    def _consistent(assigned: list[dict], upto: int) -> bool:
        # Once every player is assigned, verify the induced edge mapping.
        if upto < len(order):
            return True
        induced: dict[int, int] = {}
        for joint, edge in lcells:
            image = []
            for pos, (i, j) in enumerate(order):
                image.append((j, assigned[pos][joint[i]]))
            rjoint = [None] * len(right.players)
            for j, c2 in image:
                rjoint[j] = c2
            redge = right.mapping.get(tuple(rjoint))
            if redge is None:
                return False
            if edge_map is not None and edge_map.get(edge) != redge:
                return False
            prior = induced.setdefault(edge, redge)
            if prior != redge:
                return False
        return len(set(induced.values())) == len(induced)

    result = backtrack(0, [])
    if result is None:
        return None
    return {left.players[i]: result[pos] for pos, (i, _) in enumerate(order)}


def _one_chooser_match(lcells: dict, rcells: dict, pairing: Pairing) -> bool:
    """`match_matrices(left, right, player_map, dict(pairing)) is not None`
    where at most one player has more than one choice, without a search.

    `lcells` and `rcells` count each matrix's cells per edge, and the
    choice-set sizes must agree under the player map.  Every other player
    then has one choice, so its bijection is forced, and a cell is one
    choice of the chooser.  A bijection of the chooser's choices carries
    each left cell to a right cell on the paired edge iff every paired edge
    pair has equally many cells: match each edge pair's cells in any order.
    """
    return all(lcells[le] == rcells[re] for le, re in pairing)


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------


@dataclass
class TreePairWitness:
    """The correspondence between one left and one right tree.

    `links` is a relation on pairs of arena nodes: it maps each related
    pair (u, v) to its child pairing, which matches u's out-edges one to
    one with v's.  The pairs that count are those reachable from the root
    pair through child pairings.  On shared arenas a node may be related to
    several nodes, one per context it is reached in.  The trees are those
    of the witness the pair belongs to, at `left_index` and `right_index`.
    """

    left_index: int
    right_index: int
    links: dict[tuple[int, int], Pairing]
    # The (left, right) forests of the witness holding the pair, set by it.
    # Not the witness itself: that cycle would keep every witness and its
    # forests alive until the cycle collector runs.
    forests: Optional[tuple[list[GameTree], list[GameTree]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @cached_property
    def node_map(self) -> dict[int, int]:
        """Left node -> right node of the unfolded trees.

        Built on first access, in time linear in the unfolded trees, and
        kept; see `_unfold_relation`.
        """
        left, right = self.forests
        return _unfold_relation(self, left[self.left_index], right[self.right_index])[0]


@dataclass
class EquivalenceWitness:
    """Correspondence bundle certifying equivalence up to relabeling.

    Carries the global player and outcome bijections, one node relation per
    paired tree, and the forests it relates (for agency verdicts these are
    the normal forms); every tree a pair's relation names is read from
    them.  Per-node choice maps are derived on demand from the child
    pairings, which fix the edge correspondence.
    """

    player_map: dict[str, str]
    outcome_map: dict[str, str]
    pairs: list[TreePairWitness]
    left_forest: list[GameTree] = field(repr=False)
    right_forest: list[GameTree] = field(repr=False)

    def __post_init__(self) -> None:
        for pair in self.pairs:
            pair.forests = (self.left_forest, self.right_forest)

    def trees(self, pair: TreePairWitness) -> tuple[GameTree, GameTree]:
        return self.left_forest[pair.left_index], self.right_forest[pair.right_index]

    def choice_maps(self, pair: TreePairWitness, u: int, v: int) -> Optional[dict]:
        """Per-player choice bijections at the related state pair (u, v)."""
        left, right = self.trees(pair)
        if left.node_kind[u] != STATE:
            return None
        return match_matrices(
            decision_matrix(left, u),
            decision_matrix(right, v),
            self.player_map,
            dict(pair.links[(u, v)]),
        )

    def to_json(self) -> str:
        """The witness as unfolded node maps and per-node choice maps."""
        def choice_repr(c):
            if c is None:
                return 0
            if isinstance(c, str):
                return c
            return [[("0" if d is None else d) for d in t] for t in c]

        doc = {
            "players": self.player_map,
            "outcomes": self.outcome_map,
            "trees": [],
        }
        for pair in self.pairs:
            left, right = self.trees(pair)
            node_map, arena_pair = _unfold_relation(pair, left, right)
            entry = {
                "left": pair.left_index,
                "right": pair.right_index,
                "nodes": {str(x): y for x, y in sorted(node_map.items())},
                "choices": {},
            }
            rendered: dict = {}
            for x in sorted(node_map):
                u, v = arena_pair[x]
                if left.node_kind[u] != STATE:
                    continue
                if (u, v) not in rendered:
                    lam = self.choice_maps(pair, u, v)
                    rendered[(u, v)] = None if lam is None else {
                        p: {json.dumps(choice_repr(a)): choice_repr(b) for a, b in m.items()}
                        for p, m in lam.items()
                    }
                if rendered[(u, v)] is not None:
                    entry["choices"][str(x)] = rendered[(u, v)]
            doc["trees"].append(entry)
        return json.dumps(doc, indent=2) + "\n"


def _unfold_relation(
    pair: TreePairWitness, left: GameTree, right: GameTree
) -> tuple[dict[int, int], dict[int, tuple[int, int]]]:
    """The pair's relation unfolded into a node bijection, plus each left
    node's arena pair.  Node ids are the arena's own on an unshared arena
    and those of `unfold` on a shared one."""

    def numbered(t: GameTree):
        return _unfold(t) if is_shared(t) else (t, None)

    (lt, lorigin), (rt, rorigin) = numbered(left), numbered(right)
    positions: dict[tuple[int, int], list[tuple[int, int]]] = {}
    node_map: dict[int, int] = {}
    arena_pair: dict[int, tuple[int, int]] = {}
    stack = [(lt.root, rt.root)]
    while stack:
        x, y = stack.pop()
        u = x if lorigin is None else lorigin[x]
        v = y if rorigin is None else rorigin[y]
        node_map[x] = y
        arena_pair[x] = (u, v)
        pos = positions.get((u, v))
        if pos is None:
            lpos = {e: i for i, e in enumerate(left.node_children[u])}
            rpos = {e: j for j, e in enumerate(right.node_children[v])}
            pos = positions[(u, v)] = [(lpos[le], rpos[re]) for le, re in pair.links[(u, v)]]
        ledges, redges = lt.node_children[x], rt.node_children[y]
        for i, j in pos:
            stack.append((lt.edge_dst[ledges[i]], rt.edge_dst[redges[j]]))
    return node_map, arena_pair


def invert_witness(witness: EquivalenceWitness) -> EquivalenceWitness:
    return EquivalenceWitness(
        player_map={v: k for k, v in witness.player_map.items()},
        outcome_map={v: k for k, v in witness.outcome_map.items()},
        pairs=[
            TreePairWitness(
                p.right_index,
                p.left_index,
                {
                    (v, u): tuple([(re, le) for le, re in pairing])
                    for (u, v), pairing in p.links.items()
                },
            )
            for p in witness.pairs
        ],
        left_forest=witness.right_forest,
        right_forest=witness.left_forest,
    )


def _compose_links(
    p: TreePairWitness, q: TreePairWitness, left: GameTree, middle: GameTree, right: GameTree
) -> dict:
    """The relation of p (left to middle) then q (middle to right): a pair
    (u, w) through the first middle node the walk from the roots relates it
    by."""
    links: dict[tuple[int, int], Pairing] = {}
    stack = [(left.root, middle.root, right.root)]
    while stack:
        u, m, w = stack.pop()
        if (u, w) in links:
            continue
        onward = dict(q.links[(m, w)])
        links[(u, w)] = pairing = tuple([(le, onward[me]) for le, me in p.links[(u, m)]])
        for (le, me), (_, re) in zip(p.links[(u, m)], pairing):
            stack.append((left.edge_dst[le], middle.edge_dst[me], right.edge_dst[re]))
    return links


def compose_witnesses(
    first: EquivalenceWitness, second: EquivalenceWitness
) -> EquivalenceWitness:
    """The witness left-to-right across two comparisons sharing a middle forest."""
    by_left = {p.left_index: p for p in second.pairs}
    pairs = []
    for p in first.pairs:
        q = by_left[p.right_index]
        left, middle = first.trees(p)
        right = second.right_forest[q.right_index]
        pairs.append(
            TreePairWitness(
                p.left_index, q.right_index, _compose_links(p, q, left, middle, right)
            )
        )
    return EquivalenceWitness(
        player_map={k: second.player_map[v] for k, v in first.player_map.items()},
        outcome_map={k: second.outcome_map[v] for k, v in first.outcome_map.items()},
        pairs=pairs,
        left_forest=first.left_forest,
        right_forest=second.right_forest,
    )


# ---------------------------------------------------------------------------
# Witness verification (independent of the canonical-key machinery)
# ---------------------------------------------------------------------------


def verify_witness(
    witness: EquivalenceWitness, pin=(), max_problems: int = 20
) -> list[str]:
    """Replay the defining conditions on the trees; empty list means valid.

    Each related pair reachable from the root pair is checked once, however
    many paths reach it: its nodes have the same kind (and state, when
    pinned), its child pairing matches their out-edges one to one onto
    related pairs, and it agrees on probabilities, outcomes or decision
    matrices.  That suffices.  Unfold the relation from the root pair: each
    root path of the left tree follows child pairings to exactly one root
    path of the right tree, and, pairings being bijections, every right
    path is reached once.  So the unfolding is a bijection between the
    unfolded trees that maps root to root and children to children, and
    each of its node pairs copies a checked arena pair, so it passes the
    same checks.  Matrices are compared through `node_meta`, which decodes
    labels and computes no key: choice-set sizes under the player map,
    then cell counts per paired edge where at most one player chooses, and
    a `match_matrices` search only where two or more do.
    """
    pin = _as_pin(pin)
    problems: list[str] = []

    def report(msg: str) -> bool:
        problems.append(msg)
        return len(problems) >= max_problems

    left_forest = witness.left_forest
    right_forest = witness.right_forest
    if len(left_forest) != len(right_forest) or len(witness.pairs) != len(left_forest):
        return ["forest sizes do not correspond"]
    if sorted(p.left_index for p in witness.pairs) != list(range(len(left_forest))):
        return ["tree pairing is not a bijection on the left"]
    if sorted(p.right_index for p in witness.pairs) != list(range(len(right_forest))):
        return ["tree pairing is not a bijection on the right"]
    if not left_forest:
        raise TreeInvariantError("empty forest")

    pm = witness.player_map
    lplayers = left_forest[0].players
    rplayers = right_forest[0].players
    if sorted(pm) != sorted(lplayers) or sorted(pm.values()) != sorted(rplayers):
        return ["player map is not a bijection between the player lists"]
    if "players" in pin and any(k != v for k, v in pm.items()):
        return ["players are pinned but the player map is not the identity"]
    om = witness.outcome_map
    if len(set(om.values())) != len(om):
        return ["outcome map is not injective"]
    if "outcomes" in pin and any(k != v for k, v in om.items()):
        return ["outcomes are pinned but the outcome map is not the identity"]

    pin_states = "states" in pin
    seen_out: set[str] = set()
    for pair in witness.pairs:
        lt = left_forest[pair.left_index]
        rt = right_forest[pair.right_index]
        links = pair.links
        if (lt.root, rt.root) not in links:
            if report(f"tree {pair.left_index}: root is not related to root"):
                return problems
            continue
        rindex = {p: j for j, p in enumerate(rt.players)}
        axes = [(i, rindex[pm[p]]) for i, p in enumerate(lt.players)]
        lkinds, rkinds = lt.node_kind, rt.node_kind
        lchildren, rchildren = lt.node_children, rt.node_children
        ldst, rdst = lt.edge_dst, rt.edge_dst
        checked: set[tuple[int, int]] = set()
        stack = [(lt.root, rt.root)]
        while stack:
            uv = stack.pop()
            if uv in checked:
                continue
            checked.add(uv)
            u, v = uv
            lkind, rkind = lkinds[u], rkinds[v]
            if lkind != rkind:
                if report(f"node {u}: kind {lt.kind_name(u)} maps to {rt.kind_name(v)}"):
                    return problems
                continue
            if pin_states and lt.node_state[u] != rt.node_state[v]:
                if report(f"node {u}: states pinned but labels differ"):
                    return problems
            pairing = links[uv]
            ledges, redges = lchildren[u], rchildren[v]
            if len(pairing) != len(ledges) or len(pairing) != len(redges) or pairing and (
                {le for le, _ in pairing} != set(ledges) or {re for _, re in pairing} != set(redges)
            ):
                if report(f"node {u}: children do not correspond under the map"):
                    return problems
                continue
            unrelated = False
            for le, re in pairing:
                child = (ldst[le], rdst[re])
                if child in links:
                    stack.append(child)
                else:
                    unrelated = True
            if unrelated:
                if report(f"node {u}: a child pair is not related"):
                    return problems
                continue
            if lkind == CHANCE:
                for e, re in pairing:
                    if lt.edge_prob[e] != rt.edge_prob[re]:
                        if report(
                            f"edge {e}: probability {lt.edge_prob[e]} != {rt.edge_prob[re]}"
                        ):
                            return problems
            elif lkind == TERMINAL:
                lo, ro = lt.node_outcome[u], rt.node_outcome[v]
                if lo not in om or om[lo] != ro:
                    if report(f"terminal {u}: outcome {lo!r} maps outside {ro!r}"):
                        return problems
                seen_out.add(lo)
            elif lkind == STATE:
                lmeta, rmeta = node_meta(lt, u), node_meta(rt, v)
                if any(lmeta.sizes[i] != rmeta.sizes[j] for i, j in axes):
                    matched = False
                elif lmeta.active <= 1:
                    # a bijective pairing matches edges of one cell each
                    matched = max(lmeta.counts) == 1 == max(rmeta.counts) or _one_chooser_match(
                        dict(zip(ledges, lmeta.counts)), dict(zip(redges, rmeta.counts)), pairing
                    )
                else:
                    matched = match_matrices(
                        decision_matrix(lt, u), decision_matrix(rt, v), pm, dict(pairing)
                    ) is not None
                if not matched:
                    if report(f"node {u}: decision matrices do not match"):
                        return problems
    missing = seen_out - set(om)
    if missing:
        problems.append(f"outcome map misses outcomes {sorted(missing)}")
    return problems


# ---------------------------------------------------------------------------
# Equivalence up to relabeling
# ---------------------------------------------------------------------------


def _pair_trees_by_key(lkeys_roots, rkeys_roots) -> Optional[list[tuple[int, int]]]:
    lgroups: dict[bytes, list[int]] = {}
    for i, k in enumerate(lkeys_roots):
        lgroups.setdefault(k, []).append(i)
    rgroups: dict[bytes, list[int]] = {}
    for i, k in enumerate(rkeys_roots):
        rgroups.setdefault(k, []).append(i)
    if sorted(lgroups) != sorted(rgroups):
        return None
    pairs = []
    for key, lmembers in lgroups.items():
        rmembers = rgroups[key]
        if len(lmembers) != len(rmembers):
            return None
        pairs.extend(zip(lmembers, rmembers))
    return sorted(pairs)


def _code_map(left: dict[str, bytes], right: dict[str, bytes]) -> Optional[dict[str, str]]:
    """Each left name to the right name of equal code, in sorted left-name
    order; None when some left code has no right name."""
    by_code = {code: name for name, code in right.items()}
    mapped = {name: by_code.get(code) for name, code in sorted(left.items())}
    return None if None in mapped.values() else mapped


def _walk_pair(
    lt: GameTree,
    rt: GameTree,
    lkeys: dict[int, bytes],
    lorders: dict[int, list[int]],
    rkeys: dict[int, bytes],
    rorders: dict[int, list[int]],
) -> Optional[dict[tuple[int, int], Pairing]]:
    """The witness relation of two trees, walking each distinct pair once.

    A related pair's children are paired by zipping the two nodes' out-edge
    orders from the key pass; None when some aligned children's keys differ.
    """
    if lkeys[lt.root] != rkeys[rt.root]:
        return None
    links: dict[tuple[int, int], Pairing] = {}
    stack = [(lt.root, rt.root)]
    while stack:
        pair = stack.pop()
        if pair in links:
            continue
        u, v = pair
        if not lt.node_children[u]:
            links[pair] = ()
            continue
        links[pair] = pairing = tuple(zip(lorders[u], rorders[v]))
        for le, re in pairing:
            child = (lt.edge_dst[le], rt.edge_dst[re])
            if lkeys[child[0]] != rkeys[child[1]]:
                return None
            if child not in links:
                if lt.node_children[child[0]]:
                    stack.append(child)
                else:
                    links[child] = ()
    return links


def equivalent_up_to_relabeling(
    left: ForestLike, right: ForestLike, pin=()
) -> Optional[EquivalenceWitness]:
    """Decide equivalence up to relabeling; a witness on success, else None.

    Accepts single trees or forests; a forest comparison requires a
    bijection between member trees with one global player map and one global
    outcome map across the whole forest.
    """
    pin = _as_pin(pin)
    left_forest = _as_forest(left)
    right_forest = _as_forest(right)
    if len(left_forest) != len(right_forest):
        return None
    if not left_forest:
        raise TreeInvariantError("empty forest")
    if len(left_forest[0].players) != len(right_forest[0].players):
        return None
    if "players" in pin and sorted(left_forest[0].players) != sorted(
        right_forest[0].players
    ):
        return None
    # Cheap invariant fingerprints reject most inequivalent pairs before any
    # canonicalization (probability multisets, outcome/player statistics).
    # Each side's cache carries its label signatures from the profile to the
    # assignments, so each forest is walked for them once.
    l_cache: dict = {}
    r_cache: dict = {}
    if canon.forest_profile(left_forest, pin, l_cache) != canon.forest_profile(
        right_forest, pin, r_cache
    ):
        return None
    lkey, (l_players, l_outcomes), lkeys, lorders = canon.best_assignment_with_keys(
        left_forest, pin, l_cache
    )
    # The right side stops at the first labeling that reaches the left key.
    rkey, (r_players, r_outcomes), rkeys, rorders = canon.best_assignment_with_keys(
        right_forest, pin, r_cache, target=lkey
    )
    if lkey != rkey:
        return None
    player_map = _code_map(l_players, r_players)
    outcome_map = _code_map(l_outcomes, r_outcomes)
    if player_map is None or outcome_map is None:
        return None

    tree_pairs = _pair_trees_by_key(
        [keys[t.root] for t, keys in zip(left_forest, lkeys)],
        [keys[t.root] for t, keys in zip(right_forest, rkeys)],
    )
    if tree_pairs is None:
        return None
    pairs: list[TreePairWitness] = []
    for li, ri in tree_pairs:
        links = _walk_pair(
            left_forest[li], right_forest[ri], lkeys[li], lorders[li], rkeys[ri], rorders[ri]
        )
        if links is None:
            return None
        pairs.append(TreePairWitness(li, ri, links))
    return EquivalenceWitness(player_map, outcome_map, pairs, left_forest, right_forest)


# ---------------------------------------------------------------------------
# Agency equivalence
# ---------------------------------------------------------------------------


def _normal_forms(value) -> list[GameTree]:
    """Normal forms of a system's full forest or of a caller's trees."""
    forest = build_forest(value) if isinstance(value, GameSystem) else _as_forest(value)
    return [reduce_mod.normalize(t)[0] for t in forest]


def agency_equivalent(
    left: Union[GameSystem, ForestLike], right: Union[GameSystem, ForestLike]
) -> Optional[EquivalenceWitness]:
    """Normalize both sides, then compare up to relabeling.

    Accepts game systems (their full forests are built), single trees, or
    forests.  The returned witness refers to the normal forms, which it
    carries as its forests.
    """
    return equivalent_up_to_relabeling(_normal_forms(left), _normal_forms(right))


# ---------------------------------------------------------------------------
# Canonical form (public wrapper)
# ---------------------------------------------------------------------------


def canonical_form(tree_or_forest: ForestLike, pin=()) -> canon.CanonicalKey:
    """Canonical key under the pin regime; equal keys == equivalent."""
    return canon.canonical_form(_as_forest(tree_or_forest), _as_pin(pin))


# ---------------------------------------------------------------------------
# Label renaming helpers (used for constrained comparisons)
# ---------------------------------------------------------------------------


def relabel_tree(
    tree: GameTree,
    player_map: Optional[dict[str, str]] = None,
    outcome_map: Optional[dict[str, str]] = None,
) -> GameTree:
    """A copy with players and/or outcomes renamed through bijections."""
    dup = tree.copy()
    if player_map is not None:
        if sorted(player_map) != sorted(tree.players):
            raise LudokitError("player renaming must cover exactly the player list")
        dup.players = tuple(player_map[p] for p in tree.players)
    if outcome_map is not None:
        dup.node_outcome = [
            outcome_map.get(o, o) if o is not None else None for o in dup.node_outcome
        ]
    dup.system = None
    return dup
