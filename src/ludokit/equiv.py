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
demand.  Where two or more players choose, the walk also records the
per-player choice bijections, pairing choices of equal rank in the choice
orders of the key pass; where at most one does, the child pairing fixes
them.  So a witness is a certificate: `verify_witness` replays the
defining conditions directly on the trees, once per related pair, in time
linear in the matrices' cells and independently of the key machinery, and
searches for nothing.  The test suite re-checks every witness with it.

Pinning: `pin` is a set drawn from {"players", "outcomes", "states"}.  A
pinned label class must match identically instead of up to bijection
(pinning players and outcomes yields the sibling-merge predicate of the
symmetry reduction; pinning everything is plain equality of labeled trees
up to choice relabeling).
"""

from __future__ import annotations

import itertools
import json
from functools import partial
from hashlib import blake2b
from typing import Callable, Iterator, NamedTuple, Optional, Union

from . import canon, reduce as reduce_mod
from .core import GameSystem, SlotRecord, typed_record
from .errors import LudokitError, TreeInvariantError
from .tree import (
    CHANCE,
    GameTree,
    NodeMeta,
    STATE,
    TERMINAL,
    _unfold,
    build_forest,
    choice_rank,
    is_shared,
    node_meta,
    postorder,
    require_unshared,
)

Pin = frozenset
ForestLike = Union[GameTree, list]
# A child pairing: (left edge, right edge) pairs.
Pairing = tuple[tuple[int, int], ...]
# Per left player, a bijection of its choices at a node onto its image's.
ChoiceMaps = dict[str, dict]


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


def structurally_equivalent(left: ForestLike, right: ForestLike) -> bool:
    """Equal skeletons: of two trees, or of two forests' members paired in
    some order."""
    return sorted(map(strip, _as_forest(left))) == sorted(map(strip, _as_forest(right)))


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
                child_streams = [partial(gen, a, b) for a, b in zip(lmembers, perm)]
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


def _product_of_maps(streams: list[Callable[[], Iterator[dict]]]) -> Iterator[dict]:
    """The union of one map from each stream, for every choice of maps, in
    `itertools.product` order.  A stream is made afresh for each
    combination of the streams before it, so nothing is materialized."""
    if not streams:
        yield {}
        return
    for part in streams[0]():
        for rest in _product_of_maps(streams[1:]):
            merged = dict(part)
            merged.update(rest)
            yield merged


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------


class TreePairWitness(SlotRecord):
    """The correspondence between one left and one right tree.

    `links` is a relation on pairs of arena nodes: it maps each related
    pair (u, v) to its child pairing, which matches u's out-edges one to
    one with v's.  The pairs that count are those reachable from the root
    pair through child pairings.  On shared arenas a node may be related to
    several nodes, one per context it is reached in.  `choices` holds the
    choice bijections of each related state pair where two or more players
    choose; where at most one does, the child pairing fixes them (see
    `EquivalenceWitness.choice_maps`).  The trees are those of the witness
    the pair belongs to, at `left_index` and `right_index`.
    """

    __slots__ = ("left_index", "right_index", "links", "choices", "forests", "_node_map")
    _fields = __slots__[:4]

    def __init__(
        self,
        left_index: int,
        right_index: int,
        links: dict[tuple[int, int], Pairing],
        choices: Optional[dict[tuple[int, int], ChoiceMaps]] = None,
    ):
        self.left_index = left_index
        self.right_index = right_index
        self.links = links
        self.choices = {} if choices is None else choices
        # The (left, right) forests of the witness holding the pair, set by it.
        # Not the witness itself: that cycle would keep every witness and its
        # forests alive until the cycle collector runs.
        self.forests: Optional[tuple[list[GameTree], list[GameTree]]] = None
        self._node_map: Optional[dict[int, int]] = None

    @property
    def node_map(self) -> dict[int, int]:
        """Left node -> right node of the unfolded trees.

        Built on first access, in time linear in the unfolded trees, and
        kept; see `_unfold_relation`.
        """
        if self._node_map is None:
            left, right = self.forests
            self._node_map = _unfold_relation(
                self, left[self.left_index], right[self.right_index]
            )[0]
        return self._node_map


class EquivalenceWitness(SlotRecord):
    """Correspondence bundle certifying equivalence up to relabeling.

    Carries the global player and outcome bijections, one node relation per
    paired tree with the choice bijections it records, and the forests it
    relates (for agency verdicts these are the normal forms); every tree a
    pair's relation names is read from them.
    """

    __slots__ = ("player_map", "outcome_map", "pairs", "left_forest", "right_forest")
    _fields = __slots__
    _hidden = frozenset({"left_forest", "right_forest"})

    def __init__(
        self,
        player_map: dict[str, str],
        outcome_map: dict[str, str],
        pairs: list[TreePairWitness],
        left_forest: list[GameTree],
        right_forest: list[GameTree],
    ):
        self.player_map = player_map
        self.outcome_map = outcome_map
        self.pairs = pairs
        self.left_forest = left_forest
        self.right_forest = right_forest
        for pair in pairs:
            pair.forests = (left_forest, right_forest)

    def trees(self, pair: TreePairWitness) -> tuple[GameTree, GameTree]:
        return self.left_forest[pair.left_index], self.right_forest[pair.right_index]

    def choice_maps(self, pair: TreePairWitness, u: int, v: int) -> Optional[ChoiceMaps]:
        """Per-player choice bijections at the related state pair (u, v).

        Where two or more players choose, the maps the pair records.  Where
        at most one does, the child pairing fixes them: on each paired edge,
        a player's choices map to its image's in `choice_rank` order, keyed
        by (cells on the choice's edge, `choice_rank`).
        """
        left, right = self.trees(pair)
        if left.node_kind[u] != STATE:
            return None
        lmeta = node_meta(left, u)
        if lmeta.active > 1:
            return pair.choices.get((u, v))
        rmeta = node_meta(right, v)
        lcells = dict(zip(left.node_children[u], lmeta.decoded))
        rcells = dict(zip(right.node_children[v], rmeta.decoded))
        rindex = {p: j for j, p in enumerate(right.players)}
        maps: ChoiceMaps = {}
        for i, p in enumerate(left.players):
            j = rindex[self.player_map[p]]
            images = []
            for le, re in pair.links[(u, v)]:
                lcs = sorted({joint[i] for _, joint in lcells[le]}, key=choice_rank)
                rcs = sorted({joint[j] for _, joint in rcells[re]}, key=choice_rank)
                images += [((len(lcells[le]), choice_rank(a)), a, b) for a, b in zip(lcs, rcs)]
            maps[p] = {a: b for _, a, b in sorted(images, key=lambda image: image[0])}
        return maps

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
    pm = witness.player_map
    return EquivalenceWitness(
        player_map={v: k for k, v in pm.items()},
        outcome_map={v: k for k, v in witness.outcome_map.items()},
        pairs=[
            TreePairWitness(
                p.right_index,
                p.left_index,
                {
                    (v, u): tuple([(re, le) for le, re in pairing])
                    for (u, v), pairing in p.links.items()
                },
                {
                    (v, u): {pm[q]: {b: a for a, b in m.items()} for q, m in maps.items()}
                    for (u, v), maps in p.choices.items()
                },
            )
            for p in witness.pairs
        ],
        left_forest=witness.right_forest,
        right_forest=witness.left_forest,
    )


def _compose_pair(
    p: TreePairWitness,
    q: TreePairWitness,
    pm: dict[str, str],
    left: GameTree,
    middle: GameTree,
    right: GameTree,
) -> TreePairWitness:
    """The relation of p (left to middle) then q (middle to right), `pm`
    mapping p's players: a pair (u, w) through the first middle node the
    walk from the roots relates it by, with the composed choice maps."""
    links: dict[tuple[int, int], Pairing] = {}
    choices: dict[tuple[int, int], ChoiceMaps] = {}
    stack = [(left.root, middle.root, right.root)]
    while stack:
        u, m, w = stack.pop()
        if (u, w) in links:
            continue
        onward = dict(q.links[(m, w)])
        links[(u, w)] = pairing = tuple([(le, onward[me]) for le, me in p.links[(u, m)]])
        first, then = p.choices.get((u, m)), q.choices.get((m, w))
        if first is not None and then is not None:
            choices[(u, w)] = {
                player: {a: then[pm[player]][b] for a, b in maps.items()}
                for player, maps in first.items()
            }
        for (le, me), (_, re) in zip(p.links[(u, m)], pairing):
            stack.append((left.edge_dst[le], middle.edge_dst[me], right.edge_dst[re]))
    return TreePairWitness(p.left_index, q.right_index, links, choices)


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
        pairs.append(_compose_pair(p, q, first.player_map, left, middle, right))
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


def _carries_cells(
    maps: ChoiceMaps,
    players: tuple[str, ...],
    axes: list[tuple[int, int]],
    lmeta: NodeMeta,
    rmeta: NodeMeta,
    pairing: Pairing,
    ledges: list[int],
    redges: list[int],
) -> bool:
    """Whether `maps` carries one matrix onto the other: per player, a
    bijection of its choices onto those of its image (player i onto j for
    each (i, j) of `axes`), carrying every left cell to a right cell on the
    paired edge.  Linear in the cells."""
    if maps.keys() != set(players):
        return False
    for i, j in axes:
        m = maps[players[i]]
        # the sets have equal sizes, so this makes m a bijection
        if m.keys() != lmeta.choices[i] or set(m.values()) != rmeta.choices[j]:
            return False
    edge_of = {joint: re for re, cells in zip(redges, rmeta.decoded) for _, joint in cells}
    image = dict(pairing)
    per_axis = [(maps[players[i]], j) for i, j in axes]
    rjoint: list = [None] * len(axes)
    for le, cells in zip(ledges, lmeta.decoded):
        for _, joint in cells:
            for c, (m, j) in zip(joint, per_axis):
                rjoint[j] = m[c]
            if edge_of.get(tuple(rjoint)) != image[le]:
                return False
    return True


# Problems `verify_witness` lists before it stops checking.
_MAX_PROBLEMS = 20


def verify_witness(witness: EquivalenceWitness, pin=()) -> list[str]:
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
    labels and computes no key, and nothing is searched: first choice-set
    sizes under the player map.  Where two or more players choose, the
    pair's recorded choice maps are checked as a certificate, in time
    linear in the cells (`_carries_cells`); a missing map is a problem.
    Where at most one player chooses, each paired edge pair must carry
    equally many cells, which is exactly the check of the maps
    `EquivalenceWitness.choice_maps` derives there: every other player has
    one choice, and the chooser's choices on paired edges are zipped.
    """
    pin = _as_pin(pin)
    problems: list[str] = []

    def report(msg: str) -> bool:
        problems.append(msg)
        return len(problems) >= _MAX_PROBLEMS

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
                    matched = max(lmeta.counts) == 1 == max(rmeta.counts)
                    if not matched:
                        lcells = dict(zip(ledges, lmeta.counts))
                        rcells = dict(zip(redges, rmeta.counts))
                        matched = all(lcells[le] == rcells[re] for le, re in pairing)
                elif uv not in pair.choices:
                    if report(f"node {u}: no choice maps where two or more players choose"):
                        return problems
                    continue
                else:
                    matched = _carries_cells(
                        pair.choices[uv], lt.players, axes, lmeta, rmeta, pairing, ledges, redges
                    )
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
    laxes: list[int],
    raxes: list[int],
) -> Optional[tuple[dict[tuple[int, int], Pairing], dict[tuple[int, int], ChoiceMaps]]]:
    """The witness relation of two trees, walking each distinct pair once.

    A related pair's children are paired by zipping the two nodes' out-edge
    orders from the key pass; None when some aligned children's keys differ.
    At a state pair where two or more players choose, the walk records the
    choice maps too: each left choice maps to the right choice of equal
    rank in the orders of the two matrix encodings, axis k to axis k of the
    axis orders `laxes` and `raxes` (`canon.canonical_matrix`).
    """
    if lkeys[lt.root] != rkeys[rt.root]:
        return None
    links: dict[tuple[int, int], Pairing] = {}
    choices: dict[tuple[int, int], ChoiceMaps] = {}
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
        if lt.node_kind[u] == STATE and node_meta(lt, u).active > 1:
            ranked = dict(zip(laxes, zip(
                _ranked_choices(lt, u, laxes, lkeys), _ranked_choices(rt, v, raxes, rkeys)
            )))
            choices[pair] = {
                p: dict(sorted(zip(*ranked[i]), key=lambda ab: choice_rank(ab[0])))
                for i, p in enumerate(lt.players)
            }
        for le, re in pairing:
            child = (lt.edge_dst[le], rt.edge_dst[re])
            if lkeys[child[0]] != rkeys[child[1]]:
                return None
            if child not in links:
                if lt.node_children[child[0]]:
                    stack.append(child)
                else:
                    links[child] = ()
    return links, choices


def _ranked_choices(t: GameTree, n: int, axes: list[int], keys: dict[int, bytes]):
    """Per axis, the node's choices in the order of its matrix encoding; the
    key pass left them in the matrix memo."""
    cols = {e: keys[t.edge_dst[e]] for e in t.node_children[n]}
    return canon.canonical_matrix(t, n, axes, cols)[2]


def _keyed_alike(left_forest: list[GameTree], right_forest: list[GameTree], pin: Pin):
    """The relabel decision: the left forest's `canon.labeled_keys` under
    its first candidate labeling and the right's under the first candidate
    whose forest key equals it, or None when no candidate's does.

    Sizes, player counts, pinned player sets and profiles reject first; each
    side's cache carries its label signatures from the profile to the
    keying.  No minimum is needed on either side.  A relabeling that makes
    the forests match preserves the renaming-invariant signatures, so it
    carries the left's labeling to a numbering of the right sorted by
    signature, which `canon.assignments_for` lists, and under which the
    right keys as the left does.
    """
    if len(left_forest) != len(right_forest):
        return None
    if not left_forest:
        raise TreeInvariantError("empty forest")
    left_players, right_players = left_forest[0].players, right_forest[0].players
    if len(left_players) != len(right_players):
        return None
    if "players" in pin and sorted(left_players) != sorted(right_players):
        return None
    l_cache: dict = {}
    r_cache: dict = {}
    if canon.forest_profile(left_forest, pin, l_cache) != canon.forest_profile(
        right_forest, pin, r_cache
    ):
        return None
    first = canon.assignments_for(left_forest, pin, l_cache)[0]
    lkeyed = canon.labeled_keys(left_forest, first, pin)
    rkeyed = canon.best_assignment_with_keys(right_forest, pin, r_cache, target=lkeyed[0])
    return (lkeyed, rkeyed) if lkeyed[0] == rkeyed[0] else None


def equivalent_up_to_relabeling(
    left: ForestLike, right: ForestLike, pin=()
) -> Optional[EquivalenceWitness]:
    """Decide equivalence up to relabeling; a witness on success, else None.

    Accepts single trees or forests; a forest comparison requires a
    bijection between member trees with one global player map and one global
    outcome map across the whole forest.  The keys decide (`_keyed_alike`);
    the witness is read off the labelings and the key pass's orders.
    """
    left_forest = _as_forest(left)
    right_forest = _as_forest(right)
    keyed = _keyed_alike(left_forest, right_forest, _as_pin(pin))
    if keyed is None:
        return None
    lkeyed, rkeyed = keyed
    _, (l_players, l_outcomes), lkeys, lorders = lkeyed
    _, (r_players, r_outcomes), rkeys, rorders = rkeyed
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
        lt, rt = left_forest[li], right_forest[ri]
        relation = _walk_pair(
            lt, rt, lkeys[li], lorders[li], rkeys[ri], rorders[ri],
            canon.axes(lt.players, l_players), canon.axes(rt.players, r_players),
        )
        if relation is None:
            return None
        pairs.append(TreePairWitness(li, ri, *relation))
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
    return dup
