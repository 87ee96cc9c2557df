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
and the global player/outcome maps.  `verify_witness` replays the defining
conditions directly on the trees, independently of the key machinery, and
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
from hashlib import blake2b
from typing import Iterator, Optional, Union

from . import canon, reduce as reduce_mod
from .core import GameSystem
from .errors import LudokitError
from .tree import (
    CHANCE,
    DecisionMatrix,
    GameTree,
    STATE,
    TERMINAL,
    TRUNCATED,
    build_forest,
    decision_matrix,
)

Pin = frozenset
ForestLike = Union[GameTree, list]


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


@dataclass(frozen=True)
class Skeleton:
    """Pure shape of a tree: node/edge arrangement only, no labels, no kinds."""

    digest: bytes
    node_count: int


def _shape_keys(tree: GameTree) -> dict[int, bytes]:
    keys: dict[int, bytes] = {}
    for n in canon._postorder(tree, tree.root):
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
    lazily.
    """
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


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------


@dataclass
class TreePairWitness:
    left_index: int
    right_index: int
    node_map: dict[int, int]


@dataclass
class EquivalenceWitness:
    """Correspondence bundle certifying equivalence up to relabeling.

    Carries the global player and outcome bijections, one node map per
    paired tree, and references to the forests it relates (for agency
    verdicts these are the normal forms).  Per-node choice maps are derived
    on demand from the node map, which fixes the edge correspondence.
    """

    player_map: dict[str, str]
    outcome_map: dict[str, str]
    pairs: list[TreePairWitness]
    left_forest: list[GameTree] = field(repr=False)
    right_forest: list[GameTree] = field(repr=False)

    def choice_maps(self, pair: TreePairWitness, left_node: int) -> Optional[dict]:
        lt = self.left_forest[pair.left_index]
        rt = self.right_forest[pair.right_index]
        if lt.node_kind[left_node] != STATE:
            return None
        right_node = pair.node_map[left_node]
        edge_map = _induced_edge_map(lt, rt, pair.node_map, left_node, right_node)
        if edge_map is None:
            return None
        return match_matrices(
            decision_matrix(lt, left_node),
            decision_matrix(rt, right_node),
            self.player_map,
            edge_map,
        )

    def to_json(self) -> str:
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
            lt = self.left_forest[pair.left_index]
            entry = {
                "left": pair.left_index,
                "right": pair.right_index,
                "nodes": {str(u): v for u, v in sorted(pair.node_map.items())},
                "choices": {},
            }
            for u in sorted(pair.node_map):
                if lt.node_kind[u] != STATE:
                    continue
                lam = self.choice_maps(pair, u)
                if lam is None:
                    continue
                entry["choices"][str(u)] = {
                    p: {json.dumps(choice_repr(a)): choice_repr(b) for a, b in m.items()}
                    for p, m in lam.items()
                }
            doc["trees"].append(entry)
        return json.dumps(doc, indent=2) + "\n"


def _induced_edge_map(
    lt: GameTree, rt: GameTree, node_map: dict[int, int], u: int, v: int
) -> Optional[dict[int, int]]:
    edge_map: dict[int, int] = {}
    for e in lt.node_children[u]:
        dst = lt.edge_dst[e]
        rdst = node_map.get(dst)
        if rdst is None:
            return None
        re = rt.node_parent_edge[rdst]
        if re < 0 or rt.edge_src[re] != v:
            return None
        edge_map[e] = re
    return edge_map


def invert_witness(witness: EquivalenceWitness) -> EquivalenceWitness:
    return EquivalenceWitness(
        player_map={v: k for k, v in witness.player_map.items()},
        outcome_map={v: k for k, v in witness.outcome_map.items()},
        pairs=[
            TreePairWitness(
                p.right_index, p.left_index, {v: k for k, v in p.node_map.items()}
            )
            for p in witness.pairs
        ],
        left_forest=witness.right_forest,
        right_forest=witness.left_forest,
    )


def compose_witnesses(
    first: EquivalenceWitness, second: EquivalenceWitness
) -> EquivalenceWitness:
    """The witness left-to-right across two comparisons sharing a middle forest."""
    by_left = {p.left_index: p for p in second.pairs}
    pairs = []
    for p in first.pairs:
        q = by_left[p.right_index]
        pairs.append(
            TreePairWitness(
                p.left_index,
                q.right_index,
                {u: q.node_map[v] for u, v in p.node_map.items()},
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
    """Replay the defining conditions on the trees; empty list means valid."""
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

    seen_out: set[str] = set()
    for pair in witness.pairs:
        lt = left_forest[pair.left_index]
        rt = right_forest[pair.right_index]
        f = pair.node_map
        lnodes = list(lt.iter_nodes())
        if sorted(f) != sorted(lnodes):
            if report(f"tree {pair.left_index}: node map domain is not the node set"):
                return problems
            continue
        if len(set(f.values())) != len(f) or set(f.values()) != set(rt.iter_nodes()):
            if report(f"tree {pair.left_index}: node map is not a bijection"):
                return problems
            continue
        if f[lt.root] != rt.root:
            if report(f"tree {pair.left_index}: root does not map to root"):
                return problems
        for u in lnodes:
            v = f[u]
            lkind, rkind = lt.node_kind[u], rt.node_kind[v]
            if lkind != rkind:
                if report(f"node {u}: kind {lt.kind_name(u)} maps to {rt.kind_name(v)}"):
                    return problems
                continue
            if "states" in pin and lt.node_state[u] != rt.node_state[v]:
                if report(f"node {u}: states pinned but labels differ"):
                    return problems
            edge_map = _induced_edge_map(lt, rt, f, u, v)
            if edge_map is None or len(set(edge_map.values())) != len(
                rt.node_children[v]
            ):
                if report(f"node {u}: children do not correspond under the map"):
                    return problems
                continue
            if lkind == CHANCE:
                for e, re in edge_map.items():
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
                lam = match_matrices(
                    decision_matrix(lt, u),
                    decision_matrix(rt, v),
                    pm,
                    edge_map,
                )
                if lam is None:
                    if report(f"node {u}: decision matrices do not match"):
                        return problems
    missing = seen_out - set(om)
    if missing:
        problems.append(f"outcome map misses outcomes {sorted(missing)}")
    return problems


# ---------------------------------------------------------------------------
# Equivalence up to relabeling
# ---------------------------------------------------------------------------


def _pair_trees_by_key(
    left_forest, right_forest, lkeys_roots, rkeys_roots
) -> Optional[list[tuple[int, int]]]:
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


def _walk_pair(
    lt: GameTree,
    rt: GameTree,
    lkeys: dict[int, bytes],
    rkeys: dict[int, bytes],
    l_axis: list[int],
    r_axis: list[int],
) -> Optional[dict[int, int]]:
    node_map: dict[int, int] = {}
    stack = [(lt.root, rt.root)]
    while stack:
        u, v = stack.pop()
        node_map[u] = v
        if lkeys[u] != rkeys[v] or lt.node_kind[u] != rt.node_kind[v]:
            return None
        kind = lt.node_kind[u]
        if kind in (TERMINAL, TRUNCATED):
            continue
        if kind == CHANCE:
            lgroups: dict = {}
            for e in lt.node_children[u]:
                lgroups.setdefault(
                    (str(lt.edge_prob[e]), lkeys[lt.edge_dst[e]]), []
                ).append(lt.edge_dst[e])
            rgroups: dict = {}
            for e in rt.node_children[v]:
                rgroups.setdefault(
                    (str(rt.edge_prob[e]), rkeys[rt.edge_dst[e]]), []
                ).append(rt.edge_dst[e])
            if sorted(lgroups) != sorted(rgroups):
                return None
            for key, lmembers in lgroups.items():
                rmembers = rgroups[key]
                if len(lmembers) != len(rmembers):
                    return None
                stack.extend(zip(lmembers, rmembers))
        else:
            lenc, ledges = canon.ordered_edges(lt, u, l_axis, lkeys)
            renc, redges = canon.ordered_edges(rt, v, r_axis, rkeys)
            if lenc != renc:
                return None
            stack.extend(
                (lt.edge_dst[le], rt.edge_dst[re]) for le, re in zip(ledges, redges)
            )
    return node_map


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
    lkey, l_assign, l_key_dicts = canon.best_assignment_with_keys(left_forest, pin, cache=l_cache)
    rkey, r_assign, r_key_dicts = canon.best_assignment_with_keys(right_forest, pin, cache=r_cache)
    if lkey != rkey:
        return None

    lcodes = l_assign.players()
    rcodes = r_assign.players()
    player_map = {}
    rev = {code: p for p, code in rcodes.items()}
    for p, code in lcodes.items():
        if code not in rev:
            return None
        player_map[p] = rev[code]
    l_out = l_assign.outcomes()
    r_out = r_assign.outcomes()
    rev_out = {code: o for o, code in r_out.items()}
    outcome_map = {}
    for o, code in l_out.items():
        if code not in rev_out:
            return None
        outcome_map[o] = rev_out[code]

    pairs: list[TreePairWitness] = []
    l_root_keys = [keys[t.root] for t, keys in zip(left_forest, l_key_dicts)]
    r_root_keys = [keys[t.root] for t, keys in zip(right_forest, r_key_dicts)]
    tree_pairs = _pair_trees_by_key(left_forest, right_forest, l_root_keys, r_root_keys)
    if tree_pairs is None:
        return None
    for li, ri in tree_pairs:
        lt, rt = left_forest[li], right_forest[ri]
        l_axis = sorted(range(len(lt.players)), key=lambda i: lcodes[lt.players[i]])
        r_axis = sorted(range(len(rt.players)), key=lambda i: rcodes[rt.players[i]])
        node_map = _walk_pair(lt, rt, l_key_dicts[li], r_key_dicts[ri], l_axis, r_axis)
        if node_map is None:
            return None
        pairs.append(TreePairWitness(li, ri, node_map))
    return EquivalenceWitness(player_map, outcome_map, pairs, left_forest, right_forest)


# ---------------------------------------------------------------------------
# Agency equivalence
# ---------------------------------------------------------------------------


def _normal_forms(value, consume: bool) -> list[GameTree]:
    if isinstance(value, GameSystem):
        forest = build_forest(value)
        return [reduce_mod.normalize(t, consume=True)[0] for t in forest]
    forest = _as_forest(value)
    return [reduce_mod.normalize(t, consume=consume)[0] for t in forest]


def agency_equivalent(
    left: Union[GameSystem, ForestLike], right: Union[GameSystem, ForestLike]
) -> Optional[EquivalenceWitness]:
    """Normalize both sides, then compare up to relabeling.

    Accepts game systems (their full forests are built), single trees, or
    forests.  The returned witness refers to the normal forms, which it
    carries as its forests.
    """
    left_forms = _normal_forms(left, consume=False)
    right_forms = _normal_forms(right, consume=False)
    return equivalent_up_to_relabeling(left_forms, right_forms)


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
