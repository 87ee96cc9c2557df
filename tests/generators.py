"""Seeded random generators for property-style tests."""

from __future__ import annotations

import random
from fractions import Fraction

from ludokit.core import (
    ActionClause,
    ActionDef,
    And,
    ConsequenceRule,
    GameSystem,
    LegalityRule,
    Lit,
    Not,
    Or,
    OutcomeRule,
    Ref,
    TrackSpec,
    WILDCARD,
)
from ludokit.tree import CHANCE, CHANCE_EDGE, DECISION_EDGE, GameTree, STATE, TERMINAL, TRUNCATED


# ---------------------------------------------------------------------------
# Random game trees
# ---------------------------------------------------------------------------


def _clone_subtree(tree: GameTree, node: int) -> int:
    dup = tree.add_node(tree.node_kind[node], tree.node_state[node], tree.node_outcome[node])
    for e in tree.node_children[node]:
        child = _clone_subtree(tree, tree.edge_dst[e])
        tree.add_edge(dup, child, tree.edge_kind[e], tree.edge_prob[e], tree.edge_label[e])
    return dup


def random_tree(
    rng: random.Random,
    max_nodes: int = 60,
    n_players: int = 2,
    outcomes: tuple[str, ...] = ("w1", "w2", "w3"),
    allow_truncated: bool = False,
) -> GameTree:
    """A random valid game tree, salted with reducible patterns.

    Symmetry sites appear through cloned sibling subtrees, bookkeeping sites
    through single-choice nodes, single-player sites through same-owner
    chains, and matrix redundancies through choices sharing an edge.
    """
    players = ("P1", "P2", "P3")[:n_players]
    tree = GameTree(players)
    budget = [rng.randint(4, max_nodes)]

    def leaf() -> int:
        if allow_truncated and rng.random() < 0.1:
            return tree.add_node(TRUNCATED)
        return tree.add_node(TERMINAL, outcome=rng.choice(outcomes))

    def gen(depth: int, forbid_chance: bool, prefer_owner: int | None) -> int:
        if budget[0] <= 1 or depth >= 6 or rng.random() < 0.18 + depth * 0.08:
            return leaf()
        budget[0] -= 1
        roll = rng.random()
        if not forbid_chance and roll < 0.25:
            node = tree.add_node(CHANCE)
            k = rng.randint(2, 3)
            weights = [rng.randint(1, 4) for _ in range(k)]
            total = sum(weights)
            merged = None
            for i, w in enumerate(weights):
                if merged is not None and rng.random() < 0.3:
                    child = _clone_subtree(tree, merged)
                else:
                    child = gen(depth + 1, True, None)
                    merged = child
                tree.add_edge(node, child, CHANCE_EDGE, prob=Fraction(w, total))
            return node
        node = tree.add_node(STATE)
        if prefer_owner is not None and rng.random() < 0.7:
            active = [prefer_owner]
        else:
            k = 1 if rng.random() < 0.7 else min(2, n_players)
            active = rng.sample(range(n_players), k)
        choices: list[list] = []
        for p in range(n_players):
            if p in active:
                count = rng.randint(1, 3) if len(active) == 1 else rng.randint(2, 3)
                choices.append([f"{players[p]}d{i}" for i in range(count)])
            else:
                choices.append([None])
        joints = []
        import itertools as it

        for combo in it.product(*choices):
            joints.append(tuple(combo))
        rng.shuffle(joints)
        n_edges = rng.randint(1, len(joints))
        groups: list[list] = [[] for _ in range(n_edges)]
        for i, joint in enumerate(joints):
            groups[i % n_edges].append(joint)
        owner = active[0] if len(active) == 1 else None
        first_child = None
        for group in groups:
            label = frozenset({(joint,) for joint in group})
            if first_child is not None and rng.random() < 0.25:
                child = _clone_subtree(tree, first_child)
            else:
                child = gen(depth + 1, False, owner if rng.random() < 0.6 else None)
                first_child = child
            tree.add_edge(node, child, DECISION_EDGE, label=label)
        return node

    root = gen(0, True, None)
    if tree.node_kind[root] == CHANCE:  # roots must be state-like
        root = leaf()
    tree.root = root
    return tree


def small_trees_corpus(seed: int = 7):
    """The benchmark's small-trees corpus under one seed's relabelings.

    Yields (tree, player map, outcome map) for each of its 200 trees: the
    shape comes from ``corpus/<k>`` and the maps from ``<seed>/<k>``.
    """
    for k in range(200):
        shape = random.Random(f"corpus/{k}")
        t = random_tree(shape, max_nodes=shape.randint(20, 200), n_players=shape.choice((2, 3)))
        maps = random.Random(f"{seed}/{k}")
        players = list(t.players)
        outcomes = ["w1", "w2", "w3"]
        yield (
            t,
            dict(zip(players, maps.sample(players, len(players)))),
            dict(zip(outcomes, maps.sample(outcomes, len(outcomes)))),
        )


# ---------------------------------------------------------------------------
# Random game systems (for serializer round trips)
# ---------------------------------------------------------------------------


def _random_expr(rng: random.Random, tracks: list[TrackSpec], sets: list[str], depth: int = 0):
    roll = rng.random()
    if depth >= 2 or roll < 0.45 or (not sets and roll < 0.6):
        track = rng.choice(tracks)
        return Lit(track.name, rng.choice(track.values))
    if sets and roll < 0.55:
        return Ref(rng.choice(sets))
    if roll < 0.7:
        return Not(_random_expr(rng, tracks, sets, depth + 1))
    parts = tuple(
        _random_expr(rng, tracks, sets, depth + 1) for _ in range(rng.randint(2, 3))
    )
    flat: list = []
    cls = And if roll < 0.85 else Or
    for p in parts:
        if isinstance(p, cls):
            flat.extend(p.parts)
        else:
            flat.append(p)
    return cls(tuple(flat))


def _random_partition(rng: random.Random, parts: int) -> list[Fraction]:
    weights = [rng.randint(1, 5) for _ in range(parts)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def random_system(rng: random.Random) -> GameSystem:
    """A small structurally valid game system (not necessarily complete)."""
    n_players = rng.randint(1, 2)
    players = tuple(f"p{i}" for i in range(n_players))
    tracks = [
        TrackSpec(f"t{i}", tuple(f"v{j}" for j in range(rng.randint(2, 3))))
        for i in range(rng.randint(1, 3))
    ]
    decisions = tuple(f"d{i}" for i in range(rng.randint(1, 3)))
    set_names: list[str] = []
    named_sets = {}
    for i in range(rng.randint(0, 2)):
        name = f"S{i}"
        named_sets[name] = _random_expr(rng, tracks, set_names)
        set_names.append(name)
    actions = {}
    for i in range(rng.randint(1, 3)):
        name = f"a{i}"
        clauses = []
        for _ in range(rng.randint(1, 2)):
            guard = None if rng.random() < 0.4 else _random_expr(rng, tracks, set_names)
            n_assign = rng.randint(1, min(2, len(tracks)))
            chosen = rng.sample(tracks, n_assign)
            clauses.append(
                ActionClause(guard, tuple((t.name, rng.choice(t.values)) for t in chosen))
            )
        actions[name] = ActionDef(name, tuple(clauses))
    legality = tuple(
        LegalityRule(
            rng.choice(players), rng.choice(decisions), _random_expr(rng, tracks, set_names)
        )
        for _ in range(rng.randint(0, 4))
    )
    cons = []
    for _ in range(rng.randint(1, 3)):
        pattern = tuple(
            rng.choice([rng.choice(decisions), None, WILDCARD]) for _ in players
        )
        guard = None if rng.random() < 0.5 else _random_expr(rng, tracks, set_names)
        probs = _random_partition(rng, rng.randint(1, 3))
        results = tuple(
            (p, tuple(rng.choice(sorted(actions)) for _ in range(rng.randint(1, 2))))
            for p in probs
        )
        cons.append(ConsequenceRule(pattern, guard, results))
    outcome_names = [f"o{i}" for i in range(rng.randint(1, 3))]
    outcome_rules = tuple(
        OutcomeRule(_random_expr(rng, tracks, set_names), rng.choice(outcome_names))
        for _ in range(rng.randint(0, 2))
    )
    default = rng.choice(outcome_names)
    ordered_outcomes = []
    for rule in outcome_rules:
        if rule.outcome not in ordered_outcomes:
            ordered_outcomes.append(rule.outcome)
    if default not in ordered_outcomes:
        ordered_outcomes.append(default)
    init_track = rng.choice(tracks)
    return GameSystem(
        players=players,
        tracks=tuple(tracks),
        init=Lit(init_track.name, rng.choice(init_track.values)),
        decisions=decisions,
        actions=actions,
        consequence_rules=tuple(cons),
        legality_rules=legality,
        outcomes=tuple(ordered_outcomes),
        outcome_rules=outcome_rules,
        default_outcome=default,
        named_sets=named_sets,
        name=f"random{rng.randint(0, 999)}",
    )


# ---------------------------------------------------------------------------
# Malformed arenas
# ---------------------------------------------------------------------------


def two_node_cycle() -> GameTree:
    """The arena a -> b -> a: `GameTree.add_edge` allows it, and every walk
    of the library must refuse it."""
    t = GameTree(("P",))
    a, b = t.add_node(STATE), t.add_node(STATE)
    t.root = a
    t.add_edge(a, b, DECISION_EDGE, label=frozenset({(("x",),)}))
    t.add_edge(b, a, DECISION_EDGE, label=frozenset({(("y",),)}))
    return t
