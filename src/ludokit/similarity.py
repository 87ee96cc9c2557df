"""Sampling-based similarity between two game systems under a state map.

Given a supplied correspondence between the state spaces (a track bijection
with per-track value bijections, optionally extended to players and
outcomes), similarity is estimated by sampling states s uniformly, building
depth-bounded partial trees at s and at its image, normalizing both
(reductions touching the truncated frontier are skipped), and scoring 1
when the normal forms are equivalent up to relabeling under the pinning the
map induces.  The average match rate is reported with a 95% Wilson score
interval.

One call builds all its roots into one arena per side and normalizes them
with one normalizer per side, so subtrees that roots share are built and
normalized once.  The right side's arena is built in the left game's names,
the players and outcomes psi maps it back to, so each root is decided by the
relabel comparison's keys on the two forms as they stand, and no witness is
built (`_SharedArenas`).

Where psi maps players and outcomes, a root is first decided on its two
built trees: when their literal keys (players and outcomes pinned) are
equal, it matches, and neither tree is normalized.  This is sound because
the normal form is a function of the tree up to isomorphism under pinned
players and outcomes: trees with equal literal keys are isomorphic under
that pin, so their normal forms have equal literal keys too.  Only a match
takes the shortcut: every root whose built trees key differently is
normalized, and its normal forms decide it.

Sampling is uniform over the full track product by default ("all" scope),
which compares the rules beyond just legally reachable play; "reachable"
restricts to the forward closure of the initial states.  The sample list is
pre-generated from the seed, so reports are deterministic.
"""

from __future__ import annotations

import json
import random
from statistics import NormalDist
from typing import NamedTuple, Optional

from . import canon, equiv, reduce as reduce_mod
from .core import (
    GameState,
    GameSystem,
    SlotRecord,
    enumerate_states,
    reachable_states,
    typed_record,
)
from .errors import LudokitError, NoRuleMatchesError, StateMapError
# `build_tree` is looked up here by the benchmark's tracer (perfbench/spans.py).
from .tree import ArenaBuilder, build_tree  # noqa: F401


def wilson_interval(successes: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (valid at small n)."""
    if trials <= 0:
        return (0.0, 1.0)
    z = NormalDist().inv_cdf(0.5 + level / 2)
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    margin = (z / denom) * (phat * (1 - phat) / trials + z * z / (4 * trials * trials)) ** 0.5
    low = 0.0 if successes == 0 else max(0.0, center - margin)
    high = 1.0 if successes == trials else min(1.0, center + margin)
    return (low, high)


# ---------------------------------------------------------------------------
# State maps
# ---------------------------------------------------------------------------


@typed_record
class StateMap(NamedTuple):
    """A track/value bijection from one system's state space to another's.

    `tracks` maps source track names to target track names; `values` maps,
    per source track, each source value to a target value.  Optional player
    and outcome bijections extend the correspondence and pin the equivalence
    check accordingly.
    """

    tracks: dict[str, str]
    values: dict[str, dict[str, str]]
    players: Optional[dict[str, str]] = None
    outcomes: Optional[dict[str, str]] = None

    def validate(self, src: GameSystem, dst: GameSystem) -> None:
        src_tracks = {t.name: t for t in src.tracks}
        dst_tracks = {t.name: t for t in dst.tracks}
        if sorted(self.tracks) != sorted(src_tracks):
            raise StateMapError("track map does not cover exactly the source tracks")
        if sorted(self.tracks.values()) != sorted(dst_tracks):
            raise StateMapError("track map is not a bijection onto the target tracks")
        for name in self.values:
            if name not in self.tracks:
                raise StateMapError(f"value map for unknown track {name!r}")
        for name, target in self.tracks.items():
            vmap = self.values.get(name)
            if vmap is None:
                raise StateMapError(f"missing value map for track {name!r}")
            if sorted(vmap) != sorted(src_tracks[name].values):
                raise StateMapError(f"value map for {name!r} does not cover its values")
            if sorted(vmap.values()) != sorted(dst_tracks[target].values):
                raise StateMapError(
                    f"value map for {name!r} is not a bijection onto {target!r}"
                )
        if self.players is not None:
            if sorted(self.players) != sorted(src.players) or sorted(
                self.players.values()
            ) != sorted(dst.players):
                raise StateMapError("player map is not a bijection between player lists")
        if self.outcomes is not None:
            if sorted(self.outcomes) != sorted(src.outcomes) or sorted(
                self.outcomes.values()
            ) != sorted(dst.outcomes):
                raise StateMapError("outcome map is not a bijection between outcome sets")

    def inverse(self) -> "StateMap":
        inv_values = {
            self.tracks[name]: {v2: v1 for v1, v2 in vmap.items()}
            for name, vmap in self.values.items()
        }
        return StateMap(
            tracks={v: k for k, v in self.tracks.items()},
            values=inv_values,
            players=None if self.players is None else {v: k for k, v in self.players.items()},
            outcomes=None if self.outcomes is None else {v: k for k, v in self.outcomes.items()},
        )

    @staticmethod
    def identity(src: GameSystem, dst: GameSystem) -> "StateMap":
        """The identity map; valid only when track/value names coincide."""
        return StateMap(
            tracks={t.name: t.name for t in src.tracks},
            values={t.name: {v: v for v in t.values} for t in src.tracks},
        )

    @staticmethod
    def from_json(text: str) -> "StateMap":
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise StateMapError(f"malformed state map JSON: {exc}") from exc
        if not isinstance(doc, dict) or "tracks" not in doc or "values" not in doc:
            raise StateMapError("state map JSON needs 'tracks' and 'values' objects")

        def names(value, where: str) -> dict[str, str]:
            if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
                raise StateMapError(f"state map {where} must be an object of names")
            return dict(value)

        if not isinstance(doc["values"], dict):
            raise StateMapError("state map 'values' must be an object")
        return StateMap(
            tracks=names(doc["tracks"], "'tracks'"),
            values={k: names(v, f"'values' entry {k!r}") for k, v in doc["values"].items()},
            players=names(doc["players"], "'players'") if doc.get("players") else None,
            outcomes=names(doc["outcomes"], "'outcomes'") if doc.get("outcomes") else None,
        )

    def to_json(self) -> str:
        doc = {"tracks": self.tracks, "values": self.values}
        if self.players is not None:
            doc["players"] = self.players
        if self.outcomes is not None:
            doc["outcomes"] = self.outcomes
        return json.dumps(doc, indent=2) + "\n"


def apply_state_map(psi: StateMap, state: GameState, src: GameSystem, dst: GameSystem) -> GameState:
    """Permute tracks and map each value through its bijection."""
    dst_index = {t.name: i for i, t in enumerate(dst.tracks)}
    values: list[Optional[str]] = [None] * len(dst.tracks)
    for i, track in enumerate(src.tracks):
        values[dst_index[psi.tracks[track.name]]] = psi.values[track.name][state[i]]
    return tuple(values)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Similarity estimation
# ---------------------------------------------------------------------------


@typed_record
class SampleRecord(NamedTuple):
    state: GameState
    mapped_state: GameState
    matched: bool
    completeness_gap: bool = False


class SimilarityReport(SlotRecord):
    __slots__ = (
        "estimate", "samples", "matches", "confidence_level", "interval_low",
        "interval_high", "depth", "seed", "scope", "completeness_gaps", "records",
    )
    _fields = __slots__
    _hidden = frozenset({"records"})

    def __init__(
        self,
        estimate: float,
        samples: int,
        matches: int,
        confidence_level: float,
        interval_low: float,
        interval_high: float,
        depth: int,
        seed: int,
        scope: str,
        completeness_gaps: int = 0,
        records: Optional[list[SampleRecord]] = None,
    ):
        self.estimate = estimate
        self.samples = samples
        self.matches = matches
        self.confidence_level = confidence_level
        self.interval_low = interval_low
        self.interval_high = interval_high
        self.depth = depth
        self.seed = seed
        self.scope = scope
        self.completeness_gaps = completeness_gaps
        self.records = records

    def to_json(self) -> str:
        doc = {
            "estimate": self.estimate,
            "samples": self.samples,
            "matches": self.matches,
            "confidence": {
                "level": self.confidence_level,
                "low": self.interval_low,
                "high": self.interval_high,
            },
            "parameters": {"depth": self.depth, "seed": self.seed, "scope": self.scope},
            "completeness_gaps": self.completeness_gaps,
        }
        if self.records is not None:
            doc["records"] = [
                {
                    "state": list(r.state),
                    "mapped_state": list(r.mapped_state),
                    "matched": r.matched,
                    "completeness_gap": r.completeness_gap,
                }
                for r in self.records
            ]
        return json.dumps(doc, indent=2) + "\n"

    def summary(self) -> str:
        return (
            f"similarity estimate {self.estimate:.4f} "
            f"({self.matches}/{self.samples} matched, "
            f"{int(self.confidence_level * 100)}% Wilson interval "
            f"[{self.interval_low:.4f}, {self.interval_high:.4f}], "
            f"depth {self.depth}, scope {self.scope}, seed {self.seed})"
        )


class _SharedArenas:
    """The roots of one similarity call: per side, one arena that every
    root's depth-limited tree is built into and one normalizer over it, so
    a subtree two roots reach is built, normalized and keyed once.

    The right arena speaks the left game's names: psi's inverse player and
    outcome maps rename its labels as they are written (`ArenaBuilder`), so
    its forms are the right forms relabeled, and no relabeled copy is made.
    A root is decided with no witness.  Where psi maps players and
    outcomes, both label classes are pinned, and literal keys decide: equal
    literal keys are equivalence under that pin.  The built trees are keyed
    first, by one key memo per side over its arena.  The normal form is a
    function of the tree up to isomorphism under pinned players and
    outcomes, so built trees with equal keys have normal forms with equal
    keys, and the root matches unnormalized.  Otherwise the two normalizers'
    key memos (the memos they group symmetric siblings by) decide on the
    forms.  Where psi leaves a label class unmapped, the two rooted forms
    are decided by `equiv._keyed_alike`, the decision of
    `equiv.equivalent_up_to_relabeling`, under the pins psi gives.  A side's
    normalizer is made when a root first needs it.

    A root whose build meets a decision tuple no consequence rule matches
    is a completeness gap, and its side's arena is left as it was, so a
    later root that reaches the same states is one too.  Roots are keyed
    only once both builds succeeded, so no node a failed build made, whose
    id the arena hands out again, is ever keyed.
    """

    def __init__(self, left: GameSystem, right: GameSystem, psi: StateMap, depth: int):
        self.left, self.right, self.psi = left, right, psi
        back = psi.inverse()
        self.builders = (
            ArenaBuilder(left, depth),
            ArenaBuilder(right, depth, players=back.players, outcomes=back.outcomes),
        )
        self._normalizers: list[Optional[reduce_mod.Normalizer]] = [None, None]
        self.pin = frozenset(
            name for name, m in (("players", psi.players), ("outcomes", psi.outcomes))
            if m is not None
        )
        self.literal_keys = (
            tuple(canon.make_key_fn(b.tree) for b in self.builders)
            if self.pin == canon.PIN_SYMMETRY else None
        )

    def normalizer(self, side: int) -> reduce_mod.Normalizer:
        """The normalizer over side `side`'s arena (0 left, 1 right)."""
        norm = self._normalizers[side]
        if norm is None:
            norm = self._normalizers[side] = reduce_mod.normalizer(self.builders[side].tree)
        return norm

    def compare(self, state: GameState) -> SampleRecord:
        """Score one state."""
        mapped = apply_state_map(self.psi, state, self.left, self.right)
        lbuild, rbuild = self.builders
        try:
            lroot = lbuild.add_root(state)
            rroot = rbuild.add_root(mapped)
        except NoRuleMatchesError:
            return SampleRecord(state, mapped, matched=False, completeness_gap=True)
        if self.literal_keys is not None:
            lkey, rkey = self.literal_keys
            if lkey(lroot) == rkey(rroot):
                return SampleRecord(state, mapped, matched=True)
        lnorm, rnorm = self.normalizer(0), self.normalizer(1)
        lform, rform = lnorm.form(lroot), rnorm.form(rroot)
        if self.literal_keys is not None:
            matched = lnorm.key_fn(lform) == rnorm.key_fn(rform)
        else:
            matched = equiv._keyed_alike(
                [lnorm.out.rooted(lform)], [rnorm.out.rooted(rform)], self.pin
            ) is not None
        return SampleRecord(state, mapped, matched=matched)


def _scope_pool(sys: GameSystem, scope: str) -> Optional[list[GameState]]:
    """The states a scope draws from: under "reachable", the reachable
    states sorted; under "all", None (every track's values combine)."""
    if scope == "all":
        return None
    if scope == "reachable":
        return sorted(reachable_states(sys))
    raise ValueError(f"scope must be 'all' or 'reachable', not {scope!r}")


def _scope_sampler(sys: GameSystem, scope: str, rng: random.Random):
    pool = _scope_pool(sys, scope)
    if pool is None:
        value_lists = [t.values for t in sys.tracks]

        def draw() -> GameState:
            return tuple(rng.choice(values) for values in value_lists)

        return draw

    def draw() -> GameState:
        return pool[rng.randrange(len(pool))]

    return draw


# Confidence level of the reported Wilson interval.
_CONFIDENCE_LEVEL = 0.95


def similarity(
    left: GameSystem,
    right: GameSystem,
    psi: StateMap,
    samples: int,
    depth: int,
    seed: int = 0,
    scope: str = "all",
    keep_records: bool = False,
) -> SimilarityReport:
    """Estimate how often the two systems agree on sampled states.

    Draws `samples` states uniformly from the left system's state space
    under `scope`, scores each by agency-equivalence of depth-bounded
    partial trees at s and psi(s) (pinned by psi's optional player/outcome
    maps), and averages.  The call builds and normalizes every sample's
    trees in one shared arena per side, and decides each sample by pinned
    canonical keys, with no witness: literal-code keys when psi maps players
    and outcomes, of the built trees first and of the normal forms where
    those differ, else the relabel comparison's profile check and keys over
    the labelings the pins leave.  Fixed (seed, samples, depth, scope)
    reproduce the report exactly; per-sample completeness gaps score 0 and
    are flagged.
    """
    if samples <= 0:
        raise LudokitError("similarity needs a positive sample count")
    psi.validate(left, right)
    rng = random.Random(seed)
    draw = _scope_sampler(left, scope, rng)
    states = [draw() for _ in range(samples)]
    arenas = _SharedArenas(left, right, psi, depth)
    records = [arenas.compare(state) for state in states]
    matches = sum(record.matched for record in records)
    gaps = sum(record.completeness_gap for record in records)
    low, high = wilson_interval(matches, samples, _CONFIDENCE_LEVEL)
    return SimilarityReport(
        estimate=matches / samples,
        samples=samples,
        matches=matches,
        confidence_level=_CONFIDENCE_LEVEL,
        interval_low=low,
        interval_high=high,
        depth=depth,
        seed=seed,
        scope=scope,
        completeness_gaps=gaps,
        records=records if keep_records else None,
    )


def exhaustive_proportion(
    left: GameSystem,
    right: GameSystem,
    psi: StateMap,
    depth: int,
    scope: str = "all",
) -> tuple[int, int]:
    """(matches, total) over every state in scope; the sampling-free truth.

    Every state is decided as in `similarity`: all roots are built and
    normalized in one shared arena per side, and each is decided by pinned
    canonical keys, with no witness.
    """
    psi.validate(left, right)
    pool = _scope_pool(left, scope)
    if pool is None:
        pool = list(enumerate_states(left))
    arenas = _SharedArenas(left, right, psi, depth)
    return sum(arenas.compare(state).matched for state in pool), len(pool)
