"""Sampling-based similarity between two game systems under a state map.

Given a supplied correspondence between the state spaces (a track bijection
with per-track value bijections, optionally extended to players and
outcomes), similarity is estimated by sampling states s uniformly, building
depth-bounded partial trees at s and at its image, normalizing both
(reductions touching the truncated frontier are skipped), and scoring 1
when the normal forms are equivalent up to relabeling under the pinning the
map induces.  The average match rate is reported with a 95% Wilson score
interval.

Sampling is uniform over the full track product by default ("all" scope),
which compares the rules beyond just legally reachable play; "reachable"
restricts to the forward closure of the initial states.  The sample list is
pre-generated from the seed, so reports are deterministic.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import NamedTuple, Optional

from . import equiv, reduce as reduce_mod
from .core import GameState, GameSystem, enumerate_states, reachable_states, typed_record
from .errors import LudokitError, NoRuleMatchesError, StateMapError
from .tree import build_tree


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


@dataclass
class SimilarityReport:
    estimate: float
    samples: int
    matches: int
    confidence_level: float
    interval_low: float
    interval_high: float
    depth: int
    seed: int
    scope: str
    completeness_gaps: int = 0
    records: Optional[list[SampleRecord]] = field(default=None, repr=False)

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


def _partial_normal_form(sys: GameSystem, state: GameState, depth: int):
    """The normal form of the depth-limited tree at `state`; its per-label
    facts go to the system's label cache, shared by every call."""
    form, _ = reduce_mod.normalize(build_tree(sys, state, depth_limit=depth))
    return form


def _compare_at(
    left: GameSystem,
    right: GameSystem,
    psi: StateMap,
    state: GameState,
    depth: int,
) -> SampleRecord:
    """Score one state."""
    mapped = apply_state_map(psi, state, left, right)
    try:
        lform = _partial_normal_form(left, state, depth)
        rform = _partial_normal_form(right, mapped, depth)
    except NoRuleMatchesError:
        return SampleRecord(state, mapped, matched=False, completeness_gap=True)
    pin = set()
    player_map = outcome_map = None
    if psi.players is not None:
        player_map = {v: k for k, v in psi.players.items()}
        pin.add("players")
    if psi.outcomes is not None:
        outcome_map = {v: k for k, v in psi.outcomes.items()}
        pin.add("outcomes")
    if pin:
        rform = equiv.relabel_tree(rform, player_map, outcome_map)
    witness = equiv.equivalent_up_to_relabeling(lform, rform, pin=pin)
    return SampleRecord(state, mapped, matched=witness is not None)


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


def similarity(
    left: GameSystem,
    right: GameSystem,
    psi: StateMap,
    samples: int,
    depth: int,
    seed: int = 0,
    scope: str = "all",
    confidence_level: float = 0.95,
    keep_records: bool = False,
) -> SimilarityReport:
    """Estimate how often the two systems agree on sampled states.

    Draws `samples` states uniformly from the left system's state space
    under `scope`, scores each by agency-equivalence of depth-bounded
    partial trees at s and psi(s) (pinned by psi's optional player/outcome
    maps), and averages.  Fixed (seed, samples, depth, scope) reproduce the
    report exactly; per-sample completeness gaps score 0 and are flagged.
    """
    if samples <= 0:
        raise LudokitError("similarity needs a positive sample count")
    psi.validate(left, right)
    rng = random.Random(seed)
    draw = _scope_sampler(left, scope, rng)
    states = [draw() for _ in range(samples)]
    records = []
    matches = 0
    gaps = 0
    for state in states:
        record = _compare_at(left, right, psi, state, depth)
        records.append(record)
        if record.matched:
            matches += 1
        if record.completeness_gap:
            gaps += 1
    low, high = wilson_interval(matches, samples, confidence_level)
    return SimilarityReport(
        estimate=matches / samples,
        samples=samples,
        matches=matches,
        confidence_level=confidence_level,
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
    """(matches, total) over every state in scope; the sampling-free truth."""
    psi.validate(left, right)
    pool = _scope_pool(left, scope)
    if pool is None:
        pool = list(enumerate_states(left))
    matches = 0
    for state in pool:
        if _compare_at(left, right, psi, state, depth).matched:
            matches += 1
    return matches, len(pool)
