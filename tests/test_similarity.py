"""State maps, sampling-based similarity, Wilson intervals."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_text
from ludokit import canon, core, equiv, reduce, tree
from ludokit.dsl import parse_game
from ludokit.errors import LudokitError, StateMapError
from ludokit.similarity import (
    StateMap,
    apply_state_map,
    exhaustive_proportion,
    similarity,
    wilson_interval,
)


@pytest.fixture(scope="module")
def magic_psi():
    return StateMap.from_json(fixture_text("magic_square_psi.json"))


@pytest.fixture(scope="module")
def mixed_psi():
    return StateMap.from_json(fixture_text("mixed_psi.json"))


class TestWilson:
    def test_basic_properties(self):
        for successes, trials in [(0, 10), (5, 10), (10, 10), (1, 3), (450, 500)]:
            low, high = wilson_interval(successes, trials)
            assert 0.0 <= low <= successes / trials <= high <= 1.0

    def test_small_sample_never_degenerate(self):
        low, high = wilson_interval(10, 10)
        assert high == 1.0 and low < 1.0
        low, high = wilson_interval(0, 10)
        assert low == 0.0 and high > 0.0

    def test_no_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_known_value(self):
        low, high = wilson_interval(9, 10, 0.95)
        assert abs(low - 0.5958) < 0.001
        assert abs(high - 0.9821) < 0.001


class TestStateMap:
    def test_identity_roundtrip(self, systems):
        sys = systems["mixed_a"]
        psi = StateMap.identity(sys, systems["mixed_b"])
        psi.validate(sys, systems["mixed_b"])
        for s in core.enumerate_states(sys):
            assert apply_state_map(psi, s, sys, systems["mixed_b"]) == s

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tracks", [1, 2]),
            ("tracks", {"t": 1, "u": "u"}),
            ("values", "v"),
            ("values", {"t": ["e"]}),
            ("players", [1]),
        ],
    )
    def test_from_json_rejects_non_objects(self, field, value):
        doc = json.loads(fixture_text("mixed_psi.json"))
        doc[field] = value
        with pytest.raises(StateMapError, match="must be an object"):
            StateMap.from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", ['{"tracks": ', "[" * 100_000 + "]" * 100_000])
    def test_from_json_rejects_malformed_json(self, text):
        with pytest.raises(StateMapError, match="malformed state map JSON"):
            StateMap.from_json(text)

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers(-1, 2) | st.text(max_size=3),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(
                st.sampled_from(["tracks", "values", "players", "outcomes", "t", "e"])
                | st.text(max_size=2),
                inner,
                max_size=4,
            ),
            max_leaves=10,
        )
    )
    def test_from_json_raises_only_ludokit_errors(self, doc):
        try:
            StateMap.from_json(json.dumps(doc))
        except LudokitError:
            pass

    def test_magic_square_mapping(self, systems, magic_psi):
        ttt, t315 = systems["tictactoe"], systems["3to15"]
        magic_psi.validate(ttt, t315)
        assert magic_psi.tracks["c2"] == "n7"
        s = dict.fromkeys((t.name for t in ttt.tracks), "e")
        s["turn"] = "X"
        s["c2"] = "X"
        mapped = apply_state_map(magic_psi, ttt.state_from_dict(s), ttt, t315)
        assert t315.state_to_dict(mapped)["n7"] == "X"
        assert t315.state_to_dict(mapped)["turn"] == "X"

    def test_inverse_composition(self, systems, magic_psi):
        ttt, t315 = systems["tictactoe"], systems["3to15"]
        inv = magic_psi.inverse()
        inv.validate(t315, ttt)
        rng = random.Random(9)
        states = list(core.enumerate_states(ttt))
        for _ in range(100):
            s = rng.choice(states)
            assert apply_state_map(inv, apply_state_map(magic_psi, s, ttt, t315), t315, ttt) == s

    def test_invalid_maps_rejected(self, systems):
        ttt, t315 = systems["tictactoe"], systems["3to15"]
        with pytest.raises(StateMapError):
            StateMap.identity(ttt, t315).validate(ttt, t315)
        bad = StateMap.from_json(fixture_text("magic_square_psi.json"))
        bad.tracks["c1"] = "n7"  # no longer a bijection
        with pytest.raises(StateMapError):
            bad.validate(ttt, t315)

    def test_json_roundtrip(self, magic_psi):
        again = StateMap.from_json(magic_psi.to_json())
        assert again == magic_psi


class TestSimilarity:
    def test_one_label_cache_per_system(self, magic_psi, monkeypatch):
        """Every tree built from a system shares the system's label cache,
        across calls too, so each distinct tuple of edge labels is decoded
        once per system.  Freshly parsed systems start cold.  With a fresh
        cache per sampled tree, as before, the first call missed 2,907
        times; the same call again misses nothing and adds no entry, so
        repeating a call does not grow the caches."""
        left, right = (parse_game(fixture_text(f"{g}.game"), g) for g in ("tictactoe", "3to15"))
        real = tree.node_meta
        misses = []
        seen = set()

        def counting(t, node):
            labels = tuple([t.edge_label[e] for e in t.node_children[node]])
            if labels not in t.label_cache:
                misses.append((id(t.label_cache), labels))
            seen.add((id(t.label_cache), labels))
            return real(t, node)

        for module in (tree, canon, reduce, equiv):
            monkeypatch.setattr(module, "node_meta", counting)
        report = similarity(left, right, magic_psi, samples=200, depth=2)
        assert report.matches == 200
        assert {cache for cache, _ in seen} == {
            id(left.engine().label_cache), id(right.engine().label_cache)
        }
        first = len(misses)
        assert set(misses) == seen and first == len(seen) < 2907
        sizes = len(left.engine().label_cache), len(right.engine().label_cache)
        again = similarity(left, right, magic_psi, samples=200, depth=2)
        assert again.to_json() == report.to_json()
        assert len(misses) == first
        assert (len(left.engine().label_cache), len(right.engine().label_cache)) == sizes

    def test_self_similarity(self, systems):
        sys = systems["mixed_a"]
        psi = StateMap.identity(sys, sys)
        report = similarity(sys, sys, psi, samples=40, depth=2, seed=3)
        assert report.estimate == 1.0
        assert report.matches == report.samples == 40

    def test_mixed_pair_exhaustive(self, systems, mixed_psi):
        a, b = systems["mixed_a"], systems["mixed_b"]
        matches, total = exhaustive_proportion(a, b, mixed_psi, depth=2)
        assert (matches, total) == (6, 8)

    def test_mixed_pair_sampled(self, systems, mixed_psi):
        a, b = systems["mixed_a"], systems["mixed_b"]
        report = similarity(a, b, mixed_psi, samples=200, depth=2, seed=11)
        assert 0.6 < report.estimate < 0.9
        assert report.interval_low < 0.75 < report.interval_high
        assert report.estimate == report.matches / report.samples

    def test_unpinned_outcomes_blur_the_difference(self, systems):
        # without the outcome pinning the mixed pair looks identical:
        # lone terminals always relabel onto each other
        a, b = systems["mixed_a"], systems["mixed_b"]
        psi = StateMap.identity(a, b)
        matches, total = exhaustive_proportion(a, b, psi, depth=2)
        assert matches == total

    def test_determinism(self, systems, mixed_psi):
        a, b = systems["mixed_a"], systems["mixed_b"]
        r1 = similarity(a, b, mixed_psi, samples=60, depth=2, seed=5)
        r2 = similarity(a, b, mixed_psi, samples=60, depth=2, seed=5)
        assert r1.to_json() == r2.to_json()
        r3 = similarity(a, b, mixed_psi, samples=60, depth=2, seed=6)
        assert r3.to_json() != r1.to_json()

    def test_symmetry_under_inversion(self, systems, mixed_psi):
        a, b = systems["mixed_a"], systems["mixed_b"]
        forward = exhaustive_proportion(a, b, mixed_psi, depth=2)
        backward = exhaustive_proportion(b, a, mixed_psi.inverse(), depth=2)
        assert forward == backward

    def test_reachable_scope(self, systems, mixed_psi):
        a, b = systems["mixed_a"], systems["mixed_b"]
        # reachable states: the four u=p initial states and their successors
        report = similarity(a, b, mixed_psi, samples=50, depth=2, seed=2, scope="reachable")
        assert report.scope == "reachable"
        matches, total = exhaustive_proportion(a, b, mixed_psi, depth=2, scope="reachable")
        assert total == 8  # 4 initial states plus 4 successors

    def test_unknown_scope_rejected(self, systems, mixed_psi):
        a, b = systems["mixed_a"], systems["mixed_b"]
        message = "scope must be 'all' or 'reachable', not 'some'"
        with pytest.raises(ValueError, match=message):
            similarity(a, b, mixed_psi, samples=5, depth=1, scope="some")
        with pytest.raises(ValueError, match=message):
            exhaustive_proportion(a, b, mixed_psi, depth=1, scope="some")

    def test_all_scope_covers_the_track_product(self, systems, mixed_psi):
        a, b = systems["mixed_a"], systems["mixed_b"]
        _, total = exhaustive_proportion(a, b, mixed_psi, depth=1)
        assert total == len(list(core.enumerate_states(a)))

    def test_zero_samples_rejected(self, systems, mixed_psi):
        with pytest.raises(LudokitError):
            similarity(systems["mixed_a"], systems["mixed_b"], mixed_psi, samples=0, depth=1)

    def test_completeness_gaps_flagged(self, systems, mixed_psi):
        a = systems["mixed_a"]
        broken = dataclasses.replace(a, consequence_rules=())
        report = similarity(broken, systems["mixed_b"], mixed_psi, samples=30, depth=2,
                            seed=1, keep_records=True)
        gap_records = [r for r in report.records if r.completeness_gap]
        assert report.completeness_gaps == len(gap_records) > 0
        assert all(not r.matched for r in gap_records)

    def test_records_optional(self, systems, mixed_psi):
        a, b = systems["mixed_a"], systems["mixed_b"]
        assert similarity(a, b, mixed_psi, samples=5, depth=1).records is None

    def test_self_similarity_across_corpus(self, systems):
        for name in ("parity", "mixed_a", "endofturn"):
            sys = systems[name]
            psi = StateMap.identity(sys, sys)
            for depth in (1, 3):
                report = similarity(sys, sys, psi, samples=15, depth=depth, seed=8)
                assert report.estimate == 1.0, (name, depth)

    def test_misere_valence_pinning_scores_below_one(self, systems):
        # Forcing the who-benefits outcome correspondence (standard X_wins to
        # misere O_loses) breaks matches on samples whose partial trees reach
        # terminals, although the games are relabeling-equivalent unpinned.
        ttt, mis = systems["tictactoe"], systems["misere"]
        psi = StateMap.identity(ttt, ttt)
        psi = StateMap(
            tracks=psi.tracks,
            values=psi.values,
            players={"X": "X", "O": "O"},
            outcomes={"X_wins": "O_loses", "O_wins": "X_loses", "draw": "draw"},
        )
        report = similarity(ttt, mis, psi, samples=60, depth=2, seed=12)
        assert report.estimate < 1.0
        # the natural label correspondence matches everywhere instead
        natural = StateMap(
            tracks=psi.tracks,
            values=psi.values,
            players={"X": "X", "O": "O"},
            outcomes={"X_wins": "X_loses", "O_wins": "O_loses", "draw": "draw"},
        )
        report2 = similarity(ttt, mis, natural, samples=60, depth=2, seed=12)
        assert report2.estimate == 1.0
