"""State maps, sampling-based similarity, Wilson intervals."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import deadline, fixture_text, ninety_nine_cells
from ludokit import canon, core, equiv, errors, reduce, tree
from ludokit import similarity as similarity_mod
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

    def test_values_for_an_unknown_track_rejected(self, systems):
        ttt, t315 = systems["tictactoe"], systems["3to15"]
        doc = json.loads(fixture_text("magic_square_psi.json"))
        doc["values"]["bogus"] = {"a": "b"}
        with pytest.raises(StateMapError, match="'bogus'"):
            StateMap.from_json(json.dumps(doc)).validate(ttt, t315)

    def test_json_roundtrip(self, magic_psi):
        again = StateMap.from_json(magic_psi.to_json())
        assert again == magic_psi


def _magic_doc() -> dict:
    return json.loads(fixture_text("magic_square_psi.json"))


def _drop(path):
    def edit(doc):
        *outer, last = path
        for key in outer:
            doc = doc[key]
        del doc[last]
    return edit


def _put(path, value):
    def edit(doc):
        *outer, last = path
        for key in outer:
            doc = doc[key]
        doc[last] = value
    return edit


# One magic-square map edit per rejection `StateMap.validate` makes, with
# the message it must give.
_REJECTIONS = {
    "missing source track": (
        _drop(["tracks", "c1"]), "track map does not cover exactly the source tracks"),
    "extra source track": (
        _put(["tracks", "c10"], "n1"), "track map does not cover exactly the source tracks"),
    "non-injective track map": (
        _put(["tracks", "c1"], "n7"), "track map is not a bijection onto the target tracks"),
    "unknown target track": (
        _put(["tracks", "c1"], "n10"), "track map is not a bijection onto the target tracks"),
    "value map for an unknown track": (
        _put(["values", "bogus"], {"a": "b"}), "value map for unknown track 'bogus'"),
    "missing value map": (_drop(["values", "c1"]), "missing value map for track 'c1'"),
    "value map misses a value": (
        _drop(["values", "c1", "X"]), "value map for 'c1' does not cover its values"),
    "value map for a value the track lacks": (
        _put(["values", "c1", "Z"], "X"), "value map for 'c1' does not cover its values"),
    "repeated image": (
        _put(["values", "c1", "X"], "O"), "value map for 'c1' is not a bijection onto 'n2'"),
    "image outside the target's values": (
        _put(["values", "c1", "X"], "Q"), "value map for 'c1' is not a bijection onto 'n2'"),
    "player map misses a player": (
        _drop(["players", "O"]), "player map is not a bijection between player lists"),
    "player map repeats an image": (
        _put(["players", "O"], "X"), "player map is not a bijection between player lists"),
    "outcome map misses an outcome": (
        _drop(["outcomes", "draw"]), "outcome map is not a bijection between outcome sets"),
    "outcome map names an unknown outcome": (
        _put(["outcomes", "draw"], "tie"),
        "outcome map is not a bijection between outcome sets"),
}


class TestStateMapValidation:
    @pytest.mark.parametrize("case", sorted(_REJECTIONS))
    def test_each_rejection_names_its_reason(self, systems, case):
        edit, message = _REJECTIONS[case]
        doc = _magic_doc()
        edit(doc)
        psi = StateMap.from_json(json.dumps(doc))
        with pytest.raises(StateMapError) as caught:
            psi.validate(systems["tictactoe"], systems["3to15"])
        assert str(caught.value) == message

    def test_the_fixture_map_is_valid(self, systems, magic_psi):
        magic_psi.validate(systems["tictactoe"], systems["3to15"])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_the_sorted_list_check(self, systems, data):
        """On random edits of the magic-square map, the check accepts or
        rejects, with the same message, exactly where the check that
        compared sorted lists (`oracles.reference_validate_state_map`) does."""
        import oracles

        ttt, t315 = systems["tictactoe"], systems["3to15"]
        names = st.sampled_from(
            ["turn", "c1", "c2", "n1", "n2", "n7", "e", "X", "O", "start", "Q",
             "X_wins", "O_wins", "draw", "tie"]
        )
        doc = _magic_doc()
        for _ in range(data.draw(st.integers(0, 3))):
            section = data.draw(st.sampled_from(["tracks", "values", "players", "outcomes"]))
            table = doc.setdefault(section, {})
            if section == "values" and table and data.draw(st.booleans()):
                table = table[data.draw(st.sampled_from(sorted(table)))]
            # sampled_from refuses an empty list, and edits can empty a table.
            key = data.draw(st.sampled_from(sorted(table)) | names if table else names)
            if table and data.draw(st.booleans()):
                table.pop(key, None)
            elif section == "values" and table is doc["values"]:
                table[key] = {v: data.draw(names) for v in ("e", "X", "O")}
            else:
                table[key] = data.draw(names)
        psi = StateMap.from_json(json.dumps(doc))

        def verdict(check):
            try:
                check(psi, ttt, t315)
            except StateMapError as exc:
                return str(exc)
            return None

        assert verdict(StateMap.validate) == verdict(oracles.reference_validate_state_map)


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

    def test_all_scope_refuses_a_product_over_the_budget(self):
        """The 99-cell mutant's track product has 3^100 states: the
        exhaustive count refuses it before it enumerates."""
        cells99 = parse_game(ninety_nine_cells())
        psi = StateMap.identity(cells99, cells99)
        message = "scope 'all' leaves more than 10,000,000 states to enumerate"
        with deadline(5), pytest.raises(errors.BudgetExceededError, match=message):
            exhaustive_proportion(cells99, cells99, psi, depth=1)

    def test_zero_samples_rejected(self, systems, mixed_psi):
        with pytest.raises(LudokitError):
            similarity(systems["mixed_a"], systems["mixed_b"], mixed_psi, samples=0, depth=1)

    def test_completeness_gaps_flagged(self, systems, mixed_psi):
        a = systems["mixed_a"]
        broken = a._replace(consequence_rules=())
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


def _valence_map(ttt):
    """The misere map of `test_misere_valence_pinning_scores_below_one`."""
    psi = StateMap.identity(ttt, ttt)
    return StateMap(
        tracks=psi.tracks, values=psi.values, players={"X": "X", "O": "O"},
        outcomes={"X_wins": "O_loses", "O_wins": "X_loses", "draw": "draw"},
    )


def _key_verdict_cases(systems, magic_psi, mixed_psi):
    ttt = systems["tictactoe"]
    ident = StateMap.identity(ttt, ttt)
    valence = _valence_map(ttt)
    return {
        "identity": ("tictactoe", "tictactoe", ident),
        "magic": ("tictactoe", "3to15", magic_psi),
        "mixed": ("mixed_a", "mixed_b", mixed_psi),
        "valence": ("tictactoe", "misere", valence),
        # no player or outcome map: every root's labelings are keyed
        "magic-unpinned": ("tictactoe", "3to15", magic_psi._replace(players=None, outcomes=None)),
        "misere-unpinned": ("tictactoe", "misere", ident),
        # one label class pinned, the other keyed over its labelings
        "players-only": ("tictactoe", "misere", valence._replace(outcomes=None,
                                                                 players={"X": "O", "O": "X"})),
        "outcomes-only": ("tictactoe", "misere", valence._replace(players=None)),
        "mixed-outcomes-only": ("mixed_a", "mixed_b", mixed_psi._replace(players=None)),
    }


class TestKeyVerdicts:
    """A root decided by pinned keys in the call's shared arenas gets the
    verdict of the witness search on its own one-root normal forms."""

    @pytest.mark.parametrize("scope", ["all", "reachable"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("case", [
        "identity", "magic", "mixed", "valence", "magic-unpinned", "misere-unpinned",
        "players-only", "outcomes-only", "mixed-outcomes-only",
    ])
    def test_key_verdict_is_the_witness_verdict(
        self, systems, magic_psi, mixed_psi, case, depth, scope
    ):
        a, b, psi = _key_verdict_cases(systems, magic_psi, mixed_psi)[case]
        left, right = systems[a], systems[b]
        rng = random.Random(depth * 10 + len(scope))
        draw = similarity_mod._scope_sampler(left, scope, rng)
        arenas = similarity_mod._SharedArenas(left, right, psi, depth)
        pin = arenas.pin
        players = None if psi.players is None else {v: k for k, v in psi.players.items()}
        outcomes = None if psi.outcomes is None else {v: k for k, v in psi.outcomes.items()}
        for _ in range(8):
            state = draw()
            record = arenas.compare(state)
            mapped = apply_state_map(psi, state, left, right)
            lform = reduce.normalize(tree.build_tree(left, state, depth_limit=depth))[0]
            rform = reduce.normalize(tree.build_tree(right, mapped, depth_limit=depth))[0]
            if pin:
                rform = equiv.relabel_tree(rform, players, outcomes)
            witness = equiv.equivalent_up_to_relabeling(lform, rform, pin=pin)
            assert record.matched == (witness is not None), state
            # both held: no work
            roots = [bld.add_root(r) for bld, r in zip(arenas.builders, (state, mapped))]
            forms = [arenas.normalizer(side).form(root) for side, root in enumerate(roots)]
            if arenas.literal_keys is not None:
                # equal literal keys of the built roots imply equal literal
                # keys of their normal forms
                raw = [key(root) for key, root in zip(arenas.literal_keys, roots)]
                normal = [arenas.normalizer(side).key_fn(f) for side, f in enumerate(forms)]
                assert raw[0] != raw[1] or normal[0] == normal[1], state
                assert record.matched == (normal[0] == normal[1]), state
            # each side's form of its root in the shared arena is the
            # one-root form
            for side, (sys_, root) in enumerate(((left, state), (right, mapped))):
                shared = arenas.normalizer(side).out.rooted(forms[side])
                one = reduce.normalize(tree.build_tree(sys_, root, depth_limit=depth))[0]
                if side:
                    one = equiv.relabel_tree(one, players, outcomes)
                assert equiv.canonical_form(shared, canon.PIN_ALL) == equiv.canonical_form(
                    one, canon.PIN_ALL
                )
                assert tree.compact(shared).structurally_equal(one)

    def test_some_roots_differ(self, systems, magic_psi, mixed_psi):
        """The cases above are not all positive: maps that pin both label
        classes, one or neither reject some roots and accept others."""
        cases = _key_verdict_cases(systems, magic_psi, mixed_psi)
        for case in ("valence", "mixed", "players-only", "outcomes-only", "mixed-outcomes-only"):
            a, b, psi = cases[case]
            report = similarity(systems[a], systems[b], psi, samples=40, depth=2, seed=3,
                                scope="reachable")
            assert 0 < report.matches < 40, case

    def test_unequal_profiles_reject_before_labelings_are_counted(self):
        """Nine outcomes a lone player picks among have 9! symmetric
        labelings, over the limit; a right side whose first pick is a coin
        between two of them has another profile, so the root scores 0, as
        the relabel comparison rejects it, instead of raising."""
        left, right = parse_game(_pick_game(split=False)), parse_game(_pick_game(split=True))
        root = ("none",)
        lform = reduce.normalize(tree.build_tree(left, root, depth_limit=2))[0]
        rform = reduce.normalize(tree.build_tree(right, root, depth_limit=2))[0]
        with pytest.raises(errors.LabelingLimitError):
            canon.canonical_form(lform)
        assert equiv.equivalent_up_to_relabeling(lform, rform) is None
        psi = StateMap.identity(left, right)
        assert exhaustive_proportion(left, right, psi, depth=2) == (9, 10)

    def test_equal_built_keys_match_unnormalized(self, systems, magic_psi, monkeypatch):
        """Under the magic-square map every reachable root's built trees are
        isomorphic, so exhaustive depth 3 matches all 10,957 on their
        literal keys and never normalizes."""
        forms = []

        def counting(arena):
            norm = normalizer(arena)
            return norm._replace(form=lambda v: forms.append(v) or norm.form(v))

        normalizer = reduce.normalizer
        monkeypatch.setattr(reduce, "normalizer", counting)
        left, right = systems["tictactoe"], systems["3to15"]
        result = exhaustive_proportion(left, right, magic_psi, depth=3, scope="reachable")
        assert result == (10957, 10957)
        assert forms == []

    def test_roots_share_one_arena_per_side(self, systems, magic_psi):
        """Exhaustive reachable depth 3 builds one node per distinct (state,
        rounds left) on each side: 54,595, where the 10,957 trees built one
        root at a time hold 354,727 state nodes."""
        left, right = systems["tictactoe"], systems["3to15"]
        arenas = similarity_mod._SharedArenas(left, right, magic_psi, 3)
        pool = sorted(core.reachable_states(left))
        assert all(arenas.compare(s).matched for s in pool)
        for builder in arenas.builders:
            kinds = builder.tree.node_kind
            assert sum(1 for k in kinds if k != tree.CHANCE) == len(builder._nodes) == 54595


def _pick_game(split: bool) -> str:
    """A lone player picks one of nine outcomes; with `split`, the first
    pick is a fair coin between the first two."""
    lines = [
        "players P",
        "track r { none, " + ", ".join(f"o{i}" for i in range(1, 10)) + " }",
        "decisions " + ", ".join(f"d{i}" for i in range(1, 10)),
        *(f"action to{i} {{ set r=o{i} }}" for i in range(1, 10)),
        "init r=none",
        *(f"legal P d{i} when r=none" for i in range(1, 10)),
        *(f"consequence (d{i}) -> prob 1: to{i}" for i in range(2 if split else 1, 10)),
        *(f"outcome o{i} when r=o{i}" for i in range(1, 9)),
        "outcome default o9",
    ]
    if split:
        lines.append("consequence (d1) -> prob 1/2: to1 ; prob 1/2: to2")
    return "\n".join(lines) + "\n"


# Counts up from 0 to 3 and stops, or jumps from 0 to 3; a step from n=0 or
# n=1 raises the flag.  No consequence rule matches a step at n=2 with the
# flag raised, so a tree that reaches that state cannot be built.
GAP_GAME = """\
game gap
players P
track n { 0, 1, 2, 3 }
track flag { on, off }
decisions step, jump
action inc { when n=0 set n=1 ; when n=1 set n=2 ; when n=2 set n=3 }
action raise { set flag=on }
action finish { set n=3 }
init n=0 and flag=off
legal P step when not n=3
legal P jump when n=0
consequence (jump) -> prob 1: finish
consequence (step) when n=2 and flag=off -> prob 1: inc
consequence (step) when not n=2 -> prob 1: inc, raise
outcome default done
"""


class TestCompletenessGapsInSharedArenas:
    def test_a_failed_root_leaves_the_arena_as_it_was(self):
        sys_ = parse_game(GAP_GAME)
        builder = tree.ArenaBuilder(sys_, depth_limit=3)
        good = builder.add_root(("2", "off"))  # and (3, off) one round down
        before = [list(col) for col in _columns(builder.tree)], dict(builder._nodes)
        # Jumps to the held (3, off) one round down, so an edge of this root
        # enters a node of the first, and steps on to fail at (2, on).
        with pytest.raises(errors.NoRuleMatchesError):
            builder.add_root(("0", "off"))
        assert ([list(col) for col in _columns(builder.tree)], dict(builder._nodes)) == before
        # (1, on) one round down is a node the failed root had made
        with pytest.raises(errors.NoRuleMatchesError):
            builder.add_root(("0", "on"))
        assert builder.add_root(("2", "off")) == good

    def test_a_later_root_reaching_the_same_states_is_a_gap(self):
        sys_ = parse_game(GAP_GAME)
        psi = StateMap.identity(sys_, sys_)
        arenas = similarity_mod._SharedArenas(sys_, sys_, psi, 3)
        for state in [("2", "off"), ("0", "off"), ("0", "on"), ("1", "off"), ("0", "off"),
                      ("3", "off")]:
            record = arenas.compare(state)
            try:
                reduce.normalize(tree.build_tree(sys_, state, depth_limit=3))
            except errors.NoRuleMatchesError:
                assert record.completeness_gap and not record.matched, state
            else:
                assert record.matched and not record.completeness_gap, state
        assert exhaustive_proportion(sys_, sys_, psi, depth=3) == (3, 8)


    def test_a_right_gap_rolls_back_before_any_key(self):
        """A root whose right build alone fails is a gap; the right arena
        hands the rolled-back node ids out again, and the roots that get
        them are keyed as their own trees."""
        left = parse_game(GAP_GAME.replace(
            "consequence (step) when n=2 and flag=off",
            "consequence (step) when n=2",
        ))
        right = parse_game(GAP_GAME)
        psi = StateMap.identity(left, right)._replace(players={"P": "P"}, outcomes={"done": "done"})
        arenas = similarity_mod._SharedArenas(left, right, psi, 3)
        assert arenas.compare(("2", "off")).matched
        size = len(arenas.builders[1].tree.node_kind)
        record = arenas.compare(("0", "off"))
        assert record.completeness_gap and not record.matched
        assert len(arenas.builders[1].tree.node_kind) == size
        lkey, rkey = arenas.literal_keys
        for state, matched in [(("3", "on"), True), (("1", "off"), False),
                               (("3", "off"), True), (("2", "on"), False)]:
            record = arenas.compare(state)
            assert record.matched == matched and record.completeness_gap != matched, state
            if matched:
                node = arenas.builders[1].add_root(state)
                built = tree.build_tree(right, state, depth_limit=3)
                assert rkey(node) == canon.make_key_fn(built)(built.root), state
        # the rolled-back ids went to the roots built since
        assert len(arenas.builders[1].tree.node_kind) > size


class TestRenamedArena:
    """An arena built under player and outcome maps is the plain arena
    relabeled through them, column for column."""

    @staticmethod
    def assert_relabeled(builder, sys_, root, depth, players, outcomes):
        node = builder.add_root(root)
        renamed = tree.unfold(builder.tree.rooted(node))
        plain = tree.build_tree(sys_, root, depth_limit=depth)
        relabeled = tree.unfold(equiv.relabel_tree(plain, players, outcomes))
        assert renamed.players == relabeled.players
        assert _columns(renamed) == _columns(relabeled), root

    @pytest.mark.parametrize("swap", [False, True])
    def test_magic_square_inverse_maps(self, systems, magic_psi, swap):
        """psi's own maps are identities; `swap` renames both label classes."""
        back = magic_psi.inverse()
        if swap:
            back = _valence_map(systems["tictactoe"])._replace(players={"X": "O", "O": "X"})
        right = systems["3to15"]
        builder = tree.ArenaBuilder(right, 2, players=back.players, outcomes=back.outcomes)
        rng = random.Random(5)
        pool = sorted(core.reachable_states(right))
        for _ in range(12):
            root = pool[rng.randrange(len(pool))]
            self.assert_relabeled(builder, right, root, 2, back.players, back.outcomes)

    def test_after_a_completeness_gap(self):
        sys_ = parse_game(GAP_GAME)
        players, outcomes = {"P": "Q"}, {"done": "over"}
        builder = tree.ArenaBuilder(sys_, 3, players=players, outcomes=outcomes)
        self.assert_relabeled(builder, sys_, ("2", "off"), 3, players, outcomes)
        with pytest.raises(errors.NoRuleMatchesError):
            builder.add_root(("0", "off"))
        for root in [("2", "off"), ("3", "off"), ("3", "on")]:
            self.assert_relabeled(builder, sys_, root, 3, players, outcomes)


def _columns(t):
    return (t.node_kind, t.node_state, t.node_outcome, t.node_children,
            t.edge_kind, t.edge_src, t.edge_dst, t.edge_prob, t.edge_label)
