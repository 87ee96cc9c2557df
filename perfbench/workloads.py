"""The four workloads. Each replays the library calls one CLI verb makes.

A workload is a closed loop: one client, one thread, one operation at a time.
A pass is a fixed batch of operations; a run repeats passes. Calls go through
the module attributes (`lib.tree.build_forest`, ...) at call time, so the
traced run's wrappers see them.

Why each workload exists:

- agency-forbidden: the only one where full trees with heavy transposition
  (179,117 nodes over 4,164 distinct states per forest) go through `reduce`,
  so a shared-DAG representation and the normalizer show here.
- relabel-depth5: canonical keys, the pair walk, witness verification, early
  rejection and export all run here, and `reduce` never does.
- small-trees: per-call overhead dominates, there is almost no sharing, and
  the 3-player x 3-outcome labelings of `canon.assignments_for` set the tail;
  an optimization for big shared trees should show no change here.
- sim-magic: the only one that runs `similarity`; it runs the rule engine on
  arbitrary, often unreachable states and makes thousands of tiny build,
  normalize and relabel calls.
"""

from __future__ import annotations

import hashlib
import traceback

import gen

FULL, TINY = "full", "tiny"


class Run:
    """Operation latencies, failures and digests of one run."""

    def __init__(self, clock):
        self.clock = clock
        self.latencies: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.op_index = 0

    def record(self, start: float, ok: bool, why: str = "") -> None:
        """End the operation begun at `start`; its time is speed-scaled."""
        end = self.clock.now()
        with self.clock.untimed():
            self.latencies.append((end - start) * self.clock.probe.scale(start, end))
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(why)

    def begin(self) -> float:
        """Start one operation; spans it opens carry its index."""
        if self.clock.tracer is not None:
            self.clock.tracer.op = self.op_index
        self.op_index += 1
        return self.clock.now()

    def digest(self, name: str, data: bytes) -> None:
        """Record a digest of an output; a change shows without failing the run."""
        h = hashlib.sha256(self.digests.get(name, "").encode())
        h.update(data)
        self.digests[name] = h.hexdigest()


def _failure() -> str:
    return traceback.format_exc(limit=3)


class AgencyForbidden:
    """`equiv --mode agency forbidden.game <variant>.game`; one op per pass.

    Both games have X move first in place of the opening coin: that keeps one
    half of the full forest, and a pass of the full game (about 50 s) would
    not fit the benchmark's time budget.
    """

    name = "agency-forbidden"
    min_ops = 1

    def __init__(self, lib, fixtures, seed: int, size: str):
        self.lib = lib
        base = gen.x_starts((fixtures / "forbidden.game").read_text(encoding="utf-8"))
        variant = gen.forbidden_variant(base, seed)
        self.sources = [("forbidden.game", base), ("variant.game", variant)]
        # A tiny run builds two decision rounds; normalize then skips every
        # reduction touching the truncated frontier.
        self.depth = None if size == FULL else 2
        self.form_nodes = 22_404 if size == FULL else 28

    def setup(self, systems) -> None:
        self.left, self.right = systems

    def run_pass(self, run: Run) -> None:
        lib = self.lib
        start = run.begin()
        try:
            left = lib.tree.build_forest(self.left, depth_limit=self.depth)
            right = lib.tree.build_forest(self.right, depth_limit=self.depth)
            lforms = [lib.reduce.normalize(t, consume=True)[0] for t in left]
            rforms = [lib.reduce.normalize(t, consume=True)[0] for t in right]
            del left, right
            witness = lib.equiv.equivalent_up_to_relabeling(lforms, rforms)
            problems = ["not equivalent"] if witness is None else lib.equiv.verify_witness(witness)
        except Exception:
            run.record(start, False, _failure())
            return
        with run.clock.untimed():
            sizes = [f.node_count() for f in lforms + rforms]
            for i, form in enumerate(lforms + rforms):
                run.digest(f"normal_form_{i}", lib.equiv.canonical_form(form).digest)
        wrong = problems[:3]
        if any(n != self.form_nodes for n in sizes):
            wrong.append(f"normal form sizes {sizes}, want {self.form_nodes}")
        run.record(start, not wrong, "; ".join(wrong))


class RelabelDepth5:
    """`tree --depth 5 tictactoe.game` and three `equiv --mode relabel` pairs.

    One op per pass. The seed is ignored: the inputs are the fixtures. Depth 5
    is the shallowest at which the first wins appear, so misere differs; depth
    6 quadruples the pass and would not fit the benchmark's time budget.
    """

    name = "relabel-depth5"
    min_ops = 1
    GAMES = ("tictactoe", "3to15", "misere", "perturbed")

    def __init__(self, lib, fixtures, seed: int, size: str):
        self.lib = lib
        self.sources = [
            (f"{g}.game", (fixtures / f"{g}.game").read_text(encoding="utf-8"))
            for g in self.GAMES
        ]
        self.depth = 5 if size == FULL else 3
        # Up to depth 4 the trees have no terminal nodes, so pinning outcomes
        # cannot tell misere from tic-tac-toe.
        self.misere_differs = self.depth >= 5

    def setup(self, systems) -> None:
        self.systems = dict(zip(self.GAMES, systems))

    def run_pass(self, run: Run) -> None:
        lib = self.lib
        start = run.begin()
        try:
            forests = {
                g: lib.tree.build_forest(s, depth_limit=self.depth)
                for g, s in self.systems.items()
            }
            text = lib.tree.export_json(forests["tictactoe"][0])
            with run.clock.untimed():
                run.digest("export_json", text.encode())
                del text
            ttt = forests["tictactoe"]
            witness = lib.equiv.equivalent_up_to_relabeling(ttt, forests["3to15"])
            problems = ["not equivalent"] if witness is None else lib.equiv.verify_witness(witness)
            misere = lib.equiv.equivalent_up_to_relabeling(
                ttt, forests["misere"], pin={"outcomes"}
            )
            perturbed = lib.equiv.equivalent_up_to_relabeling(ttt, forests["perturbed"])
        except Exception:
            run.record(start, False, _failure())
            return
        wrong = problems[:3]
        if (misere is None) != self.misere_differs:
            wrong.append(f"tictactoe ~ misere with outcomes pinned: {misere is not None}")
        if perturbed is not None:
            wrong.append("tictactoe ~ perturbed")
        run.record(start, not wrong, "; ".join(wrong))


class SmallTrees:
    """`equiv --mode agency a.json b.json` on random trees; one op per tree,
    200 trees (the whole corpus) per pass."""

    name = "small-trees"

    def __init__(self, lib, fixtures, seed: int, size: str):
        self.lib = lib
        self.sources = []
        # Each pass runs the whole corpus, so every pass does the same work.
        # 200 trees put several trees of similar cost in the top 1%, so p99
        # does not hinge on the repeats of one tree. A run of at least ten
        # passes has 2000 ops, so 20 lie beyond p99.
        self.min_ops = 2000 if size == FULL else 1
        self.cases = gen.tree_cases(seed, 200 if size == FULL else 10)

    def setup(self, systems) -> None:
        pass

    def run_pass(self, run: Run) -> None:
        lib = self.lib
        for text, player_map, outcome_map in self.cases:
            start = run.begin()
            try:
                left = lib.tree.import_json(text)
                right = lib.equiv.relabel_tree(left, player_map, outcome_map)
                witness = lib.equiv.agency_equivalent(left, right)
                problems = (
                    ["not equivalent"] if witness is None else lib.equiv.verify_witness(witness)
                )
                lkey = lib.equiv.canonical_form(left)
                rkey = lib.equiv.canonical_form(right)
            except Exception:
                run.record(start, False, _failure())
                continue
            with run.clock.untimed():
                run.digest("canonical_forms", lkey.digest)
            if lkey != rkey:
                problems = problems + ["canonical keys differ"]
            run.record(start, not problems, "; ".join(problems[:3]))


class SimMagic:
    """`sim tictactoe.game 3to15.game --map magic_square_psi.json --samples 200`,
    depth 2, scope all; one op per sample, all 200 samples per pass."""

    name = "sim-magic"

    def __init__(self, lib, fixtures, seed: int, size: str):
        self.lib = lib
        self.sources = [
            (f"{g}.game", (fixtures / f"{g}.game").read_text(encoding="utf-8"))
            for g in ("tictactoe", "3to15")
        ]
        self.map_text = (fixtures / "magic_square_psi.json").read_text(encoding="utf-8")
        # A run of at least five passes has 1000 ops, so 10 lie beyond p99.
        self.min_ops = 1000 if size == FULL else 1
        self.sample_seeds = gen.sample_seeds(seed, 200 if size == FULL else 10)

    def setup(self, systems) -> None:
        self.left, self.right = systems
        self.psi = self.lib.similarity.StateMap.from_json(self.map_text)

    def run_pass(self, run: Run) -> None:
        lib = self.lib
        for k in self.sample_seeds:
            start = run.begin()
            try:
                report = lib.similarity.similarity(
                    self.left, self.right, self.psi, samples=1, depth=2, seed=k, scope="all"
                )
            except Exception:
                run.record(start, False, _failure())
                continue
            with run.clock.untimed():
                run.digest("samples", report.to_json().encode())
            run.record(start, report.matches == 1, f"sample seed {k} did not match")


WORKLOADS = {w.name: w for w in (AgencyForbidden, RelabelDepth5, SmallTrees, SimMagic)}
