"""The benchmark clock, and the spans and library wrappers of the traced run.

A call into a layer (one `src/ludokit` module) from the benchmark or from
another layer opens a span; calls a layer makes to its own functions stay
inside the open span. A span's self time is its duration minus the time its
child spans cover, so the self times of all spans add up to the traced time.

Wrappers replace a function at the attribute where its caller looks it up
(`ludokit.similarity.build_tree`, `ludokit.reduce.normalize`, ...), so calls
made inside `equiv` and `similarity` get spans too. The untraced run installs
none of them.
"""

from __future__ import annotations

import collections
import functools
import importlib
import time
import types
from contextlib import contextmanager

import speed

LAYERS = ("dsl", "core", "tree", "reduce", "canon", "equiv", "similarity")


class Clock:
    """CPU time of the benchmark's thread minus the time spent in `untimed()`.

    CPU time rather than wall time: the loop is single-threaded and does no
    I/O, so the two differ only by the time the process was not running
    (hypervisor steal, about 14% and bursty on a shared 2-vCPU box). Thread
    rather than process CPU time: while the probe's profiling timer is armed,
    Linux reads the process clock only at scheduler ticks (4 ms here). `probe`
    samples the CPU's speed, which drifts too; see `speed`.
    """

    def __init__(self):
        self.excluded = 0.0
        self.tracer = None
        self.probe = speed.SpeedProbe(self.now)

    def now(self) -> float:
        return time.thread_time() - self.excluded

    @contextmanager
    def untimed(self):
        """Benchmark-side work: input generation, digests, counting."""
        tracer, self.tracer = self.tracer, None
        self.probe.paused = True
        start = time.thread_time()
        try:
            yield
        finally:
            self.excluded += time.thread_time() - start
            self.probe.paused = False
            self.tracer = tracer


class Tracer:
    """Spans kept in memory as [name, start, end, parent, op]."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.op = None

    def layer_of_top(self):
        return self.spans[self.stack[-1]][0].split(".", 1)[0] if self.stack else None

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock.now(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        self.counts[name.split(".", 1)[0] + ".calls"] += 1
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock.now()
        self.stack.pop()

    def self_times(self, lo: int, hi: int, scale: float = 1.0) -> collections.Counter:
        """Self seconds per span name over spans lo..hi-1, times `scale`."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = collections.Counter()
        for i in range(lo, hi):
            name, start, end, _, _ = self.spans[i]
            out[name] += ((end - start) - child_time[i]) * scale
        return out


def _wrap(clock: Clock, layer: str, name: str, fn, count=None):
    """`fn` timed as span `layer.name`; `count(args, kwargs, result, counts, pre)`
    runs untimed after the call, and `count.pre(args, kwargs)` before it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = clock.tracer
        if tracer is None:
            return fn(*args, **kwargs)
        pre = None
        if hasattr(count, "pre"):
            with clock.untimed():
                pre = count.pre(args, kwargs)
        index = tracer.open(f"{layer}.{name}") if tracer.layer_of_top() != layer else None
        try:
            result = fn(*args, **kwargs)
        finally:
            if index is not None:
                tracer.close(index)
        if count is not None:
            with clock.untimed():
                count(args, kwargs, result, tracer.counts, pre)
        return result

    return wrapper


# -- counters (run untimed, after the wrapped call) ---------------------------


def _count_tree(args, kwargs, tree, counts, pre) -> None:
    """Nodes, and distinct states; a node without a game state counts as its own."""
    nodes = list(tree.iter_nodes())
    states = {tree.node_state[n] for n in nodes if tree.node_state[n] is not None}
    stateless = sum(1 for n in nodes if tree.node_state[n] is None)
    counts["tree.nodes"] += len(nodes)
    counts["core.distinct_states"] += len(states) + stateless


def _count_export(args, kwargs, text, counts, pre) -> None:
    counts["tree.export_mb"] += len(text.encode()) / 1e6


def _count_normalize(args, kwargs, result, counts, pre) -> None:
    form, trace = result
    counts["reduce.nodes_in"] += pre
    counts["reduce.nodes_out"] += form.node_count()
    counts["reduce.steps"] += len(trace.steps)
    for step in trace.steps:
        counts["reduce.steps." + step.kind] += 1


_count_normalize.pre = lambda args, kwargs: (args[0] if args else kwargs["tree"]).node_count()


def _count_relabel(args, kwargs, witness, counts, pre) -> None:
    if witness is None:
        counts["equiv.rejects"] += 1
    else:
        counts["equiv.witness_nodes"] += sum(len(p.node_map) for p in witness.pairs)


def _count_assignments(args, kwargs, result, counts, pre) -> None:
    counts["canon.assignments"] += len(result)


def _count_similarity(args, kwargs, report, counts, pre) -> None:
    counts["similarity.samples"] += report.samples
    counts["similarity.matches"] += report.matches
    counts["similarity.completeness_gaps"] += report.completeness_gaps


def modules() -> types.SimpleNamespace:
    """The library's modules by layer name.

    Imported by full name: the package re-exports a function named
    `similarity` that hides the module of that name.
    """
    return types.SimpleNamespace(
        **{layer: importlib.import_module("ludokit." + layer) for layer in LAYERS}
    )


def install(clock: Clock) -> list:
    """Wrap the library's public functions; returns the undo list."""
    lib = modules()
    dsl, tree, reduce, canon, equiv, similarity = (
        lib.dsl, lib.tree, lib.reduce, lib.canon, lib.equiv, lib.similarity
    )
    GameSystem = lib.core.GameSystem

    # (module or class, attribute, layer, counter)
    targets = [
        (dsl, "parse_game", "dsl", None),
        (tree, "build_forest", "tree", None),
        (tree, "build_tree", "tree", _count_tree),
        (similarity, "build_tree", "tree", _count_tree),
        (tree, "export_json", "tree", _count_export),
        (tree, "import_json", "tree", _count_tree),
        (reduce, "normalize", "reduce", _count_normalize),
        (canon, "forest_profile", "canon", None),
        (canon, "best_assignment_with_keys", "canon", None),
        (canon, "assignments_for", "canon", _count_assignments),
        (canon, "canonical_form", "canon", None),
        (equiv, "equivalent_up_to_relabeling", "equiv", _count_relabel),
        (equiv, "agency_equivalent", "equiv", None),
        (equiv, "verify_witness", "equiv", None),
        (equiv, "canonical_form", "equiv", None),
        (equiv, "relabel_tree", "equiv", None),
        (similarity, "similarity", "similarity", _count_similarity),
    ]
    undo = []
    for owner, attr, layer, count in targets:
        original = getattr(owner, attr)
        name = original.__name__
        setattr(owner, attr, _wrap(clock, layer, name, original, count))
        undo.append((owner, attr, original))

    # The engine is built lazily on the first call; later calls are cache hits
    # and get no span.
    engine = GameSystem.engine
    timed_engine = _wrap(clock, "core", "engine", engine)

    def lazy_engine(self):
        return timed_engine(self) if self._engine is None else engine(self)

    GameSystem.engine = lazy_engine
    undo.append((GameSystem, "engine", engine))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
