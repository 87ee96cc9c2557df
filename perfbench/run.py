"""ludokit benchmark: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: the library is imported from its `src/` and the games
from `tests/fixtures/`; without them the run exits with a non-zero code and
prints no result. A run sets up (import, parse, first engine call), then
repeats passes of the workload until S seconds have passed and the workload's
minimum number of operations is reached; a pass is never cut. Times are CPU
seconds scaled to a reference CPU speed (see `speed.py`).

`--trace 0` prints the end-to-end metrics with no wrappers installed.
`--trace 1` alternates untraced and traced passes and prints the per-layer
metrics of the traced ones, with the tracing overhead. The last stdout line is
the result; the line before it is the full report, also written with the
spans to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

import spans as tracing
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
OUT = HERE / "out"

SETUP_REPEATS = 5

# Imports ludokit and parses the workload's games in a fresh interpreter, then
# builds each engine: the set-up every CLI invocation pays.
_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[2])
import speed
data = sys.stdin.read()
probe = speed.SpeedProbe(time.thread_time)
probe.start()
t0 = time.thread_time()
sys.path.insert(0, sys.argv[1])
import json, ludokit
for path, text in json.loads(data):
    ludokit.dsl.parse_game(text, path).engine()
t1 = time.thread_time()
probe.stop()
print((t1 - t0) * probe.scale(t0, t1))
"""


def load_library():
    if not (SRC / "ludokit" / "__init__.py").is_file() or not FIXTURES.is_dir():
        raise SystemExit(f"error: {ROOT} is not a ludokit checkout (no src/ludokit or tests/fixtures)")
    sys.path.insert(0, str(SRC))
    import ludokit

    if pathlib.Path(ludokit.__file__).resolve().parent != SRC / "ludokit":
        raise SystemExit(f"error: imported ludokit from {ludokit.__file__}, not {SRC}")
    return tracing.modules()


def measure_setup(sources) -> list[float]:
    """Set-up seconds of SETUP_REPEATS fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE)],
            input=json.dumps(sources), capture_output=True, text=True,
            timeout=120, check=True,
        )
        times.append(float(done.stdout))
    return times


def machine() -> dict:
    rev = None  # a checkout without .git
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "ludokit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def parse_systems(lib, sources) -> list:
    systems = [lib.dsl.parse_game(text, path) for path, text in sources]
    for system in systems:
        system.engine()
    return systems


def run_passes(lib, work, run, tracer, seconds: float, traced: bool) -> list[dict]:
    """Run whole passes until `seconds` have passed and the minimum op count is met.

    Each pass starts from freshly parsed games, as one CLI invocation does
    (the engine's per-state caches start empty), and from a collected heap, so
    that it does not pay for collecting the garbage of the pass before. A
    traced run alternates untraced and traced passes, at least one of each.
    Returns per pass whether it was traced, its speed-scaled and its raw CPU
    seconds, its speed factor and the range of its spans.
    """
    passes = []
    began = time.perf_counter()
    while True:
        if passes:
            with run.clock.untimed():
                work.setup(parse_systems(lib, work.sources))
                gc.collect()
        this_traced = traced and len(passes) % 2 == 1
        undo = tracing.install(run.clock) if this_traced else None
        if this_traced:
            run.clock.tracer = tracer
        first_span = len(tracer.spans)
        start = run.clock.now()
        try:
            work.run_pass(run)
        finally:
            end = run.clock.now()
            run.clock.tracer = None
            if undo is not None:
                tracing.uninstall(undo)
        scale = run.clock.probe.scale(start, end)
        passes.append({
            "traced": this_traced, "cpu_s": (end - start) * scale, "raw_cpu_s": end - start,
            "scale": scale, "spans": [first_span, len(tracer.spans)],
        })
        if (
            time.perf_counter() - began >= seconds
            and len(run.latencies) >= work.min_ops
            and len(passes) >= (2 if traced else 1)
        ):
            return passes


def layer_metrics(tracer, setup_spans: int, setup_scale: float, setup_counts: dict,
                  passes: list[dict]) -> dict:
    """Per-layer metrics of one invocation: set-up plus one traced pass (mean).

    Span self times are speed-scaled like pass times: the set-up's spans by the
    set-up's factor, each traced pass's spans by that pass's factor.
    """
    traced = [p for p in passes if p["traced"]]
    n = len(traced)
    seconds = tracer.self_times(0, setup_spans, setup_scale)
    for p in traced:
        lo, hi = p["spans"]
        for name, value in tracer.self_times(lo, hi, p["scale"] / n).items():
            seconds[name] += value
    counts = {
        k: setup_counts.get(k, 0) + (v - setup_counts.get(k, 0)) / n
        for k, v in tracer.counts.items()
    }

    def total(*names):
        return sum(seconds.get(name, 0.0) for name in names)

    m = {
        "dsl.parse_s": (total("dsl.parse_game"), "s"),
        "core.engine_s": (total("core.engine"), "s"),
        "core.distinct_states": (counts.get("core.distinct_states", 0), "count"),
        "tree.build_s": (total("tree.build_forest", "tree.build_tree"), "s"),
        "tree.nodes": (counts.get("tree.nodes", 0), "count"),
        "tree.nodes_per_state": (
            counts.get("tree.nodes", 0) / counts["core.distinct_states"]
            if counts.get("core.distinct_states") else 0.0,
            "ratio",
        ),
        "tree.export_s": (total("tree.export_json"), "s"),
        "tree.export_mb": (counts.get("tree.export_mb", 0), "MB"),
        "tree.import_s": (total("tree.import_json"), "s"),
        "reduce.normalize_s": (total("reduce.normalize"), "s"),
    }
    for name in ("nodes_in", "nodes_out", "steps", "steps.symmetry", "steps.bookkeeping",
                 "steps.single-player", "steps.matrix-redundancy"):
        m["reduce." + name] = (counts.get("reduce." + name, 0), "count")
    m.update({
        "canon.profile_s": (total("canon.forest_profile"), "s"),
        "canon.keys_s": (total("canon.best_assignment_with_keys"), "s"),
        "canon.canonical_form_s": (total("canon.canonical_form"), "s"),
        "canon.assignments": (counts.get("canon.assignments", 0), "count"),
        "equiv.relabel_s": (total("equiv.equivalent_up_to_relabeling"), "s"),
        "equiv.verify_s": (total("equiv.verify_witness"), "s"),
        "equiv.witness_nodes": (counts.get("equiv.witness_nodes", 0), "count"),
        "equiv.rejects": (counts.get("equiv.rejects", 0), "count"),
        "similarity.sample_self_ms": (
            1000 * total("similarity.similarity") / counts["similarity.samples"]
            if counts.get("similarity.samples") else 0.0,
            "ms",
        ),
        "similarity.matches": (counts.get("similarity.matches", 0), "count"),
        "similarity.completeness_gaps": (counts.get("similarity.completeness_gaps", 0), "count"),
    })
    for layer in tracing.LAYERS:
        m[layer + ".self_s"] = (
            sum(v for k, v in seconds.items() if k.split(".", 1)[0] == layer), "s"
        )
        m[layer + ".calls"] = (counts.get(layer + ".calls", 0), "count")
    m["trace.overhead_s"] = (
        statistics.median(p["cpu_s"] for p in traced)
        - statistics.median(p["cpu_s"] for p in passes if not p["traced"]),
        "s",
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=(workloads.FULL, workloads.TINY), default=workloads.FULL,
                        help="tiny: small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    lib = load_library()
    clock = tracing.Clock()
    run = workloads.Run(clock)
    work = workloads.WORKLOADS[args.workload](lib, FIXTURES, args.seed, args.size)

    setup_times = [] if args.trace else measure_setup(work.sources)

    clock.probe.start()
    try:
        # This process's own set-up; traced in a traced run.
        tracer = tracing.Tracer(clock)
        undo = tracing.install(clock) if args.trace else None
        if args.trace:
            clock.tracer = tracer
        setup_start = clock.now()
        work.setup(parse_systems(lib, work.sources))
        setup_end = clock.now()
        clock.tracer = None
        if undo is not None:
            tracing.uninstall(undo)
        setup_spans = len(tracer.spans)
        setup_counts = dict(tracer.counts)

        passes = run_passes(lib, work, run, tracer, args.seconds, bool(args.trace))
    finally:
        clock.probe.stop()

    if args.trace:
        setup_scale = clock.probe.scale(setup_start, setup_end)
        metrics = layer_metrics(tracer, setup_spans, setup_scale, setup_counts, passes)
    else:
        ms = [1000 * x for x in run.latencies]
        metrics = {
            "cpu_s": {
                "value": statistics.median(p["cpu_s"] for p in passes if not p["traced"]),
                "unit": "s",
            },
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
            },
            "op_p50_ms": {"value": percentile(ms, 0.50), "unit": "ms"},
            "op_p99_ms": {"value": percentile(ms, 0.99), "unit": "ms"},
        }

    result = {
        "correct": run.failed == 0,
        "attempted": len(run.latencies),
        "failed": run.failed,
        "metrics": metrics,
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": machine(),
        "fail_ratio": run.failed / len(run.latencies),
        "passes": passes,
        "probe_median_s": statistics.median(clock.probe.samples),
        "setup_s": setup_times, "digests": run.digests, "errors": run.errors,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
