"""Run the benchmark over several seeds, one run after another, and report spread.

    python3 perfbench/sweep.py

Every workload of BENCHMARK.json runs once for each of the seeds 1 to 10, for
its run_seconds. Runs never overlap: each runs alone in its own fresh process.
For each end-to-end metric of each workload the sweep prints the median, the
distance between the first and third quartiles as a share of the median, and
the metric's bound from BENCHMARK.json; a spread above a third of the bound
is flagged. Run from the root of a checkout.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            done = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect, {result['failed']} failed")
                steady = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- spread above bound/3"
            steady &= not flag
            print(f"{workload:18s} {name:12s} median {med:10.4f}  spread {spread:6.3f}"
                  f"  bound {bound:.2f}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
