"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import spans  # noqa: E402
from ludokit import dsl  # noqa: E402
from ludokit.core import legal_set  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
FORBIDDEN = (ROOT / "tests" / "fixtures" / "forbidden.game").read_text(encoding="utf-8")


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_declared_metric(workload, trace):
    done = subprocess.run(
        BENCH["command"] + ["--workload", workload, "--seed", "7", "--seconds", "0",
                            "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_run_outside_a_checkout_fails_without_a_result():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        done = subprocess.run(
            BENCH["command"] + ["--workload", "small-trees", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""


def test_generators_are_deterministic_per_seed():
    assert gen.forbidden_variant(FORBIDDEN, 3) == gen.forbidden_variant(FORBIDDEN, 3)
    assert gen.x_starts(FORBIDDEN) != FORBIDDEN
    assert gen.tree_cases(3, 8) == gen.tree_cases(3, 8)
    assert gen.tree_cases(3, 8) != gen.tree_cases(4, 8)
    assert gen.sample_seeds(3, 50) == gen.sample_seeds(3, 50)
    assert gen.sample_seeds(3, 50) != gen.sample_seeds(4, 50)
    assert sorted(gen.sample_seeds(3, 50)) == list(range(50))
    variants = {gen.forbidden_variant(FORBIDDEN, seed) for seed in range(64)}
    assert len(variants) == 16


@pytest.mark.parametrize("corner", gen.CORNERS)
@pytest.mark.parametrize("side", gen.SIDES)
def test_forbidden_variant_opens_with_three_moves_per_player(corner, side):
    system = dsl.parse_game(gen.forbidden_variant_for(gen.x_starts(FORBIDDEN), corner, side))
    empty = {f"c{i}": "e" for i in range(1, 10)}
    for player in system.players:
        state = system.state_from_dict({"turn": player, **empty})
        assert legal_set(system, player, state) == {str(corner), str(side), "5"}


def test_self_time_subtracts_child_spans():
    clock = spans.Clock()
    tracer = spans.Tracer(clock)
    tracer.spans = [
        ["equiv.a", 0.0, 10.0, -1, 0],
        ["canon.b", 1.0, 4.0, 0, 0],
        ["canon.b", 5.0, 6.0, 0, 0],
        ["reduce.c", 2.0, 3.0, 1, 0],
    ]
    assert tracer.self_times(0, 4) == {"equiv.a": 6.0, "canon.b": 3.0, "reduce.c": 1.0}
    assert tracer.self_times(1, 2) == {"canon.b": 2.0}
    assert tracer.self_times(1, 2, 0.5) == {"canon.b": 1.0}
