"""The benchmark's own tests, on tiny grids.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each test drives ``perfbench/run.py`` as the benchmark command line does
and reads its result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]

#: The per-tick children of ``kernel.engine.tick`` (self times).
TICK_CHILDREN = (
    "workloads.demand_us",
    "workloads.record_us",
    "kernel.scheduler.dispatch_us",
    "kernel.procstat.record_us",
    "kernel.cpuidle.record_us",
    "soc.power_us",
    "soc.thermal_us",
    "kernel.trace.record_us",
    "policies.mobicore.decide_us",
    "policies.android-default.decide_us",
    "policies.energy-aware.decide_us",
    "kernel.apply_us",
)


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_games() -> dict:
    return result_of(run_bench("paper-games", 1))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, trace))
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tick_children_add_up_to_the_tick(traced_games):
    metrics = {name: m["value"] for name, m in traced_games["metrics"].items()}
    parts = sum(metrics[name] for name in TICK_CHILDREN) + metrics["kernel.engine.self_us"]
    assert metrics["kernel.engine.tick_us"] > 0
    assert parts == pytest.approx(metrics["kernel.engine.tick_us"], rel=1e-9)


def test_reasons_are_counted_per_decision(traced_games):
    metrics = {name: m["value"] for name, m in traced_games["metrics"].items()}
    counted = sum(value for name, value in metrics.items() if ".reason." in name)
    # One decision per simulated tick: the tiny grid is 2 sessions x 100 ticks.
    assert counted == 200


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = run_bench("paper-games", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
