"""big.LITTLE numerics, pinned bit for bit.

``tests/data/golden_biglittle.json`` was captured before the
energy-aware placement search moved from a per-candidate Python loop to
a precomputed numpy candidate table: one session per (platform, policy,
workload) point over both registered big.LITTLE boards, every policy
that runs on them, a game and a spinning busy loop.  Every float summary
field is stored as ``float.hex`` with the runner cache key alongside.
This test re-runs the same sessions on the current code and demands
**bit identity** -- same cache keys and the same summaries to the last
ulp (see ``docs/NUMERICS.md``).

If this test fails after an intentional numerics change, the golden
must be re-captured from the commit whose numerics are the oracle, never
from the code under test (run from the repository root)::

    PYTHONPATH=src python -m tests.integration.test_biglittle_parity \\
        > tests/data/golden_biglittle.json
"""

import json
import sys
from pathlib import Path

import pytest

from repro.config import SimulationConfig
from repro.kernel.engine import Session
from repro.metrics.summary import summarize
from repro.scenario import Scenario, compile_scenario
from repro.soc.platform import Platform

from .test_single_cluster_parity import HEX_FIELDS

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_biglittle.json"

PLATFORMS = ("Odroid-XU3", "Galaxy S6")
POLICIES = ("android-default", "mobicore", "race-to-idle", "energy-aware")
#: Workload label -> (registry key, params, pin_uncore_max).
WORKLOADS = {
    "game:subwaysurf": ("game:subwaysurf", {}, True),
    "busyloop:60": ("busyloop", {"target_load_percent": 60.0}, False),
}


def all_points():
    return [
        f"{platform}|{policy}|{workload}"
        for platform in PLATFORMS
        for policy in POLICIES
        for workload in WORKLOADS
    ]


def compile_point(point):
    platform, policy, workload = point.split("|")
    key, params, pin_uncore_max = WORKLOADS[workload]
    return compile_scenario(
        Scenario(
            platform=platform,
            policy=policy,
            workload=key,
            workload_params=params,
            config=SimulationConfig(
                tick_seconds=0.020, duration_seconds=3.0, seed=7, warmup_seconds=0.5
            ),
            pin_uncore_max=pin_uncore_max,
        )
    )


def run_point(spec):
    session = Session(
        Platform.from_spec(spec.resolve_platform_spec()),
        spec.build_workload(),
        spec.build_policy(),
        spec.config,
        pin_uncore_max=spec.pin_uncore_max,
    )
    return summarize(session.run())


def capture_point(point):
    """The golden record of one point, as stored in the JSON file."""
    spec = compile_point(point)
    summary = run_point(spec)
    record = {"cache_key": spec.cache_key()}
    record.update((field, getattr(summary, field).hex()) for field in HEX_FIELDS)
    record["dvfs_transitions"] = summary.dvfs_transitions
    record["hotplug_transitions"] = summary.hotplug_transitions
    return record


def load_golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("point", all_points())
def test_biglittle_sessions_are_bit_identical(point):
    golden = load_golden()[point]
    spec = compile_point(point)
    assert spec.cache_key() == golden["cache_key"], (
        f"{point}: cache key drifted -- warm caches would go cold"
    )
    summary = run_point(spec)
    for field in HEX_FIELDS:
        actual = getattr(summary, field).hex()
        assert actual == golden[field], (
            f"{point}: {field} drifted from the golden "
            f"({actual} != {golden[field]})"
        )
    assert summary.dvfs_transitions == golden["dvfs_transitions"], point
    assert summary.hotplug_transitions == golden["hotplug_transitions"], point


def test_golden_covers_the_biglittle_grid():
    """Both boards x every policy x both workloads, nothing else."""
    assert sorted(load_golden()) == sorted(all_points())
    assert len(all_points()) == 16


if __name__ == "__main__":
    golden = {point: capture_point(point) for point in all_points()}
    json.dump(golden, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
