"""The scalar tick loop's less-travelled paths, pinned bit for bit.

The other golden files pin busy-loop sessions, Subway Surf and a busy
loop on big.LITTLE; perfbench's digest pins android-default and
mobicore on the five games.  ``tests/data/golden_tick_loop.json`` pins
what none of them reaches, on the Nexus 5 unless named otherwise:

* every registered policy on Subway Surf and on GeekBench (``static``
  at 2 cores and 1,190,400 kHz);
* android-default and mobicore on Subway Surf under each fault kind;
* mobicore with the mpdecision veto enabled, and mobicore with a user
  ``scaling_min/max`` window on one core;
* energy-aware on the Odroid-XU3 under a thermal throttle.

For each session it stores every summary float and workload metric as
``float.hex``, both transition counts, the cpuidle fleet residency per
state, the hotplug counters and the fault firings.  The test re-runs
the sessions on the current code and demands bit identity (see
``docs/NUMERICS.md``).

If this test fails after an intentional numerics change, re-capture
the golden from the commit whose numerics are the oracle, never from
the code under test (run from the repository root)::

    PYTHONPATH=src python -m tests.integration.test_tick_loop_parity \\
        > tests/data/golden_tick_loop.json
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.config import SimulationConfig
from repro.faults.plan import (
    FaultPlan,
    HotplugFailFault,
    MpdecisionStallFault,
    SensorDropoutFault,
    ThermalThrottleFault,
)
from repro.kernel.engine import KernelStack, Session
from repro.metrics.summary import summarize
from repro.scenario import Scenario, compile_scenario
from repro.soc.core_state import CoreState
from repro.soc.platform import Platform

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_tick_loop.json"

POLICIES = {
    "android-default": {},
    "mobicore": {},
    "static": {"online_count": 2, "frequency_khz": 1_190_400},
    "dvfs-only": {},
    "dcs-only": {},
    "race-to-idle": {},
    "energy-aware": {},
}
WORKLOADS = ("game:subwaysurf", "geekbench")
#: Fault windows open at 1 s and close at 2 s of the 3 s session.
FAULTS = {
    "thermal_throttle": ThermalThrottleFault(at_seconds=1.0, duration_seconds=1.0),
    "hotplug_fail": HotplugFailFault(at_seconds=1.0, duration_seconds=1.0),
    "mpdecision_stall": MpdecisionStallFault(at_seconds=1.0, duration_seconds=1.0),
    "sensor_dropout": SensorDropoutFault(at_seconds=1.0, duration_seconds=1.0),
}
#: The user frequency window of the ``limits`` variant: (core, min, max).
LIMITS = (1, 652_800, 1_497_600)


def all_points():
    points = [
        f"Nexus 5|{policy}|{workload}|plain"
        for policy in POLICIES
        for workload in WORKLOADS
    ]
    points += [
        f"Nexus 5|{policy}|game:subwaysurf|fault:{kind}"
        for policy in ("android-default", "mobicore")
        for kind in FAULTS
    ]
    points += [
        "Nexus 5|mobicore|game:subwaysurf|mpdecision",
        "Nexus 5|mobicore|game:subwaysurf|limits",
        "Odroid-XU3|energy-aware|game:subwaysurf|fault:thermal_throttle",
    ]
    return points


def build_session(point):
    """The spec's cache key and a ready-to-run session for one point."""
    platform_name, policy, workload, variant = point.split("|")
    params = dict(POLICIES[policy])
    if policy in ("mobicore", "energy-aware"):
        params["platform"] = platform_name
    spec = compile_scenario(
        Scenario(
            platform=platform_name,
            policy=policy,
            policy_params=params,
            workload=workload,
            config=SimulationConfig(
                tick_seconds=0.020, duration_seconds=3.0, seed=7, warmup_seconds=0.5
            ),
            pin_uncore_max=True,
        )
    )
    platform = Platform.from_spec(spec.resolve_platform_spec())
    stack = KernelStack(platform, mpdecision_enabled=variant == "mpdecision")
    if variant == "limits":
        stack.cpufreq.set_limits(*LIMITS)
    faults = None
    if variant.startswith("fault:"):
        faults = FaultPlan.of(FAULTS[variant.split(":", 1)[1]])
    session = Session(
        platform,
        spec.build_workload(),
        spec.build_policy(),
        spec.config,
        pin_uncore_max=spec.pin_uncore_max,
        stack=stack,
        faults=faults,
    )
    return spec.cache_key(), session


def _hex(value):
    return None if value is None else float(value).hex()


def capture_point(point):
    """The golden record of one point, as stored in the JSON file."""
    cache_key, session = build_session(point)
    result = session.run()
    summary = summarize(result)
    hotplug = session.stack.hotplug
    record = {"cache_key": cache_key}
    for spec_field in dataclasses.fields(summary):
        value = getattr(summary, spec_field.name)
        if isinstance(value, float) or spec_field.name == "mean_fps":
            record[spec_field.name] = _hex(value)
    record["workload_metrics"] = {
        name: _hex(value) for name, value in sorted(summary.workload_metrics.items())
    }
    record["dvfs_transitions"] = summary.dvfs_transitions
    record["hotplug_transitions"] = summary.hotplug_transitions
    record["cpuidle_fleet_fraction"] = {
        state.name: result.cpuidle.fleet_fraction(state).hex() for state in CoreState
    }
    record["hotplug"] = {
        "transition_latency_seconds": hotplug.transition_latency_seconds.hex(),
        "vetoed_offline_requests": hotplug.vetoed_offline_requests,
        "failed_requests": hotplug.failed_requests,
    }
    record["fault_firings"] = dict(sorted(session.fault_firings.items()))
    return record


def load_golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("point", all_points())
def test_tick_loop_sessions_are_bit_identical(point):
    golden = load_golden()[point]
    actual = capture_point(point)
    assert actual["cache_key"] == golden["cache_key"], (
        f"{point}: cache key drifted -- warm caches would go cold"
    )
    for key, expected in golden.items():
        assert actual[key] == expected, (
            f"{point}: {key} drifted from the golden ({actual[key]} != {expected})"
        )
    assert sorted(actual) == sorted(golden), point


def test_golden_covers_the_tick_loop_grid():
    """7 policies x 2 workloads, 2 policies x 4 faults, and 3 variants."""
    assert sorted(load_golden()) == sorted(all_points())
    assert len(all_points()) == 14 + 8 + 3


def test_the_variants_exercise_their_mechanism():
    """Each variant really reaches the path it is there to pin."""
    golden = load_golden()
    for kind in FAULTS:
        for policy in ("android-default", "mobicore"):
            firings = golden[f"Nexus 5|{policy}|game:subwaysurf|fault:{kind}"]["fault_firings"]
            assert firings == {kind: 1}
    mpdecision = golden["Nexus 5|mobicore|game:subwaysurf|mpdecision"]["hotplug"]
    assert mpdecision["vetoed_offline_requests"] > 0


if __name__ == "__main__":
    golden = {point: capture_point(point) for point in all_points()}
    json.dump(golden, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
