"""In-sim fault behaviour: each fault kind, its trace events, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.experiments.common import mobicore_for_phone
from repro.faults import (
    FaultPlan,
    HotplugFailFault,
    MpdecisionStallFault,
    SensorDropoutFault,
    ThermalThrottleFault,
)
from repro.kernel.engine import Session
from repro.obs import TracepointBus, to_chrome_trace, validate_chrome_trace
from repro.policies.android_default import AndroidDefaultPolicy
from repro.soc.catalog import nexus5_spec
from repro.soc.platform import Platform
from repro.workloads.busyloop import BusyLoopApp


def run_session(faults=None, policy=None, load=70.0, duration=6.0, trace=None):
    platform = Platform.from_spec(nexus5_spec())
    session = Session(
        platform,
        BusyLoopApp(load),
        policy if policy is not None else AndroidDefaultPolicy(),
        SimulationConfig(duration_seconds=duration, seed=0),
        pin_uncore_max=False,
        trace=trace,
        faults=faults,
    )
    return session.run()


def ticks_between(result, start, end=float("inf")):
    """Row mask of the ticks stamped in ``[start, end)`` seconds."""
    time = result.trace.buffer.scalar("time_seconds")
    return (time >= start) & (time < end)


def fault_events(bus):
    return [e for e in bus.events if e.category == "fault"]


class TestThermalThrottle:
    def test_frequency_capped_inside_window(self):
        plan = FaultPlan.of(
            ThermalThrottleFault(at_seconds=2.0, duration_seconds=2.0, steps=6)
        )
        result = run_session(faults=plan)
        spec = nexus5_spec()
        cap = spec.opp_table.frequencies_khz[-(6 + 1)]
        # Ticks are stamped at tick end, so the first tick *affected* by
        # a fault firing at t=2.0 is the one stamped one tick later.
        peak = result.trace.buffer.frequencies().max(axis=1)
        inside = peak[ticks_between(result, 2.1, 4.0)]
        outside = peak[ticks_between(result, 4.5)]
        assert len(inside) and len(outside)
        assert (inside <= cap).all()
        # After the window the governor climbs back above the cap.
        assert (outside > cap).any()

    def test_edges_emitted_as_typed_events(self):
        bus = TracepointBus()
        plan = FaultPlan.of(
            ThermalThrottleFault(at_seconds=1.0, duration_seconds=2.0, steps=4)
        )
        run_session(faults=plan, trace=bus)
        events = fault_events(bus)
        assert [(e.fault, e.action) for e in events] == [
            ("thermal_throttle", "fired"),
            ("thermal_throttle", "cleared"),
        ]
        assert events[0].ts_us == 1_000_000
        assert events[1].ts_us == 3_000_000


class TestHotplugFail:
    def test_online_mask_frozen_and_failures_counted(self):
        # MobiCore plugs cores in and out on this load; a fail window
        # freezes the mask exactly where the fault found it.
        plan = FaultPlan.of(HotplugFailFault(at_seconds=3.0, duration_seconds=2.0))
        bus = TracepointBus()
        result = run_session(
            faults=plan, policy=mobicore_for_phone("Nexus 5"), load=35.0,
            duration=8.0, trace=bus,
        )
        inside = result.trace.buffer.online()[ticks_between(result, 3.0, 5.0)]
        masks = {tuple(mask) for mask in inside}
        assert len(masks) == 1
        failed = [
            e for e in bus.events
            if e.category == "hotplug" and e.name == "request_failed"
        ]
        assert failed
        assert all(e.requested_changes >= 1 for e in failed)

    def test_requests_honoured_again_after_window(self):
        plan = FaultPlan.of(HotplugFailFault(at_seconds=1.0, duration_seconds=1.0))
        result = run_session(
            faults=plan, policy=mobicore_for_phone("Nexus 5"), load=35.0,
            duration=8.0,
        )
        buffer = result.trace.buffer
        after = buffer.online_counts()[ticks_between(result, 2.0)]
        # The governor parks cores for a 35% load once requests work again.
        assert (after < buffer.num_cores).any()


class TestMpdecisionStall:
    def test_stall_holds_cores_online(self):
        clean = run_session(
            policy=mobicore_for_phone("Nexus 5"), load=35.0, duration=8.0
        )
        stalled = run_session(
            faults=FaultPlan.of(
                MpdecisionStallFault(at_seconds=0.0, duration_seconds=8.0)
            ),
            policy=mobicore_for_phone("Nexus 5"),
            load=35.0,
            duration=8.0,
        )
        assert clean.trace.mean_online_cores() < clean.trace.buffer.num_cores
        # With the veto back from the dead, nothing ever goes offline.
        assert stalled.trace.buffer.online().all()

    def test_mpdecision_state_restored_after_window(self, platform):
        session = Session(
            platform,
            BusyLoopApp(35.0),
            mobicore_for_phone("Nexus 5"),
            SimulationConfig(duration_seconds=4.0, seed=0),
            pin_uncore_max=False,
            faults=FaultPlan.of(
                MpdecisionStallFault(at_seconds=1.0, duration_seconds=1.0)
            ),
        )
        session.run()
        assert session.stack.hotplug.mpdecision_enabled is False


class TestSensorDropout:
    def test_policy_sees_stale_utilization(self):
        bus = TracepointBus()
        plan = FaultPlan.of(
            SensorDropoutFault(at_seconds=3.0, duration_seconds=2.0)
        )
        run_session(faults=plan, trace=bus, duration=6.0)
        decisions = [
            e for e in bus.events
            if e.category == "policy" and e.name == "decision"
        ]
        inside = [
            e for e in decisions if 3_000_000 <= e.ts_us < 5_000_000
        ]
        assert inside
        # Frozen feed: every in-window decision sees the identical value.
        assert len({e.util_percent for e in inside}) == 1

    def test_accounting_still_sees_true_values(self):
        plan = FaultPlan.of(
            SensorDropoutFault(at_seconds=1.0, duration_seconds=2.0)
        )
        result = run_session(faults=plan, duration=4.0)
        util = result.trace.buffer.scalar("global_util_percent")
        inside = util[ticks_between(result, 1.0, 3.0)]
        # The hardware keeps running: true utilization keeps moving even
        # though the policy is blinded.
        assert len({round(float(value), 3) for value in inside}) > 1


class TestDeterminismAndExport:
    def full_plan(self):
        return FaultPlan.of(
            ThermalThrottleFault(at_seconds=1.0, duration_seconds=2.0, steps=5),
            HotplugFailFault(at_seconds=2.0, duration_seconds=1.0),
            MpdecisionStallFault(at_seconds=3.0, duration_seconds=1.0),
            SensorDropoutFault(at_seconds=4.0, duration_seconds=1.0),
        )

    def test_faulted_sessions_replay_bit_identically(self):
        first = run_session(faults=self.full_plan())
        second = run_session(faults=self.full_plan())
        assert first.energy_mj() == second.energy_mj()
        assert np.array_equal(
            first.trace.buffer.frequencies(), second.trace.buffer.frequencies()
        )

    def test_clean_session_unaffected_by_empty_plan(self):
        clean = run_session()
        empty = run_session(faults=FaultPlan())
        assert clean.energy_mj() == empty.energy_mj()

    def test_fault_events_survive_perfetto_export(self):
        bus = TracepointBus()
        run_session(faults=self.full_plan(), trace=bus)
        document = to_chrome_trace([("faulted", bus.events)])
        validate_chrome_trace(document)
        names = [
            e["name"] for e in document["traceEvents"]
            if e.get("cat") == "fault"
        ]
        assert "fault thermal_throttle fired" in names
        assert "fault sensor_dropout cleared" in names
        # 4 windows, one fired + one cleared edge each.
        assert len(names) == 8
