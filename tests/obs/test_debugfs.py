"""The /sys/kernel/debug/tracing knob tree over a live traced session."""

import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigError
from repro.kernel.android_shell import build_sysfs
from repro.kernel.engine import Session
from repro.obs.bus import TracepointBus
from repro.obs.debugfs import TRACING_ROOT
from repro.policies.android_default import AndroidDefaultPolicy
from repro.soc.catalog import nexus5_spec
from repro.soc.platform import Platform
from repro.workloads.busyloop import BusyLoopApp


@pytest.fixture
def shell():
    bus = TracepointBus()
    session = Session(
        Platform.from_spec(nexus5_spec()),
        BusyLoopApp(40.0),
        AndroidDefaultPolicy(),
        SimulationConfig(duration_seconds=1.0, seed=0),
        pin_uncore_max=False,
        trace=bus,
    )
    return session, build_sysfs(session), bus


class TestKnobTree:
    def test_knobs_appear_in_listing(self, shell):
        _, tree, _ = shell
        knobs = tree.list(TRACING_ROOT)
        assert f"/{TRACING_ROOT}/tracing_on" in knobs
        assert f"/{TRACING_ROOT}/events/enable" in knobs
        assert f"/{TRACING_ROOT}/events/cpufreq/frequency_transition/enable" in knobs
        assert f"/{TRACING_ROOT}/events/counters/tick/enable" in knobs
        assert f"/{TRACING_ROOT}/trace_entries" in knobs
        assert f"/{TRACING_ROOT}/dropped_events" in knobs
        # Iteration (satellite: SysfsTree protocol) sees the same paths.
        assert set(knobs) <= set(tree)

    def test_untraced_simulator_has_no_knobs(self):
        session = Session(
            Platform.from_spec(nexus5_spec()),
            BusyLoopApp(40.0),
            AndroidDefaultPolicy(),
            SimulationConfig(duration_seconds=1.0, seed=0),
            pin_uncore_max=False,
        )
        tree = build_sysfs(session)
        assert tree.list(TRACING_ROOT) == []

    def test_writability_split(self, shell):
        _, tree, _ = shell
        assert tree.is_writable(f"{TRACING_ROOT}/tracing_on")
        assert tree.is_writable(f"{TRACING_ROOT}/events/enable")
        assert not tree.is_writable(f"{TRACING_ROOT}/trace_entries")
        assert not tree.is_writable(f"{TRACING_ROOT}/dropped_events")


class TestSwitchesViaSysfs:
    def test_tracing_on_echo_zero_stops_events(self, shell):
        session, tree, bus = shell
        tree.write(f"{TRACING_ROOT}/tracing_on", "0")
        assert tree.read(f"{TRACING_ROOT}/tracing_on") == "0"
        session.run()
        assert len(bus) == 0
        tree.write(f"{TRACING_ROOT}/tracing_on", "1")
        session.run()
        assert bus.counts["counters:tick"] > 0

    def test_per_event_enable_round_trip(self, shell):
        session, tree, bus = shell
        knob = f"{TRACING_ROOT}/events/counters/tick/enable"
        assert tree.read(knob) == "1"
        tree.write(knob, "0")
        assert tree.read(knob) == "0"
        session.run()
        assert "counters:tick" not in bus.counts
        assert bus.counts["cpufreq:frequency_transition"] > 0

    def test_events_enable_toggles_everything(self, shell):
        session, tree, bus = shell
        tree.write(f"{TRACING_ROOT}/events/enable", "0")
        assert tree.read(f"{TRACING_ROOT}/events/enable") == "0"
        session.run()
        assert len(bus) == 0
        tree.write(f"{TRACING_ROOT}/events/enable", "1")
        assert tree.read(f"{TRACING_ROOT}/events/enable") == "1"

    def test_counters_readable_after_run(self, shell):
        session, tree, bus = shell
        session.run()
        assert int(tree.read(f"{TRACING_ROOT}/trace_entries")) == len(bus)
        assert tree.read(f"{TRACING_ROOT}/dropped_events") == "0"

    def test_non_binary_writes_rejected(self, shell):
        _, tree, _ = shell
        for value in ("2", "on", "", "yes"):
            with pytest.raises(ConfigError):
                tree.write(f"{TRACING_ROOT}/tracing_on", value)
