"""Session-level tracing: count invariants, context, zero disabled cost."""

from repro.config import SimulationConfig
from repro.kernel.engine import KernelStack, Session
from repro.obs.bus import Tracepoint, TracepointBus
from repro.policies.android_default import AndroidDefaultPolicy
from repro.policies.base import PolicyDecision
from repro.soc.catalog import nexus5_spec
from repro.soc.platform import Platform
from repro.workloads.busyloop import BusyLoopApp


def traced_run(config, policy=None, workload=None, **bus_kwargs):
    bus = TracepointBus(**bus_kwargs)
    session = Session(
        Platform.from_spec(nexus5_spec()),
        workload or BusyLoopApp(40.0),
        policy or AndroidDefaultPolicy(),
        config,
        trace=bus,
    )
    return session, session.run(), bus


class TestCountInvariants:
    def test_events_match_session_counters(self, short_config):
        """The tentpole invariant: one event per counted transition."""
        session, result, bus = traced_run(short_config)
        counts = bus.counts
        assert counts["cpufreq:frequency_transition"] == result.dvfs_transitions
        assert result.dvfs_transitions > 0
        assert counts.get("hotplug:core_state", 0) == result.hotplug_transitions
        assert (
            counts.get("cgroup:quota_update", 0)
            == session.stack.bandwidth.update_count
        )
        assert (
            counts.get("hotplug:mpdecision_veto", 0)
            == session.stack.hotplug.vetoed_offline_requests
        )

    def test_tick_events_once_per_tick(self, short_config):
        _, _, bus = traced_run(short_config)
        assert bus.counts["counters:tick"] == short_config.total_ticks
        assert bus.counts["policy:decision"] == short_config.total_ticks

    def test_timestamps_are_simulated_microseconds(self, tiny_config):
        _, _, bus = traced_run(tiny_config)
        ticks = [e for e in bus.events if e.category == "counters"]
        assert ticks[0].ts_us == 0
        step_us = int(round(tiny_config.tick_seconds * 1_000_000))
        assert ticks[1].ts_us == step_us
        assert ticks[-1].ts_us == (len(ticks) - 1) * step_us


class TestDecisionContext:
    def test_frequency_events_carry_governor_and_reason(self, short_config):
        _, _, bus = traced_run(short_config)
        freq_events = [e for e in bus.events if e.category == "cpufreq"]
        assert freq_events
        for event in freq_events:
            assert event.governor == "android-default(ondemand)"
            assert event.reason is not None and ":" in event.reason

    def test_decision_events_describe_the_policy(self, short_config):
        _, _, bus = traced_run(short_config)
        decisions = [e for e in bus.events if e.category == "policy"]
        assert {e.policy for e in decisions} == {"android-default(ondemand)"}
        assert all(0.0 <= e.util_percent <= 100.0 for e in decisions)
        assert any(e.sets_frequencies for e in decisions)


class TestDisabledOverhead:
    def test_untraced_session_never_constructs_events(self, tiny_config, monkeypatch):
        """The ftrace promise: no bus, no event objects, ever."""

        def explode(self, **fields):  # pragma: no cover - must not run
            raise AssertionError("emit() reached without a bus attached")

        monkeypatch.setattr(Tracepoint, "emit", explode)
        session = Session(
            Platform.from_spec(nexus5_spec()),
            BusyLoopApp(40.0),
            AndroidDefaultPolicy(),
            tiny_config,
        )
        result = session.run()
        assert result.dvfs_transitions > 0

    def test_disabled_bus_never_constructs_events(self, tiny_config, monkeypatch):
        def explode(self, **fields):  # pragma: no cover - must not run
            raise AssertionError("emit() reached while tracing_on=0")

        monkeypatch.setattr(Tracepoint, "emit", explode)
        bus = TracepointBus(tracing_on=False)
        session = Session(
            Platform.from_spec(nexus5_spec()),
            BusyLoopApp(40.0),
            AndroidDefaultPolicy(),
            tiny_config,
            trace=bus,
        )
        session.run()
        assert len(bus) == 0


class TestLifecycle:
    def test_rerun_clears_and_reproduces_events(self, tiny_config):
        """start() must survive the cpuidle ledger swap and re-attach."""
        session, _, bus = traced_run(tiny_config)
        first = [(e.category, e.name, e.ts_us) for e in bus.events]
        session.run()
        second = [(e.category, e.name, e.ts_us) for e in bus.events]
        assert second == first  # cleared between runs, then identical
        assert bus.counts["counters:tick"] == tiny_config.total_ticks

    def test_same_seed_identical_event_stream(self, tiny_config):
        _, _, a = traced_run(tiny_config)
        _, _, b = traced_run(tiny_config)
        assert [repr(e) for e in a.events] == [repr(e) for e in b.events]

    def test_category_filter_limits_stream(self, tiny_config):
        _, result, bus = traced_run(tiny_config, categories=["cpufreq"])
        assert set(e.category for e in bus.events) == {"cpufreq"}
        assert bus.counts["cpufreq:frequency_transition"] == result.dvfs_transitions

    def test_ring_capacity_caps_buffer_not_counts(self, short_config):
        _, _, bus = traced_run(short_config, capacity=100)
        assert len(bus) == 100
        assert bus.total_events > 100
        assert bus.dropped_events == bus.total_events - 100


class TestVeto:
    def test_mpdecision_veto_emits(self):
        stack = KernelStack(
            Platform.from_spec(nexus5_spec()), mpdecision_enabled=True
        )
        bus = TracepointBus()
        stack.attach_trace(bus)
        stack.apply(PolicyDecision(online_mask=(True, False, False, False)))
        assert bus.counts["hotplug:mpdecision_veto"] == 3
        vetoed = [e for e in bus.events if e.name == "mpdecision_veto"]
        assert sorted(e.core for e in vetoed) == [1, 2, 3]
        assert stack.hotplug.vetoed_offline_requests == 3
