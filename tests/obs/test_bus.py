"""Tracepoint bus unit behaviour: switches, ring buffer, telemetry."""

import pytest

from repro.errors import TraceError
from repro.obs.bus import NULL_TRACEPOINT, TracepointBus
from repro.obs.events import FreqTransitionEvent, HotplugEvent, QuotaEvent


class TestTracepointRegistration:
    def test_registration_is_idempotent(self):
        bus = TracepointBus()
        a = bus.tracepoint("cpufreq", "frequency_transition", FreqTransitionEvent)
        b = bus.tracepoint("cpufreq", "frequency_transition", FreqTransitionEvent)
        assert a is b
        assert bus.tracepoints == [a]

    def test_event_class_mismatch_rejected(self):
        bus = TracepointBus()
        bus.tracepoint("cpufreq", "frequency_transition", FreqTransitionEvent)
        with pytest.raises(TraceError):
            bus.tracepoint("cpufreq", "frequency_transition", HotplugEvent)

    def test_enable_state_survives_reattachment(self):
        bus = TracepointBus()
        tp = bus.tracepoint("cpufreq", "frequency_transition", FreqTransitionEvent)
        bus.disable("cpufreq", "frequency_transition")
        again = bus.tracepoint("cpufreq", "frequency_transition", FreqTransitionEvent)
        assert again is tp
        assert not again.enabled

    def test_null_tracepoint_is_disabled_and_guards_emit(self):
        assert not NULL_TRACEPOINT.enabled
        assert not bool(NULL_TRACEPOINT)
        with pytest.raises(TraceError):
            NULL_TRACEPOINT.emit()


class TestSwitches:
    def test_master_switch(self):
        bus = TracepointBus()
        tp = bus.tracepoint("hotplug", "core_state", HotplugEvent)
        assert tp.enabled
        bus.set_tracing(False)
        assert not tp.enabled
        bus.set_tracing(True)
        assert tp.enabled

    def test_per_event_knob(self):
        bus = TracepointBus()
        freq = bus.tracepoint("cpufreq", "frequency_transition", FreqTransitionEvent)
        quota = bus.tracepoint("cgroup", "quota_update", QuotaEvent)
        bus.disable("cpufreq", "frequency_transition")
        assert not freq.enabled
        assert quota.enabled
        bus.enable("cpufreq", "frequency_transition")
        assert freq.enabled

    def test_category_wide_toggle(self):
        bus = TracepointBus()
        a = bus.tracepoint("hotplug", "core_state", HotplugEvent)
        b = bus.tracepoint("cgroup", "quota_update", QuotaEvent)
        bus.disable("hotplug")
        assert not a.enabled
        assert b.enabled

    def test_unmatched_filter_rejected(self):
        bus = TracepointBus()
        bus.tracepoint("hotplug", "core_state", HotplugEvent)
        with pytest.raises(TraceError):
            bus.enable("nonexistent")
        with pytest.raises(TraceError):
            bus.disable("hotplug", "wrong_name")

    def test_category_filter_wins_over_enable(self):
        bus = TracepointBus(categories=["cpufreq"])
        freq = bus.tracepoint("cpufreq", "frequency_transition", FreqTransitionEvent)
        quota = bus.tracepoint("cgroup", "quota_update", QuotaEvent)
        assert freq.enabled
        assert not quota.enabled
        bus.enable()  # requesting everything cannot bypass the filter
        assert not quota.enabled


class TestPublication:
    def test_emit_stamps_bus_time(self):
        bus = TracepointBus()
        tp = bus.tracepoint("hotplug", "core_state", HotplugEvent)
        bus.set_time_us(12_345)
        tp.emit(core=2, online=False, util_percent=7.5)
        (event,) = bus.events
        assert event.ts_us == 12_345
        assert event.core == 2
        assert event.payload() == {
            "core": 2,
            "online": False,
            "util_percent": 7.5,
            "cluster": 0,  # frequency domain, defaulted on homogeneous platforms
        }

    def test_counts_and_totals(self):
        bus = TracepointBus()
        tp = bus.tracepoint("hotplug", "core_state", HotplugEvent)
        for _ in range(3):
            tp.emit(core=0, online=True)
        assert bus.counts == {"hotplug:core_state": 3}
        assert bus.total_events == 3
        assert len(bus) == 3

    def test_ring_buffer_evicts_and_accounts(self):
        bus = TracepointBus(capacity=2)
        tp = bus.tracepoint("hotplug", "core_state", HotplugEvent)
        for core in range(5):
            tp.emit(core=core, online=True)
        assert len(bus) == 2
        assert bus.total_events == 5
        assert bus.dropped_events == 3
        assert [e.core for e in bus.events] == [3, 4]  # oldest evicted first

    def test_invalid_capacity_rejected(self):
        with pytest.raises(TraceError):
            TracepointBus(capacity=0)

    def test_clear_preserves_enable_state(self):
        bus = TracepointBus()
        tp = bus.tracepoint("hotplug", "core_state", HotplugEvent)
        other = bus.tracepoint("cgroup", "quota_update", QuotaEvent)
        bus.disable("cgroup", "quota_update")
        bus.set_time_us(10)
        bus.set_decision_context(util_percent=50.0, governor="g", reason="r")
        tp.emit(core=0, online=True)
        bus.clear()
        assert len(bus) == 0
        assert bus.total_events == 0
        assert bus.now_us == 0
        assert bus.ctx_reason is None
        assert tp.enabled
        assert not other.enabled
