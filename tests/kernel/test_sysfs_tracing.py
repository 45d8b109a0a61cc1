"""The sysfs knob tree and the trace recorder."""

import pytest

from repro.errors import ConfigError, TraceError
from repro.kernel.sysfs import SysfsTree
from repro.kernel.tracing import TraceRecorder


def record(tick, power=1000.0, fps=None, online=(True, True, True, True)):
    """One tick's positional ``TraceRecorder.record_tick`` arguments."""
    return (
        tick,
        tick * 0.02,
        (300_000, 960_000, 960_000, 2_265_600),
        online,
        (0.5, 0.5, 0.0, 1.0),
        50.0,  # global_util_percent
        0.9,  # quota
        power,
        power * 0.6,  # cpu_power_mw
        30.0,  # temperature_c
        0.0,  # backlog_cycles
        0.0,  # dropped_cycles
        fps,
        40.0,  # scaled_load_percent
    )


class TestSysfs:
    def test_register_read(self):
        tree = SysfsTree()
        tree.register("sys/devices/cpu/cpu0/cpufreq/scaling_cur_freq", lambda: 300000)
        assert tree.read("/sys/devices/cpu/cpu0/cpufreq/scaling_cur_freq") == "300000"

    def test_write_through_setter(self):
        tree = SysfsTree()
        box = {"governor": "ondemand"}
        tree.register(
            "cpufreq/scaling_governor",
            lambda: box["governor"],
            lambda value: box.__setitem__("governor", value),
        )
        tree.write("cpufreq/scaling_governor", "userspace")
        assert box["governor"] == "userspace"

    def test_read_only_write_rejected(self):
        tree = SysfsTree()
        tree.register("a/b", lambda: 1)
        with pytest.raises(ConfigError):
            tree.write("a/b", "2")

    def test_unknown_path_rejected(self):
        tree = SysfsTree()
        with pytest.raises(ConfigError):
            tree.read("nope")

    def test_duplicate_registration_rejected(self):
        tree = SysfsTree()
        tree.register("a", lambda: 1)
        with pytest.raises(ConfigError):
            tree.register("a", lambda: 2)

    def test_list_prefix(self):
        tree = SysfsTree()
        tree.register("cpu/cpu0/online", lambda: 1)
        tree.register("cpu/cpu1/online", lambda: 1)
        tree.register("other", lambda: 1)
        assert tree.list("cpu") == ["/cpu/cpu0/online", "/cpu/cpu1/online"]
        assert len(tree.list()) == 3

    def test_iteration_matches_list(self):
        tree = SysfsTree()
        tree.register("b/two", lambda: 2)
        tree.register("a/one", lambda: 1, lambda value: None)
        assert list(tree) == ["/a/one", "/b/two"]
        assert len(tree) == 2
        assert all(tree.read(path) in ("1", "2") for path in tree)

    def test_contains(self):
        tree = SysfsTree()
        tree.register("cpu/cpu0/online", lambda: 1)
        assert "cpu/cpu0/online" in tree
        assert "/cpu/cpu0/online" in tree  # normalised like read()
        assert "cpu/cpu1/online" not in tree
        assert 42 not in tree
        assert "" not in tree

    def test_is_writable(self):
        tree = SysfsTree()
        tree.register("ro", lambda: 1)
        tree.register("rw", lambda: 1, lambda value: None)
        assert not tree.is_writable("ro")
        assert tree.is_writable("rw")
        with pytest.raises(ConfigError):
            tree.is_writable("missing")


class TestDerivedTickValues:
    def test_online_count_and_mean_freq(self):
        trace = TraceRecorder()
        trace.record_tick(*record(0, online=(True, True, False, False)))
        assert trace.buffer.online_counts()[0] == 2
        assert trace.buffer.mean_online_frequencies()[0] == pytest.approx(
            (300_000 + 960_000) / 2
        )


class TestTraceRecorder:
    def test_appends_in_order(self):
        trace = TraceRecorder()
        trace.record_tick(*record(0))
        trace.record_tick(*record(1))
        with pytest.raises(TraceError):
            trace.record_tick(*record(1))

    def test_warmup_excluded_from_summaries(self):
        trace = TraceRecorder(warmup_ticks=1)
        trace.record_tick(*record(0, power=9999.0))
        trace.record_tick(*record(1, power=1000.0))
        trace.record_tick(*record(2, power=2000.0))
        assert trace.mean_power_mw() == pytest.approx(1500.0)
        assert len(trace) == 3
        assert len(trace) - trace.warmup_ticks == 2

    def test_summary_requires_measured_ticks(self):
        trace = TraceRecorder(warmup_ticks=5)
        trace.record_tick(*record(0))
        with pytest.raises(TraceError):
            trace.mean_power_mw()

    def test_means(self):
        trace = TraceRecorder()
        trace.record_tick(*record(0, power=1000.0, fps=20.0))
        trace.record_tick(*record(1, power=2000.0, fps=10.0))
        assert trace.mean_power_mw() == pytest.approx(1500.0)
        assert trace.mean_fps() == pytest.approx(15.0)
        assert trace.mean_online_cores() == pytest.approx(4.0)
        assert trace.mean_quota() == pytest.approx(0.9)
        assert trace.mean_global_util_percent() == pytest.approx(50.0)
        assert trace.mean_scaled_load_percent() == pytest.approx(40.0)

    def test_fps_none_when_absent(self):
        trace = TraceRecorder()
        trace.record_tick(*record(0, fps=None))
        assert trace.mean_fps() is None

    def test_energy(self):
        trace = TraceRecorder()
        trace.record_tick(*record(0, power=1000.0))
        trace.record_tick(*record(1, power=1000.0))
        assert trace.energy_mj(0.02) == pytest.approx(40.0)

    def test_energy_contract_mean_power_times_duration(self):
        # The documented contract: energy integrates measured (post-warmup)
        # ticks only, each spanning tick_seconds, so it must equal
        # mean_power_mw * measured duration exactly.
        dt = 0.02
        trace = TraceRecorder(warmup_ticks=2)
        for tick, power in enumerate([9000.0, 8000.0, 1000.0, 2000.0, 3000.0]):
            trace.record_tick(*record(tick, power=power))
        measured_seconds = (len(trace) - trace.warmup_ticks) * dt
        assert trace.energy_mj(dt) == pytest.approx(
            trace.mean_power_mw() * measured_seconds
        )
        # Warmup power never leaks into the integral.
        assert trace.energy_mj(dt) == pytest.approx((1000 + 2000 + 3000) * dt)

    def test_csv_roundtrip_columns(self):
        trace = TraceRecorder()
        trace.record_tick(*record(0, fps=12.5))
        csv = trace.to_csv()
        header, row = csv.strip().splitlines()
        assert header.split(",")[0] == "tick"
        assert len(row.split(",")) == len(header.split(","))
        assert "12.50" in row

    def test_csv_roundtrip_includes_scaled_load(self):
        trace = TraceRecorder()
        trace.record_tick(*record(0, fps=12.5))
        trace.record_tick(*record(1))
        csv = trace.to_csv()
        lines = csv.strip().splitlines()
        header = lines[0].split(",")
        assert "scaled_load_pct" in header
        column = header.index("scaled_load_pct")
        # Round-trip: every tick's scaled load survives export.
        scaled = trace.buffer.scalar("scaled_load_percent")
        for line, value in zip(lines[1:], scaled):
            assert float(line.split(",")[column]) == pytest.approx(value, abs=0.01)
