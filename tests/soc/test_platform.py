"""Platform runtime object wiring."""

import pytest

from repro.soc.battery import RailTopology
from repro.soc.catalog import get_phone_spec
from repro.soc.platform import Platform


class TestBootState:
    def test_cluster_size(self, platform, spec):
        assert len(platform.topology) == spec.num_cores

    def test_uncore_idle_at_boot(self, platform):
        assert not platform.gpu.pinned_max
        assert not platform.memory.is_high

    def test_per_core_dvfs_allowed(self, platform):
        assert platform.allows_per_core_dvfs

    def test_rails_match_topology(self, platform):
        assert len(platform.rails) == 4


class TestUncoreConstraints:
    def test_pin_uncore_max(self, platform):
        idle = platform.uncore_power_mw()
        platform.pin_uncore_max()
        assert platform.uncore_power_mw() > idle
        assert platform.gpu.pinned_max
        assert platform.memory.is_high

    def test_breakdown_includes_uncore(self, platform):
        before = platform.power_breakdown().total_mw
        platform.pin_uncore_max()
        after = platform.power_breakdown().total_mw
        assert after - before == pytest.approx(
            (650.0 - 40.0) + (220.0 - 30.0), rel=0.01
        )


class TestEffectiveVoltages:
    def test_per_core_rails_use_own_voltage(self, platform):
        platform.topology.core(0).set_frequency(platform.opp_table.max_frequency_khz)
        voltages = platform.effective_voltages()
        assert voltages[0] == pytest.approx(1.2)
        assert voltages[1] == pytest.approx(0.9)

    def test_shared_rail_pays_max(self):
        spec = get_phone_spec("Galaxy S II")
        platform = Platform.from_spec(spec)
        fmax = spec.opp_table.max_frequency_khz
        platform.topology.core(0).set_frequency(fmax)
        voltages = platform.effective_voltages()
        assert voltages[0] == voltages[1] == pytest.approx(spec.opp_table.max.voltage)


class TestThermalStep:
    def test_step_thermal_heats_under_load(self, platform):
        for core in platform.topology.cores:
            core.set_frequency(platform.opp_table.max_frequency_khz)
            core.account(1.0)
        start = platform.thermal.temperature_c
        platform.step_thermal(1.0)
        assert platform.thermal.temperature_c > start


class TestReset:
    def test_reset_restores_boot(self, platform):
        platform.pin_uncore_max()
        platform.topology.set_online_count(1)
        platform.topology.core(0).set_frequency(platform.opp_table.max_frequency_khz)
        platform.topology.core(0).account(1.0)
        platform.step_thermal(100.0)
        platform.reset()
        assert platform.topology.online_count == 4
        assert not platform.gpu.pinned_max
        assert not platform.memory.is_high
        assert platform.thermal.temperature_c == pytest.approx(
            platform.spec.thermal.ambient_c
        )
