"""The cpufreq subsystem: limits, thermal cap, rail unification."""

import pytest

from repro.errors import GovernorError
from repro.kernel.cpufreq import CpufreqSubsystem, FrequencyLimits
from repro.soc.catalog import galaxy_s2_spec, nexus5_spec
from repro.soc.platform import Platform


@pytest.fixture
def cpufreq(platform):
    return CpufreqSubsystem(platform)


class TestLimits:
    def test_defaults_span_table(self, cpufreq, opp_table):
        limits = cpufreq.limits(0)
        assert limits.min_khz == opp_table.min_frequency_khz
        assert limits.max_khz == opp_table.max_frequency_khz

    def test_inverted_limits_rejected(self):
        with pytest.raises(GovernorError):
            FrequencyLimits(2_265_600, 300_000)

    def test_set_limits_validates_opp(self, cpufreq):
        with pytest.raises(GovernorError):
            cpufreq.set_limits(0, 111, 222)

    def test_limits_clamp_targets(self, cpufreq, platform):
        cpufreq.set_limits(0, 300_000, 960_000)
        applied = cpufreq.apply([9e9, None, None, None])
        assert applied[0] == 960_000

    def test_unknown_core_rejected(self, cpufreq):
        with pytest.raises(GovernorError):
            cpufreq.limits(9)


class TestApply:
    def test_none_leaves_unchanged(self, cpufreq, platform, opp_table):
        platform.topology.core(1).set_frequency(960_000)
        applied = cpufreq.apply([None, None, None, None])
        assert applied[1] == 960_000

    def test_round_up_to_opp(self, cpufreq):
        applied = cpufreq.apply([961_000.0, None, None, None])
        assert applied[0] == 1_036_800

    def test_round_down_option(self, cpufreq):
        applied = cpufreq.apply([961_000.0, None, None, None], round_up=False)
        assert applied[0] == 960_000

    def test_wrong_length_rejected(self, cpufreq):
        with pytest.raises(GovernorError):
            cpufreq.apply([None])

    def test_transition_counting(self, cpufreq):
        cpufreq.apply([960_000.0, None, None, None])
        cpufreq.apply([960_000.0, None, None, None])  # no change, no count
        assert cpufreq.transition_count == 1

    def test_offline_core_accepts_setting(self, cpufreq, platform):
        platform.topology.set_online_count(1)
        applied = cpufreq.apply([None, 960_000.0, None, None])
        assert applied[1] == 960_000


class TestThermalCap:
    def test_thermal_cap_clamps(self):
        spec = nexus5_spec(throttled=True)
        platform = Platform.from_spec(spec)
        cpufreq = CpufreqSubsystem(platform)
        # Force the throttle: heat the node far beyond the threshold.
        for _ in range(200):
            platform.thermal.step(5000.0, 1.0)
        assert platform.thermal.throttle_steps > 0
        applied = cpufreq.apply([float(spec.opp_table.max_frequency_khz)] * 4)
        assert all(f <= platform.thermal.max_allowed_frequency_khz for f in applied)
        assert applied[0] < spec.opp_table.max_frequency_khz


class TestSharedRail:
    def test_shared_rail_unifies_online_cores(self):
        platform = Platform.from_spec(galaxy_s2_spec())
        cpufreq = CpufreqSubsystem(platform)
        fmax = platform.opp_table.max_frequency_khz
        fmin = platform.opp_table.min_frequency_khz
        applied = cpufreq.apply([float(fmax), float(fmin)])
        assert applied == [fmax, fmax]
