"""The section 4.1 power model: per-term behaviour and aggregation."""

import pytest

from repro.errors import ConfigError
from repro.soc.calibration import nexus5_power_params
from repro.soc.power_model import CpuPowerModel, PowerParams


@pytest.fixture
def model(spec):
    return CpuPowerModel(spec.power_params, spec.opp_table)


class TestParams:
    def test_anchor_fit_exact(self):
        params = PowerParams.from_static_anchors(
            ceff_mw_per_ghz_v2=100.0,
            static_at_vmin_mw=47.0,
            static_at_vmax_mw=120.0,
            vmin=0.9,
            vmax=1.2,
        )
        assert params.leak_coefficient_mw * 0.9 ** params.leak_exponent == pytest.approx(47.0)
        assert params.leak_coefficient_mw * 1.2 ** params.leak_exponent == pytest.approx(120.0)

    def test_anchor_ordering_enforced(self):
        with pytest.raises(ConfigError):
            PowerParams.from_static_anchors(100.0, 120.0, 47.0, 0.9, 1.2)

    def test_voltage_ordering_enforced(self):
        with pytest.raises(ConfigError):
            PowerParams.from_static_anchors(100.0, 47.0, 120.0, 1.2, 0.9)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(Exception):
            PowerParams(
                ceff_mw_per_ghz_v2=-1.0, leak_coefficient_mw=1.0, leak_exponent=1.0
            )


class TestTerms:
    def test_dynamic_power_eq1(self, model, opp_table):
        """Pd = Ceff * f * V^2 (Eq. 1)."""
        opp = opp_table.max
        expected = (
            model.params.ceff_mw_per_ghz_v2 * opp.frequency_ghz * opp.voltage ** 2
        )
        assert model.dynamic_power_mw(opp) == pytest.approx(expected)

    def test_static_power_anchors(self, model, opp_table):
        """The paper's 47/120 mW measurements (section 4.1.2)."""
        assert model.static_power_mw(opp_table.min) == pytest.approx(47.0)
        assert model.static_power_mw(opp_table.max) == pytest.approx(120.0)

    def test_static_monotone_in_voltage(self, model, opp_table):
        values = [model.static_power_mw(opp) for opp in opp_table]
        assert values == sorted(values)

    def test_core_power_offline_zero(self, model, opp_table):
        assert model.core_power_mw(opp_table.max, 0.5, online=False) == 0.0

    def test_core_power_idle_is_static_only(self, model, opp_table):
        idle = model.core_power_mw(opp_table.max, 0.0, online=True)
        assert idle == pytest.approx(model.static_power_mw(opp_table.max))

    def test_cluster_overhead_zero_single_core(self, model):
        assert model.cluster_overhead_mw(1, 1.0) == 0.0
        assert model.cluster_overhead_mw(2, 1.0) > 0.0

    def test_cache_power_scales_with_activity(self, model):
        assert model.cache_power_mw(0.0, 1.0) == 0.0
        assert model.cache_power_mw(1.0, 1.0) > model.cache_power_mw(0.5, 1.0)


class TestBreakdown:
    def test_breakdown_totals_add_up(self, model, platform):
        for core in platform.topology.cores:
            core.set_frequency(platform.opp_table.max_frequency_khz)
            core.account(1.0)
        breakdown = model.breakdown(platform.topology, uncore_mw=100.0)
        expected_total = (
            breakdown.dynamic_mw
            + breakdown.static_mw
            + breakdown.cluster_overhead_mw
            + breakdown.cache_mw
            + breakdown.base_mw
            + breakdown.uncore_mw
        )
        assert breakdown.total_mw == pytest.approx(expected_total)
        assert breakdown.uncore_mw == pytest.approx(100.0)

    def test_breakdown_per_core_entries(self, model, platform):
        platform.topology.set_online_count(2)
        breakdown = model.breakdown(platform.topology)
        assert len(breakdown.per_core_mw) == 4
        assert breakdown.per_core_mw[2] == 0.0
        assert breakdown.per_core_mw[0] > 0.0

    def test_offlining_reduces_power(self, model, platform):
        breakdown_all = model.breakdown(platform.topology)
        platform.topology.set_online_count(1)
        breakdown_one = model.breakdown(platform.topology)
        assert breakdown_one.total_mw < breakdown_all.total_mw


class TestPrediction:
    def test_predict_matches_breakdown(self, model, platform):
        """The hypothesis evaluator agrees with the live-cluster path."""
        freq = platform.opp_table.max_frequency_khz
        for core in platform.topology.cores:
            core.set_frequency(freq)
            core.account(1.0)
        live = model.breakdown(platform.topology).total_mw
        predicted = model.predict_total_mw(4, freq, 1.0)
        assert predicted == pytest.approx(live)

    def test_predict_cpu_excludes_base(self, model, opp_table):
        total = model.predict_total_mw(1, opp_table.min_frequency_khz, 1.0)
        cpu = model.predict_cpu_mw(1, opp_table.min_frequency_khz, 1.0)
        assert total - cpu == pytest.approx(model.params.platform_base_mw)

    def test_predict_monotone_in_cores(self, model, opp_table):
        freq = opp_table.max_frequency_khz
        values = [model.predict_total_mw(n, freq, 1.0) for n in range(1, 5)]
        assert values == sorted(values)

    def test_predict_monotone_in_frequency(self, model, opp_table):
        values = [
            model.predict_total_mw(2, opp.frequency_khz, 1.0) for opp in opp_table
        ]
        assert values == sorted(values)

    def test_negative_core_count_rejected(self, model, opp_table):
        with pytest.raises(ConfigError):
            model.predict_total_mw(-1, opp_table.min_frequency_khz, 1.0)


class TestEnergy:
    def test_energy_is_power_times_time(self, model):
        assert CpuPowerModel.energy_mj(1000.0, 2.0) == pytest.approx(2000.0)

    def test_eq7_consistency(self, model, opp_table):
        """Eq. (7): E = P * T for n cores under global DVFS."""
        freq = opp_table.max_frequency_khz
        power = model.predict_total_mw(4, freq, 0.5)
        energy = model.energy_global_dvfs_mj(4, freq, 0.5, 60.0)
        assert energy == pytest.approx(power * 60.0)

    def test_race_to_idle_vs_offline(self, model, opp_table):
        """Section 4.1.2: off-lining beats racing to idle on this platform.

        Run a fixed amount of work W: (a) 4 cores at fmax then idle
        online, (b) 1 core at the just-needed frequency for the full
        period.  With 47-120 mW idle leakage per core, (b) wins.
        """
        period = 1.0
        fmax = opp_table.max_frequency_khz
        work_cycles = 0.25 * 4 * fmax * 1000 * period  # 25% global load
        # (a) race to idle: all 4 at fmax until done, then idle.
        busy_time = work_cycles / (4 * fmax * 1000)
        racing = model.predict_total_mw(4, fmax, 1.0) * busy_time + (
            model.predict_total_mw(4, fmax, 0.0) * (period - busy_time)
        )
        # (b) one core at the lowest OPP covering the work in the period.
        needed = work_cycles / (period * 1000)
        opp = opp_table.ceil(needed)
        busy = work_cycles / (opp.frequency_khz * 1000 * period)
        offline = model.predict_total_mw(1, opp.frequency_khz, min(busy, 1.0)) * period
        assert offline < racing
