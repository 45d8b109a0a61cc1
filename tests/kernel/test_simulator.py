"""The tick-loop simulator: wiring, determinism, and session results."""

import pytest

from repro.config import SimulationConfig
from repro.kernel.engine import Session
from repro.policies.android_default import AndroidDefaultPolicy
from repro.policies.static import StaticPolicy
from repro.soc.catalog import nexus5_spec
from repro.soc.platform import Platform
from repro.workloads.busyloop import BusyLoopApp
from repro.workloads.synthetic import ConstantWorkload


def run(policy, workload, config, pin=False):
    platform = Platform.from_spec(nexus5_spec())
    return Session(platform, workload, policy, config, pin_uncore_max=pin).run()


class TestSessionShape:
    def test_trace_length_matches_config(self, short_config):
        result = run(StaticPolicy(4, 300_000), ConstantWorkload(10.0), short_config)
        assert len(result.trace) == short_config.total_ticks

    def test_identification_fields(self, short_config):
        result = run(StaticPolicy(4, 300_000), BusyLoopApp(10.0), short_config)
        assert result.platform_name == "Nexus 5"
        assert result.policy_name.startswith("static")
        assert result.workload_name.startswith("busyloop")

    def test_metrics_present(self, short_config):
        result = run(StaticPolicy(4, 300_000), BusyLoopApp(10.0), short_config)
        assert result.workload_metrics["executed_cycles"] > 0


class TestStaticPolicyBehaviour:
    def test_static_point_applied(self, short_config):
        result = run(StaticPolicy(2, 960_000), ConstantWorkload(10.0), short_config)
        assert result.mean_online_cores == pytest.approx(2.0, abs=0.1)
        assert result.mean_frequency_khz == pytest.approx(960_000, abs=5000)

    def test_idle_workload_power_floor(self, short_config):
        """An idle platform draws base + static + idle uncore only."""
        result = run(StaticPolicy(1, 300_000), ConstantWorkload(0.0), short_config)
        # base 330 + 1 core static 47 + gpu 40 + mem 30
        assert result.mean_power_mw == pytest.approx(447.0, abs=5.0)

    def test_full_stress_anchor(self, short_config):
        result = run(StaticPolicy(4, 2_265_600), BusyLoopApp(100.0), short_config)
        assert result.mean_power_mw == pytest.approx(2403.8, rel=0.01)


class TestDeterminism:
    def test_same_seed_same_result(self, short_config):
        a = run(AndroidDefaultPolicy(), BusyLoopApp(40.0), short_config)
        b = run(AndroidDefaultPolicy(), BusyLoopApp(40.0), short_config)
        assert a.mean_power_mw == b.mean_power_mw
        assert a.trace.to_csv() == b.trace.to_csv()

    def test_different_seed_differs_for_stochastic_load(self, short_config):
        from repro.workloads.games import game_workload

        a = run(AndroidDefaultPolicy(), game_workload("Subway Surf"), short_config)
        b = run(
            AndroidDefaultPolicy(),
            game_workload("Subway Surf"),
            short_config.with_seed(99),
        )
        assert a.mean_power_mw != b.mean_power_mw


class TestDynamicPolicy:
    def test_ondemand_tracks_load(self, short_config):
        low = run(AndroidDefaultPolicy(), BusyLoopApp(10.0), short_config)
        high = run(AndroidDefaultPolicy(), BusyLoopApp(90.0), short_config)
        assert high.mean_power_mw > low.mean_power_mw
        assert high.mean_frequency_khz > low.mean_frequency_khz

    def test_hotplug_offlines_at_low_load(self, short_config):
        result = run(AndroidDefaultPolicy(), BusyLoopApp(10.0), short_config)
        assert result.mean_online_cores < 3.0

    def test_transitions_counted(self, short_config):
        result = run(AndroidDefaultPolicy(), BusyLoopApp(40.0), short_config)
        assert result.dvfs_transitions > 0

    def test_pin_uncore_adds_power(self, short_config):
        unpinned = run(StaticPolicy(1, 300_000), ConstantWorkload(5.0), short_config)
        pinned = run(
            StaticPolicy(1, 300_000), ConstantWorkload(5.0), short_config, pin=True
        )
        assert pinned.mean_power_mw - unpinned.mean_power_mw == pytest.approx(
            800.0, abs=20.0
        )

    def test_energy_consistent_with_mean_power(self, short_config):
        result = run(StaticPolicy(4, 960_000), BusyLoopApp(50.0), short_config)
        measured_ticks = short_config.total_ticks - short_config.warmup_ticks
        expected = result.mean_power_mw * measured_ticks * short_config.tick_seconds
        assert result.energy_mj() == pytest.approx(expected, rel=1e-6)

    def test_simulator_reusable_after_run(self, short_config):
        platform = Platform.from_spec(nexus5_spec())
        session = Session(
            platform, BusyLoopApp(30.0), AndroidDefaultPolicy(), short_config,
            pin_uncore_max=False,
        )
        first = session.run()
        second = session.run()
        assert first.mean_power_mw == pytest.approx(second.mean_power_mw)
