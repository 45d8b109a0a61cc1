"""Cross-module integration: whole sessions, failure injection, invariants."""

import pytest

from repro import (
    AndroidDefaultPolicy,
    BusyLoopApp,
    GeekbenchWorkload,
    MobiCorePolicy,
    Platform,
    Session,
    SimulationConfig,
    StaticPolicy,
    game_workload,
    nexus5_spec,
    summarize,
)
from repro.policies import DcsOnlyPolicy, DvfsOnlyPolicy, RaceToIdlePolicy
from repro.soc.catalog import galaxy_s2_spec
from repro.workloads import StepWorkload

CFG = SimulationConfig(duration_seconds=8.0, seed=5, warmup_seconds=2.0)


def run(policy_factory, workload, spec=None, config=CFG, pin=False):
    platform = Platform.from_spec(spec if spec is not None else nexus5_spec())
    policy = policy_factory(platform)
    return Session(platform, workload, policy, config, pin_uncore_max=pin).run()


class TestPublicApiSession:
    def test_readme_quickstart_flow(self):
        baseline = run(lambda p: AndroidDefaultPolicy(), game_workload("Subway Surf"), pin=True)
        mobicore = run(MobiCorePolicy.for_platform, game_workload("Subway Surf"), pin=True)
        saving = 1 - mobicore.mean_power_mw / baseline.mean_power_mw
        assert 0.0 <= saving < 0.3
        assert mobicore.mean_fps > 10.0

    def test_summaries_from_any_policy(self):
        for factory in (
            lambda p: AndroidDefaultPolicy(),
            MobiCorePolicy.for_platform,
            lambda p: StaticPolicy(2, 960_000),
            lambda p: DvfsOnlyPolicy(),
            lambda p: DcsOnlyPolicy(),
            lambda p: RaceToIdlePolicy(),
        ):
            summary = summarize(run(factory, BusyLoopApp(35.0)))
            assert summary.mean_power_mw > 0


class TestPolicyOrdering:
    def test_race_to_idle_is_most_expensive(self):
        """Section 4.1.2's claim, end to end: race-to-idle loses to
        MobiCore (and to the default) on a light workload."""
        racing = run(lambda p: RaceToIdlePolicy(), BusyLoopApp(25.0))
        default = run(lambda p: AndroidDefaultPolicy(), BusyLoopApp(25.0))
        mobicore = run(MobiCorePolicy.for_platform, BusyLoopApp(25.0))
        assert mobicore.mean_power_mw < default.mean_power_mw < racing.mean_power_mw

    def test_hybrid_beats_single_mechanisms_at_light_load(self):
        """MobiCore (DVFS+DCS+quota) undercuts DVFS-only and DCS-only."""
        dvfs_only = run(lambda p: DvfsOnlyPolicy(), BusyLoopApp(20.0))
        dcs_only = run(lambda p: DcsOnlyPolicy(), BusyLoopApp(20.0))
        mobicore = run(MobiCorePolicy.for_platform, BusyLoopApp(20.0))
        assert mobicore.mean_power_mw < dvfs_only.mean_power_mw
        assert mobicore.mean_power_mw < dcs_only.mean_power_mw

    def test_performance_governor_tracks_static_fmax(self):
        static = run(lambda p: StaticPolicy(4, 2_265_600), BusyLoopApp(60.0))
        performance = run(
            lambda p: AndroidDefaultPolicy(governor_name="performance",
                                           enable_hotplug=False),
            BusyLoopApp(60.0),
        )
        assert performance.mean_power_mw == pytest.approx(
            static.mean_power_mw, rel=0.02
        )

    def test_powersave_governor_cheapest_dvfs(self):
        powersave = run(
            lambda p: AndroidDefaultPolicy(governor_name="powersave",
                                           enable_hotplug=False),
            BusyLoopApp(30.0),
        )
        ondemand = run(
            lambda p: AndroidDefaultPolicy(enable_hotplug=False), BusyLoopApp(30.0)
        )
        assert powersave.mean_power_mw < ondemand.mean_power_mw


class TestDynamicBehaviour:
    def test_burst_response_recovers_capacity(self):
        """After a step to heavy load, MobiCore must deliver the work."""
        workload = StepWorkload([(3.0, 5.0), (5.0, 85.0)])
        result = run(MobiCorePolicy.for_platform, workload)
        trace = result.trace
        last = trace.buffer.scalar("scaled_load_percent", trace.warmup_ticks)[-25:]
        mean_scaled = sum(last.tolist()) / len(last)
        assert mean_scaled > 60.0  # the 85% step is being served

    def test_quota_drops_on_light_phases(self):
        workload = StepWorkload([(4.0, 60.0), (4.0, 8.0)])
        result = run(MobiCorePolicy.for_platform, workload)
        trace = result.trace
        final = trace.buffer.scalar("quota", trace.warmup_ticks)[-20:]
        assert min(final.tolist()) < 1.0

    def test_shared_rail_platform_runs_end_to_end(self):
        result = run(
            lambda p: AndroidDefaultPolicy(num_cores=2),
            BusyLoopApp(50.0),
            spec=galaxy_s2_spec(),
        )
        assert result.mean_power_mw > 0
        # shared rail: both online cores always at one frequency
        trace = result.trace
        frequencies = trace.buffer.frequencies(trace.warmup_ticks)
        online = trace.buffer.online(trace.warmup_ticks)
        for tick_frequencies, tick_online in zip(frequencies, online):
            assert len(set(tick_frequencies[tick_online].tolist())) == 1


class TestFailureInjection:
    def test_overload_never_crashes_and_reports_backlog(self):
        """Demand far beyond platform capacity: drops are accounted."""
        result = run(MobiCorePolicy.for_platform, GeekbenchWorkload())
        total_dropped = sum(result.trace.buffer.scalar("dropped_cycles").tolist())
        assert total_dropped >= 0.0
        assert result.mean_power_mw > 0

    def test_zero_demand_session(self):
        from repro.workloads import ConstantWorkload

        result = run(MobiCorePolicy.for_platform, ConstantWorkload(0.0))
        assert result.mean_load_percent == pytest.approx(0.0, abs=1.0)
        assert result.mean_online_cores == pytest.approx(1.0, abs=0.1)

    def test_throttled_platform_respects_cap(self):
        spec = nexus5_spec(throttled=True)
        result = run(
            lambda p: StaticPolicy(4, spec.opp_table.max_frequency_khz),
            BusyLoopApp(100.0),
            spec=spec,
            config=SimulationConfig(duration_seconds=60.0, seed=1, warmup_seconds=30.0),
        )
        # sustained full stress must have engaged the cap
        trace = result.trace
        final = trace.buffer.mean_online_frequencies(trace.warmup_ticks)[-10:]
        assert (final < spec.opp_table.max_frequency_khz).all()

    def test_single_core_platform(self):
        from repro.soc.catalog import nexus_s_spec

        result = run(
            lambda p: AndroidDefaultPolicy(num_cores=1),
            BusyLoopApp(50.0),
            spec=nexus_s_spec(),
        )
        assert result.mean_online_cores == pytest.approx(1.0)


class TestCrossPolicyAccounting:
    def test_dvfs_transitions_higher_for_dynamic_policy(self):
        static = run(lambda p: StaticPolicy(4, 960_000), BusyLoopApp(40.0))
        dynamic = run(lambda p: AndroidDefaultPolicy(), BusyLoopApp(40.0))
        assert dynamic.dvfs_transitions > static.dvfs_transitions

    def test_cpuidle_residency_sums_to_session(self):
        result = run(lambda p: AndroidDefaultPolicy(), BusyLoopApp(40.0))
        from repro.soc.core_state import CoreState

        total = sum(
            result.cpuidle.fleet_fraction(state) for state in CoreState
        )
        assert total == pytest.approx(1.0, rel=1e-6)
