"""Thermal failure-injection scenarios: throttle engage, recover, interact."""

import pytest

from repro.config import SimulationConfig
from repro.core.mobicore import MobiCorePolicy
from repro.kernel.engine import Session
from repro.policies.static import StaticPolicy
from repro.soc.catalog import nexus5_spec
from repro.soc.platform import Platform
from repro.workloads.busyloop import BusyLoopApp
from repro.workloads.synthetic import StepWorkload


def run(spec, workload, policy, seconds, warmup=0.0, seed=0):
    platform = Platform.from_spec(spec)
    config = SimulationConfig(
        duration_seconds=seconds, seed=seed, warmup_seconds=warmup
    )
    return Session(platform, workload, policy, config, pin_uncore_max=False).run()


class TestThrottleEngagement:
    def test_sustained_stress_throttles(self):
        spec = nexus5_spec(throttled=True)
        result = run(
            spec,
            BusyLoopApp(100.0),
            StaticPolicy(4, spec.opp_table.max_frequency_khz),
            seconds=60.0,
            warmup=30.0,
        )
        final = result.trace.measured[-10:]
        assert all(
            r.mean_online_frequency_khz < spec.opp_table.max_frequency_khz
            for r in final
        )
        # power under throttle sits below the unthrottled full-stress anchor
        assert result.mean_power_mw < 2403.0

    def test_temperature_stays_near_threshold(self):
        """The throttle is a regulator: temperature hovers at the cap."""
        spec = nexus5_spec(throttled=True)
        result = run(
            spec,
            BusyLoopApp(100.0),
            StaticPolicy(4, spec.opp_table.max_frequency_khz),
            seconds=90.0,
            warmup=45.0,
        )
        peak = result.trace.max_temperature_c()
        assert peak <= spec.thermal.throttle_temp_c + 2.0

    def test_recovery_after_load_drops(self):
        spec = nexus5_spec(throttled=True)
        workload = StepWorkload([(40.0, 100.0), (40.0, 5.0)])
        result = run(
            spec,
            workload,
            StaticPolicy(4, spec.opp_table.max_frequency_khz),
            seconds=80.0,
        )
        final = result.trace.records[-5:]
        # after the quiet phase the node has cooled well below the cap
        assert all(r.temperature_c < spec.thermal.throttle_temp_c for r in final)

    def test_unthrottled_variant_never_caps(self):
        spec = nexus5_spec(throttled=False)
        result = run(
            spec,
            BusyLoopApp(100.0),
            StaticPolicy(4, spec.opp_table.max_frequency_khz),
            seconds=60.0,
            warmup=30.0,
        )
        final = result.trace.measured[-10:]
        assert all(
            r.mean_online_frequency_khz == spec.opp_table.max_frequency_khz
            for r in final
        )


class TestThrottleWithDynamicPolicies:
    def test_mobicore_runs_cooler_than_static_fmax(self):
        spec = nexus5_spec(throttled=True)
        static = run(
            spec,
            BusyLoopApp(60.0),
            StaticPolicy(4, spec.opp_table.max_frequency_khz),
            seconds=60.0,
            warmup=30.0,
        )
        platform_spec = nexus5_spec(throttled=True)
        mobicore = run(
            platform_spec,
            BusyLoopApp(60.0),
            MobiCorePolicy(
                power_params=platform_spec.power_params,
                opp_table=platform_spec.opp_table,
                num_cores=platform_spec.num_cores,
            ),
            seconds=60.0,
            warmup=30.0,
        )
        assert mobicore.trace.max_temperature_c() < static.trace.max_temperature_c()

    def test_session_progresses_under_throttle(self):
        """Throttling slows but never deadlocks a dynamic session."""
        spec = nexus5_spec(throttled=True)
        result = run(
            spec,
            BusyLoopApp(90.0),
            MobiCorePolicy(
                power_params=spec.power_params,
                opp_table=spec.opp_table,
                num_cores=spec.num_cores,
            ),
            seconds=60.0,
            warmup=10.0,
        )
        assert result.workload_metrics["executed_cycles"] > 0
        assert result.trace.mean_scaled_load_percent() > 30.0
