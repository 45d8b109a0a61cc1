"""The component-aware (section 7 future work) MobiCore extension."""

import pytest

from repro.config import SimulationConfig
from repro.core.global_dvfs import ComponentAwareMobiCore
from repro.core.mobicore import MobiCorePolicy
from repro.errors import ConfigError
from repro.kernel.engine import Session
from repro.policies.base import SystemObservation
from repro.soc.catalog import nexus5_spec
from repro.soc.platform import Platform
from repro.workloads.busyloop import BusyLoopApp
from repro.workloads.synthetic import StepWorkload


def make_policy(spec, **kwargs):
    policy = ComponentAwareMobiCore(
        power_params=spec.power_params,
        opp_table=spec.opp_table,
        num_cores=spec.num_cores,
        **kwargs,
    )
    policy.reset()
    return policy


def observation(opp_table, loads, freqs=None):
    if freqs is None:
        freqs = (opp_table.max_frequency_khz,) * len(loads)
    return SystemObservation(
        tick=1,
        dt_seconds=0.02,
        per_core_load_percent=tuple(loads),
        global_util_percent=sum(loads) / len(loads),
        delta_util_percent=0.0,
        frequencies_khz=tuple(freqs),
        online_mask=(True,) * len(loads),
        quota=1.0,
        opp_table=opp_table,
    )


class TestMemoryDecision:
    def test_busy_demand_keeps_bus_high(self, spec, opp_table):
        policy = make_policy(spec)
        decision = policy.decide(observation(opp_table, (80.0,) * 4))
        assert decision.memory_high is True

    def test_quiet_demand_drops_after_hold(self, spec, opp_table):
        policy = make_policy(spec, memory_hold_ticks=3)
        quiet = observation(
            opp_table, (2.0,) * 4, freqs=(opp_table.min_frequency_khz,) * 4
        )
        first = policy.decide(quiet)
        second = policy.decide(quiet)
        third = policy.decide(quiet)
        assert first.memory_high is None
        assert second.memory_high is None
        assert third.memory_high is False

    def test_burst_restores_immediately(self, spec, opp_table):
        policy = make_policy(spec, memory_hold_ticks=1)
        quiet = observation(
            opp_table, (2.0,) * 4, freqs=(opp_table.min_frequency_khz,) * 4
        )
        policy.decide(quiet)
        busy = policy.decide(observation(opp_table, (90.0,) * 4))
        assert busy.memory_high is True

    def test_gpu_unmanaged_by_default(self, spec, opp_table):
        policy = make_policy(spec)
        decision = policy.decide(observation(opp_table, (50.0,) * 4))
        assert decision.gpu_pinned_max is None

    def test_gpu_managed_when_enabled(self, spec, opp_table):
        policy = make_policy(spec, manage_gpu=True)
        busy = policy.decide(observation(opp_table, (50.0,) * 4))
        assert busy.gpu_pinned_max is True
        idle = policy.decide(observation(opp_table, (0.0,) * 4))
        assert idle.gpu_pinned_max is False

    def test_bad_hold_rejected(self, spec):
        with pytest.raises(ConfigError):
            make_policy(spec, memory_hold_ticks=0)

    def test_reset_clears_hysteresis(self, spec, opp_table):
        policy = make_policy(spec, memory_hold_ticks=2)
        quiet = observation(
            opp_table, (2.0,) * 4, freqs=(opp_table.min_frequency_khz,) * 4
        )
        policy.decide(quiet)
        policy.reset()
        assert policy.decide(quiet).memory_high is None


class TestSessionBehaviour:
    CFG = SimulationConfig(duration_seconds=8.0, seed=2, warmup_seconds=2.0)

    def run(self, policy_cls, workload):
        spec = nexus5_spec()
        platform = Platform.from_spec(spec)
        policy = policy_cls(
            power_params=spec.power_params,
            opp_table=spec.opp_table,
            num_cores=spec.num_cores,
        )
        return Session(platform, workload, policy, self.CFG, pin_uncore_max=True).run()

    def test_saves_uncore_power_on_light_load(self):
        plain = self.run(MobiCorePolicy, BusyLoopApp(10.0))
        aware = self.run(ComponentAwareMobiCore, BusyLoopApp(10.0))
        assert aware.mean_power_mw < plain.mean_power_mw - 50.0

    def test_executes_same_work_on_bursty_load(self):
        workload = StepWorkload([(2.0, 8.0), (2.0, 70.0)])
        plain = self.run(MobiCorePolicy, workload)
        workload2 = StepWorkload([(2.0, 8.0), (2.0, 70.0)])
        aware_result = self.run(ComponentAwareMobiCore, workload2)
        assert aware_result.trace.mean_scaled_load_percent() >= (
            plain.trace.mean_scaled_load_percent() - 2.0
        )
