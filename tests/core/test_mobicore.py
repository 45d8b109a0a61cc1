"""MobiCorePolicy: the Figure 8 flow, unit and session level."""

import pytest

from repro.config import SimulationConfig
from repro.core.mobicore import MobiCorePolicy
from repro.kernel.engine import Session
from repro.policies.android_default import AndroidDefaultPolicy
from repro.policies.base import SystemObservation
from repro.soc.catalog import nexus5_spec
from repro.soc.platform import Platform
from repro.workloads.busyloop import BusyLoopApp
from repro.workloads.synthetic import ConstantWorkload, StepWorkload


@pytest.fixture
def policy(spec):
    policy = MobiCorePolicy(
        power_params=spec.power_params,
        opp_table=spec.opp_table,
        num_cores=spec.num_cores,
    )
    policy.reset()
    return policy


def observation(opp_table, loads, freqs=None, online=None, delta=0.0, quota=1.0):
    n = len(loads)
    if freqs is None:
        freqs = (opp_table.max_frequency_khz,) * n
    if online is None:
        online = (True,) * n
    active = [l for l, on in zip(loads, online) if on]
    return SystemObservation(
        tick=1,
        dt_seconds=0.02,
        per_core_load_percent=tuple(loads),
        global_util_percent=sum(active) / len(active) if active else 0.0,
        delta_util_percent=delta,
        frequencies_khz=tuple(freqs),
        online_mask=tuple(online),
        quota=quota,
        opp_table=opp_table,
    )


class TestDecisionSteps:
    def test_offlines_under_10_percent_cores(self, policy, opp_table):
        decision = policy.decide(
            observation(opp_table, (60.0, 55.0, 3.0, 1.0))
        )
        assert decision.online_mask == [True, True, False, False]

    def test_keeps_at_least_one_core(self, policy, opp_table):
        decision = policy.decide(observation(opp_table, (0.0, 0.0, 0.0, 0.0)))
        assert decision.online_mask[0]
        assert sum(decision.online_mask) >= 1

    def test_busy_cores_stay_online(self, policy, opp_table):
        decision = policy.decide(observation(opp_table, (90.0,) * 4))
        assert decision.online_mask == [True] * 4

    def test_eq9_trims_frequency(self, policy, opp_table):
        """At 50% utilization the re-evaluated frequency is about half
        the ondemand choice."""
        decision = policy.decide(observation(opp_table, (50.0,) * 4))
        target = decision.target_frequencies_khz[0]
        assert target is not None
        assert target < opp_table.max_frequency_khz

    def test_quota_shrinks_on_falling_low_load(self, policy, opp_table):
        low_freq = opp_table.min_frequency_khz
        # First tick establishes the previous load; second shows a fall.
        policy.decide(
            observation(opp_table, (30.0,) * 4, freqs=(low_freq,) * 4)
        )
        decision = policy.decide(
            observation(opp_table, (10.0,) * 4, freqs=(low_freq,) * 4)
        )
        assert decision.quota < 1.0

    def test_quota_boosts_when_pegged(self, policy, opp_table):
        """Cores pegged at the quota ceiling restore the full bandwidth."""
        policy.quota_controller.update(20.0, -5.0)  # shrink first
        decision = policy.decide(
            observation(opp_table, (88.0,) * 4, quota=0.9)
        )
        assert decision.quota == 1.0

    def test_dcs_disabled_keeps_all_cores(self, spec, opp_table):
        policy = MobiCorePolicy(
            power_params=spec.power_params,
            opp_table=opp_table,
            num_cores=4,
            use_dcs=False,
        )
        policy.reset()
        decision = policy.decide(observation(opp_table, (60.0, 55.0, 3.0, 1.0)))
        assert decision.online_mask == [True] * 4

    def test_quota_disabled_ablation(self, spec, opp_table):
        policy = MobiCorePolicy(
            power_params=spec.power_params,
            opp_table=opp_table,
            num_cores=4,
            use_quota=False,
        )
        low = opp_table.min_frequency_khz
        policy.decide(observation(opp_table, (30.0,) * 4, freqs=(low,) * 4))
        decision = policy.decide(
            observation(opp_table, (10.0,) * 4, freqs=(low,) * 4)
        )
        assert decision.quota == 1.0

    def test_newly_onlined_core_gets_frequency(self, policy, opp_table):
        """A core coming online must have a frequency target."""
        decision = policy.decide(
            observation(
                opp_table,
                (100.0, 0.0, 0.0, 0.0),
                online=(True, False, False, False),
            )
        )
        for core_id, online in enumerate(decision.online_mask):
            if online:
                assert decision.target_frequencies_khz[core_id] is not None

    def test_for_platform_constructor(self, platform):
        policy = MobiCorePolicy.for_platform(platform)
        assert policy.num_cores == 4
        assert policy.energy_model.opp_table == platform.opp_table

    def test_reset_clears_state(self, policy, opp_table):
        policy.decide(observation(opp_table, (30.0,) * 4))
        policy.reset()
        assert policy.quota_controller.quota == 1.0
        assert policy._prev_scaled_load is None


class TestSessionBehaviour:
    def run(self, policy_factory, workload, seconds=8.0):
        platform = Platform.from_spec(nexus5_spec())
        config = SimulationConfig(
            duration_seconds=seconds, seed=3, warmup_seconds=2.0
        )
        policy = policy_factory(platform)
        return Session(
            platform, workload, policy, config, pin_uncore_max=False
        ).run()

    def test_saves_power_vs_default_at_moderate_load(self):
        baseline = self.run(lambda p: AndroidDefaultPolicy(), BusyLoopApp(30.0))
        mobicore = self.run(MobiCorePolicy.for_platform, BusyLoopApp(30.0))
        assert mobicore.mean_power_mw < baseline.mean_power_mw

    def test_matches_default_at_full_load(self):
        baseline = self.run(lambda p: AndroidDefaultPolicy(), BusyLoopApp(100.0))
        mobicore = self.run(MobiCorePolicy.for_platform, BusyLoopApp(100.0))
        assert mobicore.mean_power_mw == pytest.approx(
            baseline.mean_power_mw, rel=0.02
        )

    def test_offlines_idle_cores_in_session(self):
        result = self.run(MobiCorePolicy.for_platform, ConstantWorkload(8.0))
        assert result.mean_online_cores < 2.0

    def test_responds_to_step_up(self):
        """A step from light to heavy demand must not starve: the policy
        re-onlines cores and raises frequency."""
        workload = StepWorkload([(4.0, 10.0), (4.0, 90.0)])
        result = self.run(MobiCorePolicy.for_platform, workload, seconds=8.0)
        trace = result.trace
        final_quarter = trace.buffer.online_counts(trace.warmup_ticks)[-50:]
        mean_cores = sum(final_quarter.tolist()) / len(final_quarter)
        assert mean_cores >= 3.0

    def test_executes_demanded_work(self):
        """MobiCore must still execute (nearly) all feasible demand."""
        result = self.run(MobiCorePolicy.for_platform, BusyLoopApp(40.0))
        executed = result.workload_metrics["executed_cycles"]
        # 40% of platform max over the session, with idle gaps:
        expected = 0.40 * 4 * 2_265_600e3 * 8.0
        assert executed >= expected * 0.9
