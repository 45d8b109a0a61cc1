"""The EAS-style energy-aware placement policy, unit and end to end."""

import dataclasses

import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigError
from repro.kernel.engine import Session
from repro.metrics.summary import summarize
from repro.policies.base import SystemObservation
from repro.policies.energy_aware import EnergyAwarePolicy
from repro.scenario import POLICY_REGISTRY, policy_ref
from repro.soc.catalog import get_phone_spec, nexus5_spec, odroid_xu3_spec
from repro.soc.platform import Platform
from repro.workloads.busyloop import BusyLoopApp


@pytest.fixture
def xu3_spec():
    return odroid_xu3_spec()


@pytest.fixture
def policy(xu3_spec):
    return EnergyAwarePolicy.for_platform_spec(xu3_spec)


def observe(spec, loads, frequencies=None, online=None, tick=0):
    """A SystemObservation for *spec* with the given per-core loads."""
    clusters = spec.cluster_specs()
    cluster_ids = []
    tables = tuple(c.opp_table for c in clusters)
    for index, cluster in enumerate(clusters):
        cluster_ids.extend([index] * cluster.num_cores)
    num_cores = len(cluster_ids)
    if frequencies is None:
        frequencies = [
            tables[cluster_ids[i]].min_frequency_khz for i in range(num_cores)
        ]
    if online is None:
        online = [True] * num_cores
    visible = [
        load if on else 0.0 for load, on in zip(loads, online)
    ]
    online_loads = [l for l, on in zip(visible, online) if on]
    return SystemObservation(
        tick=tick,
        dt_seconds=0.02,
        per_core_load_percent=visible,
        global_util_percent=sum(online_loads) / max(len(online_loads), 1),
        delta_util_percent=0.0,
        frequencies_khz=frequencies,
        online_mask=online,
        quota=1.0,
        opp_table=spec.opp_table,
        cluster_ids=tuple(cluster_ids),
        cluster_opp_tables=tables,
    )


class TestEnergyAwareUnit:
    def test_validation(self, xu3_spec):
        with pytest.raises(ConfigError):
            EnergyAwarePolicy(())
        with pytest.raises(ConfigError):
            EnergyAwarePolicy.for_platform_spec(xu3_spec, switch_margin_percent=-1.0)
        with pytest.raises(ConfigError):
            EnergyAwarePolicy.for_platform_spec(xu3_spec, min_residency_ticks=-1)

    @pytest.mark.parametrize("threshold", [-5.0, 0.0, 100.5, float("nan")])
    def test_burst_threshold_outside_percent_range_rejected(self, xu3_spec, threshold):
        # A non-positive threshold would mark every tick as saturated.
        with pytest.raises(ConfigError, match="burst_threshold_percent"):
            EnergyAwarePolicy.for_platform_spec(
                xu3_spec, burst_threshold_percent=threshold
            )

    @pytest.mark.parametrize("threshold", [0.5, 95.0, 100.0])
    def test_burst_threshold_in_percent_range_accepted(self, xu3_spec, threshold):
        policy = EnergyAwarePolicy.for_platform_spec(
            xu3_spec, burst_threshold_percent=threshold
        )
        assert policy.burst_threshold_percent == threshold

    def test_core_count_mismatch_rejected(self, policy):
        with pytest.raises(ConfigError):
            policy.decide(observe(nexus5_spec(), [0.0] * 4))

    @pytest.mark.parametrize(
        "cluster_ids",
        [(1, 1, 1, 1, 0, 0, 0, 0), (0, 1) * 4, ()],
        ids=["big-first", "interleaved", "empty-means-one-domain"],
    )
    def test_cluster_layout_mismatch_rejected(self, policy, xu3_spec, cluster_ids):
        # Same core count, different domains: the policy would price one
        # layout and apply its placement to another.
        obs = dataclasses.replace(observe(xu3_spec, [0.0] * 8), cluster_ids=cluster_ids)
        with pytest.raises(ConfigError, match="cluster layout"):
            policy.decide(obs)

    def test_empty_cluster_ids_match_a_single_domain(self):
        spec = nexus5_spec()
        obs = observe(spec, [10.0] * 4)
        bare = dataclasses.replace(obs, cluster_ids=())
        decisions = [
            EnergyAwarePolicy.for_platform_spec(spec).decide(o) for o in (obs, bare)
        ]
        assert decisions[0] == decisions[1]

    def test_idle_demand_parks_on_one_little_core(self, policy, xu3_spec):
        decision = policy.decide(observe(xu3_spec, [0.0] * 8))
        assert decision.online_mask[0] is True
        assert sum(decision.online_mask) == 1
        little_fmin = xu3_spec.clusters[0].opp_table.min_frequency_khz
        assert decision.target_frequencies_khz[0] == float(little_fmin)

    def test_moderate_demand_prefers_little_cores(self, policy, xu3_spec):
        # Four little cores half-busy at their fmax: sustained but small.
        little_fmax = xu3_spec.clusters[0].opp_table.max_frequency_khz
        obs = observe(
            xu3_spec,
            [50.0] * 4 + [0.0] * 4,
            frequencies=[little_fmax] * 4
            + [xu3_spec.clusters[1].opp_table.min_frequency_khz] * 4,
        )
        decision = policy.decide(obs)
        assert not any(decision.online_mask[4:]), "big cluster should stay parked"
        assert decision.reason.startswith("eas:")

    def test_heavy_demand_wakes_big_cores(self, policy, xu3_spec):
        little_fmax = xu3_spec.clusters[0].opp_table.max_frequency_khz
        big_fmax = xu3_spec.clusters[1].opp_table.max_frequency_khz
        obs = observe(
            xu3_spec,
            [100.0] * 8,
            frequencies=[little_fmax] * 4 + [big_fmax] * 4,
        )
        decision = policy.decide(obs)
        assert any(decision.online_mask[4:]), "saturation must bring big cores up"

    def test_hysteresis_holds_placement(self, xu3_spec):
        policy = EnergyAwarePolicy.for_platform_spec(
            xu3_spec, min_residency_ticks=1000, switch_margin_percent=0.0
        )
        little_fmin = xu3_spec.clusters[0].opp_table.min_frequency_khz
        first = policy.decide(observe(xu3_spec, [5.0] * 8))
        # Demand rises but stays feasible on the held placement: within
        # the residency window the mask must not move.
        held = policy.decide(
            observe(
                xu3_spec,
                [30.0, 0.0, 0.0, 0.0] + [0.0] * 4,
                frequencies=[little_fmin] * 8,
                online=list(first.online_mask),
                tick=1,
            )
        )
        assert list(held.online_mask) == list(first.online_mask)

    def test_homogeneous_platform_degenerates(self):
        spec = nexus5_spec()
        policy = EnergyAwarePolicy.for_platform_spec(spec)
        decision = policy.decide(observe(spec, [0.0] * 4))
        assert sum(decision.online_mask) == 1
        assert decision.target_frequencies_khz[0] == float(
            spec.opp_table.min_frequency_khz
        )

    def test_registered_with_platform_injection(self):
        assert "energy-aware" in POLICY_REGISTRY
        policy = policy_ref("energy-aware", platform="Galaxy S6").resolve()
        assert policy.name == "energy-aware"
        assert len(policy.cluster_specs) == 2


class TestEnergyAwareEndToEnd:
    def run_policy(self, policy, spec=None, target=55.0):
        """A sustained spinning busyloop session (no idle gap)."""
        spec = spec or odroid_xu3_spec()
        platform = Platform.from_spec(spec)
        workload = BusyLoopApp(target, num_threads=2, idle_gap_seconds=0.0)
        config = SimulationConfig(
            tick_seconds=0.02, duration_seconds=4.0, seed=7, warmup_seconds=0.5
        )
        session = Session(platform, workload, policy, config)
        return summarize(session.run())

    def test_beats_naive_all_big_placement(self):
        """The tentpole claim: model-driven placement beats race-to-idle
        (everything online at fmax — the naive all-big placement) on a
        registered spinning workload, on a registered big.LITTLE board."""
        from repro.policies.single_mechanism import RaceToIdlePolicy

        spec = get_phone_spec("Odroid-XU3")
        eas = self.run_policy(
            EnergyAwarePolicy.for_platform_spec(spec), spec=spec
        )
        naive = self.run_policy(RaceToIdlePolicy(), spec=spec)
        assert eas.energy_mj < naive.energy_mj
        assert eas.mean_cpu_power_mw < naive.mean_cpu_power_mw
        # And not by a hair: the little cluster at a sensible OPP is
        # several times cheaper than eight cores parked at fmax.
        assert eas.mean_cpu_power_mw < 0.5 * naive.mean_cpu_power_mw

    def test_work_is_conserved(self):
        spec = odroid_xu3_spec()
        summary = self.run_policy(EnergyAwarePolicy.for_platform_spec(spec), spec=spec)
        # The placement carries the demand: mean load sits near the
        # headroom target rather than saturating.
        assert summary.mean_load_percent < 95.0
