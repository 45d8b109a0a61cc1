"""The energy-aware candidate table against a scalar oracle.

``EnergyAwarePolicy`` prices every (placement, operating point)
candidate in a few numpy operations over a table built once per policy.
``ScalarEnergyAwarePolicy`` below is the per-candidate Python loop it
replaced, kept here as the reference with its arithmetic and decision
logic unchanged (production code never imports it).  Both must agree bit for bit: per placement the same
cheapest cost (compared as ``float.hex``) and frequencies, and over a
random walk of observations the same decisions, hysteresis and
residency included (see ``docs/NUMERICS.md``).
"""

import dataclasses
import itertools
import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.base import CpuPolicy, PolicyDecision, SystemObservation
from repro.policies.energy_aware import EnergyAwarePolicy
from repro.soc.catalog import get_phone_spec
from repro.soc.power_model import CpuPowerModel
from repro.soc.topology import ClusterSpec
from repro.units import clamp

TARGET_UTILIZATIONS = (0.8, 1.0, 0.55)


def twin_clusters() -> Tuple[ClusterSpec, ...]:
    """Two identical 2-core domains with no shared overhead or cache power.

    On this topology different placements often cost exactly the same --
    two cores of one domain at ``f`` and one core of each at ``(f, f)``
    add up to the same bits -- so ties between rows, and the hysteresis
    comparison against a tied rival, are exercised on every walk.
    """
    nexus5 = get_phone_spec("Nexus 5").cluster_specs()[0]
    params = dataclasses.replace(
        nexus5.power_params,
        cluster_overhead_base_mw=0.0,
        cluster_overhead_span_mw=0.0,
        cache_base_mw=0.0,
        cache_span_mw=0.0,
    )
    first = dataclasses.replace(nexus5, name="left", num_cores=2, power_params=params)
    second = dataclasses.replace(
        first,
        name="right",
        power_params=dataclasses.replace(params, platform_base_mw=0.0),
    )
    return (first, second)


#: Topologies under test: both big.LITTLE boards, the homogeneous Nexus 5
#: (the degenerate one-domain case) and the tie-prone twin domains.
TOPOLOGIES = {
    "Odroid-XU3": get_phone_spec("Odroid-XU3").cluster_specs(),
    "Galaxy S6": get_phone_spec("Galaxy S6").cluster_specs(),
    "Nexus 5": get_phone_spec("Nexus 5").cluster_specs(),
    "twin": twin_clusters(),
}
BOARDS = tuple(TOPOLOGIES)


class ScalarEnergyAwarePolicy(CpuPolicy):
    """The per-candidate loop the table replaced (validation trimmed)."""

    def __init__(
        self,
        cluster_specs: Sequence[ClusterSpec],
        target_utilization: float = 0.8,
        switch_margin_percent: float = 5.0,
        min_residency_ticks: int = 3,
        burst_threshold_percent: float = 95.0,
        burst_boost: float = 1.5,
    ) -> None:
        self.name = "energy-aware"
        self.cluster_specs = tuple(cluster_specs)
        self.target_utilization = target_utilization
        self.switch_margin_percent = switch_margin_percent
        self.min_residency_ticks = min_residency_ticks
        self.burst_threshold_percent = burst_threshold_percent
        self.burst_boost = burst_boost
        self._models = tuple(
            CpuPowerModel(spec.power_params, spec.opp_table)
            for spec in self.cluster_specs
        )
        self._opp_options = tuple(
            tuple(
                (
                    spec.ipc_scale * 1000.0 * opp.frequency_khz,
                    opp.frequency_khz,
                    model.dynamic_power_mw(opp),
                    model.static_power_mw(opp),
                    spec.opp_table.span_fraction(opp.frequency_khz),
                )
                for opp in (
                    spec.opp_table.by_index(i) for i in range(len(spec.opp_table))
                )
            )
            for spec, model in zip(self.cluster_specs, self._models)
        )
        self._num_cores = sum(spec.num_cores for spec in self.cluster_specs)
        self._counts: Optional[Tuple[int, ...]] = None
        self._ticks_since_switch = 0

    def _members(self, observation: SystemObservation) -> List[List[int]]:
        members: List[List[int]] = [[] for _ in self.cluster_specs]
        for core_id in range(observation.num_cores):
            members[observation.cluster_of(core_id)].append(core_id)
        return members

    def _demand_ips(self, observation: SystemObservation) -> float:
        work = 0.0
        saturated = False
        for core_id in range(observation.num_cores):
            if not observation.online_mask[core_id]:
                continue
            load = observation.per_core_load_percent[core_id]
            ipc = self.cluster_specs[observation.cluster_of(core_id)].ipc_scale
            work += (load / 100.0) * observation.frequencies_khz[core_id] * 1000.0 * ipc
            if load >= self.burst_threshold_percent:
                saturated = True
        if saturated:
            work *= self.burst_boost
        return work

    def _candidate_counts(self) -> List[Tuple[int, ...]]:
        ranges = []
        for index, spec in enumerate(self.cluster_specs):
            low = 1 if index == 0 else 0
            ranges.append(range(low, spec.num_cores + 1))
        return [counts for counts in itertools.product(*ranges)]

    def _best_point_for_counts(
        self, counts: Tuple[int, ...], demand_ips: float
    ) -> Optional[Tuple[float, Tuple[int, ...]]]:
        required = demand_ips / self.target_utilization
        active = [i for i, count in enumerate(counts) if count > 0]
        option_lists = [self._opp_options[i] for i in active]
        best: Optional[Tuple[float, Tuple[int, ...]]] = None
        for combo in itertools.product(*option_lists):
            capacity = sum(
                counts[domain] * option[0] for domain, option in zip(active, combo)
            )
            if capacity <= 0.0 or capacity < required:
                continue
            busy = clamp(demand_ips / capacity, 0.0, 1.0)
            cost = 0.0
            for domain, (_, _, dynamic, static, span) in zip(active, combo):
                count = counts[domain]
                params = self.cluster_specs[domain].power_params
                cost += count * (busy * dynamic + static)
                if count >= 2:
                    cost += (
                        params.cluster_overhead_base_mw
                        + params.cluster_overhead_span_mw * span
                    )
                cost += busy * (params.cache_base_mw + params.cache_span_mw * span)
            if best is None or cost < best[0]:
                by_domain = dict(zip(active, combo))
                frequencies = tuple(
                    by_domain[i][1] if i in by_domain else 0
                    for i in range(len(counts))
                )
                best = (cost, frequencies)
        return best

    def decide(self, observation: SystemObservation) -> PolicyDecision:
        members = self._members(observation)
        demand = self._demand_ips(observation)

        candidates: Dict[Tuple[int, ...], Tuple[float, Tuple[int, ...]]] = {}
        for counts in self._candidate_counts():
            point = self._best_point_for_counts(counts, demand)
            if point is not None:
                candidates[counts] = point
        if not candidates:
            counts = tuple(spec.num_cores for spec in self.cluster_specs)
            frequencies = tuple(
                spec.opp_table.max_frequency_khz for spec in self.cluster_specs
            )
            candidates[counts] = (float("inf"), frequencies)

        best_counts = min(
            candidates,
            key=lambda c: (candidates[c][0], sum(c), candidates[c][1]),
        )
        chosen = best_counts
        self._ticks_since_switch += 1
        if self._counts is not None and self._counts != best_counts:
            stay = candidates.get(self._counts)
            margin = 1.0 - self.switch_margin_percent / 100.0
            if stay is not None and (
                self._ticks_since_switch < self.min_residency_ticks
                or candidates[best_counts][0] >= stay[0] * margin
            ):
                chosen = self._counts
        if chosen != self._counts:
            self._ticks_since_switch = 0
            self._counts = chosen

        cost, frequencies = candidates[chosen]
        mask = [False] * observation.num_cores
        targets: List[Optional[float]] = [None] * observation.num_cores
        for domain, count in enumerate(chosen):
            for core_id in members[domain][:count]:
                mask[core_id] = True
                targets[core_id] = float(frequencies[domain])
        layout = "+".join(str(count) for count in chosen)
        return PolicyDecision(
            target_frequencies_khz=targets,
            online_mask=mask,
            quota=1.0,
            reason=f"eas:{layout}",
        )


@lru_cache(maxsize=None)
def policy_pair(board: str, target_utilization: float):
    """(table policy, scalar reference) for one board; pricing is stateless."""
    specs = TOPOLOGIES[board]
    return (
        EnergyAwarePolicy(specs, target_utilization=target_utilization),
        ScalarEnergyAwarePolicy(specs, target_utilization=target_utilization),
    )


@lru_cache(maxsize=None)
def candidate_capacities(board: str) -> Tuple[float, ...]:
    """Every candidate's capacity, enumerated by the reference's own loop."""
    reference = policy_pair(board, 0.8)[1]
    capacities = set()
    for counts in reference._candidate_counts():
        active = [i for i, count in enumerate(counts) if count > 0]
        for combo in itertools.product(*(reference._opp_options[i] for i in active)):
            capacities.add(
                sum(counts[domain] * option[0] for domain, option in zip(active, combo))
            )
    return tuple(sorted(capacities))


def boundary_demand(capacity: float, target_utilization: float) -> float:
    """A demand whose requirement lands exactly on *capacity*, if one exists.

    ``demand / target_utilization == capacity`` exactly; the search walks
    a few ulps around ``capacity * target_utilization``.
    """
    demand = capacity * target_utilization
    for direction in (math.inf, -math.inf):
        probe = demand
        for _ in range(4):
            if probe / target_utilization == capacity:
                return probe
            probe = math.nextafter(probe, direction)
    return demand


@st.composite
def board_and_demand(draw):
    board = draw(st.sampled_from(BOARDS))
    target = draw(st.sampled_from(TARGET_UTILIZATIONS))
    capacities = candidate_capacities(board)
    top = capacities[-1]
    on_boundary = st.sampled_from(capacities).map(
        lambda capacity: boundary_demand(capacity, target)
    )
    demand = draw(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=top * 1.2),
            on_boundary,
            # One ulp either side of a boundary: just feasible / just not.
            on_boundary.map(lambda d: math.nextafter(d, math.inf)),
            on_boundary.map(lambda d: math.nextafter(d, 0.0)),
            # Above everything at fmax: no feasible candidate anywhere.
            st.floats(min_value=top * target * 1.0001, max_value=top * 10.0),
        )
    )
    return board, target, demand


def table_points(policy: EnergyAwarePolicy, demand: float):
    cost, frequencies, feasible = policy.price_placements(demand)
    points = {}
    for row, counts in enumerate(policy.placements):
        if feasible[row]:
            points[counts] = (
                float(cost[row]).hex(),
                tuple(int(f) for f in frequencies[row]),
            )
        else:
            assert cost[row] == math.inf, counts
    return points


def reference_points(reference: ScalarEnergyAwarePolicy, demand: float):
    points = {}
    for counts in reference._candidate_counts():
        point = reference._best_point_for_counts(counts, demand)
        if point is not None:
            points[counts] = (point[0].hex(), point[1])
    return points


class TestCandidateTable:
    def test_placements_follow_the_reference_order(self):
        for board in BOARDS:
            policy, reference = policy_pair(board, 0.8)
            assert list(policy.placements) == reference._candidate_counts()

    @settings(max_examples=300, deadline=None)
    @given(case=board_and_demand())
    def test_every_placement_prices_bit_identically(self, case):
        board, target, demand = case
        policy, reference = policy_pair(board, target)
        assert table_points(policy, demand) == reference_points(reference, demand)

    def test_boundary_demands_are_reachable_and_feasible(self):
        """The boundary strategy really hits ``capacity == required``."""
        for board in BOARDS:
            for target in TARGET_UTILIZATIONS:
                policy = policy_pair(board, target)[0]
                hits = 0
                for capacity in candidate_capacities(board):
                    demand = boundary_demand(capacity, target)
                    if demand / target == capacity:
                        hits += 1
                        assert policy.price_placements(demand)[2].any()
                assert hits > 0, (board, target)

    def test_no_feasible_candidate_above_fmax(self):
        for board in BOARDS:
            policy, reference = policy_pair(board, 0.8)
            demand = candidate_capacities(board)[-1]  # needs 1/0.8 of everything
            assert table_points(policy, demand) == {} == reference_points(reference, demand)


def walk_observation(clusters, loads, frequencies, online, tick):
    cluster_ids = tuple(i for i, c in enumerate(clusters) for _ in range(c.num_cores))
    visible = [load if on else 0.0 for load, on in zip(loads, online)]
    return SystemObservation(
        tick=tick,
        dt_seconds=0.02,
        per_core_load_percent=visible,
        global_util_percent=sum(visible) / max(sum(online), 1),
        delta_util_percent=0.0,
        frequencies_khz=list(frequencies),
        online_mask=list(online),
        quota=1.0,
        opp_table=clusters[0].opp_table,
        cluster_ids=cluster_ids,
        cluster_opp_tables=tuple(c.opp_table for c in clusters),
    )


load_values = st.one_of(
    st.floats(min_value=0.0, max_value=100.0),
    st.sampled_from([0.0, 94.999, 95.0, 100.0]),
)


@st.composite
def demand_walk(draw):
    board = draw(st.sampled_from(BOARDS))
    clusters = TOPOLOGIES[board]
    cluster_ids = [i for i, c in enumerate(clusters) for _ in range(c.num_cores)]
    num_cores = len(cluster_ids)
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        loads = draw(st.lists(load_values, min_size=num_cores, max_size=num_cores))
        # None feeds the previous decision back; otherwise an arbitrary
        # observed state (boot core online), as after a fault or a burst.
        override = draw(
            st.none()
            | st.tuples(
                st.lists(st.booleans(), min_size=num_cores, max_size=num_cores),
                st.tuples(
                    *(
                        st.sampled_from(clusters[d].opp_table.frequencies_khz)
                        for d in cluster_ids
                    )
                ),
            )
        )
        steps.append((loads, override))
    knobs = {
        "target_utilization": draw(st.sampled_from(TARGET_UTILIZATIONS)),
        "switch_margin_percent": draw(st.sampled_from([0.0, 5.0, 30.0])),
        "min_residency_ticks": draw(st.integers(min_value=0, max_value=4)),
    }
    return board, knobs, steps


class TestDecisionWalk:
    @settings(max_examples=60, deadline=None)
    @given(walk=demand_walk())
    def test_decisions_match_the_reference(self, walk):
        board, knobs, steps = walk
        clusters = TOPOLOGIES[board]
        policy = EnergyAwarePolicy(clusters, **knobs)
        reference = ScalarEnergyAwarePolicy(clusters, **knobs)
        cluster_ids = [i for i, c in enumerate(clusters) for _ in range(c.num_cores)]
        online = [True] * len(cluster_ids)
        frequencies = [clusters[d].opp_table.min_frequency_khz for d in cluster_ids]
        for tick, (loads, override) in enumerate(steps):
            if override is not None:
                online = [True] + list(override[0][1:])
                frequencies = list(override[1])
            observation = walk_observation(clusters, loads, frequencies, online, tick)
            decision = policy.decide(observation)
            expected = reference.decide(observation)
            assert decision.online_mask == expected.online_mask, tick
            assert decision.target_frequencies_khz == expected.target_frequencies_khz, tick
            assert decision.reason == expected.reason, tick
            online = list(decision.online_mask)
            frequencies = [
                int(target) if target is not None else current
                for target, current in zip(decision.target_frequencies_khz, frequencies)
            ]

    def test_a_tied_rival_does_not_displace_the_held_placement(self):
        """At switch margin 0 a rival that only ties the held cost loses (``>=``).

        On the twin topology one busy core at fmax needs two cores; some
        loads are carried cheapest by one core of each domain at
        different OPPs (``1+1``); at others ``1+1`` ties ``2+0`` at one
        OPP, and a fresh policy picks ``2+0`` (same cost and core count,
        lower frequencies).  Holding ``1+1`` into such a tie keeps it.
        """
        clusters = TOPOLOGIES["twin"]
        fmax = clusters[0].opp_table.max_frequency_khz

        def observation(load, tick):
            loads = [load, 0.0, 0.0, 0.0]
            return walk_observation(clusters, loads, [fmax] * 4, [True] * 4, tick)

        wins, ties = [], []
        for tenth in range(800, 950):
            load = tenth / 10.0
            fresh = ScalarEnergyAwarePolicy(clusters)
            reason = fresh.decide(observation(load, 0)).reason
            demand = fresh._demand_ips(observation(load, 0))
            split = fresh._best_point_for_counts((1, 1), demand)
            paired = fresh._best_point_for_counts((2, 0), demand)
            if reason == "eas:1+1":
                wins.append(load)
            elif reason == "eas:2+0" and split[0] == paired[0]:
                ties.append(load)
        assert wins and ties

        knobs = {"switch_margin_percent": 0.0, "min_residency_ticks": 0}
        policy = EnergyAwarePolicy(clusters, **knobs)
        reference = ScalarEnergyAwarePolicy(clusters, **knobs)
        for tick, load in enumerate((wins[0], ties[0])):
            decision = policy.decide(observation(load, tick))
            assert decision == reference.decide(observation(load, tick))
            assert decision.reason == "eas:1+1", tick

    def test_saturated_platform_takes_the_fallback_on_both(self):
        for clusters in TOPOLOGIES.values():
            policy = EnergyAwarePolicy(clusters, min_residency_ticks=10)
            reference = ScalarEnergyAwarePolicy(clusters, min_residency_ticks=10)
            cluster_ids = [i for i, c in enumerate(clusters) for _ in range(c.num_cores)]
            idle = walk_observation(
                clusters,
                [0.0] * len(cluster_ids),
                [clusters[d].opp_table.min_frequency_khz for d in cluster_ids],
                [True] * len(cluster_ids),
                0,
            )
            pegged = walk_observation(
                clusters,
                [100.0] * len(cluster_ids),
                [clusters[d].opp_table.max_frequency_khz for d in cluster_ids],
                [True] * len(cluster_ids),
                1,
            )
            for observation in (idle, pegged):
                decision = policy.decide(observation)
                expected = reference.decide(observation)
                assert decision == expected
            everything = "+".join(str(c.num_cores) for c in clusters)
            assert decision.reason == f"eas:{everything}"
            assert all(decision.online_mask)
