"""Property-based invariants of the load-balancing scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.scheduler import LoadBalancingScheduler
from repro.kernel.task import Task, TaskDemand
from repro.soc.catalog import nexus5_spec
from repro.soc.topology import CpuTopology

DT = 0.02
SPEC = nexus5_spec()
TABLE = SPEC.opp_table


@st.composite
def demand_sets(draw):
    count = draw(st.integers(min_value=0, max_value=8))
    demands = []
    for task_id in range(count):
        cycles = draw(st.floats(min_value=0.0, max_value=3e8))
        demands.append(TaskDemand(Task(task_id, f"t{task_id}"), cycles))
    return demands


@st.composite
def clusters(draw):
    cluster = CpuTopology(SPEC.cluster_specs())
    frequency = draw(st.sampled_from(TABLE.frequencies_khz))
    cluster.set_all_frequencies(frequency)
    online = draw(st.integers(min_value=1, max_value=4))
    cluster.set_online_count(online)
    return cluster


class TestConservation:
    @settings(max_examples=60, deadline=None)
    @given(demands=demand_sets(), cluster=clusters(),
           quota=st.floats(min_value=0.2, max_value=1.0))
    def test_work_is_conserved(self, demands, cluster, quota):
        """executed + backlog + dropped == demanded (cycle conservation)."""
        scheduler = LoadBalancingScheduler()
        result = scheduler.dispatch(demands, cluster, DT, quota=quota)
        demanded = sum(d.cycles for d in demands)
        accounted = result.total_executed + result.total_backlog + result.dropped_cycles
        assert accounted == pytest.approx(demanded, rel=1e-9, abs=1e-3)

    @settings(max_examples=60, deadline=None)
    @given(demands=demand_sets(), cluster=clusters(),
           quota=st.floats(min_value=0.2, max_value=1.0))
    def test_no_core_exceeds_quota_capacity(self, demands, cluster, quota):
        scheduler = LoadBalancingScheduler()
        result = scheduler.dispatch(demands, cluster, DT, quota=quota)
        for core in cluster.cores:
            capacity = core.capacity_cycles(DT, quota)
            assert result.busy_cycles[core.core_id] <= capacity + 1e-6

    @settings(max_examples=60, deadline=None)
    @given(demands=demand_sets(), cluster=clusters())
    def test_offline_cores_stay_idle(self, demands, cluster):
        scheduler = LoadBalancingScheduler()
        result = scheduler.dispatch(demands, cluster, DT)
        for core in cluster.cores:
            if not core.is_online:
                assert result.busy_cycles[core.core_id] == 0.0
                assert result.busy_fractions[core.core_id] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(demands=demand_sets(), cluster=clusters())
    def test_executed_never_negative(self, demands, cluster):
        scheduler = LoadBalancingScheduler()
        result = scheduler.dispatch(demands, cluster, DT)
        assert all(v >= 0.0 for v in result.executed_by_task.values())
        assert all(v >= 0.0 for v in result.backlog_by_task.values())
        assert result.dropped_cycles >= 0.0

    @settings(max_examples=30, deadline=None)
    @given(demands=demand_sets(), cluster=clusters())
    def test_feasible_parallel_work_completes(self, demands, cluster):
        """When total demand fits total capacity and every task fits one
        core, everything executes this tick."""
        scheduler = LoadBalancingScheduler()
        total_capacity = cluster.total_capacity_cycles(DT)
        core_capacity = min(
            core.capacity_cycles(DT) for core in cluster.online_cores
        )
        total = sum(d.cycles for d in demands)
        serial_fits = all(d.cycles <= core_capacity for d in demands)
        if total <= total_capacity * 0.9 and serial_fits and len(demands) <= len(
            cluster.online_cores
        ):
            result = scheduler.dispatch(demands, cluster, DT)
            assert result.total_executed == pytest.approx(total, rel=1e-9, abs=1e-3)
