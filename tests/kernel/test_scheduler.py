"""Load-balancing scheduler semantics: balance, backlog, the one-core bound."""

import dataclasses

import pytest

from repro.errors import SchedulerError
from repro.kernel.scheduler import LoadBalancingScheduler
from repro.kernel.task import Task, TaskDemand
from repro.soc.topology import CpuTopology

DT = 0.02


@pytest.fixture
def cluster(spec, opp_table):
    cluster = CpuTopology(spec.cluster_specs())
    cluster.set_all_frequencies(opp_table.max_frequency_khz)
    return cluster


@pytest.fixture
def scheduler():
    return LoadBalancingScheduler()


def capacity(cluster, dt=DT):
    return cluster.core(0).capacity_cycles(dt)


class TestDispatchBasics:
    def test_bad_dt_rejected(self, scheduler, cluster):
        with pytest.raises(Exception):
            scheduler.dispatch([], cluster, dt_seconds=-1.0)

    def test_zero_online_cores_is_unreachable(self, spec):
        """The public API cannot produce a coreless cluster (core 0 pinned)."""
        cluster = CpuTopology((dataclasses.replace(spec.cluster_specs()[0], num_cores=1),))
        with pytest.raises(Exception):
            cluster.set_online_mask([False])

    def test_empty_demand_all_idle(self, scheduler, cluster):
        result = scheduler.dispatch([], cluster, DT)
        assert result.busy_cycles == [0.0] * 4
        assert result.total_executed == 0.0
        assert result.total_backlog == 0.0

    def test_single_task_one_core(self, scheduler, cluster):
        work = capacity(cluster) * 0.5
        result = scheduler.dispatch(
            [TaskDemand(Task(0, "a"), work)], cluster, DT
        )
        busy = [b for b in result.busy_cycles if b > 0]
        assert len(busy) == 1
        assert busy[0] == pytest.approx(work)

    def test_busy_fraction_relative_to_full_capacity(self, scheduler, cluster):
        work = capacity(cluster) * 0.25
        result = scheduler.dispatch([TaskDemand(Task(0, "a"), work)], cluster, DT)
        assert max(result.busy_fractions) == pytest.approx(0.25)


class TestBalancing:
    def test_equal_tasks_spread_over_cores(self, scheduler, cluster):
        work = capacity(cluster) * 0.5
        demands = [TaskDemand(Task(i, f"t{i}"), work) for i in range(4)]
        result = scheduler.dispatch(demands, cluster, DT)
        assert all(b == pytest.approx(work) for b in result.busy_cycles)

    def test_lpt_places_largest_first(self, scheduler, cluster):
        cap = capacity(cluster)
        demands = [
            TaskDemand(Task(0, "big"), cap * 0.9),
            TaskDemand(Task(1, "small1"), cap * 0.3),
            TaskDemand(Task(2, "small2"), cap * 0.3),
        ]
        result = scheduler.dispatch(demands, cluster, DT)
        # The big task owns a core; the small ones land elsewhere.
        fractions = sorted(result.busy_fractions, reverse=True)
        assert fractions[0] == pytest.approx(0.9)
        assert fractions[1] == pytest.approx(0.3)
        assert fractions[2] == pytest.approx(0.3)

    def test_only_online_cores_used(self, scheduler, cluster):
        cluster.set_online_count(2)
        work = capacity(cluster) * 0.5
        demands = [TaskDemand(Task(i, f"t{i}"), work) for i in range(4)]
        result = scheduler.dispatch(demands, cluster, DT)
        assert result.busy_cycles[2] == 0.0
        assert result.busy_cycles[3] == 0.0
        assert result.busy_fractions[0] == pytest.approx(1.0)

    def test_heterogeneous_frequencies(self, scheduler, cluster, opp_table):
        """A faster core executes more of equal tasks than a slower one."""
        cluster.core(0).set_frequency(opp_table.max_frequency_khz)
        for core_id in (1, 2, 3):
            cluster.core(core_id).set_frequency(opp_table.min_frequency_khz)
        work = opp_table.max_frequency_khz * 1000.0 * DT * 0.5
        demands = [TaskDemand(Task(i, f"t{i}"), work) for i in range(4)]
        result = scheduler.dispatch(demands, cluster, DT)
        assert result.busy_cycles[0] > result.busy_cycles[1]


class TestSingleThreadBound:
    def test_serial_task_cannot_exceed_one_core(self, scheduler, cluster):
        """One thread can never use more than one core per tick."""
        work = capacity(cluster) * 3.0
        result = scheduler.dispatch([TaskDemand(Task(0, "a"), work)], cluster, DT)
        assert result.total_executed == pytest.approx(capacity(cluster))
        assert result.total_backlog == pytest.approx(work - capacity(cluster))


class TestBacklog:
    def test_backlog_carries_to_next_tick(self, scheduler, cluster):
        work = capacity(cluster) * 1.5
        scheduler.dispatch([TaskDemand(Task(0, "a"), work)], cluster, DT)
        assert scheduler.total_backlog_cycles == pytest.approx(work - capacity(cluster))
        result = scheduler.dispatch([], cluster, DT)
        assert result.total_executed == pytest.approx(work - capacity(cluster))
        assert scheduler.total_backlog_cycles == 0.0

    def test_backlog_drains_before_fresh_demand(self, scheduler, cluster):
        cap = capacity(cluster)
        cluster.set_online_count(1)
        task = Task(0, "a")
        scheduler.dispatch([TaskDemand(task, cap * 2)], cluster, DT)
        result = scheduler.dispatch([TaskDemand(task, cap)], cluster, DT)
        # the carried cap drains; the fresh cap becomes the new backlog
        assert result.backlog_by_task[0] == pytest.approx(cap)

    def test_backlog_capped_and_dropped(self, scheduler, cluster):
        cap_limit = (
            cluster.clusters[0].opp_table.max_frequency_khz * 1000 * DT * scheduler.backlog_cap_ticks
        )
        huge = cap_limit * 10
        result = scheduler.dispatch(
            [TaskDemand(Task(0, "a"), huge)], cluster, DT
        )
        assert result.dropped_cycles > 0.0
        assert scheduler.total_backlog_cycles <= cap_limit + 1.0

    def test_reset_clears_backlog(self, scheduler, cluster):
        scheduler.dispatch(
            [TaskDemand(Task(0, "a"), capacity(cluster) * 2)], cluster, DT
        )
        scheduler.reset()
        assert scheduler.total_backlog_cycles == 0.0


class TestQuota:
    def test_quota_limits_execution(self, scheduler, cluster):
        work = capacity(cluster)
        result = scheduler.dispatch(
            [TaskDemand(Task(0, "a"), work)], cluster, DT, quota=0.5
        )
        assert result.total_executed == pytest.approx(work * 0.5)
        assert max(result.busy_fractions) == pytest.approx(0.5)

    def test_busy_fraction_capped_by_quota(self, scheduler, cluster):
        work = capacity(cluster) * 10
        result = scheduler.dispatch(
            [TaskDemand(Task(0, "a"), work)], cluster, DT, quota=0.8
        )
        assert max(result.busy_fractions) == pytest.approx(0.8)
