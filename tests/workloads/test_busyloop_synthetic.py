"""The busy-loop kernel app and the synthetic pattern generators."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.base import WorkloadContext
from repro.workloads.busyloop import BusyLoopApp
from repro.workloads.synthetic import (
    ConstantWorkload,
    SineWorkload,
    StepWorkload,
)

DT = 0.02


@pytest.fixture
def context(opp_table):
    return WorkloadContext(num_cores=4, opp_table=opp_table, dt_seconds=DT, seed=1)


def total_demand(workload, tick):
    return sum(d.cycles for d in workload.demand(tick))


class TestWorkloadContext:
    def test_capacities(self, context, opp_table):
        one = opp_table.max_frequency_khz * 1000 * DT
        assert context.core_max_cycles_per_tick == pytest.approx(one)
        assert context.platform_max_cycles_per_tick == pytest.approx(4 * one)

    def test_rng_deterministic(self, context):
        assert context.rng().random() == context.rng().random()

    def test_validation(self, opp_table):
        with pytest.raises(WorkloadError):
            WorkloadContext(0, opp_table, DT, 1)


class TestBusyLoop:
    def test_unprepared_raises(self):
        with pytest.raises(WorkloadError):
            BusyLoopApp(50.0).demand(0)

    def test_global_mode_targets_platform_fraction(self, context):
        app = BusyLoopApp(50.0, idle_gap_seconds=0.0)
        app.prepare(context)
        assert total_demand(app, 0) == pytest.approx(
            0.5 * context.platform_max_cycles_per_tick
        )

    def test_one_thread_per_core_by_default(self, context):
        app = BusyLoopApp(50.0)
        app.prepare(context)
        assert len(app.tasks()) == 4

    def test_reference_mode_targets_pinned_capacity(self, context):
        app = BusyLoopApp(
            60.0, num_threads=1, idle_gap_seconds=0.0, reference_frequency_khz=300_000
        )
        app.prepare(context)
        assert total_demand(app, 0) == pytest.approx(0.6 * 300_000e3 * DT)

    def test_idle_gap_produces_idle_ticks(self, context):
        app = BusyLoopApp(50.0, idle_gap_seconds=0.040, cycle_seconds=1.0)
        app.prepare(context)
        ticks_per_cycle = int(1.0 / DT)
        demands = [total_demand(app, t) for t in range(ticks_per_cycle)]
        idle_ticks = sum(1 for d in demands if d == 0)
        assert idle_ticks == 2  # 40 ms at 20 ms ticks

    def test_idle_gap_compensated_in_average(self, context):
        app = BusyLoopApp(50.0, idle_gap_seconds=0.040, cycle_seconds=1.0)
        app.prepare(context)
        ticks_per_cycle = int(1.0 / DT)
        mean = sum(total_demand(app, t) for t in range(ticks_per_cycle)) / ticks_per_cycle
        assert mean == pytest.approx(0.5 * context.platform_max_cycles_per_tick, rel=0.01)

    def test_gap_longer_than_cycle_rejected(self):
        with pytest.raises(WorkloadError):
            BusyLoopApp(50.0, idle_gap_seconds=2.0, cycle_seconds=1.0)

    def test_records_execution(self, context):
        app = BusyLoopApp(50.0)
        app.prepare(context)
        app.record_execution(0, {0: 1000.0})
        assert app.metrics()["executed_cycles"] == pytest.approx(1000.0)


class TestSyntheticPatterns:
    def test_constant(self, context):
        workload = ConstantWorkload(25.0)
        workload.prepare(context)
        assert workload.level_percent(0) == 25.0
        assert workload.level_percent(999) == 25.0

    def test_step_sequence(self, context):
        workload = StepWorkload([(1.0, 10.0), (1.0, 80.0)])
        workload.prepare(context)
        assert workload.level_percent(0) == 10.0
        assert workload.level_percent(60) == 80.0
        assert workload.level_percent(100) == 10.0  # loops

    def test_step_needs_steps(self):
        with pytest.raises(WorkloadError):
            StepWorkload([])

    def test_sine_oscillates_around_mean(self, context):
        workload = SineWorkload(50.0, 20.0, period_seconds=1.0)
        workload.prepare(context)
        levels = [workload.level_percent(t) for t in range(50)]
        assert max(levels) == pytest.approx(70.0, abs=1.0)
        assert min(levels) == pytest.approx(30.0, abs=1.0)
        assert sum(levels) / len(levels) == pytest.approx(50.0, abs=1.0)

    def test_demand_clamped_to_platform(self, context):
        workload = SineWorkload(90.0, 20.0, period_seconds=1.0)
        workload.prepare(context)
        for tick in range(100):
            assert total_demand(workload, tick) <= (
                context.platform_max_cycles_per_tick + 1e-6
            )
