"""Runner tracing: traced specs, telemetry events, accumulated stats."""

import dataclasses

import pytest

from repro.config import SimulationConfig
from repro.obs.events import RunnerCacheEvent, RunnerSessionEvent
from repro.runner import (
    FactoryRef,
    SessionRunner,
    SessionSpec,
    TraceRequest,
    execute_spec,
    execute_spec_full,
)


CFG = SimulationConfig(duration_seconds=2.0, seed=0, warmup_seconds=0.5)


def spec(level=40.0, trace=None, label=""):
    return SessionSpec(
        platform="Nexus 5",
        policy=FactoryRef.to("repro.policies.android_default:AndroidDefaultPolicy"),
        workload=FactoryRef.to("repro.workloads.busyloop:BusyLoopApp", level),
        config=CFG,
        pin_uncore_max=False,
        label=label,
        trace=trace,
    )


class TestTraceRequest:
    def test_trace_does_not_change_cache_identity(self):
        assert spec().cache_key() == spec(trace=TraceRequest()).cache_key()
        assert spec().cache_key() != spec(level=50.0).cache_key()

    def test_build_bus_honours_request(self):
        bus = TraceRequest(categories=("cpufreq",), ring_capacity=64).build_bus()
        assert bus.capacity == 64
        assert bus.categories == frozenset({"cpufreq"})

    def test_default_request_records_everything(self):
        bus = TraceRequest().build_bus()
        assert bus.capacity is None
        assert bus.categories is None


class TestExecuteSpecFull:
    def test_execution_carries_events_and_summary(self):
        execution = execute_spec_full(spec(trace=TraceRequest()))
        assert execution.summary == execute_spec(spec())
        assert execution.ticks == CFG.total_ticks
        assert execution.wall_seconds > 0.0
        assert execution.worker_pid > 0
        assert execution.event_counts["counters:tick"] == CFG.total_ticks
        assert (
            execution.event_counts["cpufreq:frequency_transition"]
            == execution.summary.dvfs_transitions
        )

    def test_untraced_execution_has_no_events(self):
        execution = execute_spec_full(spec())
        assert execution.events == []
        assert execution.event_counts == {}


class TestRunnerTracing:
    def test_traced_spec_bypasses_memo(self):
        runner = SessionRunner(jobs=1)
        traced = spec(trace=TraceRequest(), label="traced")
        runner.run([traced])
        runner.run([traced])
        # Second run executed again — a cached summary has no events.
        assert runner.last_stats.sessions_executed == 1
        assert runner.last_events[0]
        # But the traced run warmed the memo for untraced twins.
        runner.run([spec()])
        assert runner.last_stats.sessions_executed == 0
        assert runner.last_stats.memo_hits == 1

    def test_serial_and_parallel_traces_match(self):
        specs = [
            spec(30.0, trace=TraceRequest(), label="low"),
            spec(70.0, trace=TraceRequest(), label="high"),
        ]
        serial = SessionRunner(jobs=1)
        serial_results = serial.run(specs)
        parallel = SessionRunner(jobs=2)
        parallel_results = parallel.run(specs)
        assert parallel_results == serial_results
        assert set(parallel.last_events) == {0, 1}
        for index in (0, 1):
            assert (
                [repr(e) for e in parallel.last_events[index]]
                == [repr(e) for e in serial.last_events[index]]
            )
            assert (
                parallel.last_event_counts[index]
                == serial.last_event_counts[index]
            )

    def test_ring_and_category_requests_apply(self):
        runner = SessionRunner(jobs=1)
        runner.run(
            [spec(trace=TraceRequest(categories=("cpufreq",), ring_capacity=10))]
        )
        events = runner.last_events[0]
        assert len(events) == 10
        assert {e.category for e in events} == {"cpufreq"}


class TestRunnerTelemetry:
    def test_session_events_attribute_work(self):
        runner = SessionRunner(jobs=1)
        runner.run([spec(label="only")])
        sessions = [
            e for e in runner.telemetry if isinstance(e, RunnerSessionEvent)
        ]
        assert len(sessions) == 1
        event = sessions[0]
        assert event.label == "only"
        assert event.ticks == CFG.total_ticks
        assert event.wall_seconds > 0.0
        assert event.worker_pid > 0
        assert event.ticks_per_second > 0.0

    def test_cache_outcome_events(self):
        runner = SessionRunner(jobs=1)
        runner.run([spec()])
        first = [e for e in runner.telemetry if isinstance(e, RunnerCacheEvent)]
        assert [e.outcome for e in first] == ["miss"]
        runner.run([spec(), spec()])
        outcomes = sorted(
            e.outcome
            for e in runner.telemetry
            if isinstance(e, RunnerCacheEvent)
        )
        assert outcomes == ["alias", "memo_hit"]

    def test_stats_accumulate_across_runs(self):
        runner = SessionRunner(jobs=1)
        runner.run([spec()])
        runner.run([spec()])  # memo hit, nothing executed
        total = runner.total_stats
        assert total.sessions_executed == 1
        assert total.ticks_simulated == CFG.total_ticks
        assert total.memo_hits == 1
        assert total.wall_seconds > 0.0
        assert total.ticks_per_second > 0.0

    def test_empty_stats_rate_is_zero(self):
        from repro.runner import RunnerStats

        assert RunnerStats().ticks_per_second == 0.0
