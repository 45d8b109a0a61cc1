"""SessionRunner: ordering, parallel determinism, memo and disk cache."""

import dataclasses

import pytest

from repro.config import SimulationConfig
from repro.errors import RunnerError
from repro.experiments.common import GAME_NAMES
from repro.metrics.summary import SessionSummary
from repro.obs.events import RunnerCacheEvent
from repro.obs.metrics_plane import heartbeat_path, read_heartbeat
from repro.runner import (
    FactoryRef,
    ResultCache,
    SessionRunner,
    SessionSpec,
    configure_default_runner,
    default_runner,
    execute_spec,
    set_default_runner,
    summary_from_dict,
    summary_to_dict,
)
from repro.policies.static import StaticPolicy
from repro.workloads.busyloop import BusyLoopApp


CFG = SimulationConfig(duration_seconds=4.0, seed=0, warmup_seconds=1.0)

ANDROID = FactoryRef.to("repro.experiments.common:android_factory")
MOBICORE = FactoryRef.to("repro.experiments.common:mobicore_factory")


def busyloop_spec(level=40.0, seed=0):
    return SessionSpec(
        platform="Nexus 5",
        policy=FactoryRef.to("repro.policies.static:StaticPolicy", 2, 960_000),
        workload=FactoryRef.to("repro.workloads.busyloop:BusyLoopApp", level),
        config=dataclasses.replace(CFG, seed=seed),
        pin_uncore_max=False,
    )


def game_matrix():
    """The paper's five games under both policies: one batch of ten."""
    return [
        SessionSpec(
            platform="Nexus 5",
            policy=policy,
            workload=FactoryRef.to("repro.workloads.games:game_workload", name),
            config=CFG,
        )
        for name in GAME_NAMES
        for policy in (ANDROID, MOBICORE)
    ]


class TestBatchSemantics:
    def test_results_come_back_in_spec_order(self):
        specs = [busyloop_spec(level) for level in (10.0, 50.0, 90.0)]
        results = SessionRunner(jobs=1).run(specs)
        assert [r.workload for r in results] == [s.workload().name for s in specs]
        powers = [r.mean_power_mw for r in results]
        assert powers == sorted(powers)  # more load, more power

    def test_run_one(self):
        summary = SessionRunner(jobs=1).run_one(busyloop_spec())
        assert isinstance(summary, SessionSummary)
        assert summary.platform == "Nexus 5"

    def test_rejects_non_spec_entries(self):
        with pytest.raises(RunnerError):
            SessionRunner(jobs=1).run([busyloop_spec(), "not a spec"])

    def test_rejects_bad_jobs(self):
        with pytest.raises(RunnerError):
            SessionRunner(jobs=0)

    def test_rejects_cache_dir_that_is_a_file(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("not a cache")
        with pytest.raises(RunnerError):
            SessionRunner(jobs=1, cache_dir=target)

    def test_duplicate_specs_simulate_once(self):
        runner = SessionRunner(jobs=1)
        results = runner.run([busyloop_spec(), busyloop_spec()])
        assert runner.last_stats.sessions_executed == 1
        assert runner.last_stats.memo_hits == 1
        assert results[0] == results[1]

    def test_non_portable_specs_run_inline(self):
        spec = SessionSpec(
            platform="Nexus 5",
            policy=lambda: StaticPolicy(2, 960_000),
            workload=lambda: BusyLoopApp(40.0),
            config=CFG,
            pin_uncore_max=False,
        )
        runner = SessionRunner(jobs=4)
        results = runner.run([spec, busyloop_spec()])
        assert runner.last_stats.sessions_executed == 2
        assert results[0] == execute_spec(spec)


class TestAliasOfFailedSpec:
    def test_duplicate_of_a_failed_spec_fails_with_the_same_error(self, tmp_path):
        """A duplicate never runs: it inherits its origin's failure."""
        spec = SessionSpec(
            platform="Nexus 5",
            policy=FactoryRef.to("repro.policies.static:StaticPolicy", 2, 960_000),
            workload=FactoryRef.to(
                "repro.faults.chaos:FlakyOnceWorkload",
                str(tmp_path / "flaky.token"), 40.0,
            ),
            config=CFG,
            pin_uncore_max=False,
        )
        status_dir = tmp_path / "status"
        runner = SessionRunner(jobs=1, retries=0, status_dir=status_dir)
        report = runner.run_report([spec, spec])

        origin, alias = report.outcomes
        assert [origin.status, alias.status] == ["failed", "failed"]
        assert alias.attempts == 0
        assert alias.source == "none"
        assert (alias.error, alias.error_type) == (origin.error, origin.error_type)
        assert report.errors[1] is report.errors[0]

        assert runner.last_stats.failed_specs == 2
        assert runner.last_stats.memo_hits == 0
        cache_events = [
            event.outcome for event in runner.telemetry
            if isinstance(event, RunnerCacheEvent)
        ]
        assert cache_events == ["miss"]
        lookups = runner.metrics.get("repro_runner_cache_lookups_total")
        assert lookups.value(tier="batch", outcome="alias") == 0

        state = read_heartbeat(heartbeat_path(status_dir))
        assert state.final_counts.get("failed") == 2
        assert state.specs[1].status == "error"


class TestParallelDeterminism:
    def test_jobs4_matches_serial_bit_for_bit(self):
        """The acceptance matrix: five games x two policies, serial vs
        four worker processes, identical summaries in identical order."""
        specs = game_matrix()
        serial = SessionRunner(jobs=1).run(specs)
        parallel = SessionRunner(jobs=4).run(specs)
        assert parallel == serial
        for summary, spec in zip(serial, specs):
            assert summary.seed == spec.config.seed


class TestCaching:
    def test_memo_serves_repeat_batches(self):
        runner = SessionRunner(jobs=1)
        first = runner.run([busyloop_spec()])
        second = runner.run([busyloop_spec()])
        assert runner.last_stats.sessions_executed == 0
        assert runner.last_stats.ticks_simulated == 0
        assert runner.last_stats.memo_hits == 1
        assert second == first

    def test_disk_cache_round_trip(self, tmp_path):
        spec = busyloop_spec()
        warm = SessionRunner(jobs=1, cache_dir=tmp_path)
        first = warm.run([spec])
        assert warm.last_stats.sessions_executed == 1
        assert spec.cache_key() in ResultCache(tmp_path)
        cold = SessionRunner(jobs=1, cache_dir=tmp_path)
        second = cold.run([spec])
        assert cold.last_stats.cache_hits == 1
        assert cold.last_stats.ticks_simulated == 0
        assert second == first

    def test_clear_memo_falls_back_to_disk(self, tmp_path):
        runner = SessionRunner(jobs=1, cache_dir=tmp_path)
        runner.run([busyloop_spec()])
        runner.clear_memo()
        runner.run([busyloop_spec()])
        assert runner.last_stats.sessions_executed == 0
        assert runner.last_stats.cache_hits == 1

    def test_different_seed_is_a_miss(self, tmp_path):
        runner = SessionRunner(jobs=1, cache_dir=tmp_path)
        runner.run([busyloop_spec(seed=0)])
        runner.run([busyloop_spec(seed=1)])
        assert runner.last_stats.sessions_executed == 1
        assert runner.last_stats.cache_hits == 0

    def test_corrupt_entry_is_a_miss_not_a_crash(self, tmp_path):
        spec = busyloop_spec()
        runner = SessionRunner(jobs=1, cache_dir=tmp_path)
        runner.run([spec])
        cache = ResultCache(tmp_path)
        cache.path(spec.cache_key()).write_text("{not json")
        fresh = SessionRunner(jobs=1, cache_dir=tmp_path)
        fresh.run([spec])
        assert fresh.last_stats.sessions_executed == 1


class TestSummarySerde:
    def test_round_trip_is_identity(self):
        summary = SessionRunner(jobs=1).run_one(busyloop_spec())
        assert summary_from_dict(summary_to_dict(summary)) == summary


class TestDefaultRunner:
    @pytest.fixture(autouse=True)
    def isolate_default(self):
        set_default_runner(None)
        yield
        set_default_runner(None)

    def test_configure_installs(self, tmp_path):
        runner = configure_default_runner(jobs=2, cache_dir=tmp_path)
        assert default_runner() is runner
        assert default_runner().jobs == 2

    def test_lazy_default_reads_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner = default_runner()
        assert runner.jobs == 3
        assert str(runner.cache_dir) == str(tmp_path)
