"""The runner's ``batch=`` knob: grouping, fallback, and ordering.

Batched execution must be invisible except for speed: report rows stay
in spec order no matter how grouping packs them, unbatchable specs
(faults, traces, non-vectorizable shapes) transparently take the normal
pool/inline path, and the summaries equal a plain runner's bit for bit.
"""

import pytest

from repro.config import SimulationConfig
from repro.faults import FaultPlan, ThermalThrottleFault
from repro.runner.runner import SessionRunner
from repro.runner.spec import SessionSpec
from repro.scenario import (
    Scenario,
    ScenarioMatrix,
    platform_ref,
    policy_ref,
    run_scenarios,
    workload_ref,
)

PLATFORM = "Nexus 5"


def sweep_spec(index, policy="mobicore", workload="busyloop", faults=None, config=None):
    """One labelled sweep point; busy-loop intensity varies with index."""
    params = {"target_load_percent": 15.0 + 9.0 * index} if workload == "busyloop" else {}
    return SessionSpec(
        platform=platform_ref(PLATFORM),
        policy=policy_ref(policy, platform=PLATFORM),
        workload=workload_ref(workload, **params),
        config=config
        or SimulationConfig(duration_seconds=2.0, seed=index, warmup_seconds=0.2),
        faults=faults,
        label=f"s{index}",
    )


def faulted_plan():
    return FaultPlan(
        (ThermalThrottleFault(at_seconds=0.5, duration_seconds=0.5, steps=2),)
    )


class TestBatchedRunner:
    def test_mixed_sweep_matches_plain_runner_jobs4(self):
        # Batchable and non-batchable (faulted) specs interleaved: the
        # faulted ones must transparently fall back to the pool while
        # the rest batch, and the report must match a plain run exactly.
        specs = [
            sweep_spec(0),
            sweep_spec(1, policy="android-default"),
            sweep_spec(2, faults=faulted_plan()),
            sweep_spec(3),
            sweep_spec(4, workload="geekbench"),
            sweep_spec(5, faults=faulted_plan()),
            sweep_spec(6, policy="race-to-idle"),
            sweep_spec(7),
        ]
        expected = SessionRunner(jobs=1).run(specs)
        report = SessionRunner(jobs=4, batch=True).run_report(specs)
        assert report.summaries == expected
        details = [outcome.detail for outcome in report.outcomes]
        assert details[0].startswith("batched("), details
        assert details[3].startswith("batched("), details
        for unbatchable in (2, 4, 5):
            assert details[unbatchable] == "", details
        assert all(outcome.status == "ok" for outcome in report.outcomes)

    def test_report_rows_stay_in_spec_order(self):
        # Group packing pulls indices 0/2/4 into one batch; every
        # summary must still land at its own spec's index.
        specs = [
            sweep_spec(0),
            sweep_spec(1, config=SimulationConfig(duration_seconds=1.0, seed=1)),
            sweep_spec(2),
            sweep_spec(3, config=SimulationConfig(duration_seconds=1.0, seed=3)),
            sweep_spec(4),
        ]
        summaries = SessionRunner(batch=True).run(specs)
        for spec, summary in zip(specs, summaries):
            assert summary.seed == spec.config.seed
            assert summary.duration_seconds == spec.config.duration_seconds

    def test_batched_results_fill_memo_and_cache(self, tmp_path):
        specs = [sweep_spec(index) for index in range(3)]
        runner = SessionRunner(batch=True, cache_dir=tmp_path)
        first = runner.run(specs)
        assert runner.last_stats.sessions_executed == 3
        again = runner.run(specs)
        assert again == first
        assert runner.last_stats.memo_hits == 3
        cold = SessionRunner(batch=True, cache_dir=tmp_path)
        assert cold.run(specs) == first
        assert cold.last_stats.cache_hits == 3
        assert cold.last_stats.sessions_executed == 0

    def test_single_spec_groups_use_the_normal_path(self):
        report = SessionRunner(batch=True).run_report([sweep_spec(0)])
        assert report.outcomes[0].detail == ""
        assert report.outcomes[0].source == "executed"
        assert report.summaries[0] is not None

    def test_duplicate_specs_alias_not_rebatch(self):
        spec = sweep_spec(0)
        runner = SessionRunner(batch=True)
        report = runner.run_report([spec, spec, sweep_spec(1), sweep_spec(2)])
        assert report.outcomes[1].source == "alias"
        assert report.summaries[0] == report.summaries[1]
        assert runner.last_stats.sessions_executed == 3

    def test_batch_failure_reruns_scalar_and_names_the_error(self, monkeypatch):
        from repro.kernel.batch_engine import BatchSession

        def broken_run(self):
            raise RuntimeError("vectorized kernel exploded")

        monkeypatch.setattr(BatchSession, "run", broken_run)
        specs = [sweep_spec(index) for index in range(3)]
        expected = SessionRunner(batch=False).run(specs)
        report = SessionRunner(batch=True).run_report(specs)
        assert report.summaries == expected
        for outcome in report.outcomes:
            assert outcome.status == "ok"
            assert outcome.source == "executed"
            assert outcome.detail == (
                "batch path failed (RuntimeError: vectorized kernel exploded); "
                "ran scalar"
            )


class TestScenarioOrderingRegression:
    def test_run_scenarios_order_is_expansion_order(self):
        # Regression: batch grouping must not reorder run_scenarios
        # output.  The matrix interleaves batchable and non-batchable
        # workloads, so naive group-then-concatenate would shuffle it.
        matrix = ScenarioMatrix(
            base=Scenario(
                platform=PLATFORM,
                policy="mobicore",
                config=SimulationConfig(duration_seconds=1.0, warmup_seconds=0.2),
            ),
            axes=(
                ("workload", ("busyloop", "geekbench")),
                ("config.seed", (1, 2, 3)),
            ),
        )
        scenarios = matrix.expand()
        expected = run_scenarios(scenarios, runner=SessionRunner())
        got = run_scenarios(scenarios, runner=SessionRunner(batch=True, jobs=2))
        assert got == expected
        for scenario, summary in zip(scenarios, got):
            assert summary.workload.startswith(
                "busyloop" if scenario.workload == "busyloop" else "geekbench"
            )
            assert summary.seed == scenario.config.seed


class TestUnenforcedTimeoutAccounting:
    """Batched groups run in the driver process, so --timeout cannot be
    enforced there; the gap must be *visible*, never silent."""

    def test_batched_specs_surface_the_timeout_gap(self):
        specs = [sweep_spec(index) for index in range(3)]
        runner = SessionRunner(batch=True, timeout_seconds=60.0)
        report = runner.run_report(specs)
        report.raise_on_failure()
        assert runner.last_stats.unenforced_timeouts == len(specs)
        for outcome in report.outcomes:
            assert "timeout not enforced" in outcome.detail

    def test_no_timeout_means_no_gap_to_report(self):
        specs = [sweep_spec(index) for index in range(2)]
        runner = SessionRunner(batch=True)
        report = runner.run_report(specs)
        assert runner.last_stats.unenforced_timeouts == 0
        for outcome in report.outcomes:
            assert "timeout not enforced" not in outcome.detail

    def test_pool_path_still_enforces_without_counting(self):
        # Unbatchable (faulted) specs take the pool path where the
        # timeout IS real; nothing should count as unenforced there.
        specs = [sweep_spec(0, faults=faulted_plan())]
        runner = SessionRunner(batch=True, timeout_seconds=60.0, jobs=2)
        runner.run(specs)
        assert runner.last_stats.unenforced_timeouts == 0

    def test_single_spec_group_enforces_normally(self):
        # A group of one takes the normal (enforceable) path, so no gap.
        runner = SessionRunner(batch=True, timeout_seconds=60.0)
        runner.run([sweep_spec(0)])
        assert runner.last_stats.unenforced_timeouts == 0

    def test_inline_specs_surface_the_timeout_gap(self):
        # A non-portable spec (lambda factories) runs in the driver
        # process like a batched group, so its budget is not enforced
        # either: the same note and the same count, never silence.
        from repro.policies.static import StaticPolicy
        from repro.workloads.busyloop import BusyLoopApp

        inline = SessionSpec(
            platform=PLATFORM,
            policy=lambda: StaticPolicy(2, 960_000),
            workload=lambda: BusyLoopApp(40.0),
            config=SimulationConfig(duration_seconds=1.0, seed=0, warmup_seconds=0.2),
            label="inline",
        )
        runner = SessionRunner(jobs=2, timeout_seconds=0.001)
        report = runner.run_report([inline])
        assert report.outcomes[0].status == "ok"
        assert "timeout not enforced" in report.outcomes[0].detail
        assert runner.last_stats.unenforced_timeouts == 1

    def test_stats_table_reports_the_counter(self):
        from repro.obs.metrics_plane import stats_rows

        runner = SessionRunner(batch=True, timeout_seconds=60.0)
        runner.run([sweep_spec(0), sweep_spec(1)])
        rows = dict(stats_rows(runner.last_stats))
        assert rows["unenforced timeouts"] == "2"
