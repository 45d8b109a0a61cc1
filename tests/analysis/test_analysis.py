"""Sweeps, ratio analysis, policy comparison, and report rendering."""

import pytest

from repro.analysis.comparison import PolicyComparison
from repro.analysis.ratio import performance_power_ratio
from repro.analysis.report import (
    format_mhz,
    format_mw,
    format_percent,
    render_series,
    render_table,
)
from repro.analysis.sweep import core_count_sweep, run_session, utilization_sweep
from repro.config import SimulationConfig
from repro.core.mobicore import MobiCorePolicy
from repro.errors import ExperimentError
from repro.policies.android_default import AndroidDefaultPolicy
from repro.policies.static import StaticPolicy
from repro.soc.catalog import nexus5_spec
from repro.workloads.busyloop import BusyLoopApp
from repro.workloads.games import game_workload

CFG = SimulationConfig(duration_seconds=3.0, seed=1, warmup_seconds=0.5)


class TestSweeps:
    def test_utilization_sweep_monotone(self, spec):
        summaries = utilization_sweep(
            spec, 1, spec.opp_table.max_frequency_khz, [10.0, 50.0, 100.0], CFG
        )
        powers = [s.mean_power_mw for s in summaries]
        assert powers == sorted(powers)

    def test_utilization_sweep_needs_levels(self, spec):
        with pytest.raises(ExperimentError):
            utilization_sweep(spec, 1, 300_000, [], CFG)

    def test_core_count_sweep_monotone(self, spec):
        summaries = core_count_sweep(spec, [1, 2, 4], 960_000, 100.0, CFG)
        powers = [s.mean_power_mw for s in summaries]
        assert powers == sorted(powers)

    def test_run_session_isolated_platforms(self, spec):
        """Two runs never share thermal or cluster state."""
        first = run_session(spec, BusyLoopApp(100.0), StaticPolicy(4, 2_265_600), CFG)
        second = run_session(spec, BusyLoopApp(100.0), StaticPolicy(4, 2_265_600), CFG)
        assert first.trace.to_csv() == second.trace.to_csv()


class TestRatio:
    def test_points_per_frequency(self, spec):
        points = performance_power_ratio(
            spec, 1, frequencies_khz=[300_000, 2_265_600], config=CFG
        )
        assert [p.frequency_khz for p in points] == [300_000, 2_265_600]
        assert all(p.score > 0 and p.mean_power_mw > 0 for p in points)
        assert points[1].score > points[0].score

    def test_bad_core_count(self, spec):
        with pytest.raises(ExperimentError):
            performance_power_ratio(spec, 9, config=CFG)


class TestComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        spec = nexus5_spec()
        return PolicyComparison(
            spec,
            baseline_factory=AndroidDefaultPolicy,
            candidate_factory=lambda: MobiCorePolicy(
                power_params=spec.power_params,
                opp_table=spec.opp_table,
                num_cores=spec.num_cores,
            ),
            config=SimulationConfig(duration_seconds=4.0, seed=2, warmup_seconds=1.0),
            pin_uncore_max=False,
        )

    def test_row_deltas(self, comparison):
        row = comparison.compare(lambda: BusyLoopApp(30.0))
        assert row.workload.startswith("busyloop")
        assert row.power_saving_percent > 0
        assert row.fps_ratio is None

    def test_game_row_has_fps_ratio(self, comparison):
        row = comparison.compare(lambda: game_workload("Badland"))
        assert row.fps_ratio is not None
        assert 0 < row.fps_ratio <= 1.1

    def test_seeds_vary_results(self, comparison):
        rows = [comparison.compare(lambda: game_workload("Badland"), seed) for seed in (1, 2)]
        assert rows[0].baseline.mean_power_mw != rows[1].baseline.mean_power_mw

    def test_mean_power_saving(self, comparison):
        rows = [comparison.compare(lambda: BusyLoopApp(30.0), seed) for seed in (1, 2)]
        mean = PolicyComparison.mean_power_saving(rows)
        assert mean == pytest.approx(
            sum(r.power_saving_percent for r in rows) / 2
        )


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(("a", "bbb"), [(1, 2), (333, 4)])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_render_table_row_length_checked(self):
        with pytest.raises(ExperimentError):
            render_table(("a", "b"), [(1,)])

    def test_render_series_bars(self):
        text = render_series("t", "x", "y", ["a", "b"], [1.0, 2.0], bar_width=10)
        lines = text.splitlines()
        assert "##########" in lines[2]
        assert "#####" in lines[1]

    def test_render_series_length_checked(self):
        with pytest.raises(ExperimentError):
            render_series("t", "x", "y", ["a"], [1.0, 2.0])

    def test_formatters(self):
        assert format_mw(980.62) == "980.6 mW"
        assert format_mhz(2_265_600) == "2265.6 MHz"
        assert format_percent(5.34) == "5.3%"
        assert format_percent(5.34, signed=True) == "+5.3%"
