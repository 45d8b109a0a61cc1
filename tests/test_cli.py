"""The command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import _build_workload, _parse_policies, main
from repro.scenario import (
    POLICY_REGISTRY,
    WORKLOAD_REGISTRY,
    Scenario,
    ScenarioMatrix,
    policy_ref,
)
from repro.config import SimulationConfig

REPO_ROOT = Path(__file__).resolve().parents[1]
PAPER_EVAL = REPO_ROOT / "examples" / "scenarios" / "paper_eval.json"


def short_scenario(**overrides):
    values = dict(
        workload="busyloop",
        workload_params={"target_load_percent": 30.0},
        config=SimulationConfig(duration_seconds=5.0, warmup_seconds=1.0),
        pin_uncore_max=False,
    )
    values.update(overrides)
    return Scenario(**values)


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("table1", "fig3", "fig9a", "fig13"):
            assert experiment_id in out


class TestRun:
    def test_runs_cheap_experiment(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "bandwidth reduction" in out
        assert "quota" in out

    def test_unknown_id_fails_cleanly(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestSpecs:
    def test_single_phone(self, capsys):
        assert main(["specs", "Nexus 5"]) == 0
        out = capsys.readouterr().out
        assert "Snapdragon 800" in out

    def test_all_phones(self, capsys):
        assert main(["specs"]) == 0
        out = capsys.readouterr().out
        assert "Nexus S" in out and "LG G3" in out

    def test_unknown_phone(self, capsys):
        assert main(["specs", "iPhone"]) == 2
        assert "unknown phone" in capsys.readouterr().err


class TestCompare:
    def test_busyloop_comparison(self, capsys):
        code = main(
            ["compare", "--workload", "busyloop:30", "--duration", "5", "--warmup", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "power saving" in out
        assert "mobicore" in out

    def test_game_comparison_reports_fps(self, capsys):
        code = main(
            [
                "compare",
                "--workload",
                "game:Badland",
                "--duration",
                "5",
                "--warmup",
                "1",
                "--pin-uncore",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FPS" in out
        assert "fps ratio" in out

    def test_registered_game_key(self, capsys):
        code = main(
            ["compare", "--workload", "game:subwaysurf", "--duration", "5",
             "--warmup", "1", "--pin-uncore"]
        )
        assert code == 0
        assert "fps ratio" in capsys.readouterr().out

    def test_unknown_workload_kind(self, capsys):
        assert main(["compare", "--workload", "doom:3"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_game_without_title(self, capsys):
        assert main(["compare", "--workload", "game:"]) == 2
        assert "needs a title" in capsys.readouterr().err

    def test_jobs_and_cache_dir(self, capsys, tmp_path):
        argv = [
            "compare", "--workload", "busyloop:30", "--duration", "5",
            "--warmup", "1", "--jobs", "2", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert len(list(tmp_path.glob("*.json"))) == 2  # both sessions cached
        assert main(argv) == 0  # warm re-run, served from the cache
        assert capsys.readouterr().out == cold


class TestScenarios:
    def test_list_shows_registered_keys(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for key in ("mobicore", "game:asphalt8", "Nexus 5", "busyloop"):
            assert key in out

    def test_validate_the_committed_paper_matrix(self, capsys):
        assert main(["scenarios", "validate", str(PAPER_EVAL)]) == 0
        assert "20 scenarios valid" in capsys.readouterr().out

    def test_validate_reports_unknown_names(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        document = json.loads(Scenario().to_json())
        document["policy"] = "not-a-policy"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert main(["scenarios", "validate", str(path)]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_expand_prints_grid_points_and_cache_keys(self, capsys):
        assert main(["scenarios", "expand", str(PAPER_EVAL)]) == 0
        out = capsys.readouterr().out
        assert "game:asphalt8 x mobicore" in out
        assert "cache key" in out

    def test_run_single_scenario_writes_summaries(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(short_scenario().to_json(), encoding="utf-8")
        out_file = tmp_path / "summaries.json"
        code = main(["scenarios", "run", str(path), "--out", str(out_file)])
        assert code == 0
        assert "busyloop/android-default@0" in capsys.readouterr().out
        summaries = json.loads(out_file.read_text(encoding="utf-8"))
        assert len(summaries) == 1
        assert summaries[0]["policy"].startswith("android-default")

    def test_run_matrix_with_only_selects_indices(self, capsys, tmp_path):
        path = tmp_path / "grid.json"
        matrix = ScenarioMatrix(base=short_scenario(), axes={"seed": [1, 2, 3]})
        path.write_text(matrix.to_json(), encoding="utf-8")
        assert main(["scenarios", "run", str(path), "--only", "1"]) == 0
        out = capsys.readouterr().out
        assert "busyloop/android-default@2" in out
        assert "@1" not in out and "@3" not in out

    def test_run_only_out_of_range_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(short_scenario().to_json(), encoding="utf-8")
        assert main(["scenarios", "run", str(path), "--only", "5"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["scenarios", "validate", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestRegisteredNames:
    """``--workload`` and ``--policies`` take every registry key."""

    @pytest.mark.parametrize("key", [key for key in WORKLOAD_REGISTRY if key != "game"])
    def test_every_workload_key_builds(self, key):
        assert _build_workload(key)().name

    def test_game_title_and_key_share_a_cache_key(self):
        by_key = _build_workload("game:subwaysurf")
        by_title = _build_workload("game:Subway Surf")
        assert by_key.payload() == by_title.payload()

    @pytest.mark.parametrize("key", [key for key in POLICY_REGISTRY if key != "static"])
    def test_every_policy_key_parses(self, key):
        [(label, ref)] = _parse_policies(key, "Odroid-XU3")
        assert label == ("android" if key == "android-default" else key)
        assert ref.payload() == policy_ref(key, platform="Odroid-XU3").payload()

    def test_key_that_needs_parameters_fails_cleanly(self, capsys, tmp_path):
        argv = ["trace", "run", "--policies", "static", "--duration", "1",
                "--warmup", "0.5", "--out", str(tmp_path / "t.json")]
        assert main(argv) == 2
        assert "policy 'static' takes parameters" in capsys.readouterr().err

    def test_android_alias_keeps_its_label(self):
        labels = [label for label, _ in _parse_policies("android,default", "Nexus 5")]
        assert labels == ["android", "android"]

    def test_faults_demo_takes_a_registered_key(self, capsys):
        argv = ["faults", "demo", "--workload", "game:angrybirds", "--duration", "6"]
        assert main(argv) == 0
        assert "thermal_throttle: fired" in capsys.readouterr().out


class TestScenarioFlags:
    def test_compare_accepts_a_scenario_document(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(short_scenario().to_json(), encoding="utf-8")
        assert main(["compare", "--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "power saving" in out
        assert "mobicore" in out

    def test_compare_names_the_candidate_column_after_the_policy(self, capsys, tmp_path):
        path = tmp_path / "eas.json"
        scenario = short_scenario(platform="Odroid-XU3", policy="energy-aware")
        path.write_text(scenario.to_json(), encoding="utf-8")
        assert main(["compare", "--scenario", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(line for line in lines if line.startswith("metric"))
        assert header.split() == ["metric", "android", "energy-aware"]

    def test_compare_rejects_matrix_documents(self, capsys, tmp_path):
        path = tmp_path / "grid.json"
        matrix = ScenarioMatrix(base=short_scenario(), axes={"seed": [1, 2]})
        path.write_text(matrix.to_json(), encoding="utf-8")
        assert main(["compare", "--scenario", str(path)]) == 2
        assert "single-scenario" in capsys.readouterr().err

    def test_run_accepts_a_scenario_document(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(short_scenario().to_json(), encoding="utf-8")
        assert main(["run", "--scenario", str(path)]) == 0
        assert "busyloop/android-default@0" in capsys.readouterr().out

    def test_run_without_ids_or_scenario_fails_cleanly(self, capsys):
        assert main(["run"]) == 2
        assert "experiment ids" in capsys.readouterr().err


class TestTrace:
    def trace_args(self, out, fmt="perfetto", extra=()):
        return [
            "trace", "run", "--workload", "busyloop:40", "--duration", "2",
            "--warmup", "0.5", "--policies", "android", "--format", fmt,
            "--out", str(out), *extra,
        ]

    def test_perfetto_export_and_summary(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(self.trace_args(out)) == 0
        run_output = capsys.readouterr().out
        assert "busyloop:40/android" in run_output
        assert "wrote perfetto trace" in run_output
        assert out.exists()
        assert main(["trace", "summary", str(out)]) == 0
        summary_output = capsys.readouterr().out
        assert "cpufreq" in summary_output
        assert "total" in summary_output

    def test_jsonl_with_filters_and_stats(self, capsys, tmp_path):
        out = tmp_path / "trace.jsonl"
        extra = ("--events", "cpufreq,hotplug", "--ring", "500", "--stats",
                 "--jobs", "2", "--workload", "busyloop:70")
        assert main(self.trace_args(out, fmt="jsonl", extra=extra)) == 0
        run_output = capsys.readouterr().out
        assert "sessions executed" in run_output
        assert "ticks/second" in run_output
        assert main(["trace", "summary", str(out)]) == 0
        summary_output = capsys.readouterr().out
        assert "cpufreq:frequency_transition" in summary_output
        assert "counters:tick" not in summary_output  # filtered out

    def test_csv_format(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(self.trace_args(out, fmt="csv")) == 0
        capsys.readouterr()
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == "ts_us,session,category,name,payload"
        assert main(["trace", "summary", str(out)]) == 0
        assert "policy:decision" in capsys.readouterr().out

    def test_any_registered_policy_on_a_big_little_board(self, capsys, tmp_path):
        argv = self.trace_args(tmp_path / "eas.json")
        argv[argv.index("android")] = "android,energy-aware"
        assert main(argv + ["--phone", "Odroid-XU3"]) == 0
        out = capsys.readouterr().out
        assert "busyloop:40/android" in out
        assert "busyloop:40/energy-aware" in out

    def test_unknown_policy_fails_cleanly(self, capsys, tmp_path):
        argv = self.trace_args(tmp_path / "t.json")
        argv[argv.index("android")] = "performance"
        assert main(argv) == 2
        assert "unknown policy" in capsys.readouterr().err


class TestStatsFlag:
    def test_compare_stats(self, capsys):
        argv = [
            "compare", "--workload", "busyloop:30", "--duration", "5",
            "--warmup", "1", "--stats",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sessions executed" in out
        assert "ticks simulated" in out
        assert "memo hits" in out
        assert "wall time (s)" in out
        assert "trace bytes recorded" in out
        assert "peak recorder memory" in out

    def test_stats_table_always_renders_robustness_rows(self, capsys):
        """Clean runs still show the failure counters, as zeros."""
        argv = [
            "compare", "--workload", "busyloop:30", "--duration", "5",
            "--warmup", "1", "--stats",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for row in ("disk cache hits", "retries", "timeouts",
                    "corrupt cache entries", "failed specs"):
            assert row in out, row


class TestStatusAndMetrics:
    def sweep(self, tmp_path):
        status_dir = tmp_path / "status"
        argv = [
            "compare", "--workload", "busyloop:30", "--duration", "5",
            "--warmup", "1", "--jobs", "2", "--status-dir", str(status_dir),
        ]
        assert main(argv) == 0
        return status_dir

    def test_sweep_writes_heartbeat_and_metrics_files(self, capsys, tmp_path):
        status_dir = self.sweep(tmp_path)
        capsys.readouterr()
        assert (status_dir / "heartbeat.jsonl").exists()
        assert (status_dir / "metrics.json").exists()

    def test_status_renders_the_finished_sweep(self, capsys, tmp_path):
        status_dir = self.sweep(tmp_path)
        capsys.readouterr()
        assert main(["status", str(status_dir)]) == 0
        out = capsys.readouterr().out
        assert "2/2 settled" in out
        assert "finished" in out
        assert "2 ok" in out

    def test_metrics_emits_valid_prometheus_text(self, capsys, tmp_path):
        from repro.obs.metrics_plane import parse_prometheus_text

        status_dir = self.sweep(tmp_path)
        capsys.readouterr()
        assert main(["metrics", str(status_dir)]) == 0
        out = capsys.readouterr().out
        samples = dict(
            ((name, tuple(sorted(labels.items()))), value)
            for name, labels, value in parse_prometheus_text(out)
        )
        assert samples[("repro_runner_sessions_executed_total", ())] == 2.0

    def test_metrics_json_format_round_trips(self, capsys, tmp_path):
        status_dir = self.sweep(tmp_path)
        capsys.readouterr()
        assert main(["metrics", str(status_dir), "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["repro_runner_sessions_executed_total"]["samples"] == [
            {"labels": {}, "value": 2.0}
        ]

    def test_status_without_a_sweep_fails_cleanly(self, capsys, tmp_path):
        assert main(["status", str(tmp_path)]) == 2
        assert "heartbeat" in capsys.readouterr().err

    def test_metrics_without_a_sweep_fails_cleanly(self, capsys, tmp_path):
        assert main(["metrics", str(tmp_path)]) == 2
        assert "metrics" in capsys.readouterr().err
