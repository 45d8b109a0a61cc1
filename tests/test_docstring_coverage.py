"""The documentation gates CI enforces, runnable locally.

The infrastructure packages (`repro.faults`, `repro.runner`,
`repro.scenario`, `repro.store`), the hardware substrate (`repro.soc`
plus `repro.policies.energy_aware`), the columnar trace spine
(`repro.kernel.trace_buffer`, `repro.obs.columnar`), the ops plane
(`repro.obs.metrics_plane`), the batch engine
(`repro.kernel.batch_engine`), the tick-loop entry point with its
control planes (`repro.kernel.engine`, `repro.obs.bus`,
`repro.kernel.android_shell`) and the tick loop's own layers
(`repro.kernel.scheduler`, `procstat`, `task`, `tracing`, `cpufreq`,
`hotplug`, `cpuidle`, `cgroup`) promise
complete docstrings —
docs/API.md points readers at `help()` — so the gate is 100%, checked
by `tools/docstring_coverage.py` in CI and here.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "docstring_coverage.py"


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args],
        capture_output=True, text=True, cwd=ROOT,
    )


class TestGatedPackages:
    def test_faults_and_runner_fully_documented(self):
        result = run_tool("src/repro/faults", "src/repro/runner")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "(100.0%)" in result.stdout

    def test_scenario_package_fully_documented(self):
        result = run_tool("src/repro/scenario")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "(100.0%)" in result.stdout

    def test_trace_spine_fully_documented(self):
        result = run_tool(
            "src/repro/kernel/trace_buffer.py", "src/repro/obs/columnar.py"
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "(100.0%)" in result.stdout

    def test_metrics_plane_fully_documented(self):
        result = run_tool("src/repro/obs/metrics_plane")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "(100.0%)" in result.stdout

    def test_batch_engine_fully_documented(self):
        result = run_tool("src/repro/kernel/batch_engine.py")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "(100.0%)" in result.stdout

    def test_store_package_fully_documented(self):
        result = run_tool("src/repro/store")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "(100.0%)" in result.stdout

    def test_engine_bus_and_shell_fully_documented(self):
        result = run_tool(
            "src/repro/kernel/engine.py",
            "src/repro/obs/bus.py",
            "src/repro/kernel/android_shell.py",
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "(100.0%)" in result.stdout

    def test_tick_loop_layers_fully_documented(self):
        result = run_tool(
            "src/repro/kernel/scheduler.py",
            "src/repro/kernel/procstat.py",
            "src/repro/kernel/task.py",
            "src/repro/kernel/tracing.py",
            "src/repro/kernel/cpufreq.py",
            "src/repro/kernel/hotplug.py",
            "src/repro/kernel/cpuidle.py",
            "src/repro/kernel/cgroup.py",
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "(100.0%)" in result.stdout

    def test_soc_package_fully_documented(self):
        result = run_tool("src/repro/soc", "src/repro/policies/energy_aware.py")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "(100.0%)" in result.stdout


class TestTool:
    def test_undocumented_code_fails_the_gate(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            '"""Documented module."""\n\n'
            "def documented():\n"
            '    """Has one."""\n\n'
            "def naked():\n"
            "    pass\n",
            encoding="utf-8",
        )
        result = run_tool(str(bad))
        assert result.returncode == 1
        assert "MISSING" in result.stdout
        assert "naked" in result.stdout

    def test_private_names_and_stubs_exempt(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(
            '"""Documented module."""\n\n'
            "def _helper():\n"
            "    pass\n\n"
            "class Thing:\n"
            '    """Documented class."""\n\n'
            "    def __init__(self):\n"
            "        pass\n\n"
            "    def stub(self): ...\n",
            encoding="utf-8",
        )
        result = run_tool(str(ok))
        assert result.returncode == 0, result.stdout

    def test_threshold_is_tunable(self, tmp_path):
        half = tmp_path / "half.py"
        half.write_text(
            '"""Documented module."""\n\n'
            "def naked():\n"
            "    pass\n",
            encoding="utf-8",
        )
        assert run_tool(str(half), "--min", "50").returncode == 0
        assert run_tool(str(half), "--min", "75").returncode == 1
