"""The shipped examples must run (the fast ones, as subprocesses)."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent.parent / "examples"


def run_example(name, *args, timeout=120):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_adb_shell_demo(self):
        result = run_example("adb_shell_demo.py")
        assert result.returncode == 0, result.stderr
        assert "mpdecision" in result.stdout
        assert "quota: 0.90" in result.stdout

    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "MobiCore power saving" in result.stdout
        assert "FPS ratio" in result.stdout

    def test_custom_platform(self):
        result = run_example("custom_platform.py")
        assert result.returncode == 0, result.stderr
        assert "Octa 2016" in result.stdout
        assert "power saving on the custom device" in result.stdout

    def test_governor_comparison(self):
        result = run_example("governor_comparison.py")
        assert result.returncode == 0, result.stderr
        assert any(line.startswith("mobicore ") for line in result.stdout.splitlines())

    def test_calibrate_device(self):
        result = run_example("calibrate_device.py")
        assert result.returncode == 0, result.stderr
        assert "mobicore (fitted)" in result.stdout

    def test_gaming_evaluation_writes_traces(self, tmp_path):
        result = run_example("gaming_evaluation.py", str(tmp_path), timeout=300)
        assert result.returncode == 0, result.stderr
        assert "mean power saving" in result.stdout
        csvs = list(tmp_path.glob("*.csv"))
        assert len(csvs) == 10  # five games x two policies
        header = csvs[0].read_text().splitlines()[0]
        assert header.startswith("tick,")
