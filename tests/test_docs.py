"""Documentation snippets must run: README, tutorial, failure modes.

Extracts every ```python fence and executes them sequentially in one
shared namespace per document (each document builds on its earlier
snippets), so the docs can never drift from the API.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def python_blocks(path: pathlib.Path):
    return FENCE.findall(path.read_text())


def shrink_durations(code: str) -> str:
    """Keep doc sessions honest but quick."""
    code = code.replace("duration_seconds=120.0", "duration_seconds=6.0")
    code = code.replace("duration_seconds=60.0", "duration_seconds=6.0")
    return code


class TestReadme:
    def test_quickstart_block_runs(self):
        blocks = python_blocks(ROOT / "README.md")
        assert blocks, "README has no python fence"
        namespace = {}
        exec(shrink_durations(blocks[0]), namespace)
        assert 0.0 <= namespace["saving"] < 0.5


class TestTutorial:
    def test_all_blocks_run_in_order(self, capsys):
        blocks = python_blocks(ROOT / "docs" / "TUTORIAL.md")
        assert len(blocks) >= 8, "tutorial lost its snippets"
        namespace = {}
        for block in blocks:
            exec(shrink_durations(block), namespace)
        # spot-check the narrative's claims from the shared namespace
        assert namespace["summary"].mean_power_mw > 0
        assert len(namespace["rows"]) == 3
        # §8: the corrupted cache entry was quarantined and recomputed
        assert namespace["recovered"].outcomes[0].status == "degraded"
        out = capsys.readouterr().out
        assert "47.0" in out        # the static-power anchor printout
        assert "14" in out          # the OPP count printout
        assert "degraded" in out    # the §8 recovery printout


class TestFailureModes:
    def test_every_mode_example_runs(self, capsys):
        """FAILURE_MODES.md is a contract; its examples must hold."""
        blocks = python_blocks(ROOT / "docs" / "FAILURE_MODES.md")
        assert len(blocks) >= 7, "failure-mode contract lost its examples"
        namespace = {}
        for block in blocks:
            exec(shrink_durations(block), namespace)
        out = capsys.readouterr().out
        assert "jobs must be >= 1" in out   # the mode-5 fail-fast printout
