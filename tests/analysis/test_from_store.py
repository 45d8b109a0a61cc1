"""Analysis constructors that read an experiment store instead of running.

``comparison_rows_from_store`` must reproduce exactly what the live path
computed: the store round-trips summaries bit-identically, so derived
deltas are equal, not merely close.
"""

import pytest

from repro.analysis.comparison import PolicyComparison, comparison_rows_from_store
from repro.config import SimulationConfig
from repro.errors import ExperimentError
from repro.runner import SessionRunner
from repro.scenario import policy_ref, workload_ref
from repro.store import ExperimentStore

CFG = SimulationConfig(duration_seconds=2.0, seed=0, warmup_seconds=0.5)


@pytest.fixture
def comparison_store(tmp_path):
    """A store populated by a real two-seed A/B comparison."""
    runner = SessionRunner(jobs=1, store_dir=tmp_path)
    comparison = PolicyComparison(
        "Nexus 5",
        baseline_factory=policy_ref("android-default"),
        candidate_factory=policy_ref("mobicore", platform="Nexus 5"),
        config=CFG,
        runner=runner,
    )
    workload = workload_ref("busyloop", target_load_percent=40.0)
    rows = [comparison.compare(workload, seed) for seed in (0, 1)]
    return tmp_path, rows


class TestComparisonRowsFromStore:
    def test_rows_match_the_live_comparison_exactly(self, comparison_store):
        root, live_rows = comparison_store
        stored = comparison_rows_from_store(root, "android-default", "mobicore")
        assert len(stored) == len(live_rows)
        live_by_seed = {row.baseline.seed: row for row in live_rows}
        for row in stored:
            live = live_by_seed[row.baseline.seed]
            assert row.baseline == live.baseline
            assert row.candidate == live.candidate
            assert row.power_saving_percent == live.power_saving_percent

    def test_open_store_and_path_agree(self, comparison_store):
        root, _ = comparison_store
        with ExperimentStore(root) as store:
            from_open = comparison_rows_from_store(
                store, "android-default", "mobicore"
            )
        assert from_open == comparison_rows_from_store(
            root, "android-default", "mobicore"
        )

    def test_incomplete_pair_is_a_typed_error(self, comparison_store):
        root, _ = comparison_store
        with pytest.raises(ExperimentError):
            comparison_rows_from_store(root, "android-default", "no-such-policy")
