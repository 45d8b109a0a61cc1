"""Policy A/B comparison on identical demand (the section 6 harness).

Every evaluation figure compares MobiCore against the Android default on
the *same* workload.  :class:`PolicyComparison` runs both policies with
the same seed (so stochastic workloads emit the same demand sequence)
and reports the paper's deltas: power saving, FPS ratio, frequency
reduction, core-count difference, load difference.

All sessions execute through a
:class:`~repro.runner.runner.SessionRunner`, so a comparison built from
portable pieces (a catalog platform name plus
:class:`~repro.runner.spec.FactoryRef` factories) parallelises over the
runner's worker pool and hits its on-disk cache; plain callables still
work and simply run serially in-process.

Comparisons can also be rebuilt *without* running anything:
:func:`comparison_rows_from_store` reads both policies' summaries back
out of a :class:`~repro.store.ExperimentStore` index and pairs them by
(platform, workload, seed) — the figure-regeneration path over an
already-populated store.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..config import SimulationConfig
from ..errors import ExperimentError
from ..faults.plan import FaultPlan
from ..kernel.trace_buffer import sequential_sum
from ..metrics.summary import SessionSummary
from ..runner.runner import SessionRunner, default_runner
from ..runner.spec import FactoryLike, FactoryRef, PlatformLike, SessionSpec
from ..soc.catalog import get_phone_spec
from ..soc.platform import PlatformSpec

__all__ = [
    "ComparisonRow",
    "PolicyComparison",
    "comparison_rows",
    "comparison_rows_from_store",
]


def comparison_rows(summaries: Sequence[SessionSummary]) -> List["ComparisonRow"]:
    """Fold a flat (baseline, candidate, baseline, ...) list into rows.

    The folding half of the A/B contract: any batch whose policy axis is
    innermost — ``PolicyComparison`` pairs, or a scenario matrix ending
    in a two-policy axis — alternates baseline/candidate summaries, and
    this pairs them back up.
    """
    if len(summaries) % 2:
        raise ExperimentError(
            f"comparison batches pair baseline/candidate summaries; "
            f"got an odd count ({len(summaries)})"
        )
    return [
        ComparisonRow(
            workload=summaries[i].workload,
            baseline=summaries[i],
            candidate=summaries[i + 1],
        )
        for i in range(0, len(summaries), 2)
    ]


def comparison_rows_from_store(
    store: Union["object", str, Path],
    baseline: str,
    candidate: str,
    workload: Optional[str] = None,
    platform: Optional[str] = None,
    label: Optional[str] = None,
) -> List["ComparisonRow"]:
    """Rebuild A/B rows from an experiment store, running nothing.

    Reads both policies' summaries out of the store index (registry
    policy names, e.g. ``"android-default"`` vs ``"mobicore"``) and
    pairs them by (platform, workload, seed), so a figure can be
    regenerated from any store populated earlier — including one merged
    from sharded sweeps.  Only complete pairs make rows; a seed that
    ran under one policy but not the other is skipped.  Summaries come
    back bit-identical to the cached blobs, so the derived deltas equal
    a fresh :class:`PolicyComparison` run on a warm cache.

    Args:
        store: An open :class:`~repro.store.ExperimentStore` or the
            path of a store/cache directory to open.
        baseline / candidate: Registry policy names for the two sides.
        workload / platform / label: Optional axis filters narrowing
            the grid (any combination).

    Raises:
        ExperimentError: When no complete baseline/candidate pair
            exists under the given filters.
    """
    from ..store import ExperimentStore, StoreQuery

    opened = store if isinstance(store, ExperimentStore) else ExperimentStore(store)

    def side(policy: str) -> Dict[tuple, SessionSummary]:
        query = StoreQuery(
            policy=policy, workload=workload, platform=platform, label=label
        )
        by_point: Dict[tuple, SessionSummary] = {}
        for summary in opened.summaries(query):
            by_point[(summary.platform, summary.workload, summary.seed)] = summary
        return by_point

    baselines, candidates = side(baseline), side(candidate)
    points = sorted(set(baselines) & set(candidates))
    if not points:
        raise ExperimentError(
            f"store holds no complete ({baseline!r}, {candidate!r}) pair "
            f"under the given filters"
        )
    return [
        ComparisonRow(
            workload=baselines[point].workload,
            baseline=baselines[point],
            candidate=candidates[point],
        )
        for point in points
    ]


@dataclass(frozen=True)
class ComparisonRow:
    """Both policies' summaries for one workload plus the paper's deltas."""

    workload: str
    baseline: SessionSummary
    candidate: SessionSummary

    @property
    def power_saving_percent(self) -> float:
        """Candidate's power saving over the baseline (Figures 9-10)."""
        return self.candidate.power_saving_percent(self.baseline)

    @property
    def fps_ratio(self) -> Optional[float]:
        """Candidate/baseline FPS ratio (Figure 11), None without FPS."""
        if self.candidate.mean_fps is None or self.baseline.mean_fps is None:
            return None
        if self.baseline.mean_fps == 0:
            return None
        return self.candidate.mean_fps / self.baseline.mean_fps

    @property
    def frequency_reduction_percent(self) -> float:
        """Candidate's mean-frequency reduction (Figure 12 left)."""
        return self.candidate.frequency_reduction_percent(self.baseline)

    @property
    def core_difference(self) -> float:
        """Baseline minus candidate mean active cores (Figure 12 right)."""
        return self.baseline.mean_online_cores - self.candidate.mean_online_cores

    @property
    def load_difference_points(self) -> float:
        """Baseline minus candidate mean load, percent points (Figure 13)."""
        return self.baseline.mean_load_percent - self.candidate.mean_load_percent


class PolicyComparison:
    """Runs baseline and candidate policies on identical workloads.

    Args:
        spec: Platform to simulate — a live :class:`PlatformSpec`, a
            catalog phone name, or a :class:`FactoryRef`.  Named forms
            keep the comparison portable (parallelisable, cacheable).
        baseline_factory / candidate_factory: Build a *fresh* policy per
            session (policies are stateful); refs or plain callables.
        config: Session configuration; the seed is varied per trial.
        pin_uncore_max: Experiment constraint (games pin the GPU high).
        runner: Execution service; defaults to the process-wide default
            runner at call time.
        faults: Optional :class:`~repro.faults.plan.FaultPlan` injected
            into *every* session of the comparison, so both policies are
            measured under the same adversity (e.g. the same thermal
            clamp window).
    """

    def __init__(
        self,
        spec: PlatformLike,
        baseline_factory: FactoryLike,
        candidate_factory: FactoryLike,
        config: Optional[SimulationConfig] = None,
        pin_uncore_max: bool = True,
        runner: Optional[SessionRunner] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.platform = spec
        self.baseline_factory = baseline_factory
        self.candidate_factory = candidate_factory
        self.config = config if config is not None else SimulationConfig()
        self.pin_uncore_max = pin_uncore_max
        self.runner = runner
        self.faults = faults

    @property
    def spec(self) -> PlatformSpec:
        """The resolved platform datasheet (kept for existing callers)."""
        if isinstance(self.platform, PlatformSpec):
            return self.platform
        if isinstance(self.platform, FactoryRef):
            return self.platform.resolve()
        return get_phone_spec(self.platform)

    def _runner(self) -> SessionRunner:
        return self.runner if self.runner is not None else default_runner()

    def _pair(
        self, workload_factory: FactoryLike, config: SimulationConfig
    ) -> List[SessionSpec]:
        """The (baseline, candidate) spec pair for one workload and seed."""
        return [
            SessionSpec(
                platform=self.platform,
                policy=policy_factory,
                workload=workload_factory,
                config=config,
                pin_uncore_max=self.pin_uncore_max,
                faults=self.faults,
            )
            for policy_factory in (self.baseline_factory, self.candidate_factory)
        ]

    @staticmethod
    def _rows(summaries: Sequence[SessionSummary]) -> List[ComparisonRow]:
        """Fold a flat summary list into rows (see :func:`comparison_rows`)."""
        return comparison_rows(summaries)

    def compare(
        self, workload_factory: FactoryLike, seed: Optional[int] = None
    ) -> ComparisonRow:
        """One A/B run: same workload construction, same seed, two policies."""
        config = self.config if seed is None else self.config.with_seed(seed)
        summaries = self._runner().run(self._pair(workload_factory, config))
        return self._rows(summaries)[0]

    @staticmethod
    def mean_power_saving(rows: Sequence[ComparisonRow]) -> float:
        """Average power saving over rows (the 'on average' numbers of section 6).

        One vectorized reduction over the per-row savings: both means
        come straight from the rows' columnar session summaries, and the
        sequential sum keeps the result bit-identical to the Python loop
        this replaced.
        """
        if not rows:
            raise ExperimentError("no rows to average")
        savings = np.asarray([row.power_saving_percent for row in rows])
        return sequential_sum(savings) / len(rows)
