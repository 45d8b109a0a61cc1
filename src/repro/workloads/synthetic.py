"""Synthetic utilization patterns: controlled demand shapes for tests.

All patterns express demand as a *global load percentage* (fraction of
platform-max throughput, as in section 3.4) evaluated per tick, spread
over one thread per core.  They are the unit-test vehicles for governor
dynamics and MobiCore's burst/slow-mode detector.
"""

from __future__ import annotations

import abc
import math
from typing import List, Sequence, Tuple

from .base import Workload, WorkloadContext
from ..errors import WorkloadError
from ..kernel.task import Task, TaskDemand
from ..units import clamp, require_percent

__all__ = [
    "SyntheticUtilizationWorkload",
    "ConstantWorkload",
    "StepWorkload",
    "SineWorkload",
]


class SyntheticUtilizationWorkload(Workload):
    """Base class: subclasses define the load level at each tick."""

    def __init__(self, num_threads: int = 0) -> None:
        super().__init__()
        self.num_threads = num_threads
        self._tasks: List[Task] = []

    def prepare(self, context: WorkloadContext) -> None:
        super().prepare(context)
        threads = self.num_threads if self.num_threads > 0 else context.num_cores
        self._tasks = [
            Task(task_id=i, name=f"{self.name}-{i}")
            for i in range(threads)
        ]

    def tasks(self) -> List[Task]:
        return list(self._tasks)

    @abc.abstractmethod
    def level_percent(self, tick: int) -> float:
        """Global load percentage demanded at *tick*."""

    def demand(self, tick: int) -> List[TaskDemand]:
        level = clamp(self.level_percent(tick), 0.0, 100.0)
        if level == 0.0:
            return []
        per_thread = (
            (level / 100.0)
            * self.context.platform_max_cycles_per_tick
            / len(self._tasks)
        )
        return [TaskDemand(task=task, cycles=per_thread) for task in self._tasks]


class ConstantWorkload(SyntheticUtilizationWorkload):
    """A flat global load."""

    def __init__(self, level_percent: float, num_threads: int = 0) -> None:
        super().__init__(num_threads)
        require_percent(level_percent, "level_percent")
        self._level = level_percent
        self.name = f"constant({level_percent:.0f}%)"

    def level_percent(self, tick: int) -> float:
        return self._level


class StepWorkload(SyntheticUtilizationWorkload):
    """Piecewise-constant levels: [(duration_seconds, percent), ...], looping."""

    def __init__(self, steps: Sequence[Tuple[float, float]], num_threads: int = 0) -> None:
        super().__init__(num_threads)
        if not steps:
            raise WorkloadError("StepWorkload needs at least one step")
        for duration, percent in steps:
            if duration <= 0:
                raise WorkloadError(f"step duration must be positive, got {duration}")
            require_percent(percent, "step percent")
        self.steps = list(steps)
        self._period = sum(duration for duration, _ in steps)
        self.name = f"step({len(steps)} levels)"

    def level_percent(self, tick: int) -> float:
        time_in_period = (tick * self.context.dt_seconds) % self._period
        elapsed = 0.0
        for duration, percent in self.steps:
            elapsed += duration
            if time_in_period < elapsed:
                return percent
        return self.steps[-1][1]


class SineWorkload(SyntheticUtilizationWorkload):
    """Sinusoidal load around a mean: smooth periodic dynamics."""

    def __init__(
        self, mean_percent: float, amplitude_percent: float, period_seconds: float,
        num_threads: int = 0,
    ) -> None:
        super().__init__(num_threads)
        require_percent(mean_percent, "mean_percent")
        if amplitude_percent < 0:
            raise WorkloadError("amplitude_percent must be non-negative")
        if period_seconds <= 0:
            raise WorkloadError("period_seconds must be positive")
        self.mean_percent = mean_percent
        self.amplitude_percent = amplitude_percent
        self.period_seconds = period_seconds
        self.name = f"sine({mean_percent:.0f}+-{amplitude_percent:.0f}%)"

    def level_percent(self, tick: int) -> float:
        phase = 2.0 * math.pi * tick * self.context.dt_seconds / self.period_seconds
        return self.mean_percent + self.amplitude_percent * math.sin(phase)
