"""The in-house kernel application: configurable busy loops.

Section 3.1: "This application is characterized by configurable busy
loops which do not include any memory accesses.  The load is going on
for a certain number of iterations and includes a period of idleness,
which is about 40ms.  This application allows us to change the number of
active CPU cores, the allowed overall CPU utilization and the frequency
of each core."

Demand semantics: the target is a **global CPU load** in the paper's
sense (section 3.4) -- a percentage of the platform's maximum throughput
(all cores at fmax).  The app spawns one pinnable busy-loop thread per
core slot; each thread demands ``target% x one-core-fmax`` cycles per
tick during the busy phase, and nothing during the periodic idle gap.
"""

from __future__ import annotations

from typing import List

from .base import Workload, WorkloadContext
from ..errors import WorkloadError
from ..kernel.task import Task, TaskDemand
from ..units import require_percent

__all__ = ["BusyLoopApp"]


class BusyLoopApp(Workload):
    """Busy loops at a configurable global utilization with idle gaps.

    Args:
        target_load_percent: The allowed CPU utilization.  With the
            default ``reference_frequency_khz=None`` this is a **global
            load**: a percentage of platform-max throughput (all cores at
            fmax, section 3.4), spread over the threads.  With a
            reference frequency it is a **per-thread local utilization**:
            each thread demands that percentage of one core's capacity at
            the reference frequency -- the semantics of the Figure 3/4
            characterisation sweeps, where utilization is measured at the
            pinned operating point.
        num_threads: Busy-loop threads; defaults to one per core at
            :meth:`prepare` time.
        idle_gap_seconds: Length of the periodic idleness (paper: ~40 ms).
        cycle_seconds: Length of one busy+idle iteration.
        reference_frequency_khz: See ``target_load_percent``.
    """

    def __init__(
        self,
        target_load_percent: float,
        num_threads: int = 0,
        idle_gap_seconds: float = 0.040,
        cycle_seconds: float = 1.0,
        reference_frequency_khz: int = 0,
    ) -> None:
        super().__init__()
        require_percent(target_load_percent, "target_load_percent")
        if reference_frequency_khz < 0:
            raise WorkloadError("reference_frequency_khz must be non-negative")
        self.reference_frequency_khz = reference_frequency_khz
        if idle_gap_seconds < 0:
            raise WorkloadError("idle_gap_seconds must be non-negative")
        if cycle_seconds <= idle_gap_seconds:
            raise WorkloadError(
                f"cycle_seconds {cycle_seconds} must exceed idle_gap_seconds "
                f"{idle_gap_seconds}"
            )
        self.target_load_percent = target_load_percent
        self.num_threads = num_threads
        self.idle_gap_seconds = idle_gap_seconds
        self.cycle_seconds = cycle_seconds
        self.name = f"busyloop({target_load_percent:.0f}%)"
        self._tasks: List[Task] = []
        self._executed_cycles = 0.0

    def prepare(self, context: WorkloadContext) -> None:
        super().prepare(context)
        threads = self.num_threads if self.num_threads > 0 else context.num_cores
        self._tasks = [
            Task(task_id=i, name=f"busyloop-{i}") for i in range(threads)
        ]
        self._executed_cycles = 0.0

    def tasks(self) -> List[Task]:
        return list(self._tasks)

    def _in_idle_gap(self, tick: int) -> bool:
        """True during the periodic idleness window of the iteration."""
        if self.idle_gap_seconds == 0:
            return False
        dt = self.context.dt_seconds
        time_in_cycle = (tick * dt) % self.cycle_seconds
        return time_in_cycle >= self.cycle_seconds - self.idle_gap_seconds

    def demand(self, tick: int) -> List[TaskDemand]:
        if self._in_idle_gap(tick):
            return []
        # The busy phase is scaled up so the *average* over the whole
        # iteration (busy + idle gap) hits the target.
        busy_fraction_of_cycle = 1.0 - self.idle_gap_seconds / self.cycle_seconds
        if self.reference_frequency_khz:
            # Local-utilization mode: each thread wants target% of one
            # core's capacity at the reference frequency.
            per_thread = (
                (self.target_load_percent / 100.0)
                * self.reference_frequency_khz
                * 1000.0
                * self.context.dt_seconds
                / busy_fraction_of_cycle
            )
        else:
            # Global-load mode: target% of platform-max throughput,
            # spread over the threads.
            per_thread = (
                (self.target_load_percent / 100.0)
                * self.context.platform_max_cycles_per_tick
                / (len(self._tasks) * busy_fraction_of_cycle)
            )
        return [TaskDemand(task=task, cycles=per_thread) for task in self._tasks]

    def record_execution(self, tick: int, executed_by_task) -> None:
        self._executed_cycles += sum(executed_by_task.values())

    def metrics(self):
        return {"executed_cycles": self._executed_cycles}
