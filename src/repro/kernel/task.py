"""Tasks and per-tick demand: the scheduler's unit of work.

A :class:`Task` is a schedulable entity (a thread of an app); a
:class:`TaskDemand` is the cycles that task wants to run during one tick.

The key scheduling property a task carries is whether its per-tick demand
is **divisible** across cores.  A single thread can never use more than
one core's worth of cycles per tick; a parallel phase (the games are
"designed to run on multicore architecture and are multithreaded",
section 6) can be split.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import WorkloadError
from ..units import require_non_negative

__all__ = ["Task", "TaskDemand"]


@dataclass(frozen=True)
class Task:
    """A schedulable entity.

    Attributes:
        task_id: Unique within the workload.
        name: Human-readable ("render-thread").
        parallel: True when one tick's demand may be split across cores.
        weight: Relative scheduling weight (reserved for priority
            experiments; the default scheduler treats all work equally,
            matching the paper's "fairly allocate" description).
    """

    task_id: int
    name: str
    parallel: bool = False
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.task_id < 0:
            raise WorkloadError(f"task_id must be non-negative, got {self.task_id}")
        if self.weight <= 0:
            raise WorkloadError(f"task {self.name!r}: weight must be positive")


@dataclass(frozen=True)
class TaskDemand:
    """Cycles a task wants to execute during one tick."""

    task: Task
    cycles: float

    def __post_init__(self) -> None:
        require_non_negative(self.cycles, "cycles")

