"""The load-balancing task scheduler.

Section 3.2 of the paper: "the Linux architecture uses a task scheduler
... the default Linux task scheduler is splitting the workload over a
certain number of processes", and section 2.2: the basic principle is "to
fairly allocate the available CPU resources and to balance the workload
among cores".  We reproduce that behaviour with a longest-processing-time
greedy balancer:

* each task's work goes, whole, to the core with the most remaining
  capacity (a thread can never use more than one core per tick);
* work that does not fit carries over as per-task backlog, draining
  first on later ticks; backlog beyond a cap is dropped and counted
  (for games this is the mechanism behind lost frames).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .task import Task, TaskDemand
from ..errors import SchedulerError
from ..obs.bus import NULL_TRACEPOINT, TracepointBus
from ..obs.events import SchedMigrationEvent
from ..soc.topology import CpuTopology
from ..units import require_fraction, require_positive

__all__ = ["DispatchResult", "LoadBalancingScheduler"]


@dataclass
class DispatchResult:
    """Outcome of one scheduling tick.

    Attributes:
        busy_cycles: Cycles executed per core (indexed by core id;
            offline cores report 0).
        busy_fractions: Busy cycles over each core's *unthrottled*
            capacity at its current frequency -- the utilization signal
            governors observe.  Under a bandwidth quota q the fraction
            cannot exceed q.
        executed_by_task: Cycles executed per task id, summed over cores.
        backlog_by_task: Cycles still pending per task id after the tick.
        dropped_cycles: Cycles discarded because a task's backlog
            exceeded the cap.
    """

    busy_cycles: List[float]
    busy_fractions: List[float]
    executed_by_task: Dict[int, float]
    backlog_by_task: Dict[int, float]
    dropped_cycles: float

    @property
    def total_executed(self) -> float:
        """All cycles executed this tick."""
        return sum(self.executed_by_task.values())

    @property
    def total_backlog(self) -> float:
        """All cycles still pending after this tick."""
        return sum(self.backlog_by_task.values())


class LoadBalancingScheduler:
    """Greedy balanced dispatch with per-task backlog carry-over.

    Attributes:
        backlog_cap_ticks: A task's backlog is capped at this many ticks
            of one core's fmax capacity; excess demand is dropped (and
            reported), modelling work that is skipped rather than
            deferred forever -- e.g. stale frames.
    """

    def __init__(self, backlog_cap_ticks: float = 5.0) -> None:
        require_positive(backlog_cap_ticks, "backlog_cap_ticks")
        self.backlog_cap_ticks = backlog_cap_ticks
        self._backlog: Dict[int, Tuple[Task, float]] = {}
        self._last_core: Dict[int, int] = {}
        self._tp_migration = NULL_TRACEPOINT

    def attach_trace(self, bus: TracepointBus) -> None:
        """Register this subsystem's tracepoints on *bus*."""
        self._tp_migration = bus.tracepoint(
            "sched", "task_migration", SchedMigrationEvent
        )

    @property
    def total_backlog_cycles(self) -> float:
        """All pending cycles."""
        return sum(cycles for _, cycles in self._backlog.values())

    def reset(self) -> None:
        """Drop all backlog (new session)."""
        self._backlog.clear()
        self._last_core.clear()

    def dispatch(
        self,
        demands: Sequence[TaskDemand],
        topology: CpuTopology,
        dt_seconds: float,
        quota: float = 1.0,
    ) -> DispatchResult:
        """Distribute this tick's demand (plus backlog) and execute it.

        Placement runs over the topology's per-core lists, by global
        core id.  On a heterogeneous topology a big core advertises
        more remaining (IPC-scaled) capacity than a little core at the
        same frequency, so the greedy balancer naturally prefers big
        cores for heavy serial tasks and migrates tasks across clusters
        as capacities shift.

        Every float is computed in a fixed order (docs/NUMERICS.md): the
        golden session files pin the executed work bit for bit.
        """
        require_positive(dt_seconds, "dt_seconds")
        require_fraction(quota, "quota")
        frequency = topology.frequency_khz
        ipc_scales = topology.ipc_scales
        online = [core_id for core_id, on in enumerate(topology.online) if on]
        if not online:
            raise SchedulerError("cannot dispatch with no online cores")

        # One item per task: carried backlog first, in backlog order, then
        # fresh demand.  A task with both runs ``fresh + carried`` cycles.
        carried = self._backlog
        tasks = {task_id: task for task_id, (task, _) in carried.items()}
        fresh = dict.fromkeys(carried, 0.0)
        for demand in demands:
            task_id = demand.task.task_id
            if task_id in fresh:
                fresh[task_id] += demand.cycles
            else:
                tasks[task_id] = demand.task
                fresh[task_id] = demand.cycles
        totals = {
            task_id: cycles + (carried[task_id][1] if task_id in carried else 0.0)
            for task_id, cycles in fresh.items()
        }

        # Per online core, by position in *online*: capacity under the
        # quota, what is still free of it, and the (task id, cycles)
        # assignments in the order they were made.
        # ``f * 1000.0 * dt`` leads both the capacity under the quota and
        # the unthrottled capacity below.
        cycles_at_f = [frequency[core_id] * 1000.0 * dt_seconds for core_id in online]
        capacities = [
            base * quota * ipc_scales[core_id] for base, core_id in zip(cycles_at_f, online)
        ]
        remaining = list(capacities)
        assigned: List[List[Tuple[int, float]]] = [[] for _ in online]

        # Largest task first, to the emptiest core (the first one on
        # ties): a thread is bound to one core per tick.
        order = sorted(totals, key=totals.__getitem__, reverse=True)
        # ``max(0.0, x)`` and ``min(a, b)`` are spelled out below as
        # conditionals with the builtins' exact tie and NaN behaviour.
        last_core = self._last_core
        for task_id in order:
            cycles = totals[task_id]
            slot = remaining.index(max(remaining))
            if cycles > 0:
                assigned[slot].append((task_id, cycles))
            left = remaining[slot] - cycles
            remaining[slot] = left if left > 0.0 else 0.0
            target = online[slot]
            previous = last_core.get(task_id)
            if previous is not None and previous != target:
                tp = self._tp_migration
                if tp.enabled:
                    tp.emit(task_id=task_id, from_core=previous, to_core=target)
            last_core[task_id] = target

        # Each core runs its assignments in order; old work drains first.
        busy_cycles = [0.0] * len(frequency)
        busy_fractions = [0.0] * len(frequency)
        executed: Dict[int, float] = {}
        leftover: Dict[int, float] = {}
        for core_id, base, capacity, queue in zip(online, cycles_at_f, capacities, assigned):
            free = capacity
            for task_id, cycles in queue:
                ran = free if free < cycles else cycles
                free -= ran
                if ran > 0:
                    executed[task_id] = executed.get(task_id, 0.0) + ran
                rest = cycles - ran
                if rest > 0:
                    leftover[task_id] = leftover.get(task_id, 0.0) + rest
            busy = capacity - free
            busy_cycles[core_id] = busy
            # The unthrottled capacity (quota 1.0; ``x * 1.0`` is exact).
            full_capacity = base * ipc_scales[core_id]
            busy_fractions[core_id] = busy / full_capacity if full_capacity else 0.0

        # Leftovers become next tick's backlog, capped at backlog_cap_ticks
        # of the fastest domain's fmax; the excess is dropped.
        cap = topology.max_frequency_khz * 1000.0 * dt_seconds * self.backlog_cap_ticks
        dropped = 0.0
        backlog: Dict[int, Tuple[Task, float]] = {}
        backlog_by_task: Dict[int, float] = {}
        for task_id, cycles in leftover.items():
            kept = cap if cap < cycles else cycles
            dropped += cycles - kept
            if kept > 0:
                backlog[task_id] = (tasks[task_id], kept)
                backlog_by_task[task_id] = kept
        self._backlog = backlog
        return DispatchResult(
            busy_cycles=busy_cycles,
            busy_fractions=busy_fractions,
            executed_by_task=executed,
            backlog_by_task=backlog_by_task,
            dropped_cycles=dropped,
        )
