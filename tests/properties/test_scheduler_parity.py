"""The flat-list dispatcher against the runqueue dispatcher it replaced.

``LoadBalancingScheduler.dispatch`` places and executes a tick's work
over plain lists keyed by core and task id.  ``RunQueueScheduler`` below
is the object-based dispatcher it replaced -- one ``RunQueue`` per
online core and one ``WorkItem`` per task -- kept here as the reference
with its code unchanged (production code never imports it).  Over
multi-tick walks on the Nexus 5 cluster and the Odroid-XU3 topology,
both must agree bit for bit (compared as ``float.hex``): busy cycles and
fractions, dropped cycles, the executed and backlog items in insertion
order, and the migration events (see ``docs/NUMERICS.md``).
"""

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.kernel.scheduler import DispatchResult, LoadBalancingScheduler
from repro.kernel.task import Task, TaskDemand
from repro.obs.bus import NULL_TRACEPOINT, TracepointBus
from repro.obs.events import SchedMigrationEvent
from repro.soc.catalog import get_phone_spec
from repro.soc.cpu_cluster import CpuCluster
from repro.soc.topology import CpuTopology
from repro.units import require_fraction, require_non_negative, require_positive

DT = 0.02


# -- the reference: the runqueue dispatcher, as it was --------------------


@dataclass
class WorkItem:
    """A task's pending work on a runqueue: fresh demand plus carried backlog."""

    task: Task
    cycles: float
    from_backlog: float = 0.0

    def __post_init__(self) -> None:
        require_non_negative(self.cycles, "cycles")
        require_non_negative(self.from_backlog, "from_backlog")

    @property
    def total_cycles(self) -> float:
        """All cycles pending for this task this tick."""
        return self.cycles + self.from_backlog


class RunQueue:
    """Work assigned to one core for the current tick."""

    def __init__(self, core_id: int) -> None:
        if core_id < 0:
            raise SchedulerError(f"core_id must be non-negative, got {core_id}")
        self.core_id = core_id
        self._assignments: List[Tuple[Task, float]] = []

    def __repr__(self) -> str:
        return f"RunQueue(core={self.core_id}, assigned={self.assigned_cycles:.0f} cycles)"

    @property
    def assigned_cycles(self) -> float:
        """Total cycles currently assigned for the tick."""
        return sum(cycles for _, cycles in self._assignments)

    @property
    def assignments(self) -> List[Tuple[Task, float]]:
        """(task, cycles) pairs assigned this tick, in assignment order."""
        return list(self._assignments)

    def assign(self, task: Task, cycles: float) -> None:
        """Add *cycles* of *task* to this core's tick."""
        require_non_negative(cycles, "cycles")
        if cycles == 0:
            return
        self._assignments.append((task, cycles))

    def execute(self, capacity_cycles: float) -> Tuple[float, Dict[int, float], Dict[int, float]]:
        """Run the tick against *capacity_cycles* of core capacity.

        Work executes in assignment order (earlier assignments are the
        carried backlog, so old work drains first).  Returns
        ``(busy_cycles, executed_by_task, leftover_by_task)``.
        """
        require_non_negative(capacity_cycles, "capacity_cycles")
        remaining = capacity_cycles
        executed: Dict[int, float] = {}
        leftover: Dict[int, float] = {}
        for task, cycles in self._assignments:
            ran = min(cycles, remaining)
            remaining -= ran
            if ran > 0:
                executed[task.task_id] = executed.get(task.task_id, 0.0) + ran
            rest = cycles - ran
            if rest > 0:
                leftover[task.task_id] = leftover.get(task.task_id, 0.0) + rest
        busy = capacity_cycles - remaining
        return busy, executed, leftover

    def clear(self) -> None:
        """Drop all assignments (start of a new tick)."""
        self._assignments.clear()


class RunQueueScheduler:
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
    def backlog(self) -> Dict[int, float]:
        """Pending cycles per task id."""
        return {task_id: cycles for task_id, (_, cycles) in self._backlog.items()}

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
        cluster: Union[CpuCluster, CpuTopology],
        dt_seconds: float,
        quota: float = 1.0,
    ) -> DispatchResult:
        """Distribute this tick's demand (plus backlog) and execute it.

        Accepts a standalone cluster or a whole topology: placement runs
        over global core ids and capacities.  On a heterogeneous
        topology a big core advertises more remaining (IPC-scaled)
        capacity than a little core at the same frequency, so the
        greedy balancer naturally prefers big cores for heavy serial
        tasks and migrates tasks across clusters as capacities shift.
        """
        require_positive(dt_seconds, "dt_seconds")
        require_fraction(quota, "quota")
        online = cluster.online_cores
        if not online:
            raise SchedulerError("cannot dispatch with no online cores")

        items = self._merge_backlog(demands)
        queues = {core.core_id: RunQueue(core.core_id) for core in online}
        remaining = {
            core.core_id: core.capacity_cycles(dt_seconds, quota) for core in online
        }

        serial_items = list(items)

        # Single-thread work, largest first, to the emptiest core:
        # a thread is bound to one core for the tick.
        serial_items.sort(key=lambda item: item.total_cycles, reverse=True)
        for item in serial_items:
            target = max(remaining, key=lambda cid: remaining[cid])
            queues[target].assign(item.task, item.total_cycles)
            remaining[target] = max(0.0, remaining[target] - item.total_cycles)
            task_id = item.task.task_id
            previous = self._last_core.get(task_id)
            if previous is not None and previous != target:
                tp = self._tp_migration
                if tp.enabled:
                    tp.emit(task_id=task_id, from_core=previous, to_core=target)
            self._last_core[task_id] = target

        busy_cycles = [0.0] * len(cluster)
        busy_fractions = [0.0] * len(cluster)
        executed_by_task: Dict[int, float] = {}
        leftover_by_task: Dict[int, float] = {}
        task_index = {item.task.task_id: item.task for item in items}
        for core in online:
            capacity = core.capacity_cycles(dt_seconds, quota)
            busy, executed, leftover = queues[core.core_id].execute(capacity)
            busy_cycles[core.core_id] = busy
            full_capacity = core.capacity_cycles(dt_seconds, 1.0)
            busy_fractions[core.core_id] = busy / full_capacity if full_capacity else 0.0
            for task_id, cycles in executed.items():
                executed_by_task[task_id] = executed_by_task.get(task_id, 0.0) + cycles
            for task_id, cycles in leftover.items():
                leftover_by_task[task_id] = leftover_by_task.get(task_id, 0.0) + cycles

        dropped = self._store_backlog(leftover_by_task, task_index, cluster, dt_seconds)
        return DispatchResult(
            busy_cycles=busy_cycles,
            busy_fractions=busy_fractions,
            executed_by_task=executed_by_task,
            backlog_by_task=self.backlog,
            dropped_cycles=dropped,
        )

    # -- internals -------------------------------------------------------

    def _merge_backlog(self, demands: Sequence[TaskDemand]) -> List[WorkItem]:
        """Combine fresh demand with carried backlog into work items."""
        items: Dict[int, WorkItem] = {}
        for task_id, (task, cycles) in self._backlog.items():
            items[task_id] = WorkItem(task=task, cycles=0.0, from_backlog=cycles)
        for demand in demands:
            existing = items.get(demand.task.task_id)
            if existing is None:
                items[demand.task.task_id] = WorkItem(task=demand.task, cycles=demand.cycles)
            else:
                existing.cycles += demand.cycles
        self._backlog.clear()
        return list(items.values())

    def _store_backlog(
        self,
        leftover_by_task: Dict[int, float],
        task_index: Dict[int, Task],
        cluster: Union[CpuCluster, CpuTopology],
        dt_seconds: float,
    ) -> float:
        """Persist leftovers as next-tick backlog, applying the cap.

        The cap is sized against the fastest domain's fmax — one "tick
        of a core" means the strongest core available.
        """
        cap = (
            cluster.max_frequency_khz * 1000.0 * dt_seconds * self.backlog_cap_ticks
        )
        dropped = 0.0
        for task_id, cycles in leftover_by_task.items():
            kept = min(cycles, cap)
            dropped += cycles - kept
            if kept > 0:
                self._backlog[task_id] = (task_index[task_id], kept)
        return dropped


# -- walks -----------------------------------------------------------------


def build_cpus(board: str) -> Union[CpuCluster, CpuTopology]:
    """The Nexus 5's one-domain topology, or the Odroid-XU3's two domains."""
    return CpuTopology(get_phone_spec(board).cluster_specs())


#: Per core id, the OPP frequencies of the core's own domain.
OPPS = {
    board: [core.opp_table.frequencies_khz for core in build_cpus(board).cores]
    for board in ("Nexus 5", "Odroid-XU3")
}

#: Demand sizes: zero, round values that tie (equal totals, equal shares),
#: anything up to a few ticks of one core, and far above the backlog cap
#: (5 ticks of fmax, ~2.3e8 cycles on the Nexus 5).
CYCLES = st.one_of(
    st.just(0.0),
    st.sampled_from([1e7, 2e7, 4e7]),
    st.floats(min_value=0.0, max_value=1.5e8),
    st.floats(min_value=2e8, max_value=1.2e9),
)


@st.composite
def walks(draw):
    """``(board, task count, ticks)`` as plain data.

    Each tick is ``(online mask, per-core kHz, quota, demands)``; core 0
    stays online, every core runs an OPP of its own domain, and the
    demands are ``(task id, cycles)`` pairs that may repeat a task id,
    skip a task that still has backlog, or ask for zero cycles.
    """
    board = draw(st.sampled_from(sorted(OPPS)))
    count = len(OPPS[board])
    task_count = draw(st.integers(min_value=1, max_value=6))
    ticks = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        mask = [True] + draw(st.lists(st.booleans(), min_size=count - 1, max_size=count - 1))
        frequencies = [draw(st.sampled_from(table)) for table in OPPS[board]]
        quota = draw(st.floats(min_value=0.1, max_value=1.0))
        demands = draw(
            st.lists(
                st.tuples(st.integers(min_value=0, max_value=task_count - 1), CYCLES),
                max_size=8,
            )
        )
        ticks.append((mask, frequencies, quota, demands))
    return board, task_count, ticks


def fingerprint(result: DispatchResult):
    """Everything a tick reports, floats as ``float.hex``, dicts in order."""
    return (
        [value.hex() for value in result.busy_cycles],
        [value.hex() for value in result.busy_fractions],
        result.dropped_cycles.hex(),
        [(task_id, value.hex()) for task_id, value in result.executed_by_task.items()],
        [(task_id, value.hex()) for task_id, value in result.backlog_by_task.items()],
    )


def migrations(bus: TracepointBus):
    """The migration events published so far, as plain tuples."""
    return [(e.task_id, e.from_core, e.to_core) for e in bus.events]


FMAX = 2265600
ALL_ONLINE = [True] * 4
TWO_ONLINE = [True, True, False, False]
ONE_ONLINE = [True, False, False, False]


class TestDispatchParity:
    @settings(max_examples=200, deadline=None)
    @given(walk=walks())
    # The emptiest core is the *first* of equally free cores.
    @example(walk=("Nexus 5", 1, [(ALL_ONLINE, [FMAX] * 4, 1.0, [(0, 1e7)])]))
    # Each core runs its assignments in placement order.
    @example(
        walk=(
            "Nexus 5",
            2,
            [(ONE_ONLINE, [FMAX] * 4, 1.0, [(1, 3e7), (0, 3e7)])],
        )
    )
    # Carried backlog queues ahead of fresh demand.
    @example(
        walk=(
            "Nexus 5",
            2,
            [
                (ONE_ONLINE, [FMAX] * 4, 1.0, [(0, 1e8)]),
                (ONE_ONLINE, [FMAX] * 4, 1.0, [(1, 1e7)]),
            ],
        )
    )
    # An overloaded core has zero capacity left, never a negative amount.
    @example(
        walk=(
            "Nexus 5",
            2,
            [(TWO_ONLINE, [FMAX] * 4, 1.0, [(0, 6e7), (0, 1e7), (1, 1e7)])],
        )
    )
    def test_walk_is_bit_identical(self, walk):
        board, task_count, ticks = walk
        cpus = build_cpus(board)
        tasks = [Task(task_id, f"t{task_id}") for task_id in range(task_count)]
        flat, reference = LoadBalancingScheduler(), RunQueueScheduler()
        flat_bus, reference_bus = TracepointBus(), TracepointBus()
        flat.attach_trace(flat_bus)
        reference.attach_trace(reference_bus)
        for mask, frequencies, quota, demands in ticks:
            cpus.set_online_mask(mask)
            for core, frequency in zip(cpus.cores, frequencies):
                core.set_frequency(frequency)
            work = [TaskDemand(tasks[task_id], cycles) for task_id, cycles in demands]
            ours = flat.dispatch(work, cpus, DT, quota=quota)
            theirs = reference.dispatch(work, cpus, DT, quota=quota)
            assert fingerprint(ours) == fingerprint(theirs)
            assert migrations(flat_bus) == migrations(reference_bus)
