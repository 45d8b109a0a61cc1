"""A GeekBench-4-like benchmark: phased, scored, memory-aware.

Section 3.5: "This application performs a complex real-life benchmark on
the available CPU resources to push the limits of the system ensuring
meaningful results by providing a value corresponding to the computing
performance.  The score represents the use of 1 single thread running on
each of the active CPU cores."

Model: a repeating sequence of sub-benchmark phases (crypto / integer /
floating-point / memory), each either single-core (one non-divisible
thread) or multi-core (one thread per core).  Each phase has a memory
intensity; effective progress rolls off as aggregate demand approaches
the memory-bus bandwidth -- that roofline is why performance plateaus at
high frequency (Figure 6) and why the 4-core performance/power ratio
peaks mid-table and then falls (Figure 7).

The score is the effective (stall-discounted) throughput normalised to a
reference, so higher is better and values are comparable across
operating points and policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

from .base import Workload, WorkloadContext
from ..errors import WorkloadError
from ..kernel.task import Task, TaskDemand
from ..units import require_fraction, require_positive

__all__ = ["GeekbenchPhase", "GeekbenchWorkload", "DEFAULT_PHASES"]


@dataclass(frozen=True)
class GeekbenchPhase:
    """One sub-benchmark.

    Attributes:
        name: Sub-benchmark label.
        multicore: Single-thread or one-thread-per-core section.
        duration_seconds: How long the phase runs before the next starts.
        memory_intensity: Fraction of the instruction stream that is
            memory traffic (drives the bandwidth roofline).
    """

    name: str
    multicore: bool
    duration_seconds: float
    memory_intensity: float

    def __post_init__(self) -> None:
        require_positive(self.duration_seconds, "duration_seconds")
        require_fraction(self.memory_intensity, "memory_intensity")


#: A GB4-flavoured rotation: single-core then multi-core sections.
#: Single-core phases barely touch the bandwidth roofline (one stream
#: cannot saturate the bus), so single-core performance keeps rising
#: with frequency; multi-core phases contend hard for the shared bus,
#: which is what bends the Figure 7 four-core ratio over at mid-ladder.
#: Phases interleave single- and multi-core so any measurement window of
#: a few seconds samples both sections evenly.
DEFAULT_PHASES = (
    GeekbenchPhase("sc-crypto", multicore=False, duration_seconds=1.0, memory_intensity=0.08),
    GeekbenchPhase("mc-crypto", multicore=True, duration_seconds=1.0, memory_intensity=0.60),
    GeekbenchPhase("sc-integer", multicore=False, duration_seconds=1.5, memory_intensity=0.12),
    GeekbenchPhase("mc-integer", multicore=True, duration_seconds=1.5, memory_intensity=0.80),
    GeekbenchPhase("sc-float", multicore=False, duration_seconds=1.5, memory_intensity=0.10),
    GeekbenchPhase("mc-float", multicore=True, duration_seconds=1.5, memory_intensity=0.72),
    GeekbenchPhase("sc-memory", multicore=False, duration_seconds=1.0, memory_intensity=0.40),
    GeekbenchPhase("mc-memory", multicore=True, duration_seconds=1.0, memory_intensity=1.00),
)

#: Throughput that maps to a score of 1000: one Krait core at 1 GHz with
#: no stalls.  Chosen so Nexus-5 class results land in GB4's familiar
#: four-digit range.
REFERENCE_CYCLES_PER_SECOND = 1.0e9


class GeekbenchWorkload(Workload):
    """Phased benchmark; ``metrics()['score']`` is the headline number.

    Args:
        phases: The sub-benchmark rotation (repeats for the session).
        memory_bandwidth_cps: Memory-side cycles per second the bus can
            serve before stalls dominate (the roofline knee).
    """

    name = "geekbench4-like"

    def __init__(
        self,
        phases=DEFAULT_PHASES,
        memory_bandwidth_cps: float = 4.5e9,
    ) -> None:
        super().__init__()
        if not phases:
            raise WorkloadError("GeekbenchWorkload needs at least one phase")
        require_positive(memory_bandwidth_cps, "memory_bandwidth_cps")
        self.phases: List[GeekbenchPhase] = list(phases)
        self.memory_bandwidth_cps = memory_bandwidth_cps
        self._rotation_seconds = sum(p.duration_seconds for p in self.phases)
        self._tasks: List[Task] = []
        self._effective_cycles = 0.0
        self._raw_cycles = 0.0
        self._elapsed_seconds = 0.0

    def prepare(self, context: WorkloadContext) -> None:
        super().prepare(context)
        self._tasks = [
            Task(task_id=i, name=f"gb4-thread-{i}")
            for i in range(context.num_cores)
        ]
        self._effective_cycles = 0.0
        self._raw_cycles = 0.0
        self._elapsed_seconds = 0.0

    def tasks(self) -> List[Task]:
        return list(self._tasks)

    def phase_at(self, tick: int) -> GeekbenchPhase:
        """The sub-benchmark active at *tick* (the rotation repeats)."""
        time_in_rotation = (tick * self.context.dt_seconds) % self._rotation_seconds
        elapsed = 0.0
        for phase in self.phases:
            elapsed += phase.duration_seconds
            if time_in_rotation < elapsed:
                return phase
        return self.phases[-1]

    def demand(self, tick: int) -> List[TaskDemand]:
        phase = self.phase_at(tick)
        # A benchmark thread always wants more work than one tick can
        # execute (it "pushes the limits of the system"): demand a full
        # fmax tick per participating thread.
        per_thread = self.context.core_max_cycles_per_tick
        if phase.multicore:
            return [TaskDemand(task=task, cycles=per_thread) for task in self._tasks]
        return [TaskDemand(task=self._tasks[0], cycles=per_thread)]

    def record_execution(self, tick: int, executed_by_task: Mapping[int, float]) -> None:
        executed = sum(executed_by_task.values())
        phase = self.phase_at(tick)
        dt = self.context.dt_seconds
        rate = executed / dt if dt else 0.0
        # Roofline discount: progress slows as the memory traffic this
        # phase generates approaches the bus bandwidth.
        stall_denominator = 1.0 + phase.memory_intensity * rate / self.memory_bandwidth_cps
        self._effective_cycles += executed / stall_denominator
        self._raw_cycles += executed
        self._elapsed_seconds += dt

    @property
    def effective_rate_cps(self) -> float:
        """Stall-discounted cycles per second so far."""
        if self._elapsed_seconds == 0:
            return 0.0
        return self._effective_cycles / self._elapsed_seconds

    def score(self) -> float:
        """The GB4-style score: effective throughput vs the reference."""
        return 1000.0 * self.effective_rate_cps / REFERENCE_CYCLES_PER_SECOND

    def metrics(self) -> Dict[str, float]:
        return {
            "score": self.score(),
            "effective_cycles": self._effective_cycles,
            "raw_cycles": self._raw_cycles,
        }
