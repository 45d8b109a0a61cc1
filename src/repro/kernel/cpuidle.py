"""cpuidle accounting: how long cores sit in each power state.

The paper's section 4.1.2 argues against race-to-idle on per-core-rail
platforms because idle cores still leak 47-120 mW each.  This module
tracks per-core residency in ACTIVE / IDLE / OFFLINE so experiments (and
the race-to-idle ablation bench) can quantify exactly that.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import MeterError
from ..obs.bus import NULL_TRACEPOINT, TracepointBus
from ..obs.events import CpuidleEvent
from ..soc.core_state import CoreState
from ..soc.topology import CpuTopology
from ..units import require_positive

__all__ = ["CpuidleStats"]


class CpuidleStats:
    """Per-core residency accumulator, fed once per tick.

    Residency is kept as three flat per-core lists of seconds (ACTIVE,
    IDLE, OFFLINE), indexed by global core id.
    """

    def __init__(self, num_cores: int) -> None:
        if num_cores < 1:
            raise MeterError(f"num_cores must be positive, got {num_cores}")
        self.num_cores = num_cores
        self.reset()
        self._tp_entry = NULL_TRACEPOINT

    def attach_trace(self, bus: TracepointBus) -> None:
        """Register this subsystem's tracepoints on *bus*."""
        self._tp_entry = bus.tracepoint("cpuidle", "state_entry", CpuidleEvent)

    def record(self, topology: CpuTopology, dt_seconds: float) -> None:
        """Accumulate *dt_seconds* of residency from the topology's current state.

        A tick where a core was partially busy splits between ACTIVE and
        IDLE by its busy fraction, matching how cpuidle residency
        counters integrate over a sampling window.  With a bus attached,
        each core's dominant state (ACTIVE when busy at all, else IDLE,
        or OFFLINE) is tracked and its changes emitted.
        """
        require_positive(dt_seconds, "dt_seconds")
        online = topology.online
        if len(online) != self.num_cores:
            raise MeterError(
                f"stats sized for {self.num_cores} cores, topology has {len(online)}"
            )
        busy = topology.busy
        active = self._active
        idle = self._idle
        offline = self._offline
        for core_id, on in enumerate(online):
            if on:
                fraction = busy[core_id]
                active[core_id] += dt_seconds * fraction
                idle[core_id] += dt_seconds * (1.0 - fraction)
            else:
                offline[core_id] += dt_seconds
        self._total_seconds += dt_seconds
        tp = self._tp_entry
        if tp is not NULL_TRACEPOINT:
            last = self._last_state
            for core_id, on in enumerate(online):
                if not on:
                    dominant = CoreState.OFFLINE
                elif busy[core_id] > 0.0:
                    dominant = CoreState.ACTIVE
                else:
                    dominant = CoreState.IDLE
                if dominant is not last[core_id]:
                    last[core_id] = dominant
                    if tp.enabled:
                        tp.emit(core=core_id, state=dominant.name)

    @property
    def total_seconds(self) -> float:
        """Accumulated session time."""
        return self._total_seconds

    def _seconds(self, state: CoreState) -> List[float]:
        if state is CoreState.ACTIVE:
            return self._active
        if state is CoreState.IDLE:
            return self._idle
        return self._offline

    def residency_seconds(self, core_id: int, state: CoreState) -> float:
        """Seconds core *core_id* spent in *state*."""
        try:
            return self._seconds(state)[core_id]
        except IndexError:
            raise MeterError(f"no core {core_id}") from None

    def residency_fraction(self, core_id: int, state: CoreState) -> float:
        """Fraction of the session core *core_id* spent in *state*."""
        if self._total_seconds == 0:
            return 0.0
        return self.residency_seconds(core_id, state) / self._total_seconds

    def fleet_fraction(self, state: CoreState) -> float:
        """Fraction of all core-seconds spent in *state*."""
        if self._total_seconds == 0:
            return 0.0
        return sum(self._seconds(state)) / (self._total_seconds * self.num_cores)

    def reset(self) -> None:
        """Zero all counters."""
        count = self.num_cores
        self._active: List[float] = [0.0] * count
        self._idle: List[float] = [0.0] * count
        self._offline: List[float] = [0.0] * count
        self._total_seconds = 0.0
        self._last_state: List[Optional[CoreState]] = [None] * count
