"""CPU utilization accounting -- the simulation's ``/proc/stat``.

Both default Android mechanisms and MobiCore key off CPU utilization
(section 2.2): per-core busy percentages and their average over cores.
MobiCore's burst/slow-mode detector also reads the *variation* of
utilization between tick t and t-1 (section 5.2), so :class:`ProcStat`
keeps the last two ticks and nothing older; session-long statistics
come from the trace (:class:`~repro.metrics.summary.SessionSummary`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..errors import MeterError, UnitsError

__all__ = ["ProcStat"]


class ProcStat:
    """The latest tick's utilization, plus the previous tick's average.

    Attributes:
        tick: Index of the latest recorded tick (None before the first).
        per_core_percent: The latest tick's busy percentage per core id
            (0 for offline cores).
        global_percent: The latest tick's average over *online* cores
            (paper section 2.2); 0 when no core was online.
    """

    def __init__(self) -> None:
        self.reset()

    def record(
        self, tick: int, per_core_percent: Sequence[float], online_mask: Sequence[bool]
    ) -> float:
        """Account one tick's utilization, returning its global percent."""
        if len(per_core_percent) != len(online_mask):
            raise MeterError(
                f"{len(per_core_percent)} utilizations for {len(online_mask)} online flags"
            )
        for value in per_core_percent:
            if not 0.0 <= value <= 100.0:
                raise UnitsError(f"per-core utilization must lie in [0, 100], got {value!r}")
        online = [u for u, on in zip(per_core_percent, online_mask) if on]
        if self.tick is not None:
            self._previous_global_percent = self.global_percent
        self.tick = tick
        self.per_core_percent = tuple(per_core_percent)
        self.global_percent = sum(online) / len(online) if online else 0.0
        return self.global_percent

    def delta_global_percent(self) -> float:
        """Utilization change between the last two ticks (t minus t-1).

        Zero before two ticks exist.  This is the signal MobiCore's
        bandwidth controller thresholds against (Table 2).
        """
        if self._previous_global_percent is None:
            return 0.0
        return self.global_percent - self._previous_global_percent

    def reset(self) -> None:
        """Forget both ticks (new session)."""
        self.tick: Optional[int] = None
        self.per_core_percent: Tuple[float, ...] = ()
        self.global_percent = 0.0
        self._previous_global_percent: Optional[float] = None
