"""Event tracing -- the simulation's "kernel application log file".

Section 3.1: "Running it in the background produces a file recording
historical information of the hardware states."  :class:`TraceRecorder`
is that file: a façade over a struct-of-arrays
:class:`~repro.kernel.trace_buffer.TraceBuffer`.  The engine writes raw
columns via :meth:`TraceRecorder.record_tick`, and summary statistics
are vectorized reductions over those columns, bit-identical to
left-to-right Python sums (see
:func:`~repro.kernel.trace_buffer.sequential_sum`).  Per-tick values are
read from the buffer's columns (:attr:`TraceRecorder.buffer`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .trace_buffer import FLUSH_TICKS, TraceBuffer, sequential_sum
from ..errors import TraceError
from ..obs.columnar import ticks_to_csv

__all__ = ["TraceRecorder"]


class TraceRecorder:
    """Columnar trace store with summary helpers.

    ``warmup_ticks`` rows are kept but excluded from every summary, so
    cold-start transients do not skew session averages (the paper's
    two-minute gaming averages start with the game already running).

    Args:
        warmup_ticks: Leading ticks excluded from summaries.
        num_cores: Optional per-core column width; deferred to the first
            tick when omitted.
        expected_ticks: Optional session length; when given, the buffer
            preallocates exactly once and never grows.

    The engine's hot path is :attr:`record_tick` (a direct alias of
    :meth:`TraceBuffer.append`); readers take columns from
    :attr:`buffer`.
    """

    def __init__(
        self,
        warmup_ticks: int = 0,
        num_cores: Optional[int] = None,
        expected_ticks: Optional[int] = None,
    ) -> None:
        if warmup_ticks < 0:
            raise TraceError(f"warmup_ticks must be non-negative, got {warmup_ticks}")
        self.warmup_ticks = warmup_ticks
        capacity = FLUSH_TICKS
        if expected_ticks is not None and expected_ticks > 0:
            capacity = expected_ticks
        self._buffer = TraceBuffer(num_cores=num_cores, capacity=capacity)
        #: Hot-path append: positional (tick, time, freqs, online, busy,
        #: util, quota, power, cpu_power, temp, backlog, dropped, fps,
        #: scaled_load) straight into the columnar buffer.
        self.record_tick = self._buffer.append

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def buffer(self) -> TraceBuffer:
        """The underlying columnar store (metrics and exporters read this)."""
        return self._buffer

    # -- summaries (Figure 10-13 statistics) ------------------------------

    def _measured_count(self) -> int:
        count = len(self._buffer) - self.warmup_ticks
        if count <= 0:
            raise TraceError("no measured ticks recorded yet")
        return count

    def _measured_scalar(self, name: str) -> np.ndarray:
        self._measured_count()
        return self._buffer.scalar(name, self.warmup_ticks)

    def mean_power_mw(self) -> float:
        """Session-average platform power (Figure 10's quantity)."""
        return sequential_sum(self._measured_scalar("power_mw")) / self._measured_count()

    def mean_cpu_power_mw(self) -> float:
        """Session-average CPU-attributable power."""
        column = self._measured_scalar("cpu_power_mw")
        return sequential_sum(column) / len(column)

    def mean_online_cores(self) -> float:
        """Average number of active CPU cores (Figure 12's quantity)."""
        count = self._measured_count()
        return sequential_sum(self._buffer.online_counts(self.warmup_ticks)) / count

    def mean_frequency_khz(self) -> float:
        """Average per-core frequency over online cores (Figure 12's quantity)."""
        count = self._measured_count()
        frequencies = self._buffer.mean_online_frequencies(self.warmup_ticks)
        return sequential_sum(frequencies) / count

    def mean_global_util_percent(self) -> float:
        """Average global CPU load (Figure 13's quantity)."""
        column = self._measured_scalar("global_util_percent")
        return sequential_sum(column) / len(column)

    def mean_scaled_load_percent(self) -> float:
        """Average fmax-normalised load: work executed, frequency-invariant."""
        column = self._measured_scalar("scaled_load_percent")
        return sequential_sum(column) / len(column)

    def mean_quota(self) -> float:
        """Average bandwidth quota in effect."""
        column = self._measured_scalar("quota")
        return sequential_sum(column) / len(column)

    def mean_fps(self) -> Optional[float]:
        """Average FPS over ticks that reported one (None when none did)."""
        fps = self._measured_scalar("fps")
        values = fps[~np.isnan(fps)]
        if not len(values):
            return None
        return sequential_sum(values) / len(values)

    def max_temperature_c(self) -> float:
        """Peak CPU-area temperature of the session."""
        return float(self._measured_scalar("temperature_c").max())

    def energy_mj(self, tick_seconds: float) -> float:
        """Total measured energy, millijoules (Eq. 5 over the session).

        Contract:

        * Only **measured** (post-warmup) ticks contribute — warmup
          transients are excluded from the integral exactly as they are
          from every mean.
        * Every record is assumed to span the same *tick_seconds* (the
          recorder never stores per-tick durations); energy is the
          rectangle rule ``sum(power_mw) * tick_seconds``.
        * Consequently ``energy_mj(dt) == mean_power_mw() * (N * dt)``
          with N the number of measured ticks — pinned by the regression
          test, so energy and mean power can never drift apart.

        mW times seconds is mJ, so no unit factor appears.
        """
        return sequential_sum(self._measured_scalar("power_mw")) * tick_seconds

    # -- export ------------------------------------------------------------

    def to_csv(self) -> str:
        """Render every tick (including warmup) as CSV text.

        This is :func:`~repro.obs.columnar.ticks_to_csv` over the
        recorder's buffer, streamed from the columns.
        """
        return ticks_to_csv(self._buffer)
