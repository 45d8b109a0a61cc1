"""Event tracing -- the simulation's "kernel application log file".

Section 3.1: "Running it in the background produces a file recording
historical information of the hardware states."  :class:`TraceRecorder`
is that file.  Since the columnar refactor it is a façade over a
struct-of-arrays :class:`~repro.kernel.trace_buffer.TraceBuffer`: the
engine writes raw columns via :meth:`TraceRecorder.record_tick`, summary
statistics are vectorized reductions over those columns (bit-identical
to the old per-record Python sums — see
:func:`~repro.kernel.trace_buffer.sequential_sum`), and
:class:`TickRecord` objects are only materialized lazily, through
:class:`TraceView`, when a consumer actually asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Union, overload

import numpy as np

from .trace_buffer import FLUSH_TICKS, TraceBuffer, sequential_sum
from ..errors import TraceError
from ..obs.columnar import ticks_to_csv

__all__ = ["TickRecord", "TraceRecorder", "TraceView"]


@dataclass(frozen=True)
class TickRecord:
    """Hardware and policy state of one simulation tick.

    The three per-core fields are coerced to tuples on construction, so
    a record can never alias a caller's scratch list: mutating the list
    after the tick leaves recorded history untouched.
    """

    tick: int
    time_seconds: float
    frequencies_khz: Sequence[int]
    online_mask: Sequence[bool]
    busy_fractions: Sequence[float]
    global_util_percent: float
    quota: float
    power_mw: float
    cpu_power_mw: float
    temperature_c: float
    backlog_cycles: float = 0.0
    dropped_cycles: float = 0.0
    fps: Optional[float] = None
    #: Executed work as a fraction of platform-max throughput, percent:
    #: sum over cores of busy * f / fmax, divided by the total core
    #: count.  Frequency- and core-count-invariant.
    scaled_load_percent: float = 0.0

    def __post_init__(self) -> None:
        """Snapshot the per-core sequences as tuples (aliasing safety)."""
        for field in ("frequencies_khz", "online_mask", "busy_fractions"):
            value = getattr(self, field)
            if type(value) is not tuple:
                object.__setattr__(self, field, tuple(value))

    @property
    def online_count(self) -> int:
        """Cores online during the tick (computed once, then cached)."""
        cached = self.__dict__.get("_online_count")
        if cached is None:
            cached = sum(1 for on in self.online_mask if on)
            object.__setattr__(self, "_online_count", cached)
        return cached

    @property
    def mean_online_frequency_khz(self) -> float:
        """Average frequency over online cores (computed once, then cached)."""
        cached = self.__dict__.get("_mean_online_frequency")
        if cached is None:
            online = [f for f, on in zip(self.frequencies_khz, self.online_mask) if on]
            cached = sum(online) / len(online) if online else 0.0
            object.__setattr__(self, "_mean_online_frequency", cached)
        return cached


class TraceView(Sequence[TickRecord]):
    """A read-only window of :class:`TickRecord` views over a buffer.

    Records are materialized lazily on first access and cached (shared
    across all views of the same recorder), so iterating twice or
    indexing the same tick repeatedly costs one construction.  Each
    materialized record is pre-seeded with the buffer's vectorized
    derived columns, making ``online_count`` and
    ``mean_online_frequency_khz`` O(1) on first access too.
    """

    def __init__(
        self,
        buffer: TraceBuffer,
        start: int = 0,
        cache: Optional[dict] = None,
    ) -> None:
        self._buffer = buffer
        self._start = start
        self._cache = cache if cache is not None else {}

    def __len__(self) -> int:
        return max(0, len(self._buffer) - self._start)

    @overload
    def __getitem__(self, index: int) -> TickRecord: ...

    @overload
    def __getitem__(self, index: slice) -> List[TickRecord]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[TickRecord, List[TickRecord]]:
        """One materialized record, or a list of them for a slice."""
        length = len(self)
        if isinstance(index, slice):
            return [
                self._materialize(self._start + i)
                for i in range(*index.indices(length))
            ]
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(f"record {index} out of range for {length} ticks")
        return self._materialize(self._start + index)

    def __iter__(self) -> Iterator[TickRecord]:
        """Yield records in tick order, materializing as needed."""
        for absolute in range(self._start, self._start + len(self)):
            yield self._materialize(absolute)

    def _materialize(self, absolute: int) -> TickRecord:
        """Build (or fetch the cached) record for one absolute buffer row."""
        record = self._cache.get(absolute)
        if record is None:
            record = TickRecord(*self._buffer.row(absolute))
            object.__setattr__(
                record, "_online_count", int(self._buffer.online_counts()[absolute])
            )
            object.__setattr__(
                record,
                "_mean_online_frequency",
                float(self._buffer.mean_online_frequencies()[absolute]),
            )
            self._cache[absolute] = record
        return record


class TraceRecorder:
    """Columnar trace store with summary helpers and a record façade.

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
    :meth:`TraceBuffer.append`).  :meth:`append` keeps the historical
    record-object API working, and :attr:`records`/:attr:`measured`
    return lazy :class:`TraceView` windows instead of list copies.
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
        self._view_cache: dict = {}

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def buffer(self) -> TraceBuffer:
        """The underlying columnar store (metrics and exporters read this)."""
        return self._buffer

    def append(self, record: TickRecord) -> None:
        """Append one tick record (ticks must arrive in order)."""
        self._buffer.append(
            record.tick,
            record.time_seconds,
            record.frequencies_khz,
            record.online_mask,
            record.busy_fractions,
            record.global_util_percent,
            record.quota,
            record.power_mw,
            record.cpu_power_mw,
            record.temperature_c,
            record.backlog_cycles,
            record.dropped_cycles,
            record.fps,
            record.scaled_load_percent,
        )

    @property
    def records(self) -> TraceView:
        """All records including warmup, as a lazy view."""
        return TraceView(self._buffer, 0, self._view_cache)

    @property
    def measured(self) -> TraceView:
        """Records after the warmup window -- the ones summaries use."""
        return TraceView(self._buffer, self.warmup_ticks, self._view_cache)

    def latest(self) -> TickRecord:
        """The most recently recorded tick, materialized."""
        count = len(self._buffer)
        if not count:
            raise TraceError("no ticks recorded yet")
        return TraceView(self._buffer, 0, self._view_cache)[count - 1]

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
        """Render all records (including warmup) as CSV text.

        One writer serves every export: this is
        :func:`~repro.obs.columnar.ticks_to_csv` over the recorder's
        buffer, streamed from the columns without materializing records.
        """
        return ticks_to_csv(self._buffer)
