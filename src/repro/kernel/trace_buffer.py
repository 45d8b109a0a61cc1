"""Columnar tick storage: the struct-of-arrays core of the trace spine.

:class:`TraceBuffer` stores a session's ticks in preallocated, growable
numpy columns:

* one ``(capacity, N_SCALARS)`` float64 block for the scalar columns
  (tick, time, utilization, quota, power, CPU power, temperature,
  backlog, dropped cycles, FPS, scaled load);
* three ``(capacity, num_cores)`` blocks for the per-core columns
  (frequencies as int64, online mask as bool, busy fractions as float64).

Appends are staged in flat Python lists and flushed into the arrays in
bulk (one reshape per block per :data:`FLUSH_TICKS` ticks), so the
per-tick cost is four ``list.extend`` calls instead of per-element
numpy stores.  Staging copies every element out of the caller's
sequences immediately, so a caller mutating its scratch lists after the
tick can never alter recorded history.

Reductions read the columns directly.  :func:`sequential_sum` sums left
to right with the same per-step rounding as ``sum()``, so every
columnar summary is **bit-identical** to a record-by-record Python sum
(numpy's pairwise ``ndarray.sum`` would drift in the last ulps).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TraceError

__all__ = ["TraceBuffer", "FLUSH_TICKS", "SCALAR_COLUMNS", "sequential_sum"]

#: Staged appends are flushed into the numpy blocks in chunks this big.
FLUSH_TICKS = 1024

#: Names of the float64 scalar columns, in block order.
SCALAR_COLUMNS = (
    "tick",
    "time_seconds",
    "global_util_percent",
    "quota",
    "power_mw",
    "cpu_power_mw",
    "temperature_c",
    "backlog_cycles",
    "dropped_cycles",
    "fps",
    "scaled_load_percent",
)

_COLUMN_INDEX = {name: i for i, name in enumerate(SCALAR_COLUMNS)}
_N_SCALARS = len(SCALAR_COLUMNS)
_NAN = float("nan")


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right sum of a 1-D array, bit-identical to Python's ``sum``.

    ``np.cumsum`` must produce every sequentially-rounded prefix, so its
    last element equals ``sum(values.tolist())`` exactly — unlike
    ``ndarray.sum``, whose pairwise reduction rounds differently.  The
    columnar summaries use this so they reproduce the legacy per-record
    statistics bit for bit.  Returns ``0.0`` for an empty array, like
    ``sum([])``.
    """
    if len(values) == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


class TraceBuffer:
    """Preallocated, growable struct-of-arrays store of per-tick state.

    Args:
        num_cores: Width of the per-core columns.  ``None`` defers the
            allocation to the first append (the width is then taken from
            the first tick's ``frequencies_khz``).
        capacity: Initial number of preallocated rows; the blocks double
            whenever a flush would overflow.  Callers that know the
            session length (the engine does) pass it here so a session
            never grows.

    Appending is only legal with strictly increasing ticks; violations
    raise :class:`~repro.errors.TraceError` with the same message the
    record-based recorder used.
    """

    def __init__(self, num_cores: Optional[int] = None, capacity: int = FLUSH_TICKS) -> None:
        if capacity < 1:
            raise TraceError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._num_cores = None if num_cores is None else int(num_cores)
        self._n = 0
        self._last_tick = None  # type: Optional[int]
        self._scalars: Optional[np.ndarray] = None
        self._frequencies: Optional[np.ndarray] = None
        self._online: Optional[np.ndarray] = None
        self._busy: Optional[np.ndarray] = None
        self._derived: Dict[str, np.ndarray] = {}
        self._derived_length = -1
        self._reset_staging()
        if self._num_cores is not None:
            self._allocate(self._num_cores)

    # -- appending --------------------------------------------------------

    def _reset_staging(self) -> None:
        # Flat staging lists: N ticks land as N*width elements, reshaped
        # at flush.  extend() copies the caller's values element by
        # element, which is both the fastest staging primitive and the
        # aliasing barrier (see append()).
        self._staged_scalars: List[float] = []
        self._staged_freq: List[int] = []
        self._staged_online: List[bool] = []
        self._staged_busy: List[float] = []
        self._stage_scalar = self._staged_scalars.extend
        self._stage_freq = self._staged_freq.extend
        self._stage_online = self._staged_online.extend
        self._stage_busy = self._staged_busy.extend
        self._room = FLUSH_TICKS

    def _allocate(self, num_cores: int) -> None:
        self._num_cores = num_cores
        cap = self._capacity
        self._scalars = np.empty((cap, len(SCALAR_COLUMNS)), dtype=np.float64)
        self._frequencies = np.empty((cap, num_cores), dtype=np.int64)
        self._online = np.empty((cap, num_cores), dtype=bool)
        self._busy = np.empty((cap, num_cores), dtype=np.float64)

    def append(
        self,
        tick: int,
        time_seconds: float,
        frequencies_khz: Sequence[int],
        online_mask: Sequence[bool],
        busy_fractions: Sequence[float],
        global_util_percent: float,
        quota: float,
        power_mw: float,
        cpu_power_mw: float,
        temperature_c: float,
        backlog_cycles: float = 0.0,
        dropped_cycles: float = 0.0,
        fps: Optional[float] = None,
        scaled_load_percent: float = 0.0,
    ) -> None:
        """Record one tick's columns (ticks must arrive in strict order).

        The three sequence arguments are copied element by element into
        the staging lists before this call returns, so callers may pass
        (and afterwards reuse or mutate) scratch lists without ever
        aliasing recorded history.
        """
        last = self._last_tick
        if last is not None and tick <= last:
            raise TraceError(f"out-of-order tick {tick} after {last}")
        self._last_tick = tick
        self._stage_scalar(
            (
                tick,
                time_seconds,
                global_util_percent,
                quota,
                power_mw,
                cpu_power_mw,
                temperature_c,
                backlog_cycles,
                dropped_cycles,
                _NAN if fps is None else fps,
                scaled_load_percent,
            )
        )
        self._stage_freq(frequencies_khz)
        self._stage_online(online_mask)
        self._stage_busy(busy_fractions)
        self._room -= 1
        if not self._room:
            self.flush()

    def flush(self) -> None:
        """Move staged ticks into the numpy blocks (idempotent, cheap when empty)."""
        staged = FLUSH_TICKS - self._room
        if not staged:
            return
        if self._scalars is None:
            self._allocate(len(self._staged_freq) // staged)
        begin = self._n
        end = begin + staged
        if end > self._capacity:
            capacity = self._capacity
            while end > capacity:
                capacity *= 2
            self._grow(capacity)
        cores = self._num_cores
        try:
            self._scalars[begin:end] = np.asarray(
                self._staged_scalars, dtype=np.float64
            ).reshape(staged, _N_SCALARS)
            self._frequencies[begin:end] = np.asarray(
                self._staged_freq, dtype=np.int64
            ).reshape(staged, cores)
            self._online[begin:end] = np.asarray(
                self._staged_online, dtype=bool
            ).reshape(staged, cores)
            self._busy[begin:end] = np.asarray(
                self._staged_busy, dtype=np.float64
            ).reshape(staged, cores)
        except (TypeError, ValueError) as error:
            raise TraceError(f"inconsistent per-core column width: {error}") from error
        self._n = end
        self._reset_staging()

    def _grow(self, capacity: int) -> None:
        """Double-and-copy every block to *capacity* rows."""
        n = self._n
        for name in ("_scalars", "_frequencies", "_online", "_busy"):
            old = getattr(self, name)
            grown = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            grown[:n] = old[:n]
            setattr(self, name, grown)
        self._capacity = capacity

    # -- geometry ---------------------------------------------------------

    def __len__(self) -> int:
        return self._n + (FLUSH_TICKS - self._room)

    @property
    def num_cores(self) -> Optional[int]:
        """Width of the per-core columns (None before the first tick)."""
        if self._num_cores is not None:
            return self._num_cores
        staged = FLUSH_TICKS - self._room
        if staged:
            return len(self._staged_freq) // staged
        return None

    @property
    def last_tick(self) -> Optional[int]:
        """The most recently recorded tick number (None when empty)."""
        return self._last_tick

    @property
    def nbytes(self) -> int:
        """Bytes of recorded column data (trimmed to the rows in use)."""
        self.flush()
        if self._scalars is None:
            return 0
        n = self._n
        per_row = (
            self._scalars.dtype.itemsize * self._scalars.shape[1]
            + self._frequencies.dtype.itemsize * self._frequencies.shape[1]
            + self._online.dtype.itemsize * self._online.shape[1]
            + self._busy.dtype.itemsize * self._busy.shape[1]
        )
        return n * per_row

    @property
    def capacity_bytes(self) -> int:
        """Bytes the preallocated blocks occupy — the recorder's peak memory."""
        self.flush()
        if self._scalars is None:
            return 0
        return (
            self._scalars.nbytes
            + self._frequencies.nbytes
            + self._online.nbytes
            + self._busy.nbytes
        )

    # -- column access ----------------------------------------------------

    def scalar(self, name: str, start: int = 0) -> np.ndarray:
        """A trimmed (zero-copy) view of one scalar column from row *start*.

        FPS holds ``NaN`` where the tick reported no frame rate.
        """
        if name not in _COLUMN_INDEX:
            raise TraceError(f"unknown scalar column {name!r}")
        self.flush()
        if self._scalars is None:
            return np.empty(0, dtype=np.float64)
        return self._scalars[start:self._n, _COLUMN_INDEX[name]]

    def frequencies(self, start: int = 0) -> np.ndarray:
        """The ``(ticks, cores)`` int64 frequency block from row *start*."""
        self.flush()
        if self._frequencies is None:
            return np.empty((0, 0), dtype=np.int64)
        return self._frequencies[start:self._n]

    def online(self, start: int = 0) -> np.ndarray:
        """The ``(ticks, cores)`` bool online-mask block from row *start*."""
        self.flush()
        if self._online is None:
            return np.empty((0, 0), dtype=bool)
        return self._online[start:self._n]

    def busy(self, start: int = 0) -> np.ndarray:
        """The ``(ticks, cores)`` float64 busy-fraction block from row *start*."""
        self.flush()
        if self._busy is None:
            return np.empty((0, 0), dtype=np.float64)
        return self._busy[start:self._n]

    # -- derived columns (computed once, cached per length) ---------------

    def _derive(self) -> Dict[str, np.ndarray]:
        self.flush()
        if self._derived_length != self._n:
            online = self.online()
            counts = online.sum(axis=1)
            freq_sums = (self.frequencies() * online).sum(axis=1)
            mean_freq = np.divide(
                freq_sums,
                counts,
                out=np.zeros(len(counts), dtype=np.float64),
                where=counts > 0,
            )
            self._derived = {"online_count": counts, "mean_online_frequency_khz": mean_freq}
            self._derived_length = self._n
        return self._derived

    def online_counts(self, start: int = 0) -> np.ndarray:
        """Per-tick online-core counts (int), derived once per buffer length."""
        return self._derive()["online_count"][start:]

    def mean_online_frequencies(self, start: int = 0) -> np.ndarray:
        """Per-tick mean frequency over online cores, kHz (0.0 when none online).

        Integer core frequencies sum exactly in int64, so each element is
        bit-identical to the per-record ``sum(online)/len(online)``.
        """
        return self._derive()["mean_online_frequency_khz"][start:]

    # -- row access -------------------------------------------------------

    def row(self, index: int) -> Tuple:
        """One tick's raw values, in :meth:`append` argument order.

        Negative indices address from the end, like a list.  FPS comes
        back as ``None`` when the tick recorded none.
        """
        self.flush()
        n = self._n
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise TraceError(f"row {index} out of range for {n} recorded ticks")
        s = self._scalars[index]
        fps = s[9]
        return (
            int(s[0]),
            float(s[1]),
            tuple(int(f) for f in self._frequencies[index]),
            tuple(bool(o) for o in self._online[index]),
            tuple(float(b) for b in self._busy[index]),
            float(s[2]),
            float(s[3]),
            float(s[4]),
            float(s[5]),
            float(s[6]),
            float(s[7]),
            float(s[8]),
            None if np.isnan(fps) else float(fps),
            float(s[10]),
        )

    def iter_rows(self, start: int = 0) -> Iterator[Tuple]:
        """Yield :meth:`row` tuples from *start* (flushes first)."""
        self.flush()
        for index in range(start, self._n):
            yield self.row(index)
