"""Hierarchical wall-clock span profiler for the runner hot path.

A :class:`SpanProfiler` times named phases (``span("compile")``,
``span("execute")``, ``span("cache.read")``…) as context managers;
nested spans record under a dotted path (``execute.policy``), giving a
wall breakdown of where a sweep actually spends its time.  Percentile
aggregation (:meth:`SpanProfiler.stats` — p50/p95/p99 per phase) is
what the heartbeat ETA and the ``repro_runner_phase_seconds`` metric
histograms are derived from.

Profiling is ambient: instrumentation sites deep in the stack
(:func:`~repro.scenario.compile.compile_scenario`,
:meth:`~repro.kernel.engine.Session.run`) call the module-level
:func:`span`, which reaches the profiler installed by
:func:`set_profiler` — a disabled no-op by default, so un-instrumented
programs pay one attribute load and a shared null context manager per
call, nothing else.  Workers install a fresh enabled profiler around
each spec execution and ship its totals back as
``SpecExecution.phase_seconds``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = [
    "SpanProfiler",
    "SpanStats",
    "current_profiler",
    "set_profiler",
    "span",
]


@dataclass(frozen=True)
class SpanStats:
    """Aggregated wall-clock statistics of one span path.

    Attributes:
        count: Completed spans recorded under the path.
        total: Summed wall seconds.
        mean: ``total / count``.
        p50: Median wall seconds.
        p95: 95th-percentile wall seconds.
        p99: 99th-percentile wall seconds.

    Percentiles interpolate linearly between the two nearest ranks of
    the sorted samples (numpy's default ``linear`` method), so p95 of
    ``1..5`` is 4.8, not a recorded sample.
        min: Fastest recorded span.
        max: Slowest recorded span.
    """

    count: int
    total: float
    mean: float
    p50: float
    p95: float
    p99: float
    min: float
    max: float


def _percentile(ordered: List[float], q: float) -> float:
    """Linear-interpolated percentile of an already-sorted list."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


class _NullSpan:
    """The shared no-op context manager disabled profilers hand out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """One live timing scope; records its path on clean or raising exit."""

    __slots__ = ("profiler", "path", "began")

    def __init__(self, profiler: "SpanProfiler", path: str) -> None:
        self.profiler = profiler
        self.path = path
        self.began = 0.0

    def __enter__(self) -> "_Span":
        self.profiler._stack.append(self.path)
        self.began = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self.began
        stack = self.profiler._stack
        if stack and stack[-1] == self.path:
            stack.pop()
        self.profiler.record(self.path, elapsed)


class SpanProfiler:
    """Collects wall-clock durations per hierarchical span path.

    Args:
        enabled: When False, :meth:`span` returns a shared no-op context
            manager and nothing is recorded — the fast path the
            overhead benchmark pins.

    Raw durations are kept per path (a sweep records a handful of spans
    per spec, so memory stays trivially bounded) so percentiles are
    exact rather than bucketed.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._stack: List[str] = []
        self._values: Dict[str, List[float]] = {}

    def span(self, name: str):
        """A context manager timing *name* (nested under any open span)."""
        if not self.enabled:
            return _NULL_SPAN
        if self._stack:
            path = f"{self._stack[-1]}.{name}"
        else:
            path = name
        return _Span(self, path)

    def record(self, path: str, seconds: float) -> None:
        """Fold one finished duration in under *path* directly."""
        if not self.enabled:
            return
        values = self._values.get(path)
        if values is None:
            values = self._values[path] = []
        values.append(seconds)

    def merge(self, phase_seconds: Mapping[str, float]) -> None:
        """Fold one spec's per-phase totals in, one observation per phase.

        This is how the driver aggregates worker-side breakdowns: each
        executed spec contributes a single observation per phase, so
        :meth:`stats` percentiles read "per spec", not "per span".
        """
        for path, seconds in phase_seconds.items():
            self.record(path, seconds)

    def totals(self) -> Dict[str, float]:
        """Summed wall seconds per path — the per-spec breakdown shape."""
        return {path: sum(values) for path, values in self._values.items()}

    def paths(self) -> List[str]:
        """Recorded span paths, sorted."""
        return sorted(self._values)

    def stats(self) -> Dict[str, SpanStats]:
        """Per-path aggregates (count, total, mean, p50/p95/p99, min/max)."""
        out: Dict[str, SpanStats] = {}
        for path in sorted(self._values):
            ordered = sorted(self._values[path])
            total = sum(ordered)
            out[path] = SpanStats(
                count=len(ordered),
                total=total,
                mean=total / len(ordered),
                p50=_percentile(ordered, 0.50),
                p95=_percentile(ordered, 0.95),
                p99=_percentile(ordered, 0.99),
                min=ordered[0],
                max=ordered[-1],
            )
        return out

    def clear(self) -> None:
        """Drop every recorded duration (enabled state is preserved)."""
        self._stack.clear()
        self._values.clear()


#: The ambient profiler deep instrumentation sites reach; disabled by
#: default so programs that never install one pay a no-op context only.
_AMBIENT = SpanProfiler(enabled=False)


def current_profiler() -> SpanProfiler:
    """The process's ambient profiler (disabled unless installed)."""
    return _AMBIENT


def set_profiler(profiler: Optional[SpanProfiler]) -> SpanProfiler:
    """Install *profiler* as ambient (None resets to disabled); returns the previous one.

    Callers restore the returned profiler in a ``finally`` so nesting
    composes — the pattern ``execute_spec_full`` uses around each spec.
    """
    global _AMBIENT
    previous = _AMBIENT
    _AMBIENT = profiler if profiler is not None else SpanProfiler(enabled=False)
    return previous


def span(name: str):
    """Time *name* on the ambient profiler (no-op when none installed)."""
    return _AMBIENT.span(name)
