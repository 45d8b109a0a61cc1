"""The tracepoint bus: ftrace for the simulated kernel.

Linux ftrace compiles every tracepoint down to a predicted-not-taken
branch when tracing is off.  This module reproduces that contract in
Python: each instrumentation site holds a :class:`Tracepoint` whose
``enabled`` attribute is a plain bool, so the disabled fast path is::

    if tp.enabled:          # one attribute load + branch, nothing else
        tp.emit(core=..., old_khz=..., new_khz=...)

``emit`` is only ever reached when the tracepoint is enabled, so a
disabled run performs **zero event allocations** — asserted by the
overhead regression test, which patches ``emit`` to raise.

Subsystems that were never attached to a bus hold the shared
:data:`NULL_TRACEPOINT` (permanently disabled), so instrumentation sites
never need a None check.

The bus also carries per-tick *decision context* (utilization, deciding
governor, decision reason) so mechanism-level sites — which do not know
*why* they are being driven — can stamp events with the cause, the way
ftrace events carry the current task context.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Type

from .events import TraceEvent
from ..errors import TraceError

__all__ = ["Tracepoint", "NULL_TRACEPOINT", "TracepointBus"]


class Tracepoint:
    """One named emission site, enable/disable-able like an ftrace event.

    Attributes:
        enabled: The *effective* switch sites branch on — true only when
            the bus master switch, the category filter, and this
            tracepoint's own knob all agree.  Maintained by the bus;
            sites must treat it as read-only.
        requested: This tracepoint's own knob (the
            ``events/<cat>/<name>/enable`` file); combined with the
            master switch into ``enabled``.
    """

    __slots__ = ("bus", "category", "name", "event_cls", "enabled", "requested")

    def __init__(
        self,
        bus: Optional["TracepointBus"],
        category: str,
        name: str,
        event_cls: Type[TraceEvent],
    ) -> None:
        self.bus = bus
        self.category = category
        self.name = name
        self.event_cls = event_cls
        self.requested = True
        self.enabled = False

    def __bool__(self) -> bool:
        return self.enabled

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"Tracepoint({self.category}:{self.name}, {state})"

    def emit(self, **fields) -> None:
        """Allocate and publish one event.  Only call when ``enabled``."""
        bus = self.bus
        if bus is None:
            raise TraceError(
                f"tracepoint {self.category}:{self.name} emitted with no bus "
                f"attached — sites must guard with `if tp.enabled:`"
            )
        bus._publish(self, self.event_cls(ts_us=bus.now_us, **fields))


#: The permanently-disabled tracepoint unattached subsystems hold:
#: ``enabled`` is always False, and emitting through it is an error.
NULL_TRACEPOINT = Tracepoint(None, "null", "null", TraceEvent)


class TracepointBus:
    """Registry of tracepoints plus the event buffer they publish into.

    Args:
        capacity: Ring-buffer size; ``None`` keeps every event (bounded
            only by session length).  With a capacity, the oldest events
            are evicted and accounted as dropped, bounding memory for
            long sessions exactly like the ftrace ring buffer.
        tracing_on: The master switch (``tracing_on`` in debugfs terms).
        categories: When given, only tracepoints of these categories can
            ever enable — the CLI's ``--events cpufreq,hotplug`` filter.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        tracing_on: bool = True,
        categories: Optional[Sequence[str]] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise TraceError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.now_us = 0
        # Decision context, stamped onto mechanism-level events.
        self.ctx_util_percent: Optional[float] = None
        self.ctx_governor: Optional[str] = None
        self.ctx_reason: Optional[str] = None
        self._tracing_on = tracing_on
        self._category_filter = frozenset(categories) if categories else None
        self._tracepoints: Dict[Tuple[str, str], Tracepoint] = {}
        self._buffer: Deque[TraceEvent] = deque(maxlen=capacity)
        self._counts: Dict[Tuple[str, str], int] = {}
        self._total = 0

    @property
    def categories(self) -> Optional[frozenset]:
        """The construction-time category filter (``None`` = everything)."""
        return self._category_filter

    # -- registration ----------------------------------------------------

    def tracepoint(
        self, category: str, name: str, event_cls: Type[TraceEvent]
    ) -> Tracepoint:
        """The tracepoint for (category, name), created on first request.

        Idempotent: repeated registration (e.g. a re-attached subsystem)
        returns the same object, so enable/disable state survives
        re-attachment.
        """
        key = (category, name)
        existing = self._tracepoints.get(key)
        if existing is not None:
            if existing.event_cls is not event_cls:
                raise TraceError(
                    f"tracepoint {category}:{name} already registered with "
                    f"{existing.event_cls.__name__}, not {event_cls.__name__}"
                )
            return existing
        tp = Tracepoint(self, category, name, event_cls)
        self._tracepoints[key] = tp
        self._recompute(tp)
        return tp

    @property
    def tracepoints(self) -> List[Tracepoint]:
        """All registered tracepoints, in registration order."""
        return list(self._tracepoints.values())

    # -- switches --------------------------------------------------------

    @property
    def tracing_on(self) -> bool:
        """The master switch (debugfs ``tracing_on``)."""
        return self._tracing_on

    def set_tracing(self, on: bool) -> None:
        """Flip the master switch and refresh every tracepoint."""
        self._tracing_on = bool(on)
        for tp in self._tracepoints.values():
            self._recompute(tp)

    def enable(self, category: Optional[str] = None, name: Optional[str] = None) -> None:
        """Request matching tracepoints on (all of them by default)."""
        self._set_requested(True, category, name)

    def disable(self, category: Optional[str] = None, name: Optional[str] = None) -> None:
        """Request matching tracepoints off (all of them by default)."""
        self._set_requested(False, category, name)

    def _set_requested(
        self, requested: bool, category: Optional[str], name: Optional[str]
    ) -> None:
        matched = False
        for (cat, evt), tp in self._tracepoints.items():
            if category is not None and cat != category:
                continue
            if name is not None and evt != name:
                continue
            tp.requested = requested
            self._recompute(tp)
            matched = True
        if not matched and (category is not None or name is not None):
            raise TraceError(
                f"no tracepoint matches category={category!r} name={name!r}"
            )

    def _recompute(self, tp: Tracepoint) -> None:
        tp.enabled = (
            self._tracing_on
            and tp.requested
            and (self._category_filter is None or tp.category in self._category_filter)
        )

    # -- publication -----------------------------------------------------

    def _publish(self, tp: Tracepoint, event: TraceEvent) -> None:
        key = (tp.category, tp.name)
        self._counts[key] = self._counts.get(key, 0) + 1
        self._total += 1
        self._buffer.append(event)

    def set_time_us(self, ts_us: int) -> None:
        """Advance the bus clock (events are stamped with this time)."""
        self.now_us = ts_us

    def set_decision_context(
        self,
        util_percent: Optional[float] = None,
        governor: Optional[str] = None,
        reason: Optional[str] = None,
    ) -> None:
        """Record the tick's deciding context for mechanism-level events."""
        self.ctx_util_percent = util_percent
        self.ctx_governor = governor
        self.ctx_reason = reason

    # -- inspection ------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        """The buffered events, oldest first."""
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def total_events(self) -> int:
        """Events published since the last clear (including evicted ones)."""
        return self._total

    @property
    def dropped_events(self) -> int:
        """Events evicted by the ring buffer."""
        return self._total - len(self._buffer)

    @property
    def counts(self) -> Dict[str, int]:
        """Published events per type, keyed ``"category:name"``."""
        return {f"{cat}:{name}": n for (cat, name), n in self._counts.items()}

    def clear(self) -> None:
        """Start a new recording epoch (enable state is preserved)."""
        self._buffer.clear()
        self._counts.clear()
        self._total = 0
        self.now_us = 0
        self.set_decision_context()
