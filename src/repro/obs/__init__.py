"""Structured observability: the tracepoint bus and its exporters.

Modeled on Linux ftrace/Perfetto, this package is the instrumentation
substrate of the simulation:

* :mod:`repro.obs.events` — the typed event vocabulary (frequency
  transitions, hotplug, quota updates, cpuidle entries, scheduler
  migrations, policy decisions, per-tick counters, runner telemetry);
* :mod:`repro.obs.bus` — :class:`TracepointBus` and
  :class:`Tracepoint`: zero-overhead-when-disabled emission sites with
  ftrace-style per-event enable knobs, per-type event counts, and an
  optional ring buffer;
* :mod:`repro.obs.perfetto` — Chrome-trace/Perfetto JSON export
  (loadable in ``chrome://tracing`` / ui.perfetto.dev);
* :mod:`repro.obs.export` — JSONL/CSV export and trace-file summaries;
* :mod:`repro.obs.columnar` — per-tick CSV/JSONL/Chrome-counter export
  streamed straight from a session's columnar trace buffer;
* :mod:`repro.obs.debugfs` — ``/sys/kernel/debug/tracing``-style knobs
  over a :class:`~repro.kernel.sysfs.SysfsTree`;
* :mod:`repro.obs.metrics_plane` — the host-side ops plane: a
  Prometheus-style metrics registry, hierarchical span profiler, and
  the heartbeat protocol behind ``repro status`` / ``repro metrics``
  (imported on demand, not re-exported here — the simulated-device
  and runner-fleet observability surfaces stay distinct).
"""

from .bus import NULL_TRACEPOINT, Tracepoint, TracepointBus
from .columnar import (
    TICK_CSV_COLUMNS,
    columns_chrome_events,
    columns_to_chrome_trace,
    ticks_to_csv,
    ticks_to_jsonl,
)
from .debugfs import TRACING_ROOT, register_tracing_knobs
from .events import (
    EVENT_TYPES,
    CpuidleEvent,
    FaultInjectionEvent,
    FreqTransitionEvent,
    HotplugEvent,
    HotplugFailureEvent,
    MpdecisionVetoEvent,
    PolicyDecisionEvent,
    QuotaEvent,
    RunnerCacheEvent,
    RunnerRetryEvent,
    RunnerSessionEvent,
    SchedMigrationEvent,
    TickCountersEvent,
    TraceEvent,
    event_to_dict,
)
from .export import (
    count_events,
    events_to_csv,
    events_to_jsonl,
    read_jsonl,
    summarize_trace_file,
)
from .perfetto import session_chrome_events, to_chrome_trace, validate_chrome_trace

__all__ = [
    "NULL_TRACEPOINT",
    "Tracepoint",
    "TracepointBus",
    "TRACING_ROOT",
    "register_tracing_knobs",
    "EVENT_TYPES",
    "TraceEvent",
    "FreqTransitionEvent",
    "HotplugEvent",
    "HotplugFailureEvent",
    "MpdecisionVetoEvent",
    "QuotaEvent",
    "CpuidleEvent",
    "SchedMigrationEvent",
    "PolicyDecisionEvent",
    "TickCountersEvent",
    "FaultInjectionEvent",
    "RunnerSessionEvent",
    "RunnerCacheEvent",
    "RunnerRetryEvent",
    "event_to_dict",
    "TICK_CSV_COLUMNS",
    "ticks_to_csv",
    "ticks_to_jsonl",
    "columns_chrome_events",
    "columns_to_chrome_trace",
    "count_events",
    "events_to_csv",
    "events_to_jsonl",
    "read_jsonl",
    "summarize_trace_file",
    "session_chrome_events",
    "to_chrome_trace",
    "validate_chrome_trace",
]
