"""Per-tick trace exports streamed straight from columnar buffers.

The exporters in :mod:`repro.obs.export` and :mod:`repro.obs.perfetto`
render *event* streams (typed tracepoint events from a
:class:`~repro.obs.bus.TracepointBus`).  This module renders the other
half of a session's observability surface — the per-tick hardware-state
trace — directly from the columnar
:class:`~repro.kernel.trace_buffer.TraceBuffer`, without materializing a
single record object:

* :func:`ticks_to_csv` — the kernel's per-tick CSV layout;
* :func:`ticks_to_jsonl` — one JSON object per tick, greppable and
  streamable like the event JSONL;
* :func:`columns_chrome_events` / :func:`columns_to_chrome_trace` —
  Chrome-trace counter tracks (power, utilization, quota, online cores,
  temperature...) for ui.perfetto.dev, available for *any* finished
  session, even one that never armed a tracepoint bus.

The buffer argument is duck-typed (``scalar`` / ``online_counts`` /
``mean_online_frequencies`` accessors) rather than imported from the
kernel package, keeping this module import-light and free of the
kernel → obs → kernel cycle.
"""

from __future__ import annotations

import io
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "TICK_CSV_COLUMNS",
    "ticks_to_csv",
    "ticks_to_jsonl",
    "columns_chrome_events",
    "columns_to_chrome_trace",
]

#: The per-tick CSV layout, also the kernel recorder's
#: :meth:`~repro.kernel.tracing.TraceRecorder.to_csv` export.
TICK_CSV_COLUMNS = (
    "tick",
    "time_s",
    "global_util_pct",
    "scaled_load_pct",
    "quota",
    "power_mw",
    "cpu_power_mw",
    "temperature_c",
    "online_count",
    "mean_freq_khz",
    "backlog_cycles",
    "dropped_cycles",
    "fps",
)

#: Counter tracks rendered per tick: (track name, scalar column) pairs;
#: ``online_cores`` comes from the derived online-count column instead.
_COUNTER_TRACKS = (
    ("power_mw", "power_mw"),
    ("cpu_power_mw", "cpu_power_mw"),
    ("util_percent", "global_util_percent"),
    ("scaled_load_percent", "scaled_load_percent"),
    ("quota", "quota"),
    ("temperature_c", "temperature_c"),
)


def _columns(buffer: Any) -> Dict[str, np.ndarray]:
    """Pull every export-relevant column of *buffer* once."""
    return {
        "tick": buffer.scalar("tick"),
        "time_seconds": buffer.scalar("time_seconds"),
        "global_util_percent": buffer.scalar("global_util_percent"),
        "scaled_load_percent": buffer.scalar("scaled_load_percent"),
        "quota": buffer.scalar("quota"),
        "power_mw": buffer.scalar("power_mw"),
        "cpu_power_mw": buffer.scalar("cpu_power_mw"),
        "temperature_c": buffer.scalar("temperature_c"),
        "backlog_cycles": buffer.scalar("backlog_cycles"),
        "dropped_cycles": buffer.scalar("dropped_cycles"),
        "fps": buffer.scalar("fps"),
        "online_count": buffer.online_counts(),
        "mean_freq_khz": buffer.mean_online_frequencies(),
    }


def ticks_to_csv(buffer: Any) -> str:
    """Render a buffer's ticks as CSV text, streamed from the columns.

    The one writer of this layout, warmup ticks included:
    :meth:`~repro.kernel.tracing.TraceRecorder.to_csv` delegates here,
    and the legacy-recorder parity tests pin its bytes.
    """
    c = _columns(buffer)
    out = io.StringIO()
    out.write(",".join(TICK_CSV_COLUMNS) + "\n")
    for i in range(len(c["tick"])):
        fps = c["fps"][i]
        out.write(
            f"{int(c['tick'][i])},{c['time_seconds'][i]:.3f},"
            f"{c['global_util_percent'][i]:.2f},"
            f"{c['scaled_load_percent'][i]:.2f},{c['quota'][i]:.3f},"
            f"{c['power_mw'][i]:.2f},{c['cpu_power_mw'][i]:.2f},"
            f"{c['temperature_c'][i]:.2f},{int(c['online_count'][i])},"
            f"{c['mean_freq_khz'][i]:.0f},{c['backlog_cycles'][i]:.0f},"
            f"{c['dropped_cycles'][i]:.0f},"
            f"{'' if np.isnan(fps) else format(fps, '.2f')}\n"
        )
    return out.getvalue()


def ticks_to_jsonl(buffer: Any, session: Optional[str] = None) -> str:
    """One compact JSON object per tick, one tick per line.

    Values come straight from the columns; ``fps`` is ``null`` for
    ticks that reported no frame rate, and the optional *session* tag
    labels every line (mirroring the event JSONL exporter).
    """
    c = _columns(buffer)
    out = io.StringIO()
    for i in range(len(c["tick"])):
        fps = c["fps"][i]
        doc: Dict[str, Any] = {
            "tick": int(c["tick"][i]),
            "time_s": float(c["time_seconds"][i]),
            "global_util_pct": float(c["global_util_percent"][i]),
            "scaled_load_pct": float(c["scaled_load_percent"][i]),
            "quota": float(c["quota"][i]),
            "power_mw": float(c["power_mw"][i]),
            "cpu_power_mw": float(c["cpu_power_mw"][i]),
            "temperature_c": float(c["temperature_c"][i]),
            "online_count": int(c["online_count"][i]),
            "mean_freq_khz": float(c["mean_freq_khz"][i]),
            "backlog_cycles": float(c["backlog_cycles"][i]),
            "dropped_cycles": float(c["dropped_cycles"][i]),
            "fps": None if np.isnan(fps) else float(fps),
        }
        if session is not None:
            doc["session"] = session
        out.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        out.write("\n")
    return out.getvalue()


def columns_chrome_events(
    buffer: Any, pid: int = 0, label: str = "session"
) -> List[Dict[str, Any]]:
    """Chrome-trace counter events for one buffer, under process *pid*.

    Emits the same counter-track shape the event-stream exporter uses
    for ``TickCountersEvent`` (phase ``"C"``, category ``"counters"``,
    value in ``args``), timestamped with the tick's simulated time in
    microseconds — so a trace viewer shows identical tracks whether the
    session armed a tracepoint bus or not.
    """
    c = _columns(buffer)
    out: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "ts": 0,
            "args": {"name": label},
        }
    ]
    timestamps = np.rint(c["time_seconds"] * 1_000_000).astype(np.int64)
    for i in range(len(timestamps)):
        ts = int(timestamps[i])
        for track, column in _COUNTER_TRACKS:
            out.append(
                {
                    "name": track,
                    "ph": "C",
                    "cat": "counters",
                    "pid": pid,
                    "tid": 0,
                    "ts": ts,
                    "args": {"value": float(c[column][i])},
                }
            )
        out.append(
            {
                "name": "online_cores",
                "ph": "C",
                "cat": "counters",
                "pid": pid,
                "tid": 0,
                "ts": ts,
                "args": {"value": int(c["online_count"][i])},
            }
        )
    return out


def columns_to_chrome_trace(
    sessions: Sequence[Tuple[str, Any]]
) -> Dict[str, Any]:
    """The full Chrome-trace document: one process per (label, buffer)."""
    trace_events: List[Dict[str, Any]] = []
    for pid, (label, buffer) in enumerate(sessions):
        trace_events.extend(columns_chrome_events(buffer, pid=pid, label=label))
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro trace"},
    }
