"""Per-tick trace export streamed straight from a columnar buffer.

The exporters in :mod:`repro.obs.export` and :mod:`repro.obs.perfetto`
render *event* streams (typed tracepoint events from a
:class:`~repro.obs.bus.TracepointBus`).  This module renders the other
half of a session's observability surface — the per-tick hardware-state
trace — directly from the columnar
:class:`~repro.kernel.trace_buffer.TraceBuffer`:
:func:`ticks_to_csv` writes the kernel's per-tick CSV layout.

The buffer argument is duck-typed (``scalar`` / ``online_counts`` /
``mean_online_frequencies`` accessors) rather than imported from the
kernel package, keeping this module import-light and free of the
kernel → obs → kernel cycle.
"""

from __future__ import annotations

import io
from typing import Any, Dict

import numpy as np

__all__ = ["TICK_CSV_COLUMNS", "ticks_to_csv"]

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
