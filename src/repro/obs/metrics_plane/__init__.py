"""Host-side ops plane: metrics registry, span profiler, heartbeats.

Where :mod:`repro.obs` observes the *simulated device* (tracepoints on
the simulated clock), this package observes the *runner fleet* on the
host: wall-clock phase profiling, Prometheus-style metrics, and a
heartbeat/progress protocol long sweeps can be watched through.

* :mod:`repro.obs.metrics_plane.registry` — a label-aware
  :class:`MetricsRegistry` (counters, gauges, fixed-bucket histograms)
  with Prometheus-text-format and JSON exposition plus a line-format
  parser CI validates the exposition with;
* :mod:`repro.obs.metrics_plane.spans` — a hierarchical
  :class:`SpanProfiler` (``span("compile")``, ``span("execute")``…)
  aggregating p50/p95/p99 wall-clock per phase, with an ambient
  profiler instrumentation sites reach without plumbing;
* :mod:`repro.obs.metrics_plane.heartbeat` — the JSONL status-file
  protocol (``queued | running | done | error`` per spec, retries,
  ETA) behind ``repro status``;
* :mod:`repro.obs.metrics_plane.bridge` — folds each finished runner
  batch (:class:`~repro.runner.runner.RunnerStats`, the per-spec plan
  rows, spec executions) into registry metrics, and renders the CLI
  ``--stats`` table from the same ``RunnerStats`` fields.

Everything here is disabled by default: a runner without a registry or
status directory takes the exact pre-ops-plane fast path, pinned by
``benchmarks/bench_obs_overhead.py``.  The registry's exposition and
the heartbeat file are deliberately service-shaped — a gateway can
mount them as ``/metrics`` and ``/jobs/<id>/status`` unchanged.
"""

from .bridge import (
    ensure_runner_metrics,
    format_bytes,
    observe_batch,
    observe_stats,
    stats_rows,
)
from .heartbeat import (
    HEARTBEAT_FILENAME,
    METRICS_FILENAME,
    HeartbeatState,
    HeartbeatWriter,
    SpecStatus,
    heartbeat_path,
    metrics_path,
    read_heartbeat,
    render_status,
)
from .registry import (
    Counter,
    Gauge,
    HistogramMetric,
    MetricsRegistry,
    parse_prometheus_text,
    render_prometheus,
)
from .spans import (
    SpanProfiler,
    SpanStats,
    current_profiler,
    set_profiler,
    span,
)

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "HistogramMetric",
    "render_prometheus",
    "parse_prometheus_text",
    "SpanProfiler",
    "SpanStats",
    "current_profiler",
    "set_profiler",
    "span",
    "HeartbeatWriter",
    "HeartbeatState",
    "SpecStatus",
    "read_heartbeat",
    "render_status",
    "heartbeat_path",
    "metrics_path",
    "HEARTBEAT_FILENAME",
    "METRICS_FILENAME",
    "ensure_runner_metrics",
    "observe_batch",
    "observe_stats",
    "stats_rows",
    "format_bytes",
]
