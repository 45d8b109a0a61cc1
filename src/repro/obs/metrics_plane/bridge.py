"""Folds a finished runner batch into registry metrics — one schema, one place.

Every runner-facing metric name, label set, and feeding rule lives
here, so the Prometheus exposition and the persisted ``metrics.json``
can never drift apart: they are both reads of the same
:class:`~repro.obs.metrics_plane.registry.MetricsRegistry` fed by the
same observe functions.

Everything is fed once per finished batch, from the batch's plan rows
(the :class:`RunReport` outcomes), so nothing is counted twice:

* scalar batch counters (:func:`observe_stats`) come from the runner's
  ``RunnerStats``, itself a reduction over the rows;
* per-tier cache lookups come from each row's ``lookup`` column, and
  per-status spec outcomes from its ``status``;
* per-execution signals — phase wall breakdowns, session wall
  histogram, fault firings — come from each executed row's
  ``SpecExecution``.

Everything is duck-typed on attribute names (``sessions_executed``,
``phase_seconds``, ``lookup``…) so this module never imports
:mod:`repro.runner` and the runner can import it without a cycle.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .registry import DEFAULT_SECONDS_BUCKETS, MetricsRegistry

__all__ = [
    "ensure_runner_metrics",
    "ensure_store_metrics",
    "observe_stats",
    "observe_batch",
    "observe_store",
    "stats_rows",
    "format_bytes",
]

#: Scalar ``RunnerStats`` fields and the counters they feed, in the
#: order the ``--stats`` table renders them.
_STATS_COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("sessions_executed", "repro_runner_sessions_executed_total",
     "Sessions simulated from scratch."),
    ("ticks_simulated", "repro_runner_ticks_simulated_total",
     "Simulation ticks executed across the batch."),
    ("memo_hits", "repro_runner_memo_hits_total",
     "Batch entries served from the in-memory memo."),
    ("cache_hits", "repro_runner_disk_cache_hits_total",
     "Batch entries served from the on-disk cache."),
    ("store_hits", "repro_runner_store_hits_total",
     "Batch entries served from a store-backed cache (store_dir)."),
    ("retries", "repro_runner_retries_total",
     "Execution attempts re-scheduled after a failure."),
    ("timeouts", "repro_runner_timeouts_total",
     "Execution attempts terminated for exceeding the wall budget."),
    ("unenforced_timeouts", "repro_runner_unenforced_timeouts_total",
     "Batched specs whose wall budget the vectorized path cannot enforce."),
    ("corrupt_cache_entries", "repro_runner_corrupt_cache_entries_total",
     "On-disk entries that failed checksum or parsing and were quarantined."),
    ("failed_specs", "repro_runner_failed_specs_total",
     "Specs that never produced a summary."),
    ("wall_seconds", "repro_runner_wall_seconds_total",
     "Wall-clock seconds spent inside runner batches."),
    ("trace_bytes", "repro_runner_trace_bytes_total",
     "Columnar trace bytes recorded by executed sessions."),
)

#: Experiment-store counter fields (``StoreCounters`` attributes) and
#: the metric families they feed.
_STORE_COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("ingests", "repro_store_ingests_total",
     "Cache writes indexed live through the store's on_store hook."),
    ("backfilled", "repro_store_backfilled_total",
     "Pre-existing blob entries indexed by lazy backfill (zero recomputes)."),
    ("queries", "repro_store_queries_total",
     "Index reads served (query/summaries)."),
    ("merged_rows", "repro_store_merged_rows_total",
     "Rows adopted from other stores by merge()."),
    ("gc_removed", "repro_store_gc_removed_total",
     "Files removed by store gc sweeps."),
)

#: How a row's ``lookup`` maps onto the cache-lookup counter's
#: ``(tier, outcome)`` labels.
_CACHE_TIERS: Dict[str, Tuple[str, str]] = {
    "memo_hit": ("memo", "hit"),
    "cache_hit": ("disk", "hit"),
    "miss": ("disk", "miss"),
    "corrupt": ("disk", "corrupt"),
    "alias": ("batch", "alias"),
}


def ensure_runner_metrics(registry: MetricsRegistry) -> None:
    """Declare the full runner metric schema on *registry* (idempotent).

    Registration is get-or-create, so calling this before every batch
    simply guarantees the exposition always carries the whole schema —
    zero-valued families included — rather than only what happened to
    fire.
    """
    for _, name, help_text in _STATS_COUNTERS:
        registry.counter(name, help_text)
    registry.counter(
        "repro_runner_cache_lookups_total",
        "Cache-tier lookups by tier (memo/disk/batch) and outcome.",
        labelnames=("tier", "outcome"),
    )
    registry.counter(
        "repro_runner_spec_outcomes_total",
        "Finished specs by report status (ok/retried/degraded/failed).",
        labelnames=("status",),
    )
    registry.counter(
        "repro_runner_pools_created_total",
        "Process pools created for execution waves.",
    )
    registry.counter(
        "repro_runner_waves_dispatched_total",
        "Execution waves dispatched to worker pools.",
    )
    registry.counter(
        "repro_runner_workers_terminated_total",
        "Worker processes terminated for exceeding the wall budget.",
    )
    registry.counter(
        "repro_fault_injections_total",
        "Injected fault firings across executed sessions, by fault kind.",
        labelnames=("fault",),
    )
    registry.gauge(
        "repro_runner_peak_recorder_bytes",
        "Largest single-spec trace-recorder footprint seen.",
    )
    registry.histogram(
        "repro_runner_phase_seconds",
        "Per-spec wall seconds by runner phase (compile/execute/...).",
        labelnames=("phase",),
        buckets=DEFAULT_SECONDS_BUCKETS,
    )
    registry.histogram(
        "repro_runner_session_wall_seconds",
        "End-to-end wall seconds per executed spec.",
        buckets=DEFAULT_SECONDS_BUCKETS,
    )


def ensure_store_metrics(registry: MetricsRegistry) -> None:
    """Declare the experiment-store metric families (idempotent).

    Separate from :func:`ensure_runner_metrics` so a runner without a
    store keeps its exposition unchanged; a store-backed runner calls
    both, and the store families appear zero-valued until something
    happens.
    """
    for _, name, help_text in _STORE_COUNTERS:
        registry.counter(name, help_text)


def observe_store(registry: MetricsRegistry, counters, seen: Dict[str, int]) -> None:
    """Fold an experiment store's cumulative counters into *registry*.

    Store counters (duck-typed on ``StoreCounters`` attribute names)
    are monotonic over the store object's lifetime, while registry
    counters accumulate by increments — so *seen* carries the
    last-observed values between calls and only the delta is added.
    Call after each batch (the runner does); safe to call repeatedly.
    """
    ensure_store_metrics(registry)
    for attr, name, _ in _STORE_COUNTERS:
        now = int(getattr(counters, attr, 0))
        delta = now - seen.get(attr, 0)
        if delta > 0:
            registry.counter(name).inc(delta)
        seen[attr] = now


def observe_stats(registry: MetricsRegistry, stats) -> None:
    """Fold one batch's ``RunnerStats`` scalars into *registry*.

    Call exactly once per finished batch (the runner does); counters
    accumulate across batches the way ``RunnerStats.absorb`` does.
    """
    ensure_runner_metrics(registry)
    for attr, name, _ in _STATS_COUNTERS:
        amount = getattr(stats, attr, 0)
        if amount:
            registry.counter(name).inc(amount)
    peak = getattr(stats, "peak_recorder_bytes", 0)
    if peak:
        registry.gauge("repro_runner_peak_recorder_bytes").set_max(peak)


def observe_batch(registry: MetricsRegistry, stats, report, executions: Iterable) -> None:
    """Fold a whole finished batch into *registry*.

    Combines :func:`observe_stats` with what exists per row: the
    cache-tier lookup and status of each of the :class:`RunReport`'s
    outcomes, and the phase and session wall histograms and fault
    firings of each executed row's ``SpecExecution`` (*executions*, in
    the order they completed).
    """
    observe_stats(registry, stats)
    lookups = registry.get("repro_runner_cache_lookups_total")
    outcomes = registry.get("repro_runner_spec_outcomes_total")
    for row in report.outcomes:
        outcomes.inc(status=row.status)
        if row.lookup:
            tier, outcome = _CACHE_TIERS[row.lookup]
            lookups.inc(tier=tier, outcome=outcome)
    phases = registry.get("repro_runner_phase_seconds")
    walls = registry.get("repro_runner_session_wall_seconds")
    faults = registry.get("repro_fault_injections_total")
    for execution in executions:
        for phase, seconds in sorted(execution.phase_seconds.items()):
            phases.observe(seconds, phase=phase)
        walls.observe(execution.wall_seconds)
        for fault, firings in sorted(execution.fault_firings.items()):
            faults.inc(firings, fault=fault)


def format_bytes(count: int) -> str:
    """Human-readable byte count for the stats table (binary units)."""
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024.0 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024.0
    return f"{int(size)} B"


def stats_rows(stats) -> List[Tuple[str, str]]:
    """The stable ``--stats`` table rows, read from ``RunnerStats`` fields.

    Every row is always present — robustness counters render ``0``
    instead of disappearing on clean runs.  The fields are the same
    numbers :func:`observe_stats` feeds the exposition.
    """
    ticks, wall = stats.ticks_simulated, stats.wall_seconds
    return [
        ("sessions executed", str(stats.sessions_executed)),
        ("ticks simulated", str(ticks)),
        ("memo hits", str(stats.memo_hits)),
        ("disk cache hits", str(stats.cache_hits)),
        ("store hits", str(stats.store_hits)),
        ("retries", str(stats.retries)),
        ("timeouts", str(stats.timeouts)),
        ("unenforced timeouts", str(stats.unenforced_timeouts)),
        ("corrupt cache entries", str(stats.corrupt_cache_entries)),
        ("failed specs", str(stats.failed_specs)),
        ("wall time (s)", f"{wall:.2f}"),
        ("ticks/second", f"{ticks / wall:.0f}" if wall > 0 else "0"),
        ("trace bytes recorded", format_bytes(stats.trace_bytes)),
        ("peak recorder memory", format_bytes(stats.peak_recorder_bytes)),
    ]
