"""The shared batch execution service for simulation sessions.

Every figure of the paper reduces to a matrix of (platform, policy,
workload, seed) sessions.  :class:`SessionRunner` is the one place that
matrix gets executed: serially or over a :class:`ProcessPoolExecutor`
(``jobs=N``), with results returned in spec order regardless of worker
scheduling, an in-memory memo, and an optional content-addressed on-disk
cache.  Workers reduce each finished session to a
:class:`~repro.metrics.summary.SessionSummary` before crossing the
process boundary, so fan-out cost is per-row, not per-trace.

Sessions are deterministic given (config, seed), so serial and parallel
execution of the same batch produce bit-identical summaries — asserted
by the regression tests.

The runner is also where execution failures are absorbed instead of
propagated blindly (the contract in ``docs/FAILURE_MODES.md``):

* a crashed or hung worker fails only its in-flight specs, which are
  retried with exponential backoff up to ``retries`` times in a fresh
  pool;
* ``timeout_seconds`` bounds each spec's wall-clock execution; hung
  workers are terminated, and the spec retries like any other failure;
* a corrupt on-disk cache entry (bad checksum, truncated JSON) is
  quarantined and the spec recomputed — a *degraded* success;
* :meth:`SessionRunner.run_report` returns a
  :class:`~repro.runner.report.RunReport` classifying every spec as
  ok / retried / degraded / failed, while :meth:`SessionRunner.run`
  keeps the raising contract (any failed spec re-raises).

Only :class:`Exception` is ever absorbed — ``KeyboardInterrupt`` and
other ``BaseException`` always propagate immediately.

Drivers that do not care about runner placement use the module-level
default runner (:func:`default_runner`), which the CLI configures from
``--jobs`` / ``--cache-dir`` and the ``REPRO_JOBS`` / ``REPRO_CACHE_DIR``
environment variables.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Union

from .cache import ResultCache
from .report import STATUS_ORDER, RunReport, SpecOutcome
from .spec import SessionSpec
from ..errors import RunnerError
from ..kernel.engine import Session
from ..metrics.summary import SessionSummary, summarize
from ..obs.events import (
    RunnerCacheEvent,
    RunnerRetryEvent,
    RunnerSessionEvent,
    TraceEvent,
)
from ..obs.metrics_plane.bridge import (
    ensure_runner_metrics,
    ensure_store_metrics,
    observe_batch,
    observe_store,
)
from ..obs.metrics_plane.heartbeat import (
    HeartbeatWriter,
    heartbeat_path,
    metrics_path,
)
from ..obs.metrics_plane.registry import MetricsRegistry
from ..obs.metrics_plane.spans import SpanProfiler, set_profiler
from ..soc.platform import Platform

__all__ = [
    "RunnerStats",
    "SessionRunner",
    "SpecExecution",
    "execute_spec",
    "execute_spec_full",
    "default_runner",
    "set_default_runner",
    "configure_default_runner",
]


@dataclass
class SpecExecution:
    """Everything one executed spec sends back across the process boundary.

    Attributes:
        summary: The reduced session result (always present).
        events: The traced event stream — empty unless the spec carried a
            :class:`~repro.runner.spec.TraceRequest`.
        event_counts: Published events per ``"category:name"``, from the
            bus counters (these include events a ring buffer evicted).
        wall_seconds: Wall-clock execution time inside the worker.
        ticks: Simulation ticks the session ran.
        worker_pid: The executing process, for worker attribution.
        trace_bytes: Bytes of columnar trace data the session recorded
            (trimmed to recorded ticks).
        peak_recorder_bytes: Bytes the recorder's preallocated column
            blocks occupied — the spec's peak trace-memory footprint.
        columns: The session's columnar trace as a compressed ``.npz``
            blob, only when the spec set ``keep_columns`` (the runner
            persists it into the version-3 cache entry).
        phase_seconds: Wall seconds per execution phase (``compile``,
            ``execute``, ``summarize``…) from the worker's span
            profiler — the driver folds these into its own profiler and
            the ``repro_runner_phase_seconds`` metric histogram.
        fault_firings: Injected fault windows that fired, per fault
            kind (empty without a fault plan).
    """

    summary: SessionSummary
    events: List[TraceEvent] = field(default_factory=list)
    event_counts: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    ticks: int = 0
    worker_pid: int = 0
    trace_bytes: int = 0
    peak_recorder_bytes: int = 0
    columns: Optional[bytes] = None
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    fault_firings: Dict[str, int] = field(default_factory=dict)


def execute_spec_full(spec: SessionSpec) -> SpecExecution:
    """Run one session described by *spec*, with trace and timing.

    Module-level so a process pool can pickle it; also the single
    in-process execution path, so serial and parallel runs share code.

    Installs a fresh ambient span profiler around the execution, so the
    phase breakdown (``compile`` / ``execute`` / ``summarize`` /
    ``cache.serialize``) ships back on the result for the driver to
    aggregate — a handful of ``perf_counter`` calls per spec, cheap
    enough to leave always on.
    """
    began = time.perf_counter()
    profiler = SpanProfiler(enabled=True)
    previous = set_profiler(profiler)
    try:
        with profiler.span("compile"):
            bus = spec.trace.build_bus() if spec.trace is not None else None
            platform_spec = spec.resolve_platform_spec()
            session = Session(
                Platform.from_spec(platform_spec),
                spec.build_workload(),
                spec.build_policy(),
                spec.config,
                pin_uncore_max=spec.pin_uncore_max,
                trace=bus,
                faults=spec.faults,
            )
        result = session.run()  # records the ambient "execute" span
        with profiler.span("summarize"):
            summary = summarize(result)
        buffer = result.trace.buffer
        columns = None
        if spec.keep_columns:
            with profiler.span("cache.serialize"):
                columns = buffer.to_npz_bytes()
    finally:
        set_profiler(previous)
    return SpecExecution(
        summary=summary,
        events=bus.events if bus is not None else [],
        event_counts=bus.counts if bus is not None else {},
        wall_seconds=time.perf_counter() - began,
        ticks=session.ticks_run,
        worker_pid=os.getpid(),
        trace_bytes=buffer.nbytes,
        peak_recorder_bytes=buffer.capacity_bytes,
        columns=columns,
        phase_seconds=profiler.totals(),
        fault_firings=session.fault_firings,
    )


def execute_spec(spec: SessionSpec) -> SessionSummary:
    """Run one session described by *spec* and reduce it to a summary."""
    return execute_spec_full(spec).summary


@dataclass
class RunnerStats:
    """What one :meth:`SessionRunner.run` call actually did.

    Attributes:
        sessions_executed: Sessions simulated from scratch.
        ticks_simulated: Total simulation ticks those sessions ran —
            zero on a fully warm cache.
        memo_hits: Batch entries served from the in-memory memo.
        cache_hits: Batch entries served from the on-disk cache.
        retries: Execution attempts re-scheduled after a failure.
        timeouts: Execution attempts terminated for exceeding
            ``timeout_seconds``.
        store_hits: Batch entries served from a store-backed cache
            (``store_dir``); counted alongside ``cache_hits``, so the
            ``--stats`` table shows how much of a batch the experiment
            store answered without simulating.
        unenforced_timeouts: Batched or inline specs that carried a
            ``timeout_seconds`` budget nothing can enforce (both run in
            the driver process).  Each such spec also gets a per-spec
            ``detail`` note — the documented gap, surfaced instead of
            silent.
        corrupt_cache_entries: On-disk entries that failed checksum or
            parsing and were quarantined.
        failed_specs: Specs that never produced a summary.
        wall_seconds: Wall-clock duration of the whole :meth:`run` call.
        trace_bytes: Total columnar trace data recorded by executed
            sessions (zero on a fully warm cache).
        peak_recorder_bytes: Largest single-spec recorder memory
            footprint seen (preallocated column blocks, not just rows
            in use).
    """

    sessions_executed: int = 0
    ticks_simulated: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    store_hits: int = 0
    unenforced_timeouts: int = 0
    retries: int = 0
    timeouts: int = 0
    corrupt_cache_entries: int = 0
    failed_specs: int = 0
    wall_seconds: float = 0.0
    trace_bytes: int = 0
    peak_recorder_bytes: int = 0

    @property
    def total(self) -> int:
        """Specs that produced a summary, whichever path served them."""
        return self.sessions_executed + self.memo_hits + self.cache_hits

    @property
    def ticks_per_second(self) -> float:
        """Batch simulation throughput (executed ticks over wall time)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.ticks_simulated / self.wall_seconds

    def absorb(self, other: "RunnerStats") -> None:
        """Accumulate *other*'s counters into this instance."""
        self.sessions_executed += other.sessions_executed
        self.ticks_simulated += other.ticks_simulated
        self.memo_hits += other.memo_hits
        self.cache_hits += other.cache_hits
        self.store_hits += other.store_hits
        self.unenforced_timeouts += other.unenforced_timeouts
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.corrupt_cache_entries += other.corrupt_cache_entries
        self.failed_specs += other.failed_specs
        self.wall_seconds += other.wall_seconds
        self.trace_bytes += other.trace_bytes
        self.peak_recorder_bytes = max(
            self.peak_recorder_bytes, other.peak_recorder_bytes
        )


class _SpecTimeout(RunnerError):
    """One spec exceeded the runner's wall-clock budget (internal marker)."""


@dataclass
class _Batch:
    """One :meth:`SessionRunner.run_report` call in flight.

    The report's outcomes are the plan rows, one per spec.  ``origins``
    maps a cache key to the row its duplicates alias; ``executions``
    holds each executed row's result in settle order.
    """

    specs: Sequence[SessionSpec]
    report: RunReport
    telemetry: List[TraceEvent]
    heartbeat: Optional[HeartbeatWriter] = None
    began: float = field(default_factory=time.perf_counter)
    origins: Dict[str, int] = field(default_factory=dict)
    executions: Dict[int, SpecExecution] = field(default_factory=dict)

    @property
    def rows(self) -> List[SpecOutcome]:
        """The plan rows, in spec order."""
        return self.report.outcomes

    def tell(self, event_cls, **fields) -> None:
        """Append one runner-telemetry event (wall-clock timestamped)."""
        ts_us = int((time.perf_counter() - self.began) * 1_000_000)
        self.telemetry.append(event_cls(ts_us=ts_us, **fields))

    def record_lookup(self, row: SpecOutcome, lookup: str) -> None:
        """Record a cache-tier lookup on *row* and as a telemetry event."""
        row.lookup = lookup
        self.tell(
            RunnerCacheEvent,
            outcome=lookup,
            key=row.key,
            label=self.specs[row.index].label,
        )

    def serve(self, row: SpecOutcome, route: str, lookup: str, summary) -> None:
        """Answer *row* without executing it (memo, cache or alias)."""
        row.route = route
        self.report.summaries[row.index] = summary
        self.record_lookup(row, lookup)
        self.beat(row, "done", source=route)

    def beat(self, row: SpecOutcome, status: str, **fields) -> None:
        """Write one heartbeat spec line (no-op without a status_dir)."""
        if self.heartbeat is not None:
            self.heartbeat.spec(row.index, row.label, status, **fields)

    def progress(self) -> None:
        """Write one heartbeat progress line (no-op without a status_dir)."""
        if self.heartbeat is not None:
            self.heartbeat.progress()

    def start(self, rows: List[SpecOutcome]) -> None:
        """Heartbeat: mark *rows* running their next attempt."""
        for row in rows:
            self.beat(row, "running", attempts=row.attempts + 1)
        self.progress()

    def stats(self, store_backed: bool, timeout_set: bool) -> RunnerStats:
        """This batch's :class:`RunnerStats`, reduced from rows and executions."""
        rows, executions = self.rows, list(self.executions.values())
        cache_hits = sum(row.route == "cache" for row in rows)
        return RunnerStats(
            sessions_executed=len(executions),
            ticks_simulated=sum(
                self.specs[index].config.total_ticks for index in self.executions
            ),
            memo_hits=sum(row.source in ("memo", "alias") for row in rows),
            cache_hits=cache_hits,
            store_hits=cache_hits if store_backed else 0,
            unenforced_timeouts=sum(row.route in ("batch", "inline") for row in rows)
            if timeout_set
            else 0,
            retries=sum(max(row.attempts - 1, 0) for row in rows),
            timeouts=sum(row.timeouts for row in rows),
            corrupt_cache_entries=sum(row.lookup == "corrupt" for row in rows),
            failed_specs=sum(row.status == "failed" for row in rows),
            wall_seconds=time.perf_counter() - self.began,
            trace_bytes=sum(execution.trace_bytes for execution in executions),
            peak_recorder_bytes=max(
                (execution.peak_recorder_bytes for execution in executions),
                default=0,
            ),
        )


@dataclass
class SessionRunner:
    """Executes batches of :class:`SessionSpec`, cached and parallel.

    Attributes:
        jobs: Worker processes; 1 means in-process serial execution.
        cache_dir: Root of the on-disk result cache; None disables it.
        store_dir: Root of a store-backed cache: the same blob cache,
            wrapped in a queryable
            :class:`~repro.store.ExperimentStore` whose sqlite index
            ingests every write and serves ``repro store query`` /
            the analysis constructors afterwards.  Mutually exclusive
            with ``cache_dir`` (the store *is* the cache).  Hits served
            from a store-backed cache are additionally counted as
            ``store_hits`` in the stats.
        batch: Route compatible pending specs through the vectorized
            :class:`~repro.kernel.batch_engine.BatchSession` (same
            platform and timing, untraced, unfaulted, vectorizable
            policy/workload shapes) in groups of two or more.  Summaries
            are bit-identical to scalar execution and still land at
            their spec's index; everything a batch cannot take — and any
            batch that errors — transparently falls back to the normal
            pool/inline path.  Batched specs run in the driver process,
            so ``timeout_seconds`` is not enforced for them — each such
            spec is flagged with a ``detail`` note and counted in
            ``RunnerStats.unenforced_timeouts`` rather than silently
            losing its budget.
        retries: How many times a failed execution attempt (worker
            crash, exception, timeout) is re-scheduled before the spec
            is reported failed.  0 (the default) keeps the historical
            fail-fast behaviour.
        retry_backoff_seconds: Base delay between retry rounds; round
            *n* waits ``retry_backoff_seconds * 2**(n-1)``.
        timeout_seconds: Per-spec wall-clock budget.  Enforced by
            running portable specs in worker processes (even with
            ``jobs=1``) and terminating workers that exceed it;
            non-portable specs run in-process and cannot be preempted,
            so, like batched specs, each gets a ``timeout not enforced``
            ``detail`` note and counts in
            ``RunnerStats.unenforced_timeouts``.  ``None`` (the default)
            disables the budget.
        last_stats: Accounting of the most recent :meth:`run` call.
        total_stats: The same counters accumulated over every
            :meth:`run` call on this runner — what ``--stats`` prints
            after a multi-batch command.
        last_report: The :class:`~repro.runner.report.RunReport` of the
            most recent batch (also returned by :meth:`run_report`).
        last_events: Traced event streams of the most recent batch,
            keyed by batch index (only traced specs appear).  Workers
            ship their event batches back with the summary, so traced
            runs work identically under ``jobs > 1``.
        last_event_counts: Bus counters per traced batch index (these
            include events a ring buffer evicted).
        telemetry: Runner self-observation events for the most recent
            batch (:class:`RunnerSessionEvent` per execution,
            :class:`RunnerCacheEvent` per batch entry,
            :class:`RunnerRetryEvent` per re-scheduled attempt), stamped
            with wall-clock microseconds since the batch started.
        metrics: The ops-plane metrics registry this runner feeds
            (counters, gauges, and histograms per the bridge schema).
            ``None`` — the default — keeps the pre-ops-plane fast path:
            no registry work anywhere in the batch.
        status_dir: Directory for the live heartbeat file and the
            ``metrics.json`` snapshot (``repro status`` / ``repro
            metrics`` read them).  Setting it auto-creates a
            :attr:`metrics` registry when none was passed.  ``None``
            (the default) disables all status output.
        span_profiler: The driver-side span aggregate: per-spec phase
            breakdowns shipped back by workers are merged here (one
            observation per phase per executed spec), plus the driver's
            own ``cache.read`` / ``cache.write`` spans.  Always on —
            its cost is a few ``perf_counter`` calls per spec.
    """

    jobs: int = 1
    cache_dir: Optional[Union[str, os.PathLike]] = None
    store_dir: Optional[Union[str, os.PathLike]] = None
    batch: bool = False
    retries: int = 0
    retry_backoff_seconds: float = 0.05
    timeout_seconds: Optional[float] = None
    metrics: Optional[MetricsRegistry] = None
    status_dir: Optional[Union[str, os.PathLike]] = None
    last_stats: RunnerStats = field(default_factory=RunnerStats)
    total_stats: RunnerStats = field(default_factory=RunnerStats)
    last_report: Optional[RunReport] = None
    last_events: Dict[int, List[TraceEvent]] = field(default_factory=dict)
    last_event_counts: Dict[int, Dict[str, int]] = field(default_factory=dict)
    telemetry: List[TraceEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if int(self.jobs) < 1:
            raise RunnerError(f"jobs must be >= 1, got {self.jobs}")
        self.jobs = int(self.jobs)
        if int(self.retries) < 0:
            raise RunnerError(f"retries must be >= 0, got {self.retries}")
        self.retries = int(self.retries)
        if self.retry_backoff_seconds < 0:
            raise RunnerError(
                f"retry_backoff_seconds must be >= 0, got {self.retry_backoff_seconds}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise RunnerError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )
        if self.cache_dir and os.path.exists(self.cache_dir) and not os.path.isdir(
            self.cache_dir
        ):
            raise RunnerError(
                f"cache_dir {self.cache_dir!r} exists and is not a directory"
            )
        if self.status_dir is not None:
            if os.path.exists(self.status_dir) and not os.path.isdir(self.status_dir):
                raise RunnerError(
                    f"status_dir {self.status_dir!r} exists and is not a directory"
                )
            os.makedirs(self.status_dir, exist_ok=True)
            if self.metrics is None:
                self.metrics = MetricsRegistry()
        if self.metrics is not None:
            # Declare the whole schema up front so the exposition always
            # carries every family, zero-valued ones included.
            ensure_runner_metrics(self.metrics)
        self.store = None
        if self.store_dir is not None:
            if self.cache_dir:
                raise RunnerError(
                    "store_dir and cache_dir are mutually exclusive "
                    "(the store wraps the cache; pass one root)"
                )
            # Imported lazily: the store sits above the runner package,
            # so a top-level import would be a cycle.
            from ..store import ExperimentStore

            self.store = ExperimentStore(self.store_dir)
            self._cache = self.store.cache
            if self.metrics is not None:
                ensure_store_metrics(self.metrics)
        else:
            self._cache = ResultCache(self.cache_dir) if self.cache_dir else None
        self._memo: Dict[str, SessionSummary] = {}
        self._store_seen: Dict[str, int] = {}
        self.span_profiler = SpanProfiler(enabled=True)

    # -- execution -------------------------------------------------------

    def run_one(self, spec: SessionSpec) -> SessionSummary:
        """Run a single spec (through the same cache/memo path)."""
        return self.run([spec])[0]

    def run(self, specs: Sequence[SessionSpec]) -> List[SessionSummary]:
        """Execute a batch, returning summaries in spec order.

        The raising façade over :meth:`run_report`: when any spec is
        still failed after the retry budget, the first failure's
        exception is re-raised (wrapped in a
        :class:`~repro.errors.RunnerError` when several specs failed).
        Use :meth:`run_report` directly to keep partial results.
        """
        report = self.run_report(specs)
        report.raise_on_failure()
        return list(report.summaries)  # type: ignore[arg-type]

    def run_report(self, specs: Sequence[SessionSpec]) -> RunReport:
        """Execute a batch and classify what happened to every spec.

        Portable specs are looked up in the memo and the on-disk cache
        first; the remainder execute in worker processes when ``jobs > 1``
        (non-portable specs always run in-process).  Results land at the
        index of their spec, so ordering is deterministic no matter how
        workers are scheduled.

        Traced specs (``spec.trace`` set) always execute — a cached
        summary has no event stream — but their summaries are still
        stored, warming the cache for later untraced runs.

        Failures are absorbed per spec: crashed/hung/raising executions
        retry up to ``retries`` times, corrupt cache entries are
        quarantined and recomputed, and the returned
        :class:`~repro.runner.report.RunReport` carries a summary (or
        the error) for every spec.  Interrupts always propagate.

        Each spec becomes one row (:class:`SpecOutcome`), and four steps
        fill the rows in: classify (serving memo and cache hits), the
        vectorized batch path, execution with retries, and duplicates.
        ``last_stats`` and the metrics feed are reductions over the rows.
        """
        self.last_events = {}
        self.last_event_counts = {}
        self.telemetry = []
        report = RunReport()
        batch = _Batch(specs, report, self.telemetry)
        for index, spec in enumerate(specs):
            if not isinstance(spec, SessionSpec):
                raise RunnerError(
                    f"batch entry {index} is {type(spec).__name__}, not SessionSpec"
                )
            report.outcomes.append(SpecOutcome(index, report_label(spec, index)))
            report.summaries.append(None)
        if self.status_dir is not None:
            batch.heartbeat = HeartbeatWriter(
                heartbeat_path(self.status_dir),
                total=len(specs),
                jobs=self.jobs,
                labels=[row.label for row in report.outcomes],
            )

        self._classify(batch)
        if self.batch:
            self._run_batched(batch)
        self._execute(batch)
        self._resolve_aliases(batch)

        stats = batch.stats(self.store is not None, self.timeout_seconds is not None)
        self.last_stats = stats
        self.total_stats.absorb(stats)
        self.last_report = report
        if batch.heartbeat is not None:
            batch.heartbeat.finish(
                {status: len(report.by_status(status)) for status in STATUS_ORDER},
                stats.wall_seconds,
            )
        if self.metrics is not None:
            observe_batch(self.metrics, stats, report, batch.executions.values())
            if self.store is not None:
                observe_store(self.metrics, self.store.counters, self._store_seen)
            if self.status_dir is not None:
                self._dump_metrics()
        return report

    # -- the four steps over the rows ------------------------------------

    def _classify(self, batch: _Batch) -> None:
        """Route every row, serving memo and cache hits on the spot.

        Rows left to execute are routed ``pool`` when portable and keep
        the default ``inline`` route otherwise; a later duplicate of a
        portable spec is routed ``alias`` and resolved after execution.
        """
        for row, spec in zip(batch.rows, batch.specs):
            if not spec.is_portable:
                continue
            row.key = key = spec.cache_key()
            row.route = "pool"
            if spec.trace is not None:
                # Traced specs bypass memo/cache/alias: only a real
                # execution produces the event stream.
                continue
            if spec.keep_columns and (
                self._cache is None or not self._cache.has_columns(key)
            ):
                # A column-keeping spec is only served from cache when the
                # entry already carries its blob; otherwise it re-executes
                # (and the execution stores summary + columns together).
                batch.origins.setdefault(key, row.index)
                continue
            if key in batch.origins:
                # Duplicate spec within the batch: simulate once, copy after.
                row.route = "alias"
                continue
            batch.origins[key] = row.index
            if key in self._memo:
                batch.serve(row, "memo", "memo_hit", self._memo[key])
                continue
            if self._cache is not None:
                with self.span_profiler.span("cache.read"):
                    lookup = self._cache.lookup(key)
                if lookup.hit:
                    self._memo[key] = lookup.summary
                    batch.serve(row, "cache", "cache_hit", lookup.summary)
                    continue
                if lookup.corrupt:
                    # Quarantine-and-recompute: the entry is preserved
                    # for post-mortem, the spec re-executes from scratch.
                    self._cache.quarantine(key)
                    row.escalate("degraded")
                    row.detail = f"corrupt cache entry quarantined ({lookup.detail})"
                    batch.record_lookup(row, "corrupt")
                    continue
            batch.record_lookup(row, "miss")

    def _run_batched(self, batch: _Batch) -> None:
        """Turn ``pool`` rows into ``batch`` rows through vectorized BatchSessions.

        Pool rows are grouped by
        :func:`~repro.kernel.batch_engine.batch_compatibility_key`;
        every group of two or more whose members all vectorize runs as
        one :class:`~repro.kernel.batch_engine.BatchSession` in the
        driver process.  Results are written at each spec's own batch
        index (grouping never reorders the report) and settled like any
        other execution.  Rows a batch cannot take — unbatchable shapes,
        scalar-fallback members, groups that error — stay ``pool`` rows;
        members of a group that errored carry the error in ``detail``.
        """
        from ..kernel.batch_engine import BatchSession, batch_compatibility_key

        groups: Dict[tuple, List[SpecOutcome]] = {}
        for row in batch.rows:
            if row.route == "pool":
                group_key = batch_compatibility_key(batch.specs[row.index])
                if group_key is not None:
                    groups.setdefault(group_key, []).append(row)

        for members in groups.values():
            if len(members) < 2:
                continue
            try:
                session = BatchSession([batch.specs[row.index] for row in members])
                if session.fallback_count:
                    # Leave scalar-fallback members to the worker pool,
                    # which can at least run them in parallel.
                    dropped = set(session.fallback_positions)
                    members = [
                        row
                        for position, row in enumerate(members)
                        if position not in dropped
                    ]
                    if len(members) < 2:
                        continue
                    session = BatchSession([batch.specs[row.index] for row in members])
                    if session.fallback_count:
                        continue
                batch.start(members)
                started = time.perf_counter()
                summaries = session.run()
            except Exception as error:
                # The members stay pool rows and re-execute through the
                # scalar path; each row keeps the reason.
                note = f"batch path failed ({type(error).__name__}: {error}); ran scalar"
                for row in members:
                    row.detail = note
                continue
            share = (time.perf_counter() - started) / len(members)
            for row, summary in zip(members, summaries):
                row.route = "batch"
                row.detail = f"batched({len(members)})"
                execution = SpecExecution(
                    summary=summary,
                    wall_seconds=share,
                    ticks=batch.specs[row.index].config.total_ticks,
                    worker_pid=os.getpid(),
                )
                self._settle(batch, row, execution)
            batch.progress()

    def _execute(self, batch: _Batch) -> None:
        """Run the ``pool`` and ``inline`` rows, retrying failed ones.

        Pool rows only use worker processes when that buys something
        (several rows and ``jobs > 1``, or a timeout to enforce);
        otherwise they run inline.  Each round runs the pool rows in
        waves of at most ``jobs`` and then each inline row on its own;
        rows still failing after ``retries`` extra rounds are failed.
        """
        rows = [row for row in batch.rows if row.route in ("pool", "inline")]
        pooled = [row for row in rows if row.route == "pool"]
        if not (
            (self.jobs > 1 and len(pooled) > 1)
            or (self.timeout_seconds is not None and pooled)
        ):
            for row in pooled:
                row.route = "inline"
        if self.timeout_seconds is not None:
            for row in batch.rows:
                if row.route in ("batch", "inline"):
                    # The documented gap, surfaced: batched groups and
                    # inline specs run in the driver process, where a
                    # wall budget cannot preempt anything.
                    note = "timeout not enforced"
                    row.detail = f"{row.detail}; {note}" if row.detail else note

        for round_number in range(self.retries + 1):
            if not rows:
                return
            if round_number:
                delay = self.retry_backoff_seconds * (2 ** (round_number - 1))
                if delay > 0:
                    time.sleep(delay)
            pooled = [row for row in rows if row.route == "pool"]
            size = max(1, min(self.jobs, len(pooled)))
            waves = [pooled[start : start + size] for start in range(0, len(pooled), size)]
            waves += [[row] for row in rows if row.route == "inline"]
            for wave in waves:
                batch.start(wave)
                attempt = self._run_wave if wave[0].route == "pool" else self._run_inline
                results = attempt(batch.specs, [row.index for row in wave])
                for row in wave:
                    self._settle(batch, row, results[row.index])
                batch.progress()
            rows = [row for row in rows if batch.report.summaries[row.index] is None]
            if round_number < self.retries:
                for row in rows:
                    batch.tell(
                        RunnerRetryEvent,
                        label=row.label,
                        attempt=row.attempts,
                        error=row.error,
                    )
                    # Back in the queue for the next round; the error
                    # text rides along so the live view shows why.
                    batch.beat(row, "queued", attempts=row.attempts, error=row.error)
        for row in rows:
            row.escalate("failed")

    def _settle(
        self, batch: _Batch, row: SpecOutcome, result: Union[SpecExecution, Exception]
    ) -> None:
        """Record one execution attempt of *row*: its summary or its error.

        A summary is memoized and written to the cache under the row's
        key; an error is kept in ``report.errors`` until a later attempt
        succeeds.
        """
        row.attempts += 1
        index, spec = row.index, batch.specs[row.index]
        if not isinstance(result, SpecExecution):
            row.error = str(result) or type(result).__name__
            row.error_type = type(result).__name__
            row.timeouts += isinstance(result, _SpecTimeout)
            batch.report.errors[index] = result
            batch.beat(row, "error", attempts=row.attempts, error=row.error)
            return
        batch.report.summaries[index] = result.summary
        batch.report.errors.pop(index, None)
        # The column blob is persisted below; the reduction at batch end
        # must not hold every spec's blob until then.
        batch.executions[index] = replace(result, columns=None)
        if row.attempts > 1:
            row.escalate("retried")
        batch.beat(
            row,
            "done",
            attempts=row.attempts,
            source="batch" if row.route == "batch" else "executed",
            wall_seconds=result.wall_seconds,
        )
        batch.tell(
            RunnerSessionEvent,
            label=row.label,
            wall_seconds=result.wall_seconds,
            ticks=result.ticks,
            worker_pid=result.worker_pid,
        )
        self.span_profiler.merge(result.phase_seconds)
        if spec.trace is not None:
            self.last_events[index] = result.events
            self.last_event_counts[index] = result.event_counts
        if row.key is None:
            return
        self._memo[row.key] = result.summary
        if self._cache is not None:
            with self.span_profiler.span("cache.write"):
                self._cache.store(
                    row.key,
                    result.summary,
                    spec.cache_payload(),
                    columns=result.columns,
                )

    @staticmethod
    def _resolve_aliases(batch: _Batch) -> None:
        """Copy each duplicate's summary (or failure) from its origin row."""
        for row in batch.rows:
            if row.route != "alias":
                continue
            origin = batch.rows[batch.origins[row.key]]
            summary = batch.report.summaries[origin.index]
            if summary is not None:
                batch.serve(row, "alias", "alias", summary)
                continue
            # The spec this one aliases never produced a summary.
            row.escalate("failed")
            row.error, row.error_type = origin.error, origin.error_type
            batch.report.errors[row.index] = batch.report.errors[origin.index]
            batch.beat(row, "error", error=row.error)

    # -- attempt machinery ----------------------------------------------

    @staticmethod
    def _run_inline(
        specs: Sequence[SessionSpec], wave: List[int]
    ) -> Dict[int, Union[SpecExecution, Exception]]:
        """Run *wave* in this process, one attempt each; exceptions become values.

        Only :class:`Exception` is absorbed — ``KeyboardInterrupt`` and
        friends propagate to the caller untouched.
        """
        results: Dict[int, Union[SpecExecution, Exception]] = {}
        for index in wave:
            try:
                results[index] = execute_spec_full(specs[index])
            except Exception as error:
                results[index] = error
        return results

    def _run_wave(
        self, specs: Sequence[SessionSpec], wave: List[int]
    ) -> Dict[int, Union[SpecExecution, Exception]]:
        """Run one wave in a fresh pool, enforcing the wall-clock budget.

        A wave holds at most ``jobs`` specs, so every spec in it starts
        immediately — which is what makes ``timeout_seconds`` a genuine
        *per-spec* budget (measured from its wave's start) instead of a
        whole-batch one.  A fresh pool per wave keeps failure domains
        small: a worker crash breaks only this wave's pool (every
        in-flight future of a broken pool fails — that blast radius is
        part of the documented contract), and terminated hung workers
        cannot poison later waves.
        """
        timeout = self.timeout_seconds
        outcomes: Dict[int, Union[SpecExecution, Exception]] = {}
        pool = ProcessPoolExecutor(max_workers=len(wave))
        if self.metrics is not None:
            self.metrics.get("repro_runner_pools_created_total").inc()
            self.metrics.get("repro_runner_waves_dispatched_total").inc()
        timed_out = False
        try:
            futures = {pool.submit(execute_spec_full, specs[i]): i for i in wave}
            deadline = None if timeout is None else time.monotonic() + float(timeout)
            not_done = set(futures)
            while not_done:
                wait_for = None
                if deadline is not None:
                    wait_for = deadline - time.monotonic()
                    if wait_for <= 0:
                        timed_out = True
                        break
                done, not_done = wait(not_done, timeout=wait_for)
                for future in done:
                    index = futures[future]
                    try:
                        outcomes[index] = future.result()
                    except Exception as error:
                        outcomes[index] = error
            if timed_out:
                # Hung workers hold the GIL-free sleep forever; reclaim
                # them by force, then classify the unfinished specs.
                terminated = self._terminate_workers(pool)
                if self.metrics is not None:
                    self.metrics.get("repro_runner_workers_terminated_total").inc(
                        terminated
                    )
                for future in not_done:
                    index = futures[future]
                    label = report_label(specs[index], index)
                    outcomes[index] = _SpecTimeout(
                        f"{label} timed out after {timeout:g}s (worker terminated)"
                    )
        finally:
            pool.shutdown(wait=not timed_out, cancel_futures=True)
        return outcomes

    @staticmethod
    def _terminate_workers(pool: ProcessPoolExecutor) -> int:
        """Force-kill a pool's worker processes (hung-worker reclaim).

        Returns how many workers were terminated, for the
        ``repro_runner_workers_terminated_total`` counter.
        """
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()
        return len(processes)

    # -- bookkeeping -----------------------------------------------------

    def _dump_metrics(self) -> None:
        """Atomically persist the registry snapshot as ``metrics.json``.

        Write-then-rename, so a concurrent ``repro metrics`` never reads
        a half-written snapshot.
        """
        assert self.metrics is not None and self.status_dir is not None
        target = metrics_path(self.status_dir)
        scratch = target.with_name(target.name + ".tmp")
        scratch.write_text(self.metrics.to_json(), encoding="utf-8")
        os.replace(scratch, target)

    def clear_memo(self) -> None:
        """Drop the in-memory memo (the on-disk cache is untouched)."""
        self._memo.clear()


def report_label(spec: SessionSpec, index: int) -> str:
    """The label a spec reports under (positional fallback included)."""
    return spec.label or f"spec[{index}]"


# -- the process-wide default runner ------------------------------------

_default: Optional[SessionRunner] = None


def default_runner() -> SessionRunner:
    """The shared runner drivers fall back to when not handed one.

    Created lazily from the ``REPRO_JOBS`` and ``REPRO_CACHE_DIR``
    environment variables (serial, no disk cache, memo on by default).
    """
    global _default
    if _default is None:
        _default = SessionRunner(
            jobs=int(os.environ.get("REPRO_JOBS", "1")),
            cache_dir=os.environ.get("REPRO_CACHE_DIR") or None,
        )
    return _default


def set_default_runner(runner: Optional[SessionRunner]) -> None:
    """Install (or with None, reset) the process-wide default runner."""
    global _default
    _default = runner


def configure_default_runner(
    jobs: int = 1,
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    retries: int = 0,
    timeout_seconds: Optional[float] = None,
    status_dir: Optional[Union[str, os.PathLike]] = None,
    store_dir: Optional[Union[str, os.PathLike]] = None,
) -> SessionRunner:
    """Build, install, and return a default runner with these settings."""
    runner = SessionRunner(
        jobs=jobs,
        cache_dir=cache_dir,
        store_dir=store_dir,
        retries=retries,
        timeout_seconds=timeout_seconds,
        status_dir=status_dir,
    )
    set_default_runner(runner)
    return runner
