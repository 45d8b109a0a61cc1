"""Per-layer numbers for the traced pass.

:func:`instrument` installs spans on a :class:`~perfbench.spans.SpanTracer`
around the calls each layer receives:

* every scalar :class:`~repro.kernel.engine.Session` the runner (or a
  batch's scalar fallback) builds is instrumented on construction --
  its workload, scheduler, procstat, platform power and thermal node,
  policy and kernel stack -- and its ``run`` is the per-tick root;
* ``TraceBuffer.append`` (what ``TraceRecorder.record_tick`` is bound
  to) and ``CpuidleStats.record`` are wrapped on their classes, because
  a session builds those objects in ``start()``;
* ``BatchSession`` is replaced by a subclass timing build and run;
* the store's ``summaries`` and the CLI's scenario
  ``load_scenarios`` / ``compile_scenario`` are wrapped where they live.

:func:`layer_metrics` reduces the spans plus the runners' own stats and
span profilers to the ``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable

from .plans import Plan, PassResult
from .spans import SpanTracer

__all__ = ["instrument", "layer_metrics"]

#: (metric, span) for each per-tick child of ``kernel.engine.tick``.
TICK_LAYERS = (
    ("workloads.demand_us", "workloads.demand"),
    ("workloads.record_us", "workloads.record"),
    ("kernel.scheduler.dispatch_us", "kernel.scheduler.dispatch"),
    ("kernel.procstat.record_us", "kernel.procstat.record"),
    ("kernel.cpuidle.record_us", "kernel.cpuidle.record"),
    ("soc.power_us", "soc.power"),
    ("soc.thermal_us", "soc.thermal"),
    ("kernel.trace.record_us", "kernel.trace.record"),
    ("kernel.apply_us", "kernel.apply"),
)

POLICIES = ("mobicore", "android-default", "energy-aware")

#: Runner phases the span profiler records per executed spec.
PHASES = ("compile", "execute", "summarize", "cache.read", "cache.write")


def reason_metric(policy: str, reason: str) -> str:
    """Metric name of one ``PolicyDecision.reason``: ``:`` -> ``.``, ``+`` -> ``p``.

    A decision without a reason counts as ``none``.
    """
    text = (reason or "none").replace(":", ".").replace("+", "p")
    return f"policies.{policy}.reason.{re.sub(r'[^A-Za-z0-9_.-]', '_', text)}"


def instrument(tracer: SpanTracer) -> None:
    """Install every span of the traced pass (undo with ``tracer.restore()``)."""
    import repro.kernel.batch_engine as batch_engine
    import repro.runner.runner as runner_module
    from repro import cli
    from repro.kernel.cpuidle import CpuidleStats
    from repro.kernel.engine import Session
    from repro.kernel.trace_buffer import TraceBuffer
    from repro.store import ExperimentStore

    counts = tracer.counts

    def count_ticks(result) -> None:
        counts["ticks"] += result.config.total_ticks

    def traced_session(*args, **kwargs) -> Session:
        session = Session(*args, **kwargs)
        policy = session.policy
        # "android-default(ondemand)" reports as its registry name.
        key = policy.name.split("(")[0]
        decide = f"policies.{key}.decide"

        def count_reason(decision) -> None:
            counts[reason_metric(key, decision.reason)] += 1

        for owner, attribute, name, hook in (
            (session, "run", "kernel.engine.tick", count_ticks),
            (session.workload, "demand", "workloads.demand", None),
            (session.workload, "record_execution", "workloads.record", None),
            (session.scheduler, "dispatch", "kernel.scheduler.dispatch", None),
            (session.stack.procstat, "record", "kernel.procstat.record", None),
            (session.platform, "power_breakdown", "soc.power", None),
            (session.platform.thermal, "step", "soc.thermal", None),
            (policy, "decide", decide, count_reason),
            (policy, "validate_decision", decide, None),
            (session.stack, "apply", "kernel.apply", None),
        ):
            setattr(owner, attribute, tracer.timed(name, getattr(owner, attribute), hook))
        return session

    timed_build = tracer.timed("kernel.batch.build", batch_engine.BatchSession.__init__)
    timed_run = tracer.timed("kernel.batch.run", batch_engine.BatchSession.run)

    class TracedBatchSession(batch_engine.BatchSession):
        def __init__(self, specs) -> None:
            timed_build(self, specs)
            counts["batch.fallbacks"] += self.fallback_count

        def run(self):
            counts["batch.member_ticks"] += self.vectorized_count * self.specs[0].config.total_ticks
            return timed_run(self)

    tracer.replace(runner_module, "Session", traced_session)
    tracer.replace(batch_engine, "Session", traced_session)
    tracer.replace(batch_engine, "BatchSession", TracedBatchSession)
    tracer.wrap(TraceBuffer, "append", "kernel.trace.record")
    tracer.wrap(CpuidleStats, "record", "kernel.cpuidle.record")
    tracer.wrap(ExperimentStore, "summaries", "store.summaries")
    tracer.wrap(cli, "load_scenarios", "scenario.load_compile")
    tracer.wrap(cli, "compile_scenario", "scenario.load_compile")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: SpanTracer,
    plan: Plan,
    traced: PassResult,
    untraced_cpu_seconds: float,
    names: Iterable[str],
) -> Dict[str, float]:
    """Every metric in *names*, from one traced pass.

    µs metrics of the tick loop are per simulated scalar tick, as self
    time, so the children plus ``kernel.engine.self_us`` add up to
    ``kernel.engine.tick_us``; runner phases are per spec of the grid.
    """
    from repro.kernel.batch_engine import batch_compatibility_key

    own, total = tracer.self_seconds(), tracer.total_seconds()
    counts = tracer.counts
    ticks = counts["ticks"]
    count = len(plan.specs)
    cold, warm = traced.cold.runner, traced.warm.runner
    cold_stats = cold.last_stats

    def per_tick_us(seconds: float) -> float:
        return _ratio(1e6 * seconds, ticks)

    metrics = {
        "kernel.engine.tick_us": per_tick_us(total.get("kernel.engine.tick", 0.0)),
        "kernel.engine.self_us": per_tick_us(own.get("kernel.engine.tick", 0.0)),
    }
    for metric, span in TICK_LAYERS:
        metrics[metric] = per_tick_us(own.get(span, 0.0))
    for policy in POLICIES:
        metrics[f"policies.{policy}.decide_us"] = per_tick_us(own.get(f"policies.{policy}.decide", 0.0))

    batch_seconds = total.get("kernel.batch.build", 0.0) + total.get("kernel.batch.run", 0.0)
    offered = count if plan.batch else 0
    refused = sum(batch_compatibility_key(spec) is None for spec in plan.specs) if plan.batch else 0
    batched = sum(outcome.detail.startswith("batched(") for outcome in cold.last_report.outcomes)
    metrics.update({
        "kernel.batch.build_ms": 1e3 * total.get("kernel.batch.build", 0.0),
        "kernel.batch.run_ms": 1e3 * total.get("kernel.batch.run", 0.0),
        "kernel.batch.member_tick_ns": _ratio(1e9 * own.get("kernel.batch.run", 0.0), counts["batch.member_ticks"]),
        "kernel.batch.fallback_ratio": _ratio(counts["batch.fallbacks"] + refused, offered),
        "runner.batch.vectorized_frac": batched / count,
    })

    phases = cold.span_profiler.totals()
    metrics.update({
        "runner.compile_ms": 1e3 * phases.get("compile", 0.0) / count,
        "runner.execute_ms": 1e3 * phases.get("execute", 0.0) / count,
        "runner.summarize_ms": 1e3 * phases.get("summarize", 0.0) / count,
        "runner.cache.read_us": 1e6 * warm.span_profiler.totals().get("cache.read", 0.0) / count,
        "runner.cache.write_us": 1e6 * phases.get("cache.write", 0.0) / count,
        "runner.overhead_ms": 1e3 * (
            cold_stats.wall_seconds - sum(phases.get(phase, 0.0) for phase in PHASES) - batch_seconds
        ) / count,
        "runner.cache.hit_frac": (cold_stats.cache_hits + warm.last_stats.cache_hits) / (2 * count),
        "store.ingest_us": 1e6 * traced.index_seconds / count,
        "store.summaries_ms": 1e3 * total.get("store.summaries", 0.0) / traced.repeats,
        "analysis.rows_from_store_ms": 1e3 * traced.figure_seconds,
        # The CLI runs once cold and once per warm repeat: report one invocation.
        "scenario.load_compile_ms": 1e3 * total.get("scenario.load_compile", 0.0) / (1 + traced.repeats),
        "cli.overhead_ms": (
            1e3 * (traced.cold.wall_seconds - cold_stats.wall_seconds) if plan.scenario_file else 0.0
        ),
        "kernel.trace.bytes_per_tick": _ratio(cold_stats.trace_bytes, cold_stats.ticks_simulated),
        "bench.trace_overhead_frac": traced.cpu_seconds / untraced_cpu_seconds - 1.0,
    })

    summaries = [summary for summary in traced.cold.report.summaries if summary is not None]
    metrics["kernel.dvfs_transitions_per_tick"] = sum(s.dvfs_transitions for s in summaries) / plan.nominal_ticks
    metrics["kernel.hotplug_transitions_per_tick"] = sum(s.hotplug_transitions for s in summaries) / plan.nominal_ticks

    names = list(names)
    listed = {name for name in names if ".reason." in name}
    for policy in POLICIES:
        prefix = f"policies.{policy}.reason."
        observed = {key: value for key, value in counts.items() if key.startswith(prefix)}
        for name in listed:
            if name.startswith(prefix):
                metrics[name] = observed.get(name, 0)
        metrics[prefix + "other"] = sum(v for k, v in observed.items() if k not in listed)
    return {name: metrics[name] for name in names}
