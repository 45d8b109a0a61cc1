"""The simulation engine: kernel stack + incremental session driver.

The tick loop has two composable pieces:

* :class:`KernelStack` — the bundle of kernel mechanisms one simulated
  device exposes (cpufreq, hotplug, the bandwidth controller, procstat
  utilization accounting, cpuidle residency) behind a single
  ``reset()`` / ``apply()`` interface.  Resetting the stack starts a new
  accounting epoch: transition counters, residency buckets, and quota all
  return to boot state, so repeated sessions on one device never leak
  churn statistics into each other.
* :class:`Session` — one (platform, workload, policy, config) run with an
  incremental ``step()`` API.  ``run()`` executes the whole session;
  live/streaming drivers (the adb-shell control plane, future interactive
  frontends) can instead call ``start()`` and then ``step()`` tick by
  tick, inspecting or poking kernel state between ticks.

Each tick (the governor sampling period, default 20 ms):

1. the workload emits per-task cycle demand;
2. the scheduler balances it over online cores under the bandwidth quota
   and executes it; unfinished work carries over as backlog;
3. per-core busy fractions are accounted (ACTIVE/IDLE states update);
4. the power model is read, the thermal node advances, the trace records
   the tick;
5. the policy observes the tick and decides next-tick frequencies,
   online mask, and quota; cpufreq/hotplug/cgroup apply them.

The result is a :class:`SessionResult`: the full trace, the workload's
own metrics (score, FPS), and the accounting every figure of the paper
needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .cgroup import CpuBandwidthController
from .clock import SimClock
from .cpufreq import CpufreqSubsystem
from .cpuidle import CpuidleStats
from .hotplug import HotplugSubsystem
from .procstat import ProcStat
from .scheduler import LoadBalancingScheduler
from .tracing import TraceRecorder
from ..config import SimulationConfig
from ..errors import ExperimentError
from ..obs.bus import NULL_TRACEPOINT, TracepointBus
from ..obs.events import PolicyDecisionEvent, TickCountersEvent
from ..policies.base import CpuPolicy, PolicyDecision, SystemObservation
from ..soc.platform import Platform
from ..workloads.base import Workload, WorkloadContext

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..faults.plan import FaultPlan

__all__ = ["KernelStack", "Session", "SessionResult"]


@dataclass
class SessionResult:
    """Everything one simulated session produced.

    Attributes:
        platform_name / policy_name / workload_name: Identification.
        config: The configuration the session ran with.
        trace: Per-tick columns (power, frequency, cores, load, FPS...).
        workload_metrics: The workload's own end-of-session numbers.
        cpuidle: Per-core state residency.
        dvfs_transitions: Frequency changes applied over the session.
        hotplug_transitions: Core state changes over the session.
    """

    platform_name: str
    policy_name: str
    workload_name: str
    config: SimulationConfig
    trace: TraceRecorder
    workload_metrics: Dict[str, float]
    cpuidle: CpuidleStats
    dvfs_transitions: int
    hotplug_transitions: int

    @property
    def mean_power_mw(self) -> float:
        """Session-average platform power (the Monsoon number)."""
        return self.trace.mean_power_mw()

    @property
    def mean_cpu_power_mw(self) -> float:
        """Session-average CPU-attributable power."""
        return self.trace.mean_cpu_power_mw()

    @property
    def mean_online_cores(self) -> float:
        """Average active core count (Figure 12)."""
        return self.trace.mean_online_cores()

    @property
    def mean_frequency_khz(self) -> float:
        """Average online-core frequency (Figure 12)."""
        return self.trace.mean_frequency_khz()

    @property
    def mean_load_percent(self) -> float:
        """Average global CPU load (Figure 13)."""
        return self.trace.mean_global_util_percent()

    @property
    def mean_fps(self) -> Optional[float]:
        """Average FPS, when the workload renders frames (Figure 11)."""
        return self.trace.mean_fps()

    def energy_mj(self) -> float:
        """Total session energy in millijoules."""
        return self.trace.energy_mj(self.config.tick_seconds)


class KernelStack:
    """The kernel mechanisms of one simulated device, reset as a unit.

    Bundles cpufreq, hotplug, the CPU bandwidth controller, procstat
    accounting, and cpuidle residency for a :class:`Platform`, exposing
    exactly two lifecycle verbs: :meth:`reset` (start a new session
    accounting epoch) and :meth:`apply` (enact a policy decision through
    the mechanisms).  The stack outlives individual sessions — the
    adb-shell sysfs tree keeps references to its members — so members are
    created once and reset in place, never replaced.
    """

    def __init__(self, platform: Platform, mpdecision_enabled: bool = False) -> None:
        self.platform = platform
        self.cpufreq = CpufreqSubsystem(platform)
        self.hotplug = HotplugSubsystem(
            platform.topology, mpdecision_enabled=mpdecision_enabled
        )
        self.bandwidth = CpuBandwidthController()
        self.procstat = ProcStat()
        self.cpuidle = CpuidleStats(len(platform.topology))

    def attach_trace(self, bus: TracepointBus) -> None:
        """Attach a tracepoint bus to every mechanism in the stack.

        Safe to call again (e.g. after :class:`Session.start` swaps in a
        fresh cpuidle ledger); registration is idempotent on the bus.
        """
        self.cpufreq.attach_trace(bus)
        self.hotplug.attach_trace(bus)
        self.bandwidth.attach_trace(bus)
        self.cpuidle.attach_trace(bus)

    def reset(self, pin_uncore_max: bool = False) -> None:
        """Return the whole stack to boot state for a fresh session.

        Platform state resets first (all cores online at fmin, ambient
        temperature) so the transitions that restoring boot state performs
        are not charged to the new session's churn counters.
        """
        self.platform.reset()
        if pin_uncore_max:
            self.platform.pin_uncore_max()
        self.cpufreq.reset()
        self.hotplug.reset()
        self.bandwidth.reset()
        self.procstat.reset()
        self.cpuidle.reset()

    def apply(self, decision: PolicyDecision) -> None:
        """Apply a policy decision through the kernel mechanisms."""
        if decision.online_mask is not None:
            self.hotplug.apply_mask(decision.online_mask)
        if decision.target_frequencies_khz is not None:
            self.cpufreq.apply(decision.target_frequencies_khz)
        if decision.quota is not None:
            self.bandwidth.set_quota(decision.quota)
        if decision.memory_high is not None:
            if decision.memory_high:
                self.platform.memory.pin_high()
            else:
                self.platform.memory.set_low()
        if decision.gpu_pinned_max is not None:
            if decision.gpu_pinned_max:
                self.platform.gpu.pin_max()
            else:
                self.platform.gpu.unpin()

    @property
    def dvfs_transitions(self) -> int:
        """Frequency changes applied since the last reset."""
        return self.cpufreq.transition_count

    @property
    def hotplug_transitions(self) -> int:
        """Core state changes since the last reset."""
        return self.hotplug.transition_count


class Session:
    """One simulated session, drivable tick by tick.

    Args:
        platform: Runtime device the session runs on.
        workload: Demand generator.
        policy: Whole-system CPU manager deciding each tick.
        config: Session configuration (tick, duration, seed, warmup).
        pin_uncore_max: Apply the section 3.2 GPU/memory constraint at
            session start.
        scheduler: Load balancer; defaults to a fresh
            :class:`LoadBalancingScheduler`.
        stack: Kernel stack to drive; defaults to a fresh
            :class:`KernelStack` over *platform* (mpdecision disabled, as
            the paper's setup requires).
        trace: Optional :class:`~repro.obs.bus.TracepointBus`; when given,
            every kernel mechanism emits typed events through it and the
            session publishes per-tick counters and policy decisions.
            ``None`` (the default) leaves all tracepoints on the null
            tracepoint — zero event allocations.
        faults: Optional :class:`~repro.faults.plan.FaultPlan`; when
            given, a fresh :class:`~repro.faults.injector.FaultInjector`
            fires the plan's windows tick-accurately against the stack
            (and emits ``fault:injection`` events on the trace bus).

    Either call :meth:`run` for the whole session, or :meth:`start`
    followed by :meth:`step` per tick and :meth:`result` at the end.
    """

    def __init__(
        self,
        platform: Platform,
        workload: Workload,
        policy: CpuPolicy,
        config: Optional[SimulationConfig] = None,
        pin_uncore_max: bool = True,
        scheduler: Optional[LoadBalancingScheduler] = None,
        stack: Optional[KernelStack] = None,
        trace: Optional[TracepointBus] = None,
        faults: Optional["FaultPlan"] = None,
    ) -> None:
        self.platform = platform
        self.workload = workload
        self.policy = policy
        self.config = config if config is not None else SimulationConfig()
        self.pin_uncore_max = pin_uncore_max
        self.scheduler = scheduler if scheduler is not None else LoadBalancingScheduler()
        self.stack = stack if stack is not None else KernelStack(platform)
        self.trace_bus = trace
        self.faults = faults
        self._injector = None
        self._tp_counters = NULL_TRACEPOINT
        self._tp_decision = NULL_TRACEPOINT
        if trace is not None:
            self.stack.attach_trace(trace)
            self.scheduler.attach_trace(trace)
            self._tp_counters = trace.tracepoint("counters", "tick", TickCountersEvent)
            self._tp_decision = trace.tracepoint("policy", "decision", PolicyDecisionEvent)
        self._clock = SimClock(self.config.tick_seconds)
        self._trace: Optional[TraceRecorder] = None
        self._tick = 0
        self._total_ticks = self.config.total_ticks

    # -- lifecycle -------------------------------------------------------

    @property
    def started(self) -> bool:
        """True once :meth:`start` has run (directly or via :meth:`step`)."""
        return self._trace is not None

    @property
    def ticks_run(self) -> int:
        """Ticks executed since the last :meth:`start`."""
        return self._tick

    @property
    def finished(self) -> bool:
        """True when the configured duration has fully elapsed."""
        return self.started and self._tick >= self._total_ticks

    def start(self) -> None:
        """Reset everything and arm the session at tick zero.

        Also builds the per-session constants the observation carries
        (per-domain OPP tables, the rail layout).
        """
        # A fresh residency ledger per session: results returned by earlier
        # runs keep their cpuidle statistics instead of aliasing this run's.
        self.stack.cpuidle = CpuidleStats(len(self.platform.topology))
        if self.trace_bus is not None:
            self.trace_bus.clear()
            self.stack.attach_trace(self.trace_bus)
        if self.faults is not None and self.faults:
            # Deferred import: repro.faults imports policy/obs types from
            # packages that themselves import the engine.
            from ..faults.injector import FaultInjector

            self._injector = FaultInjector(self.faults, self.stack)
            if self.trace_bus is not None:
                self._injector.attach_trace(self.trace_bus)
        else:
            self._injector = None
        self.stack.reset(pin_uncore_max=self.pin_uncore_max)
        self.scheduler.reset()
        self.policy.reset()
        topology = self.platform.topology
        context = WorkloadContext(
            num_cores=len(topology),
            opp_table=self.platform.opp_table,
            dt_seconds=self.config.tick_seconds,
            seed=self.config.seed,
        )
        self.workload.prepare(context)
        self._clock = SimClock(self.config.tick_seconds)
        self._total_ticks = self.config.total_ticks
        self._cluster_opp_tables = tuple(c.opp_table for c in topology.clusters)
        self._allows_per_core_dvfs = self.platform.allows_per_core_dvfs
        # Columnar recorder sized to the session: one allocation, no growth.
        self._trace = TraceRecorder(
            warmup_ticks=self.config.warmup_ticks,
            num_cores=len(topology),
            expected_ticks=self._total_ticks,
        )
        self._tick = 0

    def step(self) -> None:
        """Execute one tick; auto-starts a session not yet started.

        The tick's values land in the trace's columns.  Per-core state
        is read from and written to the topology's lists; nothing built
        here is constant over the session.  Raises
        :class:`~repro.errors.ExperimentError` when stepping past the
        configured duration.
        """
        if self._trace is None:
            self.start()
        tick = self._tick
        if tick >= self._total_ticks:
            raise ExperimentError(
                f"session already ran its {self._total_ticks} ticks; "
                f"call start() to begin a new one"
            )
        stack = self.stack
        platform = self.platform
        topology = platform.topology
        workload = self.workload
        policy = self.policy
        dt = self.config.tick_seconds
        now = self._clock.now_seconds

        bus = self.trace_bus
        if bus is not None:
            bus.set_time_us(int(round(now * 1_000_000)))

        if self._injector is not None:
            # Faults fire on the simulated clock, before demand is placed,
            # so a window's first tick already runs under the fault.
            self._injector.on_tick(now)

        demands = workload.demand(tick)
        quota = stack.bandwidth.quota
        dispatch = self.scheduler.dispatch(demands, topology, dt, quota=quota)
        fractions = dispatch.busy_fractions
        online = topology.online
        busy = topology.busy
        active = topology.active
        frequencies = topology.frequency_khz
        fmax = topology.max_frequencies_khz
        # Per core, the /proc/stat percent ``min(100.0, 100.0 * f)``; per
        # online core, the busy fraction capped at 1 (``min(f, 1.0)``) and
        # its load normalised to the core's own domain's fmax — on a
        # homogeneous platform that is the one global fmax, same number.
        percents = []
        scaled_terms = []
        for core_id, fraction in enumerate(fractions):
            percent = 100.0 * fraction
            percents.append(percent if percent < 100.0 else 100.0)
            if online[core_id]:
                if fraction > 1.0:
                    fraction = 1.0
                busy[core_id] = fraction
                active[core_id] = fraction > 0.0
                scaled_terms.append(fraction * frequencies[core_id] / fmax[core_id])
        workload.record_execution(tick, dispatch.executed_by_task)

        procstat = stack.procstat
        global_percent = procstat.record(tick, percents, online)
        stack.cpuidle.record(topology, dt)

        breakdown = platform.power_breakdown()
        cpu_mw = breakdown.cpu_mw
        # ``PowerBreakdown.total_mw``, without evaluating cpu_mw twice.
        total_mw = cpu_mw + breakdown.base_mw + breakdown.uncore_mw
        temperature = platform.thermal.step(cpu_mw, dt)
        scaled_load = 100.0 * sum(scaled_terms) / len(online)
        backlog = dispatch.total_backlog
        # Columns go straight into the trace buffer; the buffer copies
        # the per-core sequences into its staging lists before returning,
        # so the topology/dispatch scratch state can never alias recorded
        # history.
        self._trace.record_tick(
            tick,
            now,
            frequencies,
            online,
            fractions,
            global_percent,
            quota,
            total_mw,
            cpu_mw,
            temperature,
            backlog,
            dispatch.dropped_cycles,
            workload.tick_fps(),
            scaled_load,
        )

        tp = self._tp_counters
        if tp.enabled:
            tp.emit(
                power_mw=total_mw,
                cpu_power_mw=cpu_mw,
                util_percent=global_percent,
                scaled_load_percent=scaled_load,
                quota=quota,
                online_cores=sum(online),
                temperature_c=temperature,
            )

        observation = SystemObservation(
            tick=tick,
            dt_seconds=dt,
            per_core_load_percent=procstat.per_core_percent,
            global_util_percent=global_percent,
            delta_util_percent=procstat.delta_global_percent(),
            frequencies_khz=tuple(frequencies),
            online_mask=tuple(online),
            quota=quota,
            opp_table=platform.spec.opp_table,
            backlog_cycles=backlog,
            allows_per_core_dvfs=self._allows_per_core_dvfs,
            cluster_ids=topology.cluster_ids,
            cluster_opp_tables=self._cluster_opp_tables,
        )
        if self._injector is not None:
            # Sensor dropout blinds only the policy: accounting above has
            # already recorded the true utilization.
            observation = self._injector.filter_observation(observation)
        decision = policy.validate_decision(policy.decide(observation), observation)
        if bus is not None:
            # Stamp decision context with what the policy actually saw —
            # identical to the accounting value except under an injected
            # sensor dropout, where the divergence is the point.
            bus.set_decision_context(
                util_percent=observation.global_util_percent,
                governor=policy.name,
                reason=decision.reason,
            )
            tp = self._tp_decision
            if tp.enabled:
                tp.emit(
                    policy=policy.name,
                    reason=decision.reason,
                    util_percent=observation.global_util_percent,
                    quota=decision.quota,
                    online_target=(
                        sum(decision.online_mask)
                        if decision.online_mask is not None
                        else None
                    ),
                    sets_frequencies=decision.target_frequencies_khz is not None,
                )
        stack.apply(decision)
        self._clock.advance()
        self._tick = tick + 1

    @property
    def fault_firings(self) -> Dict[str, int]:
        """Fault windows fired so far, per kind (empty without a plan)."""
        if self._injector is None:
            return {}
        return dict(self._injector.firings)

    def run(self) -> SessionResult:
        """Execute the whole session from a fresh start and return its result."""
        # Ambient span: a no-op unless a profiler is installed (the runner
        # workers install one around each spec execution).
        from ..obs.metrics_plane.spans import span

        with span("execute"):
            self.start()
            step = self.step
            for _ in range(self._total_ticks):
                step()
        return self.result()

    def result(self) -> SessionResult:
        """The session's result so far (complete after :meth:`run`)."""
        if not self.started:
            raise ExperimentError("session has not started; nothing to report")
        return SessionResult(
            platform_name=self.platform.spec.name,
            policy_name=self.policy.name,
            workload_name=self.workload.name,
            config=self.config,
            trace=self._trace,
            workload_metrics=self.workload.metrics(),
            cpuidle=self.stack.cpuidle,
            dvfs_transitions=self.stack.dvfs_transitions,
            hotplug_transitions=self.stack.hotplug_transitions,
        )
