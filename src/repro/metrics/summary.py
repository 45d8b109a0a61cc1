"""Session summaries: one row per run, comparable across policies.

Every evaluation figure of the paper reduces a session to a handful of
scalars (mean power, mean FPS, mean cores, mean frequency, mean load).
:class:`SessionSummary` is that row, built from a
:class:`~repro.kernel.engine.SessionResult`, plus the deltas
section 6 reports between MobiCore and the default policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import MeterError
from ..kernel.engine import SessionResult
from ..kernel.trace_buffer import sequential_sum

__all__ = ["SessionSummary", "summarize"]


@dataclass(frozen=True)
class SessionSummary:
    """The scalar digest of one simulated session."""

    platform: str
    policy: str
    workload: str
    seed: int
    duration_seconds: float
    mean_power_mw: float
    mean_cpu_power_mw: float
    energy_mj: float
    mean_frequency_khz: float
    mean_online_cores: float
    mean_load_percent: float
    mean_scaled_load_percent: float
    load_std_percent: float
    mean_quota: float
    mean_fps: Optional[float]
    dvfs_transitions: int
    hotplug_transitions: int
    workload_metrics: Dict[str, float]

    # -- paper-style comparisons -------------------------------------------

    def power_saving_percent(self, baseline: "SessionSummary") -> float:
        """Figure 9/10's power saving of this session vs a baseline."""
        if baseline.mean_power_mw <= 0:
            raise MeterError("baseline mean power is zero; saving undefined")
        return 100.0 * (1.0 - self.mean_power_mw / baseline.mean_power_mw)

    def fps_ratio(self, baseline: "SessionSummary") -> float:
        """Figure 11's FPS ratio vs a baseline."""
        if self.mean_fps is None or baseline.mean_fps is None:
            raise MeterError("both sessions need FPS for a ratio")
        if baseline.mean_fps == 0:
            raise MeterError("baseline FPS is zero; ratio undefined")
        return self.mean_fps / baseline.mean_fps

    def frequency_reduction_percent(self, baseline: "SessionSummary") -> float:
        """Figure 12's average-frequency reduction vs a baseline.

        Positive means this session ran at lower frequency; negative is
        the Real Racing 3 case (MobiCore slightly higher).
        """
        if baseline.mean_frequency_khz <= 0:
            raise MeterError("baseline frequency is zero; reduction undefined")
        return 100.0 * (1.0 - self.mean_frequency_khz / baseline.mean_frequency_khz)

    def load_reduction_percent_points(self, baseline: "SessionSummary") -> float:
        """Figure 13's load difference (baseline minus this), percent points."""
        return baseline.mean_load_percent - self.mean_load_percent


def summarize(result: SessionResult) -> SessionSummary:
    """Reduce a finished session to its summary row.

    All statistics are vectorized reductions over the trace's columnar
    buffer, bit-identical to left-to-right Python sums (see
    :func:`~repro.kernel.trace_buffer.sequential_sum`).
    """
    trace = result.trace
    loads = trace.buffer.scalar("global_util_percent", trace.warmup_ticks)
    count = len(loads)
    if count:
        mean_load = sequential_sum(loads) / count
        load_std = (sequential_sum((loads - mean_load) ** 2) / count) ** 0.5
    else:
        raise MeterError("session produced no measured ticks")
    return SessionSummary(
        platform=result.platform_name,
        policy=result.policy_name,
        workload=result.workload_name,
        seed=result.config.seed,
        duration_seconds=result.config.duration_seconds,
        mean_power_mw=trace.mean_power_mw(),
        mean_cpu_power_mw=trace.mean_cpu_power_mw(),
        energy_mj=trace.energy_mj(result.config.tick_seconds),
        mean_frequency_khz=trace.mean_frequency_khz(),
        mean_online_cores=trace.mean_online_cores(),
        mean_load_percent=mean_load,
        mean_scaled_load_percent=trace.mean_scaled_load_percent(),
        load_std_percent=load_std,
        mean_quota=trace.mean_quota(),
        mean_fps=trace.mean_fps(),
        dvfs_transitions=result.dvfs_transitions,
        hotplug_transitions=result.hotplug_transitions,
        workload_metrics=dict(result.workload_metrics),
    )
