"""The cpufreq subsystem: how frequency requests become core frequencies.

Policies and governors produce *target* frequencies; this subsystem is
the mechanism that applies them, enforcing (in order):

1. user-imposed per-policy limits (``scaling_min_freq`` /
   ``scaling_max_freq`` in sysfs terms);
2. the thermal cap, when the platform's thermal governor is active;
3. quantisation onto the core's own frequency domain's OPP table;
4. the rail topology -- within a shared-rail frequency domain all online
   cores are forced to the highest requested OPP (no per-core DVFS,
   section 4.1.2).  Domains are independent: a big.LITTLE device runs
   each cluster at its own frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import GovernorError
from ..obs.bus import NULL_TRACEPOINT, TracepointBus
from ..obs.events import FreqTransitionEvent
from ..soc.cpu_cluster import CpuCluster
from ..soc.platform import Platform

__all__ = ["FrequencyLimits", "CpufreqSubsystem"]


@dataclass
class FrequencyLimits:
    """User-imposed frequency window for one core (sysfs scaling_min/max)."""

    min_khz: int
    max_khz: int

    def __post_init__(self) -> None:
        if self.min_khz > self.max_khz:
            raise GovernorError(f"min_khz {self.min_khz} > max_khz {self.max_khz}")


class CpufreqSubsystem:
    """Applies frequency targets to a platform's cores each tick."""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        topology = platform.topology
        # Each core's user window spans its own domain's ladder — on a
        # homogeneous platform that is the one global table.
        self._limits: List[FrequencyLimits] = [
            FrequencyLimits(table.min_frequency_khz, table.max_frequency_khz)
            for table in topology.opp_tables
        ]
        # Per core, the exact-OPP lookup (an on-table target quantises to
        # itself in either direction) and the ladder floor, built once.
        self._exact = tuple({f: f for f in t.frequencies_khz} for t in topology.opp_tables)
        self._fmin = tuple(t.min_frequency_khz for t in topology.opp_tables)
        self._shared_rail_clusters: Tuple[CpuCluster, ...] = tuple(
            cluster
            for cluster in topology.clusters
            if not platform.domain_allows_per_core_dvfs(cluster.cluster_id)
        )
        self._transition_count = 0
        self._tp_transition = NULL_TRACEPOINT

    def attach_trace(self, bus: TracepointBus) -> None:
        """Register this subsystem's tracepoints on *bus*."""
        self._tp_transition = bus.tracepoint(
            "cpufreq", "frequency_transition", FreqTransitionEvent
        )

    @property
    def transition_count(self) -> int:
        """Number of actual frequency changes applied (DVFS churn metric)."""
        return self._transition_count

    def reset(self) -> None:
        """Zero the transition counter (new session).

        User frequency limits survive a reset, matching real cpufreq:
        sysfs ``scaling_min/max_freq`` settings persist across runs of a
        workload; only the churn accounting is per-session.
        """
        self._transition_count = 0

    def limits(self, core_id: int) -> FrequencyLimits:
        """The user window for one core."""
        try:
            return self._limits[core_id]
        except IndexError:
            raise GovernorError(f"no core {core_id}") from None

    def set_limits(self, core_id: int, min_khz: int, max_khz: int) -> None:
        """Install a user frequency window (both must be OPPs of the core's domain)."""
        table = self.platform.topology.core(core_id).opp_table
        if min_khz not in table or max_khz not in table:
            raise GovernorError(
                f"limits ({min_khz}, {max_khz}) must both be OPP frequencies"
            )
        self._limits[core_id] = FrequencyLimits(min_khz, max_khz)

    def apply(self, targets_khz: Sequence[Optional[float]], round_up: bool = True) -> List[int]:
        """Apply per-core targets, returning the frequencies actually set.

        ``None`` entries leave that core's frequency unchanged.  Offline
        cores accept a setting (it takes effect when they come back) just
        like real cpufreq.  Each target is quantised onto the core's own
        domain's OPP table.  Returns the resulting per-core frequencies.
        """
        topology = self.platform.topology
        frequencies = topology.frequency_khz
        if len(targets_khz) != len(frequencies):
            raise GovernorError(
                f"{len(targets_khz)} targets for {len(frequencies)} cores"
            )
        thermal_cap = self.platform.thermal.max_allowed_frequency_khz
        tables = topology.opp_tables
        limits = self._limits
        for core_id, target in enumerate(targets_khz):
            if target is None:
                continue
            # The clamps below are ``min``/``max`` spelled out, with the
            # builtins' tie and NaN behaviour: into the user window, under
            # the thermal cap, then up to the ladder's floor -- the cap may
            # sit below a domain's entire ladder (e.g. a throttled big
            # cluster), and floor() would reject such a target.
            window = limits[core_id]
            low = window.min_khz
            clamped = low if low > target else target
            high = window.max_khz
            if high < clamped:
                clamped = high
            if thermal_cap < clamped:
                clamped = thermal_cap
            fmin = self._fmin[core_id]
            if fmin > clamped:
                clamped = fmin
            frequency = self._exact[core_id].get(clamped)
            if frequency is None:
                table = tables[core_id]
                opp = table.ceil(clamped) if round_up else table.floor(clamped)
                frequency = opp.frequency_khz
            if thermal_cap < frequency:
                frequency = thermal_cap
                table = tables[core_id]
                if frequency not in table:
                    frequency = table.floor(max(frequency, fmin)).frequency_khz
            current = frequencies[core_id]
            if frequency != current:
                self._transition_count += 1
                tp = self._tp_transition
                if tp.enabled:
                    tp.emit(
                        core=core_id,
                        old_khz=current,
                        new_khz=frequency,
                        governor=tp.bus.ctx_governor,
                        reason=tp.bus.ctx_reason,
                        cluster=topology.cluster_ids[core_id],
                    )
                frequencies[core_id] = frequency
        for cluster in self._shared_rail_clusters:
            self._unify_shared_rail(cluster)
        return list(frequencies)

    def _unify_shared_rail(self, cluster: CpuCluster) -> None:
        """Force a domain's online cores to its fastest requested OPP (shared rail)."""
        topology = self.platform.topology
        frequencies = topology.frequency_khz
        online = [core_id for core_id in cluster.core_ids if topology.online[core_id]]
        if not online:
            return
        fastest = max(frequencies[core_id] for core_id in online)
        for core_id in online:
            if frequencies[core_id] != fastest:
                self._transition_count += 1
                tp = self._tp_transition
                if tp.enabled:
                    tp.emit(
                        core=core_id,
                        old_khz=frequencies[core_id],
                        new_khz=fastest,
                        governor=tp.bus.ctx_governor,
                        reason="shared_rail_unify",
                        cluster=cluster.cluster_id,
                    )
                frequencies[core_id] = fastest
