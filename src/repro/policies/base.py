"""The CPU-policy interface: what a whole-system manager looks like.

A :class:`CpuPolicy` is the paper's unit of comparison -- "the Android
default policy" and "MobiCore" are both CpuPolicies.  Once per tick the
simulator hands the policy a :class:`SystemObservation` (everything the
kernel exposes: per-core loads, global utilization and its variation,
current frequencies, online mask, quota) and receives a
:class:`PolicyDecision` (target frequencies, online mask, quota) that
takes effect on the next tick.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import ConfigError
from ..soc.opp import OppTable

__all__ = ["SystemObservation", "PolicyDecision", "CpuPolicy"]


@dataclass(frozen=True)
class SystemObservation:
    """Kernel state visible to a policy at the end of a tick.

    Attributes:
        tick: Tick index just completed.
        dt_seconds: Tick duration.
        per_core_load_percent: Busy percentage per core, relative to each
            core's full capacity at its current frequency (offline: 0).
        global_util_percent: Average load over online cores (section 2.2).
        delta_util_percent: Global utilization change vs the previous
            tick (MobiCore's burst/slow signal).
        frequencies_khz: Current per-core frequencies.
        online_mask: Which cores are online.
        quota: Bandwidth quota currently in effect.
        opp_table: The primary frequency domain's DVFS table (the only
            domain on homogeneous platforms).
        backlog_cycles: Unfinished work carried into the next tick.
        allows_per_core_dvfs: Whether per-core frequencies are legal.
        cluster_ids: Frequency-domain index per core; empty means one
            homogeneous domain (every core in cluster 0).
        cluster_opp_tables: DVFS table per frequency domain, indexed by
            cluster id; empty means every core shares ``opp_table``.
    """

    tick: int
    dt_seconds: float
    per_core_load_percent: Sequence[float]
    global_util_percent: float
    delta_util_percent: float
    frequencies_khz: Sequence[int]
    online_mask: Sequence[bool]
    quota: float
    opp_table: OppTable
    backlog_cycles: float = 0.0
    allows_per_core_dvfs: bool = True
    cluster_ids: Sequence[int] = ()
    cluster_opp_tables: Sequence[OppTable] = ()

    @property
    def num_cores(self) -> int:
        """Total cores on the platform."""
        return len(self.online_mask)

    @property
    def online_count(self) -> int:
        """Cores currently online (counted once per observation)."""
        cached = self.__dict__.get("_online_count")
        if cached is None:
            cached = self.__dict__["_online_count"] = sum(1 for on in self.online_mask if on)
        return cached

    def cluster_of(self, core_id: int) -> int:
        """The frequency-domain index of one core (0 when homogeneous)."""
        if not self.cluster_ids:
            return 0
        return self.cluster_ids[core_id]

    def opp_table_of(self, core_id: int) -> OppTable:
        """The DVFS table governing one core.

        Per-core governors must quantise against this table — on a
        big.LITTLE device a little core's frequencies are not entries of
        the big (primary) table.
        """
        if not self.cluster_opp_tables:
            return self.opp_table
        return self.cluster_opp_tables[self.cluster_ids[core_id] if self.cluster_ids else 0]

    def scaled_load_percent(self, core_id: int) -> float:
        """One core's load normalised to its own fmax capacity.

        ``load * f_current / f_max``: the frequency-invariant demand
        measure hotplug drivers threshold against (a core 80% busy at
        fmin is nearly idle in fmax terms).  fmax is the core's own
        domain's ceiling, which on homogeneous platforms is the one
        global table's.
        """
        fmax = self.opp_table_of(core_id).max_frequency_khz
        return (
            self.per_core_load_percent[core_id]
            * self.frequencies_khz[core_id]
            / fmax
        )

    def _online_scaled_loads(self) -> List[float]:
        """:meth:`scaled_load_percent` of every online core, in core order."""
        return [
            self.scaled_load_percent(core_id)
            for core_id, online in enumerate(self.online_mask)
            if online
        ]

    @property
    def global_scaled_load_percent(self) -> float:
        """Average fmax-normalised load over online cores."""
        online = self._online_scaled_loads()
        if not online:
            return 0.0
        return sum(online) / len(online)

    @property
    def total_scaled_load_percent(self) -> float:
        """Sum of fmax-normalised loads: 100 per fully-busy fmax core.

        The demand measure hotplug drivers size the core count with;
        summed once per observation (the dataclass is frozen, so the
        cached sum cannot go stale).
        """
        cached = self.__dict__.get("_total_scaled_load")
        if cached is None:
            cached = self.__dict__["_total_scaled_load"] = sum(self._online_scaled_loads())
        return cached


@dataclass(frozen=True)
class PolicyDecision:
    """What a policy wants applied for the next tick.

    Attributes:
        target_frequencies_khz: Per-core raw targets; ``None`` entries
            leave a core unchanged.  The cpufreq subsystem clamps and
            quantises them.
        online_mask: Desired online mask; ``None`` keeps the current one.
        quota: Desired bandwidth quota; ``None`` keeps the current one.
        memory_high: Request the memory bus's high or low point; ``None``
            leaves it alone.  Used by the component-aware extension of
            the paper's future-work section (section 7).
        gpu_pinned_max: Pin or release the GPU's maximum frequency;
            ``None`` leaves it alone.
        reason: Free-form self-reported cause of the decision (e.g.
            ``"ondemand:jump_to_max"``, ``"steady:quota"``).  Purely
            observational — the kernel mechanisms ignore it, but the
            tracepoint bus stamps it onto the events the decision causes.
    """

    target_frequencies_khz: Optional[Sequence[Optional[float]]] = None
    online_mask: Optional[Sequence[bool]] = None
    quota: Optional[float] = None
    memory_high: Optional[bool] = None
    gpu_pinned_max: Optional[bool] = None
    reason: Optional[str] = None


class CpuPolicy(abc.ABC):
    """A whole-system CPU manager (DVFS and/or DCS and/or bandwidth)."""

    #: Human-readable policy name used in comparisons and reports.
    name: str = "abstract"

    @abc.abstractmethod
    def decide(self, observation: SystemObservation) -> PolicyDecision:
        """Produce the next tick's decision from this tick's observation."""

    def reset(self) -> None:
        """Clear internal state before a new session (default: nothing)."""

    def validate_decision(
        self, decision: PolicyDecision, observation: SystemObservation
    ) -> PolicyDecision:
        """Sanity-check a decision's shapes against the observation."""
        freqs = decision.target_frequencies_khz
        if freqs is not None and len(freqs) != observation.num_cores:
            raise ConfigError(
                f"{self.name}: {len(freqs)} frequency targets for "
                f"{observation.num_cores} cores"
            )
        mask = decision.online_mask
        if mask is not None and len(mask) != observation.num_cores:
            raise ConfigError(
                f"{self.name}: online mask of {len(mask)} entries for "
                f"{observation.num_cores} cores"
            )
        return decision
