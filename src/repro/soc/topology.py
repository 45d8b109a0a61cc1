"""Cluster-aware platform topology: frequency domains over global core ids.

The paper evaluates "a simple multicore architecture (embedding same
type of cores)" (section 3.4) — one homogeneous cluster — but claims
little cores "could improve the energy efficiency when correct operating
points are selected".  This module is the data model that lets the
simulator test that claim end to end: a :class:`ClusterSpec` describes
one homogeneous frequency domain (core type, count, OPP table, power
constants, IPC scale, rail), and a :class:`CpuTopology` assembles one or
more domains into a single address space of globally-numbered cores.

The topology is the one owner of per-tick core state: flat per-core
lists that hotplug, cpufreq and the engine write and every tick layer
reads by core id.  :class:`~repro.soc.cpu_core.CpuCore` objects are live
views of one slot for the API and the sysfs tree, and a
:class:`~repro.soc.cpu_cluster.CpuCluster` is domain data only.

Design contract (see ``docs/NUMERICS.md``): for a single-cluster
topology every aggregate view iterates the same cores in the same order
with the same float expressions as the pre-topology single-cluster code
did, so homogeneous platforms produce **bit-identical** summaries.
Heterogeneity is purely additive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .battery import RailTopology
from .core_state import CoreState
from .cpu_cluster import CpuCluster
from .cpu_core import CpuCore
from .opp import OppTable
from .power_model import PowerParams
from ..errors import HotplugError, PlatformError
from ..units import require_fraction, require_positive

__all__ = ["ClusterSpec", "CpuTopology"]


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of one homogeneous frequency domain.

    Attributes:
        name: Domain name ("little", "big", or "cpu" for the single
            cluster of a homogeneous platform).
        core_type: Marketing core name ("Krait 400", "Cortex-A15").
        num_cores: Identical cores in this cluster.
        opp_table: The DVFS ladder shared by the cluster's cores.
        power_params: Eq. (1)/(2) power constants for this core type.
            ``platform_base_mw`` must be zero on the non-primary clusters
            of a heterogeneous spec — the platform floor is drawn once.
        ipc_scale: Instructions retired per cycle relative to the
            reference (big) core; a little in-order core does less work
            per cycle, so its capacity is scaled down by this factor.
        rail_topology: Whether each core of this cluster has its own
            supply rail (per-core DVFS) or the cluster shares one.
    """

    name: str
    core_type: str
    num_cores: int
    opp_table: OppTable
    power_params: PowerParams
    ipc_scale: float = 1.0
    rail_topology: RailTopology = field(default=RailTopology.PER_CORE)

    def __post_init__(self) -> None:
        if not self.name:
            raise PlatformError("a cluster needs a non-empty name")
        if self.num_cores < 1:
            raise PlatformError(f"cluster {self.name!r}: num_cores must be >= 1")
        require_positive(self.ipc_scale, "ipc_scale")

    @property
    def max_frequency_khz(self) -> int:
        """The cluster's fmax (top of its own OPP ladder)."""
        return self.opp_table.max_frequency_khz

    @property
    def max_throughput_ips(self) -> float:
        """Reference instructions/second with every core busy at fmax."""
        return self.num_cores * self.opp_table.max_frequency_khz * 1000.0 * self.ipc_scale

    def freq_range_label(self) -> str:
        """Human-readable frequency span, e.g. ``"300.0-2265.6 MHz"``."""
        return (
            f"{self.opp_table.min_frequency_khz / 1000.0:.1f}-"
            f"{self.opp_table.max_frequency_khz / 1000.0:.1f} MHz"
        )


class CpuTopology:
    """One or more CPU clusters under a single global core-id space.

    Cores are numbered consecutively across clusters in declaration
    order: a 4+4 big.LITTLE spec declaring LITTLE first has little cores
    0-3 and big cores 4-7 (matching Linux, where cpu0 lives in the boot
    cluster).  Core 0 is the boot core and can never be offlined; any
    *other* cluster may go fully offline.

    Per-core state, indexed by global core id, is held in plain lists
    that are mutated in place (never rebound), so the tick loop may bind
    them once per session:

    * ``online`` — hotplug state;
    * ``active`` — executing (ACTIVE) rather than idle, online cores only;
    * ``frequency_khz`` — the current OPP;
    * ``busy`` — the last tick's busy fraction (0 while offline);
    * ``transitions`` — hotplug churn since the last counter reset.

    Per-core constants, built once: ``cluster_ids``, ``opp_tables``,
    ``ipc_scales`` and ``max_frequencies_khz``.  All aggregate views
    iterate in global id order — for a single cluster this is exactly
    the iteration the old cluster-level code performed, which is what
    keeps homogeneous platforms bit-identical.
    """

    def __init__(self, cluster_specs: Sequence[ClusterSpec]) -> None:
        if not cluster_specs:
            raise PlatformError("a topology needs at least one cluster")
        self.cluster_specs: Tuple[ClusterSpec, ...] = tuple(cluster_specs)
        clusters: List[CpuCluster] = []
        first = 0
        for cluster_id, spec in enumerate(self.cluster_specs):
            core_ids = tuple(range(first, first + spec.num_cores))
            clusters.append(
                CpuCluster(cluster_id, spec.name, spec.opp_table, spec.ipc_scale, core_ids)
            )
            first += spec.num_cores
        self.clusters: Tuple[CpuCluster, ...] = tuple(clusters)
        owners = [cluster for cluster in clusters for _ in cluster.core_ids]
        self.cluster_ids = tuple(cluster.cluster_id for cluster in owners)
        self.opp_tables = tuple(cluster.opp_table for cluster in owners)
        self.ipc_scales = tuple(cluster.ipc_scale for cluster in owners)
        self.max_frequencies_khz = tuple(t.max_frequency_khz for t in self.opp_tables)
        #: The fastest fmax over all clusters (backlog-cap reference).
        self.max_frequency_khz = max(self.max_frequencies_khz)
        self.online: List[bool] = [True] * first
        self.active: List[bool] = [False] * first
        self.frequency_khz: List[int] = [t.min_frequency_khz for t in self.opp_tables]
        self.busy: List[float] = [0.0] * first
        self.transitions: List[int] = [0] * first
        self._cores: Tuple[CpuCore, ...] = tuple(
            CpuCore(core_id, table, ipc, topology=self)
            for core_id, (table, ipc) in enumerate(zip(self.opp_tables, self.ipc_scales))
        )

    def __len__(self) -> int:
        return len(self._cores)

    def __iter__(self):
        return iter(self._cores)

    def __repr__(self) -> str:
        layout = "+".join(str(len(c)) for c in self.clusters)
        return f"CpuTopology({layout} cores, {self.online_count} online)"

    # -- structure -------------------------------------------------------

    @property
    def num_clusters(self) -> int:
        """Number of frequency domains."""
        return len(self.clusters)

    @property
    def is_heterogeneous(self) -> bool:
        """True when more than one frequency domain exists."""
        return len(self.clusters) > 1

    @property
    def cores(self) -> Sequence[CpuCore]:
        """All cores in global id order."""
        return self._cores

    def core(self, core_id: int) -> CpuCore:
        """Return the core with global id *core_id*."""
        try:
            return self._cores[core_id]
        except IndexError:
            raise HotplugError(
                f"no core {core_id} in a {len(self._cores)}-core topology"
            ) from None

    def cluster_id_of(self, core_id: int) -> int:
        """The cluster index of global core *core_id*."""
        try:
            return self.cluster_ids[core_id]
        except IndexError:
            raise HotplugError(
                f"no core {core_id} in a {len(self._cores)}-core topology"
            ) from None

    # -- online mask -----------------------------------------------------

    @property
    def online_cores(self) -> List[CpuCore]:
        """Cores currently available to the scheduler, in global id order."""
        return [core for core, online in zip(self._cores, self.online) if online]

    @property
    def online_count(self) -> int:
        """Number of online cores."""
        return sum(self.online)

    @property
    def online_mask(self) -> List[bool]:
        """Per-core online flags, indexed by global core id (a copy)."""
        return list(self.online)

    def set_online_mask(self, mask: Sequence[bool]) -> float:
        """Apply a full online/offline mask, returning total transition latency.

        The mask must keep the boot core (global id 0) online and have
        one entry per core.  A non-boot cluster may go fully offline —
        that is exactly how an energy-aware policy parks the big cluster.
        Onlined cores come up idle; offlined cores lose their busy time.
        """
        if len(mask) != len(self._cores):
            raise HotplugError(
                f"mask has {len(mask)} entries for a {len(self._cores)}-core topology"
            )
        if not mask[0]:
            raise HotplugError("core 0 is the boot core and cannot be offlined")
        latency = 0.0
        for core, online in zip(self._cores, mask):
            if online and not core.is_online:
                latency += core.set_state(CoreState.IDLE)
            elif not online and core.is_online:
                latency += core.set_state(CoreState.OFFLINE)
        return latency

    def set_online_count(self, count: int) -> float:
        """Online exactly *count* cores (lowest global ids first)."""
        if not 1 <= count <= len(self._cores):
            raise HotplugError(
                f"online count must be in 1..{len(self._cores)}, got {count}"
            )
        mask = [i < count for i in range(len(self._cores))]
        return self.set_online_mask(mask)

    # -- frequency -------------------------------------------------------

    @property
    def frequencies_khz(self) -> List[int]:
        """Per-core current frequencies, indexed by global core id (a copy)."""
        return list(self.frequency_khz)

    def set_all_frequencies(self, frequency_khz: int) -> None:
        """Set every core, online or not, to one OPP; each domain clamps its own.

        On a heterogeneous topology each cluster quantises the request
        into its own ladder (floor of the clamped target), since one
        global frequency is generally not an OPP of every domain.
        """
        for cluster in self.clusters:
            table = cluster.opp_table
            if frequency_khz in table:
                applied = frequency_khz
            else:
                clamped = min(
                    max(frequency_khz, table.min_frequency_khz),
                    table.max_frequency_khz,
                )
                applied = table.floor(clamped).frequency_khz
            for core_id in cluster.core_ids:
                self.frequency_khz[core_id] = applied

    def mean_online_frequency_khz(self) -> float:
        """Average frequency over online cores (Figure 12 metric)."""
        online = [f for f, on in zip(self.frequency_khz, self.online) if on]
        if not online:
            return 0.0
        return sum(online) / len(online)

    # -- aggregate views ---------------------------------------------------

    def total_capacity_cycles(self, dt_seconds: float, quota: float = 1.0) -> float:
        """Reference cycles the whole topology can execute in one tick."""
        require_fraction(quota, "quota")
        return sum(c.capacity_cycles(dt_seconds, quota) for c in self._cores)

    def max_capacity_cycles(self, dt_seconds: float) -> float:
        """Reference cycles with all cores online at their cluster fmax.

        The denominator of the paper's "global CPU load" generalised per
        domain; for a single cluster this reduces to the original
        ``fmax * dt * n`` expression exactly (a one-term sum, and the
        trailing ``ipc_scale`` of 1.0 is an IEEE-754 no-op).
        """
        return sum(
            cluster.opp_table.max_frequency_khz * 1000.0 * dt_seconds
            * len(cluster) * cluster.ipc_scale
            for cluster in self.clusters
        )

    def global_utilization_percent(self) -> float:
        """Average busy percentage over online cores (section 2.2 definition)."""
        online = [b for b, on in zip(self.busy, self.online) if on]
        if not online:
            return 0.0
        return 100.0 * sum(online) / len(online)

    def per_core_utilization_percent(self) -> Dict[int, float]:
        """Busy percentage per global core id (offline cores report 0)."""
        return {core_id: 100.0 * busy for core_id, busy in enumerate(self.busy)}

    def online_count_in(self, cluster_id: int) -> int:
        """Online cores inside one cluster (placement observability)."""
        try:
            cluster = self.clusters[cluster_id]
        except IndexError:
            raise PlatformError(
                f"no cluster {cluster_id} in a {len(self.clusters)}-cluster topology"
            ) from None
        return sum(self.online[core_id] for core_id in cluster.core_ids)

    def reset(self) -> None:
        """Return every core to boot state: online, idle, at its fmin.

        Bringing an offline core back counts as one transition (the
        kernel stack zeroes the counters afterwards).
        """
        for core in self._cores:
            if not core.is_online:
                core.set_state(CoreState.IDLE)
        count = len(self._cores)
        self.active[:] = [False] * count
        self.frequency_khz[:] = [t.min_frequency_khz for t in self.opp_tables]
        self.busy[:] = [0.0] * count
