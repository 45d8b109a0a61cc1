"""Platform: the full device a simulation runs on.

A :class:`PlatformSpec` is the static datasheet (Table 1 of the paper);
:class:`Platform` is the runtime object bundling the CPU topology (one
or more frequency domains), per-domain power models, GPU, memory bus,
thermal node, and rail topology that the simulator drives each tick.

Single-cluster specs keep their original field layout (``num_cores``,
``opp_table``, ``power_params`` at the top level) so every registered
phone, cache key, and golden summary is unchanged; heterogeneous specs
declare an explicit ``clusters`` tuple and the legacy fields describe
the *primary* (fastest) domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from .battery import PowerRail, RailTopology, build_rails
from .gpu import GpuModel, GpuSpec
from .memory import MemoryBusModel, MemorySpec
from .opp import OppTable
from .power_model import CpuPowerModel, PowerBreakdown, PowerParams
from .thermal import ThermalModel, ThermalParams
from .topology import ClusterSpec, CpuTopology
from ..errors import PlatformError

__all__ = ["PlatformSpec", "Platform"]


@dataclass(frozen=True)
class PlatformSpec:
    """Static description of one device (the Table 1 datasheet).

    Attributes:
        name: Device name ("Nexus 5").
        soc: SoC name ("Snapdragon 800 (MSM8974)").
        release_year: Used by the Figure 1 fleet comparison.
        num_cores: Total cores across all clusters (a single homogeneous
            cluster unless ``clusters`` is declared).
        opp_table: The primary cluster's DVFS table.
        power_params: The primary cluster's calibrated power constants;
            ``platform_base_mw`` here is the whole device's floor.
        gpu: GPU datasheet.
        memory: Memory-bus datasheet.
        rail_topology: Per-core rails (allows per-core DVFS) or shared —
            the primary cluster's rail layout.
        thermal: Thermal node constants.
        os_name: Operating system string (Table 1: "Android 6.0").
        l2_cache_kb: L2 size, informational (Table 1: 2048 kB).
        core_type: Marketing core name ("Krait 400"); cosmetic for
            homogeneous specs, shown in the Table 1 CPU row when set.
        clusters: Explicit frequency domains for heterogeneous devices
            (declaration order = global core-id order; the boot cluster
            comes first).  Empty means one homogeneous cluster built
            from the legacy top-level fields.
    """

    name: str
    soc: str
    release_year: int
    num_cores: int
    opp_table: OppTable
    power_params: PowerParams
    gpu: GpuSpec
    memory: MemorySpec
    rail_topology: RailTopology = RailTopology.PER_CORE
    thermal: ThermalParams = ThermalParams()
    os_name: str = "Android 6.0 (Marshmallow)"
    l2_cache_kb: int = 2048
    core_type: str = ""
    clusters: Tuple[ClusterSpec, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise PlatformError(f"{self.name}: num_cores must be positive")
        if self.release_year < 2000:
            raise PlatformError(f"{self.name}: implausible release year {self.release_year}")
        if self.clusters:
            declared = sum(c.num_cores for c in self.clusters)
            if declared != self.num_cores:
                raise PlatformError(
                    f"{self.name}: clusters declare {declared} cores "
                    f"but num_cores is {self.num_cores}"
                )

    @classmethod
    def from_clusters(
        cls,
        name: str,
        soc: str,
        release_year: int,
        clusters: Sequence[ClusterSpec],
        gpu: GpuSpec,
        memory: MemorySpec,
        thermal: ThermalParams = ThermalParams(),
        os_name: str = "Android 6.0 (Marshmallow)",
        l2_cache_kb: int = 2048,
    ) -> "PlatformSpec":
        """Build a (possibly heterogeneous) spec from explicit cluster specs.

        The legacy top-level fields (``opp_table``, ``power_params``,
        ``rail_topology``, ``core_type``) are filled from the *primary*
        cluster — the one with the highest fmax — so code that only
        understands one domain sees the fastest one.  The primary
        cluster's ``power_params.platform_base_mw`` is the whole
        device's floor and must be zero on every other cluster.
        """
        clusters = tuple(clusters)
        if not clusters:
            raise PlatformError(f"{name}: from_clusters needs at least one cluster")
        primary = max(clusters, key=lambda c: c.opp_table.max_frequency_khz)
        for cspec in clusters:
            if cspec is not primary and cspec.power_params.platform_base_mw != 0.0:
                raise PlatformError(
                    f"{name}: cluster {cspec.name!r} carries platform_base_mw "
                    "but the platform floor is drawn once, from the primary cluster"
                )
        return cls(
            name=name,
            soc=soc,
            release_year=release_year,
            num_cores=sum(c.num_cores for c in clusters),
            opp_table=primary.opp_table,
            power_params=primary.power_params,
            gpu=gpu,
            memory=memory,
            rail_topology=primary.rail_topology,
            thermal=thermal,
            os_name=os_name,
            l2_cache_kb=l2_cache_kb,
            core_type=primary.core_type,
            clusters=clusters,
        )

    def cluster_specs(self) -> Tuple[ClusterSpec, ...]:
        """The device's frequency domains, synthesising one for legacy specs.

        Every consumer of topology goes through this accessor, so a
        homogeneous spec declared with the original flat fields and one
        declared as a single-entry ``clusters`` tuple behave the same.
        """
        if self.clusters:
            return self.clusters
        return (
            ClusterSpec(
                name="cpu",
                core_type=self.core_type,
                num_cores=self.num_cores,
                opp_table=self.opp_table,
                power_params=self.power_params,
                ipc_scale=1.0,
                rail_topology=self.rail_topology,
            ),
        )

    @property
    def is_heterogeneous(self) -> bool:
        """True when the device has more than one frequency domain."""
        return len(self.clusters) > 1

    def spec_rows(self) -> Sequence[tuple]:
        """Rows for rendering the Table 1 style spec sheet.

        Homogeneous devices keep the original single-domain layout
        ("4× Krait 400" when the core type is known, global freq/volt
        ranges); heterogeneous devices render the cluster layout
        ("4× Cortex-A15 + 4× Cortex-A7") with per-cluster ranges.
        """
        specs = self.cluster_specs()
        if len(specs) == 1:
            sole = specs[0]
            cpu_label = (
                f"{sole.num_cores}× {sole.core_type}"
                if sole.core_type
                else f"{self.num_cores} cores"
            )
            freq_volt_rows = (
                ("Freq. min", f"{self.opp_table.min_frequency_khz / 1000.0:.1f} MHz"),
                ("Freq. max", f"{self.opp_table.max_frequency_khz / 1000.0:.1f} MHz"),
                ("Volt. min", f"{self.opp_table.min.voltage:.2f} V"),
                ("Volt. max", f"{self.opp_table.max.voltage:.2f} V"),
            )
        else:
            cpu_label = " + ".join(
                f"{c.num_cores}× {c.core_type or c.name}" for c in specs
            )
            rows: List[tuple] = []
            for cspec in specs:
                rows.append((f"Freq. ({cspec.name})", cspec.freq_range_label()))
                rows.append(
                    (
                        f"Volt. ({cspec.name})",
                        f"{cspec.opp_table.min.voltage:.2f}-"
                        f"{cspec.opp_table.max.voltage:.2f} V",
                    )
                )
            freq_volt_rows = tuple(rows)
        return (
            ("SoC", self.soc),
            ("CPU", cpu_label),
        ) + freq_volt_rows + (
            ("GPU", self.gpu.name),
            ("GPU freq. max", f"{self.gpu.max_frequency_khz / 1000.0:.0f} MHz"),
            ("Cache (L2)", f"{self.l2_cache_kb} kB"),
            ("OS", self.os_name),
            ("Rails", self.rail_topology.value),
        )


def _build_topology_rails(
    cluster_specs: Sequence[ClusterSpec], topology: CpuTopology
) -> Sequence[PowerRail]:
    """Rail set for a topology: per-cluster layout, global core ids."""
    if len(cluster_specs) == 1:
        return build_rails(cluster_specs[0].rail_topology, cluster_specs[0].num_cores)
    rails: List[PowerRail] = []
    for cspec, cluster in zip(cluster_specs, topology.clusters):
        core_ids = cluster.core_ids
        if cspec.rail_topology is RailTopology.PER_CORE:
            rails.extend(
                PowerRail(name=f"vdd-cpu{i}", core_ids=(i,)) for i in core_ids
            )
        else:
            rails.append(PowerRail(name=f"vdd-{cspec.name}", core_ids=core_ids))
    return tuple(rails)


class Platform:
    """Runtime device: topology + power models + GPU + memory + thermal.

    Build one with :meth:`from_spec`; the simulator owns it for the
    session and the power meter reads :meth:`power_breakdown` each tick.
    Each frequency domain gets its own :class:`CpuPowerModel`;
    ``power_model`` remains the primary domain's model for single-domain
    callers.
    """

    def __init__(self, spec: PlatformSpec) -> None:
        self.spec = spec
        self._cluster_specs = spec.cluster_specs()
        self.topology = CpuTopology(self._cluster_specs)
        self.power_models: Tuple[CpuPowerModel, ...] = tuple(
            CpuPowerModel(cspec.power_params, cspec.opp_table)
            for cspec in self._cluster_specs
        )
        self.power_model = CpuPowerModel(spec.power_params, spec.opp_table)
        self.gpu = GpuModel(spec.gpu)
        self.memory = MemoryBusModel(spec.memory)
        self.thermal = ThermalModel(spec.thermal, spec.opp_table)
        self.rails: Sequence[PowerRail] = _build_topology_rails(
            self._cluster_specs, self.topology
        )

    @classmethod
    def from_spec(cls, spec: PlatformSpec) -> "Platform":
        """Instantiate the runtime object for *spec* (boot state)."""
        return cls(spec)

    def __repr__(self) -> str:
        return f"Platform({self.spec.name}, {self.spec.num_cores} cores)"

    @property
    def allows_per_core_dvfs(self) -> bool:
        """True when every core may run at its own OPP (all rails per-core)."""
        return all(
            cspec.rail_topology.allows_per_core_dvfs for cspec in self._cluster_specs
        )

    def domain_allows_per_core_dvfs(self, cluster_id: int) -> bool:
        """Whether one frequency domain has per-core rails."""
        try:
            cspec = self._cluster_specs[cluster_id]
        except IndexError:
            raise PlatformError(
                f"{self.spec.name} has no cluster {cluster_id}"
            ) from None
        return cspec.rail_topology.allows_per_core_dvfs

    @property
    def opp_table(self) -> OppTable:
        """The primary cluster's DVFS table."""
        return self.spec.opp_table

    def pin_uncore_max(self) -> None:
        """Apply the section 3.2 experiment constraints: GPU and memory at max."""
        self.gpu.pin_max()
        self.memory.pin_high()

    def uncore_power_mw(self) -> float:
        """GPU plus memory-bus power at their current settings."""
        return self.gpu.power_mw() + self.memory.power_mw()

    def power_breakdown(self) -> PowerBreakdown:
        """Itemised platform power for the topology's current tick state.

        Single-cluster platforms take the original one-model call
        unchanged (the parity contract); heterogeneous platforms
        evaluate each domain with its own model and combine, drawing the
        platform floor exactly once (from the primary cluster's params).
        """
        topology = self.topology
        if len(self.power_models) == 1:
            return self.power_model.breakdown(topology, uncore_mw=self.uncore_power_mw())
        per_core: List[float] = []
        dynamic = 0.0
        static = 0.0
        overhead = 0.0
        cache = 0.0
        for cluster_id, model in enumerate(self.power_models):
            part = model.breakdown(topology, cluster_id=cluster_id)
            per_core.extend(part.per_core_mw)
            dynamic += part.dynamic_mw
            static += part.static_mw
            overhead += part.cluster_overhead_mw
            cache += part.cache_mw
        return PowerBreakdown(
            per_core_mw=per_core,
            dynamic_mw=dynamic,
            static_mw=static,
            cluster_overhead_mw=overhead,
            cache_mw=cache,
            base_mw=self.spec.power_params.platform_base_mw,
            uncore_mw=self.uncore_power_mw(),
        )

    def effective_voltages(self) -> Sequence[float]:
        """Voltage each core's rail actually supplies, by global core id.

        With per-core rails this is each core's own OPP voltage; a
        cluster on a shared rail pays the maximum voltage any of its
        online cores requests (the waste section 4.1.2 describes).
        """
        topology = self.topology
        voltages: List[float] = []
        for cspec, cluster in zip(self._cluster_specs, topology.clusters):
            table = cluster.opp_table
            own = [table.voltage_for(topology.frequency_khz[i]) for i in cluster.core_ids]
            if cspec.rail_topology.allows_per_core_dvfs:
                voltages.extend(own)
                continue
            shared = max(
                (v for v, i in zip(own, cluster.core_ids) if topology.online[i]),
                default=own[0],
            )
            voltages.extend([shared] * len(own))
        return voltages

    def step_thermal(self, dt_seconds: float) -> float:
        """Advance the thermal node using the current CPU power; returns degC."""
        cpu_mw = self.power_breakdown().cpu_mw
        return self.thermal.step(cpu_mw, dt_seconds)

    def reset(self) -> None:
        """Return to boot state: cores online at fmin, ambient temperature."""
        self.topology.reset()
        self.thermal.reset()
        self.gpu.unpin()
        self.gpu.set_utilization(0.0)
        self.memory.set_low()
