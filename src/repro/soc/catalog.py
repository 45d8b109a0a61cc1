"""Device catalog: the Nexus 5 plus the Figure 1 phone fleet.

Figure 1 of the paper stresses six phones released between 2010 and 2014
(Samsung Nexus S, Motorola mb810, Samsung Galaxy S II, LG Nexus 4,
Nexus 5, LG G3) and shows total power consumption growing almost linearly
with the CPU core count, with newer same-core-count phones slightly
higher.  Each entry here is a :class:`~repro.soc.platform.PlatformSpec`
whose dynamic coefficient is solved so that the device's full-stress
power (all cores busy at fmax, screen off, GPU/memory idle) matches its
per-phone target; the two anchors the paper states numerically are the
Nexus S (980.6 mW) and the Nexus 5 (2403.82 mW).

The Nexus 5 itself uses the full calibration of
:mod:`repro.soc.calibration` rather than the generic fleet fit.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .battery import RailTopology
from .calibration import (
    NEXUS_S_FULL_STRESS_MW,
    nexus5_opp_table,
    nexus5_power_params,
)
from .gpu import GpuSpec
from .memory import MemorySpec
from .opp import OppTable
from .platform import PlatformSpec
from .power_model import PowerParams
from .thermal import ThermalParams
from .topology import ClusterSpec
from ..errors import PlatformError
from ..units import mhz

__all__ = [
    "nexus5_spec",
    "nexus_s_spec",
    "motorola_mb810_spec",
    "galaxy_s2_spec",
    "nexus4_spec",
    "lg_g3_spec",
    "odroid_xu3_spec",
    "galaxy_s6_spec",
    "little_a7_cluster",
    "big_a15_cluster",
    "PHONE_CATALOG",
    "HETERO_CATALOG",
    "get_phone_spec",
]

#: Shared non-core split used by the generic fleet fit (mW).
_FLEET_BASE_MW = 280.0
_FLEET_OVERHEAD_BASE_MW = 40.0
_FLEET_OVERHEAD_SPAN_MW = 40.0
_FLEET_CACHE_BASE_MW = 20.0
_FLEET_CACHE_SPAN_MW = 40.0


def _solve_ceff(
    target_full_stress_mw: float,
    num_cores: int,
    opp_table: OppTable,
    static_fmax_mw: float,
    idle_uncore_mw: float,
) -> float:
    """Solve Ceff so full stress (n cores busy at fmax) hits the target power.

    The target is the total the Monsoon meter reads during a Figure 1
    run: screen off, GPU and memory idle -- so the idle uncore draw is
    part of the budget.
    """
    overhead = (
        _FLEET_OVERHEAD_BASE_MW + _FLEET_OVERHEAD_SPAN_MW if num_cores >= 2 else 0.0
    )
    cache = _FLEET_CACHE_BASE_MW + _FLEET_CACHE_SPAN_MW
    budget = target_full_stress_mw - _FLEET_BASE_MW - overhead - cache - idle_uncore_mw
    per_core_dynamic = budget / num_cores - static_fmax_mw
    if per_core_dynamic <= 0:
        raise PlatformError(
            f"full-stress target {target_full_stress_mw} mW leaves no dynamic "
            f"power budget for {num_cores} cores"
        )
    top = opp_table.max
    return per_core_dynamic / (top.frequency_ghz * top.voltage ** 2)


def _fleet_params(
    target_full_stress_mw: float,
    num_cores: int,
    opp_table: OppTable,
    static_fmin_mw: float,
    static_fmax_mw: float,
    idle_uncore_mw: float,
) -> PowerParams:
    """Generic fleet power params with the leakage law fit through two anchors."""
    ceff = _solve_ceff(
        target_full_stress_mw, num_cores, opp_table, static_fmax_mw, idle_uncore_mw
    )
    return PowerParams.from_static_anchors(
        ceff_mw_per_ghz_v2=ceff,
        static_at_vmin_mw=static_fmin_mw,
        static_at_vmax_mw=static_fmax_mw,
        vmin=opp_table.min.voltage,
        vmax=opp_table.max.voltage,
        cluster_overhead_base_mw=_FLEET_OVERHEAD_BASE_MW if num_cores >= 2 else 0.0,
        cluster_overhead_span_mw=_FLEET_OVERHEAD_SPAN_MW if num_cores >= 2 else 0.0,
        cache_base_mw=_FLEET_CACHE_BASE_MW,
        cache_span_mw=_FLEET_CACHE_SPAN_MW,
        platform_base_mw=_FLEET_BASE_MW,
    )


def nexus5_spec(throttled: bool = False) -> PlatformSpec:
    """The paper's evaluation device (Table 1), fully calibrated.

    The thermal node is calibrated so sustained full stress settles at
    42.1 degC (the Figure 2a infrared reading).  With ``throttled=True``
    the MSM8974's thermal governor is enabled: the OPP cap starts pulling
    down under sustained multi-core full-power stress, which is what
    keeps the measured 2-to-4-core power increment marginal in the
    Figure 4 experiment.
    """
    table = nexus5_opp_table()
    return PlatformSpec(
        name="Nexus 5",
        soc="Snapdragon 800 (MSM8974)",
        release_year=2013,
        num_cores=4,
        opp_table=table,
        power_params=nexus5_power_params(),
        gpu=GpuSpec(
            name="Adreno 330",
            max_frequency_khz=mhz(450),
            idle_power_mw=40.0,
            max_power_mw=650.0,
        ),
        memory=MemorySpec(
            low_frequency_khz=mhz(200),
            high_frequency_khz=mhz(800),
            low_power_mw=30.0,
            high_power_mw=220.0,
            bandwidth_cycles_per_second=4.5e9,
        ),
        rail_topology=RailTopology.PER_CORE,
        # resistance chosen so full-stress CPU power settles at the
        # Figure 2a infrared reading of 42.1 degC.
        thermal=ThermalParams(
            ambient_c=24.0,
            resistance_c_per_w=9.03,
            time_constant_s=12.0,
            throttle_temp_c=36.0 if throttled else float("inf"),
            release_temp_c=34.5 if throttled else float("-inf"),
        ),
        os_name="Android 6.0 (Marshmallow)",
        l2_cache_kb=2048,
    )


def nexus_s_spec() -> PlatformSpec:
    """Samsung Nexus S (2010): the single-core reference of Figures 1-2."""
    table = OppTable.linear(
        [mhz(f) for f in (100, 200, 400, 800, 1000)], min_voltage=1.0, max_voltage=1.25
    )
    return PlatformSpec(
        name="Nexus S",
        soc="Exynos 3110 (Hummingbird)",
        release_year=2010,
        num_cores=1,
        opp_table=table,
        power_params=_fleet_params(
            NEXUS_S_FULL_STRESS_MW, 1, table,
            static_fmin_mw=30.0, static_fmax_mw=70.0, idle_uncore_mw=35.0,
        ),
        gpu=GpuSpec("PowerVR SGX540", mhz(200), 20.0, 350.0),
        memory=MemorySpec(mhz(100), mhz(200), 15.0, 80.0, 0.8e9),
        rail_topology=RailTopology.SHARED,
        # resistance chosen so full-stress CPU power settles at the
        # Figure 2a infrared reading of 26.9 degC.
        thermal=ThermalParams(ambient_c=24.0, resistance_c_per_w=4.53, time_constant_s=15.0),
        os_name="Android 4.1",
        l2_cache_kb=512,
    )


def motorola_mb810_spec() -> PlatformSpec:
    """Motorola mb810 / Droid X (2010): single core, slightly leaner than Nexus S."""
    table = OppTable.linear(
        [mhz(f) for f in (300, 600, 800, 1000)], min_voltage=1.0, max_voltage=1.25
    )
    return PlatformSpec(
        name="Motorola mb810",
        soc="TI OMAP3630",
        release_year=2010,
        num_cores=1,
        opp_table=table,
        power_params=_fleet_params(
            940.0, 1, table, static_fmin_mw=28.0, static_fmax_mw=65.0, idle_uncore_mw=33.0
        ),
        gpu=GpuSpec("PowerVR SGX530", mhz(200), 18.0, 300.0),
        memory=MemorySpec(mhz(100), mhz(200), 15.0, 75.0, 0.7e9),
        rail_topology=RailTopology.SHARED,
        thermal=ThermalParams(ambient_c=24.0, resistance_c_per_w=5.0, time_constant_s=15.0),
        os_name="Android 2.3",
        l2_cache_kb=256,
    )


def galaxy_s2_spec() -> PlatformSpec:
    """Samsung Galaxy S II (2011): the dual-core point of Figure 1."""
    table = OppTable.linear(
        [mhz(f) for f in (200, 500, 800, 1000, 1200)], min_voltage=0.95, max_voltage=1.25
    )
    return PlatformSpec(
        name="Galaxy S II",
        soc="Exynos 4210",
        release_year=2011,
        num_cores=2,
        opp_table=table,
        power_params=_fleet_params(
            1400.0, 2, table, static_fmin_mw=32.0, static_fmax_mw=75.0, idle_uncore_mw=45.0
        ),
        gpu=GpuSpec("Mali-400 MP4", mhz(266), 25.0, 400.0),
        memory=MemorySpec(mhz(200), mhz(400), 20.0, 110.0, 1.6e9),
        rail_topology=RailTopology.SHARED,
        thermal=ThermalParams(ambient_c=24.0, resistance_c_per_w=6.0, time_constant_s=14.0),
        os_name="Android 4.0",
        l2_cache_kb=1024,
    )


def nexus4_spec() -> PlatformSpec:
    """LG Nexus 4 (2012): the first quad-core point of Figure 1."""
    table = OppTable.linear(
        [mhz(f) for f in (384, 486, 594, 702, 810, 918, 1026, 1134, 1242, 1350, 1458, 1512)],
        min_voltage=0.9,
        max_voltage=1.2,
    )
    return PlatformSpec(
        name="Nexus 4",
        soc="Snapdragon S4 Pro (APQ8064)",
        release_year=2012,
        num_cores=4,
        opp_table=table,
        power_params=_fleet_params(
            2250.0, 4, table, static_fmin_mw=40.0, static_fmax_mw=100.0, idle_uncore_mw=60.0
        ),
        gpu=GpuSpec("Adreno 320", mhz(400), 35.0, 550.0),
        memory=MemorySpec(mhz(200), mhz(533), 25.0, 160.0, 3.0e9),
        rail_topology=RailTopology.PER_CORE,
        thermal=ThermalParams(ambient_c=24.0, resistance_c_per_w=8.0, time_constant_s=12.0),
        os_name="Android 5.1",
        l2_cache_kb=2048,
    )


def lg_g3_spec() -> PlatformSpec:
    """LG G3 (2014): the newest quad-core point of Figure 1."""
    frequencies = list(nexus5_opp_table().frequencies_khz) + [mhz(2457.6)]
    table = OppTable.linear(frequencies, min_voltage=0.9, max_voltage=1.225)
    return PlatformSpec(
        name="LG G3",
        soc="Snapdragon 801 (MSM8974AC)",
        release_year=2014,
        num_cores=4,
        opp_table=table,
        power_params=_fleet_params(
            2550.0, 4, table, static_fmin_mw=48.0, static_fmax_mw=125.0, idle_uncore_mw=75.0
        ),
        gpu=GpuSpec("Adreno 330", mhz(578), 45.0, 700.0),
        memory=MemorySpec(mhz(200), mhz(933), 30.0, 240.0, 5.2e9),
        rail_topology=RailTopology.PER_CORE,
        thermal=ThermalParams(ambient_c=24.0, resistance_c_per_w=8.5, time_constant_s=12.0),
        os_name="Android 5.0",
        l2_cache_kb=2048,
    )


def little_a7_cluster() -> ClusterSpec:
    """The 4× Cortex-A7 LITTLE cluster of the Exynos 5422 (Odroid-XU3).

    An in-order core: low voltages, a short OPP ladder, and an IPC around
    0.6 of the out-of-order A15 — the "little cores could improve the
    energy efficiency" half of the paper's section 3.4 remark.
    """
    table = OppTable.linear(
        [mhz(f) for f in (300, 400, 500, 600, 700, 800, 900, 1000, 1100, 1200)],
        min_voltage=0.85,
        max_voltage=1.05,
    )
    return ClusterSpec(
        name="little",
        core_type="Cortex-A7",
        num_cores=4,
        opp_table=table,
        power_params=PowerParams.from_static_anchors(
            ceff_mw_per_ghz_v2=45.0,
            static_at_vmin_mw=12.0,
            static_at_vmax_mw=28.0,
            vmin=0.85,
            vmax=1.05,
            cluster_overhead_base_mw=15.0,
            cluster_overhead_span_mw=15.0,
            cache_base_mw=10.0,
            cache_span_mw=20.0,
        ),
        ipc_scale=0.6,
        rail_topology=RailTopology.SHARED,
    )


def big_a15_cluster() -> ClusterSpec:
    """The 4× Cortex-A15 big cluster of the Exynos 5422 (Odroid-XU3).

    As the primary (fastest) cluster it also carries the whole device's
    ``platform_base_mw`` floor; the cluster runs one shared frequency
    domain, as real big.LITTLE silicon does.
    """
    table = OppTable.linear(
        [mhz(f) for f in (800, 1000, 1200, 1400, 1600, 1800, 1900, 2000)],
        min_voltage=0.9,
        max_voltage=1.2625,
    )
    return ClusterSpec(
        name="big",
        core_type="Cortex-A15",
        num_cores=4,
        opp_table=table,
        power_params=PowerParams.from_static_anchors(
            ceff_mw_per_ghz_v2=250.0,
            static_at_vmin_mw=45.0,
            static_at_vmax_mw=130.0,
            vmin=0.9,
            vmax=1.2625,
            cluster_overhead_base_mw=40.0,
            cluster_overhead_span_mw=60.0,
            cache_base_mw=20.0,
            cache_span_mw=50.0,
            platform_base_mw=260.0,
        ),
        ipc_scale=1.0,
        rail_topology=RailTopology.SHARED,
    )


def odroid_xu3_spec() -> PlatformSpec:
    """Odroid-XU3 (Exynos 5422, 2014): the reference big.LITTLE board.

    4× Cortex-A7 LITTLE (the boot cluster, cores 0-3) + 4× Cortex-A15
    big (cores 4-7), each a shared-rail frequency domain — the standard
    platform of the big.LITTLE scheduling literature and the first
    heterogeneous device in the catalog.
    """
    return PlatformSpec.from_clusters(
        name="Odroid-XU3",
        soc="Exynos 5422",
        release_year=2014,
        clusters=(little_a7_cluster(), big_a15_cluster()),
        gpu=GpuSpec("Mali-T628 MP6", mhz(600), 50.0, 1800.0),
        memory=MemorySpec(mhz(206), mhz(933), 35.0, 260.0, 6.0e9),
        thermal=ThermalParams(
            ambient_c=24.0, resistance_c_per_w=6.5, time_constant_s=10.0
        ),
        os_name="Android 6.0 (Marshmallow)",
        l2_cache_kb=2048,
    )


def galaxy_s6_spec() -> PlatformSpec:
    """Samsung Galaxy S6 (Exynos 7420, 2015): a 4+4 A57/A53 phone.

    The second heterogeneous entry: higher clocks than the XU3 on both
    clusters and a stronger little core (the A53 is roughly 0.7 of an
    A57 per cycle), so energy-aware placement faces a different
    crossover point.
    """
    little_table = OppTable.linear(
        [mhz(f) for f in (400, 600, 800, 1000, 1104, 1296, 1400, 1500)],
        min_voltage=0.8,
        max_voltage=1.05,
    )
    little = ClusterSpec(
        name="little",
        core_type="Cortex-A53",
        num_cores=4,
        opp_table=little_table,
        power_params=PowerParams.from_static_anchors(
            ceff_mw_per_ghz_v2=55.0,
            static_at_vmin_mw=10.0,
            static_at_vmax_mw=26.0,
            vmin=0.8,
            vmax=1.05,
            cluster_overhead_base_mw=15.0,
            cluster_overhead_span_mw=20.0,
            cache_base_mw=10.0,
            cache_span_mw=25.0,
        ),
        ipc_scale=0.7,
        rail_topology=RailTopology.SHARED,
    )
    big_table = OppTable.linear(
        [mhz(f) for f in (800, 1000, 1200, 1400, 1600, 1800, 2000, 2100)],
        min_voltage=0.9,
        max_voltage=1.2,
    )
    big = ClusterSpec(
        name="big",
        core_type="Cortex-A57",
        num_cores=4,
        opp_table=big_table,
        power_params=PowerParams.from_static_anchors(
            ceff_mw_per_ghz_v2=230.0,
            static_at_vmin_mw=40.0,
            static_at_vmax_mw=115.0,
            vmin=0.9,
            vmax=1.2,
            cluster_overhead_base_mw=35.0,
            cluster_overhead_span_mw=55.0,
            cache_base_mw=20.0,
            cache_span_mw=45.0,
            platform_base_mw=300.0,
        ),
        ipc_scale=1.0,
        rail_topology=RailTopology.SHARED,
    )
    return PlatformSpec.from_clusters(
        name="Galaxy S6",
        soc="Exynos 7420",
        release_year=2015,
        clusters=(little, big),
        gpu=GpuSpec("Mali-T760 MP8", mhz(772), 55.0, 2000.0),
        memory=MemorySpec(mhz(416), mhz(1552), 40.0, 320.0, 24.0e9),
        thermal=ThermalParams(
            ambient_c=24.0, resistance_c_per_w=7.5, time_constant_s=11.0
        ),
        os_name="Android 7.0 (Nougat)",
        l2_cache_kb=2048,
    )


#: The Figure 1 fleet in release order; factory per phone so specs stay immutable.
PHONE_CATALOG: Dict[str, Callable[[], PlatformSpec]] = {
    "Nexus S": nexus_s_spec,
    "Motorola mb810": motorola_mb810_spec,
    "Galaxy S II": galaxy_s2_spec,
    "Nexus 4": nexus4_spec,
    "Nexus 5": nexus5_spec,
    "LG G3": lg_g3_spec,
}

#: Heterogeneous (big.LITTLE) devices; kept out of PHONE_CATALOG so the
#: Figure 1 fleet and its calibration-dependent tests stay untouched.
HETERO_CATALOG: Dict[str, Callable[[], PlatformSpec]] = {
    "Odroid-XU3": odroid_xu3_spec,
    "Galaxy S6": galaxy_s6_spec,
}


#: Specs already built by :func:`get_phone_spec`, by catalog name.
_RESOLVED: Dict[str, PlatformSpec] = {}


def get_phone_spec(name: str) -> PlatformSpec:
    """Look up a catalog phone by name; raise :class:`PlatformError` if unknown.

    Each name is built once and the spec shared: a :class:`PlatformSpec`
    is frozen all the way down to its OPP tables.
    """
    spec = _RESOLVED.get(name)
    if spec is None:
        factory = PHONE_CATALOG.get(name) or HETERO_CATALOG.get(name)
        if factory is None:
            known = ", ".join(sorted(PHONE_CATALOG) + sorted(HETERO_CATALOG))
            raise PlatformError(f"unknown phone {name!r}; catalog has: {known}") from None
        spec = _RESOLVED[name] = factory()
    return spec


def fleet_specs() -> List[PlatformSpec]:
    """All catalog phones ordered by (release year, core count)."""
    specs = [factory() for factory in PHONE_CATALOG.values()]
    return sorted(specs, key=lambda s: (s.release_year, s.num_cores, s.name))
