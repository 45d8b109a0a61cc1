#!/usr/bin/env python
"""Bring your own device: define a custom platform and run MobiCore on it.

Builds an octa-core "2016 flagship" spec from scratch -- OPP table,
power-model anchors, thermal node, uncore -- and compares MobiCore
against the Android default on it.  This is the template for porting the
library to a device the catalog does not ship.

Run:  python examples/custom_platform.py
"""

from repro import (
    AndroidDefaultPolicy,
    MobiCorePolicy,
    Platform,
    Session,
    SimulationConfig,
    game_workload,
    summarize,
)
from repro.soc import (
    GpuSpec,
    MemorySpec,
    OppTable,
    PlatformSpec,
    PowerParams,
    RailTopology,
    ThermalParams,
)
from repro.units import mhz


def octa_core_spec() -> PlatformSpec:
    """A hypothetical 2016 octa-core with per-core rails."""
    table = OppTable.linear(
        [mhz(f) for f in (307.2, 480, 652.8, 864, 1036.8, 1248, 1478.4, 1689.6, 1900.8)],
        min_voltage=0.85,
        max_voltage=1.15,
    )
    return PlatformSpec(
        name="Octa 2016",
        soc="Hypothetical 8x A72-class",
        release_year=2016,
        num_cores=8,
        opp_table=table,
        power_params=PowerParams.from_static_anchors(
            ceff_mw_per_ghz_v2=95.0,
            static_at_vmin_mw=28.0,
            static_at_vmax_mw=85.0,
            vmin=0.85,
            vmax=1.15,
            cluster_overhead_base_mw=50.0,
            cluster_overhead_span_mw=50.0,
            cache_base_mw=25.0,
            cache_span_mw=45.0,
            platform_base_mw=300.0,
        ),
        gpu=GpuSpec("Hypothetical GPU", mhz(600), 50.0, 800.0),
        memory=MemorySpec(mhz(300), mhz(1333), 35.0, 260.0, 8.0e9),
        rail_topology=RailTopology.PER_CORE,
        thermal=ThermalParams(ambient_c=24.0, resistance_c_per_w=7.0, time_constant_s=14.0),
        os_name="Android 7.0",
        l2_cache_kb=4096,
    )


def main() -> None:
    spec = octa_core_spec()
    config = SimulationConfig(duration_seconds=60.0, seed=11, warmup_seconds=4.0)

    def session(policy_factory):
        platform = Platform.from_spec(spec)
        policy = policy_factory(platform)
        return summarize(
            Session(platform, game_workload("Asphalt 8"), policy, config).run()
        )

    print(f"Platform: {spec.name} ({spec.num_cores} cores, {len(spec.opp_table)} OPPs)")
    baseline = session(lambda p: AndroidDefaultPolicy(num_cores=spec.num_cores))
    mobicore = session(MobiCorePolicy.for_platform)

    print(f"\nandroid : {baseline.mean_power_mw:7.0f} mW  "
          f"cores {baseline.mean_online_cores:.2f}  fps {baseline.mean_fps:.1f}")
    print(f"mobicore: {mobicore.mean_power_mw:7.0f} mW  "
          f"cores {mobicore.mean_online_cores:.2f}  fps {mobicore.mean_fps:.1f}")
    print(f"\npower saving on the custom device: "
          f"{mobicore.power_saving_percent(baseline):+.1f}%")
    print("\nNote: MobiCore's energy model was built from this spec's own")
    print("power parameters -- no retuning required (MobiCorePolicy.for_platform).")


if __name__ == "__main__":
    main()
