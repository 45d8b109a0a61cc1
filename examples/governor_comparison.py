#!/usr/bin/env python
"""Compare the six stock Linux governors and MobiCore on one workload.

Reproduces the section 2.2.1 taxonomy in numbers: each governor's power,
delivered work, and frequency behaviour on a moderately dynamic load --
plus MobiCore for reference.

Run:  python examples/governor_comparison.py [load-percent]
"""

import sys

from repro import (
    AndroidDefaultPolicy,
    MobiCorePolicy,
    Platform,
    Session,
    SimulationConfig,
    nexus5_spec,
    summarize,
)
from repro.analysis.report import render_table
from repro.governors import GOVERNOR_REGISTRY
from repro.workloads import SineWorkload


def main() -> None:
    mean_load = float(sys.argv[1]) if len(sys.argv) > 1 else 35.0
    config = SimulationConfig(duration_seconds=60.0, seed=3, warmup_seconds=4.0)
    spec = nexus5_spec()

    def session(policy):
        platform = Platform.from_spec(spec)
        workload = SineWorkload(mean_load, 15.0, period_seconds=8.0)
        return summarize(
            Session(platform, workload, policy, config, pin_uncore_max=False).run()
        )

    rows = []
    for name in GOVERNOR_REGISTRY:
        if name == "userspace":
            continue  # needs an external speed writer; MobiCore plays that role
        summary = session(AndroidDefaultPolicy(governor_name=name))
        rows.append((name, summary))
    platform = Platform.from_spec(spec)
    rows.append(("mobicore", session(MobiCorePolicy.for_platform(platform))))

    rows.sort(key=lambda item: item[1].mean_power_mw)
    print(f"Sine workload around {mean_load:.0f}% global load, 60 s sessions\n")
    print(
        render_table(
            ("policy", "power mW", "energy J", "cores", "freq MHz", "work %"),
            [
                (
                    name,
                    f"{s.mean_power_mw:.0f}",
                    f"{s.energy_mj / 1000:.1f}",
                    f"{s.mean_online_cores:.2f}",
                    f"{s.mean_frequency_khz / 1000:.0f}",
                    f"{s.mean_scaled_load_percent:.1f}",
                )
                for name, s in rows
            ],
        )
    )
    print(
        "\n'work %' is executed work relative to platform max -- policies"
        "\ndelivering similar work at lower power are winning the trade."
    )


if __name__ == "__main__":
    main()
