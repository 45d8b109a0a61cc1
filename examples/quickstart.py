#!/usr/bin/env python
"""Quickstart: MobiCore vs the Android default on one gaming session.

Runs the paper's headline experiment in miniature: a Subway Surf session
on the calibrated Nexus 5 under both policies, same demand seed, and
prints power, FPS, and hardware-usage deltas (the Figure 10-12
quantities).

Run:  python examples/quickstart.py
"""

from repro import (
    AndroidDefaultPolicy,
    MobiCorePolicy,
    Platform,
    Session,
    SimulationConfig,
    game_workload,
    nexus5_spec,
    summarize,
)


def run_session(policy_factory, config):
    platform = Platform.from_spec(nexus5_spec())
    policy = policy_factory(platform)
    session = Session(platform, game_workload("Subway Surf"), policy, config)
    return summarize(session.run())


def main() -> None:
    config = SimulationConfig(duration_seconds=120.0, seed=7, warmup_seconds=4.0)

    print("Simulating a 2-minute Subway Surf session on the Nexus 5 ...")
    baseline = run_session(lambda p: AndroidDefaultPolicy(), config)
    mobicore = run_session(MobiCorePolicy.for_platform, config)

    saving = mobicore.power_saving_percent(baseline)
    print(f"\n{'':16s}{'android':>10s}{'mobicore':>10s}")
    print(f"{'power (mW)':16s}{baseline.mean_power_mw:10.0f}{mobicore.mean_power_mw:10.0f}")
    print(f"{'FPS':16s}{baseline.mean_fps:10.1f}{mobicore.mean_fps:10.1f}")
    print(f"{'active cores':16s}{baseline.mean_online_cores:10.2f}{mobicore.mean_online_cores:10.2f}")
    print(
        f"{'frequency (MHz)':16s}{baseline.mean_frequency_khz / 1000:10.0f}"
        f"{mobicore.mean_frequency_khz / 1000:10.0f}"
    )
    print(f"{'quota':16s}{baseline.mean_quota:10.2f}{mobicore.mean_quota:10.2f}")
    print(f"\nMobiCore power saving: {saving:+.1f}%")
    print(f"FPS ratio: {mobicore.fps_ratio(baseline):.2f} (paper band: ~0.78)")


if __name__ == "__main__":
    main()
