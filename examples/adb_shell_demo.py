#!/usr/bin/env python
"""Drive the simulated Nexus 5 the way the paper drove the real one.

Section 5.3 deploys MobiCore "by command line through adb shell" after
disabling the mpdecision service (section 2.2.2).  This demo replays
that operator session against the simulated sysfs control plane:
inspect the knobs, watch mpdecision veto an offline request, disable it,
offline cores, set a userspace speed, and shrink the CFS quota.

Run:  python examples/adb_shell_demo.py
"""

from repro import Platform, Session, SimulationConfig, StaticPolicy, nexus5_spec
from repro.kernel.android_shell import build_sysfs
from repro.workloads import ConstantWorkload


def shell(tree, command: str) -> None:
    """Pretty-print one cat/echo interaction."""
    parts = command.split()
    if parts[0] == "cat":
        print(f"$ {command}\n{tree.read(parts[1])}")
    elif parts[0] == "echo":
        value, _, path = command[5:].partition(" > ")
        tree.write(path.strip(), value.strip())
        print(f"$ {command}")
    print()


def main() -> None:
    platform = Platform.from_spec(nexus5_spec())
    session = Session(
        platform,
        ConstantWorkload(20.0),
        StaticPolicy(4, 960_000),
        SimulationConfig(duration_seconds=2.0),
        pin_uncore_max=False,
    )
    session.stack.hotplug.set_mpdecision(True)  # a stock device boots with it on
    tree = build_sysfs(session)

    print("# The knob tree a rooted device exposes:")
    for path in tree.list("sys/devices/system/cpu/cpu0"):
        print(f"  {path}")
    print()

    print("# mpdecision protects the phone from turning off cores (sec. 2.2.2):")
    shell(tree, "echo 0 > /sys/devices/system/cpu/cpu3/online")
    shell(tree, "cat /sys/devices/system/cpu/cpu3/online")

    print("# ... so the paper disables it first, then offlines:")
    shell(tree, "echo 0 > /sys/module/mpdecision/enabled")
    shell(tree, "echo 0 > /sys/devices/system/cpu/cpu3/online")
    shell(tree, "echo 0 > /sys/devices/system/cpu/cpu2/online")
    shell(tree, "cat /sys/devices/system/cpu/cpu2/online")

    print("# MobiCore deploys at the userspace governor's setspeed hook:")
    shell(tree, "echo 1190400 > /sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed")
    shell(tree, "cat /sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq")

    print("# ... and shrinks the global CPU bandwidth via the CFS quota:")
    shell(tree, "cat /sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    shell(tree, "echo 90000 > /sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    shell(tree, "cat /sys/fs/cgroup/cpu/cpu.cfs_quota_us")

    print("# Final hardware state:")
    print(f"  online mask: {platform.topology.online_mask}")
    print(f"  cpu0 frequency: {platform.topology.core(0).frequency_khz} kHz")
    print(f"  quota: {session.stack.bandwidth.quota:.2f}")


if __name__ == "__main__":
    main()
