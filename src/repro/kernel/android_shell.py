"""The Android control plane: sysfs paths wired to a live session.

Section 5.3: "All CPU features that are tweaked are easily accessible
and modifiable in the Android Linux architecture ... It is written in C
and sent to the system by command line through adb shell."  This module
builds the same interface over a :class:`~repro.kernel.engine.Session`:
the knob paths a rooted Nexus 5 exposes, readable and writable as
strings, so tools (and tests) can drive the simulated device exactly the
way the paper's adb-shell commands drove the real one.

Registered paths (per core N):

* ``/sys/devices/system/cpu/cpuN/online`` (rw)
* ``/sys/devices/system/cpu/cpuN/cpufreq/scaling_cur_freq`` (ro)
* ``/sys/devices/system/cpu/cpuN/cpufreq/scaling_setspeed`` (rw,
  the userspace-governor hook MobiCore deploys at)
* ``/sys/devices/system/cpu/cpuN/cpufreq/scaling_min_freq`` /
  ``scaling_max_freq`` (rw)

and globally:

* ``/sys/module/mpdecision/enabled`` (rw -- the paper's disable step)
* ``/sys/fs/cgroup/cpu/cpu.cfs_quota_us`` / ``cpu.cfs_period_us``
* ``/sys/class/thermal/thermal_zone0/temp`` (millidegrees, ro)
* ``/proc/stat/global_util`` (ro, percent)
* ``/sys/kernel/debug/tracing/...`` (the ftrace knob set, registered
  only when the session carries a tracepoint bus; see
  :mod:`repro.obs.debugfs`)

Writes take effect immediately on the session's kernel stack; an
actively deciding policy may of course override them on its next tick,
exactly as on the real device.
"""

from __future__ import annotations

from .engine import Session
from .sysfs import SysfsTree
from ..errors import ConfigError
from ..obs.debugfs import register_tracing_knobs

__all__ = ["build_sysfs"]


def _parse_bool(value: str) -> bool:
    text = value.strip().lower()
    if text in ("1", "y", "yes", "true", "on"):
        return True
    if text in ("0", "n", "no", "false", "off"):
        return False
    raise ConfigError(f"expected a boolean write, got {value!r}")


def build_sysfs(session: Session) -> SysfsTree:
    """Register the Android knob tree against *session*'s kernel stack."""
    tree = SysfsTree()
    platform = session.platform
    topology = platform.topology
    cpufreq = session.stack.cpufreq
    hotplug = session.stack.hotplug
    bandwidth = session.stack.bandwidth

    def online_writer(core_id: int):
        def write(value: str) -> None:
            mask = topology.online_mask
            mask[core_id] = _parse_bool(value)
            hotplug.apply_mask(mask)

        return write

    def setspeed_writer(core_id: int):
        def write(value: str) -> None:
            targets = [None] * len(topology)
            targets[core_id] = float(value)
            cpufreq.apply(targets)

        return write

    def limits_writer(core_id: int, which: str):
        def write(value: str) -> None:
            limits = cpufreq.limits(core_id)
            low = int(value) if which == "min" else limits.min_khz
            high = int(value) if which == "max" else limits.max_khz
            cpufreq.set_limits(core_id, low, high)

        return write

    for core in topology.cores:
        base = f"sys/devices/system/cpu/cpu{core.core_id}"
        tree.register(
            f"{base}/online",
            lambda core=core: int(core.is_online),
            online_writer(core.core_id),
        )
        tree.register(
            f"{base}/cpufreq/scaling_cur_freq",
            lambda core=core: core.frequency_khz,
        )
        tree.register(
            f"{base}/cpufreq/scaling_setspeed",
            lambda core=core: core.frequency_khz,
            setspeed_writer(core.core_id),
        )
        tree.register(
            f"{base}/cpufreq/scaling_min_freq",
            lambda cid=core.core_id: cpufreq.limits(cid).min_khz,
            limits_writer(core.core_id, "min"),
        )
        tree.register(
            f"{base}/cpufreq/scaling_max_freq",
            lambda cid=core.core_id: cpufreq.limits(cid).max_khz,
            limits_writer(core.core_id, "max"),
        )

    tree.register(
        "sys/module/mpdecision/enabled",
        lambda: int(hotplug.mpdecision_enabled),
        lambda value: hotplug.set_mpdecision(_parse_bool(value)),
    )
    tree.register(
        "sys/fs/cgroup/cpu/cpu.cfs_quota_us",
        lambda: bandwidth.quota_us,
        lambda value: bandwidth.set_quota(int(value) / bandwidth.period_us),
    )
    tree.register(
        "sys/fs/cgroup/cpu/cpu.cfs_period_us",
        lambda: bandwidth.period_us,
    )
    tree.register(
        "sys/class/thermal/thermal_zone0/temp",
        lambda: int(platform.thermal.temperature_c * 1000),
    )
    tree.register(
        "proc/stat/global_util",
        lambda: round(topology.global_utilization_percent(), 1),
    )
    if session.trace_bus is not None:
        register_tracing_knobs(tree, session.trace_bus)
    return tree
