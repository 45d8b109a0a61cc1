"""OS substrate: a Linux-like kernel for the trace-driven simulation.

These modules reproduce the kernel mechanisms the paper's policies sit
on: a load-balancing scheduler, the cpufreq and hotplug subsystems, the
CPU bandwidth (quota) controller, utilization accounting, a sysfs-like
knob tree, event tracing, and the tick-loop simulator that wires it all
to a :class:`~repro.soc.platform.Platform`.
"""

from .clock import SimClock
from .task import Task, TaskDemand
from .scheduler import LoadBalancingScheduler, DispatchResult
from .procstat import ProcStat
from .cpufreq import CpufreqSubsystem, FrequencyLimits
from .cpuidle import CpuidleStats
from .hotplug import HotplugSubsystem
from .cgroup import CpuBandwidthController
from .sysfs import SysfsTree
from .trace_buffer import TraceBuffer, sequential_sum
from .tracing import TraceRecorder
from .engine import KernelStack, Session, SessionResult

__all__ = [
    "KernelStack",
    "Session",
    "SessionResult",
    "SimClock",
    "Task",
    "TaskDemand",
    "LoadBalancingScheduler",
    "DispatchResult",
    "ProcStat",
    "CpufreqSubsystem",
    "FrequencyLimits",
    "CpuidleStats",
    "HotplugSubsystem",
    "CpuBandwidthController",
    "SysfsTree",
    "TraceBuffer",
    "TraceRecorder",
    "sequential_sum",
]
