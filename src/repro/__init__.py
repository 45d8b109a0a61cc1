"""MobiCore reproduction: adaptive hybrid CPU power management, simulated.

This library reproduces *"MobiCore: an adaptive hybrid approach for
power-efficient CPU management on Android devices"* (Broyde, 2017) as a
trace-driven simulation stack:

* :mod:`repro.soc` -- the hardware: CPU cores, OPP tables, the
  section 4.1 power model calibrated to the paper's Nexus 5
  measurements, thermal, GPU/memory, and the Figure 1 phone fleet.
* :mod:`repro.kernel` -- the OS: load-balancing scheduler, cpufreq,
  hotplug, the CPU bandwidth controller, utilization accounting, and
  the tick-loop :class:`~repro.kernel.engine.Session`.
* :mod:`repro.governors` -- the six stock Linux governors.
* :mod:`repro.policies` -- whole-system managers, including the
  Android-default baseline.
* :mod:`repro.core` -- the contribution: :class:`MobiCorePolicy`
  (quota control + DCS + Eq. 9 DVFS over ondemand).
* :mod:`repro.workloads` -- busy loops, a GeekBench-4-like benchmark,
  and the five evaluation games.
* :mod:`repro.metrics`, :mod:`repro.analysis`,
  :mod:`repro.experiments` -- measurement, comparison harnesses, and
  one driver per table/figure of the paper.

Quickstart::

    from repro import (
        Platform, Session, SimulationConfig,
        nexus5_spec, AndroidDefaultPolicy, MobiCorePolicy, game_workload,
    )

    spec = nexus5_spec()
    config = SimulationConfig(duration_seconds=120.0, seed=7)

    baseline = Session(
        Platform.from_spec(spec), game_workload("Subway Surf"),
        AndroidDefaultPolicy(), config,
    ).run()

    platform = Platform.from_spec(spec)
    mobicore = Session(
        platform, game_workload("Subway Surf"),
        MobiCorePolicy.for_platform(platform), config,
    ).run()

    saving = 1 - mobicore.mean_power_mw / baseline.mean_power_mw
    print(f"power saving: {saving:.1%}, fps {mobicore.mean_fps:.1f}")
"""

from .config import SimulationConfig
from .errors import ReproError
from .core import MobiCorePolicy, QuotaController, EnergyModel, OperatingPointOptimizer
from .kernel import Session, SessionResult
from .metrics import SessionSummary, summarize
from .policies import (
    AndroidDefaultPolicy,
    CpuPolicy,
    DcsOnlyPolicy,
    DvfsOnlyPolicy,
    PolicyDecision,
    RaceToIdlePolicy,
    StaticPolicy,
    SystemObservation,
)
from .soc import Platform, PlatformSpec, nexus5_spec, get_phone_spec
from .workloads import (
    BusyLoopApp,
    GeekbenchWorkload,
    GameWorkload,
    Workload,
    game_workload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SimulationConfig",
    "ReproError",
    "MobiCorePolicy",
    "QuotaController",
    "EnergyModel",
    "OperatingPointOptimizer",
    "Session",
    "SessionResult",
    "SessionSummary",
    "summarize",
    "AndroidDefaultPolicy",
    "CpuPolicy",
    "DcsOnlyPolicy",
    "DvfsOnlyPolicy",
    "PolicyDecision",
    "RaceToIdlePolicy",
    "StaticPolicy",
    "SystemObservation",
    "Platform",
    "PlatformSpec",
    "nexus5_spec",
    "get_phone_spec",
    "BusyLoopApp",
    "GeekbenchWorkload",
    "GameWorkload",
    "Workload",
    "game_workload",
]
