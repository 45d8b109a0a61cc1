"""Workloads: the demand generators behind every experiment.

* :class:`BusyLoopApp` -- the paper's in-house kernel application
  (configurable busy loops, no memory accesses, ~40 ms idle period).
* synthetic patterns (constant / step / sine) for controlled tests.
* :class:`GeekbenchWorkload` -- a GeekBench-4-like phased benchmark
  producing a score.
* the five game workloads of the evaluation section, built on a frame
  pipeline that measures FPS.
"""

from .base import Workload, WorkloadContext
from .busyloop import BusyLoopApp
from .synthetic import ConstantWorkload, StepWorkload, SineWorkload
from .frames import FramePipeline
from .geekbench import GeekbenchWorkload, GeekbenchPhase
from .games import GameProfile, GameWorkload, GAME_PROFILES, game_workload

__all__ = [
    "Workload",
    "WorkloadContext",
    "BusyLoopApp",
    "ConstantWorkload",
    "StepWorkload",
    "SineWorkload",
    "FramePipeline",
    "GeekbenchWorkload",
    "GeekbenchPhase",
    "GameProfile",
    "GameWorkload",
    "GAME_PROFILES",
    "game_workload",
]
