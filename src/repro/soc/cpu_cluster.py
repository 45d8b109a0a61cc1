"""One frequency domain: the identical cores that share an OPP ladder.

The paper restricts itself to "a simple multicore architecture (embedding
same type of cores)" (section 3.4), i.e. one homogeneous cluster -- the
Nexus 5's four Krait 400 cores.  A :class:`CpuCluster` describes such a
domain inside a :class:`~repro.soc.topology.CpuTopology`: its index and
name, its OPP table, its IPC scale and the global ids of its cores.  It
holds no per-core state; online flags, frequencies and busy fractions
live in the topology's per-core lists, and the whole-set views (online
mask, utilization, capacity) are the topology's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .opp import OppTable
from ..errors import HotplugError

__all__ = ["CpuCluster"]


@dataclass(frozen=True)
class CpuCluster:
    """Static data of one frequency domain of a topology.

    Attributes:
        cluster_id: The domain's index in its topology (declaration order).
        name: Domain name ("cpu", "little", "big").
        opp_table: The DVFS ladder every core of the domain shares.
        ipc_scale: Work retired per cycle relative to the reference core
            type (1.0 on homogeneous platforms).
        core_ids: Global ids of the domain's cores, ascending.
    """

    cluster_id: int
    name: str
    opp_table: OppTable
    ipc_scale: float
    core_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.core_ids:
            raise HotplugError(f"cluster {self.name!r} needs at least one core")

    def __len__(self) -> int:
        return len(self.core_ids)
