"""A single CPU core: a live view of one slot in its topology's lists.

A core has a power state (section 2.1), a current OPP, and the busy
fraction it recorded during the last tick.  Per-core DVFS is legal on
the Nexus 5 because each core has an independent supply (section
4.1.2), so every core has its own frequency.  That state lives in the
per-core lists of a :class:`~repro.soc.topology.CpuTopology`, the one
place the tick loop reads and writes it; a :class:`CpuCore` reads those
lists and its setters validate, then write through to them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .core_state import CoreState, require_transition
from .opp import Opp, OppTable
from ..errors import CoreStateError, OppError
from ..units import require_fraction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .topology import CpuTopology

__all__ = ["CpuCore"]


class CpuCore:
    """One CPU core with independent DVFS and hotplug state.

    Args:
        core_id: Stable 0-based *global* identifier (numbered across all
            clusters of the topology); core 0 is the boot core and can
            never be offlined (Linux invariant).
        opp_table: The DVFS table shared by all cores of the cluster.
        ipc_scale: Work retired per cycle relative to the reference core
            type — 1.0 for a big/homogeneous core, < 1.0 for a little
            in-order core.  Scales :meth:`capacity_cycles`.
        topology: The topology whose lists hold this core's state, at
            index *core_id*.  A core built without one gets a one-core
            topology of its own.
    """

    __slots__ = ("core_id", "opp_table", "ipc_scale", "_topology", "_index")

    def __init__(
        self,
        core_id: int,
        opp_table: OppTable,
        ipc_scale: float = 1.0,
        topology: Optional["CpuTopology"] = None,
    ) -> None:
        if core_id < 0:
            raise CoreStateError(f"core_id must be non-negative, got {core_id}")
        if ipc_scale <= 0.0:
            raise CoreStateError(f"ipc_scale must be positive, got {ipc_scale}")
        self.core_id = core_id
        self.opp_table = opp_table
        self.ipc_scale = ipc_scale
        if topology is None:
            from .power_model import PowerParams
            from .topology import ClusterSpec, CpuTopology

            domain = ClusterSpec("cpu", "", 1, opp_table, PowerParams(0.0, 0.0, 0.0), ipc_scale)
            topology = CpuTopology((domain,))
            self._index = 0
        else:
            self._index = core_id
        self._topology = topology

    def __repr__(self) -> str:
        return (
            f"CpuCore(id={self.core_id}, state={self.state.value}, "
            f"freq={self.frequency_khz} kHz, busy={self.busy_fraction:.2f})"
        )

    # -- state ---------------------------------------------------------

    @property
    def state(self) -> CoreState:
        """Current power state."""
        topology, index = self._topology, self._index
        if not topology.online[index]:
            return CoreState.OFFLINE
        return CoreState.ACTIVE if topology.active[index] else CoreState.IDLE

    @property
    def is_online(self) -> bool:
        """True when the scheduler may place work here."""
        return self._topology.online[self._index]

    @property
    def transition_count(self) -> int:
        """Number of distinct-state transitions performed (hotplug churn metric)."""
        return self._topology.transitions[self._index]

    def set_state(self, new_state: CoreState) -> float:
        """Transition to *new_state*, returning the transition latency in seconds.

        Raises :class:`~repro.errors.CoreStateError` on an illegal
        transition or when offlining the boot core.
        """
        if new_state is CoreState.OFFLINE and self.core_id == 0:
            raise CoreStateError("core 0 is the boot core and cannot be offlined")
        current = self.state
        latency = require_transition(current, new_state)
        topology, index = self._topology, self._index
        if new_state is not current:
            topology.transitions[index] += 1
        topology.online[index] = new_state is not CoreState.OFFLINE
        topology.active[index] = new_state is CoreState.ACTIVE
        if new_state is CoreState.OFFLINE:
            topology.busy[index] = 0.0
        return latency

    # -- frequency -----------------------------------------------------

    @property
    def frequency_khz(self) -> int:
        """Current OPP frequency in kHz."""
        return self._topology.frequency_khz[self._index]

    @property
    def max_frequency_khz(self) -> int:
        """This core's own fmax — the top of its cluster's OPP ladder."""
        return self.opp_table.max_frequency_khz

    @property
    def opp(self) -> Opp:
        """Current OPP (frequency and voltage)."""
        return self.opp_table.at(self.frequency_khz)

    @property
    def voltage(self) -> float:
        """Current supply voltage in volts."""
        return self.opp.voltage

    def set_frequency(self, frequency_khz: int) -> None:
        """Set the core to an exact OPP frequency.

        The frequency must be a table entry; governors are expected to
        have quantised their target with ``floor``/``ceil`` already.
        """
        if frequency_khz not in self.opp_table:
            raise OppError(
                f"core {self.core_id}: {frequency_khz} kHz is not an OPP of {self.opp_table!r}"
            )
        self._topology.frequency_khz[self._index] = frequency_khz

    def set_target_frequency(self, target_khz: float, round_up: bool = True) -> int:
        """Quantise *target_khz* onto the OPP table and apply it.

        ``round_up=True`` (the default) picks the lowest OPP meeting the
        target, matching MobiCore's "round up to guarantee throughput"
        rule; ``round_up=False`` picks the highest OPP not above it.
        Returns the frequency actually set.
        """
        opp = self.opp_table.ceil(target_khz) if round_up else self.opp_table.floor(target_khz)
        self._topology.frequency_khz[self._index] = opp.frequency_khz
        return opp.frequency_khz

    # -- per-tick accounting --------------------------------------------

    @property
    def busy_fraction(self) -> float:
        """Fraction of the last tick this core spent executing (0-1)."""
        return self._topology.busy[self._index]

    def capacity_cycles(self, dt_seconds: float, quota: float = 1.0) -> float:
        """Reference cycles this core can retire in *dt_seconds* under a quota.

        An offline core has zero capacity.  Capacity is expressed in
        *reference* cycles — the raw cycle budget scaled by
        ``ipc_scale`` — so demands sized against a big core compare
        directly across heterogeneous clusters.  Multiplying by an
        ``ipc_scale`` of exactly 1.0 is a bit-exact no-op in IEEE-754,
        preserving the homogeneous parity contract.
        """
        require_fraction(quota, "quota")
        if not self.is_online:
            return 0.0
        return self.frequency_khz * 1000.0 * dt_seconds * quota * self.ipc_scale

    def account(self, busy_fraction: float) -> None:
        """Record the busy fraction for the tick and update ACTIVE/IDLE state.

        An online core with work becomes ACTIVE; one with none becomes
        IDLE (cpuidle entry).  Offline cores must be given zero work.
        """
        require_fraction(busy_fraction, "busy_fraction")
        topology, index = self._topology, self._index
        if not topology.online[index]:
            if busy_fraction > 0.0:
                raise CoreStateError(
                    f"core {self.core_id} is offline but was accounted busy={busy_fraction}"
                )
            topology.busy[index] = 0.0
            return
        topology.busy[index] = busy_fraction
        topology.active[index] = busy_fraction > 0.0
