"""The hotplug subsystem (DCS mechanism) and the mpdecision veto.

Section 2.2.2: "Hotplug enables the kernel to dynamically activate more
or less hardware components ... mpdecision is a service which protects
the phone from turning off cores.  In order to be able to activate that
feature, we need to inactivate the mpdecision service."

This module is the *mechanism*: it applies online masks to the
topology, enforces the veto while mpdecision is enabled, and accounts
transition latency and churn.  Hotplug *drivers* (the decision logic) live in
:mod:`repro.policies`.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import HotplugError
from ..obs.bus import NULL_TRACEPOINT, TracepointBus
from ..soc.topology import CpuTopology
from ..obs.events import HotplugEvent, HotplugFailureEvent, MpdecisionVetoEvent

__all__ = ["HotplugSubsystem"]


class HotplugSubsystem:
    """Applies online-mask requests to a topology, honouring mpdecision.

    Masks are over global core ids, so heterogeneous devices hotplug
    through the exact code path homogeneous ones do.
    """

    def __init__(self, topology: CpuTopology, mpdecision_enabled: bool = True) -> None:
        self.topology = topology
        self._mpdecision_enabled = mpdecision_enabled
        self._failing_requests = False
        self._failed_requests = 0
        self._transition_latency_seconds = 0.0
        self._vetoed_offline_requests = 0
        self._tp_state = NULL_TRACEPOINT
        self._tp_veto = NULL_TRACEPOINT
        self._tp_failed = NULL_TRACEPOINT

    def attach_trace(self, bus: TracepointBus) -> None:
        """Register this subsystem's tracepoints on *bus*."""
        self._tp_state = bus.tracepoint("hotplug", "core_state", HotplugEvent)
        self._tp_veto = bus.tracepoint("hotplug", "mpdecision_veto", MpdecisionVetoEvent)
        self._tp_failed = bus.tracepoint(
            "hotplug", "request_failed", HotplugFailureEvent
        )

    @property
    def mpdecision_enabled(self) -> bool:
        """True while the stock mpdecision service blocks offlining."""
        return self._mpdecision_enabled

    def set_mpdecision(self, enabled: bool) -> None:
        """Enable or disable mpdecision (the paper disables it via adb shell)."""
        self._mpdecision_enabled = enabled

    def set_request_failure(self, failing: bool) -> None:
        """Arm or disarm injected hotplug failure (the chaos hook).

        While armed, :meth:`apply_mask` discards requests wholesale and
        the topology keeps its current state — a wedged hotplug notifier
        chain, not an error: callers see the unchanged effective mask.
        """
        self._failing_requests = bool(failing)

    @property
    def failed_requests(self) -> int:
        """Mask requests dropped by injected failure since the last reset."""
        return self._failed_requests

    @property
    def transition_latency_seconds(self) -> float:
        """Accumulated hotplug transition latency (hotplug churn cost)."""
        return self._transition_latency_seconds

    @property
    def vetoed_offline_requests(self) -> int:
        """Offline requests swallowed by mpdecision."""
        return self._vetoed_offline_requests

    @property
    def transition_count(self) -> int:
        """Total core state transitions performed on the topology."""
        return sum(self.topology.transitions)

    def apply_mask(self, mask: Sequence[bool]) -> List[bool]:
        """Request an online mask; returns the mask actually in effect.

        While mpdecision is enabled, offline requests are vetoed: cores
        currently online stay online (onlining more is always allowed).
        """
        topology = self.topology
        online = topology.online
        if len(mask) != len(online):
            raise HotplugError(
                f"mask has {len(mask)} entries for {len(online)} cores"
            )
        if self._failing_requests:
            changes = sum(1 for want, have in zip(mask, online) if want != have)
            if changes:
                self._failed_requests += 1
                tp = self._tp_failed
                if tp.enabled:
                    tp.emit(requested_changes=changes)
            return list(online)
        effective = list(mask)
        if self._mpdecision_enabled:
            for core_id, on in enumerate(online):
                if on and not effective[core_id]:
                    effective[core_id] = True
                    self._vetoed_offline_requests += 1
                    tp = self._tp_veto
                    if tp.enabled:
                        tp.emit(core=core_id)
        if effective != online:
            tp = self._tp_state
            before = list(online)
            self._transition_latency_seconds += topology.set_online_mask(effective)
            if tp.enabled:
                for core_id, (was, now) in enumerate(zip(before, online)):
                    if was != now:
                        tp.emit(
                            core=core_id,
                            online=now,
                            util_percent=tp.bus.ctx_util_percent,
                            cluster=topology.cluster_ids[core_id],
                        )
        return list(online)

    def apply_count(self, count: int) -> List[bool]:
        """Request exactly *count* online cores (lowest ids first)."""
        if not 1 <= count <= len(self.topology):
            raise HotplugError(
                f"online count must be in 1..{len(self.topology)}, got {count}"
            )
        mask = [i < count for i in range(len(self.topology))]
        return self.apply_mask(mask)

    def reset(self) -> None:
        """Zero accounting, including per-core transition counters.

        Topology *state* (online mask, frequencies) is reset separately via
        :meth:`~repro.soc.topology.CpuTopology.reset`; call that first so
        the boot-state transitions it performs are not counted against the
        new session.
        """
        self._transition_latency_seconds = 0.0
        self._vetoed_offline_requests = 0
        self._failing_requests = False
        self._failed_requests = 0
        transitions = self.topology.transitions
        transitions[:] = [0] * len(transitions)
