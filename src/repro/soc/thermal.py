"""First-order thermal model of the CPU area, with optional throttling.

Figure 2(a) of the paper is an infrared image: at full stress the CPU
area of the single-core Nexus S reaches 26.9 degC while the quad-core
Nexus 5 reaches 42.1 degC.  A first-order RC node driven by CPU power
reproduces exactly that steady-state relationship:

    T_ss = T_ambient + R_th * P_cpu
    dT/dt = (T_ss - T) / tau

The model also implements the MSM8974's well-known thermal throttling:
when the junction temperature crosses ``throttle_temp_c`` the maximum
allowed OPP index steps down, and steps back up when the temperature
recovers below the hysteresis point.  Throttling is what keeps measured
power nearly flat when going from 2 to 4 fully-loaded cores at fmax
(Figure 4's "marginal power increase"): the extra cores force the whole
cluster below fmax.
"""

from __future__ import annotations

from dataclasses import dataclass

from .opp import OppTable
from ..errors import ConfigError
from ..units import require_non_negative, require_positive

__all__ = ["ThermalParams", "ThermalModel"]


@dataclass(frozen=True)
class ThermalParams:
    """Constants of the RC thermal node.

    Attributes:
        ambient_c: Ambient (and initial) temperature, degC.
        resistance_c_per_w: Thermal resistance from CPU power to the CPU
            area temperature the IR camera sees, degC per watt.
        time_constant_s: RC time constant of the node.
        throttle_temp_c: Junction temperature that triggers a throttle
            step; ``inf`` disables throttling.
        release_temp_c: Temperature below which one throttle step is
            released (must be below ``throttle_temp_c``).
    """

    ambient_c: float = 24.0
    resistance_c_per_w: float = 8.0
    time_constant_s: float = 12.0
    throttle_temp_c: float = float("inf")
    release_temp_c: float = float("-inf")

    def __post_init__(self) -> None:
        require_positive(self.resistance_c_per_w, "resistance_c_per_w")
        require_positive(self.time_constant_s, "time_constant_s")
        if self.release_temp_c >= self.throttle_temp_c:
            raise ConfigError(
                f"release_temp_c {self.release_temp_c} must be below "
                f"throttle_temp_c {self.throttle_temp_c}"
            )


class ThermalModel:
    """Integrates the RC node each tick and tracks the throttle cap."""

    def __init__(self, params: ThermalParams, opp_table: OppTable) -> None:
        self.params = params
        self.opp_table = opp_table
        self._temperature_c = params.ambient_c
        self._throttle_steps = 0
        self._injected_floor_steps = 0

    @property
    def temperature_c(self) -> float:
        """Current CPU-area temperature, degC."""
        return self._temperature_c

    @property
    def throttle_steps(self) -> int:
        """OPP steps currently removed from the top of the table.

        The maximum of the natural (temperature-driven) throttle state
        and any injected floor (:meth:`inject_throttle_floor`).
        """
        return max(self._throttle_steps, self._injected_floor_steps)

    @property
    def max_allowed_frequency_khz(self) -> int:
        """Highest OPP frequency currently permitted by thermal state."""
        index = len(self.opp_table) - 1 - self.throttle_steps
        return self.opp_table.by_index(max(index, 0)).frequency_khz

    def inject_throttle_floor(self, steps: int) -> None:
        """Force at least *steps* throttle steps, regardless of temperature.

        The fault-injection hook behind
        :class:`~repro.faults.plan.ThermalThrottleFault`: a platform
        thermal driver clamping the OPP table mid-session.  The natural
        (temperature-driven) throttle state keeps evolving underneath and
        takes over again once :meth:`clear_throttle_floor` is called.
        """
        if steps < 0:
            raise ConfigError(f"throttle floor must be non-negative, got {steps}")
        self._injected_floor_steps = min(steps, len(self.opp_table) - 1)

    def clear_throttle_floor(self) -> None:
        """Remove the injected throttle floor (natural state takes over)."""
        self._injected_floor_steps = 0

    def steady_state_c(self, cpu_power_mw: float) -> float:
        """Steady-state temperature at a constant CPU power."""
        require_non_negative(cpu_power_mw, "cpu_power_mw")
        return self.params.ambient_c + self.params.resistance_c_per_w * cpu_power_mw / 1000.0

    def step(self, cpu_power_mw: float, dt_seconds: float) -> float:
        """Advance the node by one tick; returns the new temperature.

        Also updates the throttle cap: one OPP step down per tick above
        the throttle threshold, one step up per tick below the release
        threshold (never past the table bounds).
        """
        require_non_negative(dt_seconds, "dt_seconds")
        target = self.steady_state_c(cpu_power_mw)
        alpha = min(dt_seconds / self.params.time_constant_s, 1.0)
        self._temperature_c += (target - self._temperature_c) * alpha
        if self._temperature_c > self.params.throttle_temp_c:
            self._throttle_steps = min(self._throttle_steps + 1, len(self.opp_table) - 1)
        elif self._temperature_c < self.params.release_temp_c and self._throttle_steps:
            self._throttle_steps -= 1
        return self._temperature_c

    def reset(self) -> None:
        """Return to ambient with no throttling (injected floors included)."""
        self._temperature_c = self.params.ambient_c
        self._throttle_steps = 0
        self._injected_floor_steps = 0
