"""The CPU energy model of paper section 4.1 (equations 1-7).

The model decomposes platform power into:

* **dynamic** power per busy core, ``Pd = Ceff * f * V^2`` (Eq. 1);
* **static** (leakage) power per online core, ``Ps = V * Ileak(V)``
  (Eq. 2) -- we model ``Ileak`` as a power law in V fitted to the paper's
  two measured anchors (47 mW at fmin/0.9 V, 120 mW at fmax/1.2 V);
* **cache / memory-path** power, frequency- and activity-dependent and
  independent of the core count (Eq. 4);
* a **cluster overhead** drawn once whenever two or more cores are
  online (shared L2 / interconnect domain) -- this is what makes power a
  non-linear function of the core count, the effect Figure 4 measures;
* a constant **platform base** (rails, sensors, the measurement rig).

Energy is the integral of power over a period (Eqs. 5-7); with our
fixed-tick simulation that is a sum of ``P * dt`` terms, and
:meth:`CpuPowerModel.energy_global_dvfs_mj` provides the closed form of
Eq. (7) for validation tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, List, Mapping, Tuple

from .opp import Opp, OppTable
from ..errors import ConfigError
from ..units import require_fraction, require_non_negative

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .topology import CpuTopology

__all__ = ["PowerParams", "PowerBreakdown", "CpuPowerModel"]


@dataclass(frozen=True)
class PowerParams:
    """Calibration constants of the analytic power model.

    Attributes:
        ceff_mw_per_ghz_v2: Effective switched capacitance term; dynamic
            power of one busy core is ``ceff * f_GHz * V^2`` mW (Eq. 1).
            Section 4.2 fixes Ceff to a constant (IPC term set to 0).
        leak_coefficient_mw: ``c`` in the static-power law ``Ps = c * V^p``.
        leak_exponent: ``p`` in the static-power law.  ``Ps = V * Ileak``
            (Eq. 2) with ``Ileak = (c/1) * V^(p-1)``.
        cluster_overhead_base_mw: Shared-domain power when >= 2 cores are
            online, at fmin.
        cluster_overhead_span_mw: Additional shared-domain power at fmax
            (linear in the mean online-frequency fraction).
        cache_base_mw: Memory-path power at fmin, scaled by mean busy
            fraction (Eq. 4's Pcache, "dependent on the frequency").
        cache_span_mw: Additional memory-path power at fmax.
        platform_base_mw: Floor power of the rest of the platform with the
            screen off and airplane mode on (section 3.1 setup).
    """

    ceff_mw_per_ghz_v2: float
    leak_coefficient_mw: float
    leak_exponent: float
    cluster_overhead_base_mw: float = 0.0
    cluster_overhead_span_mw: float = 0.0
    cache_base_mw: float = 0.0
    cache_span_mw: float = 0.0
    platform_base_mw: float = 0.0

    def __post_init__(self) -> None:
        require_non_negative(self.ceff_mw_per_ghz_v2, "ceff_mw_per_ghz_v2")
        require_non_negative(self.leak_coefficient_mw, "leak_coefficient_mw")
        require_non_negative(self.cluster_overhead_base_mw, "cluster_overhead_base_mw")
        require_non_negative(self.cluster_overhead_span_mw, "cluster_overhead_span_mw")
        require_non_negative(self.cache_base_mw, "cache_base_mw")
        require_non_negative(self.cache_span_mw, "cache_span_mw")
        require_non_negative(self.platform_base_mw, "platform_base_mw")

    @classmethod
    def from_static_anchors(
        cls,
        ceff_mw_per_ghz_v2: float,
        static_at_vmin_mw: float,
        static_at_vmax_mw: float,
        vmin: float,
        vmax: float,
        **kwargs: float,
    ) -> "PowerParams":
        """Fit the leakage power law through two measured (V, Ps) anchors.

        The paper measured 47 mW at fmin (0.9 V) and 120 mW at fmax
        (1.2 V) on the Nexus 5 (section 4.1.2); this constructor solves
        ``Ps = c * V^p`` through those two points.
        """
        if vmin <= 0 or vmax <= 0 or vmax <= vmin:
            raise ConfigError(f"need 0 < vmin < vmax, got vmin={vmin}, vmax={vmax}")
        if static_at_vmin_mw <= 0 or static_at_vmax_mw <= static_at_vmin_mw:
            raise ConfigError(
                "need 0 < Ps(vmin) < Ps(vmax), got "
                f"{static_at_vmin_mw} and {static_at_vmax_mw}"
            )
        exponent = math.log(static_at_vmax_mw / static_at_vmin_mw) / math.log(vmax / vmin)
        coefficient = static_at_vmin_mw / (vmin ** exponent)
        return cls(
            ceff_mw_per_ghz_v2=ceff_mw_per_ghz_v2,
            leak_coefficient_mw=coefficient,
            leak_exponent=exponent,
            **kwargs,
        )


@dataclass(frozen=True)
class PowerBreakdown:
    """Itemised platform power for one tick, all in milliwatts."""

    per_core_mw: List[float]
    dynamic_mw: float
    static_mw: float
    cluster_overhead_mw: float
    cache_mw: float
    base_mw: float
    uncore_mw: float

    @property
    def cpu_mw(self) -> float:
        """CPU-attributable power (cores + shared CPU domain + cache)."""
        return self.dynamic_mw + self.static_mw + self.cluster_overhead_mw + self.cache_mw

    @property
    def total_mw(self) -> float:
        """Total platform power as the Monsoon meter would see it."""
        return self.cpu_mw + self.base_mw + self.uncore_mw


class CpuPowerModel:
    """Evaluates the section-4.1 power model for a live domain or a hypothesis.

    Two entry points:

    * :meth:`breakdown` reads one frequency domain of a live
      :class:`~repro.soc.topology.CpuTopology` each tick (used by the
      simulator's power meter);
    * :meth:`predict_total_mw` evaluates a hypothetical operating point
      ``(n cores, frequency, utilization)`` (used by MobiCore's
      operating-point optimizer, Eq. 10).

    Attributes:
        opp_terms: Read-only map from each OPP's frequency, in ascending
            order, to its ``(dynamic_mw, static_mw, span_fraction)``: the
            one-busy-core dynamic power, the static power and the span
            fraction, computed once by the methods below -- the exact
            floats a per-tick evaluation would produce.  The batch engine
            and the energy-aware policy build their per-OPP arrays from it.
    """

    def __init__(self, params: PowerParams, opp_table: OppTable) -> None:
        self.params = params
        self.opp_table = opp_table
        self.opp_terms: Mapping[int, Tuple[float, float, float]] = MappingProxyType({
            opp.frequency_khz: (
                self.dynamic_power_mw(opp),
                self.static_power_mw(opp),
                opp_table.span_fraction(opp.frequency_khz),
            )
            for opp in opp_table
        })

    # -- per-component terms ----------------------------------------------

    def dynamic_power_mw(self, opp: Opp) -> float:
        """Eq. (1): dynamic power of one fully-busy core at *opp*."""
        return self.params.ceff_mw_per_ghz_v2 * opp.frequency_ghz * opp.voltage ** 2

    def static_power_mw(self, opp: Opp) -> float:
        """Eq. (2): leakage power of one online core at *opp*'s voltage."""
        return self.params.leak_coefficient_mw * opp.voltage ** self.params.leak_exponent

    def core_power_mw(self, opp: Opp, busy_fraction: float, online: bool) -> float:
        """Power of one core: busy-weighted dynamic plus static while online."""
        require_fraction(busy_fraction, "busy_fraction")
        if not online:
            return 0.0
        return busy_fraction * self.dynamic_power_mw(opp) + self.static_power_mw(opp)

    def cluster_overhead_mw(self, online_count: int, mean_freq_fraction: float) -> float:
        """Shared-domain power; zero with a single core online.

        Like :meth:`cache_power_mw`, a formula over fractions its callers
        (:meth:`breakdown`, :meth:`predict_total_mw`) have produced or
        checked, so it does not re-validate them.
        """
        if online_count < 2:
            return 0.0
        return (
            self.params.cluster_overhead_base_mw
            + self.params.cluster_overhead_span_mw * mean_freq_fraction
        )

    def cache_power_mw(self, mean_busy_fraction: float, mean_freq_fraction: float) -> float:
        """Eq. (4)'s Pcache: activity- and frequency-dependent, core-count independent."""
        return mean_busy_fraction * (
            self.params.cache_base_mw + self.params.cache_span_mw * mean_freq_fraction
        )

    # -- live domain evaluation -----------------------------------------------

    def breakdown(
        self, topology: "CpuTopology", uncore_mw: float = 0.0, cluster_id: int = 0
    ) -> PowerBreakdown:
        """Itemised power of one domain of *topology* at its current tick state.

        Reads the topology's per-core lists for the cores of cluster
        *cluster_id* (the only cluster of a homogeneous platform), in
        core-id order, with the same float expressions and order as
        the per-component methods; the caller's *uncore_mw* is taken
        as given.
        """
        online = topology.online
        frequency = topology.frequency_khz
        busy = topology.busy
        terms = self.opp_terms
        per_core: List[float] = []
        spans: List[float] = []
        busy_online: List[float] = []
        dynamic = 0.0
        static = 0.0
        for core_id in topology.clusters[cluster_id].core_ids:
            if not online[core_id]:
                per_core.append(0.0)
                continue
            dynamic_one, s, span = terms[frequency[core_id]]
            fraction = busy[core_id]
            d = fraction * dynamic_one
            dynamic += d
            static += s
            per_core.append(d + s)
            spans.append(span)
            busy_online.append(fraction)
        count = len(spans)
        if count:
            mean_freq_fraction = sum(spans) / count
            mean_busy = sum(busy_online) / count
        else:
            mean_freq_fraction = 0.0
            mean_busy = 0.0
        return PowerBreakdown(
            per_core_mw=per_core,
            dynamic_mw=dynamic,
            static_mw=static,
            cluster_overhead_mw=self.cluster_overhead_mw(count, mean_freq_fraction),
            cache_mw=self.cache_power_mw(mean_busy, mean_freq_fraction),
            base_mw=self.params.platform_base_mw,
            uncore_mw=uncore_mw,
        )

    # -- hypothetical operating points ---------------------------------------

    def predict_total_mw(
        self,
        online_count: int,
        frequency_khz: int,
        busy_fraction: float,
        uncore_mw: float = 0.0,
    ) -> float:
        """Predict platform power at a hypothetical operating point.

        All *online_count* cores run at *frequency_khz* with the given
        per-core busy fraction.  This is the quantity MobiCore minimises
        when comparing (n, f) combinations (Eq. 10 applied to n cores).
        The per-OPP terms are the ones :meth:`breakdown` reads, with the
        per-component methods' float expressions.
        """
        if online_count < 0:
            raise ConfigError(f"online_count must be non-negative, got {online_count}")
        require_fraction(busy_fraction, "busy_fraction")
        terms = self.opp_terms.get(frequency_khz)
        if terms is None:
            self.opp_table.at(frequency_khz)  # raises OppError: not an OPP
        dynamic, static, freq_fraction = terms
        per_core = busy_fraction * dynamic + static
        overhead = self.cluster_overhead_mw(online_count, freq_fraction)
        cache = self.cache_power_mw(busy_fraction if online_count else 0.0, freq_fraction)
        return (
            online_count * per_core
            + overhead
            + cache
            + self.params.platform_base_mw
            + uncore_mw
        )

    def predict_cpu_mw(
        self, online_count: int, frequency_khz: int, busy_fraction: float
    ) -> float:
        """CPU-attributable part of :meth:`predict_total_mw` (baseline removed).

        Section 3.2: uncore contributions "will be stable [so] we will be
        able to remove [them] from our measurements".
        """
        return self.predict_total_mw(online_count, frequency_khz, busy_fraction) - (
            self.params.platform_base_mw
        )

    # -- energy (Eqs. 5-7) ----------------------------------------------------

    @staticmethod
    def energy_mj(power_mw: float, dt_seconds: float) -> float:
        """Eq. (5) discretised: energy of one tick in millijoules."""
        require_non_negative(power_mw, "power_mw")
        require_non_negative(dt_seconds, "dt_seconds")
        return power_mw * dt_seconds

    def energy_global_dvfs_mj(
        self,
        online_count: int,
        frequency_khz: int,
        busy_fraction: float,
        period_seconds: float,
    ) -> float:
        """Eq. (7): energy of n cores under global DVFS over a period T.

        ``E = T * (n * (u * Pd(f, V) + Ps(V)) + Pcache(f) + Poverhead + Pbase)``.
        """
        require_non_negative(period_seconds, "period_seconds")
        power = self.predict_total_mw(online_count, frequency_khz, busy_fraction)
        return power * period_seconds
