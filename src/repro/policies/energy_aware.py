"""An EAS-style energy-aware placement policy for big.LITTLE platforms.

Linux's Energy Aware Scheduler picks task placements by consulting an
energy model of the CPU topology instead of raw capacity alone.  This
policy reproduces that decision shape at the tick granularity of our
simulator: each tick it

1. measures the platform's demand in **IPC-scaled work** (instructions
   per second), so a cycle on a little core and a cycle on a big core
   are weighed by what they actually retire;
2. considers candidate placements -- how many cores of each frequency
   domain to keep online -- and, per placement, the cross product of
   per-domain operating points;
3. prices every candidate with the section-4.1 power model
   (:meth:`~repro.soc.power_model.CpuPowerModel.predict_cpu_mw`, one
   evaluation per domain) in a few whole-array numpy operations over a
   candidate table built once per policy: one row per placement, one
   column per OPP combination, each cell holding its capacity and its
   per-domain power terms.  Costs add up domain by domain in the scalar
   model's float order, and the cheapest feasible candidate wins;
4. applies hysteresis before changing the online mask, so the placement
   does not thrash between adjacent operating points.

On a homogeneous platform the policy degenerates to a model-driven
(n, f) optimiser over the single domain -- it runs anywhere, but its
reason to exist is the heterogeneous case: under a sustained spinning
load it discovers that four little cores at a mid OPP beat "everything
online at fmax" (the race-to-idle placement) by a wide margin, which is
exactly the comparison the big.LITTLE end-to-end test pins down.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .base import CpuPolicy, PolicyDecision, SystemObservation
from ..errors import ConfigError
from ..soc.power_model import CpuPowerModel
from ..soc.topology import ClusterSpec
from ..units import require_fraction, require_positive

__all__ = ["EnergyAwarePolicy"]


def _opp_options(spec: ClusterSpec) -> Tuple[np.ndarray, ...]:
    """Per-OPP terms of one domain, as arrays indexed by OPP.

    ``(capacity_ips, frequency_khz, dynamic_mw, static_mw,
    cluster_overhead_mw, cache_mw)``: one core's capacity, the model's
    Eq. (1)/(2) terms from the domain's own
    :class:`~repro.soc.power_model.CpuPowerModel`, the shared-domain
    overhead and the cache power at full busy.  Each is computed with
    the same expression ``predict_cpu_mw`` uses, so a candidate's cost
    is exactly that model evaluated inline.
    """
    terms = CpuPowerModel(spec.power_params, spec.opp_table).opp_terms
    params = spec.power_params
    dynamic, static, spans = zip(*terms.values())
    return (
        np.array([spec.ipc_scale * 1000.0 * frequency for frequency in terms]),
        np.array(list(terms), dtype=np.int64),
        np.array(dynamic),
        np.array(static),
        np.array(
            [
                params.cluster_overhead_base_mw + params.cluster_overhead_span_mw * span
                for span in spans
            ]
        ),
        np.array([params.cache_base_mw + params.cache_span_mw * span for span in spans]),
    )


class EnergyAwarePolicy(CpuPolicy):
    """Model-driven placement over frequency domains (EAS at tick scale).

    Args:
        cluster_specs: The platform's frequency domains, in global
            core-id order (the first spec owns core 0, the boot core).
        target_utilization: Headroom factor: the chosen placement must
            carry the measured demand at or below this busy fraction,
            so transient growth does not immediately saturate.
        switch_margin_percent: A placement with a different online mask
            is only adopted when it predicts at least this much cheaper
            CPU power than staying put (hysteresis against thrash).
        min_residency_ticks: Minimum ticks between online-mask changes;
            frequency moves within a placement are never held back.
        burst_threshold_percent: A core busier than this is considered
            saturated -- measured load then under-reports true demand.
        burst_boost: Demand multiplier applied while saturated, so the
            placement search can climb out of a too-small configuration.

    Attributes:
        placements: Every per-domain online-count vector the topology
            allows, in ``itertools.product`` order; the first domain owns
            the boot core, so its count never drops to zero.  Row ``r``
            of :meth:`price_placements` is ``placements[r]``.
    """

    def __init__(
        self,
        cluster_specs: Sequence[ClusterSpec],
        target_utilization: float = 0.8,
        switch_margin_percent: float = 5.0,
        min_residency_ticks: int = 3,
        burst_threshold_percent: float = 95.0,
        burst_boost: float = 1.5,
    ) -> None:
        if not cluster_specs:
            raise ConfigError("EnergyAwarePolicy needs at least one cluster spec")
        require_fraction(target_utilization, "target_utilization")
        if target_utilization <= 0.0:
            raise ConfigError("target_utilization must be positive")
        if switch_margin_percent < 0.0:
            raise ConfigError(
                f"switch_margin_percent must be >= 0, got {switch_margin_percent}"
            )
        if min_residency_ticks < 0:
            raise ConfigError(
                f"min_residency_ticks must be >= 0, got {min_residency_ticks}"
            )
        if not 0.0 < burst_threshold_percent <= 100.0:
            raise ConfigError(
                "burst_threshold_percent must lie in (0, 100], "
                f"got {burst_threshold_percent}"
            )
        require_positive(burst_boost, "burst_boost")
        self.name = "energy-aware"
        self.cluster_specs = tuple(cluster_specs)
        self.target_utilization = target_utilization
        self.switch_margin_percent = switch_margin_percent
        self.min_residency_ticks = min_residency_ticks
        self.burst_threshold_percent = burst_threshold_percent
        self.burst_boost = burst_boost

        # The topology, by global core id: its domain, the domain's IPC
        # scale, and per domain its member cores in id order.
        self._layout = tuple(
            domain
            for domain, spec in enumerate(self.cluster_specs)
            for _ in range(spec.num_cores)
        )
        self._num_cores = len(self._layout)
        self._ipc_scale = tuple(self.cluster_specs[d].ipc_scale for d in self._layout)
        self._members = tuple(
            tuple(core for core, d in enumerate(self._layout) if d == domain)
            for domain in range(len(self.cluster_specs))
        )
        self._fmax = tuple(spec.opp_table.max_frequency_khz for spec in self.cluster_specs)
        self._build_candidate_table()
        self._row: Optional[int] = None
        self._ticks_since_switch = 0

    @classmethod
    def for_platform_spec(cls, platform_spec, **kwargs) -> "EnergyAwarePolicy":
        """Build the policy from a :class:`~repro.soc.platform.PlatformSpec`."""
        return cls(platform_spec.cluster_specs(), **kwargs)

    def reset(self) -> None:
        """Forget the held placement (fresh session, fresh hysteresis)."""
        self._row = None
        self._ticks_since_switch = 0

    # -- the candidate table -------------------------------------------------

    def _build_candidate_table(self) -> None:
        """Enumerate every (placement, OPP combination) candidate once.

        Row ``r`` holds placement ``self.placements[r]``; its columns
        are the cross product of its active domains' OPPs in
        ``itertools.product`` order, so a first-minimum ``argmin`` keeps
        the first of equally cheap combinations.  A row with fewer
        combinations than the widest is padded with NaN capacity, which
        fails every feasibility comparison.  Per domain, each cell holds
        the domain's core count and its OPP's power terms, with the
        cluster overhead only where the count is at least two; a domain
        a placement powers down holds zeros, so it adds an exact ``+0.0``.
        """
        options = [_opp_options(spec) for spec in self.cluster_specs]
        self.placements = tuple(
            itertools.product(
                *(
                    range(1 if domain == 0 else 0, spec.num_cores + 1)
                    for domain, spec in enumerate(self.cluster_specs)
                )
            )
        )
        combos = []
        for counts in self.placements:
            active = [domain for domain, count in enumerate(counts) if count > 0]
            sizes = [len(options[domain][0]) for domain in active]
            combos.append((active, np.indices(sizes).reshape(len(active), -1)))
        shape = (len(self.placements), max(grid.shape[1] for _, grid in combos))
        domains = len(self.cluster_specs)
        capacity = np.full(shape, np.nan)
        # Per domain: count, dynamic, static, overhead, cache (price order).
        terms = np.zeros((domains, 5) + shape)
        frequency = np.zeros(shape + (domains,), dtype=np.int64)
        for row, (counts, (active, grid)) in enumerate(zip(self.placements, combos)):
            cells = (row, slice(0, grid.shape[1]))
            # Python's sum(), domain by domain: the scalar capacity order.
            capacity[cells] = sum(
                counts[domain] * options[domain][0][index]
                for domain, index in zip(active, grid)
            )
            for domain, index in zip(active, grid):
                _, freqs, dynamic, static, overhead, cache = options[domain]
                terms[domain, 0][cells] = counts[domain]
                terms[domain, 1][cells] = dynamic[index]
                terms[domain, 2][cells] = static[index]
                if counts[domain] >= 2:
                    terms[domain, 3][cells] = overhead[index]
                terms[domain, 4][cells] = cache[index]
                frequency[row, : grid.shape[1], domain] = freqs[index]
        self._capacity = capacity
        self._positive = capacity > 0.0
        self._terms = tuple(tuple(domain_terms) for domain_terms in terms)
        self._frequency = frequency
        self._rows = np.arange(len(self.placements))
        self._sizes = np.array([sum(counts) for counts in self.placements])

    def price_placements(
        self, demand_ips: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cheapest feasible operating point of every placement.

        Returns ``(cost_mw, frequencies_khz, feasible)``, one entry per
        row of :attr:`placements`: the predicted CPU power of the row's
        cheapest OPP combination that carries *demand_ips* within the
        headroom target, that combination's per-domain frequencies
        (shape ``(rows, domains)``, 0 for a powered-down domain), and
        whether any combination is feasible -- where none is, the row's
        cost is ``inf`` and its frequencies mean nothing.  Demand is
        assumed to water-fill proportionally to capacity (the
        scheduler's behaviour), so every online core runs at the same
        busy fraction.
        """
        capacity = self._capacity
        required = demand_ips / self.target_utilization
        feasible = self._positive & (capacity >= required)
        busy = demand_ips / capacity
        # clamp(busy, 0, 1) branch for branch: where, not maximum/minimum.
        busy = np.where(busy < 0.0, 0.0, np.where(busy > 1.0, 1.0, busy))
        cost = 0.0
        for count, dynamic, static, overhead, cache in self._terms:
            cost = cost + count * (busy * dynamic + static)
            cost = cost + overhead
            cost = cost + busy * cache
        cost = np.where(feasible, cost, np.inf)
        columns = cost.argmin(axis=1)
        rows = self._rows
        return cost[rows, columns], self._frequency[rows, columns], feasible[rows, columns]

    # -- demand measurement ----------------------------------------------

    def _demand_ips(self, observation: SystemObservation) -> float:
        """Measured work in IPC-scaled instructions per second.

        Each online core contributes ``load * f * ipc_scale``; a core
        pegged at (nearly) full busy under-reports, so the total is
        boosted while any core is saturated.
        """
        work = 0.0
        saturated = False
        for core_id in range(observation.num_cores):
            if not observation.online_mask[core_id]:
                continue
            load = observation.per_core_load_percent[core_id]
            ipc = self._ipc_scale[core_id]
            work += (load / 100.0) * observation.frequencies_khz[core_id] * 1000.0 * ipc
            if load >= self.burst_threshold_percent:
                saturated = True
        if saturated:
            work *= self.burst_boost
        return work

    # -- the policy interface ----------------------------------------------

    def decide(self, observation: SystemObservation) -> PolicyDecision:
        """Pick the cheapest feasible placement for this tick's demand.

        Prices every (placement, operating point) candidate with the
        Eq. (1)/(2) model, takes the cheapest placement (ties to fewer
        cores, then lower frequencies), and keeps the held placement
        unless a rival undercuts it by the switch margin after the
        residency window (infeasibility switches immediately).
        """
        if observation.num_cores != self._num_cores:
            raise ConfigError(
                f"energy-aware policy built for {self._num_cores} cores, "
                f"observed {observation.num_cores}"
            )
        layout = tuple(observation.cluster_ids) or (0,) * observation.num_cores
        if layout != self._layout:
            raise ConfigError(
                f"energy-aware policy built for cluster layout {self._layout}, "
                f"observed {layout}"
            )
        cost, frequencies, feasible = self.price_placements(self._demand_ips(observation))
        if feasible.any():
            # Python's min() over (cost, cores, frequencies), first wins.
            best = int(np.lexsort((*frequencies.T[::-1], self._sizes, cost))[0])
        else:
            # Demand exceeds even everything-at-fmax: saturate the platform.
            best = len(self.placements) - 1
        chosen = best
        self._ticks_since_switch += 1
        held = self._row
        if held is not None and held != best and feasible[held]:
            margin = 1.0 - self.switch_margin_percent / 100.0
            if (
                self._ticks_since_switch < self.min_residency_ticks
                or cost[best] >= cost[held] * margin
            ):
                chosen = held
        if chosen != self._row:
            self._ticks_since_switch = 0
            self._row = chosen

        counts = self.placements[chosen]
        targets_khz = frequencies[chosen] if feasible[chosen] else self._fmax
        mask = [False] * observation.num_cores
        targets: List[Optional[float]] = [None] * observation.num_cores
        for domain, count in enumerate(counts):
            for core_id in self._members[domain][:count]:
                mask[core_id] = True
                targets[core_id] = float(targets_khz[domain])
        layout_label = "+".join(str(count) for count in counts)
        return PolicyDecision(
            target_frequencies_khz=targets,
            online_mask=mask,
            quota=1.0,
            reason=f"eas:{layout_label}",
        )
