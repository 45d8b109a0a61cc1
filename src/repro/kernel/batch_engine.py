"""Batched multi-session engine: the tick loop vectorized across sessions.

The scalar :class:`~repro.kernel.engine.Session` advances one session at
a time: every tick runs the scheduler, the ``/proc/stat`` accounting,
the power model, and the policy as plain Python over one platform.
Sweeps, however, are *grids* -- hundreds of sessions that differ only in
seed, workload intensity, or policy parameters on the same platform.
This module runs such a grid as one struct-of-arrays numpy program: all
per-tick state lives in ``(n_sessions, n_cores)`` arrays, and each tick
executes a fixed sequence of array ops instead of ``n_sessions``
interpreter loops.

The contract is **bit-identical parity** (see ``docs/NUMERICS.md``): a
:class:`BatchSession` run produces, for every member, exactly the
:class:`~repro.metrics.summary.SessionSummary` the scalar engine would
produce -- same floats, bit for bit, not merely "close".  This is
achievable because every float expression in the scalar tick loop is
replicated here with the same operand order and association (IEEE-754
double ops are deterministic), Python ``sum()`` chains become masked
sequential adds (adding ``0.0`` for absent terms is exact), and tie
rules (stable sorts, first-max dict scans) map onto ``np.lexsort`` /
``np.argmax``.  The scalar engine stays the live oracle: the batched
path is property-tested against it for every registered policy x
workload pair.

Not every spec shape vectorizes.  :class:`BatchSession` probes each
member -- the workload must be a plain :class:`BusyLoopApp`, the policy
one of the six registered types with stock sub-components -- and runs
anything else through a scalar :class:`Session` internally, so the
result list is always complete and always in spec order.  Spec-level
features the batch cannot honour at all (tracing, faults, column
retention) are rejected up front by :func:`batch_compatibility_key`;
:class:`~repro.runner.runner.SessionRunner` uses that key to group specs
and transparently leaves incompatible ones on the scalar path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cpuidle import CpuidleStats
from .engine import Session, SessionResult
from .scheduler import LoadBalancingScheduler
from .tracing import TraceRecorder
from ..core.bandwidth import QuotaController
from ..core.energy_model import EnergyModel
from ..core.mobicore import MobiCorePolicy
from ..core.operating_point import OperatingPointOptimizer
from ..core.predictor import WorkloadPredictor
from ..errors import BatchError
from ..governors.base import create_governor
from ..governors.ondemand import OndemandGovernor
from ..metrics.summary import SessionSummary, summarize
from ..policies.android_default import AndroidDefaultPolicy
from ..policies.hotplug_driver import DefaultHotplugDriver
from ..policies.single_mechanism import DcsOnlyPolicy, DvfsOnlyPolicy, RaceToIdlePolicy
from ..policies.static import StaticPolicy
from ..soc.platform import Platform, PlatformSpec
from ..soc.power_model import CpuPowerModel
from ..workloads.busyloop import BusyLoopApp

__all__ = ["BatchSession", "batch_compatibility_key"]


def batch_compatibility_key(spec: Any) -> Optional[tuple]:
    """Grouping key for specs that may share one :class:`BatchSession`.

    Returns ``None`` when *spec* cannot enter a batch at all: it is not
    portable, it requests tracing or column retention (the batch writes
    summaries, not live event streams), or it carries a fault plan
    (faults mutate mid-run state the vector program does not model).
    Otherwise returns a hashable key; two specs with equal keys run the
    same platform, uncore pinning, and tick/duration/warmup timing, so
    they can share one struct-of-arrays program (seed, label, policy,
    and workload may all differ -- non-vectorizable members fall back to
    a scalar :class:`Session` *inside* the batch).
    """
    if spec.trace is not None or spec.keep_columns:
        return None
    if spec.faults is not None:
        return None
    if not spec.is_portable:
        return None
    try:
        platform_spec = spec.resolve_platform_spec()
    except Exception:
        return None
    if len(platform_spec.cluster_specs()) > 1:
        # Heterogeneous platforms run per-frequency-domain kernels the
        # single-table vector program cannot express; scalar fallback.
        return None
    table = platform_spec.opp_table
    opps = tuple(
        (table.by_index(i).frequency_khz, table.by_index(i).voltage)
        for i in range(len(table))
    )
    params = platform_spec.power_params
    config = spec.config
    return (
        platform_spec.name,
        platform_spec.num_cores,
        opps,
        (
            params.ceff_mw_per_ghz_v2,
            params.leak_coefficient_mw,
            params.leak_exponent,
            params.cluster_overhead_base_mw,
            params.cluster_overhead_span_mw,
            params.cache_base_mw,
            params.cache_span_mw,
            params.platform_base_mw,
        ),
        str(platform_spec.rail_topology),
        (
            platform_spec.thermal.ambient_c,
            platform_spec.thermal.resistance_c_per_w,
            platform_spec.thermal.time_constant_s,
            platform_spec.thermal.throttle_temp_c,
            platform_spec.thermal.release_temp_c,
        ),
        spec.pin_uncore_max,
        config.tick_seconds,
        config.duration_seconds,
        config.warmup_seconds,
    )


def _vclamp(values: np.ndarray, low: float, high: float) -> np.ndarray:
    """Vector twin of :func:`repro.units.clamp` (exact for non-NaN input)."""
    return np.minimum(np.maximum(values, low), high)


class _BatchContext:
    """Per-batch constants shared by every vectorized member.

    Everything here is derived once from the common platform spec and
    config: the OPP table as arrays, per-OPP power-model constants
    (computed with the *scalar* model so each table entry is the exact
    float the scalar path would produce per tick), thermal parameters,
    and the uncore power, which is constant for batchable sessions
    (no faults, uncore pinned or reset once at start).
    """

    def __init__(
        self, platform_spec: PlatformSpec, config: Any, pin_uncore_max: bool
    ) -> None:
        self.spec = platform_spec
        self.C = platform_spec.num_cores
        self.table = platform_spec.opp_table
        self.FREQ = np.asarray(self.table.frequencies_khz, dtype=np.int64)
        self.FREQ_F = self.FREQ.astype(np.float64)
        self.n_opp = len(self.FREQ)
        self.fmin = int(self.table.min_frequency_khz)
        self.fmax = int(self.table.max_frequency_khz)
        self.fmin_f = float(self.fmin)
        self.fmax_f = float(self.fmax)
        terms = CpuPowerModel(platform_spec.power_params, self.table).opp_terms
        self.DYN, self.STATIC, self.SPANF = (
            np.array(column) for column in zip(*terms.values())
        )
        params = platform_spec.power_params
        self.ovh_base = params.cluster_overhead_base_mw
        self.ovh_span = params.cluster_overhead_span_mw
        self.cache_base = params.cache_base_mw
        self.cache_span = params.cache_span_mw
        self.base_mw = params.platform_base_mw
        probe = Platform.from_spec(platform_spec)
        probe.reset()
        if pin_uncore_max:
            probe.pin_uncore_max()
        self.uncore_mw = probe.uncore_power_mw()
        self.per_core_dvfs = probe.allows_per_core_dvfs
        thermal = platform_spec.thermal
        self.ambient = thermal.ambient_c
        self.resistance = thermal.resistance_c_per_w
        self.throttle_temp = thermal.throttle_temp_c
        self.release_temp = thermal.release_temp_c
        self.dt = config.tick_seconds
        self.T = config.total_ticks
        self.warmup = config.warmup_ticks
        self.alpha = min(self.dt / thermal.time_constant_s, 1.0)
        cap_ticks = LoadBalancingScheduler().backlog_cap_ticks
        self.backlog_cap = self.fmax * 1000.0 * self.dt * cap_ticks


class _TickObs:
    """The vector twin of :class:`~repro.policies.base.SystemObservation`.

    Bundles the per-tick arrays every policy kernel reads: per-core load
    percent, global/delta utilization, current frequencies (as OPP
    indices), the online mask and count, the in-effect quota, and the
    fmax-normalised total scaled load.
    """

    __slots__ = (
        "tick",
        "load",
        "global_util",
        "delta_util",
        "freq_idx",
        "online",
        "online_count",
        "quota",
        "total_scaled",
    )

    def __init__(self, **kwargs: Any) -> None:
        for name, value in kwargs.items():
            setattr(self, name, value)


class _OndemandBank:
    """Vectorized bank of per-core :class:`OndemandGovernor` instances.

    One (sessions x cores) hold-counter array replicates the governor's
    ``sampling_down_factor`` hysteresis; ``select`` updates state only
    where the scalar policy would actually have called the governor.
    """

    def __init__(self, ctx: _BatchContext, up: np.ndarray, sdf: np.ndarray) -> None:
        self.ctx = ctx
        self.up = up
        self.sdf = sdf
        self.hold = np.zeros((up.shape[0], ctx.C), dtype=np.int64)

    def select(
        self, called: np.ndarray, load: np.ndarray, freq_idx: np.ndarray
    ) -> np.ndarray:
        """Per-core frequency choice in kHz (valid only where *called*)."""
        ctx = self.ctx
        cur_khz = ctx.FREQ[freq_idx]
        up = self.up[:, None]
        at_max = load >= up
        hold_pos = self.hold > 0
        proposed = (cur_khz.astype(np.float64) * load) / up
        floor_idx = np.maximum(
            np.searchsorted(ctx.FREQ, proposed, side="right") - 1, 0
        )
        floor_idx = np.minimum(floor_idx, ctx.n_opp - 1)
        choice = np.where(
            at_max, ctx.FREQ[-1], np.where(hold_pos, cur_khz, ctx.FREQ[floor_idx])
        )
        new_hold = np.where(
            at_max, self.sdf[:, None], np.where(hold_pos, self.hold - 1, self.hold)
        )
        self.hold = np.where(called, new_hold, self.hold)
        return choice


class _HotplugBank:
    """Vectorized bank of :class:`DefaultHotplugDriver` state machines."""

    def __init__(
        self,
        up: np.ndarray,
        headroom: np.ndarray,
        hold_up: np.ndarray,
        hold_down: np.ndarray,
    ) -> None:
        self.up = up
        self.headroom = headroom
        self.hold_up = hold_up
        self.hold_down = hold_down
        size = up.shape[0]
        self.above = np.zeros(size, dtype=np.int64)
        self.below = np.zeros(size, dtype=np.int64)

    def target_count(
        self,
        active: np.ndarray,
        total_scaled: np.ndarray,
        online_count: np.ndarray,
        num_cores: int,
    ) -> np.ndarray:
        """Next-tick core count; hysteresis advances only where *active*."""
        oc_f = online_count.astype(np.float64)
        up_trigger = oc_f * self.up
        down_trigger = ((oc_f - 1.0) * self.up) * self.headroom
        hi = total_scaled >= up_trigger
        lo = (~hi) & (online_count > 1) & (total_scaled <= down_trigger)
        above_new = np.where(hi, self.above + 1, 0)
        promote = hi & (above_new >= self.hold_up) & (online_count < num_cores)
        below_new = np.where(lo, self.below + 1, 0)
        demote = lo & (below_new >= self.hold_down)
        count = np.where(
            promote, online_count + 1, np.where(demote, online_count - 1, online_count)
        )
        above_final = np.where(promote, 0, above_new)
        below_final = np.where(demote, 0, below_new)
        self.above = np.where(active, above_final, self.above)
        self.below = np.where(active, below_final, self.below)
        return count


class _QuotaBank:
    """Vectorized bank of :class:`QuotaController` instances (Table 2)."""

    def __init__(
        self,
        load_threshold: np.ndarray,
        down_threshold: np.ndarray,
        up_threshold: np.ndarray,
        scaling_factor: np.ndarray,
        min_quota: np.ndarray,
    ) -> None:
        self.load_threshold = load_threshold
        self.down_threshold = down_threshold
        self.up_threshold = up_threshold
        self.scaling_factor = scaling_factor
        self.min_quota = min_quota
        self.quota = np.ones(load_threshold.shape[0])

    def step(
        self,
        use_quota: np.ndarray,
        starved: np.ndarray,
        utilization: np.ndarray,
        delta: np.ndarray,
    ) -> np.ndarray:
        """One ``boost()``-or-``update()`` step; returns the quota in effect."""
        updated = np.where(
            utilization >= self.load_threshold,
            1.0,
            np.where(
                delta > self.up_threshold,
                1.0,
                np.where(
                    delta < self.down_threshold,
                    np.maximum(self.quota * self.scaling_factor, self.min_quota),
                    self.quota,
                ),
            ),
        )
        new_quota = np.where(starved, 1.0, updated)
        self.quota = np.where(use_quota, new_quota, self.quota)
        return np.where(use_quota, self.quota, 1.0)


class _PredictorBank:
    """Vectorized bank of :class:`WorkloadPredictor` smoothers."""

    def __init__(self, smoothing: np.ndarray) -> None:
        self.smoothing = smoothing
        self.smoothed = np.zeros(smoothing.shape[0])

    def observe(self, delta: np.ndarray) -> None:
        """Fold one load delta into the exponential smoother."""
        self.smoothed = self.smoothed + self.smoothing * (delta - self.smoothed)

    def forecast(self, utilization: np.ndarray) -> np.ndarray:
        """Next-tick load forecast, clamped to a percentage."""
        return _vclamp(utilization + self.smoothed, 0.0, 100.0)


def _float_floordiv(numerator: np.ndarray, divisor: float) -> np.ndarray:
    """Vector replica of CPython's float ``//`` (see ``float_divmod``).

    MobiCore's feasibility rule ``int(-(-x // 0.98))`` rounds a core
    demand up with float floor-division; CPython computes it via
    ``fmod`` with sign correction and a half-ulp fixup, which plain
    ``np.floor(a / b)`` does not always reproduce bit-exactly.
    """
    mod = np.fmod(numerator, divisor)
    div = (numerator - mod) / divisor
    correct = (mod != 0.0) & ((divisor < 0.0) != (mod < 0.0))
    div = np.where(correct, div - 1.0, div)
    floored = np.floor(div)
    floored = np.where((div != 0.0) & (div - floored > 0.5), floored + 1.0, floored)
    return floored


class _PolicyKernelBase:
    """Shared shape for the per-kind vector policy kernels.

    A kernel owns the per-session parameter arrays and mutable state of
    one policy type and turns a :class:`_TickObs` into the vector
    equivalent of a :class:`~repro.policies.base.PolicyDecision`:
    NaN-encoded per-core frequency targets, an online mask (with a
    per-session ``has_mask`` validity row), and a quota.
    """

    def __init__(self, ctx: _BatchContext, members: Sequence["_Member"]) -> None:
        self.ctx = ctx
        self.size = len(members)
        self.core_ids = np.arange(ctx.C, dtype=np.int64)

    def decide(
        self, obs: _TickObs
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(targets_khz, mask, has_mask, quota)`` for the tick."""
        raise NotImplementedError


class _RaceKernel(_PolicyKernelBase):
    """Vector :class:`RaceToIdlePolicy`: every core online at fmax."""

    def decide(self, obs):
        """All cores to fmax, all online, full quota."""
        targets = np.full((self.size, self.ctx.C), self.ctx.fmax_f)
        mask = np.ones((self.size, self.ctx.C), dtype=bool)
        has_mask = np.ones(self.size, dtype=bool)
        return targets, mask, has_mask, np.ones(self.size)


class _StaticKernel(_PolicyKernelBase):
    """Vector :class:`StaticPolicy`: a fixed pin per session."""

    def __init__(self, ctx, members):
        """Collect each member's pinned core count and frequency."""
        super().__init__(ctx, members)
        self.online_count = np.array(
            [m.policy_params["online_count"] for m in members], dtype=np.int64
        )
        self.freq_f = np.array(
            [float(m.policy_params["frequency_khz"]) for m in members]
        )

    def decide(self, obs):
        """The same pin every tick; stateless."""
        targets = np.broadcast_to(
            self.freq_f[:, None], (self.size, self.ctx.C)
        ).copy()
        mask = self.core_ids[None, :] < self.online_count[:, None]
        has_mask = np.ones(self.size, dtype=bool)
        return targets, mask, has_mask, np.ones(self.size)


class _DvfsKernel(_PolicyKernelBase):
    """Vector :class:`DvfsOnlyPolicy`: per-core ondemand, no hotplug."""

    def __init__(self, ctx, members):
        """Build the governor bank from each member's governor params."""
        super().__init__(ctx, members)
        self.governors = _OndemandBank(
            ctx,
            np.array([m.policy_params["gov_up"] for m in members]),
            np.array([m.policy_params["gov_sdf"] for m in members], dtype=np.int64),
        )

    def decide(self, obs):
        """Governor choice per online core; mask untouched."""
        choices = self.governors.select(obs.online, obs.load, obs.freq_idx)
        targets = np.where(obs.online, choices.astype(np.float64), np.nan)
        mask = obs.online.copy()
        has_mask = np.zeros(self.size, dtype=bool)
        return targets, mask, has_mask, np.ones(self.size)


class _AndroidKernel(_PolicyKernelBase):
    """Vector :class:`AndroidDefaultPolicy`: ondemand + stock hotplug."""

    def __init__(self, ctx, members):
        """Build governor and hotplug banks plus per-member flags."""
        super().__init__(ctx, members)
        self.governors = _OndemandBank(
            ctx,
            np.array([m.policy_params["gov_up"] for m in members]),
            np.array([m.policy_params["gov_sdf"] for m in members], dtype=np.int64),
        )
        self.nohz = np.array([m.policy_params["nohz"] for m in members])
        self.enable_hotplug = np.array(
            [m.policy_params["enable_hotplug"] for m in members], dtype=bool
        )
        self.hotplug = _HotplugBank(
            np.array([m.policy_params["hp_up"] for m in members]),
            np.array([m.policy_params["hp_headroom"] for m in members]),
            np.array([m.policy_params["hp_hold_up"] for m in members], dtype=np.int64),
            np.array(
                [m.policy_params["hp_hold_down"] for m in members], dtype=np.int64
            ),
        )

    def decide(self, obs):
        """Nohz-gated governor choices, then the hotplug state machine."""
        called = obs.online & (obs.load >= self.nohz[:, None])
        choices = self.governors.select(called, obs.load, obs.freq_idx)
        targets = np.where(called, choices.astype(np.float64), np.nan)
        count = self.hotplug.target_count(
            self.enable_hotplug, obs.total_scaled, obs.online_count, self.ctx.C
        )
        mask = self.core_ids[None, :] < count[:, None]
        # Newly-onlined cores get the fastest requested frequency (or
        # fmax when every governor was idle), exactly as the scalar
        # policy's in-loop fill resolves.
        has_any = called.any(axis=1)
        fill = np.where(
            has_any,
            np.where(called, targets, -np.inf).max(axis=1),
            self.ctx.fmax_f,
        )
        grows = self.enable_hotplug & (count > obs.online_count)
        fill_sites = grows[:, None] & mask & (~obs.online) & np.isnan(targets)
        targets = np.where(fill_sites, fill[:, None], targets)
        return targets, mask, self.enable_hotplug.copy(), np.ones(self.size)


class _DcsKernel(_PolicyKernelBase):
    """Vector :class:`DcsOnlyPolicy`: stock hotplug at a pinned frequency."""

    def __init__(self, ctx, members):
        """Resolve each member's pin (None means fmax) and hotplug params."""
        super().__init__(ctx, members)
        self.freq_f = np.array([float(m.policy_params["frequency_khz"]) for m in members])
        self.hotplug = _HotplugBank(
            np.array([m.policy_params["hp_up"] for m in members]),
            np.array([m.policy_params["hp_headroom"] for m in members]),
            np.array([m.policy_params["hp_hold_up"] for m in members], dtype=np.int64),
            np.array(
                [m.policy_params["hp_hold_down"] for m in members], dtype=np.int64
            ),
        )

    def decide(self, obs):
        """Hotplug count plus the fixed frequency on every core."""
        count = self.hotplug.target_count(
            np.ones(self.size, dtype=bool),
            obs.total_scaled,
            obs.online_count,
            self.ctx.C,
        )
        mask = self.core_ids[None, :] < count[:, None]
        targets = np.broadcast_to(
            self.freq_f[:, None], (self.size, self.ctx.C)
        ).copy()
        has_mask = np.ones(self.size, dtype=bool)
        return targets, mask, has_mask, np.ones(self.size)


class _MobicoreKernel(_PolicyKernelBase):
    """Vector :class:`MobiCorePolicy`: the four flow-chart steps as arrays."""

    def __init__(self, ctx, members):
        """Build governor/quota/predictor banks and optimizer tables."""
        super().__init__(ctx, members)
        self.governors = _OndemandBank(
            ctx,
            np.array([m.policy_params["gov_up"] for m in members]),
            np.array([m.policy_params["gov_sdf"] for m in members], dtype=np.int64),
        )
        self.quota_bank = _QuotaBank(
            np.array([m.policy_params["qc_load"] for m in members]),
            np.array([m.policy_params["qc_down"] for m in members]),
            np.array([m.policy_params["qc_up"] for m in members]),
            np.array([m.policy_params["qc_scale"] for m in members]),
            np.array([m.policy_params["qc_min"] for m in members]),
        )
        self.predictor = _PredictorBank(
            np.array([m.policy_params["pred_smoothing"] for m in members])
        )
        self.offline_threshold = np.array(
            [m.policy_params["offline_threshold"] for m in members]
        )
        self.use_quota = np.array(
            [m.policy_params["use_quota"] for m in members], dtype=bool
        )
        self.use_optimizer = np.array(
            [m.policy_params["use_optimizer"] for m in members], dtype=bool
        )
        self.use_dcs = np.array(
            [m.policy_params["use_dcs"] for m in members], dtype=bool
        )
        self.first_tick = True
        self.prev_scaled = np.zeros(self.size)
        self.fmax_cps = ctx.fmax * 1000.0

    def _optimize(self, forecast_load: np.ndarray, low: np.ndarray) -> np.ndarray:
        """Eq.-10 pick between ``low`` and ``low + 1`` cores (model-cheapest).

        Replicates ``OperatingPointOptimizer.best_count_between`` for the
        two-candidate window MobiCore uses: the higher count wins when it
        is the only feasible one, when neither is feasible (the scalar
        initialisation default), or when its predicted power is strictly
        lower.
        """
        ctx = self.ctx
        load = _vclamp(forecast_load, 0.0, 100.0)
        demand = ((load / 100.0) * self.fmax_cps) * ctx.C
        powers = []
        feasible = []
        for offset in (0, 1):
            count = low + offset
            count_f = count.astype(np.float64)
            feas = ~((count_f * self.fmax_cps + 1e-9) < demand)
            per_core = demand / count_f
            idx = np.minimum(
                np.searchsorted(ctx.FREQ, per_core, side="left"), ctx.n_opp - 1
            )
            busy = _vclamp(
                demand / ((count * ctx.FREQ[idx]).astype(np.float64) * 1000.0),
                0.0,
                1.0,
            )
            per_core_mw = (busy * ctx.DYN[idx]) + ctx.STATIC[idx]
            overhead = np.where(
                count >= 2, ctx.ovh_base + ctx.ovh_span * ctx.SPANF[idx], 0.0
            )
            cache = busy * (ctx.cache_base + ctx.cache_span * ctx.SPANF[idx])
            total = (((count_f * per_core_mw) + overhead) + cache) + ctx.base_mw
            powers.append(total - ctx.base_mw)
            feasible.append(feas)
        pick_high = np.where(feasible[0], feasible[1] & (powers[1] < powers[0]), True)
        return np.where(pick_high, low + 1, low)

    def decide(self, obs):
        """Steps 1-4: ondemand, bandwidth, core count, Eq.-9 frequency."""
        ctx = self.ctx
        # Step 1: per-core ondemand choices (online cores only).
        choices = self.governors.select(obs.online, obs.load, obs.freq_idx)
        # Step 2: Table-2 quota on the fmax-normalised phone load.
        scaled = _vclamp(obs.total_scaled / ctx.C, 0.0, 100.0)
        if self.first_tick:
            delta = np.zeros(self.size)
            self.first_tick = False
        else:
            delta = scaled - self.prev_scaled
        self.prev_scaled = scaled
        self.predictor.observe(delta)
        starved = obs.global_util >= 96.0 * obs.quota
        quota = self.quota_bank.step(self.use_quota, starved, scaled, delta)
        # Step 3: the 10% offline rule plus demand-driven onlining.
        busy_enough = np.zeros(self.size, dtype=np.int64)
        for core in range(ctx.C):
            per_core_scaled = (
                obs.load[:, core] * ctx.FREQ_F[obs.freq_idx[:, core]]
            ) / ctx.fmax
            busy_enough = busy_enough + (
                obs.online[:, core] & (per_core_scaled >= self.offline_threshold)
            ).astype(np.int64)
        count = np.maximum(busy_enough, 1)
        forecast = self.predictor.forecast(_vclamp(obs.total_scaled / ctx.C, 0.0, 100.0))
        demand_fmax_cores = (forecast * ctx.C) / 100.0
        min_feasible = np.maximum(
            1, (-_float_floordiv(-demand_fmax_cores, 0.98)).astype(np.int64)
        )
        count = np.maximum(count, np.minimum(min_feasible, ctx.C))
        optimize_rows = self.use_optimizer & (count < ctx.C)
        if optimize_rows.any():
            count = np.where(optimize_rows, self._optimize(forecast, count), count)
        count = np.minimum(count, ctx.C)
        active = np.where(self.use_dcs, count, ctx.C)
        # Step 4: Eq. (9) on every core that had an ondemand choice.
        phone_k = (obs.global_util * obs.online_count.astype(np.float64)) / ctx.C
        scaled_k = _vclamp(phone_k * quota, 0.0, 100.0)
        mean_fraction = np.minimum(
            (scaled_k / 100.0) * (ctx.C / obs.online_count.astype(np.float64)), 1.0
        )
        raw_target = choices.astype(np.float64) * mean_fraction[:, None]
        ceil_idx = np.minimum(
            np.searchsorted(ctx.FREQ, raw_target, side="left"), ctx.n_opp - 1
        )
        targets = np.where(obs.online, ctx.FREQ_F[ceil_idx], np.nan)
        mask = self.core_ids[None, :] < active[:, None]
        fill = np.where(obs.online, targets, -np.inf).max(axis=1)
        targets = np.where(mask & np.isnan(targets), fill[:, None], targets)
        has_mask = np.ones(self.size, dtype=bool)
        return targets, mask, has_mask, quota


_KERNELS = {
    "race": _RaceKernel,
    "static": _StaticKernel,
    "dvfs": _DvfsKernel,
    "android": _AndroidKernel,
    "dcs": _DcsKernel,
    "mobicore": _MobicoreKernel,
}


class _Member:
    """One vectorizable spec inside a batch: its row params and identity."""

    __slots__ = ("index", "spec", "policy_name", "workload_name", "policy_params", "workload_params")

    def __init__(self, index, spec, policy_name, workload_name, policy_params, workload_params):
        """Record the spec's batch row: names, params, original index."""
        self.index = index
        self.spec = spec
        self.policy_name = policy_name
        self.workload_name = workload_name
        self.policy_params = policy_params
        self.workload_params = workload_params


def _probe_governors(
    governors: Sequence[Any], num_cores: int, governor_name: Optional[str] = None
) -> Optional[tuple]:
    """Uniform-:class:`OndemandGovernor` check; returns ``(up, sdf)`` or None.

    Policies grow their per-core governor list lazily from
    ``governor_name``, so a fresh policy may hold fewer governors than
    the platform has cores; the missing ones are probed by
    instantiating the named governor, exactly as the policy would.
    """
    bank = list(governors[:num_cores])
    while len(bank) < num_cores:
        if governor_name is None:
            return None
        bank.append(create_governor(governor_name))
    if any(type(g) is not OndemandGovernor for g in bank):
        return None
    ups = {g.up_threshold for g in bank}
    sdfs = {g.sampling_down_factor for g in bank}
    if len(ups) != 1 or len(sdfs) != 1:
        return None
    return ups.pop(), sdfs.pop()


def _probe_hotplug(driver: Any) -> Optional[dict]:
    """Exact-type check on the stock hotplug driver; params or None."""
    if type(driver) is not DefaultHotplugDriver:
        return None
    return {
        "hp_up": driver.up_threshold,
        "hp_headroom": driver.down_headroom,
        "hp_hold_up": driver.hold_up_ticks,
        "hp_hold_down": driver.hold_down_ticks,
    }


def _probe_workload(workload: Any, num_cores: int) -> Optional[dict]:
    """Vectorizability probe for the workload; numeric params or None.

    Only the plain :class:`BusyLoopApp` vectorizes: it is RNG-free, its
    per-thread demand is a constant on busy ticks, and its only metric
    is the executed-cycles accumulator.
    """
    if type(workload) is not BusyLoopApp:
        return None
    threads = workload.num_threads if workload.num_threads > 0 else num_cores
    if threads <= 0:
        return None
    return {
        "target": workload.target_load_percent,
        "threads": threads,
        "idle_gap": workload.idle_gap_seconds,
        "cycle": workload.cycle_seconds,
        "ref_khz": workload.reference_frequency_khz,
    }


def _probe_policy(
    policy: Any, platform_spec: PlatformSpec
) -> Optional[Tuple[str, dict]]:
    """Vectorizability probe for the policy; ``(kind, params)`` or None.

    Exact-type checks (no subclasses -- an override could change any
    branch) on the policy and every stateful sub-component, with numeric
    parameters extracted into the per-session row dict.  Anything that
    does not match falls back to the scalar engine, where parity is
    trivial.
    """
    num_cores = platform_spec.num_cores
    table = platform_spec.opp_table
    if type(policy) is RaceToIdlePolicy:
        return "race", {}
    if type(policy) is StaticPolicy:
        if not 1 <= policy.online_count <= num_cores:
            return None
        if policy.frequency_khz not in table:
            return None
        return "static", {
            "online_count": policy.online_count,
            "frequency_khz": policy.frequency_khz,
        }
    if type(policy) is DvfsOnlyPolicy:
        gov = _probe_governors(policy._governors, num_cores, policy.governor_name)
        if gov is None:
            return None
        return "dvfs", {"gov_up": gov[0], "gov_sdf": gov[1]}
    if type(policy) is AndroidDefaultPolicy:
        gov = _probe_governors(policy._governors, num_cores, policy.governor_name)
        if gov is None:
            return None
        params = {
            "gov_up": gov[0],
            "gov_sdf": gov[1],
            "nohz": policy.nohz_idle_threshold,
            "enable_hotplug": bool(policy.enable_hotplug),
        }
        hotplug = _probe_hotplug(policy.hotplug)
        if hotplug is None:
            return None
        params.update(hotplug)
        return "android", params
    if type(policy) is DcsOnlyPolicy:
        frequency = policy.frequency_khz
        if frequency is None:
            frequency = table.max_frequency_khz
        elif frequency not in table:
            return None
        hotplug = _probe_hotplug(policy.hotplug)
        if hotplug is None:
            return None
        params = {"frequency_khz": frequency}
        params.update(hotplug)
        return "dcs", params
    if type(policy) is MobiCorePolicy:
        if policy.num_cores != num_cores:
            return None
        gov = _probe_governors(policy._governors, num_cores)
        if gov is None:
            return None
        if type(policy.quota_controller) is not QuotaController:
            return None
        if type(policy.predictor) is not WorkloadPredictor:
            return None
        if type(policy.energy_model) is not EnergyModel:
            return None
        if type(policy.optimizer) is not OperatingPointOptimizer:
            return None
        if policy.optimizer.max_cores != num_cores:
            return None
        model = policy.optimizer.model
        if model is not policy.energy_model:
            return None
        inner = model._model
        if inner.params != platform_spec.power_params:
            return None
        model_table = model.opp_table
        if tuple(model_table.frequencies_khz) != tuple(table.frequencies_khz):
            return None
        if any(
            model_table.by_index(i).voltage != table.by_index(i).voltage
            for i in range(len(table))
        ):
            return None
        controller = policy.quota_controller
        return "mobicore", {
            "gov_up": gov[0],
            "gov_sdf": gov[1],
            "qc_load": controller.load_threshold,
            "qc_down": controller.down_threshold,
            "qc_up": controller.up_threshold,
            "qc_scale": controller.scaling_factor,
            "qc_min": controller.min_quota,
            "pred_smoothing": policy.predictor.smoothing,
            "offline_threshold": policy.offline_threshold_percent,
            "use_quota": bool(policy.use_quota),
            "use_optimizer": bool(policy.use_optimizer),
            "use_dcs": bool(policy.use_dcs),
        }
    return None


class BatchSession:
    """N same-platform sessions as one struct-of-arrays numpy program.

    Construct it with a sequence of batch-compatible
    :class:`~repro.runner.spec.SessionSpec` (equal
    :func:`batch_compatibility_key`); :meth:`run` returns one
    :class:`SessionSummary` per spec, in spec order, bit-identical to
    what ``N`` scalar :class:`Session` runs would produce.  Members
    whose policy or workload shape cannot vectorize are executed through
    a scalar :class:`Session` internally (``fallback_count`` tells how
    many), so the caller never needs to special-case the split.
    """

    def __init__(self, specs: Sequence[Any]) -> None:
        if not specs:
            raise BatchError("BatchSession needs at least one spec")
        keys = [batch_compatibility_key(spec) for spec in specs]
        if any(key is None for key in keys):
            raise BatchError(
                "spec is not batch-compatible (traced, faulted, keep_columns, "
                "or not portable); run it through the scalar engine"
            )
        if len(set(keys)) != 1:
            raise BatchError(
                "specs in one BatchSession must share platform, uncore "
                "pinning, and tick/duration/warmup timing"
            )
        self.specs = list(specs)
        self._platform_spec = self.specs[0].resolve_platform_spec()
        self._groups: Dict[str, List[_Member]] = {}
        self._fallback_indices: List[int] = []
        for index, spec in enumerate(self.specs):
            policy = spec.build_policy()
            workload = spec.build_workload()
            workload_params = _probe_workload(workload, self._platform_spec.num_cores)
            policy_probe = _probe_policy(policy, self._platform_spec)
            if workload_params is None or policy_probe is None:
                self._fallback_indices.append(index)
                continue
            kind, policy_params = policy_probe
            self._groups.setdefault(kind, []).append(
                _Member(index, spec, policy.name, workload.name, policy_params, workload_params)
            )

    @property
    def vectorized_count(self) -> int:
        """How many members run through the vector program."""
        return sum(len(members) for members in self._groups.values())

    @property
    def fallback_count(self) -> int:
        """How many members run through an internal scalar Session."""
        return len(self._fallback_indices)

    @property
    def fallback_positions(self) -> Tuple[int, ...]:
        """Positions (in the specs sequence) of the scalar-fallback members.

        Callers that would rather parallelize non-vectorizable members
        themselves (the runner's worker pool does) can exclude these
        positions and rebuild the batch from the rest.
        """
        return tuple(self._fallback_indices)

    def run(self) -> List[SessionSummary]:
        """Execute every member; summaries come back in spec order."""
        out: List[Optional[SessionSummary]] = [None] * len(self.specs)
        context = _BatchContext(
            self._platform_spec, self.specs[0].config, self.specs[0].pin_uncore_max
        )
        for kind, members in self._groups.items():
            kernel = _KERNELS[kind](context, members)
            for index, summary in _run_vector_group(context, kernel, members):
                out[index] = summary
        for index in self._fallback_indices:
            out[index] = self._run_scalar(self.specs[index])
        return out  # type: ignore[return-value]

    def _run_scalar(self, spec: Any) -> SessionSummary:
        """Scalar-oracle execution for one non-vectorizable member."""
        session = Session(
            Platform.from_spec(self._platform_spec),
            spec.build_workload(),
            spec.build_policy(),
            spec.config,
            pin_uncore_max=spec.pin_uncore_max,
        )
        return summarize(session.run())


def _run_vector_group(
    context: _BatchContext, kernel: _PolicyKernelBase, members: Sequence[_Member]
) -> List[Tuple[int, SessionSummary]]:
    """Run one policy-kind group through the vectorized tick loop.

    The loop mirrors ``Session._step_core`` stage by stage -- demand,
    dispatch, accounting, power, thermal, trace, observe, decide, apply
    -- with every float expression in scalar operand order (see
    ``docs/NUMERICS.md`` for the catalogue of rules this relies on).
    """
    S = len(members)
    C = context.C
    T = context.T
    dt = context.dt
    rows = np.arange(S)

    # -- workload (BusyLoopApp) schedule --------------------------------
    threads = np.array([m.workload_params["threads"] for m in members], dtype=np.int64)
    K = int(threads.max()) if S else 0
    task_ids = np.arange(K, dtype=np.int64)
    task_active = task_ids[None, :] < threads[:, None]
    per_thread = np.empty(S)
    for j, member in enumerate(members):
        w = member.workload_params
        busy_fraction_of_cycle = 1.0 - w["idle_gap"] / w["cycle"]
        if w["ref_khz"] > 0:
            per_thread[j] = (
                w["target"] / 100.0 * w["ref_khz"] * 1000.0 * dt
                / busy_fraction_of_cycle
            )
        else:
            core_max = context.fmax * 1000.0 * dt
            platform_max = core_max * C
            per_thread[j] = (
                w["target"] / 100.0 * platform_max
                / (w["threads"] * busy_fraction_of_cycle)
            )
    time_grid = np.arange(T, dtype=np.int64).astype(np.float64) * dt
    busy_tick = np.ones((T, S), dtype=bool)
    for j, member in enumerate(members):
        w = member.workload_params
        if w["idle_gap"] != 0:
            busy_tick[:, j] = np.fmod(time_grid, w["cycle"]) < (
                w["cycle"] - w["idle_gap"]
            )

    # -- per-session state ----------------------------------------------
    BIG = K + 1
    freq_idx = np.zeros((S, C), dtype=np.int64)  # boot at fmin
    online = np.ones((S, C), dtype=bool)
    quota = np.ones(S)
    temperature = np.full(S, context.ambient)
    throttle_steps = np.zeros(S, dtype=np.int64)
    dvfs_transitions = np.zeros(S, dtype=np.int64)
    hotplug_transitions = np.zeros(S, dtype=np.int64)
    executed_cycles = np.zeros(S)
    backlog_cycles = np.zeros((S, K))
    backlog_pos = np.full((S, K), BIG, dtype=np.int64)
    prev_global = np.zeros(S)

    scalars_out = np.empty((T, S, 11))
    freq_out = np.empty((T, S, C), dtype=np.int64)
    online_out = np.empty((T, S, C), dtype=bool)
    busy_out = np.empty((T, S, C))

    for tick in range(T):
        khz_f = context.FREQ_F[freq_idx]
        base_cap = (khz_f * 1000.0) * dt  # capacity at quota 1.0
        cap_q = base_cap * quota[:, None]

        # -- scheduler dispatch -----------------------------------------
        demand = np.where(
            busy_tick[tick][:, None] & task_active, per_thread[:, None], 0.0
        )
        totals = backlog_cycles + demand
        order_key = np.where(backlog_pos < BIG, backlog_pos, BIG + task_ids[None, :])
        sort_idx = np.lexsort((order_key, -totals), axis=1)
        tot_sorted = np.take_along_axis(totals, sort_idx, axis=1)

        remaining = np.where(online, cap_q, -np.inf)
        target_core = np.empty((S, K), dtype=np.int64)
        for k in range(K):
            chosen = np.argmax(remaining, axis=1)
            target_core[:, k] = chosen
            left = remaining[rows, chosen] - tot_sorted[:, k]
            remaining[rows, chosen] = np.where(left > 0.0, left, 0.0)

        busy_fraction = np.zeros((S, C))
        leftover_sorted = np.zeros((S, K))
        tick_executed = np.zeros(S)
        for core in range(C):
            cap_core = np.where(online[:, core], cap_q[:, core], 0.0)
            rem = cap_core
            for k in range(K):
                assigned = np.where(target_core[:, k] == core, tot_sorted[:, k], 0.0)
                ran = np.minimum(assigned, rem)
                rem = rem - ran
                tick_executed = tick_executed + ran
                leftover_sorted[:, k] = np.where(
                    target_core[:, k] == core,
                    assigned - ran,
                    leftover_sorted[:, k],
                )
            busy_core = cap_core - rem
            busy_fraction[:, core] = np.where(
                online[:, core], busy_core / base_cap[:, core], 0.0
            )
        executed_cycles = executed_cycles + tick_executed

        # -- backlog store (core-asc, slot-asc order) -------------------
        new_backlog = np.zeros((S, K))
        new_pos = np.full((S, K), BIG, dtype=np.int64)
        position = np.zeros(S, dtype=np.int64)
        total_backlog = np.zeros(S)
        dropped = np.zeros(S)
        for core in range(C):
            for k in range(K):
                left = np.where(
                    target_core[:, k] == core, leftover_sorted[:, k], 0.0
                )
                has_left = left > 0.0
                if not has_left.any():
                    continue
                kept = np.minimum(left, context.backlog_cap)
                dropped = dropped + np.where(has_left, left - kept, 0.0)
                total_backlog = total_backlog + np.where(has_left, kept, 0.0)
                row_sel = rows[has_left]
                col_sel = sort_idx[has_left, k]
                new_backlog[row_sel, col_sel] = kept[has_left]
                new_pos[row_sel, col_sel] = position[has_left]
                position = position + has_left.astype(np.int64)
        backlog_cycles = new_backlog
        backlog_pos = new_pos

        # -- accounting (procstat) --------------------------------------
        load = np.minimum(100.0, 100.0 * busy_fraction)
        online_count = online.sum(axis=1)
        global_util = np.zeros(S)
        for core in range(C):
            global_util = global_util + np.where(online[:, core], load[:, core], 0.0)
        global_util = global_util / online_count
        delta_util = (global_util - prev_global) if tick > 0 else np.zeros(S)
        prev_global = global_util

        # -- power model ------------------------------------------------
        dynamic = np.zeros(S)
        static = np.zeros(S)
        span_sum = np.zeros(S)
        busy_sum = np.zeros(S)
        for core in range(C):
            on = online[:, core]
            opp = freq_idx[:, core]
            dynamic = dynamic + np.where(on, busy_fraction[:, core] * context.DYN[opp], 0.0)
            static = static + np.where(on, context.STATIC[opp], 0.0)
            span_sum = span_sum + np.where(on, context.SPANF[opp], 0.0)
            busy_sum = busy_sum + np.where(on, busy_fraction[:, core], 0.0)
        mean_span = span_sum / online_count
        mean_busy = busy_sum / online_count
        overhead = np.where(
            online_count >= 2, context.ovh_base + context.ovh_span * mean_span, 0.0
        )
        cache = mean_busy * (context.cache_base + context.cache_span * mean_span)
        cpu_mw = ((dynamic + static) + overhead) + cache
        total_mw = (cpu_mw + context.base_mw) + context.uncore_mw

        # -- thermal ----------------------------------------------------
        steady = context.ambient + ((context.resistance * cpu_mw) / 1000.0)
        temperature = temperature + ((steady - temperature) * context.alpha)
        hot = temperature > context.throttle_temp
        cold = (~hot) & (temperature < context.release_temp) & (throttle_steps > 0)
        throttle_steps = np.where(
            hot,
            np.minimum(throttle_steps + 1, context.n_opp - 1),
            np.where(cold, throttle_steps - 1, throttle_steps),
        )

        # -- trace record (pre-decision state) --------------------------
        scaled_acc = np.zeros(S)
        for core in range(C):
            scaled_acc = scaled_acc + np.where(
                online[:, core],
                (busy_fraction[:, core] * khz_f[:, core]) / context.fmax,
                0.0,
            )
        scaled_load_trace = (100.0 * scaled_acc) / C
        page = scalars_out[tick]
        page[:, 0] = tick
        page[:, 1] = time_grid[tick]
        page[:, 2] = global_util
        page[:, 3] = quota
        page[:, 4] = total_mw
        page[:, 5] = cpu_mw
        page[:, 6] = temperature
        page[:, 7] = total_backlog
        page[:, 8] = dropped
        page[:, 9] = np.nan  # BusyLoopApp.tick_fps() is None
        page[:, 10] = scaled_load_trace
        freq_out[tick] = context.FREQ[freq_idx]
        online_out[tick] = online
        busy_out[tick] = busy_fraction

        # -- observe + decide -------------------------------------------
        total_scaled = np.zeros(S)
        for core in range(C):
            total_scaled = total_scaled + np.where(
                online[:, core],
                (load[:, core] * khz_f[:, core]) / context.fmax,
                0.0,
            )
        obs = _TickObs(
            tick=tick,
            load=load,
            global_util=global_util,
            delta_util=delta_util,
            freq_idx=freq_idx,
            online=online,
            online_count=online_count,
            quota=quota,
            total_scaled=total_scaled,
        )
        targets, mask, has_mask, decided_quota = kernel.decide(obs)

        # -- apply: hotplug, then cpufreq, then bandwidth ---------------
        effective_mask = np.where(has_mask[:, None], mask, online)
        hotplug_transitions = hotplug_transitions + (effective_mask != online).sum(
            axis=1
        )
        online = effective_mask

        has_target = ~np.isnan(targets)
        cap_idx = np.maximum(context.n_opp - 1 - throttle_steps, 0)
        cap_khz = context.FREQ_F[cap_idx]
        clamped = np.minimum(np.maximum(targets, context.fmin_f), context.fmax_f)
        clamped = np.minimum(clamped, cap_khz[:, None])
        with np.errstate(invalid="ignore"):
            new_idx = np.minimum(
                np.searchsorted(context.FREQ, np.nan_to_num(clamped, nan=np.inf), side="left"),
                context.n_opp - 1,
            )
        dvfs_transitions = dvfs_transitions + (
            has_target & (new_idx != freq_idx)
        ).sum(axis=1)
        freq_idx = np.where(has_target, new_idx, freq_idx)
        if not context.per_core_dvfs:
            fastest = np.where(online, freq_idx, -1).max(axis=1)
            shifted = online & (freq_idx != fastest[:, None])
            dvfs_transitions = dvfs_transitions + shifted.sum(axis=1)
            freq_idx = np.where(online, fastest[:, None], freq_idx)

        quota = np.maximum(decided_quota, 0.10)

    # -- finalize: per-member TraceBuffer, SessionResult, summary -------
    results: List[Tuple[int, SessionSummary]] = []
    for j, member in enumerate(members):
        recorder = TraceRecorder(
            warmup_ticks=context.warmup, num_cores=C, expected_ticks=max(T, 1)
        )
        buffer = recorder._buffer
        buffer._scalars[:T] = scalars_out[:, j, :]
        buffer._frequencies[:T] = freq_out[:, j, :]
        buffer._online[:T] = online_out[:, j, :]
        buffer._busy[:T] = busy_out[:, j, :]
        buffer._n = T
        if T > 0:
            buffer._last_tick = T - 1
        result = SessionResult(
            platform_name=context.spec.name,
            policy_name=member.policy_name,
            workload_name=member.workload_name,
            config=member.spec.config,
            trace=recorder,
            workload_metrics={"executed_cycles": float(executed_cycles[j])},
            cpuidle=CpuidleStats(C),
            dvfs_transitions=int(dvfs_transitions[j]),
            hotplug_transitions=int(hotplug_transitions[j]),
        )
        results.append((member.index, summarize(result)))
    return results
