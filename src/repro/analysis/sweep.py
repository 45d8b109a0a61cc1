"""Parameter sweeps over operating points and workload levels.

The section 3 characterisation experiments are sweeps: utilization at
fixed operating points (Figure 3), core count at fixed frequency
(Figure 4), frequency at fixed load (Figures 5-7).  Each sweep builds a
batch of declarative :class:`~repro.runner.spec.SessionSpec` and hands
it to a :class:`~repro.runner.runner.SessionRunner`, so grid points run
in parallel (and cache) whenever the platform is given by catalog name
or ref; a live :class:`PlatformSpec` still works and runs in-process.

:func:`run_session` remains the single-session primitive for callers
that need the *full trace* (fitting, thermal, operating-point drivers) —
traces never cross process boundaries, so it executes directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..config import SimulationConfig
from ..errors import ExperimentError
from ..kernel.engine import Session, SessionResult
from ..metrics.summary import SessionSummary
from ..policies.base import CpuPolicy
from ..runner.runner import SessionRunner, default_runner
from ..runner.spec import FactoryLike, FactoryRef, PlatformLike, SessionSpec
from ..scenario.registry import policy_ref, workload_ref
from ..soc.platform import Platform, PlatformSpec
from ..workloads.base import Workload

__all__ = [
    "run_session",
    "summary_columns",
    "summary_columns_from_store",
    "utilization_sweep",
    "frequency_sweep",
    "core_count_sweep",
]

#: SessionSummary fields :func:`summary_columns` extracts by default —
#: the quantities the characterisation figures plot against sweep axes.
_DEFAULT_SUMMARY_FIELDS = (
    "mean_power_mw",
    "mean_cpu_power_mw",
    "energy_mj",
    "mean_frequency_khz",
    "mean_online_cores",
    "mean_load_percent",
    "mean_scaled_load_percent",
)


def summary_columns(
    summaries: Sequence[SessionSummary],
    fields: Sequence[str] = _DEFAULT_SUMMARY_FIELDS,
) -> Dict[str, np.ndarray]:
    """Transpose sweep summaries into per-field numpy columns.

    Every sweep returns one :class:`SessionSummary` per grid point; the
    figures then want *columns* (power vs level, frequency vs point...).
    This builds them in one pass — ``fields`` may name any float-valued
    summary attribute.  ``mean_fps`` is allowed and maps its ``None``
    (no-FPS session) entries to ``NaN``, mirroring the trace buffer's
    FPS column convention.
    """
    if not summaries:
        raise ExperimentError("no summaries to columnise")
    columns: Dict[str, np.ndarray] = {}
    for field in fields:
        values = [getattr(summary, field) for summary in summaries]
        columns[field] = np.asarray(
            [np.nan if v is None else float(v) for v in values], dtype=np.float64
        )
    return columns


def summary_columns_from_store(
    store,
    query=None,
    fields: Sequence[str] = _DEFAULT_SUMMARY_FIELDS,
) -> Dict[str, np.ndarray]:
    """Per-field numpy columns straight from an experiment store.

    The store-reading twin of :func:`summary_columns`: summaries are
    read back from the sqlite index (bit-identical to the cached
    blobs, ordered by cache key) and columnised without running a
    single session — how characterisation figures rebuild from a store
    populated by earlier sweeps.

    Args:
        store: An open :class:`~repro.store.ExperimentStore` or the
            path of a store/cache directory to open.
        query: Optional :class:`~repro.store.StoreQuery` narrowing the
            axes (its projection is ignored; full summaries are read).
        fields: Summary attributes to extract, as in
            :func:`summary_columns`.

    Raises:
        ExperimentError: When the query matches no runs.
    """
    from ..store import ExperimentStore

    opened = store if isinstance(store, ExperimentStore) else ExperimentStore(store)
    return summary_columns(opened.summaries(query), fields)


def run_session(
    spec: PlatformSpec,
    workload: Workload,
    policy: CpuPolicy,
    config: Optional[SimulationConfig] = None,
    pin_uncore_max: bool = True,
) -> SessionResult:
    """Run one fresh session (new platform instance every time).

    A new :class:`Platform` per session keeps sweeps independent -- no
    thermal or hotplug state leaks between grid points.
    """
    return Session(
        Platform.from_spec(spec), workload, policy, config,
        pin_uncore_max=pin_uncore_max,
    ).run()


def _static_policy_ref(online_count: int, frequency_khz: int) -> FactoryRef:
    return policy_ref(
        "static", online_count=online_count, frequency_khz=frequency_khz
    )


def _busyloop_ref(
    level: float, num_threads: int = 0, reference_frequency_khz: int = 0
) -> FactoryRef:
    return workload_ref(
        "busyloop",
        target_load_percent=level,
        num_threads=num_threads,
        reference_frequency_khz=reference_frequency_khz,
    )


def _run_grid(
    spec: PlatformLike,
    points: Sequence[tuple],
    config: Optional[SimulationConfig],
    pin_uncore_max: bool,
    runner: Optional[SessionRunner],
) -> List[SessionSummary]:
    """Execute (policy, workload) grid points as one runner batch."""
    config = config if config is not None else SimulationConfig()
    batch = [
        SessionSpec(
            platform=spec,
            policy=policy,
            workload=workload,
            config=config,
            pin_uncore_max=pin_uncore_max,
        )
        for policy, workload in points
    ]
    active = runner if runner is not None else default_runner()
    return active.run(batch)


def utilization_sweep(
    spec: PlatformLike,
    online_count: int,
    frequency_khz: int,
    utilization_percents: Sequence[float],
    config: Optional[SimulationConfig] = None,
    pin_uncore_max: bool = False,
    runner: Optional[SessionRunner] = None,
) -> List[SessionSummary]:
    """Figure 3's sweep: busy-loop utilization at one fixed operating point.

    Utilization levels are *local*: each online core runs one thread at
    that percentage of its capacity at the pinned frequency, matching the
    paper's per-point characterisation.
    """
    if not utilization_percents:
        raise ExperimentError("utilization sweep needs at least one level")
    points = [
        (
            _static_policy_ref(online_count, frequency_khz),
            _busyloop_ref(
                level, num_threads=online_count, reference_frequency_khz=frequency_khz
            ),
        )
        for level in utilization_percents
    ]
    return _run_grid(spec, points, config, pin_uncore_max, runner)


def frequency_sweep(
    spec: PlatformLike,
    online_count: int,
    frequencies_khz: Sequence[int],
    utilization_percent: float,
    config: Optional[SimulationConfig] = None,
    workload_factory: Optional[FactoryLike] = None,
    pin_uncore_max: bool = False,
    runner: Optional[SessionRunner] = None,
) -> List[SessionSummary]:
    """Frequency sweep at a fixed core count and load (Figures 5-7).

    ``workload_factory`` substitutes a different demand generator (e.g.
    the GeekBench-like benchmark for Figures 6-7); the default is the
    busy-loop app at *utilization_percent*.  Pass a
    :class:`FactoryRef` to keep the sweep portable.
    """
    if not frequencies_khz:
        raise ExperimentError("frequency sweep needs at least one frequency")
    points = [
        (
            _static_policy_ref(online_count, frequency),
            workload_factory if workload_factory is not None
            else _busyloop_ref(utilization_percent),
        )
        for frequency in frequencies_khz
    ]
    return _run_grid(spec, points, config, pin_uncore_max, runner)


def core_count_sweep(
    spec: PlatformLike,
    core_counts: Sequence[int],
    frequency_khz: int,
    utilization_percent: float = 100.0,
    config: Optional[SimulationConfig] = None,
    pin_uncore_max: bool = False,
    runner: Optional[SessionRunner] = None,
) -> List[SessionSummary]:
    """Figure 4's sweep: core count at one frequency, 100% local load."""
    if not core_counts:
        raise ExperimentError("core-count sweep needs at least one count")
    points = [
        (
            _static_policy_ref(count, frequency_khz),
            _busyloop_ref(
                utilization_percent,
                num_threads=count,
                reference_frequency_khz=frequency_khz,
            ),
        )
        for count in core_counts
    ]
    return _run_grid(spec, points, config, pin_uncore_max, runner)
