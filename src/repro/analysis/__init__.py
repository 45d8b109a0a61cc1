"""Analysis harnesses: sweeps, ratios, policy comparisons, and reports.

These are the reusable pieces the per-figure experiment drivers build
on: run a session, sweep a grid of operating points or workloads,
compare two policies on identical demand, and render ASCII tables or
series the way the paper's figures tabulate them.
"""

from .sweep import run_session, utilization_sweep, core_count_sweep
from .ratio import performance_power_ratio, RatioPoint
from .comparison import (
    PolicyComparison,
    ComparisonRow,
    comparison_rows,
    comparison_rows_from_store,
)
from .report import render_table, render_series, format_mw, format_mhz
from .fitting import PowerSample, FitResult, fit_power_params, collect_samples
from .biglittle import (
    ClusterModel,
    compare_clusters,
    default_big_cluster,
    default_little_cluster,
)

__all__ = [
    "ClusterModel",
    "compare_clusters",
    "default_big_cluster",
    "default_little_cluster",
    "PowerSample",
    "FitResult",
    "fit_power_params",
    "collect_samples",
    "run_session",
    "utilization_sweep",
    "core_count_sweep",
    "performance_power_ratio",
    "RatioPoint",
    "PolicyComparison",
    "ComparisonRow",
    "comparison_rows",
    "comparison_rows_from_store",
    "render_table",
    "render_series",
    "format_mw",
    "format_mhz",
]
