"""Experiment harness: traces, comparisons, statistics, plotting, reports."""

from repro.analysis.anytime import (
    anytime_auc,
    anytime_table,
    best_at,
    first_time_to,
)
from repro.analysis.ascii_plot import Series, line_plot, sparkline
from repro.analysis.grid import (
    GridCellResult,
    GridResult,
    grid_from_experiment,
    run_grid,
)
from repro.analysis.convergence import (
    StagnationStats,
    iterations_to_within,
    normalized_auc,
    speedup_to_reach,
    stagnation,
    time_to_target,
)
from repro.analysis.compare import (
    COMPARISON_SE_BIAS,
    ComparisonResult,
    ComparisonSeries,
    compare_named,
    make_time_grid,
    series_from_trace,
)
from repro.analysis.pareto import (
    cheapest_within,
    pareto_front,
    pareto_table,
)
from repro.analysis.report import (
    ExperimentRecord,
    markdown_table,
    render_report,
)
from repro.analysis.robust import RiskSummary, compare_risk, risk_profile
from repro.analysis.stats import (
    SummaryStats,
    WinLossRecord,
    geometric_mean,
    makespan_ratio,
    summarize,
    win_loss,
)
from repro.analysis.trace import ConvergenceTrace, IterationRecord, downsample

# imported last: repro.analysis.online pulls in repro.online, which leans
# on the modules above being importable already
from repro.analysis.online import flow_table, summary_lines  # noqa: E402

__all__ = [
    "COMPARISON_SE_BIAS",
    "anytime_auc",
    "anytime_table",
    "best_at",
    "first_time_to",
    "Series",
    "line_plot",
    "sparkline",
    "ComparisonResult",
    "ComparisonSeries",
    "compare_named",
    "make_time_grid",
    "series_from_trace",
    "ExperimentRecord",
    "markdown_table",
    "render_report",
    "SummaryStats",
    "WinLossRecord",
    "geometric_mean",
    "makespan_ratio",
    "summarize",
    "win_loss",
    "ConvergenceTrace",
    "IterationRecord",
    "downsample",
    "StagnationStats",
    "iterations_to_within",
    "normalized_auc",
    "speedup_to_reach",
    "stagnation",
    "time_to_target",
    "GridCellResult",
    "GridResult",
    "grid_from_experiment",
    "run_grid",
    "cheapest_within",
    "pareto_front",
    "pareto_table",
    "RiskSummary",
    "compare_risk",
    "risk_profile",
    "flow_table",
    "summary_lines",
]
