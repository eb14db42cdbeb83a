"""Experiment harness: traces, comparisons, statistics, plotting, reports."""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.analysis.anytime": (
            "anytime_auc",
            "anytime_table",
            "best_at",
            "first_time_to",
        ),
        "repro.analysis.ascii_plot": ("Series", "line_plot", "sparkline"),
        "repro.analysis.grid": (
            "GridResult",
            "grid_from_experiment",
            "run_grid",
        ),
        "repro.analysis.convergence": (
            "StagnationStats",
            "normalized_auc",
            "stagnation",
        ),
        "repro.analysis.compare": (
            "COMPARISON_SE_BIAS",
            "ComparisonResult",
            "ComparisonSeries",
            "compare_named",
            "make_time_grid",
            "series_from_trace",
        ),
        "repro.analysis.pareto": ("cheapest_within", "pareto_front", "pareto_table"),
        "repro.analysis.report": ("markdown_table",),
        "repro.analysis.robust": ("RiskSummary", "compare_risk", "risk_profile"),
        "repro.analysis.stats": (
            "SummaryStats",
            "WinLossRecord",
            "geometric_mean",
            "summarize",
            "win_loss",
        ),
        "repro.analysis.trace": ("ConvergenceTrace", "IterationRecord", "downsample"),
        "repro.analysis.online": ("flow_table", "summary_lines"),
    },
)
