"""Analysis utilities: solution-space counting, sweeps, statistics."""

from repro._lazy import lazy_exports

__all__ = [
    "count_linear_extensions",
    "chain_interleavings",
    "context_placements",
    "solution_space_report",
    "SolutionSpaceReport",
    "mean",
    "std",
    "median",
    "confidence_interval95",
    "Summary",
    "summarize",
    "DeviceSweepRow",
    "run_device_sweep",
    "ascii_plot",
    "plot_sweep",
    "plot_trace",
]

lazy_exports(globals(), {
    "repro.analysis.combinatorics": (
        "count_linear_extensions", "chain_interleavings", "context_placements",
        "solution_space_report", "SolutionSpaceReport",
    ),
    "repro.analysis.stats": (
        "mean", "std", "median", "confidence_interval95", "Summary",
        "summarize",
    ),
    "repro.analysis.sweep": ("DeviceSweepRow", "run_device_sweep"),
    "repro.analysis.plot": ("ascii_plot", "plot_sweep", "plot_trace"),
})
