"""Experiment harness: one module per paper artefact.

Every table and figure of the paper's evaluation (section 5) has a
``run_*`` function here and a corresponding bench in ``benchmarks/``;
EXPERIMENTS.md records paper-vs-measured values.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Fig2Result",
    "run_fig2",
    "run_fig3",
    "FIG3_SIZES",
    "ComparisonResult",
    "run_comparison",
    "ScheduleAblationRow",
    "run_schedule_ablation",
    "run_impl_ablation",
    "run_bus_ablation",
    "ParetoPoint",
    "format_pareto_table",
    "run_pareto_front",
    "QualityKnobRow",
    "format_quality_table",
    "run_quality_knob",
]

lazy_exports(globals(), {
    "repro.experiments.fig2": ("Fig2Result", "run_fig2"),
    "repro.experiments.fig3": ("run_fig3", "FIG3_SIZES"),
    "repro.experiments.comparison": ("ComparisonResult", "run_comparison"),
    "repro.experiments.ablations": (
        "ScheduleAblationRow", "run_schedule_ablation", "run_impl_ablation",
        "run_bus_ablation",
    ),
    "repro.experiments.pareto": (
        "ParetoPoint", "format_pareto_table", "run_pareto_front",
    ),
    "repro.experiments.quality": (
        "QualityKnobRow", "format_quality_table", "run_quality_knob",
    ),
})
