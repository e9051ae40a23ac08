"""Application model: tasks, implementations and precedence graphs.

Implements the paper's application model (section 3.1): a coarse-grain
precedence DAG whose nodes carry a functionality, a software execution
time estimate, and a set of dominant (Pareto) hardware implementations —
each a (CLB count, execution time) point — and whose edges carry the
amount of data exchanged.

The motion-detection benchmark of section 5 is provided by
:func:`repro.model.motion.motion_detection_application`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Implementation",
    "Task",
    "pareto_filter",
    "is_dominant_set",
    "Application",
    "FunctionalitySpec",
    "synthesize_implementations",
    "FUNCTION_LIBRARY",
    "motion_detection_application",
    "MOTION_TOTAL_SW_TIME_MS",
    "SdfActor",
    "SdfChannel",
    "SdfGraph",
    "GeneratorConfig",
    "random_application",
]

lazy_exports(globals(), {
    "repro.model.task": (
        "Implementation", "Task", "pareto_filter", "is_dominant_set",
    ),
    "repro.model.application": ("Application",),
    "repro.model.functions": (
        "FunctionalitySpec", "synthesize_implementations", "FUNCTION_LIBRARY",
    ),
    "repro.model.motion": (
        "motion_detection_application", "MOTION_TOTAL_SW_TIME_MS",
    ),
    "repro.model.sdf": ("SdfActor", "SdfChannel", "SdfGraph"),
    "repro.model.generator": ("GeneratorConfig", "random_application"),
})
