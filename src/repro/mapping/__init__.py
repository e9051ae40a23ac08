"""Mapping layer: solutions, search graphs, evaluation and schedules.

A *solution* (paper section 3.3) simultaneously fixes the HW/SW spatial
partitioning, the temporal partitioning into contexts, the software
total order and (implicitly, through the deterministic bus serializer)
the transaction order.  A solution is *realized* as a search graph — the
task graph plus sequentialization edges — whose longest path is the
solution's execution time (section 4.4).
"""

from repro._lazy import lazy_exports

__all__ = [
    "Solution",
    "random_initial_solution",
    "SearchGraph",
    "SearchGraphBuilder",
    "COMM_NODE",
    "ENGINES",
    "ArrayEngine",
    "CompiledInstance",
    "compile_instance",
    "EvaluationEngine",
    "FullRebuildEngine",
    "IncrementalEngine",
    "make_engine",
    "Evaluation",
    "Evaluator",
    "Schedule",
    "ScheduleEntry",
    "extract_schedule",
    "render_gantt",
    "CostFunction",
    "MakespanCost",
    "SystemCost",
    "ExecutionSimulator",
    "SimEvent",
    "SimulationResult",
    "simulate",
]

lazy_exports(globals(), {
    "repro.mapping.solution": ("Solution", "random_initial_solution"),
    "repro.mapping.search_graph": (
        "SearchGraph", "SearchGraphBuilder", "COMM_NODE",
    ),
    "repro.mapping.compiled": ("CompiledInstance", "compile_instance"),
    "repro.mapping.engine": (
        "ENGINES", "ArrayEngine", "EvaluationEngine", "FullRebuildEngine",
        "IncrementalEngine", "make_engine",
    ),
    "repro.mapping.evaluator": ("Evaluation", "Evaluator"),
    "repro.mapping.schedule": (
        "Schedule", "ScheduleEntry", "extract_schedule",
    ),
    "repro.mapping.gantt": ("render_gantt",),
    "repro.mapping.cost": ("CostFunction", "MakespanCost", "SystemCost"),
    "repro.mapping.simulator": (
        "ExecutionSimulator", "SimEvent", "SimulationResult", "simulate",
    ),
})
