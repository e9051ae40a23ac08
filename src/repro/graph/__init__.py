"""Graph substrate: DAGs, incremental closures and longest-path algebra.

This subpackage is self-contained (no dependency on the application or
architecture models) and provides:

* :class:`~repro.graph.dag.Dag` — a mutable directed acyclic graph with
  node/edge attributes, the base structure for task graphs and search
  graphs.
* :class:`~repro.graph.closure.PathCountClosure` — an incrementally
  maintained path-count matrix giving O(1) reachability/cycle queries
  (the "transitive closure matrix" of the paper's section 4.3).
* :mod:`~repro.graph.longest_path` — topological longest-path dynamic
  programming (the paper's makespan evaluation, section 4.4).
* :class:`~repro.graph.maxplus.MaxPlusClosure` — a max-plus all-pairs
  longest-distance matrix with Woodbury-style incremental edge updates
  (the paper's incremental evaluation, section 4.4).
* :mod:`~repro.graph.generators` — random DAG generators used by tests
  and benchmarks.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Dag",
    "NodeInterner",
    "PathCountClosure",
    "MaxPlusClosure",
    "NEG_INF",
    "topological_order",
    "longest_path_length",
    "earliest_start_times",
    "earliest_starts_indexed",
    "kahn_order_indices",
    "makespan_from_starts",
    "critical_path",
]

lazy_exports(globals(), {
    "repro.graph.dag": ("Dag", "NodeInterner"),
    "repro.graph.closure": ("PathCountClosure",),
    "repro.graph.maxplus": ("MaxPlusClosure", "NEG_INF"),
    "repro.graph.longest_path": (
        "topological_order", "longest_path_length", "earliest_start_times",
        "earliest_starts_indexed", "kahn_order_indices",
        "makespan_from_starts", "critical_path",
    ),
})
