"""Baseline optimizers the paper compares against or mentions.

* :mod:`~repro.baselines.ga` — the genetic-algorithm flow of Ben Chehida
  & Auguin [6] (the paper's experimental comparator): GA spatial
  partitioning, deterministic clustering for temporal partitioning,
  critical-path list scheduling.
* :mod:`~repro.baselines.tabu` — tabu search (the paper's related-work
  discussion singles out its tabu-list tuning burden).
* :mod:`~repro.baselines.hill_climber`, :mod:`~repro.baselines.random_search`
  — sanity baselines for the ablation benches.
"""

from repro._lazy import lazy_exports

__all__ = [
    "cluster_into_contexts",
    "list_schedule_software",
    "decode_partition",
    "GeneticConfig",
    "GeneticPartitioner",
    "TabuConfig",
    "TabuSearch",
    "HillClimber",
    "RandomSearch",
]

lazy_exports(globals(), {
    "repro.baselines.clustering": ("cluster_into_contexts",),
    "repro.baselines.list_scheduler": (
        "list_schedule_software", "decode_partition",
    ),
    "repro.baselines.ga": ("GeneticConfig", "GeneticPartitioner"),
    "repro.baselines.tabu": ("TabuConfig", "TabuSearch"),
    "repro.baselines.hill_climber": ("HillClimber",),
    "repro.baselines.random_search": ("RandomSearch",),
})
