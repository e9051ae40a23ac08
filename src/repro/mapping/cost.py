"""Cost functions: what the annealer minimizes.

The paper optimizes two regimes:

* with a **fixed architecture** (the DATE'05 experiments) the criterion
  "becomes here the execution time" — :class:`MakespanCost`;
* in the **general method** the tool "finds a solution that minimizes
  system cost while meeting the performance constraints" —
  :class:`SystemCost` combines resource cost with a deadline penalty and
  drives the architecture-exploration moves m3/m4.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import ConfigurationError
from repro.mapping.evaluator import Evaluation
from repro.mapping.solution import Solution


class CostFunction(ABC):
    """Maps (solution, evaluation) to the scalar the annealer minimizes."""

    @abstractmethod
    def __call__(self, solution: Solution, evaluation: Evaluation) -> float:
        ...


class MakespanCost(CostFunction):
    """Execution time only (the paper's fixed-architecture objective)."""

    def __call__(self, solution: Solution, evaluation: Evaluation) -> float:
        return evaluation.makespan_ms


class SystemCost(CostFunction):
    """Monetary resource cost plus a deadline-violation penalty.

    ``cost = total_monetary_cost + penalty_per_ms * max(0, makespan - deadline)``

    With a large ``penalty_per_ms`` the annealer first drives the design
    into the feasible region, then trims resources — the "minimum cost
    meeting the performance constraints" objective of the introduction.
    """

    def __init__(self, deadline_ms: float, penalty_per_ms: float = 10.0) -> None:
        if deadline_ms <= 0:
            raise ConfigurationError("deadline_ms must be > 0")
        if penalty_per_ms <= 0:
            raise ConfigurationError("penalty_per_ms must be > 0")
        self.deadline_ms = deadline_ms
        self.penalty_per_ms = penalty_per_ms

    def __call__(self, solution: Solution, evaluation: Evaluation) -> float:
        lateness = max(0.0, evaluation.makespan_ms - self.deadline_ms)
        return solution.architecture.total_monetary_cost() + self.penalty_per_ms * lateness
