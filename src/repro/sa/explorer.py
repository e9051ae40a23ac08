"""High-level design-space exploration tool — the paper's user-facing API.

:class:`DesignSpaceExplorer` wires together the application model, the
architecture, the evaluator, the move generator and the adaptive
annealer, reproducing the tool of the paper: give it an application and
an architecture, call :meth:`run`, read off the best mapping, its
schedule, and the iteration trace (Fig. 2's data).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.arch.architecture import Architecture
from repro.arch.resource import Resource
from repro.errors import ConfigurationError
from repro.mapping.cost import CostFunction, MakespanCost
from repro.mapping.evaluator import Evaluation, Evaluator
from repro.mapping.schedule import Schedule, extract_schedule
from repro.mapping.solution import Solution, random_initial_solution
from repro.sa.annealer import AnnealerConfig, SimulatedAnnealing
from repro.sa.moves import MoveGenerator
from repro.sa.schedules import CoolingSchedule, make_schedule
from repro.sa.trace import TraceRecord
from repro.search.strategy import (
    SearchBudget,
    SearchResult,
    SearchStrategy,
    StepCallback,
)


@dataclass
class ExplorationResult:
    """Everything an exploration run produces."""

    best_solution: Solution
    best_evaluation: Evaluation
    initial_evaluation: Evaluation
    annealing: SearchResult

    @property
    def trace(self) -> List[TraceRecord]:
        return self.annealing.trace

    @property
    def runtime_s(self) -> float:
        return self.annealing.runtime_s

    def schedule(self, evaluator: Evaluator) -> Schedule:
        graph = evaluator.realize(self.best_solution)
        return extract_schedule(self.best_solution, graph)


class DesignSpaceExplorer(SearchStrategy):
    """The paper's exploration tool.

    Parameters
    ----------
    application, architecture:
        The problem instance.  The architecture is mutated only when
        ``p_zero > 0`` (architecture exploration through m3/m4).
    schedule_name:
        ``"lam"`` (default, the adaptive statistical schedule),
        ``"modified_lam"`` or ``"geometric"``.
    cost_function:
        Defaults to :class:`MakespanCost` (the paper's fixed-architecture
        criterion); pass :class:`~repro.mapping.cost.SystemCost` together
        with ``p_zero > 0`` and a catalog for architecture exploration.
    bus_policy:
        ``"ordered"`` (transaction serialization, default) or ``"edge"``.
    engine:
        Evaluation engine: ``"full"`` (reference rebuild-per-candidate)
        or ``"incremental"`` (delta evaluation over a persistent
        topological order and longest-path DP; the fast path).
        ``"array"`` is an alias of ``"incremental"``.  Same makespans
        bit-for-bit either way.  See :mod:`repro.mapping.engine`.
    """

    name = "sa"

    def __init__(
        self,
        application,
        architecture: Architecture,
        iterations: int = 5000,
        warmup_iterations: int = 1200,
        seed: Optional[int] = None,
        schedule_name: str = "lam",
        schedule_kwargs: Optional[dict] = None,
        cost_function: Optional[CostFunction] = None,
        p_zero: float = 0.0,
        p_impl: float = 0.15,
        catalog: Optional[Sequence[Callable[[str], Resource]]] = None,
        bus_policy: str = "ordered",
        keep_trace: bool = True,
        stall_limit: Optional[int] = None,
        initial_hw_fraction: Optional[float] = None,
        engine: str = "full",
    ) -> None:
        application.validate()
        architecture.validate()
        self.application = application
        self.architecture = architecture
        self.seed = seed
        self.initial_hw_fraction = initial_hw_fraction
        self.evaluator = Evaluator(
            application, architecture, bus_policy, engine=engine
        )
        self.move_generator = MoveGenerator(
            application, p_zero=p_zero, p_impl=p_impl, catalog=catalog
        )
        horizon = max(1, iterations - warmup_iterations)
        self.schedule: CoolingSchedule = make_schedule(
            schedule_name, horizon=horizon, **(schedule_kwargs or {})
        )
        self.config = AnnealerConfig(
            iterations=iterations,
            warmup_iterations=warmup_iterations,
            seed=seed,
            keep_trace=keep_trace,
            stall_limit=stall_limit,
        )
        self.annealer = SimulatedAnnealing(
            evaluator=self.evaluator,
            move_generator=self.move_generator,
            schedule=self.schedule,
            cost_function=cost_function if cost_function is not None else MakespanCost(),
            config=self.config,
        )

    # ------------------------------------------------------------------
    def initial_solution(self) -> Solution:
        rng = random.Random(self.seed)
        return random_initial_solution(
            self.application,
            self.architecture,
            rng,
            hw_fraction=self.initial_hw_fraction,
        )

    def run(self, initial: Optional[Solution] = None) -> ExplorationResult:
        """Run the full iteration budget and return the best mapping."""
        solution = initial if initial is not None else self.initial_solution()
        initial_evaluation = self.evaluator.evaluate(solution)
        annealing = self.annealer.run(solution)
        best_evaluation = self.evaluator.evaluate(annealing.best_solution)
        return ExplorationResult(
            best_solution=annealing.best_solution,
            best_evaluation=best_evaluation,
            initial_evaluation=initial_evaluation,
            annealing=annealing,
        )

    def search(
        self,
        initial: Optional[Solution] = None,
        budget: Optional[SearchBudget] = None,
        on_step: Optional[StepCallback] = None,
    ) -> SearchResult:
        """:class:`~repro.search.strategy.SearchStrategy` form of
        :meth:`run`: the unified result, with the full evaluations of
        the best and initial solutions in ``extras``."""
        solution = initial if initial is not None else self.initial_solution()
        initial_evaluation = self.evaluator.evaluate(solution)
        self.annealer.telemetry = self.telemetry
        annealing = self.annealer.search(
            solution, budget=budget, on_step=on_step
        )
        annealing.extras["best_evaluation"] = self.evaluator.evaluate(
            annealing.best_solution
        )
        annealing.extras["initial_evaluation"] = initial_evaluation
        return annealing

    def run_interruptible(
        self,
        stop: Callable[[SearchResult], bool],
        initial: Optional[Solution] = None,
    ) -> ExplorationResult:
        """Anytime variant: ``stop`` is polled after every iteration.

        Demonstrates the paper's "can be interrupted by the user at any
        time and will then return the current solution".
        """
        solution = initial if initial is not None else self.initial_solution()
        initial_evaluation = self.evaluator.evaluate(solution)
        annealing: Optional[SearchResult] = None
        for annealing in self.annealer.iterate(solution):
            if stop(annealing):
                break
        if annealing is None:
            raise ConfigurationError("annealer yielded no iterations")
        best_evaluation = self.evaluator.evaluate(annealing.best_solution)
        return ExplorationResult(
            best_solution=annealing.best_solution,
            best_evaluation=best_evaluation,
            initial_evaluation=initial_evaluation,
            annealing=annealing,
        )
