"""Population annealing / parallel tempering over K cross-batched chains.

K independent annealing chains, each with its own current solution and
its own permanently-bound evaluation engine, propose one move per round
and score it through
:meth:`repro.mapping.engine.CrossChainEvaluator.propose_moves`.  The
paper's task graphs anneal hundreds of topological levels deep, so the
hot path is per-chain *persistent delta evaluation*: apply → delta-sync
→ read the makespan, commit-on-accept, lazy O(delta) re-diff on reject.

On top of the throughput win the population buys parallel tempering's
quality gains: chains occupy the rungs of a temperature ladder
(slot ``s`` anneals at ``schedule.temperature * ladder_ratio**s``), and
on a deterministic schedule adjacent rungs attempt a replica-exchange
swap with the standard acceptance probability
``min(1, exp((E_i - E_j) * (1/T_i - 1/T_j)))``.  A swap exchanges the
chains' *slot assignment* (their temperatures), never their solutions:
each chain's solution stays permanently bound to its per-chain engine,
so the incremental mirrors never re-sync across solutions mid-search.

Determinism contract (pinned by ``tests/sa/test_population.py``):

* ``chains=1`` with no exchange reproduces the ``"sa"`` strategy
  (:class:`~repro.sa.explorer.DesignSpaceExplorer`) bit-for-bit — same
  seed, same history, same trace, same best solution.
* Any fixed ``(seed, chains, ladder)`` is reproducible across runs,
  engines, ``PYTHONHASHSEED`` values and ``jobs=N`` worker fan-out:
  every random draw derives from the seed through per-chain
  splitmix-keyed streams (:func:`repro.sa.annealer._stream_seed`), and
  exchange rounds own private streams of the same family.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from repro.arch.architecture import Architecture
from repro.errors import ConfigurationError, InfeasibleMoveError
from repro.mapping.cost import CostFunction, MakespanCost
from repro.mapping.engine import CrossChainEvaluator
from repro.mapping.solution import Solution, random_initial_solution
from repro.sa.annealer import AnnealerConfig, _stream_seed
from repro.sa.moves import MoveGenerator, MoveStats
from repro.sa.schedules import make_schedule
from repro.sa.trace import TraceRecord
from repro.search.strategy import (
    SearchBudget,
    SearchResult,
    SearchStrategy,
    SearchTracker,
    StepCallback,
)


class PopulationAnnealer(SearchStrategy):
    """K cross-batched SA chains with optional replica exchange.

    Parameters mirror :class:`~repro.sa.explorer.DesignSpaceExplorer`
    where they mean the same thing; the population-specific knobs are:

    chains:
        Number of independent chains K.  ``iterations`` counts *rounds*
        (one proposed move per chain per round), so the evaluation
        budget is ``chains * iterations``.
    swap_interval:
        Attempt replica-exchange swaps between adjacent temperature
        slots every this many rounds once cooling has started
        (``None``/``0`` disables exchange).  Swap rounds alternate
        even/odd adjacent pairings, and each draws from a private
        seed-derived stream — the schedule is deterministic.
    ladder_ratio:
        Geometric temperature ladder: slot ``s`` runs at
        ``ladder_ratio ** s`` times its adaptive schedule's
        temperature.  Slot 0 (factor 1.0) is the cold rung — with
        ``chains=1`` it *is* plain adaptive SA.
    engine:
        Per-chain evaluation engine kind (every chain gets its own
        engine over one shared compile pass; the stateful engines keep
        each chain's delta state between rounds).  Every engine walks
        the identical trajectory.

    Architecture-exploration moves (``p_zero`` / catalog) are not
    supported: the K chains share one ``Architecture`` object, which
    m3/m4 would mutate under every other chain's feet.
    """

    name = "tempering"

    def __init__(
        self,
        application,
        architecture: Architecture,
        chains: int = 8,
        iterations: int = 5000,
        warmup_iterations: int = 1200,
        seed: Optional[int] = None,
        schedule_name: str = "lam",
        schedule_kwargs: Optional[dict] = None,
        cost_function: Optional[CostFunction] = None,
        p_impl: float = 0.15,
        bus_policy: str = "ordered",
        keep_trace: bool = True,
        stall_limit: Optional[int] = None,
        initial_hw_fraction: Optional[float] = None,
        swap_interval: Optional[int] = 25,
        ladder_ratio: float = 1.5,
        engine="array",
    ) -> None:
        application.validate()
        architecture.validate()
        if chains < 1:
            raise ConfigurationError(f"chains must be >= 1, got {chains!r}")
        if swap_interval is not None and swap_interval < 0:
            raise ConfigurationError(
                f"swap_interval must be >= 0 or None, got {swap_interval!r}"
            )
        if not ladder_ratio > 0:
            raise ConfigurationError(
                f"ladder_ratio must be > 0, got {ladder_ratio!r}"
            )
        self.application = application
        self.architecture = architecture
        self.chains = chains
        self.seed = seed
        self.swap_interval = swap_interval or None
        self.ladder_ratio = ladder_ratio
        self.schedule_name = schedule_name
        self.schedule_kwargs = dict(schedule_kwargs or {})
        self.initial_hw_fraction = initial_hw_fraction
        self.cost_function = (
            cost_function if cost_function is not None else MakespanCost()
        )
        self.config = AnnealerConfig(
            iterations=iterations,
            warmup_iterations=warmup_iterations,
            seed=seed,
            keep_trace=keep_trace,
            stall_limit=stall_limit,
        )
        self.config.validate()
        # The same schedule horizon the explorer derives (bit-identity
        # at chains=1 depends on it).
        self._horizon = max(1, iterations - warmup_iterations)
        self.evaluator = CrossChainEvaluator(
            application, architecture, chains, engine=engine,
            bus_policy=bus_policy,
        )
        self.move_generator = MoveGenerator(
            application, p_zero=0.0, p_impl=p_impl, catalog=None
        )

    # ------------------------------------------------------------------
    def _initials(
        self, initial: Optional[Solution], init_base: int
    ) -> List[Solution]:
        """Per-chain starting solutions.  Chain 0 draws exactly like the
        explorer (``random.Random(seed)``) so chains=1 is bit-identical
        to the ``"sa"`` strategy; chains 1.. draw from splitmix-keyed
        streams of the same seed."""
        solutions: List[Solution] = []
        for c in range(self.chains):
            if c == 0 and initial is not None:
                solutions.append(initial)
                continue
            rng = random.Random(
                self.seed if c == 0 else _stream_seed(init_base, c)
            )
            solutions.append(
                random_initial_solution(
                    self.application,
                    self.architecture,
                    rng,
                    hw_fraction=self.initial_hw_fraction,
                )
            )
        return solutions

    @staticmethod
    def _metropolis(
        current: float,
        candidate: float,
        cooling: bool,
        rng: random.Random,
        temperature: float,
    ) -> bool:
        """The annealer's Metropolis rule with the slot's effective
        temperature (``temperature`` is only read once cooling has
        begun — callers pass ``inf`` during warmup, when schedules
        expose no temperature yet)."""
        if not math.isfinite(candidate):
            return False  # cyclic realization: always reject
        delta = candidate - current
        if delta <= 0:
            return True
        if not cooling:
            return True  # infinite-temperature warmup accepts everything
        if temperature <= 0:
            return False
        return rng.random() < math.exp(-delta / temperature)

    # ------------------------------------------------------------------
    def search(
        self,
        initial: Optional[Solution] = None,
        budget: Optional[SearchBudget] = None,
        on_step: Optional[StepCallback] = None,
    ) -> SearchResult:
        config = self.config.with_budget(budget)
        config.validate()
        K = self.chains
        evaluator = self.evaluator
        cost_function = self.cost_function

        # Seed plan: chain 0's loop RNG is exactly the sequential
        # annealer's ``random.Random(seed)``; every auxiliary stream
        # (other chains' loops and initials, exchange draws) is keyed by
        # splitmix mixing, which is PYTHONHASHSEED- and process-stable.
        aux = random.Random(config.seed)
        chain_base = aux.getrandbits(64)
        init_base = aux.getrandbits(64)
        exchange_base = aux.getrandbits(64)
        rngs = [
            random.Random(
                config.seed if c == 0 else _stream_seed(chain_base, c)
            )
            for c in range(K)
        ]
        solutions = self._initials(initial, init_base)
        tele = self.telemetry

        evaluations_before = evaluator.evaluations
        with tele.phase("init"):
            initial_evaluations = [
                evaluator.evaluate(c, solutions[c]) for c in range(K)
            ]
            current = [
                cost_function(solutions[c], initial_evaluations[c])
                for c in range(K)
            ]
        if not all(math.isfinite(cost) for cost in current):
            raise ConfigurationError("initial solution must be feasible")

        stats = MoveStats()
        tracker = SearchTracker(
            self.name,
            budget=SearchBudget(
                iterations=config.iterations,
                time_limit_s=(
                    budget.time_limit_s if budget is not None else None
                ),
                stall_limit=config.stall_limit,
            ),
            seed=config.seed,
            on_step=on_step,
            keep_history=config.keep_trace,
            telemetry=tele,
        )
        result = tracker.result
        result.move_stats = stats
        lead = min(range(K), key=lambda c: (current[c], c))
        tracker.begin(current[lead], solutions[lead])

        # Temperature slots: chain c starts in slot c; exchange swaps
        # the assignment, never the solutions.
        slot_of_chain = list(range(K))
        chain_in_slot = list(range(K))
        factors = [self.ladder_ratio ** s for s in range(K)]
        schedules = [
            make_schedule(
                self.schedule_name, horizon=self._horizon,
                **self.schedule_kwargs,
            )
            for _ in range(K)
        ]
        warmup_costs = [[current[c]] for c in range(K)]
        cooling = False
        swap_attempts = 0
        swap_accepts = 0

        for iteration in range(1, config.iterations + 1):
            if not cooling and iteration > config.warmup_iterations:
                # No exchange happens before cooling, so slot s is still
                # occupied by chain s: each rung's adaptive schedule
                # begins from its own chain's warmup statistics.
                for s in range(K):
                    schedules[s].begin(warmup_costs[chain_in_slot[s]])
                cooling = True

            moves = []
            names = []
            with tele.phase("propose"):
                for c in range(K):
                    move = None
                    move_name = "none"
                    try:
                        move = self.move_generator.propose(
                            solutions[c], rngs[c]
                        )
                        move_name = move.name
                        stats.record_proposed(move_name)
                    except InfeasibleMoveError:
                        move = None
                    moves.append(move)
                    names.append(move_name)

            with tele.phase("evaluate"):
                outcomes = evaluator.propose_moves(
                    solutions, moves, cost_function
                )

            accepted = [False] * K
            feasible = [False] * K
            with tele.phase("accept"):
                for c in range(K):
                    outcome = outcomes[c]
                    if outcome is None:
                        # Null draw or infeasible application: the round
                        # counts, but carries no thermal information for
                        # this chain (and no transaction is open).
                        stats.record_infeasible(names[c])
                        continue
                    _evaluation, new_cost = outcome
                    feasible[c] = True
                    s = slot_of_chain[c]
                    accept = self._metropolis(
                        current[c], new_cost, cooling, rngs[c],
                        schedules[s].temperature * factors[s]
                        if cooling else math.inf,
                    )
                    # Commit-on-accept: on the persistent path an
                    # accepted move is already applied with its engine
                    # synced (no undo/re-apply/re-diff); a reject undoes
                    # the move and the engine's next delta-sync absorbs
                    # the reverse patch.
                    evaluator.resolve(c, solutions[c], moves[c], accept)
                    if accept:
                        current[c] = new_cost
                        stats.record_accepted(names[c])
                    else:
                        stats.record_rejected(names[c])
                    accepted[c] = accept

            lead = min(range(K), key=lambda c: (current[c], c))
            tracker.observe(
                iteration, current[lead], solutions[lead],
                accepted=accepted[lead], move_name=names[lead],
                stall_eligible=cooling and feasible[lead],
            )

            for c in range(K):
                if not feasible[c]:
                    continue
                if not cooling:
                    warmup_costs[c].append(current[c])
                else:
                    schedules[slot_of_chain[c]].record(
                        current[c], accepted[c]
                    )

            if config.keep_trace:
                cold = chain_in_slot[0]
                tracker.record_trace(
                    TraceRecord(
                        iteration=iteration,
                        temperature=(
                            schedules[0].temperature * factors[0]
                            if cooling
                            else math.inf
                        ),
                        current_cost=current[cold],
                        best_cost=result.best_cost,
                        num_contexts=solutions[cold].num_contexts(),
                        accepted=accepted[cold],
                        move_name=names[cold],
                    )
                )

            if tracker.exhausted():
                break

            if (
                K > 1
                and self.swap_interval
                and cooling
                and iteration % self.swap_interval == 0
            ):
                swap_round = iteration // self.swap_interval
                exchange_rng = random.Random(
                    _stream_seed(exchange_base, swap_round)
                )
                # Alternate even/odd adjacent pairings round by round so
                # replicas can traverse the whole ladder.
                for s in range(swap_round % 2, K - 1, 2):
                    t_cold = schedules[s].temperature * factors[s]
                    t_hot = schedules[s + 1].temperature * factors[s + 1]
                    if not (
                        math.isfinite(t_cold) and math.isfinite(t_hot)
                        and t_cold > 0 and t_hot > 0 and t_cold != t_hot
                    ):
                        continue
                    swap_attempts += 1
                    c_cold = chain_in_slot[s]
                    c_hot = chain_in_slot[s + 1]
                    exponent = (current[c_cold] - current[c_hot]) * (
                        1.0 / t_cold - 1.0 / t_hot
                    )
                    if (
                        exponent >= 0
                        or exchange_rng.random() < math.exp(exponent)
                    ):
                        swap_accepts += 1
                        chain_in_slot[s] = c_hot
                        chain_in_slot[s + 1] = c_cold
                        slot_of_chain[c_hot] = s
                        slot_of_chain[c_cold] = s + 1

        evaluations = evaluator.evaluations - evaluations_before
        best_evaluation = (
            evaluator.engines[0].evaluate(result.best_solution)
            if result.best_solution is not None
            else None
        )
        lead = min(range(K), key=lambda c: (current[c], c))
        if tele.enabled:
            tele.count("swap_attempts", swap_attempts)
            tele.count("swap_accepts", swap_accepts)
        tracker.record_engine(evaluator)
        return tracker.finish(
            evaluations=evaluations,
            best_evaluation=best_evaluation,
            initial_evaluation=initial_evaluations[0],
            chains=K,
            swap_attempts=swap_attempts,
            swap_accepts=swap_accepts,
            chain_costs=list(current),
            slot_of_chain=list(slot_of_chain),
        )
