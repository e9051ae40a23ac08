"""Parallel multi-seed experiment runner.

The paper's headline result is statistical (Fig. 3 averages 100
annealing runs per device size), and its comparison with the GA flow is
a wall-clock argument — so the repository needs to run *batches* of
searches, and it needs to saturate the machine doing so.  This module
executes a list of :class:`SearchJob` — ``(strategy spec, instance,
seed)`` triples — either inline or across worker processes.

Design rules that make parallel results **bit-identical** to sequential
ones for fixed seeds:

* Job specs are plain picklable data (spawn-safe: no lambdas, no open
  handles); workers rebuild strategies from the spec registry.
* Every job runs against its own private object graph.  Worker
  processes get one by construction (pickling); the inline path pickles
  each job through :func:`_isolate` so a shared ``Application`` or
  ``Architecture`` can never leak state between jobs, in either mode.
* Jobs without an explicit seed get one derived from ``base_seed``
  through ``SeedSequence`` spawning (a pure-Python port of NumPy's, so
  the seeds do not depend on the install), and adding workers never
  re-deals them.
* Outcomes are returned in submission order regardless of completion
  order.

``checkpoint_path`` appends one JSONL row per finished job (strategy
kind, seed, best cost, serialized best solution, history); re-running
with the same path skips the finished jobs and reloads their results,
so a multi-hour sweep survives interruption.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import os
import pickle
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.arch.architecture import Architecture, epicure_architecture
from repro.errors import ConfigurationError
from repro.mapping.evaluator import Evaluation, Evaluator
from repro.mapping.solution import Solution
from repro.model.application import Application
from repro.search.strategy import SearchBudget, SearchResult, SearchStrategy

# ----------------------------------------------------------------------
# seeds
# ----------------------------------------------------------------------
# NumPy's ``SeedSequence`` (O'Neill's seed_seq hash mixing, pool of four
# 32-bit words), ported so seeds never depend on the install and
# deriving them never imports NumPy.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value: int) -> List[int]:
    """Little-endian 32-bit words of a non-negative integer (0 -> [0])."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _spawned_seed(entropy: List[int], index: int) -> int:
    """``SeedSequence(entropy).spawn(index + 1)[index].generate_state(1)[0]``
    for ``entropy`` given as its 32-bit words."""
    words = entropy + [0] * (_POOL_SIZE - len(entropy)) + _uint32_words(index)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    value = ((pool[0] ^ _INIT_B) * ((_INIT_B * _MULT_B) & _MASK32)) & _MASK32
    return value ^ (value >> 16)


def derive_seeds(base_seed: int, n: int) -> List[int]:
    """``n`` statistically independent 32-bit seeds from one base seed.

    Equal to ``numpy.random.SeedSequence(base_seed).spawn(n)`` with each
    child's ``generate_state(1)[0]`` (the recommended way to key
    parallel streams), computed in pure Python: the seeds are the same
    whether or not NumPy is installed.
    """
    if n < 0:
        raise ConfigurationError("cannot derive a negative number of seeds")
    base_seed = operator.index(base_seed)
    if base_seed < 0:
        raise ConfigurationError(
            f"base seed must be a non-negative integer, got {base_seed}"
        )
    entropy = _uint32_words(base_seed)
    return [_spawned_seed(entropy, index) for index in range(n)]


# ----------------------------------------------------------------------
# job specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StrategySpec:
    """Which searcher to run and how to configure it.

    ``kind`` keys into :data:`STRATEGY_KINDS`; ``options`` are the
    keyword knobs of that strategy's builder (all plain data, so the
    spec pickles across a ``spawn`` boundary).  Unknown option keys are
    rejected up front — a misspelled knob must fail loudly, not run a
    silently different experiment.
    """

    kind: str
    options: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ConfigurationError(
                f"unknown strategy kind {self.kind!r}; "
                f"known: {sorted(STRATEGY_KINDS)}"
            )
        unknown = set(self.options) - KNOWN_OPTIONS[self.kind]
        if unknown:
            raise ConfigurationError(
                f"unknown option(s) for strategy {self.kind!r}: "
                f"{sorted(unknown)}; known: {sorted(KNOWN_OPTIONS[self.kind])}"
            )

    def fingerprint(self) -> str:
        """Stable identity of kind + options for checkpoint matching.

        Non-JSON option values (e.g. a resource catalog of callables)
        serialize via ``repr``, whose process-dependent addresses make
        such specs never match a checkpoint — recomputing is the safe
        direction.
        """
        return json.dumps(
            {"kind": self.kind, "options": self.options},
            sort_keys=True, default=repr,
        )


@dataclass(frozen=True)
class InstanceSpec:
    """The problem instance a job runs on.

    Either an explicit ``architecture`` or an ``n_clbs`` device size
    (the worker then builds the paper's EPICURE platform at that
    capacity — cheaper to ship than a full architecture object).
    """

    application: Application
    architecture: Optional[Architecture] = None
    n_clbs: Optional[int] = None

    def build(self) -> Tuple[Application, Architecture]:
        if self.architecture is not None:
            return self.application, self.architecture
        if self.n_clbs is None:
            raise ConfigurationError(
                "InstanceSpec needs an architecture or an n_clbs device size"
            )
        return self.application, epicure_architecture(n_clbs=self.n_clbs)


@dataclass(frozen=True)
class SearchJob:
    """One unit of work: strategy × instance × seed.

    ``tag`` is an opaque JSON-serializable label echoed back on the
    outcome (consumers use it to regroup results); ``initial`` is an
    optional starting solution (build it from the same ``application``
    / ``architecture`` objects as the spec so the pickled job stays one
    consistent object graph).  ``budget`` adds wall-clock / stall limits
    on top of the strategy's own iteration budget (note: the budget is
    not part of the checkpoint fingerprint — keep it out of
    checkpointed batches whose limits you intend to vary).

    ``telemetry`` is a plain-dict recorder config (see
    :meth:`repro.obs.telemetry.Telemetry.job_config`); when set, the
    worker builds a private recorder for its run and ships the exported
    event stream back inside ``result.extras["telemetry"]``.  Like the
    budget, it is not part of the checkpoint fingerprint.

    ``anytime`` is a plain-dict snapshot config
    (``{"interval_iterations": n}`` and/or ``{"interval_s": secs}``).
    Callbacks cannot cross the spawn boundary, so the worker builds the
    periodic incumbent recorder itself and ships the snapshots back
    inside ``result.extras["anytime"]``.  Also not part of the
    checkpoint fingerprint (checkpoint-restored results carry no
    snapshots).
    """

    strategy: StrategySpec
    instance: InstanceSpec
    seed: Optional[int] = None
    tag: Any = None
    initial: Optional[Solution] = None
    budget: Optional[SearchBudget] = None
    telemetry: Optional[Dict[str, Any]] = None
    anytime: Optional[Dict[str, Any]] = None


@dataclass
class JobOutcome:
    """A finished job, in submission order."""

    index: int
    tag: Any
    seed: Optional[int]
    result: SearchResult
    from_checkpoint: bool = False


# ----------------------------------------------------------------------
# strategy builders (top-level functions: spawn-safe)
# ----------------------------------------------------------------------
#: Accepted ``StrategySpec.options`` keys per kind (typos are rejected
#: by :meth:`StrategySpec.validate`).
KNOWN_OPTIONS: Dict[str, frozenset] = {
    "sa": frozenset({
        "iterations", "warmup_iterations", "schedule_name",
        "schedule_kwargs", "p_zero", "p_impl", "catalog", "bus_policy",
        "keep_trace", "stall_limit", "initial_hw_fraction", "engine",
        "cost_function",
    }),
    "hill_climber": frozenset({
        "iterations", "p_zero", "p_impl", "p_offload", "catalog",
        "bus_policy", "engine",
    }),
    "tabu": frozenset({
        "iterations", "candidates_per_iteration", "tabu_tenure",
        "p_zero", "p_impl", "p_offload", "catalog", "bus_policy", "engine",
    }),
    "ga": frozenset({
        "population_size", "generations", "crossover_rate",
        "mutation_rate", "tournament_size", "elitism", "bus_policy",
        "engine",
    }),
    "random": frozenset({"samples", "bus_policy", "engine"}),
    "tempering": frozenset({
        "chains", "iterations", "warmup_iterations", "swap_interval",
        "ladder_ratio", "schedule_name", "schedule_kwargs", "p_impl",
        "bus_policy", "keep_trace", "stall_limit", "initial_hw_fraction",
        "engine", "cost_function",
    }),
}


def _build_sa(application, architecture, seed, options) -> SearchStrategy:
    from repro.sa.explorer import DesignSpaceExplorer

    kwargs = dict(options)
    kwargs.setdefault("keep_trace", False)
    return DesignSpaceExplorer(application, architecture, seed=seed, **kwargs)


def _build_tempering(application, architecture, seed, options) -> SearchStrategy:
    from repro.sa.population import PopulationAnnealer

    kwargs = dict(options)
    kwargs.setdefault("keep_trace", False)
    return PopulationAnnealer(application, architecture, seed=seed, **kwargs)


def _move_generator(application, options):
    from repro.sa.moves import MoveGenerator

    kwargs = {
        k: options[k] for k in ("p_zero", "p_impl", "p_offload", "catalog")
        if k in options
    }
    return MoveGenerator(application, **kwargs)


def _evaluator(application, architecture, options) -> Evaluator:
    return Evaluator(
        application,
        architecture,
        options.get("bus_policy", "ordered"),
        engine=options.get("engine", "full"),
    )


def _build_hill(application, architecture, seed, options) -> SearchStrategy:
    from repro.baselines.hill_climber import HillClimber

    return HillClimber(
        _evaluator(application, architecture, options),
        _move_generator(application, options),
        iterations=options.get("iterations", 5000),
        seed=seed,
    )


def _build_tabu(application, architecture, seed, options) -> SearchStrategy:
    from repro.baselines.tabu import TabuConfig, TabuSearch

    config = TabuConfig(
        iterations=options.get("iterations", 2000),
        candidates_per_iteration=options.get("candidates_per_iteration", 8),
        tabu_tenure=options.get("tabu_tenure", 25),
        seed=seed,
    )
    return TabuSearch(
        _evaluator(application, architecture, options),
        _move_generator(application, options),
        config,
    )


def _build_ga(application, architecture, seed, options) -> SearchStrategy:
    from repro.baselines.ga import GeneticConfig, GeneticPartitioner

    config = GeneticConfig(
        population_size=options.get("population_size", 300),
        generations=options.get("generations", 40),
        crossover_rate=options.get("crossover_rate", 0.9),
        mutation_rate=options.get("mutation_rate", 0.03),
        tournament_size=options.get("tournament_size", 3),
        elitism=options.get("elitism", 2),
        seed=seed,
    )
    return GeneticPartitioner(
        application,
        architecture,
        config,
        bus_policy=options.get("bus_policy", "ordered"),
        engine=options.get("engine", "full"),
    )


def _build_random(application, architecture, seed, options) -> SearchStrategy:
    from repro.baselines.random_search import RandomSearch

    return RandomSearch(
        application,
        architecture,
        samples=options.get("samples", 200),
        seed=seed,
        bus_policy=options.get("bus_policy", "ordered"),
        engine=options.get("engine", "full"),
    )


#: Registry of strategy builders; each maps
#: ``(application, architecture, seed, options) -> SearchStrategy``.
STRATEGY_KINDS = {
    "sa": _build_sa,
    "hill_climber": _build_hill,
    "tabu": _build_tabu,
    "ga": _build_ga,
    "random": _build_random,
    "tempering": _build_tempering,
}


def build_strategy(
    spec: StrategySpec,
    application: Application,
    architecture: Architecture,
    seed: Optional[int] = None,
) -> SearchStrategy:
    """Instantiate the searcher a spec describes for one instance."""
    spec.validate()
    return STRATEGY_KINDS[spec.kind](application, architecture, seed, spec.options)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _anytime_recorder(config: Dict[str, Any]):
    """A periodic incumbent-snapshot ``on_step`` hook.

    Returns ``(snapshots, on_step)``; the hook appends
    ``{iteration, best_cost, current_cost, elapsed_s}`` whenever the
    iteration and/or wall-clock interval elapses.  The ``_s`` suffix
    keeps the wall-clock field inside the telemetry determinism
    contract (``strip_times`` drops ``*_s`` keys).
    """
    import time

    snapshots: List[Dict[str, Any]] = []
    interval_iterations = config.get("interval_iterations")
    interval_s = config.get("interval_s")
    started = time.perf_counter()
    state = {
        "next_iteration": interval_iterations or 0,
        "next_elapsed": interval_s or 0.0,
    }

    def on_step(step) -> None:
        due = interval_iterations is not None and (
            step.iteration >= state["next_iteration"]
        )
        elapsed = None
        if not due:
            if interval_s is None:
                return
            elapsed = time.perf_counter() - started
            if elapsed < state["next_elapsed"]:
                return
        if elapsed is None:
            elapsed = time.perf_counter() - started
        snapshots.append({
            "iteration": step.iteration,
            "best_cost": step.best_cost,
            "current_cost": step.current_cost,
            "elapsed_s": elapsed,
        })
        if interval_iterations is not None:
            state["next_iteration"] = step.iteration + interval_iterations
        if interval_s is not None:
            state["next_elapsed"] = elapsed + interval_s

    return snapshots, on_step


def _execute_job(payload: Tuple[int, SearchJob]) -> Tuple[int, SearchResult]:
    """Worker entry point (top-level, hence spawn-picklable).

    When the job carries a telemetry config, the worker runs with its
    own private recorder and ships the exported stream back inside
    ``result.extras["telemetry"]`` — the parent absorbs the streams in
    submission-index order, so the merged stream is deterministic no
    matter how many workers raced.  An ``anytime`` config likewise runs
    worker-side: the snapshots travel back in
    ``result.extras["anytime"]``.
    """
    index, job = payload
    application, architecture = job.instance.build()
    strategy = build_strategy(job.strategy, application, architecture, job.seed)
    recorder = None
    if job.telemetry is not None:
        from repro.obs.telemetry import Telemetry

        recorder = Telemetry(label=job.strategy.kind, **job.telemetry)
        strategy.telemetry = recorder
    on_step = None
    snapshots = None
    if job.anytime is not None:
        snapshots, on_step = _anytime_recorder(job.anytime)
    result = strategy.search(job.initial, budget=job.budget, on_step=on_step)
    if snapshots is not None:
        result.extras["anytime"] = {
            "snapshots": snapshots,
            "interval_iterations": job.anytime.get("interval_iterations"),
            "interval_s": job.anytime.get("interval_s"),
        }
        if snapshots and recorder is not None and recorder.enabled:
            recorder.count("anytime_snapshot", len(snapshots))
    if recorder is not None:
        result.extras["telemetry"] = recorder.export()
    return index, result


def _isolate(job: SearchJob) -> SearchJob:
    """A private copy of the job's whole object graph — exactly what a
    worker process would receive, so inline (``jobs=1``) execution and
    pooled execution see identical inputs."""
    return pickle.loads(pickle.dumps(job))


def best_evaluation_of(result: SearchResult) -> Evaluation:
    """Full evaluation of a result's best solution.

    Reuses the evaluation the strategy already computed
    (``extras["best_evaluation"]``) when present; otherwise — e.g. for
    checkpoint-resumed results, whose extras are not persisted —
    recomputes it from the solution's own application/architecture with
    the reference engine.  Both paths are bit-identical (engine parity
    is enforced bitwise by the test suite).
    """
    cached = result.best_evaluation
    if cached is not None:
        return cached
    solution = result.best_solution
    if solution is None:
        raise ConfigurationError("result carries no best solution")
    evaluator = Evaluator(
        solution.application, solution.architecture, engine="full"
    )
    return evaluator.evaluate(solution)


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------
def _checkpoint_row(index: int, job: SearchJob, result: SearchResult) -> str:
    from repro.io import solution_to_dict

    row = {
        "index": index,
        "kind": job.strategy.kind,
        "spec": job.strategy.fingerprint(),
        "seed": job.seed,
        "tag": job.tag,
        "strategy": result.strategy,
        "best_cost": result.best_cost,
        "final_cost": result.final_cost,
        "iterations_run": result.iterations_run,
        "runtime_s": result.runtime_s,
        "evaluations": result.evaluations,
        "history": result.history,
        "solution": solution_to_dict(result.best_solution),
    }
    return json.dumps(row)


def _load_checkpoint(path: str) -> Dict[int, Dict[str, Any]]:
    rows: Dict[int, Dict[str, Any]] = {}
    if not os.path.exists(path):
        return rows
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail write from an interrupted run
            rows[row["index"]] = row
    return rows


def _restore_result(row: Dict[str, Any], job: SearchJob) -> Optional[SearchResult]:
    """Rebuild a SearchResult from a checkpoint row, or ``None`` when
    the row does not match the job (stale checkpoint).

    A row matches only if kind, seed, the full strategy-options
    fingerprint AND the tag agree — re-running a batch with changed
    knobs (more iterations, a different lambda rate, ...) must
    recompute, never silently reuse old numbers."""
    from repro.io import solution_from_dict

    if (
        row.get("kind") != job.strategy.kind
        or row.get("seed") != job.seed
        or row.get("spec") != job.strategy.fingerprint()
        or row.get("tag") != json.loads(json.dumps(job.tag))
    ):
        return None
    try:
        application, architecture = _isolate(job).instance.build()
        solution = solution_from_dict(row["solution"], application, architecture)
    except Exception:
        return None
    return SearchResult(
        best_solution=solution,
        best_cost=row["best_cost"],
        strategy=row.get("strategy", job.strategy.kind),
        final_cost=row.get("final_cost", row["best_cost"]),
        iterations_run=row.get("iterations_run", 0),
        runtime_s=row.get("runtime_s", 0.0),
        seed=job.seed,
        evaluations=row.get("evaluations", 0),
        history=list(row.get("history", [])),
    )


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
def run_search_jobs(
    job_list: Sequence[SearchJob],
    jobs: int = 1,
    checkpoint_path: Optional[str] = None,
    base_seed: int = 0,
    start_method: str = "spawn",
    telemetry=None,
) -> List[JobOutcome]:
    """Execute a batch of search jobs, ``jobs`` processes at a time.

    Results come back in submission order and are bit-identical whether
    ``jobs`` is 1 (inline) or N (worker pool) — every job is seeded,
    isolated, and deterministic.  Jobs whose ``seed`` is ``None`` get a
    ``SeedSequence``-derived seed from ``base_seed`` and their position,
    so the seeding is also independent of ``jobs``.

    ``checkpoint_path`` (JSONL, append-only) makes the batch resumable:
    finished jobs found there are reloaded instead of re-run.

    ``telemetry`` (a :class:`repro.obs.telemetry.Telemetry`) gives every
    job its own worker-side recorder; the per-job streams are merged
    into the given recorder in submission-index order once all jobs have
    finished, so the merged stream (minus timestamps) is byte-identical
    across ``jobs=N``.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    sealed: List[SearchJob] = []
    derived = (
        derive_seeds(base_seed, len(job_list))
        if any(job.seed is None for job in job_list) else []
    )
    job_telemetry = (
        telemetry.job_config() if telemetry is not None else None
    )
    for position, job in enumerate(job_list):
        job.strategy.validate()
        if job.seed is None:
            job = dataclasses.replace(job, seed=derived[position])
        if job_telemetry is not None and job.telemetry is None:
            job = dataclasses.replace(job, telemetry=job_telemetry)
        sealed.append(job)

    outcomes: Dict[int, JobOutcome] = {}
    pending: List[int] = []
    checkpoint_rows = (
        _load_checkpoint(checkpoint_path) if checkpoint_path else {}
    )
    for index, job in enumerate(sealed):
        row = checkpoint_rows.get(index)
        restored = _restore_result(row, job) if row is not None else None
        if restored is not None:
            outcomes[index] = JobOutcome(
                index=index, tag=job.tag, seed=job.seed,
                result=restored, from_checkpoint=True,
            )
        else:
            pending.append(index)

    checkpoint_handle = None
    if checkpoint_path and pending:
        checkpoint_handle = open(checkpoint_path, "a")

    def record(index: int, result: SearchResult) -> None:
        job = sealed[index]
        outcomes[index] = JobOutcome(
            index=index, tag=job.tag, seed=job.seed, result=result
        )
        if checkpoint_handle is not None:
            checkpoint_handle.write(_checkpoint_row(index, job, result) + "\n")
            checkpoint_handle.flush()

    try:
        if jobs == 1 or len(pending) <= 1:
            for index in pending:
                _, result = _execute_job((index, _isolate(sealed[index])))
                record(index, result)
        else:
            import multiprocessing

            context = multiprocessing.get_context(start_method)
            workers = min(jobs, len(pending))
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=context
            ) as pool:
                futures = {
                    pool.submit(_execute_job, (index, sealed[index]))
                    for index in pending
                }
                while futures:
                    done, futures = wait(futures, return_when=FIRST_COMPLETED)
                    for future in done:
                        index, result = future.result()
                        record(index, result)
    finally:
        if checkpoint_handle is not None:
            checkpoint_handle.close()

    ordered = [outcomes[index] for index in range(len(sealed))]
    if telemetry is not None:
        # Deterministic merge: always in submission-index order, after
        # every job has finished, regardless of worker completion order.
        for outcome in ordered:
            payload = outcome.result.extras.pop("telemetry", None)
            if outcome.from_checkpoint and telemetry.enabled:
                telemetry.event(
                    "job_restored",
                    job=outcome.index,
                    tag=outcome.tag,
                    seed=outcome.seed,
                    kind=sealed[outcome.index].strategy.kind,
                )
            telemetry.absorb(outcome.index, outcome.tag, payload)
    return ordered
