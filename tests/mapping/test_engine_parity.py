"""Property test: every engine is bit-identical to the full rebuild
reference.

Replays hundreds of random accepted/rejected move sequences on random
applications (plus the motion-detection benchmark and the 120-task
corpus scenario) and asserts that
``FullRebuildEngine``, ``IncrementalEngine`` and ``ArrayEngine`` agree
pairwise on makespan, feasibility and communication totals at every
step — including right after rejected moves are undone, which is
exactly the state-reversal pattern the delta-patching engines must
survive.  The batched path is covered separately by
``test_array_engine_batch_matches_scalar``.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.arch.architecture import Architecture, epicure_architecture
from repro.arch.asic import Asic
from repro.arch.bus import Bus
from repro.arch.processor import Processor
from repro.arch.reconfigurable import ReconfigurableCircuit
from repro.bench.corpus import get_scenario
from repro.errors import ConfigurationError, InfeasibleMoveError
from repro.mapping.engine import (
    ENGINES,
    ArrayEngine,
    FullRebuildEngine,
    IncrementalEngine,
    make_engine,
)
from repro.mapping.evaluator import Evaluator
from repro.mapping.solution import random_initial_solution
from repro.model.generator import GeneratorConfig, random_application
from repro.model.motion import motion_detection_application
from repro.sa.moves import MoveGenerator

#: Every unordered engine pair (the replay asserts pairwise identity,
#: so covering the pairs covers the whole equivalence class).
ENGINE_PAIRS = [
    ("full", "incremental"),
    ("full", "array"),
    ("incremental", "array"),
]


def _assert_same(full_ev, inc_ev, context):
    assert full_ev.feasible == inc_ev.feasible, context
    if math.isfinite(full_ev.makespan_ms):
        assert full_ev.makespan_ms == inc_ev.makespan_ms, context
    else:
        assert not math.isfinite(inc_ev.makespan_ms), context
    assert full_ev.comm_ms == inc_ev.comm_ms, context
    assert full_ev == inc_ev, context


def _replay(
    app,
    arch_factory,
    seed,
    steps,
    p_zero=0.0,
    bus_policy="ordered",
    engines=("full", "incremental"),
):
    """Replay one random move sequence through an engine pair; returns
    the number of evaluated states."""
    arch = arch_factory()
    catalog = None
    if p_zero > 0.0:
        catalog = [
            lambda name: Processor(name, speed_factor=1.5, monetary_cost=1.0),
            lambda name: ReconfigurableCircuit(name, n_clbs=400, monetary_cost=2.0),
        ]
        arch.catalog = list(catalog)
    left = Evaluator(app, arch, bus_policy, engine=engines[0])
    right = Evaluator(app, arch, bus_policy, engine=engines[1])
    rng = random.Random(seed)
    solution = random_initial_solution(app, arch, rng)
    gen = MoveGenerator(app, p_zero=p_zero, catalog=catalog)

    _assert_same(left.evaluate(solution), right.evaluate(solution), "initial")
    evaluated = 1
    attempts = 0
    while evaluated < steps and attempts < steps * 20:
        attempts += 1
        try:
            move = gen.propose(solution, rng)
            move.apply(solution)
        except InfeasibleMoveError:
            continue
        context = f"seed={seed} step={evaluated} move={move.name} {engines}"
        _assert_same(left.evaluate(solution), right.evaluate(solution), context)
        evaluated += 1
        # Metropolis-style coin: reject half the moves and make sure the
        # engines agree again after the rollback.
        if rng.random() < 0.5:
            move.undo(solution)
            if rng.random() < 0.3:
                _assert_same(
                    left.evaluate(solution),
                    right.evaluate(solution),
                    context + " (after undo)",
                )
                evaluated += 1
    return evaluated


@pytest.mark.parametrize("engines", ENGINE_PAIRS, ids=lambda p: "-vs-".join(p))
def test_engine_parity_on_random_move_sequences(engines):
    """>= 500 random accepted/rejected moves across varied instances,
    per engine pair."""
    total = 0
    cases = [
        # (tasks, topology, seed, arch factory, p_zero, bus policy)
        (10, "tgff", 1, lambda: epicure_architecture(400), 0.0, "ordered"),
        (18, "tgff", 2, lambda: epicure_architecture(1200), 0.0, "ordered"),
        (18, "layered", 3, lambda: epicure_architecture(800), 0.0, "edge"),
        (26, "tgff", 4, lambda: _dual_resource_arch(), 0.0, "ordered"),
        (14, "layered", 5, lambda: epicure_architecture(600), 0.12, "ordered"),
        (22, "tgff", 6, lambda: _asic_arch(), 0.0, "ordered"),
    ]
    for num_tasks, topology, seed, arch_factory, p_zero, bus in cases:
        app = random_application(
            GeneratorConfig(num_tasks=num_tasks, topology=topology), seed=seed
        )
        total += _replay(
            app, arch_factory, seed * 101, 80, p_zero, bus, engines
        )
    assert total >= 480  # random-instance share of the >=500 target


@pytest.mark.parametrize("engines", ENGINE_PAIRS, ids=lambda p: "-vs-".join(p))
def test_engine_parity_on_motion_benchmark(engines):
    app = motion_detection_application()
    total = _replay(
        app, lambda: epicure_architecture(2000), seed=99, steps=120,
        engines=engines,
    )
    assert total >= 100


@pytest.mark.parametrize("engines", ENGINE_PAIRS, ids=lambda p: "-vs-".join(p))
def test_engine_parity_on_corpus_tgff120(engines):
    """The 120-task corpus scenario: deep enough that the persistent
    order is repaired and rebuilt many times along the walk."""
    instance = get_scenario("tgff/120").build()
    total = _replay(
        instance.application, lambda: instance.architecture, seed=7,
        steps=300, engines=engines,
    )
    assert total >= 300


@pytest.mark.parametrize("engines", ENGINE_PAIRS, ids=lambda p: "-vs-".join(p))
def test_engine_parity_edge_bus_policy_long_walk(engines):
    """Under the ``"edge"`` bus policy a transfer is a pass-through edge
    weight, so a move flipping a dependency's crossing state changes no
    node duration; the walk must be long enough to hit such a flip
    ahead of every other change the move makes."""
    app = random_application(
        GeneratorConfig(num_tasks=26, topology="tgff"), seed=7
    )
    total = _replay(
        app, _dual_resource_arch, seed=707, steps=240, bus_policy="edge",
        engines=engines,
    )
    assert total >= 240


def test_array_engine_batch_matches_scalar():
    """The batched path of the stateful engine scores candidates
    bit-identically to the reference engine, including infeasible
    application slots."""
    app = motion_detection_application()
    arch = epicure_architecture(2000)
    full = Evaluator(app, arch, engine="full")
    array = Evaluator(app, arch, engine="array")
    rng = random.Random(17)
    solution = random_initial_solution(app, arch, rng)
    gen = MoveGenerator(app)
    compared = 0
    for _round in range(25):
        moves = []
        while len(moves) < 6:
            try:
                moves.append(gen.propose(solution, rng))
            except InfeasibleMoveError:
                continue
        batch = array.evaluate_batch(solution, moves)
        reference = full.engine.evaluate_batch(solution, moves)
        for k, (got, want) in enumerate(zip(batch, reference)):
            assert (got is None) == (want is None), (k, got, want)
            if got is None:
                continue
            _assert_same(want[0], got[0], f"round={_round} slot={k}")
            compared += 1
        try:
            moves[0].apply(solution)  # advance the walk
        except InfeasibleMoveError:
            pass
    assert compared >= 100


def _dual_resource_arch() -> Architecture:
    arch = Architecture("dual", bus=Bus(rate_kbytes_per_ms=25.0, latency_ms=0.05))
    arch.add_resource(Processor("cpu0", speed_factor=1.0))
    arch.add_resource(Processor("cpu1", speed_factor=1.7))
    arch.add_resource(ReconfigurableCircuit("fpga_a", n_clbs=700))
    arch.add_resource(
        ReconfigurableCircuit(
            "fpga_b", n_clbs=300, partial_reconfiguration=False
        )
    )
    arch.validate()
    return arch


def _asic_arch() -> Architecture:
    arch = Architecture("with_asic", bus=Bus(rate_kbytes_per_ms=40.0))
    arch.add_resource(Processor("cpu"))
    arch.add_resource(ReconfigurableCircuit("fpga", n_clbs=900))
    arch.add_resource(Asic("asic", monetary_cost=8.0))
    arch.validate()
    return arch


def test_engine_parity_strict_raises_on_cycles(small_app, small_arch):
    """Cyclic realizations: both engines report infeasible, and strict
    mode re-raises from both."""
    from repro.errors import CycleError
    from repro.mapping.solution import Solution

    solution = Solution(small_app, small_arch)
    # Reverse-precedence software order 5..0 creates a cyclic realization
    # only when combined with a hardware context in between; simplest
    # guaranteed cycle: put 3 (middle) in hardware, everything else on
    # the cpu in reverse order, so sequentialization opposes precedence.
    order = [5, 4, 3, 2, 1, 0]
    for t in order:
        if t == 3:
            continue
        solution.assign_to_processor(t, "cpu")
    solution.spawn_context(3, "fpga")
    evaluators = [
        Evaluator(small_app, small_arch, engine=name) for name in ENGINES
    ]
    for evaluator in evaluators:
        ev = evaluator.evaluate(solution)
        assert not ev.feasible
        assert math.isinf(ev.makespan_ms)
        assert math.isinf(evaluator.makespan_ms(solution))
        with pytest.raises(CycleError):
            evaluator.evaluate(solution, strict=True)


def test_make_engine_validates_names(small_app, small_arch):
    assert ENGINES == ("full", "incremental", "array")
    assert isinstance(
        make_engine("full", small_app, small_arch), FullRebuildEngine
    )
    assert isinstance(
        make_engine("incremental", small_app, small_arch), IncrementalEngine
    )
    assert isinstance(
        make_engine("array", small_app, small_arch), ArrayEngine
    )
    with pytest.raises(ConfigurationError):
        make_engine("warp", small_app, small_arch)


def test_evaluator_engine_knob(small_app, small_arch, small_solution):
    full = Evaluator(small_app, small_arch, engine="full")
    inc = Evaluator(small_app, small_arch, engine="incremental")
    assert full.engine_name == "full"
    assert inc.engine_name == "incremental"
    assert full.evaluate(small_solution) == inc.evaluate(small_solution)
    assert full.evaluations == inc.evaluations == 1
    # Passing a prebuilt engine instance is accepted too.
    engine = IncrementalEngine(small_app, small_arch)
    wrapped = Evaluator(small_app, small_arch, engine=engine)
    assert wrapped.engine is engine