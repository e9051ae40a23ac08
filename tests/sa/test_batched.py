"""Batched neighborhood evaluation: trajectory equivalence + defaults.

The batched annealer speculatively proposes K candidates per round and
scores them through ``evaluate_batch``; an acceptance discards the rest
of the batch and re-proposes their iteration indices from the new
state.  Because every iteration index owns a private seed-derived RNG
stream, the trajectory must be *identical for every batch size* — the
knob buys throughput, never a different experiment.  The default
(``batch_size=None``) must keep the historical sequential loop
bit-for-bit.
"""

from __future__ import annotations

import pytest

from repro.arch.architecture import epicure_architecture
from repro.errors import ConfigurationError
from repro.mapping.evaluator import ENGINES
from repro.model.motion import motion_detection_application
from repro.sa.annealer import AnnealerConfig
from repro.sa.explorer import DesignSpaceExplorer

ITERATIONS = 300
WARMUP = 80


def run(batch_size, engine="array", seed=11):
    explorer = DesignSpaceExplorer(
        motion_detection_application(),
        epicure_architecture(n_clbs=2000),
        iterations=ITERATIONS,
        warmup_iterations=WARMUP,
        seed=seed,
        engine=engine,
        batch_size=batch_size,
    )
    return explorer.search()


def trajectory(result):
    return (
        result.best_cost,
        result.final_cost,
        result.iterations_run,
        tuple(result.history),
        tuple(
            (r.iteration, r.current_cost, r.accepted, r.move_name)
            for r in result.trace
        ),
    )


def test_batch_size_invariance():
    """batch_size > 1 vs batch_size = 1: identical trajectories for a
    fixed seed (the acceptance criterion of the batched-evaluation
    design)."""
    reference = trajectory(run(batch_size=1))
    for batch_size in (2, 4, 9):
        assert trajectory(run(batch_size=batch_size)) == reference, batch_size


def test_batched_trajectory_is_engine_invariant():
    """Engine parity extends to the batched path: every engine walks
    the identical batched trajectory."""
    reference = None
    for engine in ENGINES:
        key = trajectory(run(batch_size=3, engine=engine))
        if reference is None:
            reference = key
        else:
            assert key == reference, engine


def test_default_is_the_historical_loop():
    """batch_size=None (the default) keeps the legacy sequential RNG
    discipline bit-for-bit, regardless of engine."""
    legacy = trajectory(run(batch_size=None, engine="incremental"))
    assert trajectory(run(batch_size=None, engine="array")) == legacy


def test_batched_speculation_costs_extra_evaluations():
    """Speculation is visible (and only visible) in the evaluation
    counter: bigger batches evaluate at least as many candidates."""
    small = run(batch_size=1)
    large = run(batch_size=8)
    assert large.evaluations >= small.evaluations
    assert trajectory(large) == trajectory(small)


def test_batch_size_invariance_with_architecture_moves():
    """Speculative apply/undo must be side-effect-free even for the
    architecture moves m3/m4 (resource enumeration order and the
    fresh-name counter are observable state): batched trajectories stay
    batch-size-invariant with p_zero > 0."""
    from repro.arch.processor import Processor
    from repro.arch.reconfigurable import ReconfigurableCircuit

    def run_arch(batch_size, seed=11):
        catalog = [
            lambda name: Processor(name, speed_factor=1.2, monetary_cost=1.0),
            lambda name: ReconfigurableCircuit(
                name, n_clbs=600, monetary_cost=2.0
            ),
        ]
        explorer = DesignSpaceExplorer(
            motion_detection_application(),
            epicure_architecture(n_clbs=2000),
            iterations=ITERATIONS,
            warmup_iterations=WARMUP,
            seed=seed,
            engine="array",
            batch_size=batch_size,
            p_zero=0.25,
            catalog=catalog,
        )
        return explorer.search()

    reference = trajectory(run_arch(batch_size=1))
    for batch_size in (2, 4, 8):
        assert trajectory(run_arch(batch_size)) == reference, batch_size


def test_batch_size_validation():
    with pytest.raises(ConfigurationError):
        AnnealerConfig(iterations=10, warmup_iterations=2,
                       batch_size=0).validate()
    AnnealerConfig(iterations=10, warmup_iterations=2,
                   batch_size=3).validate()
