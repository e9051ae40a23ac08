"""Cross-chain evaluator and engine-option plumbing.

Covers the pieces the population annealer stands on: compiled-instance
forking, the spec-dict engine form (retired options accepted, anything
else rejected), ``CrossChainEvaluator.evaluate_moves`` parity across
engines and the commit-on-accept transactions.
"""

import copy
import random

import pytest

from repro.arch.processor import Processor
from repro.arch.reconfigurable import ReconfigurableCircuit
from repro.errors import ConfigurationError
from repro.mapping.compiled import compile_instance
from repro.mapping.engine import (
    ArrayEngine,
    CrossChainEvaluator,
    make_engine,
)
from repro.mapping.cost import MakespanCost
from repro.mapping.solution import random_initial_solution
from repro.sa.moves import MoveGenerator


def _bus(architecture):
    return architecture.bus


class TestCompiledFork:
    def test_fork_shares_immutable_tables(self, small_app, small_arch):
        compiled = compile_instance(small_app, _bus(small_arch))
        fork = compiled.fork()
        assert fork.dep_src is compiled.dep_src
        assert fork.sw_ms is compiled.sw_ms
        assert fork.pred_ids is compiled.pred_ids
        assert fork._cache is compiled._cache

    def test_fork_isolates_virtual_node_growth(self, small_app, small_arch):
        compiled = compile_instance(small_app, _bus(small_arch))
        fork = compiled.fork()
        assert len(fork.interner) == len(compiled.interner)
        fork.interner.intern(("virtual", 0))
        fork.pred_comms.append([])
        assert len(fork.interner) == len(compiled.interner) + 1
        assert len(fork.pred_comms) == len(compiled.pred_comms) + 1


class TestKernelBatchMinWorkOption:
    """The retired array-engine knobs stay accepted (and ignored) in
    the spec-dict form; anything else is still rejected."""

    def test_retired_option_builds_engine(
        self, small_app, small_arch
    ):
        with pytest.warns(DeprecationWarning, match="no effect"):
            engine = make_engine(
                {"kind": "array", "kernel_batch_min_work": 77},
                small_app, small_arch,
            )
        assert type(engine) is ArrayEngine

    def test_unknown_engine_option_rejected(self, small_app, small_arch):
        with pytest.raises(ConfigurationError, match="turbo_mode"):
            make_engine(
                {"kind": "array", "turbo_mode": True}, small_app, small_arch
            )

    def test_option_on_scalar_engine_rejected(self, small_app, small_arch):
        with pytest.raises(ConfigurationError, match="array"):
            make_engine(
                {"kind": "incremental", "kernel_batch_min_work": 5},
                small_app, small_arch,
            )


class TestCrossChainEvaluator:
    def _population(self, app, arch, engine, chains=3, seed=41):
        evaluator = CrossChainEvaluator(app, arch, chains, engine=engine)
        solutions = [
            random_initial_solution(app, arch, random.Random(seed + c))
            for c in range(chains)
        ]
        for c in range(chains):
            evaluator.evaluate(c, solutions[c])
        return evaluator, solutions

    def _moves(self, app, solutions, seed=7):
        generator = MoveGenerator(app, p_impl=0.2)
        rng = random.Random(seed)
        moves = []
        for solution in solutions:
            try:
                moves.append(generator.propose(solution, rng))
            except Exception:
                moves.append(None)
        return moves

    def test_rejects_wrong_arity(self, small_app, small_arch):
        evaluator, solutions = self._population(
            small_app, small_arch, "array"
        )
        with pytest.raises(ConfigurationError, match="expected 3"):
            evaluator.evaluate_moves(solutions[:2], [None, None])

    def test_batched_path_matches_scalar_fallback(
        self, small_app, small_arch
    ):
        cost = MakespanCost()
        batched_ev, batched_sols = self._population(
            small_app, small_arch, "array"
        )
        scalar_ev, scalar_sols = self._population(
            small_app, small_arch, "full"
        )
        for round_seed in range(5):
            moves_a = self._moves(small_app, batched_sols, seed=round_seed)
            moves_b = self._moves(small_app, scalar_sols, seed=round_seed)
            got = batched_ev.evaluate_moves(batched_sols, moves_a, cost)
            want = scalar_ev.evaluate_moves(scalar_sols, moves_b, cost)
            assert [
                None if r is None else r[1] for r in got
            ] == [
                None if r is None else r[1] for r in want
            ]

    def test_solutions_left_untouched(self, small_app, small_arch):
        evaluator, solutions = self._population(
            small_app, small_arch, "array"
        )
        before = [
            evaluator.evaluate(c, solutions[c]).makespan_ms
            for c in range(3)
        ]
        moves = self._moves(small_app, solutions)
        evaluator.evaluate_moves(solutions, moves, MakespanCost())
        after = [
            evaluator.evaluate(c, solutions[c]).makespan_ms
            for c in range(3)
        ]
        assert before == after

    def test_none_moves_yield_none_results(self, small_app, small_arch):
        evaluator, solutions = self._population(
            small_app, small_arch, "array"
        )
        results = evaluator.evaluate_moves(
            solutions, [None] * 3, MakespanCost()
        )
        assert results == [None, None, None]

    def test_evaluations_accumulate_across_chains(
        self, small_app, small_arch
    ):
        evaluator, solutions = self._population(
            small_app, small_arch, "array"
        )
        before = evaluator.evaluations
        moves = self._moves(small_app, solutions)
        results = evaluator.evaluate_moves(solutions, moves, MakespanCost())
        scored = sum(1 for r in results if r is not None)
        assert evaluator.evaluations == before + scored

    def test_rejects_zero_chains(self, small_app, small_arch):
        with pytest.raises(ConfigurationError, match="chains"):
            CrossChainEvaluator(small_app, small_arch, 0)


class TestDispatchResolution:
    """The retired ``dispatch`` option is still type-checked in the
    spec-dict engine form."""

    def test_invalid_mode_rejected(self, small_app, small_arch):
        with pytest.raises(ConfigurationError, match="dispatch"):
            make_engine(
                {"kind": "array", "dispatch": "warp"}, small_app, small_arch
            )


class TestPersistentTransactions:
    """The commit-on-accept path (``propose_moves`` + ``resolve``) is
    bit-identical to the pure flow (``evaluate_moves`` + undo +
    re-apply on accept), across every engine, both resolve branches,
    and every move kind (m1/m2/m_impl/m_offload plus the m3/m4
    architecture moves)."""

    CHAINS = 3
    ROUNDS = 8

    def _population(self, app, arch, engine, seed=41):
        evaluator = CrossChainEvaluator(
            app, arch, self.CHAINS, engine=engine
        )
        solutions = [
            random_initial_solution(app, arch, random.Random(seed + c))
            for c in range(self.CHAINS)
        ]
        for c in range(self.CHAINS):
            evaluator.evaluate(c, solutions[c])
        return evaluator, solutions

    @staticmethod
    def _catalog():
        return [
            lambda name: Processor(name, speed_factor=1.2, monetary_cost=1.0),
            lambda name: ReconfigurableCircuit(
                name, n_clbs=400, monetary_cost=2.0
            ),
        ]

    def _moves(self, app, solutions, seed, p_zero=0.0):
        generator = MoveGenerator(
            app, p_zero=p_zero, p_impl=0.2,
            catalog=self._catalog() if p_zero else None,
        )
        rng = random.Random(seed)
        moves = []
        for solution in solutions:
            try:
                moves.append(generator.propose(solution, rng))
            except Exception:
                moves.append(None)
        return moves

    def _run_walk(self, app, arch, engine, persistent, p_zero=0.0):
        """Drive ROUNDS rounds; ``persistent`` picks the transaction
        path, else the pure scoring + re-apply reference.  The accept
        rule is deterministic in (round, chain) so both walks take the
        same branches.  The architecture is copied per walk: the m3/m4
        moves mutate it (resource set, fresh-name counter), and the two
        walks must start from identical state."""
        arch = copy.deepcopy(arch)
        evaluator, solutions = self._population(app, arch, engine)
        cost = MakespanCost()
        costs = []
        for round_no in range(self.ROUNDS):
            moves = self._moves(app, solutions, seed=round_no, p_zero=p_zero)
            if persistent:
                outcomes = evaluator.propose_moves(solutions, moves, cost)
            else:
                outcomes = evaluator.evaluate_moves(solutions, moves, cost)
            for c in range(self.CHAINS):
                if outcomes[c] is None:
                    continue
                accept = (round_no + c) % 2 == 0
                if persistent:
                    evaluator.resolve(c, solutions[c], moves[c], accept)
                elif accept:
                    moves[c].apply(solutions[c])
            costs.append(
                [None if r is None else r[1] for r in outcomes]
            )
        finals = [
            evaluator.evaluate(c, solutions[c]).makespan_ms
            for c in range(self.CHAINS)
        ]
        return costs, finals

    @pytest.mark.parametrize("engine", ["full", "incremental", "array"])
    def test_commit_path_matches_pure_replay(
        self, engine, small_app, small_arch
    ):
        persistent = self._run_walk(
            small_app, small_arch, engine, persistent=True
        )
        replay = self._run_walk(
            small_app, small_arch, engine, persistent=False
        )
        assert persistent == replay

    def _single_engine_walk(self, app, arch, engine, persistent,
                            p_zero, rounds=20, seed=23):
        """One engine, one solution: drive ``propose_move`` + accept/
        reject (persistent) or the classic apply → evaluate → undo
        reference over the same seeded move stream.  ``p_zero > 0``
        draws the m3/m4 resource moves, which change the resource set
        mid-walk (the hardest case for the persistent mirrors: interner
        growth plus resource-name churn)."""
        arch = copy.deepcopy(arch)
        eng = make_engine(engine, app, arch)
        solution = random_initial_solution(app, arch, random.Random(seed))
        eng.evaluate(solution)
        generator = MoveGenerator(
            app, p_zero=p_zero, p_impl=0.2,
            catalog=self._catalog() if p_zero else None,
        )
        rng = random.Random(seed + 1)
        cost = MakespanCost()
        costs = []
        for round_no in range(rounds):
            try:
                move = generator.propose(solution, rng)
            except Exception:
                costs.append(None)
                continue
            accept = round_no % 2 == 0
            if persistent:
                outcome = eng.propose_move(solution, move, cost)
                if outcome is None:
                    costs.append(None)
                    continue
                costs.append(outcome[1])
                if accept:
                    eng.accept_move(solution, move)
                else:
                    eng.reject_move(solution, move)
            else:
                try:
                    move.apply(solution)
                except Exception:
                    costs.append(None)
                    continue
                evaluation = eng.evaluate(solution)
                costs.append(cost(solution, evaluation))
                if not accept:
                    move.undo(solution)
        return costs, eng.evaluate(solution).makespan_ms

    @pytest.mark.parametrize("engine", ["full", "incremental", "array"])
    def test_architecture_moves_replay_identically(
        self, engine, small_app, small_arch
    ):
        # m3/m4 change the architecture itself, so they are exercised
        # on a single permanently-bound engine (the population draws
        # them with p_zero=0 across chains: a shared-architecture edit
        # would desync the sibling chains' solutions).
        persistent = self._single_engine_walk(
            small_app, small_arch, engine, persistent=True, p_zero=0.4
        )
        replay = self._single_engine_walk(
            small_app, small_arch, engine, persistent=False, p_zero=0.4
        )
        assert persistent == replay

    @pytest.mark.parametrize("engine", ["full", "incremental", "array"])
    def test_post_walk_state_matches_fresh_engine(
        self, engine, small_app, small_arch
    ):
        evaluator, solutions = self._population(
            small_app, small_arch, engine
        )
        cost = MakespanCost()
        for round_no in range(self.ROUNDS):
            moves = self._moves(small_app, solutions, seed=round_no)
            outcomes = evaluator.propose_moves(solutions, moves, cost)
            for c in range(self.CHAINS):
                if outcomes[c] is None:
                    continue
                evaluator.resolve(
                    c, solutions[c], moves[c], (round_no + c) % 2 == 0
                )
        for c in range(self.CHAINS):
            fresh = make_engine(
                engine, small_app, small_arch
            ).evaluate(solutions[c]).makespan_ms
            assert evaluator.evaluate(c, solutions[c]).makespan_ms == fresh

    def test_propose_none_moves_open_no_transactions(
        self, small_app, small_arch
    ):
        evaluator, solutions = self._population(
            small_app, small_arch, "array"
        )
        results = evaluator.propose_moves(
            solutions, [None] * self.CHAINS, MakespanCost()
        )
        assert results == [None] * self.CHAINS
