"""Tests for moves m1-m4, mImpl, mOffload — including the apply/undo
round-trip property that the whole annealing loop relies on."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.asic import Asic
from repro.arch.processor import Processor
from repro.arch.reconfigurable import ReconfigurableCircuit
from repro.errors import ConfigurationError, InfeasibleMoveError
from repro.mapping.evaluator import Evaluator
from repro.mapping.solution import Solution, random_initial_solution
from repro.sa.moves import (
    CreateResourceMove,
    ImplementationMove,
    MoveGenerator,
    MoveStats,
    OffloadMove,
    ReassignMove,
    RemoveResourceMove,
    ReorderMove,
    restore_solution,
    snapshot_solution,
)


def sw_solution(small_app, small_arch):
    s = Solution(small_app, small_arch)
    for t in small_app.topological_order():
        s.assign_to_processor(t, "cpu")
    return s


class TestSnapshot:
    def test_roundtrip(self, small_app, small_arch):
        s = sw_solution(small_app, small_arch)
        snap = snapshot_solution(s)
        s.spawn_context(1, "fpga")
        s.set_implementation_choice(2, 1)
        restore_solution(s, snap)
        assert s.resource_name_of(1) == "cpu"
        assert s.implementation_choice(2) == 0
        s.validate()


class TestReorderMove:
    def test_moves_before_destination(self, small_app, small_arch):
        s = Solution(small_app, small_arch)
        # feasible orders of {1, 2} can swap (both depend only on 0)
        for t in (0, 1, 2, 3, 4, 5):
            s.assign_to_processor(t, "cpu")
        move = ReorderMove(task=2, dest_task=1)
        move.apply(s)
        assert s.software_order("cpu") == [0, 2, 1, 3, 4, 5]
        move.undo(s)
        assert s.software_order("cpu") == [0, 1, 2, 3, 4, 5]

    def test_precedence_clamp(self, small_app, small_arch):
        s = sw_solution(small_app, small_arch)
        # moving task 3 before task 0 is impossible (0 precedes 3);
        # the clamp slides it to the earliest feasible slot instead.
        order_before = list(s.software_order("cpu"))
        move = ReorderMove(task=3, dest_task=order_before[0])
        try:
            move.apply(s)
            pos3 = s.software_order("cpu").index(3)
            pos1 = s.software_order("cpu").index(1)
            pos2 = s.software_order("cpu").index(2)
            assert pos3 > pos1 and pos3 > pos2
            move.undo(s)
        except InfeasibleMoveError:
            pass  # fully chained order: also acceptable
        assert s.software_order("cpu") == order_before

    def test_chain_single_slot_is_infeasible(self, small_app, small_arch):
        s = Solution(small_app, small_arch)
        for t in (0, 1, 3, 4, 5):  # 2 on fpga -> order is a chain
            s.assign_to_processor(t, "cpu")
        s.spawn_context(2, "fpga")
        move = ReorderMove(task=4, dest_task=0)
        with pytest.raises(InfeasibleMoveError):
            move.apply(s)

    def test_requires_same_processor(self, small_app, small_arch):
        s = sw_solution(small_app, small_arch)
        s.spawn_context(1, "fpga")
        move = ReorderMove(task=0, dest_task=1)
        with pytest.raises(InfeasibleMoveError):
            move.apply(s)


class TestReassignMove:
    def test_to_context(self, small_app, small_arch, rng):
        s = sw_solution(small_app, small_arch)
        s.spawn_context(1, "fpga")
        move = ReassignMove(task=2, dest_task=1, rng=rng)
        move.apply(s)
        assert s.context_of(2) == ("fpga", 0)
        move.undo(s)
        assert s.resource_name_of(2) == "cpu"
        s.validate()

    def test_to_processor_inserts_before_destination(
        self, small_app, small_arch, rng
    ):
        s = sw_solution(small_app, small_arch)
        s.spawn_context(1, "fpga")
        move = ReassignMove(task=1, dest_task=3, rng=rng)
        move.apply(s)
        order = s.software_order("cpu")
        assert order.index(1) < order.index(3)
        assert s.context_of(1) is None
        s.validate()

    def test_capacity_overflow_spawns_context(self, small_app, small_arch, rng):
        s = sw_solution(small_app, small_arch)
        s.set_implementation_choice(1, 1)  # 200
        s.set_implementation_choice(3, 1)  # 240 -> cannot join ctx(1)
        s.spawn_context(1, "fpga")
        move = ReassignMove(task=3, dest_task=1, rng=rng)
        move.apply(s)
        assert s.contexts("fpga") == [[1], [3]]
        move.undo(s)
        assert s.contexts("fpga") == [[1]]

    def test_software_only_task_cannot_go_hw(self, small_app, small_arch, rng):
        s = sw_solution(small_app, small_arch)
        s.spawn_context(1, "fpga")
        move = ReassignMove(task=4, dest_task=1, rng=rng)
        with pytest.raises(InfeasibleMoveError):
            move.apply(s)
        s.validate()

    def test_same_context_is_infeasible(self, small_app, small_arch, rng):
        s = sw_solution(small_app, small_arch)
        s.spawn_context(1, "fpga")
        s.assign_to_context(2, "fpga", 0)
        move = ReassignMove(task=1, dest_task=2, rng=rng)
        with pytest.raises(InfeasibleMoveError):
            move.apply(s)

    def test_order_violation_rejected(self, small_app, small_arch, rng):
        """Task 3 depends on 1; joining a context *before* 1's would
        invert the GTLP order and must be refused by the precheck."""
        s = sw_solution(small_app, small_arch)
        s.spawn_context(2, "fpga")      # ctx0: task 2
        s.spawn_context(1, "fpga")      # ctx1: task 1  (2 and 1 unrelated)
        assert s.contexts("fpga") == [[2], [1]]
        move = ReassignMove(task=3, dest_task=2, rng=rng)
        # 3 depends on both 1 (ctx1) and 2 (ctx0): joining ctx0 puts an
        # ancestor (1) in a later context -> infeasible
        with pytest.raises(InfeasibleMoveError):
            move.apply(s)


class TestImplementationMove:
    def test_switch_and_undo(self, small_app, small_arch):
        s = sw_solution(small_app, small_arch)
        s.spawn_context(1, "fpga")
        move = ImplementationMove(task=1, new_choice=1)
        move.apply(s)
        assert s.implementation_choice(1) == 1
        move.undo(s)
        assert s.implementation_choice(1) == 0

    def test_software_task_rejected(self, small_app, small_arch):
        s = sw_solution(small_app, small_arch)
        move = ImplementationMove(task=1, new_choice=1)
        with pytest.raises(InfeasibleMoveError):
            move.apply(s)

    def test_same_choice_rejected(self, small_app, small_arch):
        s = sw_solution(small_app, small_arch)
        s.spawn_context(1, "fpga")
        move = ImplementationMove(task=1, new_choice=0)
        with pytest.raises(InfeasibleMoveError):
            move.apply(s)

    def test_context_overflow_rejected(self, small_app, small_arch):
        s = sw_solution(small_app, small_arch)
        s.spawn_context(1, "fpga")          # 100
        s.assign_to_context(2, "fpga", 0)   # +80
        s.assign_to_context(3, "fpga", 0)   # +120 = 300 (full)
        move = ImplementationMove(task=2, new_choice=1)  # 80 -> 160
        with pytest.raises(InfeasibleMoveError):
            move.apply(s)
        s.validate()


class TestOffloadMove:
    def test_populates_empty_device(self, small_app, small_arch, rng):
        s = sw_solution(small_app, small_arch)
        move = OffloadMove(task=1, rc_name="fpga", rng=rng)
        move.apply(s)
        assert s.context_of(1) is not None
        move.undo(s)
        assert s.resource_name_of(1) == "cpu"

    def test_software_only_rejected(self, small_app, small_arch, rng):
        s = sw_solution(small_app, small_arch)
        move = OffloadMove(task=0, rc_name="fpga", rng=rng)
        with pytest.raises(InfeasibleMoveError):
            move.apply(s)

    def test_replay_is_deterministic(self, small_app, small_arch, rng):
        s = sw_solution(small_app, small_arch)
        move = OffloadMove(task=1, rc_name="fpga", rng=rng)
        move.apply(s)
        first = [list(c) for c in s.contexts("fpga")]
        move.undo(s)
        move.apply(s)
        assert [list(c) for c in s.contexts("fpga")] == first


class TestArchitectureMoves:
    def test_create_processor(self, small_app, small_arch, rng):
        s = sw_solution(small_app, small_arch)
        move = CreateResourceMove(
            task=2, factory=lambda name: Processor(name), prefix="cpu"
        )
        move.apply(s)
        new_name = s.resource_name_of(2)
        assert new_name != "cpu"
        assert new_name in small_arch
        move.undo(s)
        assert new_name not in small_arch
        assert s.resource_name_of(2) == "cpu"
        s.validate()

    def test_create_asic_for_hw_task(self, small_app, small_arch, rng):
        s = sw_solution(small_app, small_arch)
        move = CreateResourceMove(
            task=1, factory=lambda name: Asic(name), prefix="asic"
        )
        move.apply(s)
        assert isinstance(s.resource_of(1), Asic)
        move.undo(s)
        s.validate()

    def test_create_hw_for_software_only_task_fails_cleanly(
        self, small_app, small_arch
    ):
        s = sw_solution(small_app, small_arch)
        before = len(small_arch)
        move = CreateResourceMove(
            task=0, factory=lambda name: Asic(name), prefix="asic"
        )
        with pytest.raises(InfeasibleMoveError):
            move.apply(s)
        assert len(small_arch) == before
        s.validate()

    def test_remove_singleton_resource(self, small_app, small_arch, rng):
        small_arch.add_resource(Processor("cpu2"))
        s = Solution(small_app, small_arch)
        for t in (0, 1, 2, 4, 5):
            s.assign_to_processor(t, "cpu")
        s.assign_to_processor(3, "cpu2")
        s.spawn_context(1, "fpga")  # fpga occupied twice: not removable
        s.assign_to_context(2, "fpga", 0)
        move = RemoveResourceMove(dest_task=4, rng=rng)
        move.apply(s)
        assert "cpu2" not in small_arch
        assert s.resource_name_of(3) == "cpu"
        move.undo(s)
        assert "cpu2" in small_arch
        assert s.resource_name_of(3) == "cpu2"
        s.validate()

    def test_remove_empty_resource_directly(self, small_app, small_arch, rng):
        """A drained resource (here the unused fpga) is removable
        without rehoming any task."""
        s = sw_solution(small_app, small_arch)
        move = RemoveResourceMove(dest_task=0, rng=rng)
        move.apply(s)
        assert "fpga" not in small_arch
        move.undo(s)
        assert "fpga" in small_arch
        s.validate()

    def test_remove_with_no_candidate_is_infeasible(
        self, small_app, small_arch, rng
    ):
        s = sw_solution(small_app, small_arch)
        s.spawn_context(1, "fpga")  # two hw tasks: fpga not removable
        s.assign_to_context(2, "fpga", 0)
        move = RemoveResourceMove(dest_task=0, rng=rng)
        with pytest.raises(InfeasibleMoveError):
            move.apply(s)

    def test_undo_restores_resource_order_and_fresh_counter(
        self, small_app, small_arch, rng
    ):
        """apply + undo must be side-effect-free on *observable*
        architecture state: the resource enumeration order (m3 re-adds
        the removed resource) and the fresh-name counter (m4).  The
        reject path and tabu's probe-then-undo loop rely on this."""
        small_arch.add_resource(Processor("cpu2"))
        s = Solution(small_app, small_arch)
        for t in (0, 1, 2, 5):
            s.assign_to_processor(t, "cpu")
        s.assign_to_processor(3, "cpu2")
        s.assign_to_processor(4, "cpu2")
        # Only the (empty) fpga is removable, and it sits in the middle
        # of the enumeration order — a plain re-add would move it last.
        order_before = small_arch.resource_names()
        assert order_before.index("fpga") < len(order_before) - 1
        move = RemoveResourceMove(dest_task=4, rng=rng)
        move.apply(s)
        assert "fpga" not in small_arch
        move.undo(s)
        assert small_arch.resource_names() == order_before

        counter_before = small_arch._fresh_counter
        create = CreateResourceMove(
            task=2, factory=lambda name: Processor(name), prefix="cpu",
            rng=random.Random(3),
        )
        create.apply(s)
        created = s.resource_name_of(2)
        create.undo(s)
        # RNG-drawn names leave the shared fresh-name counter untouched,
        # and the architecture is exactly as before.
        assert small_arch._fresh_counter == counter_before
        assert small_arch.resource_names() == order_before
        # Replay (tabu / batched re-acceptance) recreates the same name.
        create.apply(s)
        assert s.resource_name_of(2) == created
        create.undo(s)
        # A *different* move draws a different name: no name reuse, the
        # uniqueness invariant the engine caches rely on.
        other = CreateResourceMove(
            task=2, factory=lambda name: Processor(name), prefix="cpu",
            rng=random.Random(4),
        )
        other.apply(s)
        assert s.resource_name_of(2) != created
        other.undo(s)


class TestMoveGenerator:
    def test_validation(self, small_app):
        with pytest.raises(ConfigurationError):
            MoveGenerator(small_app, p_zero=1.0)
        with pytest.raises(ConfigurationError):
            MoveGenerator(small_app, p_impl=-0.1)
        with pytest.raises(ConfigurationError):
            MoveGenerator(small_app, p_zero=0.2)  # no catalog

    def test_generates_all_core_kinds(self, small_app, small_arch):
        generator = MoveGenerator(small_app, p_impl=0.2, p_offload=0.2)
        rng = random.Random(0)
        s = sw_solution(small_app, small_arch)
        s.spawn_context(1, "fpga")
        seen = set()
        for _ in range(500):
            try:
                move = generator.propose(s, rng)
            except InfeasibleMoveError:
                continue
            seen.add(move.name)
        assert {"m1_reorder", "m2_reassign", "m_impl", "m_offload"} <= seen

    def test_architecture_moves_require_p_zero(self, small_app, small_arch):
        generator = MoveGenerator(
            small_app,
            p_zero=0.5,
            catalog=[lambda name: Processor(name)],
        )
        rng = random.Random(3)
        s = sw_solution(small_app, small_arch)
        names = set()
        for _ in range(300):
            try:
                names.add(generator.propose(s, rng).name)
            except InfeasibleMoveError:
                continue
        assert "m4_create_resource" in names

    def test_stats_counters(self):
        stats = MoveStats()
        stats.record_proposed("x")
        stats.record_accepted("x")
        stats.record_rejected("x")
        stats.record_infeasible("y")
        text = stats.summary()
        assert "x:" in text and "y:" in text


class TestUndoProperty:
    """The backbone invariant: apply + undo restores the exact state."""

    def _state(self, solution):
        return snapshot_solution(solution)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_apply_undo_roundtrip_small(self, seed):
        # Build everything inside: hypothesis forbids function-scoped
        # fixtures with non-reset state.
        from tests.conftest import (  # noqa: WPS433 - test helper reuse
            make_impls,
        )
        from repro.arch.architecture import Architecture
        from repro.arch.bus import Bus
        from repro.model.application import Application
        from repro.model.task import Task

        app = Application("prop")
        app.add_task(Task(0, "a", "F", 2.0))
        app.add_task(Task(1, "b", "F", 3.0, make_impls((50, 0.5), (90, 0.3))))
        app.add_task(Task(2, "c", "F", 1.0, make_impls((40, 0.4))))
        app.add_task(Task(3, "d", "F", 2.0, make_impls((60, 0.6), (99, 0.2))))
        app.add_dependency(0, 1, 2.0)
        app.add_dependency(0, 2, 2.0)
        app.add_dependency(1, 3, 1.0)
        app.add_dependency(2, 3, 1.0)

        arch = Architecture("prop_arch", bus=Bus())
        arch.add_resource(Processor("cpu"))
        arch.add_resource(ReconfigurableCircuit("fpga", n_clbs=120))

        rng = random.Random(seed)
        solution = random_initial_solution(app, arch, rng)
        generator = MoveGenerator(app, p_impl=0.2, p_offload=0.2)
        for _ in range(15):
            before = self._state(solution)
            try:
                move = generator.propose(solution, rng)
                move.apply(solution)
            except InfeasibleMoveError:
                assert self._state(solution) == before
                continue
            solution.validate()
            move.undo(solution)
            assert self._state(solution) == before
            solution.validate()

    def test_apply_undo_roundtrip_motion(self, motion_app, epicure):
        rng = random.Random(5)
        solution = random_initial_solution(motion_app, epicure, rng)
        generator = MoveGenerator(motion_app, p_impl=0.2, p_offload=0.2)
        evaluator = Evaluator(motion_app, epicure)
        for _ in range(300):
            before = snapshot_solution(solution)
            try:
                move = generator.propose(solution, rng)
                move.apply(solution)
            except InfeasibleMoveError:
                assert snapshot_solution(solution) == before
                continue
            move.undo(solution)
            assert snapshot_solution(solution) == before
        assert evaluator.evaluate(solution).feasible
