"""The compile pass: dense tables, id layout, graph shape."""

from __future__ import annotations

import pytest

from repro.arch.architecture import epicure_architecture
from repro.mapping.compiled import CompiledInstance, compile_instance
from repro.mapping.engine import ArrayEngine, IncrementalEngine
from repro.model.motion import motion_detection_application


@pytest.fixture
def compiled(small_app, small_arch):
    return compile_instance(small_app, small_arch.bus)


class TestTables:
    def test_id_layout(self, compiled, small_app):
        """Tasks occupy [0, T), comm nodes [T, T + D) in dependency
        order — the layout every engine's fast path assumes."""
        assert compiled.ntasks == len(small_app)
        assert compiled.ndeps == small_app.dag.num_edges()
        assert compiled.tasks == list(small_app.task_indices())
        for j in range(compiled.ndeps):
            assert compiled.dep_comm[j] == compiled.ntasks + j
        assert len(compiled.interner) == compiled.ntasks + compiled.ndeps

    def test_durations_and_impls(self, compiled, small_app):
        for i, t in enumerate(compiled.tasks):
            task = small_app.task(t)
            assert compiled.sw_ms[i] == task.sw_time_ms
            if task.hardware_capable:
                assert compiled.impl_ms[i] == [
                    impl.time_ms for impl in task.implementations
                ]
            else:
                assert compiled.impl_ms[i] is None

    def test_transfer_times_use_the_bus(self, compiled, small_app, small_arch):
        deps = list(small_app.dependencies())
        for j, (_src, _dst, kbytes) in enumerate(deps):
            assert compiled.dep_transfer[j] == (
                small_arch.bus.transfer_time_ms(kbytes)
            )

    def test_static_layer_indegrees(self, compiled):
        # Every comm node has exactly one static in-edge (its source);
        # every task's static indegree is its dependency fan-in.
        for j in range(compiled.ndeps):
            assert compiled.indeg_static[compiled.ntasks + j] == 1
        for i in range(compiled.ntasks):
            assert compiled.indeg_static[i] == len(compiled.pred_comms[i])


class TestEngineSharing:
    def test_engines_consume_the_compile_pass(self, small_app, small_arch):
        engine = IncrementalEngine(small_app, small_arch)
        assert isinstance(engine.compiled, CompiledInstance)
        assert engine._dep_transfer is engine.compiled.dep_transfer
        array = ArrayEngine(small_app, small_arch)
        assert array.compiled.ntasks == engine.compiled.ntasks

    def test_motion_compiles(self):
        app = motion_detection_application()
        arch = epicure_architecture(2000)
        compiled = compile_instance(app, arch.bus)
        assert compiled.ntasks == len(app)
        assert compiled.ndeps == app.dag.num_edges()


class TestGraphShape:
    """Static level statistics from the compile pass (reported by the
    bench next to every throughput number)."""

    def test_small_app_levels(self, compiled, small_app):
        # 0 -> (1, 2) -> 3 -> 4 -> 5 with a comm node on each of the 6
        # dependencies: task and comm levels alternate along the spine,
        # so the 12 nodes stack 9 levels deep.
        n = len(small_app.task_indices()) + compiled.ndeps
        assert compiled.depth == 9
        assert compiled.mean_level_width == pytest.approx(n / 9)

    def test_fork_preserves_shape(self, compiled):
        fork = compiled.fork()
        assert fork.depth == compiled.depth
        assert fork.mean_level_width == compiled.mean_level_width

    def test_motion_app_is_deep_and_narrow(self):
        compiled = compile_instance(
            motion_detection_application(),
            epicure_architecture(n_clbs=2000).bus,
        )
        assert compiled.depth >= 2
        assert compiled.mean_level_width >= 1.0
        # The paper's applications are serialized pipelines: more
        # levels than nodes per level.
        assert compiled.mean_level_width < compiled.depth
