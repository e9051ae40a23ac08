"""Round-trip tests for JSON serialization."""

import json
import random

import pytest

from repro.arch.architecture import Architecture, epicure_architecture
from repro.arch.asic import Asic
from repro.errors import ConfigurationError, MappingError
from repro.arch.reconfigurable import ReconfigurableCircuit
from repro.io import (
    ProblemInstance,
    dump_application,
    dump_architecture,
    dump_instance,
    dump_solution,
    instance_to_dict,
    load_application,
    load_architecture,
    load_instance,
    load_solution,
    instance_from_dict,
)
from repro.mapping.evaluator import Evaluator
from repro.mapping.solution import random_initial_solution
from repro.model.motion import motion_detection_application


class TestApplicationRoundTrip:
    def test_exact_roundtrip(self, motion_app):
        text = dump_application(motion_app)
        again = load_application(text)
        assert again.name == motion_app.name
        assert len(again) == len(motion_app)
        for task in motion_app.tasks():
            other = again.task(task.index)
            assert other.name == task.name
            assert other.functionality == task.functionality
            assert other.sw_time_ms == task.sw_time_ms
            assert other.implementations == task.implementations
        assert sorted(again.dependencies()) == sorted(motion_app.dependencies())

    def test_small_app(self, small_app):
        again = load_application(dump_application(small_app))
        assert sorted(again.dependencies()) == sorted(small_app.dependencies())

    def test_wrong_document_kind(self, motion_app, epicure):
        arch_doc = dump_architecture(epicure)
        with pytest.raises(ConfigurationError):
            load_application(arch_doc)

    def test_bad_version(self, motion_app):
        data = json.loads(dump_application(motion_app))
        data["version"] = 99
        with pytest.raises(ConfigurationError):
            load_application(json.dumps(data))


class TestArchitectureRoundTrip:
    def test_epicure(self, epicure):
        again = load_architecture(dump_architecture(epicure))
        assert again.name == epicure.name
        assert again.bus.rate_kbytes_per_ms == epicure.bus.rate_kbytes_per_ms
        rc = again.reconfigurable_circuits()[0]
        assert rc.n_clbs == 2000
        assert rc.reconfig_ms_per_clb == pytest.approx(0.0225)

    def test_all_resource_kinds(self, small_arch):
        small_arch.add_resource(Asic("accel", monetary_cost=3.0))
        again = load_architecture(dump_architecture(small_arch))
        assert {r.name for r in again.resources()} == {"cpu", "fpga", "accel"}
        assert again.resource("accel").monetary_cost == 3.0

    def test_unknown_kind_rejected(self, epicure):
        data = json.loads(dump_architecture(epicure))
        data["resources"][0]["kind"] = "quantum"
        with pytest.raises(ConfigurationError):
            load_architecture(json.dumps(data))

    def test_non_string_resource_name_rejected(self, epicure):
        data = json.loads(dump_architecture(epicure))
        data["resources"][0]["name"] = ["cpu"]
        with pytest.raises(ConfigurationError, match="name"):
            load_architecture(json.dumps(data))


class TestInstanceRoundTrip:
    def test_exact_roundtrip(self, motion_app, epicure):
        instance = ProblemInstance(
            application=motion_app,
            architecture=epicure,
            deadline_ms=40.0,
            name="motion@epicure",
            metadata={"family": "motion", "seed": 0, "params": {"n_clbs": 2000}},
        )
        again = load_instance(dump_instance(instance))
        assert again.name == "motion@epicure"
        assert again.deadline_ms == 40.0
        assert again.metadata == instance.metadata
        # the bundled sub-documents round-trip exactly
        assert instance_to_dict(again) == instance_to_dict(instance)
        assert sorted(again.application.dependencies()) == sorted(
            motion_app.dependencies()
        )
        assert {r.name for r in again.architecture.resources()} == {
            r.name for r in epicure.resources()
        }

    def test_optional_fields_default(self, small_app, small_arch):
        instance = ProblemInstance(small_app, small_arch)
        again = load_instance(dump_instance(instance))
        assert again.deadline_ms is None
        assert again.metadata == {}
        assert again.name == small_app.name

    def test_partial_reconfiguration_flag_survives(self, small_app):
        arch = Architecture("full_reconfig")
        from repro.arch.processor import Processor

        arch.add_resource(Processor("cpu"))
        arch.add_resource(
            ReconfigurableCircuit(
                "fpga", n_clbs=500, partial_reconfiguration=False
            )
        )
        instance = ProblemInstance(small_app, arch)
        again = load_instance(dump_instance(instance))
        rc = again.architecture.reconfigurable_circuits()[0]
        assert rc.partial_reconfiguration is False

    def test_wrong_document_kind(self, motion_app):
        with pytest.raises(ConfigurationError):
            load_instance(dump_application(motion_app))


def _motion_document():
    from repro.bench.corpus import get_scenario

    return instance_to_dict(get_scenario("motion/2000").build())


def _set(path, value):
    """A mutation that sets ``doc[path[0]]...[path[-1]] = value``."""

    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return mutate


def _drop_task_name(doc):
    del doc["application"]["tasks"][0]["name"]


@pytest.mark.parametrize(
    "mutate, field",
    [
        (_set(("application", "tasks"), None), "tasks"),
        (_drop_task_name, "name"),
        (_set(("application", "tasks", 0, "sw_time_ms"), "x"), "sw_time_ms"),
        (_set(("application", "dependencies"), [1, 2]), "dependency"),
        (_set(("application",), []), "application document"),
        (
            _set(("application", "tasks", 0, "implementations"), None),
            "implementations",
        ),
    ],
    ids=[
        "tasks-null", "task-without-name", "sw-time-not-number",
        "dependencies-not-objects", "application-not-object",
        "implementations-null",
    ],
)
def test_malformed_bundled_instance_raises_configuration_error(mutate, field):
    """A malformed bundled document fails with a ConfigurationError that
    names the offending field, not with a stray KeyError/TypeError."""
    doc = _motion_document()
    mutate(doc)
    with pytest.raises(ConfigurationError, match=field):
        instance_from_dict(doc)


class TestSolutionRoundTrip:
    def test_roundtrip_preserves_evaluation(self, motion_app):
        arch = epicure_architecture(2000)
        solution = random_initial_solution(
            motion_app, arch, random.Random(4)
        )
        evaluator = Evaluator(motion_app, arch)
        original = evaluator.evaluate(solution)

        text = dump_solution(solution)
        arch2 = epicure_architecture(2000)
        evaluator2 = Evaluator(motion_app, arch2)
        restored = load_solution(text, motion_app, arch2)
        again = evaluator2.evaluate(restored)

        assert again.makespan_ms == pytest.approx(original.makespan_ms)
        assert again.num_contexts == original.num_contexts
        assert sorted(restored.hardware_tasks()) == sorted(
            solution.hardware_tasks()
        )

    def test_application_mismatch_rejected(self, motion_app, small_app):
        arch = epicure_architecture(2000)
        solution = random_initial_solution(
            motion_app, arch, random.Random(1)
        )
        text = dump_solution(solution)
        with pytest.raises(MappingError):
            load_solution(text, small_app, arch)
