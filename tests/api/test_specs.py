"""Spec-layer tests: golden round trips, defaulting, loud rejection."""

import dataclasses
import json
import os

import pytest

from repro.api.specs import (
    SCHEMA_VERSION,
    ApplicationSpec,
    ArchitectureSpec,
    BudgetSpec,
    EngineSpec,
    ExplorationRequest,
    StrategySpec,
    load_request,
)
from repro.errors import ConfigurationError

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
QUICK_SPEC = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "specs",
    "motion_quick.json",
)
GOLDEN = sorted(
    name for name in os.listdir(FIXTURES) if name.endswith(".json")
)


def quick_spec_document():
    """A fresh copy of the example single-run spec, as parsed JSON."""
    with open(QUICK_SPEC) as handle:
        return json.load(handle)


class TestGoldenFixtures:
    """One fixture per spec kind; the files are the canonical dumps."""

    @pytest.mark.parametrize("name", GOLDEN)
    def test_round_trip_is_byte_stable(self, name):
        with open(os.path.join(FIXTURES, name)) as handle:
            text = handle.read()
        request = ExplorationRequest.from_json(text)
        assert request.to_json() + "\n" == text

    @pytest.mark.parametrize("name", GOLDEN)
    def test_fixture_validates(self, name):
        request = load_request(os.path.join(FIXTURES, name))
        request.validate()

    def test_fixtures_cover_every_spec_and_request_kind(self):
        requests = [
            load_request(os.path.join(FIXTURES, name)) for name in GOLDEN
        ]
        assert {r.application.kind for r in requests} == {
            "builtin", "generated", "bundled", "inline",
        }
        assert {r.kind for r in requests} == {
            "single", "batch", "portfolio", "sweep",
        }


class TestSchemaVersion:
    def test_current_version_is_pinned(self):
        # Bumping SCHEMA_VERSION is an API event: regenerate the golden
        # fixtures and extend the migration notes when this moves.
        assert SCHEMA_VERSION == 1

    def test_missing_version_rejected(self):
        with pytest.raises(ConfigurationError, match="schema_version"):
            ExplorationRequest.from_dict({"kind": "single"})

    def test_newer_version_rejected(self):
        document = ExplorationRequest().to_dict()
        document["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError, match="newer"):
            ExplorationRequest.from_dict(document)

    def test_non_integer_version_rejected(self):
        with pytest.raises(ConfigurationError, match="positive integer"):
            ExplorationRequest.from_dict({"schema_version": "1"})


class TestDefaulting:
    def test_minimal_document_fills_defaults(self):
        request = ExplorationRequest.from_dict(
            {"schema_version": SCHEMA_VERSION}
        )
        assert request.kind == "single"
        assert request.application.kind == "builtin"
        assert request.application.name == "motion"
        assert request.strategy.kind == "sa"
        assert request.engine.kind == "incremental"
        assert request.architecture is None

    def test_partial_nested_documents_default(self):
        request = ExplorationRequest.from_dict({
            "schema_version": SCHEMA_VERSION,
            "kind": "batch",
            "runs": 3,
            "budget": {"iterations": 500},
            "architecture": {"n_clbs": 800},
        })
        assert request.budget.warmup_iterations is None
        assert request.architecture.kind == "builtin"
        assert request.architecture.n_clbs == 800

    def test_from_json_equals_from_dict(self):
        text = ExplorationRequest(seed=3).to_json()
        assert (
            ExplorationRequest.from_json(text)
            == ExplorationRequest.from_dict(json.loads(text))
        )


class TestUnknownKeyRejection:
    def test_top_level(self):
        with pytest.raises(ConfigurationError) as err:
            ExplorationRequest.from_dict({
                "schema_version": SCHEMA_VERSION, "iterations": 100,
            })
        assert "iterations" in str(err.value)
        assert "accepted keys" in str(err.value)

    def test_nested_application(self):
        with pytest.raises(ConfigurationError, match="num_tasks"):
            ExplorationRequest.from_dict({
                "schema_version": SCHEMA_VERSION,
                "application": {"kind": "builtin", "num_tasks": 5},
            })

    def test_nested_budget(self):
        with pytest.raises(ConfigurationError, match="warmup"):
            ExplorationRequest.from_dict({
                "schema_version": SCHEMA_VERSION,
                "budget": {"warmup": 100},
            })

    def test_generator_knobs(self):
        spec = ApplicationSpec(
            kind="generated", generator={"n_tasks": 10}
        )
        with pytest.raises(ConfigurationError, match="n_tasks"):
            spec.validate()

    def test_strategy_options(self):
        with pytest.raises(ConfigurationError, match="iteration"):
            StrategySpec("sa", {"iteration": 100}).validate()


class TestStrategySpec:
    def test_reserved_engine_option_points_at_engine_spec(self):
        with pytest.raises(ConfigurationError, match="EngineSpec"):
            StrategySpec("sa", {"engine": "full"}).validate()

    def test_reserved_catalog_option_points_at_field(self):
        with pytest.raises(ConfigurationError, match="StrategySpec.catalog"):
            StrategySpec("sa", {"catalog": []}).validate()

    def test_non_json_options_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON-serializable"):
            StrategySpec("sa", {"schedule_kwargs": object()}).validate()

    def test_unknown_cost_kind(self):
        with pytest.raises(ConfigurationError, match="cost kind"):
            StrategySpec("sa", cost={"kind": "latency"}).validate()

    def test_cost_on_non_annealer_rejected(self):
        with pytest.raises(ConfigurationError, match="'sa' and 'tempering'"):
            StrategySpec("ga", cost={"kind": "makespan"}).validate()

    def test_cost_on_tempering_accepted(self):
        StrategySpec("tempering", cost={"kind": "makespan"}).validate()

    def test_catalog_on_tempering_rejected(self):
        # chains share one Architecture object; architecture-exploration
        # moves would cross-contaminate them
        with pytest.raises(ConfigurationError, match="'sa' strategy only"):
            StrategySpec(
                "tempering", catalog=({"kind": "processor"},)
            ).validate()

    def test_unknown_catalog_kind(self):
        with pytest.raises(ConfigurationError, match="catalog resource"):
            StrategySpec("sa", catalog=({"kind": "gpu"},)).validate()

    def test_retired_batch_size_option_rejected(self):
        """The annealer's batched mode is gone; it ran a different
        trajectory, so a stored spec that asks for it must fail, not
        silently run the sequential loop."""
        doc = quick_spec_document()
        doc["strategy"]["options"]["batch_size"] = 4
        with pytest.raises(ConfigurationError, match="batch_size"):
            ExplorationRequest.from_dict(doc)


class TestKindValidation:
    def test_unknown_request_kind(self):
        with pytest.raises(ConfigurationError, match="request kind"):
            ExplorationRequest(kind="grid").validate()

    def test_unknown_application_kind(self):
        with pytest.raises(ConfigurationError, match="application kind"):
            ApplicationSpec(kind="corpus").validate()

    def test_unknown_builtin_application(self):
        with pytest.raises(ConfigurationError, match="builtin application"):
            ApplicationSpec(kind="builtin", name="radar").validate()

    def test_unknown_engine(self):
        with pytest.raises(ConfigurationError, match="engine kind"):
            EngineSpec("turbo").validate()

    def test_bundled_needs_exactly_one_source(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            ApplicationSpec(kind="bundled").validate()
        with pytest.raises(ConfigurationError, match="exactly one"):
            ApplicationSpec(
                kind="bundled", path="x.json", document={}
            ).validate()

    def test_inline_architecture_needs_source(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            ArchitectureSpec(kind="inline").validate()

    def test_sizes_only_for_sweeps(self):
        with pytest.raises(ConfigurationError, match="sweep"):
            ExplorationRequest(kind="single", sizes=(100,)).validate()

    def test_seeds_only_for_batches(self):
        # a single-kind request with seeds would silently run one seed
        with pytest.raises(ConfigurationError, match="batch"):
            ExplorationRequest(kind="single", seeds=(1, 2, 3)).validate()

    def test_runs_only_for_batches_and_sweeps(self):
        with pytest.raises(ConfigurationError, match="runs"):
            ExplorationRequest(kind="single", runs=3).validate()
        ExplorationRequest(kind="batch", runs=3).validate()

    def test_warmup_needs_the_annealer(self):
        from repro.api.specs import BudgetSpec, StrategySpec

        with pytest.raises(ConfigurationError, match="annealer"):
            ExplorationRequest(
                strategy=StrategySpec("ga"),
                budget=BudgetSpec(iterations=10, warmup_iterations=5),
            ).validate()

    def test_sweep_needs_sizes(self):
        with pytest.raises(ConfigurationError, match="sizes"):
            ExplorationRequest(kind="sweep").validate()

    def test_sweep_rejects_architecture_spec(self):
        with pytest.raises(ConfigurationError, match="EPICURE"):
            ExplorationRequest(
                kind="sweep", sizes=(100,),
                architecture=ArchitectureSpec(),
            ).validate()

    def test_portfolio_kinds_checked(self):
        with pytest.raises(ConfigurationError, match="portfolio strategy"):
            ExplorationRequest(
                kind="portfolio", portfolio_kinds=("sa", "cma_es"),
            ).validate()

    def test_budget_bounds(self):
        with pytest.raises(ConfigurationError):
            BudgetSpec(iterations=0).validate()
        with pytest.raises(ConfigurationError):
            BudgetSpec(time_limit_s=0.0).validate()
        with pytest.raises(ConfigurationError):
            BudgetSpec(stall_limit=0).validate()


#: (dotted path into motion_quick.json, wrongly typed value, expected
#: field name in the error message).
MALFORMED_FIELDS = [
    ("application.name", [], "ApplicationSpec.name"),
    ("architecture.name", [], "ArchitectureSpec.name"),
    ("strategy.kind", [], "StrategySpec.kind"),
    ("architecture.n_clbs", None, "n_clbs"),
    ("runs", None, "runs"),
    ("budget.iterations", "x", "iterations"),
    ("budget.warmup_iterations", "x", "warmup_iterations"),
    ("budget.time_limit_s", "x", "time_limit_s"),
    ("budget.stall_limit", "x", "stall_limit"),
    ("deadline_ms", "x", "deadline_ms"),
    ("strategy.catalog", None, "catalog"),
    ("sizes", None, "sizes"),
    ("portfolio_kinds", None, "portfolio_kinds"),
    ("seeds", 1, "seeds"),
]


class TestMalformedFieldTypes:
    """A wrongly typed field is a typed ConfigurationError naming the
    field, never a stray TypeError from a comparison or a hash."""

    @pytest.mark.parametrize(
        "path, value, field_name", MALFORMED_FIELDS,
        ids=[path for path, _value, _name in MALFORMED_FIELDS],
    )
    def test_wrong_type_is_configuration_error(self, path, value, field_name):
        doc = quick_spec_document()
        *parents, key = path.split(".")
        node = doc
        for name in parents:
            node = node[name]
        node[key] = value
        with pytest.raises(ConfigurationError, match=field_name):
            request = ExplorationRequest.from_dict(doc)
            request.validate()
            request.content_hash()

    @pytest.mark.parametrize("kind, field_name, value", [
        ("batch", "seeds", [1, "x"]),
        ("sweep", "sizes", [400, "x"]),
        ("portfolio", "portfolio_kinds", ["sa", []]),
    ])
    def test_wrong_entry_type_is_configuration_error(
        self, kind, field_name, value
    ):
        with pytest.raises(ConfigurationError, match=f"{field_name} entry"):
            ExplorationRequest(kind=kind, **{field_name: value}).validate()


class TestLoadRequest:
    def test_missing_file_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_request(str(tmp_path / "nope.json"))

    def test_invalid_json_is_configuration_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_request(str(path))


class TestEngineOptions:
    """EngineSpec.options: the retired array-engine tuning knobs still
    validate (so stored specs load) and change nothing."""

    def test_dispatch_modes_accepted(self):
        for mode in ("auto", "kernel", "scalar"):
            EngineSpec("array", {"dispatch": mode}).validate()

    def test_unknown_dispatch_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="dispatch"):
            EngineSpec("array", {"dispatch": "warp"}).validate()

    def test_dispatch_on_non_array_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="array"):
            EngineSpec("incremental", {"dispatch": "auto"}).validate()

    def test_min_work_must_be_a_non_negative_int(self):
        EngineSpec("array", {"kernel_batch_min_work": 0}).validate()
        with pytest.raises(ConfigurationError, match="kernel_batch_min_work"):
            EngineSpec("array", {"kernel_batch_min_work": -1}).validate()

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigurationError, match="turbo"):
            EngineSpec("array", {"turbo": True}).validate()

    def test_retired_options_warn_they_have_no_effect(self):
        with pytest.warns(DeprecationWarning, match="no effect"):
            EngineSpec("array", {"dispatch": "scalar"}).validate()

    def test_retired_option_changes_no_result(self):
        """The stored tempering fixture carries ``kernel_batch_min_work``;
        dropping the option gives the same best cost and evaluations."""
        from repro.api.facade import explore

        request = load_request(os.path.join(FIXTURES, "tempering_array.json"))
        assert request.engine.options == {"kernel_batch_min_work": 2000}
        plain = dataclasses.replace(request, engine=EngineSpec("array"))
        with_option, without = (
            explore(r).results[0] for r in (request, plain)
        )
        assert with_option["best_cost"] == without["best_cost"]
        assert with_option["evaluations"] == without["evaluations"]
