"""The declarative public API: versioned specs, one resolution
pipeline, one façade.

Every workload is expressible as data — an
:class:`~repro.api.specs.ExplorationRequest` JSON document — and every
client (the CLI, the experiment modules, the bench suites, the
examples, or a network service speaking JSON) executes it the same way:

    from repro.api import ExplorationRequest, BudgetSpec, explore

    request = ExplorationRequest(
        kind="single",
        budget=BudgetSpec(iterations=8000, warmup_iterations=1200),
        seed=7,
    )
    response = explore(request, jobs=1)
    print(response.best["cost"], response.best["evaluation"])
    print(response.to_json())            # the serializable envelope

Specs round-trip through JSON byte-stably, reject unknown keys, and are
stamped with ``schema_version`` — see :mod:`repro.api.specs`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "SCHEMA_VERSION",
    "APPLICATION_KINDS",
    "ARCHITECTURE_KINDS",
    "REQUEST_KINDS",
    "ApplicationSpec",
    "ArchitectureSpec",
    "StrategySpec",
    "BudgetSpec",
    "EngineSpec",
    "ExplorationRequest",
    "ExplorationResponse",
    "load_request",
    "BUILTIN_APPLICATIONS",
    "BUILTIN_ARCHITECTURES",
    "ResolvedProblem",
    "ResolvedRequest",
    "resolve_application",
    "resolve_architecture",
    "resolve_request",
    "resolve_strategy",
    "environment_stamp",
    "evaluation_to_dict",
    "explore",
    "load_response",
]

lazy_exports(globals(), {
    "repro.api.specs": (
        "APPLICATION_KINDS", "ARCHITECTURE_KINDS", "REQUEST_KINDS",
        "SCHEMA_VERSION", "ApplicationSpec", "ArchitectureSpec", "BudgetSpec",
        "EngineSpec", "ExplorationRequest", "StrategySpec", "load_request",
    ),
    "repro.api.resolve": (
        "BUILTIN_APPLICATIONS", "BUILTIN_ARCHITECTURES", "ResolvedProblem",
        "ResolvedRequest", "resolve_application", "resolve_architecture",
        "resolve_request", "resolve_strategy",
    ),
    "repro.api.facade": (
        "ExplorationResponse", "environment_stamp", "evaluation_to_dict",
        "explore", "load_response",
    ),
})
