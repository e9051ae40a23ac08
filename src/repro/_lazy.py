"""Lazy package re-exports (PEP 562).

A package ``__init__`` says which module defines each public name and
calls :func:`lazy_exports`; the defining module is imported on the first
access of one of its names, and the value is cached in the package's
globals so later lookups are plain attribute reads.  A process therefore
loads only the layers it actually uses::

    __all__ = ["Dag", "NodeInterner", "PathCountClosure"]

    lazy_exports(globals(), {
        "repro.graph.dag": ("Dag", "NodeInterner"),
        "repro.graph.closure": ("PathCountClosure",),
    })

A name listed under the module ``<package>.<name>`` re-exports that
submodule itself.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, Iterable, List, Mapping


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, Iterable[str]]
) -> None:
    """Install ``__getattr__`` and ``__dir__`` into a package namespace
    so every name of ``exports`` (``{defining module: names}``) resolves
    on first use; ``dir()`` lists the package's ``__all__``."""
    package = namespace["__name__"]
    table = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        source = table.get(name)
        if source is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = importlib.import_module(source)
        if source == f"{package}.{name}":
            value = module
        else:
            value = getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return list(namespace["__all__"])

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
