"""Architecture model: resources, the reconfigurable circuit, the bus.

Mirrors the paper's object model (section 3.3): an abstract, polymorphic
``Resource`` class whose subclasses impose different execution orders on
the tasks assigned to them —

* :class:`Processor` — **total** order (sequential software execution);
* :class:`Asic` — **partial** order (maximal parallelism);
* :class:`ReconfigurableCircuit` — **globally total, locally partial**
  (GTLP) order: an ordered list of contexts, each context executing its
  tasks with the parallelism permitted by the precedence graph.

Each subclass contributes its sequentialization edges to the search
graph through :meth:`Resource.sequentialization_edges` — the library's
rendition of the paper's abstract ``PE.schedule(Vs, Vd)`` method.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Resource",
    "OrderKind",
    "Processor",
    "Asic",
    "ReconfigurableCircuit",
    "Bus",
    "Architecture",
    "epicure_architecture",
]

lazy_exports(globals(), {
    "repro.arch.resource": ("Resource", "OrderKind"),
    "repro.arch.processor": ("Processor",),
    "repro.arch.asic": ("Asic",),
    "repro.arch.reconfigurable": ("ReconfigurableCircuit",),
    "repro.arch.bus": ("Bus",),
    "repro.arch.architecture": ("Architecture", "epicure_architecture"),
})
