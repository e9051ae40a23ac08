"""One-time compilation of a problem instance into dense arrays.

Every evaluation engine that wants to score thousands of candidate
solutions per second needs the same solution-independent tables: task
indices interned to dense ids, per-task software/hardware durations,
the dependency list with precomputed bus transfer times, the permanent
``src -> comm -> dst`` wiring of the static dependency layer, and the
precedence adjacency over dense ids.  This module is the single place
where a :class:`~repro.model.application.Application` (plus the bus it
communicates over) is flattened into that struct-of-arrays form, which
:class:`~repro.mapping.engine.IncrementalEngine` consumes as plain
Python lists in its delta-patching loops.

The compile pass runs **once per search** (and again only if a caller
swaps the bus object); everything in it is solution-independent.  The
dense-id layout is load-bearing and shared by all engines:

* ids ``[0, ntasks)`` are the application tasks in
  ``application.task_indices()`` order;
* ids ``[ntasks, ntasks + ndeps)`` are the communication nodes, one per
  dependency in ``application.dependencies()`` order;
* ids beyond that are virtual nodes (per-DRLC configuration nodes)
  interned on demand by the engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.graph.dag import NodeInterner
from repro.graph.reachability import ReachabilityIndex
from repro.mapping.search_graph import COMM_NODE
from repro.model.application import Application


@dataclass
class CompiledInstance:
    """The dense, solution-independent tables of one problem instance."""

    application: Application
    bus: Any
    #: Application task indices in interning order (dense id = position).
    tasks: List[int]
    #: task index -> dense id.
    tid: Dict[int, int]
    #: Software execution time per dense task id.
    sw_ms: List[float]
    #: Hardware implementation CLB/time tables (None for SW-only tasks).
    impl_clbs: List[Optional[List[int]]]
    impl_ms: List[Optional[List[float]]]
    #: Precedence adjacency over dense task ids.
    pred_ids: List[List[int]]
    succ_ids: List[List[int]]
    #: Dependency arrays: original task indices, dense ids, bus transfer
    #: times, interned comm-node ids, and the deps touching each task.
    dep_srct: List[int]
    dep_dstt: List[int]
    dep_src: List[int]
    dep_dst: List[int]
    dep_transfer: List[float]
    dep_comm: List[int]
    deps_of_task: List[List[int]]
    #: The interner holding tasks + comm nodes (engines intern virtual
    #: configuration nodes on top of it).
    interner: NodeInterner
    #: Static dependency layer: per-node comm predecessors, successors
    #: and indegrees of the permanent ``src -> comm -> dst`` wiring.
    pred_comms: List[List[int]]
    succ_static: List[List[int]]
    indeg_static: List[int]

    #: Graph-shape statistics of the static ``src -> comm -> dst`` DAG:
    #: number of topological levels (Kahn frontier waves) and the mean
    #: nodes-per-level.  Solution-independent lower bound on the depth
    #: of any annealed serialization; the bench reports both next to
    #: every throughput number.
    depth: int = 1
    mean_level_width: float = 1.0

    #: Lazily built derived tables (shared by forks).
    _cache: Dict[str, Any] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    def fork(self) -> "CompiledInstance":
        """A sibling view sharing every immutable table.

        Engines *append* to exactly four members when they intern
        virtual configuration nodes (:meth:`IncrementalEngine._grow_nodes`):
        the interner and the ``pred_comms``/``succ_static``/
        ``indeg_static`` per-node arrays.  A fork deep-copies those four
        and aliases everything else — including the lazy cache, whose
        tables only ever cover the immutable task/dependency region —
        so K engines can drive K independent solutions over one compile
        pass without re-running it or corrupting each other's
        virtual-node regions."""
        return CompiledInstance(
            application=self.application,
            bus=self.bus,
            tasks=self.tasks,
            tid=self.tid,
            sw_ms=self.sw_ms,
            impl_clbs=self.impl_clbs,
            impl_ms=self.impl_ms,
            pred_ids=self.pred_ids,
            succ_ids=self.succ_ids,
            dep_srct=self.dep_srct,
            dep_dstt=self.dep_dstt,
            dep_src=self.dep_src,
            dep_dst=self.dep_dst,
            dep_transfer=self.dep_transfer,
            dep_comm=self.dep_comm,
            deps_of_task=self.deps_of_task,
            interner=self.interner.copy(),
            pred_comms=[list(row) for row in self.pred_comms],
            succ_static=[list(row) for row in self.succ_static],
            indeg_static=list(self.indeg_static),
            depth=self.depth,
            mean_level_width=self.mean_level_width,
            _cache=self._cache,
        )

    # ------------------------------------------------------------------
    @property
    def ntasks(self) -> int:
        return len(self.tasks)

    @property
    def ndeps(self) -> int:
        return len(self.dep_srct)

    # ------------------------------------------------------------------
    # precedence reachability (lazy, cached; shared by forks)
    # ------------------------------------------------------------------
    @property
    def reachability(self) -> ReachabilityIndex:
        """Ancestor/descendant bitsets over the dense task ids.

        Built once per compile pass from the immutable ``succ_ids``
        adjacency and cached in ``_cache``, so :meth:`fork` siblings
        share one index (the task-level precedence graph never changes
        during a search).
        """
        index = self._cache.get("reachability")
        if index is None:
            index = ReachabilityIndex.from_successors(self.succ_ids)
            self._cache["reachability"] = index
        return index

    def precedes(self, src_task: int, dst_task: int) -> bool:
        """Transitive precedence between two *application task indices*
        (the compiled counterpart of ``application.precedes``)."""
        return self.reachability.has_path(
            self.tid[src_task], self.tid[dst_task]
        )


def compile_instance(application: Application, bus) -> CompiledInstance:
    """Flatten ``application`` (communicating over ``bus``) into the
    dense struct-of-arrays form.  Deterministic: tables depend only on
    the application's task/dependency iteration order."""
    tasks = list(application.task_indices())
    ntasks = len(tasks)
    tid = {t: i for i, t in enumerate(tasks)}
    interner = NodeInterner(tasks)

    sw_ms: List[float] = [0.0] * ntasks
    impl_clbs: List[Optional[List[int]]] = [None] * ntasks
    impl_ms: List[Optional[List[float]]] = [None] * ntasks
    pred_ids: List[List[int]] = [[] for _ in range(ntasks)]
    succ_ids: List[List[int]] = [[] for _ in range(ntasks)]
    for i, t in enumerate(tasks):
        task = application.task(t)
        sw_ms[i] = task.sw_time_ms
        if task.hardware_capable:
            impl_clbs[i] = [impl.clbs for impl in task.implementations]
            impl_ms[i] = [impl.time_ms for impl in task.implementations]

    dep_srct: List[int] = []
    dep_dstt: List[int] = []
    dep_src: List[int] = []
    dep_dst: List[int] = []
    dep_transfer: List[float] = []
    dep_comm: List[int] = []
    deps_of_task: List[List[int]] = [[] for _ in range(ntasks)]
    for src, dst, kbytes in application.dependencies():
        j = len(dep_srct)
        s, d = tid[src], tid[dst]
        dep_srct.append(src)
        dep_dstt.append(dst)
        dep_src.append(s)
        dep_dst.append(d)
        dep_transfer.append(bus.transfer_time_ms(kbytes))
        dep_comm.append(interner.intern((COMM_NODE, src, dst)))
        deps_of_task[s].append(j)
        deps_of_task[d].append(j)
        pred_ids[d].append(s)
        succ_ids[s].append(d)
    ndeps = len(dep_srct)
    assert all(dep_comm[j] == ntasks + j for j in range(ndeps))

    n = len(interner)
    pred_comms: List[List[int]] = [[] for _ in range(n)]
    succ_static: List[List[int]] = [[] for _ in range(n)]
    indeg_static = [0] * n
    for j in range(ndeps):
        s, c, d = dep_src[j], dep_comm[j], dep_dst[j]
        pred_comms[d].append(c)
        succ_static[s].append(c)
        succ_static[c].append(d)
        indeg_static[c] += 1
        indeg_static[d] += 1

    # Level structure of the static DAG: one Kahn BFS over the permanent
    # wiring.  The application layer guarantees acyclicity, so every node
    # is consumed and ``depth`` counts the frontier waves exactly.
    indeg = list(indeg_static)
    frontier = [v for v in range(n) if indeg[v] == 0]
    depth = 0
    visited = 0
    while frontier:
        depth += 1
        visited += len(frontier)
        nxt: List[int] = []
        for v in frontier:
            for w in succ_static[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    nxt.append(w)
        frontier = nxt
    assert visited == n, "static dependency layer must be acyclic"
    depth = max(depth, 1)

    return CompiledInstance(
        application=application,
        bus=bus,
        tasks=tasks,
        tid=tid,
        sw_ms=sw_ms,
        impl_clbs=impl_clbs,
        impl_ms=impl_ms,
        pred_ids=pred_ids,
        succ_ids=succ_ids,
        dep_srct=dep_srct,
        dep_dstt=dep_dstt,
        dep_src=dep_src,
        dep_dst=dep_dst,
        dep_transfer=dep_transfer,
        dep_comm=dep_comm,
        deps_of_task=deps_of_task,
        interner=interner,
        pred_comms=pred_comms,
        succ_static=succ_static,
        indeg_static=indeg_static,
        depth=depth,
        mean_level_width=n / depth,
    )
