"""Pluggable evaluation engines (the annealer's hot path).

Scoring a candidate solution — longest path of the realized search graph
(paper section 4.4) — is the single operation every optimizer in this
library performs thousands of times per run.  This module puts that
operation behind one interface with two implementations:

* :class:`FullRebuildEngine` — the reference semantics, extracted from
  the original ``Evaluator``/``SearchGraphBuilder`` pipeline: rebuild
  the whole :class:`~repro.graph.dag.Dag` from scratch for every
  candidate and run the dict-based longest-path DP.
* :class:`IncrementalEngine` — the stateful fast path.  The problem
  instance is flattened once per search by the
  :mod:`repro.mapping.compiled` pass (tasks, communication nodes and
  virtual configuration nodes interned to dense integer ids, the
  solution-independent precedence skeleton cached); after each move
  only the solution-dependent parts are delta-patched — task
  durations, the crossing state of each dependency, and the
  sequentialization edges of the (typically one or two) resources a
  move actually touched.  On top of that mirror the topological order
  and the base longest-path DP are *persistent*: the order is repaired
  in place instead of re-sorted, and only the suffix of the order a
  move could have affected is re-relaxed.

``"array"`` is kept as an alias kind (:class:`ArrayEngine`) for stored
specs and results; it runs the incremental engine unchanged.

All engines produce **bit-identical** makespans: they evaluate the same
graph with the same float operations over the same candidate sets, and
serialize shared-bus transactions with the same deterministic ASAP sort.
``tests/mapping/test_engine_parity.py`` replays hundreds of random move
sequences pairwise across the engines to enforce this.

Select an engine through ``Evaluator(..., engine="incremental")``, the
``DesignSpaceExplorer(engine=...)`` knob, or the CLI ``--engine`` flag;
the ``throughput/*`` bench cases measure the gap.
"""

from __future__ import annotations

import math
from itertools import chain, compress, count
from operator import ne
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.architecture import Architecture
from repro.arch.asic import Asic
from repro.arch.processor import Processor
from repro.arch.reconfigurable import CONFIG_NODE, ReconfigurableCircuit
from repro.arch.resource import Resource
from repro.errors import (
    ConfigurationError,
    CycleError,
    InfeasibleMoveError,
    MappingError,
)
from repro.graph.longest_path import kahn_order_indices
from repro.mapping.compiled import compile_instance
from repro.mapping.search_graph import SearchGraph, SearchGraphBuilder
from repro.mapping.solution import Solution
from repro.model.application import Application

#: Cost of infeasible (cyclic) realizations.
INFEASIBLE_MS = math.inf

#: Names accepted by :func:`make_engine` / ``Evaluator(engine=...)``.
ENGINES = ("full", "incremental", "array")

def _kind_is_hw(kind: Tuple) -> bool:
    """Does a classified resource host *hardware* tasks (the ones
    ``Solution.hardware_tasks`` counts)?"""
    tag = kind[0]
    return tag == "rc" or tag == "asic" or (tag == "?" and kind[2])


@dataclass(frozen=True)
class Evaluation:
    """Outcome of evaluating one candidate solution."""

    makespan_ms: float
    feasible: bool
    num_contexts: int
    hw_tasks: int
    sw_tasks: int
    initial_reconfig_ms: float
    dynamic_reconfig_ms: float
    comm_ms: float
    clbs_used: int

    @property
    def reconfig_ms(self) -> float:
        """Total reconfiguration time (initial + dynamic), Fig. 3's sum."""
        return self.initial_reconfig_ms + self.dynamic_reconfig_ms

    def meets(self, deadline_ms: float) -> bool:
        return self.feasible and self.makespan_ms <= deadline_ms


class EvaluationEngine(ABC):
    """Realizes and scores candidate solutions of one problem instance.

    An engine is constructed once per ``(application, architecture,
    bus_policy)`` and then called with candidate
    :class:`~repro.mapping.solution.Solution` objects; it owns whatever
    caches it needs across calls.  All optimizers (annealer, hill
    climber, tabu, GA) drive their move-evaluate-undo loops through this
    interface, usually via the :class:`~repro.mapping.evaluator.Evaluator`
    facade.
    """

    #: Engine name as accepted by :func:`make_engine`.
    name: str = "abstract"

    def __init__(
        self,
        application: Application,
        architecture: Architecture,
        bus_policy: str = "ordered",
    ) -> None:
        self.application = application
        self.architecture = architecture
        #: Reference builder: realizes solutions as explicit
        #: :class:`SearchGraph` objects (schedule extraction, debugging)
        #: and validates ``bus_policy``.
        self.builder = SearchGraphBuilder(application, architecture, bus_policy)
        self.bus_policy = bus_policy
        #: Number of evaluations performed (exposed for benchmarks).
        self.evaluations = 0

    # ------------------------------------------------------------------
    def telemetry_counters(self) -> Dict[str, int]:
        """Internal counters exposed to the telemetry layer.

        Counters are plain integer attributes incremented unconditionally
        on the hot paths (cheap, deterministic); recorders sample them
        once at run end, so disabled telemetry costs nothing here.
        Subclasses extend the dict with their engine-specific internals.
        """
        return {"evaluations": self.evaluations}

    # ------------------------------------------------------------------
    def realize(self, solution: Solution) -> SearchGraph:
        """Build the search graph without computing its longest path."""
        return self.builder.build(solution)

    @abstractmethod
    def makespan_ms(self, solution: Solution) -> float:
        """Longest path only (the optimizers' hot path); infeasible
        (cyclic) realizations return :data:`INFEASIBLE_MS`."""

    @abstractmethod
    def evaluate(self, solution: Solution, strict: bool = False) -> Evaluation:
        """Score ``solution``; cyclic realizations yield an infeasible
        evaluation (``makespan = inf``) unless ``strict`` re-raises."""

    def evaluate_batch(
        self,
        solution: Solution,
        moves: Sequence,
        cost_function=None,
    ) -> List[Optional[Tuple[Evaluation, Optional[float]]]]:
        """Score K candidate moves against ``solution`` in one call.

        Each move is applied, scored, and undone; ``solution`` is left
        exactly as it came in.  The k-th result is ``None`` when the
        move's application raised :class:`InfeasibleMoveError`, else an
        ``(evaluation, cost)`` pair — ``cost`` is
        ``cost_function(candidate_solution, evaluation)`` computed while
        the move is applied (``None`` when no cost function is given).

        Results are bit-identical across engines, and each candidate is
        scored independently against the same base state, so a move's
        result does not depend on the other moves in the call.
        """
        results: List[Optional[Tuple[Evaluation, Optional[float]]]] = []
        for move in moves:
            try:
                move.apply(solution)
            except InfeasibleMoveError:
                results.append(None)
                continue
            try:
                evaluation = self.evaluate(solution)
                cost = (
                    cost_function(solution, evaluation)
                    if cost_function is not None
                    else None
                )
                results.append((evaluation, cost))
            finally:
                move.undo(solution)
        return results

    # ------------------------------------------------------------------
    # transactional single-move evaluation (the population hot path)
    # ------------------------------------------------------------------
    def propose_move(
        self,
        solution: Solution,
        move,
        cost_function=None,
    ) -> Optional[Tuple[Evaluation, Optional[float]]]:
        """Apply ``move``, score the candidate, and leave it **applied**.

        The persistent-delta counterpart of scoring one move with
        :meth:`evaluate_batch`: the move is applied, the engine
        delta-syncs to the candidate and scores it, and control returns
        with the move still in force.
        The caller must finish the transaction with exactly one of
        :meth:`accept_move` (keep the candidate — the engine state is
        already synced, no undo/re-apply/re-diff anywhere) or
        :meth:`reject_move` (undo the move; the engine's next delta-sync
        absorbs the reverse patch in O(delta)).

        Returns ``None`` when the move's application raises
        :class:`InfeasibleMoveError` — the move was never applied and
        there is no transaction to resolve.  ``cost`` is computed while
        the move is applied, exactly like :meth:`evaluate_batch`.
        Results are bit-identical to ``evaluate_batch([move])`` followed
        by a re-apply: moves replay their cached decisions, and every
        engine's evaluation is a pure function of the candidate state.
        """
        try:
            move.apply(solution)
        except InfeasibleMoveError:
            return None
        try:
            evaluation = self.evaluate(solution)
            cost = (
                cost_function(solution, evaluation)
                if cost_function is not None
                else None
            )
        except Exception:
            move.undo(solution)
            raise
        return (evaluation, cost)

    def accept_move(self, solution: Solution, move) -> None:
        """Commit the transaction opened by :meth:`propose_move`: the
        candidate becomes the current state and the engine keeps its
        already-synced mirror (commit-on-accept) — no undo, no re-apply,
        no second delta-diff anywhere."""

    def reject_move(self, solution: Solution, move) -> None:
        """Abort the transaction opened by :meth:`propose_move`: undo
        the move on the solution.  The stateful engines deliberately do
        **not** restore their mirrors eagerly — the next delta-sync
        re-diffs the undone solution against the mirror in O(delta),
        exactly the flow the sequential explorer drives them through.
        (An eager snapshot/replay reverse patch was measured *slower*
        than the lazy re-diff on the paper corpus: the snapshot is paid
        on every proposal while the re-diff is only paid on rejection,
        and the re-diff itself is the same O(delta) pair-trimmed layer
        replay the sync already performs.)"""
        move.undo(solution)


class FullRebuildEngine(EvaluationEngine):
    """Reference engine: rebuild the search graph for every candidate.

    This is the original ``Evaluator`` behavior verbatim — every call
    constructs a fresh :class:`~repro.graph.dag.Dag`, reruns Kahn's sort
    and the dict-based DP.  It is the semantic baseline the incremental
    engine is checked against.
    """

    name = "full"

    def makespan_ms(self, solution: Solution) -> float:
        self.evaluations += 1
        graph = self.builder.build(solution)
        try:
            return graph.makespan_ms()
        except CycleError:
            return INFEASIBLE_MS

    def evaluate(self, solution: Solution, strict: bool = False) -> Evaluation:
        self.evaluations += 1
        graph = self.builder.build(solution)
        try:
            makespan = graph.makespan_ms()
            feasible = True
        except CycleError:
            if strict:
                raise
            makespan = INFEASIBLE_MS
            feasible = False

        initial = 0.0
        dynamic = 0.0
        clbs = 0
        num_contexts = 0
        for rc in solution.architecture.reconfigurable_circuits():
            initial += rc.initial_reconfiguration_ms(solution)
            dynamic += rc.dynamic_reconfiguration_ms(solution)
            contexts = solution.contexts(rc.name)
            num_contexts += len(contexts)
            clbs += sum(
                solution.context_clbs(rc.name, k) for k in range(len(contexts))
            )
        hw = len(solution.hardware_tasks())
        return Evaluation(
            makespan_ms=makespan,
            feasible=feasible,
            num_contexts=num_contexts,
            hw_tasks=hw,
            sw_tasks=len(self.application.task_indices()) - hw,
            initial_reconfig_ms=initial,
            dynamic_reconfig_ms=dynamic,
            comm_ms=graph.total_comm_ms(),
            clbs_used=clbs,
        )


class IncrementalEngine(EvaluationEngine):
    """Stateful engine: delta-patched mirror, persistent order and DP.

    The engine mirrors the last-seen solution state (per-task assignment
    and implementation choice, per-resource orders) and on each call
    diffs the incoming solution against that mirror — O(N) C-speed list
    comparisons — to patch only what a move actually changed.  Rejected
    moves need no special rollback support: after ``undo`` the next diff
    simply patches the state back.

    The search graph is kept in two edge layers:

    * a **static dependency layer**, built once: every application
      dependency is permanently wired ``src -> comm -> dst`` through its
      interned communication node.  When the transfer is active (edge
      crosses resources under the ``"ordered"`` policy), the transfer
      time is the comm node's duration; when inactive, it is the weight
      of the ``src -> comm`` edge (``0`` for same-resource edges) and
      the comm node's duration is zero.  Both routings produce the same
      float candidates as the reference graph's direct edge, so a move
      that flips an edge's crossing state is a pure O(1) weight patch —
      the layer's structure, indegrees and reachability never change;
    * a **sequentialization layer** holding per-resource ``Esw``/``Ehw``
      edges, recomputed only for resources whose order actually changed
      (a move touches at most two) and rebuilt into reused buffers only
      when some resource's edge *pairs* changed — weight-only changes
      (e.g. an implementation swap retuning reconfiguration delays) are
      written in place.

    On top of the two layers sit the persistent evaluation structures:

    * **Persistent topological order.**  A reorder move essentially
      always contradicts a cached order, and re-running Kahn's sort for
      it would be the single largest cost on 120+-task instances.  The
      engine instead *repairs* the one persistent order in place
      (Pearce/Kelly-style region reordering per contradicting edge)
      and only falls back to Kahn when a repair detects a potential
      cycle or too many edges contradict at once.  The order honours
      the bus chain as well as the base layers: base edges are
      repaired first, ignoring the chain (so base cycle verdicts stay
      exact), then chain links the relink or the base repair left
      contradicted; a failed chain repair sorts the chained graph with
      Kahn and adopts that order.  Every order the engine ever
      evaluates with is a topological order of what it evaluates, so
      cyclic realizations are detected exactly like the reference
      engine — no fixpoint iteration anywhere.  A cycle witness (one
      concrete cycle of the last failed sort) answers churny walks
      through infeasible regions without a re-sort.
    * **Persistent DPs with suffix recomputation.**  The unserialized
      ASAP start/finish values survive across evaluations; the sync's
      exact structural deltas plus a shadow diff of the
      duration/weight lists locate the earliest order position a move
      could have affected, and the plain DP loop re-runs only from
      there.  Values before that position are provably unchanged, and
      recomputed nodes take the max over the identical candidate set
      the full DP would — so makespans stay bit-identical.  The
      serialized (bus-chained) values are kept the same way in their
      own buffers: the chain is relinked only when the bus order
      changes, and the serialized DP re-runs from the earliest base
      seed or comm node whose chain predecessor changed.

    Per-RC reconfiguration statistics for the Fig. 3 decomposition are
    cached alongside.

    ``Processor``/``ReconfigurableCircuit``/``Asic`` contributions are
    generated natively over the interned arrays; unknown
    :class:`Resource` subclasses fall back to calling the resource's own
    ``sequentialization_edges``/``virtual_nodes`` on every evaluation
    (conservative but correct).
    """

    name = "incremental"

    #: Contradicting-edge count above which repairing the order is
    #: assumed costlier than one Kahn rebuild.
    MAX_REPAIR_EDGES = 24

    def __init__(
        self,
        application: Application,
        architecture: Architecture,
        bus_policy: str = "ordered",
        compiled=None,
    ) -> None:
        if compiled is not None and (
            compiled.application is not application
            or compiled.bus is not architecture.bus
        ):
            raise ConfigurationError(
                "provided CompiledInstance was compiled for a different "
                "application/bus than this engine's"
            )
        self._compiled_seed = compiled
        super().__init__(application, architecture, bus_policy)
        self._build_skeleton(architecture.bus)

    # ------------------------------------------------------------------
    # one-time skeleton (solution-independent)
    # ------------------------------------------------------------------
    def _build_skeleton(self, bus) -> None:
        self._bus = bus
        self._ordered = self.bus_policy == "ordered"
        # The one compile pass (repro.mapping.compiled) flattens the
        # application + bus into the dense solution-independent tables;
        # the engine aliases them (and extends the per-node arrays in
        # place when virtual nodes are interned later).  A caller may
        # hand the constructor a pre-built ``CompiledInstance.fork()``
        # instead — that's how K cross-chain engines share one compile
        # pass.  The seed is one-shot: a bus swap recompiles.
        compiled = self._compiled_seed
        self._compiled_seed = None
        if compiled is None or compiled.bus is not bus:
            compiled = compile_instance(self.application, bus)
        self.compiled = compiled
        self._tasks = compiled.tasks
        self._ntasks = compiled.ntasks
        self._interner = compiled.interner
        self._tid = compiled.tid
        self._sw_ms = compiled.sw_ms
        self._impl_clbs = compiled.impl_clbs
        self._impl_ms = compiled.impl_ms
        self._pred_ids = compiled.pred_ids
        self._succ_ids = compiled.succ_ids
        self._dep_srct = compiled.dep_srct
        self._dep_dstt = compiled.dep_dstt
        self._dep_src = compiled.dep_src
        self._dep_dst = compiled.dep_dst
        self._dep_transfer = compiled.dep_transfer
        self._dep_comm = compiled.dep_comm
        self._deps_of_task = compiled.deps_of_task
        ndeps = compiled.ndeps
        self._ndeps = ndeps
        # Comm ids ranked by the bus tie-break ``(source task, destination
        # task, dep)``: a stable sort of an active subset on the base
        # start alone then yields the reference ``(start, src, dst)`` order.
        srct, dstt = compiled.dep_srct, compiled.dep_dstt
        self._comm_tie_rank = [
            self._dep_comm[j]
            for j in sorted(range(ndeps), key=lambda j: (srct[j], dstt[j], j))
        ]

        # Static dependency layer: dep j is permanently wired
        # ``src -> comm -> dst`` where comm is the dense id ``ntasks +
        # j`` (interning order guarantees contiguity).  The ``src ->
        # comm`` weight is the only mutable part; the ``comm -> dst``
        # edge is always 0, so task-side predecessors reduce to a plain
        # list of comm ids whose *finish* times are the candidates.
        # This structure — and therefore its indegrees and reachability
        # — never changes after construction.
        n = len(self._interner)
        self._comm_w: List[float] = [0.0] * ndeps
        self._pred_comms = compiled.pred_comms
        self._succ_static = compiled.succ_static
        self._indeg_static = compiled.indeg_static
        # Processor total orders as prev/next pointer arrays: a task sits
        # on at most one processor, so one array pair covers them all and
        # replacing a processor's chain is plain integer stores.
        self._proc_prev: List[int] = [-1] * n
        self._proc_next: List[int] = [-1] * n

        # Memos that survive mirror resets: context boundaries depend
        # only on the static precedence graph, and layout/order memos
        # are keyed by globally-unique revision stamps.  The content
        # memo backs the stamp memo: every *applied* move hands out a
        # fresh stamp, but annealing walks revisit the same layout
        # content constantly (apply/undo cycles, re-proposed moves), so
        # a stamp miss usually resolves to a content hit instead of
        # re-materializing the layout context by context — the
        # constant-factor overhead PR 1 left on the table.
        self._ctx_memo: Dict[Tuple, Tuple[int, List[int], List[int]]] = {}
        self._rc_memo: Dict[int, Tuple] = {}
        self._rc_content_memo: Dict[Tuple, Tuple] = {}
        self._proc_memo: Dict[int, List[int]] = {}
        self._config_ids: Dict[str, int] = {}

        # Internal counters sampled by the telemetry layer (plain ints,
        # incremented unconditionally: cheaper than any enabled-check
        # and deterministic for fixed seeds).  Reset with the memos they
        # describe.
        self.stat_sync_calls = 0
        self.stat_sync_tasks = 0
        self.stat_sync_resources = 0
        self.stat_proc_memo_hits = 0
        self.stat_proc_memo_misses = 0
        self.stat_rc_stamp_hits = 0
        self.stat_rc_content_hits = 0
        self.stat_rc_rebuilds = 0
        self.stat_ctx_hits = 0
        self.stat_ctx_misses = 0

        # Dynamic (solution-dependent) state, reset to "never seen".
        self._dur: List[float] = [0.0] * n
        self._res_kind: Dict[str, Tuple] = {}
        self._invalidate()

    def _invalidate(self) -> None:
        """Forget all mirrored solution state (forces a full re-sync)."""
        n = len(self._interner)
        # Durations mirror solution state too: the re-sync recomputes
        # task and comm durations (every task diffs) and re-stamps
        # active config nodes, but a config node whose RC ends up empty
        # is only zeroed via _virtual_ids — which is being reset here —
        # so clear the whole array rather than leak a stale duration.
        for node_id in range(len(self._dur)):
            self._dur[node_id] = 0.0
        self._m_resource: List[Optional[str]] = [None] * self._ntasks
        self._m_impl: List[int] = [-1] * self._ntasks
        # After a reset the arrays mirror the empty assignment, so empty
        # dicts are the matching wholesale-comparison baseline.
        self._m_res_dict: Dict[int, str] = {}
        self._m_impl_dict: Dict[int, int] = {}
        self._m_res_names: List[str] = []
        self._m_rev: Dict[str, int] = {}
        self._rc_list: List[Tuple[str, ReconfigurableCircuit]] = []
        self._res_edges: Dict[str, List[Tuple[int, int, float]]] = {}
        self._virtual_ids: Dict[str, List[int]] = {}
        self._rc_stats: Dict[str, Tuple[int, float, float, int]] = {}
        self._hw_count = 0
        self._dep_mode: List[int] = [-1] * self._ndeps
        #: Active transfers as comm ids in tie-break rank order.
        self._active_ranked: List[int] = []
        self._active_stale = True
        # Sequentialization layer: maintained edge by edge as resources
        # change.  ``pred_seq[v]`` holds ``(src, weight)`` pairs; the
        # combined indegrees are kept in step so Kahn never needs a
        # recount pass.
        self._pred_seq: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        self._succ_seq: List[List[int]] = [[] for _ in range(n)]
        self._indeg_total: List[int] = list(self._indeg_static)
        for v in range(n):
            self._proc_prev[v] = -1
            self._proc_next[v] = -1
        self._proc_members: Dict[str, List[int]] = {}
        #: The persistent topological order as an ``[order, position,
        #: valid]`` entry.  It orders the base layers *and* the live bus
        #: chain, so one order serves both DPs.  It stays valid until an
        #: *added* base edge contradicts its positions (checked in O(1)
        #: per added edge); removals never invalidate.  Chain links are
        #: checked after each relink.
        self._order0: Optional[List] = None
        #: Added edges that contradict the persistent order (repaired
        #: or folded into the next rebuild).
        self._pending_edges: List[Tuple[int, int]] = []
        self._cycle0: Optional[CycleError] = None
        #: One concrete cycle (edge list) from the last Kahn failure;
        #: while all its edges stay live the graph is provably still
        #: cyclic and no re-sort is needed.
        self._cycle_witness: Optional[List[Tuple[int, int]]] = None
        #: Base (unserialized) DP values, persistent across evaluations.
        self._starts0: List[float] = [0.0] * n
        self._finish0: List[float] = [0.0] * n
        #: Serialized DP values (base layers + bus chain), persistent too.
        self._starts1: List[float] = [0.0] * n
        self._finish1: List[float] = [0.0] * n
        #: Whether the persistent base DP values are trustworthy.
        self._values_valid = False
        #: Whether the serialized values belong to the realization the
        #: base values were last computed for.
        self._serial_valid = False
        #: Node ids whose inputs changed since the last evaluation
        #: (structural deltas here, duration/weight changes by shadow
        #: diff).
        self._dirty_seeds: set = set()
        self._dur_shadow: List[float] = [0.0] * n
        self._cw_shadow: List[float] = [0.0] * self._ndeps
        #: The bus chain: active comm ids in bus order, as links, and its
        #: summed transfer time.
        self._chain_perm: List[int] = []
        self._chain_pred: List[int] = [-1] * n
        self._chain_next: List[int] = [-1] * n
        self._chain_comm_ms = 0.0
        # Telemetry counters for the order machinery (plain ints, reset
        # together with the order state they describe).
        self.stat_cycle_witness_hits = 0
        self.stat_order_repairs = 0
        self.stat_order_rebuilds = 0
        self.stat_chain_repairs = 0
        self.stat_chain_rebuilds = 0

    def _classify_resources(self, arch: Architecture) -> None:
        """(Re)build the resource kind table.  Entries are kept for
        resources that left the architecture: a removed resource's name
        can still appear as a task's *previous* assignment in the very
        diff that rehomes the task (move m3).

        Exact types get the array fast paths; *subclasses* of the
        built-in resources (which may override timing or edge emission)
        fall back to the polymorphic ``"?"`` path, whose third field
        records whether the resource hosts hardware tasks (RC/ASIC
        lineage) for the hardware-task counter."""
        for res in arch.resources():
            name = res.name
            if name not in self._res_kind or self._res_kind[name][1] is not res:
                kind = type(res)
                if kind is Processor:
                    self._res_kind[name] = ("p", res, res.speed_factor)
                elif kind is ReconfigurableCircuit:
                    self._res_kind[name] = ("rc", res)
                elif kind is Asic:
                    self._res_kind[name] = ("asic", res)
                else:
                    is_hw = isinstance(res, (ReconfigurableCircuit, Asic))
                    self._res_kind[name] = ("?", res, is_hw)

    # ------------------------------------------------------------------
    def telemetry_counters(self) -> Dict[str, int]:
        out = super().telemetry_counters()
        out.update(
            sync_calls=self.stat_sync_calls,
            sync_tasks=self.stat_sync_tasks,
            sync_resources=self.stat_sync_resources,
            proc_memo_hits=self.stat_proc_memo_hits,
            proc_memo_misses=self.stat_proc_memo_misses,
            rc_stamp_hits=self.stat_rc_stamp_hits,
            rc_content_hits=self.stat_rc_content_hits,
            rc_rebuilds=self.stat_rc_rebuilds,
            ctx_hits=self.stat_ctx_hits,
            ctx_misses=self.stat_ctx_misses,
            cycle_witness_hits=self.stat_cycle_witness_hits,
            order_repairs=self.stat_order_repairs,
            order_rebuilds=self.stat_order_rebuilds,
            chain_repairs=self.stat_chain_repairs,
            chain_rebuilds=self.stat_chain_rebuilds,
        )
        return out

    # ------------------------------------------------------------------
    # delta synchronization
    # ------------------------------------------------------------------
    def _sync(self, solution: Solution) -> None:
        self.stat_sync_calls += 1
        arch = solution.architecture
        if arch.bus is not self._bus:
            # Transfer times were precomputed against another bus; this
            # never happens in the optimizers (snapshots share the bus
            # object) but stay correct if a caller swaps it.
            self._build_skeleton(arch.bus)

        names = arch.resource_names()
        if names != self._m_res_names:
            self._classify_resources(arch)
            for name in set(self._m_res_names) - set(names):
                if name in self._proc_members:
                    self._set_proc_chain(name, [])
                    self._proc_members.pop(name, None)
                else:
                    self._set_res_edges(name, [])
                self._m_rev.pop(name, None)
                self._res_edges.pop(name, None)
                self._rc_stats.pop(name, None)
                for node_id in self._virtual_ids.pop(name, ()):
                    self._dur[node_id] = 0.0
            self._m_res_names = list(names)
            self._rc_list = [
                (r.name, r)
                for r in arch.resources()
                if isinstance(r, ReconfigurableCircuit)
            ]

        # Per-task assignment / implementation diff -> durations, deps
        # and the hardware-task count.  The wholesale dict comparisons
        # skip the scan entirely for order-only moves (m1 reorders).
        res_of = solution._resource_of
        impl_of = solution._impl_choice
        res_kind = self._res_kind
        if len(res_of) != self._ntasks:
            # Match the reference engine, which trips over the missing
            # assignment while realizing the graph; without this guard a
            # partially assigned solution would silently score with
            # zero durations for the unassigned tasks.
            for t in self._tasks:
                if t not in res_of:
                    raise MappingError(f"task {t} is not assigned")
        if res_of != self._m_res_dict or impl_of != self._m_impl_dict:
            # The symmetric item differences pick out exactly the tasks
            # a move touched, at C speed; the mirror dicts are patched
            # key by key instead of recopied.
            m_res_dict = self._m_res_dict
            m_impl_dict = self._m_impl_dict
            diff = {t for t, _ in res_of.items() ^ m_res_dict.items()}
            diff.update(t for t, _ in impl_of.items() ^ m_impl_dict.items())
            tid = self._tid
            m_res = self._m_resource
            m_impl = self._m_impl
            changed: List[int] = []
            for t in diff:
                r = res_of.get(t)
                if r is None:
                    m_res_dict.pop(t, None)
                else:
                    m_res_dict[t] = r
                raw = impl_of.get(t)
                if raw is None:
                    m_impl_dict.pop(t, None)
                    c = 0
                else:
                    m_impl_dict[t] = raw
                    c = raw
                i = tid[t]
                old_r = m_res[i]
                if r == old_r and c == m_impl[i]:
                    continue
                if r != old_r:
                    if old_r is not None and _kind_is_hw(res_kind[old_r]):
                        self._hw_count -= 1
                    if r is not None and _kind_is_hw(res_kind[r]):
                        self._hw_count += 1
                m_res[i] = r
                m_impl[i] = c
                changed.append(i)
            self.stat_sync_tasks += len(changed)
            if changed:
                dur = self._dur
                impl_ms = self._impl_ms
                sw_ms = self._sw_ms
                for i in changed:
                    kind = res_kind[m_res[i]]
                    if kind[0] == "p":
                        dur[i] = sw_ms[i] / kind[2]
                    elif kind[0] == "?" or impl_ms[i] is None:
                        dur[i] = kind[1].execution_time_ms(solution, self._tasks[i])
                    else:
                        dur[i] = impl_ms[i][m_impl[i]]
                for i in changed:
                    for j in self._deps_of_task[i]:
                        self._refresh_dep(j)

        # Per-resource sequentialization edges, gated by the solution's
        # revision stamps: an untouched resource is skipped outright, and
        # a restored stamp (move undo) guarantees restored content.
        rev_of = solution._res_rev
        m_rev = self._m_rev
        pending: List[Tuple[str, str, object]] = []
        for name in names:
            rev = rev_of.get(name, 0)
            if m_rev.get(name) == rev:
                continue
            kind = res_kind[name]
            tag = kind[0]
            if tag == "p":
                memo = self._proc_memo
                members = memo.get(rev)
                if members is None:
                    self.stat_proc_memo_misses += 1
                    tid = self._tid
                    members = [tid[t] for t in solution._sw_orders[name]]
                    if len(memo) > 16384:
                        memo.clear()
                    memo[rev] = members
                else:
                    self.stat_proc_memo_hits += 1
                pending.append(("p", name, members))
            elif tag == "rc":
                triples = self._refresh_rc(
                    name, kind[1], solution._contexts[name], rev, impl_of
                )
                pending.append(("e", name, triples))
            elif tag != "asic":
                # Unknown resource type: conservatively refresh on every
                # call through the resource's own polymorphic methods
                # (no revision skip — overridden methods may depend on
                # state the stamps do not cover).
                triples = self._refresh_generic(name, kind[1], solution)
                pending.append(("e", name, triples))
                continue
            m_rev[name] = rev
        self.stat_sync_resources += len(pending)
        if len(pending) == 1:
            # Common case (one or two moves touching one resource's
            # order): apply in place with the delta fast paths.
            tag, name, payload = pending[0]
            if tag == "p":
                self._set_proc_chain(name, payload)
            else:
                self._set_res_edges(name, payload)
        elif pending:
            # An edge pair can migrate between two resources refreshed
            # in the same diff; unlink every stale chain/edge list first
            # so no link is clobbered by a later unlink.
            for tag, name, _payload in pending:
                if tag == "p":
                    self._unlink_proc_chain(name)
                else:
                    self._unlink_res_edges(name)
            for tag, name, payload in pending:
                if tag == "p":
                    self._link_proc_chain(name, payload)
                else:
                    self._link_res_edges(name, payload)

    def _refresh_dep(self, j: int) -> None:
        """Re-derive a dependency's realization from the mirrored
        assignment.  Purely a weight/duration patch: the dependency is
        permanently wired through its comm node, so flipping between
        active transfer (duration on the comm node) and pass-through
        (weight on the ``src -> comm`` edge) never changes structure."""
        crossing = self._m_resource[self._dep_src[j]] != self._m_resource[self._dep_dst[j]]
        transfer = self._dep_transfer[j]
        comm_id = self._dep_comm[j]
        if crossing and transfer > 0.0 and self._ordered:
            mode = 1
            self._comm_w[j] = 0.0
            self._dur[comm_id] = transfer
        else:
            mode = 0
            self._comm_w[j] = transfer if crossing else 0.0
            self._dur[comm_id] = 0.0
        if mode != self._dep_mode[j]:
            self._dep_mode[j] = mode
            self._active_stale = True

    def _refresh_rc(
        self,
        name: str,
        rc: ReconfigurableCircuit,
        contexts: List[List[int]],
        rev: int,
        impl_of: Dict[int, int],
    ) -> List[Tuple[int, int, float]]:
        """Native regeneration of a DRLC's search-graph contribution:
        context sequentialization edges ``Ehw``, the virtual
        configuration node, and the cached reconfiguration statistics.
        Mirrors ``ReconfigurableCircuit.sequentialization_edges`` /
        ``virtual_nodes`` exactly, over interned arrays.  Realized
        layouts are memoized twice: by the resource's revision stamp —
        a stamp is handed out once and restored only together with its
        content, so it keys the layout exactly (and annealing, which
        undoes every rejected move, revisits stamps constantly) — and
        by the layout *content*, so a fresh stamp over recurring
        content resolves without re-materializing anything."""
        if not contexts:
            for node_id in self._virtual_ids.pop(name, ()):
                self._dur[node_id] = 0.0
            self._rc_stats[name] = (0, 0.0, 0.0, 0)
            return []
        tid = self._tid
        m_impl = self._m_impl
        layouts = self._rc_memo
        entry = layouts.get(rev)
        if entry is not None:
            self.stat_rc_stamp_hits += 1
        config_id = self._config_ids.get(name)
        if config_id is None:
            config_id = self._interner.intern((CONFIG_NODE, name))
            self._config_ids[name] = config_id
            self._grow_nodes()
        if entry is None:
            shape = tuple(tuple(ctx) for ctx in contexts)
            content_key = (
                name,
                shape,
                tuple(impl_of.get(t, 0) for ctx in shape for t in ctx),
            )
            content_memo = self._rc_content_memo
            entry = content_memo.get(content_key)
            if entry is not None:
                self.stat_rc_content_hits += 1
                if len(layouts) > 16384:
                    layouts.clear()
                layouts[rev] = entry
        if entry is None:
            self.stat_rc_rebuilds += 1
            impl_clbs = self._impl_clbs
            ctx_clbs: List[int] = []
            initials: List[List[int]] = []
            terminals: List[List[int]] = []
            memo = self._ctx_memo
            if len(memo) > 16384:
                memo.clear()
            for ctx in contexts:
                # One context realizes identically whenever its member
                # tasks and their implementation choices recur — and
                # individual contexts recur far more often than whole
                # layouts, so this memo hits even though the annealing
                # walk rarely revisits a complete layout.
                key = (tuple(ctx), tuple(impl_of.get(t, 0) for t in ctx))
                cached = memo.get(key)
                if cached is None:
                    self.stat_ctx_misses += 1
                    members = [tid[t] for t in ctx]
                    inside = set(members)
                    pred_ids = self._pred_ids
                    succ_ids = self._succ_ids
                    cached = (
                        sum(impl_clbs[i][m_impl[i]] for i in members),
                        [i for i in members
                         if not any(p in inside for p in pred_ids[i])],
                        [i for i in members
                         if not any(s in inside for s in succ_ids[i])],
                    )
                    memo[key] = cached
                else:
                    self.stat_ctx_hits += 1
                ctx_clbs.append(cached[0])
                initials.append(cached[1])
                terminals.append(cached[2])
            triples: List[Tuple[int, int, float]] = [
                (config_id, i, 0.0) for i in initials[0]
            ]
            reconfig = rc.reconfiguration_time_ms
            for k in range(len(contexts) - 1):
                weight = reconfig(ctx_clbs[k + 1])
                for t in terminals[k]:
                    for i in initials[k + 1]:
                        triples.append((t, i, weight))
            initial_ms = reconfig(ctx_clbs[0])
            stats = (
                len(contexts),
                initial_ms,
                sum(reconfig(c) for c in ctx_clbs[1:]),
                sum(ctx_clbs),
            )
            if len(layouts) > 16384:
                layouts.clear()
            entry = (triples, initial_ms, stats)
            layouts[rev] = entry
            if len(content_memo) > 16384:
                content_memo.clear()
            content_memo[content_key] = entry
        triples, initial_ms, stats = entry
        self._dur[config_id] = initial_ms
        self._virtual_ids[name] = [config_id]
        self._rc_stats[name] = stats
        return triples

    def _refresh_generic(
        self, name: str, res: Resource, solution: Solution
    ) -> List[Tuple[int, int, float]]:
        """Fallback for unknown resource types: delegate to the
        resource's polymorphic search-graph contribution."""
        intern = self._interner.intern
        triples = [
            (intern(a), intern(b), w)
            for a, b, w in res.sequentialization_edges(solution)
        ]
        virtual = getattr(res, "virtual_nodes", None)
        entries = virtual(solution) if virtual is not None else []
        new_ids = [intern(key) for key, _duration in entries]
        self._grow_nodes()
        for node_id in self._virtual_ids.get(name, ()):
            self._dur[node_id] = 0.0
        for (_key, duration), node_id in zip(entries, new_ids):
            self._dur[node_id] = duration
        self._virtual_ids[name] = new_ids
        return triples

    def _set_proc_chain(self, name: str, members: List[int]) -> None:
        """Replace a processor's total-order chain (``Esw``) in place —
        safe when this is the only resource refreshed in the sync.

        The replacement is pair-trimmed: a reorder perturbs a contiguous
        region of the chain, so the common prefix and suffix of the
        ``(prev, next)`` pair lists stay linked untouched, and only the
        truly removed/added pairs reach :meth:`_note_structural`."""
        old = self._proc_members.get(name) or []
        if old == members:
            self._proc_members[name] = members
            return
        pairs_old = list(zip(old, old[1:]))
        pairs_new = list(zip(members, members[1:]))
        n_old, n_new = len(pairs_old), len(pairs_new)
        lo = 0
        hi = min(n_old, n_new)
        while lo < hi and pairs_old[lo] == pairs_new[lo]:
            lo += 1
        tail = 0
        while (
            tail < hi - lo
            and pairs_old[n_old - 1 - tail] == pairs_new[n_new - 1 - tail]
        ):
            tail += 1
        removed = pairs_old[lo:n_old - tail]
        added = pairs_new[lo:n_new - tail]
        proc_prev = self._proc_prev
        proc_next = self._proc_next
        indeg = self._indeg_total
        if removed:
            for a, b in removed:
                proc_next[a] = -1
                proc_prev[b] = -1
                indeg[b] -= 1
            # A removal may have broken the cycle behind a cached
            # verdict; retry on the next evaluation.
            self._cycle0 = None
        for a, b in added:
            proc_next[a] = b
            proc_prev[b] = a
            indeg[b] += 1
        self._proc_members[name] = members
        if removed or added:
            self._note_structural(removed, added)

    def _unlink_proc_chain(self, name: str) -> None:
        """Remove a processor's chain from the live layer (phase 1 of a
        multi-resource refresh)."""
        old = self._proc_members.get(name)
        if not old:
            self._proc_members[name] = []
            return
        proc_prev = self._proc_prev
        proc_next = self._proc_next
        indeg = self._indeg_total
        prev = old[0]
        for v in old[1:]:
            indeg[v] -= 1
            proc_prev[v] = -1
            proc_next[prev] = -1
            prev = v
        self._cycle0 = None
        self._proc_members[name] = []
        self._note_structural(list(zip(old, old[1:])), ())

    def _link_proc_chain(self, name: str, members: List[int]) -> None:
        """Store a processor chain's prev/next pointers and keep
        indegrees in step (phase 2 of a multi-resource refresh).  Pure
        integer stores — no list surgery."""
        if members:
            proc_prev = self._proc_prev
            proc_next = self._proc_next
            indeg = self._indeg_total
            prev = members[0]
            for v in members[1:]:
                proc_next[prev] = v
                proc_prev[v] = prev
                indeg[v] += 1
                prev = v
            self._note_structural((), list(zip(members, members[1:])))
        self._proc_members[name] = members

    def _unlink_res_edges(self, name: str) -> None:
        """Remove a resource's sequentialization edges from the live seq
        layer (phase 1 of a multi-resource refresh)."""
        old = self._res_edges.get(name)
        if not old:
            self._res_edges[name] = []
            return
        pred_seq = self._pred_seq
        succ_seq = self._succ_seq
        indeg = self._indeg_total
        for a, b, _w in old:
            succ_seq[a].remove(b)
            plist = pred_seq[b]
            for idx in range(len(plist)):
                if plist[idx][0] == a:
                    del plist[idx]
                    break
            indeg[b] -= 1
        self._cycle0 = None
        self._res_edges[name] = []
        self._note_structural(old, ())

    def _link_res_edges(
        self, name: str, triples: List[Tuple[int, int, float]]
    ) -> None:
        """Insert a resource's sequentialization edges (phase 2 of a
        multi-resource refresh)."""
        if triples:
            pred_seq = self._pred_seq
            succ_seq = self._succ_seq
            indeg = self._indeg_total
            for a, b, w in triples:
                succ_seq[a].append(b)
                pred_seq[b].append((a, w))
                indeg[b] += 1
            self._note_structural((), triples)
        self._res_edges[name] = triples

    def _set_res_edges(
        self, name: str, triples: List[Tuple[int, int, float]]
    ) -> None:
        """Replace a resource's sequentialization edges in the live seq
        layer, in place — safe when this is the only resource refreshed
        in the sync.  Old edges are unlinked, new ones linked, indegrees
        kept in step.  Seq edge pairs are unique within one resource —
        it only ever chains its own tasks and its own config node — so
        unlinking by (src, dst) is unambiguous."""
        old = self._res_edges.get(name)
        if old == triples:
            return
        # Unlink/link only the differing middle: a reorder or reassign
        # perturbs a contiguous region of a resource's chain, so the
        # common prefix and suffix (compared as (src, dst, weight)
        # triples) can stay linked untouched.
        lo = 0
        if old:
            n_old, n_new = len(old), len(triples)
            hi = min(n_old, n_new)
            while lo < hi and old[lo] == triples[lo]:
                lo += 1
            tail = 0
            while (
                tail < hi - lo
                and old[n_old - 1 - tail] == triples[n_new - 1 - tail]
            ):
                tail += 1
            removals = old[lo:n_old - tail]
            additions = triples[lo:n_new - tail]
        else:
            removals = ()
            additions = triples
        pred_seq = self._pred_seq
        succ_seq = self._succ_seq
        indeg = self._indeg_total
        for a, b, _w in removals:
            succ_seq[a].remove(b)
            plist = pred_seq[b]
            for idx in range(len(plist)):
                if plist[idx][0] == a:
                    del plist[idx]
                    break
            indeg[b] -= 1
        if removals and (len(removals) != len(additions) or any(
            r[0] != a[0] or r[1] != a[1] for r, a in zip(removals, additions)
        )):
            # A structural removal may have broken the cycle behind a
            # cached verdict; a weight-only change (same pairs back with
            # new weights) cannot.
            self._cycle0 = None
        for a, b, w in additions:
            succ_seq[a].append(b)
            pred_seq[b].append((a, w))
            indeg[b] += 1
        self._res_edges[name] = triples
        if removals or additions:
            self._note_structural(removals, additions)

    def _note_structural(self, removed, added) -> None:
        """Fold an exact structural delta into the persistent state:
        the head of every removed or added edge seeds the suffix DP, and
        an added edge that contradicts the persistent order invalidates
        it and queues for repair."""
        seeds = self._dirty_seeds
        for pair in removed:
            seeds.add(pair[1])
        if not added:
            return
        entry = self._order0
        if entry is None:
            for pair in added:
                seeds.add(pair[1])
            return
        pos0 = entry[1]
        pending = self._pending_edges
        for pair in added:
            a, b = pair[0], pair[1]
            seeds.add(b)
            if pos0[a] >= pos0[b]:
                entry[2] = False
                pending.append((a, b))
        if len(pending) > self.MAX_REPAIR_EDGES:
            # Too many contradictions: the stored order is beyond
            # repair.  Drop it (a Kahn rebuild starts a fresh one) so
            # the pending list cannot balloon while the walk churns.
            self._order0 = None
            pending.clear()

    def _grow_nodes(self) -> None:
        n = len(self._interner)
        if len(self._dur) < n:
            while len(self._dur) < n:
                self._dur.append(0.0)
                self._pred_comms.append([])
                self._succ_static.append([])
                self._indeg_static.append(0)
                self._pred_seq.append([])
                self._succ_seq.append([])
                self._indeg_total.append(0)
                self._proc_prev.append(-1)
                self._proc_next.append(-1)
                self._chain_pred.append(-1)
                self._chain_next.append(-1)
                self._starts0.append(0.0)
                self._finish0.append(0.0)
                self._starts1.append(0.0)
                self._finish1.append(0.0)
            # The persistent order and values do not cover the new
            # nodes yet.
            self._order0 = None
            self._pending_edges.clear()
            self._values_valid = False

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _durations_stable(self, solution: Solution) -> bool:
        """Cheap pre-sync test (plain C dict comparisons) for whether
        the upcoming sync can change any node duration or pass-through
        weight.  Order-only moves (m1 reorders — the workhorse of the
        annealing walk) re-stamp a processor without touching a single
        duration, so the per-evaluation shadow diff can be skipped for
        them entirely."""
        if (
            solution._resource_of != self._m_res_dict
            or solution._impl_choice != self._m_impl_dict
        ):
            return False
        rev_of = solution._res_rev
        m_rev = self._m_rev
        if rev_of == m_rev:
            return True
        res_kind = self._res_kind
        for name, _rev in rev_of.items() ^ m_rev.items():
            kind = res_kind.get(name)
            if kind is None or kind[0] != "p":
                return False
        return True

    def _collect_seeds(self, stable: bool) -> set:
        """Fold the duration/weight shadow diffs into the structural
        seed set and refresh the shadows.  ``stable`` short-circuits the
        diff when the pre-sync check proved nothing can have changed."""
        seeds = self._dirty_seeds
        if stable and self._values_valid:
            return seeds
        dur = self._dur
        if self._values_valid and len(dur) == len(self._dur_shadow):
            seeds.update(compress(count(), map(ne, dur, self._dur_shadow)))
            if not self._ordered:
                # Pass-through weights are only ever non-zero under the
                # "edge" bus policy; the default "ordered" policy keeps
                # them at a constant 0.0.
                comm_w = self._comm_w
                ntasks = self._ntasks
                seeds.update(
                    ntasks + j
                    for j in compress(
                        count(), map(ne, comm_w, self._cw_shadow)
                    )
                )
                self._cw_shadow = comm_w[:]
        else:
            self._values_valid = False
            if not self._ordered:
                self._cw_shadow = self._comm_w[:]
        self._dur_shadow = dur[:]
        return seeds

    def _compute(
        self, solution: Solution
    ) -> Tuple[float, bool, float, Optional[CycleError]]:
        stable = self._durations_stable(solution)
        self._sync(solution)
        if self._active_stale:
            dep_mode = self._dep_mode
            lo = self._ntasks
            self._active_ranked = [
                c for c in self._comm_tie_rank if dep_mode[c - lo] == 1
            ]
            self._active_stale = False
        n = len(self._interner)
        seeds = self._collect_seeds(stable)

        # --- cached cycle verdict (no removals since it was reached) ---
        if self._cycle0 is not None:
            return INFEASIBLE_MS, False, self._active_comm_ms(), self._cycle0

        # --- persistent order: revalidate, repair, else rebuild --------
        entry = self._order0
        pending = self._pending_edges
        full_dp = not self._values_valid
        if entry is not None and not entry[2]:
            if pending:
                # Contradicting edges that were since removed (rejected
                # moves get undone) stop mattering; what remains is the
                # exact bridge between the stored order and the live
                # edge set.
                pending[:] = [e for e in pending if self._edge_live(e)]
            if not pending:
                # Every contradicting addition was undone: the stored
                # order is exactly valid again.
                entry[2] = True
            elif len(pending) <= self.MAX_REPAIR_EDGES:
                verdict = self._repair(entry, pending)
                if verdict is True:
                    self.stat_order_repairs += 1
                    entry[2] = True
                    pending.clear()
                elif verdict == "cycle":
                    # Exact detection (single contradicting edge, PK
                    # invariant intact): the realization is cyclic —
                    # no Kahn needed, and the next removal clears the
                    # verdict just like the reference engine's.
                    a, b = pending[0]
                    keys = self._interner.keys()
                    self._cycle0 = exc = CycleError(
                        "realization contains a cycle",
                        cycle=[keys[b], keys[a]],
                    )
                    return INFEASIBLE_MS, False, self._active_comm_ms(), exc
                else:
                    entry = None
            else:
                entry = None
        if entry is None or not entry[2]:
            # Before paying for a full Kahn, check whether the last
            # detected cycle is simply still there: every witness edge
            # being live proves cyclicity exactly (churny walks bounce
            # in and out of infeasible regions; removals elsewhere in
            # the graph clear ``_cycle0`` without breaking the cycle).
            witness = self._cycle_witness
            if witness is not None:
                if all(self._witness_edge_live(u, v) for u, v in witness):
                    self.stat_cycle_witness_hits += 1
                    keys = self._interner.keys()
                    self._cycle0 = exc = CycleError(
                        "realization contains a cycle",
                        cycle=[keys[u] for u, _v in witness],
                    )
                    return INFEASIBLE_MS, False, self._active_comm_ms(), exc
                self._cycle_witness = None
            self.stat_order_rebuilds += 1
            try:
                order = self._kahn_base(n)
            except CycleError as exc:
                self._cycle0 = exc
                self._cycle_witness = self._find_cycle()
                return INFEASIBLE_MS, False, self._active_comm_ms(), exc
            self._order0 = entry = self._order_entry(order)
            pending.clear()
            # Note: a rebuilt *order* does not invalidate the persistent
            # *values* — they depend on the graph, not on the order —
            # so the suffix DP below still applies.
        order0, pos0 = entry[0], entry[1]

        # --- persistent base DP: full or suffix ------------------------
        if full_dp:
            self._dp_range(order0, 0)
            self._values_valid = True
        elif seeds:
            self._dp_range(order0, min(pos0[v] for v in seeds))

        active = self._active_ranked
        if not active:
            seeds.clear()
            self._serial_valid = False
            return max(self._finish0), True, 0.0, None

        # Serialize bus transactions: ASAP order in the unserialized
        # graph, ties broken by (source task, destination task) — the
        # exact deterministic policy of SearchGraphBuilder._serialize_bus.
        # ``active`` is already in tie-break order, so a stable sort on
        # the base start alone yields exactly that order.
        perm = sorted(active, key=self._starts0.__getitem__)
        relinked = self._relink_chain(perm) if perm != self._chain_perm else ()
        comm_ms = self._chain_comm_ms
        # The persistent order must honour the chain links too: repair
        # the ones a relink or a base repair left contradicted, else
        # sort the chained graph from scratch and adopt that order.
        broken = [
            (a, b) for a, b in zip(perm, perm[1:]) if pos0[a] >= pos0[b]
        ]
        if broken:
            if (
                len(broken) <= self.MAX_REPAIR_EDGES
                and self._repair(entry, broken, chained=True) is True
            ):
                self.stat_chain_repairs += 1
            else:
                self.stat_chain_rebuilds += 1
                try:
                    order = self._kahn_chained(n, perm)
                except CycleError as exc:
                    seeds.clear()
                    self._serial_valid = False
                    return INFEASIBLE_MS, False, comm_ms, exc
                self._order0 = entry = self._order_entry(order)
                order0, pos0 = entry[0], entry[1]

        # --- persistent serialized DP: full or suffix ------------------
        if full_dp or not self._serial_valid:
            self._dp_serialized(order0, 0)
            self._serial_valid = True
        elif seeds or relinked:
            self._dp_serialized(
                order0, min(map(pos0.__getitem__, chain(seeds, relinked)))
            )
        seeds.clear()
        return max(self._finish1), True, comm_ms, None

    def _active_comm_ms(self) -> float:
        """Summed transfer time of the active dependencies, in dependency
        order (the infeasible evaluations' ``comm_ms``)."""
        dur = self._dur
        return sum(
            dur[c] for c, mode in zip(self._dep_comm, self._dep_mode)
            if mode == 1
        )

    @staticmethod
    def _order_entry(order: List[int]) -> List:
        pos = [0] * len(order)
        for idx, v in enumerate(order):
            pos[v] = idx
        return [order, pos, True]

    def _relink_chain(self, perm: List[int]) -> List[int]:
        """Replace the bus chain with ``perm`` (comm ids in bus order);
        returns the comm nodes whose chain predecessor changed, nodes
        that left the chain included — the serialized DP's chain
        seeds."""
        chain_pred = self._chain_pred
        chain_next = self._chain_next
        old = self._chain_perm
        for c in old:
            chain_next[c] = -1
        changed = []
        prev = -1
        for c in perm:
            if chain_pred[c] != prev:
                chain_pred[c] = prev
                changed.append(c)
            if prev >= 0:
                chain_next[prev] = c
            prev = c
        for c in old:
            u = chain_pred[c]
            if u >= 0 and chain_next[u] != c:
                chain_pred[c] = -1
                changed.append(c)
        self._chain_perm = perm
        self._chain_comm_ms = sum(map(self._dur.__getitem__, perm))
        return changed

    # ------------------------------------------------------------------
    # persistent order maintenance
    # ------------------------------------------------------------------
    def _edge_live(self, edge: Tuple[int, int]) -> bool:
        """Is the once-added edge still present in the live layers?"""
        a, b = edge
        if self._proc_next[a] == b:
            return True
        return b in self._succ_seq[a]

    def _witness_edge_live(self, u: int, v: int) -> bool:
        """Liveness of a witness-cycle edge (may be a static-layer edge,
        which never dies)."""
        lo = self._ntasks
        hi = lo + self._ndeps
        if lo <= v < hi and self._dep_src[v - lo] == u:
            return True
        if lo <= u < hi and self._dep_dst[u - lo] == v:
            return True
        return self._edge_live((u, v))

    def _find_cycle(self) -> Optional[List[Tuple[int, int]]]:
        """One concrete cycle of the live graph as an edge list (DFS
        back-edge extraction); None when the graph is acyclic.  Runs
        only on the Kahn-failure path."""
        n = len(self._interner)
        succ_static = self._succ_static
        succ_seq = self._succ_seq
        proc_next = self._proc_next
        color = [0] * n  # 0 = white, 1 = on stack, 2 = done

        def successors(x: int) -> List[int]:
            out = list(succ_static[x])
            out.extend(succ_seq[x])
            nxt = proc_next[x]
            if nxt >= 0:
                out.append(nxt)
            return out

        for root in range(n):
            if color[root]:
                continue
            path = [root]
            stack = [iter(successors(root))]
            color[root] = 1
            while stack:
                advanced = False
                for y in stack[-1]:
                    if color[y] == 0:
                        color[y] = 1
                        path.append(y)
                        stack.append(iter(successors(y)))
                        advanced = True
                        break
                    if color[y] == 1:
                        cycle = path[path.index(y):] + [y]
                        return list(zip(cycle, cycle[1:]))
                if not advanced:
                    color[path.pop()] = 2
                    stack.pop()
        return None

    def _repair(
        self, entry: List, pending: List[Tuple[int, int]], chained: bool = False
    ):
        """Repair the persistent order for the (live) contradicting
        edges — Pearce/Kelly region reordering, one edge at a time.

        No region reordering breaks a followed edge that was already
        consistent (see :meth:`_pk_insert`), so once every pending edge
        is in place the order is valid without a verification pass.
        Base repairs (``chained`` false) follow the
        base layers only, so a single-edge verdict stays an exact base
        cycle test; chain repairs also follow the bus chain.  Returns
        ``True`` on success, ``"cycle"`` when a single-edge repair proves
        the graph cyclic (exact under the invariant), or ``False`` when
        the caller should fall back to Kahn (possible cycle among
        several contradicting edges).
        """
        order, pos, _valid = entry
        repaired = 0
        for a, b in pending:
            if pos[a] < pos[b]:
                continue  # an earlier repair already satisfied it
            if not self._pk_insert(order, pos, a, b, chained):
                if repaired == 0 and len(pending) == 1:
                    return "cycle"
                return False
            repaired += 1
        return True

    def _pk_insert(
        self, order: List[int], pos: List[int], a: int, b: int,
        chained: bool = False,
    ) -> bool:
        """Reorder the affected region for one edge ``a -> b`` with
        ``pos[a] >= pos[b]``: nodes of the region ``[pos[b], pos[a]]``
        forward-reachable from ``b`` and backward-reachable to ``a``
        (both through the region) are remapped onto their own position
        pool, backward block first.  Returns False when the region
        search sees a cycle.

        Both searches stay inside the region, so the pool does too, and
        the forward block only moves later and the backward block only
        earlier: any followed edge that was consistent before stays
        consistent, whatever other edges still contradict the order.
        ``chained`` also follows the bus chain links."""
        lower = pos[b]
        upper = pos[a]
        succ_static = self._succ_static
        succ_seq = self._succ_seq
        proc_next = self._proc_next
        chain_next = self._chain_next
        forward = {b}
        stack = [b]
        while stack:
            x = stack.pop()
            nexts = succ_static[x] + succ_seq[x]
            y = proc_next[x]
            if y >= 0:
                nexts.append(y)
            if chained:
                y = chain_next[x]
                if y >= 0:
                    nexts.append(y)
            for y in nexts:
                if lower <= pos[y] <= upper and y not in forward:
                    if y == a:
                        return False
                    forward.add(y)
                    stack.append(y)
        lo = self._ntasks
        hi = lo + self._ndeps
        comm_src = self._dep_src
        pred_comms = self._pred_comms
        pred_seq = self._pred_seq
        proc_prev = self._proc_prev
        chain_pred = self._chain_pred
        backward = {a}
        stack = [a]
        while stack:
            x = stack.pop()
            if lo <= x < hi:
                preds = [comm_src[x - lo]]
                if chained:
                    y = chain_pred[x]
                    if y >= 0:
                        preds.append(y)
            else:
                preds = pred_comms[x] + [y for y, _w in pred_seq[x]]
                y = proc_prev[x]
                if y >= 0:
                    preds.append(y)
            for y in preds:
                if lower <= pos[y] <= upper and y not in backward:
                    if y == b:
                        return False
                    backward.add(y)
                    stack.append(y)
        # Merge: the affected nodes keep their position pool; the
        # backward block (everything that must precede ``a``, including
        # ``a``) goes first, the forward block second, each in its
        # existing relative order.
        affected = sorted(backward, key=pos.__getitem__)
        affected += sorted(forward, key=pos.__getitem__)
        pool = sorted(pos[v] for v in affected)
        for p, v in zip(pool, affected):
            pos[v] = p
            order[p] = v
        return True

    # ------------------------------------------------------------------
    # persistent base DP
    # ------------------------------------------------------------------
    def _dp_range(self, order: List[int], start: int) -> None:
        """The reference DP loop over ``order[start:]`` into the
        persistent base buffers.  Values before ``start`` are reused:
        a node's value only depends on its predecessors — all at
        earlier positions in a valid order — so recomputing from the
        earliest position whose node's inputs changed reproduces the
        full DP bit-for-bit."""
        lo = self._ntasks
        hi = lo + self._ndeps
        comm_src = self._dep_src
        comm_w = self._comm_w
        pred_comms = self._pred_comms
        pred_seq = self._pred_seq
        proc_prev = self._proc_prev
        dur = self._dur
        starts = self._starts0
        finish = self._finish0
        for v in order[start:]:
            if lo <= v < hi:
                j = v - lo
                best = finish[comm_src[j]] + comm_w[j]
                if best < 0.0:
                    best = 0.0  # mirror the reference DP's 0.0 floor
            else:
                best = 0.0
                for c in pred_comms[v]:
                    candidate = finish[c]
                    if candidate > best:
                        best = candidate
                u = proc_prev[v]
                if u >= 0:
                    candidate = finish[u]
                    if candidate > best:
                        best = candidate
                for u, w in pred_seq[v]:
                    candidate = finish[u] + w
                    if candidate > best:
                        best = candidate
            starts[v] = best
            finish[v] = best + dur[v]

    def _dp_serialized(self, order: List[int], start: int) -> None:
        """The serialized DP loop over ``order[start:]`` into the
        persistent serialized buffers: the base DP's candidates plus, for
        a comm node, its bus-chain predecessor's finish.  The persistent
        order honours the chain links, so the suffix argument of
        :meth:`_dp_range` carries over — ``start`` is the earliest
        position among the base seeds and the comm nodes whose chain
        predecessor changed."""
        lo = self._ntasks
        hi = lo + self._ndeps
        comm_src = self._dep_src
        comm_w = self._comm_w
        pred_comms = self._pred_comms
        pred_seq = self._pred_seq
        proc_prev = self._proc_prev
        chain_pred = self._chain_pred
        dur = self._dur
        starts = self._starts1
        finish = self._finish1
        for v in order[start:]:
            if lo <= v < hi:
                j = v - lo
                best = finish[comm_src[j]] + comm_w[j]
                if best < 0.0:
                    best = 0.0
                u = chain_pred[v]
                if u >= 0:
                    candidate = finish[u]
                    if candidate > best:
                        best = candidate
            else:
                best = 0.0
                for c in pred_comms[v]:
                    candidate = finish[c]
                    if candidate > best:
                        best = candidate
                u = proc_prev[v]
                if u >= 0:
                    candidate = finish[u]
                    if candidate > best:
                        best = candidate
                for u, w in pred_seq[v]:
                    candidate = finish[u] + w
                    if candidate > best:
                        best = candidate
            starts[v] = best
            finish[v] = best + dur[v]

    def _kahn_base(self, n: int) -> List[int]:
        """FIFO Kahn over the static layer, the seq layer and the
        processor chains; raises :class:`CycleError`."""
        return kahn_order_indices(
            n, self._indeg_total, self._succ_static,
            self._interner.keys(), self._succ_seq, self._proc_next,
        )

    def _kahn_chained(self, n: int, perm: List[int]) -> List[int]:
        """Kahn over all edge layers plus the bus chain ``perm``;
        raises :class:`CycleError`."""
        indeg = list(self._indeg_total)
        for c in perm[1:]:
            indeg[c] += 1
        order = [v for v in range(n) if indeg[v] == 0]
        succ_static = self._succ_static
        succ_seq = self._succ_seq
        proc_next = self._proc_next
        chain_next = self._chain_next
        head = 0
        while head < len(order):
            node = order[head]
            head += 1
            for nxt in succ_static[node]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    order.append(nxt)
            for nxt in succ_seq[node]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    order.append(nxt)
            nxt = proc_next[node]
            if nxt >= 0:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    order.append(nxt)
            nxt = chain_next[node]
            if nxt >= 0:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    order.append(nxt)
        if len(order) != n:
            keys = self._interner.keys()
            raise CycleError(
                "serialized realization contains a cycle",
                cycle=[keys[v] for v in range(n) if indeg[v] > 0],
            )
        return order

    def _guarded_compute(
        self, solution: Solution
    ) -> Tuple[float, bool, float, Optional[CycleError]]:
        try:
            return self._compute(solution)
        except CycleError:
            raise
        except Exception:
            # The mirror may be half-updated (e.g. an unassigned task
            # surfaced mid-diff); drop it so the next call re-syncs from
            # scratch instead of trusting stale state.
            self._invalidate()
            raise

    # ------------------------------------------------------------------
    def makespan_ms(self, solution: Solution) -> float:
        self.evaluations += 1
        makespan, _feasible, _comm, _exc = self._guarded_compute(solution)
        return makespan

    def evaluate(self, solution: Solution, strict: bool = False) -> Evaluation:
        self.evaluations += 1
        makespan, feasible, comm_ms, exc = self._guarded_compute(solution)
        if not feasible and strict and exc is not None:
            raise exc
        # Fig. 3 decomposition from the cached per-RC statistics (the
        # full engine recomputes these sums from the solution; the values
        # are identical, accumulated in the same resource order).  RC
        # subclasses on the generic path have no cached stats and are
        # recomputed the full engine's way.
        initial = 0.0
        dynamic = 0.0
        clbs = 0
        num_contexts = 0
        rc_stats = self._rc_stats
        for name, rc in self._rc_list:
            stats = rc_stats.get(name)
            if stats is not None:
                num_contexts += stats[0]
                initial += stats[1]
                dynamic += stats[2]
                clbs += stats[3]
            else:
                initial += rc.initial_reconfiguration_ms(solution)
                dynamic += rc.dynamic_reconfiguration_ms(solution)
                contexts = solution.contexts(name)
                num_contexts += len(contexts)
                clbs += sum(
                    solution.context_clbs(name, k)
                    for k in range(len(contexts))
                )
        hw = self._hw_count
        return Evaluation(
            makespan_ms=makespan,
            feasible=feasible,
            num_contexts=num_contexts,
            hw_tasks=hw,
            sw_tasks=self._ntasks - hw,
            initial_reconfig_ms=initial,
            dynamic_reconfig_ms=dynamic,
            comm_ms=comm_ms,
            clbs_used=clbs,
        )


# The ``"array"`` kind: accepted so stored specs, results and bench case
# names keep resolving; it is the incremental engine under its old name.
class ArrayEngine(IncrementalEngine):
    name = "array"


class CrossChainEvaluator:
    """K per-chain engines over one compile pass.

    The population annealer (:class:`repro.sa.population.PopulationAnnealer`)
    runs K independent chains, each with its own
    :class:`~repro.mapping.solution.Solution`.  Re-pointing one
    stateful engine across K solutions every round would defeat the
    incremental mirror (each sync would diff away the previous chain's
    whole assignment), so each chain gets a permanently-bound engine of
    its own and pays only its own chain's delta.  For the stateful
    engines the compile pass is shared: chain 0 compiles, chains 1..K-1
    receive :meth:`CompiledInstance.fork` views, so construction stays
    O(compile + K · mirror) instead of O(K · compile).

    ``propose_moves`` + ``resolve`` is the annealer hot path: each
    chain's permanently-bound stateful engine scores its proposed move
    through the persistent delta path (apply → delta-sync → read the
    makespan) and leaves it applied; the annealer's accept keeps the
    already-synced engine state (commit-on-accept — no undo, no
    re-apply, no second delta-diff), a reject undoes the move and lets
    the engine's next delta-sync absorb the O(delta) reverse patch.
    ``evaluate_moves`` is the pure (solutions-left-untouched)
    counterpart.
    """

    def __init__(
        self,
        application: Application,
        architecture: Architecture,
        chains: int,
        engine: str = "array",
        bus_policy: str = "ordered",
    ) -> None:
        if chains < 1:
            raise ConfigurationError(
                f"chains must be >= 1, got {chains!r}"
            )
        self.application = application
        self.architecture = architecture
        self.kind = engine["kind"] if isinstance(engine, dict) else engine
        self.bus_policy = bus_policy
        # Chain 0's make_engine call validates the engine spec; chains
        # 1..K-1 reuse its compile pass through CompiledInstance.fork.
        first = make_engine(engine, application, architecture, bus_policy)
        engines: List[EvaluationEngine] = [first]
        compiled = getattr(first, "compiled", None)
        for _ in range(1, chains):
            engines.append(
                make_engine(
                    self.kind,
                    application,
                    architecture,
                    bus_policy,
                    compiled=None if compiled is None else compiled.fork(),
                )
            )
        self.engines = engines

    # ------------------------------------------------------------------
    @property
    def chains(self) -> int:
        return len(self.engines)

    @property
    def evaluations(self) -> int:
        """Total candidate evaluations across all chains."""
        return sum(engine.evaluations for engine in self.engines)

    def telemetry_counters(self) -> Dict[str, int]:
        """Engine internals summed across all chains."""
        out: Dict[str, int] = {}
        for engine in self.engines:
            for name, value in engine.telemetry_counters().items():
                out[name] = out.get(name, 0) + value
        return out

    def evaluate(self, chain: int, solution: Solution) -> Evaluation:
        """Scalar evaluation of one chain's current state."""
        return self.engines[chain].evaluate(solution)

    def _check_arity(self, solutions: Sequence, moves: Sequence) -> None:
        if len(solutions) != len(self.engines) or len(moves) != len(
            self.engines
        ):
            raise ConfigurationError(
                f"expected {len(self.engines)} solutions and moves, got "
                f"{len(solutions)} and {len(moves)}"
            )

    # ------------------------------------------------------------------
    def propose_moves(
        self,
        solutions: Sequence[Solution],
        moves: Sequence,
        cost_function=None,
    ) -> List[Optional[Tuple[Evaluation, Optional[float]]]]:
        """Score chain k's proposed move against chain k's state, for
        all chains at once, as open transactions.

        Every scored move is left **applied** with its engine synced to
        the candidate; the caller must then call :meth:`resolve` for
        each non-``None`` outcome.  ``moves[k]`` may be ``None`` (no
        proposal this round); the k-th result is then ``None``, as it
        is when the move's application raises
        :class:`InfeasibleMoveError` — neither opens a transaction."""
        self._check_arity(solutions, moves)
        results: List[Optional[Tuple[Evaluation, Optional[float]]]] = []
        for engine, solution, move in zip(self.engines, solutions, moves):
            if move is None:
                results.append(None)
                continue
            results.append(engine.propose_move(solution, move, cost_function))
        return results

    def resolve(
        self, chain: int, solution: Solution, move, accept: bool
    ) -> None:
        """Finish one chain's transaction from the last
        :meth:`propose_moves` round: commit-on-accept keeps the applied
        move and the engine's already-synced state; reject undoes the
        move (the engine's next delta-sync absorbs the reverse patch)."""
        engine = self.engines[chain]
        if accept:
            engine.accept_move(solution, move)
        else:
            engine.reject_move(solution, move)

    # ------------------------------------------------------------------
    def evaluate_moves(
        self,
        solutions: Sequence[Solution],
        moves: Sequence,
        cost_function=None,
    ) -> List[Optional[Tuple[Evaluation, Optional[float]]]]:
        """Score chain k's proposed move against chain k's state, for
        all chains at once.  ``moves[k]`` may be ``None`` (no proposal
        this round); the k-th result is then ``None``, as it is when the
        move's application raises :class:`InfeasibleMoveError`.  Every
        solution is left exactly as it came in — accepted moves replay
        their cached decisions on re-apply."""
        self._check_arity(solutions, moves)
        results: List[Optional[Tuple[Evaluation, Optional[float]]]] = []
        for engine, solution, move in zip(self.engines, solutions, moves):
            if move is None:
                results.append(None)
                continue
            results.append(
                engine.evaluate_batch(solution, [move], cost_function)[0]
            )
        return results


def make_engine(
    name,
    application: Application,
    architecture: Architecture,
    bus_policy: str = "ordered",
    compiled=None,
) -> EvaluationEngine:
    """Instantiate an evaluation engine by name (``"full"``,
    ``"incremental"`` or ``"array"``); raises
    :class:`ConfigurationError` otherwise.  ``name`` may also be a
    mapping ``{"kind": <name>, **options}``; the options are checked
    like :class:`~repro.api.specs.EngineSpec` options (the retired
    array-engine tuning knobs are still accepted, and have no effect).
    ``compiled`` hands an existing :class:`CompiledInstance` (or fork)
    to the stateful engines so K engines can share one compile pass;
    the stateless reference engine ignores it."""
    if isinstance(name, dict):
        options = dict(name)
        name = options.pop("kind", None)
        if options:
            from repro.api.specs import EngineSpec

            EngineSpec(name, options).validate()
    if name == "full":
        return FullRebuildEngine(application, architecture, bus_policy)
    if name == "incremental":
        return IncrementalEngine(
            application, architecture, bus_policy, compiled=compiled
        )
    if name == "array":
        return ArrayEngine(
            application, architecture, bus_policy, compiled=compiled
        )
    raise ConfigurationError(
        f"engine must be one of {ENGINES}, got {name!r}"
    )
