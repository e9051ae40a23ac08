"""The paper's annealing moves (section 4.2) and their realization (4.3).

A move is selected by drawing a source index and a destination index in
``[0, N]``; 0 requests a resource creation/removal, anything else names
a task.  Four move types result:

* **m1** — source and destination on the same *processor*: modify the
  total software order (move the source right before the destination,
  clamped to the precedence-feasible window).
* **m2** — different resources (contexts of a DRLC count as resources):
  reassign the source task to the destination's resource; when the
  destination context cannot fit the task, a new context is spawned
  right after it.
* **m3** — source draw is 0: remove a resource hosting a single task,
  reassigning that task to the destination's resource.
* **m4** — destination draw is 0: create a new resource from the
  architecture catalog and move the source task onto it.

We add two moves beyond the paper's numbered four:

* **mImpl** — the paper's experimental section states the annealer
  "chooses for each node implemented in hardware one of its
  implementations", so this move re-draws the area/time variant of a
  hardware task.
* **mOffload** — moves a hardware-capable task onto a DRLC even when
  the device is *empty*.  This is strictly necessary for ergodicity
  with a fixed architecture: m2 can only target resources that already
  host a task, so once a random walk empties the FPGA the paper's move
  set (with the m4 creation move disabled, as in the paper's
  experiments) could never repopulate it.  The paper's general mode
  repairs this through m4; with the architecture pinned we keep a small
  probability of direct offloading instead.  See DESIGN.md.

Moves mutate the solution in place; every move snapshots the mapping
state before mutating and can restore it exactly (undo), so the
annealing loop never deep-copies solutions.

Feasibility: obviously precedence-violating realizations are rejected
*before* mutation using the application's static transitive closure
(O(1) per pair — the paper's closure-matrix test); cross-resource cycles
that survive the precheck are caught by the evaluator's topological sort
and reported as infeasible moves.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.arch.asic import Asic
from repro.arch.processor import Processor
from repro.arch.reconfigurable import ReconfigurableCircuit
from repro.arch.resource import Resource
from repro.errors import CapacityError, ConfigurationError, InfeasibleMoveError
from repro.mapping.solution import Solution
from repro.model.application import Application

Snapshot = Tuple[
    Dict[int, str],
    Dict[str, List[int]],
    Dict[str, List[List[int]]],
    Dict[str, List[int]],
    Dict[int, int],
    Dict[str, int],
]


def snapshot_solution(solution: Solution) -> Snapshot:
    return (
        dict(solution._resource_of),
        {k: list(v) for k, v in solution._sw_orders.items()},
        {k: [list(c) for c in v] for k, v in solution._contexts.items()},
        {k: list(v) for k, v in solution._asic_tasks.items()},
        dict(solution._impl_choice),
        dict(solution._res_rev),
    )


def restore_solution(solution: Solution, snapshot: Snapshot) -> None:
    resource_of, sw_orders, contexts, asic_tasks, impl_choice, res_rev = snapshot
    solution._resource_of = dict(resource_of)
    solution._sw_orders = {k: list(v) for k, v in sw_orders.items()}
    solution._contexts = {k: [list(c) for c in v] for k, v in contexts.items()}
    solution._asic_tasks = {k: list(v) for k, v in asic_tasks.items()}
    solution._impl_choice = dict(impl_choice)
    # Restoring the revision stamps with the content keeps the stamp ->
    # content correspondence exact, so the incremental evaluation engine
    # sees an undone move as "nothing changed" for untouched resources.
    solution._res_rev = dict(res_rev)


class Move(ABC):
    """A reversible in-place mutation of a solution."""

    name: str = "abstract"

    def __init__(self) -> None:
        self._snapshot: Optional[Snapshot] = None

    def apply(self, solution: Solution) -> None:
        """Perform the move; raises :class:`InfeasibleMoveError` (leaving
        the solution unchanged) when the realization is impossible."""
        self._snapshot = snapshot_solution(solution)
        try:
            self._realize(solution)
        except (InfeasibleMoveError, CapacityError):
            restore_solution(solution, self._snapshot)
            self._snapshot = None
            raise

    def undo(self, solution: Solution) -> None:
        if self._snapshot is None:
            raise InfeasibleMoveError("nothing to undo: move was not applied")
        restore_solution(solution, self._snapshot)
        self._snapshot = None

    @abstractmethod
    def _realize(self, solution: Solution) -> None:
        ...


# ----------------------------------------------------------------------
# shared realization helpers
# ----------------------------------------------------------------------
def _feasible_insert_position(
    application: Application,
    order: Sequence[int],
    task: int,
    target: int,
) -> int:
    """Clamp ``target`` into the precedence-feasible insertion window.

    ``order`` must not contain ``task``.  Position ``p`` is feasible when
    every predecessor of ``task`` sits before ``p`` and every successor
    at or after ``p``.
    """
    lo, hi = 0, len(order)
    for pos, other in enumerate(order):
        if application.precedes(other, task):
            lo = max(lo, pos + 1)
        elif application.precedes(task, other):
            hi = min(hi, pos)
    if lo > hi:
        raise InfeasibleMoveError(
            f"task {task} has no feasible position in the software order"
        )
    return min(max(target, lo), hi)


def _context_precedence_ok(
    solution: Solution, rc_name: str, context_index: int, task: int
) -> bool:
    """True when placing ``task`` into context ``context_index`` keeps the
    DRLC's context order consistent with the precedence graph.

    Uses the static closure: contexts before the target must hold no
    descendant of the task, contexts after it no ancestor (section 3.3:
    every node of a context precedes every node of the following ones).
    """
    app = solution.application
    contexts = solution.contexts(rc_name)
    for j, members in enumerate(contexts):
        if j < context_index:
            if any(app.precedes(task, m) for m in members):
                return False
        elif j > context_index:
            if any(app.precedes(m, task) for m in members):
                return False
    return True


def _place_on_destination(
    solution: Solution, task: int, dest_task: int, rng: random.Random
) -> str:
    """Reassign ``task`` to the resource currently hosting ``dest_task``.

    Shared by m2 and m3.  The task is detached first so all indices are
    computed on the post-removal layout.  Returns a short realization
    tag for statistics.
    """
    app = solution.application
    dest_resource_name = solution.resource_name_of(dest_task)
    dest_resource = solution.architecture.resource(dest_resource_name)

    if isinstance(dest_resource, Processor):
        solution.unassign(task)
        order = solution.software_order(dest_resource_name)
        target = order.index(dest_task)
        position = _feasible_insert_position(app, order, task, target)
        solution.assign_to_processor(task, dest_resource_name, position)
        return "to_sw"

    if isinstance(dest_resource, ReconfigurableCircuit):
        if not app.task(task).hardware_capable:
            raise InfeasibleMoveError(
                f"task {task} has no hardware implementation"
            )
        solution.unassign(task)
        where = solution.context_of(dest_task)
        assert where is not None, "destination task must sit in a context"
        _, k = where
        clbs = solution.task_clbs(task)
        used = solution.context_clbs(dest_resource_name, k)
        if dest_resource.fits(used, clbs):
            if not _context_precedence_ok(solution, dest_resource_name, k, task):
                raise InfeasibleMoveError(
                    f"task {task} cannot join context {k}: order violation"
                )
            solution.assign_to_context(task, dest_resource_name, k)
            return "to_ctx"
        # Section 4.3: spawn a new context when the destination context
        # cannot host the task; it is inserted right after it.
        if not dest_resource.fits(0, clbs):
            raise InfeasibleMoveError(
                f"task {task} does not fit device {dest_resource_name!r}"
            )
        spawn_at = k + 1
        if not _context_precedence_ok_for_new(
            solution, dest_resource_name, spawn_at, task
        ):
            raise InfeasibleMoveError(
                f"task {task} cannot spawn a context at {spawn_at}: order violation"
            )
        solution.spawn_context(task, dest_resource_name, spawn_at)
        return "spawn_ctx"

    if isinstance(dest_resource, Asic):
        if not app.task(task).hardware_capable:
            raise InfeasibleMoveError(
                f"task {task} has no hardware implementation"
            )
        solution.unassign(task)
        solution.assign_to_asic(task, dest_resource_name)
        return "to_asic"

    raise InfeasibleMoveError(
        f"unsupported destination resource {dest_resource_name!r}"
    )


def _context_precedence_ok_for_new(
    solution: Solution, rc_name: str, position: int, task: int
) -> bool:
    """Precedence test for spawning a fresh context at ``position``."""
    app = solution.application
    contexts = solution.contexts(rc_name)
    for j, members in enumerate(contexts):
        if j < position:
            if any(app.precedes(task, m) for m in members):
                return False
        else:
            if any(app.precedes(m, task) for m in members):
                return False
    return True


# ----------------------------------------------------------------------
# concrete moves
# ----------------------------------------------------------------------
class ReorderMove(Move):
    """m1: move a software task right before the destination task."""

    name = "m1_reorder"

    def __init__(self, task: int, dest_task: int) -> None:
        super().__init__()
        self.task = task
        self.dest_task = dest_task

    def _realize(self, solution: Solution) -> None:
        proc_name = solution.resource_name_of(self.task)
        if solution.resource_name_of(self.dest_task) != proc_name:
            raise InfeasibleMoveError("m1 requires both tasks on one processor")
        order = solution.software_order(proc_name)
        current = order.index(self.task)
        reduced = order[:current] + order[current + 1:]
        target = reduced.index(self.dest_task)
        position = _feasible_insert_position(
            solution.application, reduced, self.task, target
        )
        if position == current:
            # The clamp landed back on the current position: take the
            # nearest feasible different one instead, so chain-heavy
            # graphs do not waste most m1 draws.
            app = solution.application
            lo = _feasible_insert_position(app, reduced, self.task, 0)
            hi = _feasible_insert_position(app, reduced, self.task, len(reduced))
            if lo == hi:
                raise InfeasibleMoveError(
                    "m1: the precedence window admits a single position"
                )
            position = current + 1 if current + 1 <= hi else current - 1
        solution.assign_to_processor(self.task, proc_name, position)


class ReassignMove(Move):
    """m2: move the source task to the destination task's resource."""

    name = "m2_reassign"

    def __init__(self, task: int, dest_task: int, rng: random.Random) -> None:
        super().__init__()
        self.task = task
        self.dest_task = dest_task
        self._rng = rng

    def _realize(self, solution: Solution) -> None:
        src = solution.resource_name_of(self.task)
        dst = solution.resource_name_of(self.dest_task)
        src_ctx = solution.context_of(self.task)
        dst_ctx = solution.context_of(self.dest_task)
        if src == dst and src_ctx == dst_ctx:
            raise InfeasibleMoveError("m2 requires different (context) resources")
        _place_on_destination(solution, self.task, self.dest_task, self._rng)


class ImplementationMove(Move):
    """mImpl: re-draw the area/time variant of a hardware task."""

    name = "m_impl"

    def __init__(self, task: int, new_choice: int) -> None:
        super().__init__()
        self.task = task
        self.new_choice = new_choice

    def _realize(self, solution: Solution) -> None:
        where = solution.context_of(self.task)
        on_asic = isinstance(solution.resource_of(self.task), Asic)
        if where is None and not on_asic:
            raise InfeasibleMoveError("mImpl applies to hardware tasks only")
        if solution.implementation_choice(self.task) == self.new_choice:
            raise InfeasibleMoveError("mImpl drew the current implementation")
        task = solution.application.task(self.task)
        new_impl = task.implementation(self.new_choice)
        if where is not None:
            rc_name, k = where
            rc = solution.architecture.resource(rc_name)
            others = solution.context_clbs(rc_name, k) - solution.task_clbs(self.task)
            if not rc.fits(others, new_impl.clbs):
                raise InfeasibleMoveError(
                    f"implementation {new_impl.name!r} overflows context {k}"
                )
        solution.set_implementation_choice(self.task, self.new_choice)


class OffloadMove(Move):
    """mOffload: place a hardware-capable task on a DRLC directly.

    Joins a random existing context (capacity and precedence allowing)
    or spawns a new context at a random precedence-feasible position.
    Keeps the hardware side reachable even when it is empty.
    """

    name = "m_offload"

    def __init__(self, task: int, rc_name: str, rng: random.Random) -> None:
        super().__init__()
        self.task = task
        self.rc_name = rc_name
        self._rng = rng
        # Decision cached on first realization so apply/undo/apply
        # replays the exact same mutation (needed by tabu search).
        self._decision: Optional[Tuple[str, int]] = None

    def _realize(self, solution: Solution) -> None:
        app = solution.application
        if not app.task(self.task).hardware_capable:
            raise InfeasibleMoveError(f"task {self.task} cannot run in hardware")
        rc = solution.architecture.resource(self.rc_name)
        if not isinstance(rc, ReconfigurableCircuit):
            raise InfeasibleMoveError(f"{self.rc_name!r} is not a DRLC")
        solution.unassign(self.task)
        if self._decision is None:
            self._decision = self._decide(solution, rc)
        action, index = self._decision
        if action == "join":
            solution.assign_to_context(self.task, self.rc_name, index)
        else:
            solution.spawn_context(self.task, self.rc_name, index)

    def _decide(
        self, solution: Solution, rc: ReconfigurableCircuit
    ) -> Tuple[str, int]:
        """Pick join-vs-spawn and the target index (post-unassign state)."""
        clbs = solution.task_clbs(self.task)
        contexts = solution.contexts(self.rc_name)
        join_candidates = [
            k
            for k in range(len(contexts))
            if rc.fits(solution.context_clbs(self.rc_name, k), clbs)
            and _context_precedence_ok(solution, self.rc_name, k, self.task)
        ]
        if join_candidates and self._rng.random() < 0.5:
            return ("join", join_candidates[self._rng.randrange(len(join_candidates))])
        if rc.fits(0, clbs):
            spawn_candidates = [
                p
                for p in range(len(contexts) + 1)
                if _context_precedence_ok_for_new(
                    solution, self.rc_name, p, self.task
                )
            ]
            if spawn_candidates:
                return (
                    "spawn",
                    spawn_candidates[self._rng.randrange(len(spawn_candidates))],
                )
        if join_candidates:
            return ("join", join_candidates[self._rng.randrange(len(join_candidates))])
        raise InfeasibleMoveError(
            f"no feasible context position for task {self.task}"
        )


class RemoveResourceMove(Move):
    """m3: drop a single-task resource, rehoming its task."""

    name = "m3_remove_resource"

    def __init__(self, dest_task: int, rng: random.Random) -> None:
        super().__init__()
        self.dest_task = dest_task
        self._rng = rng
        self._removed: Optional[Resource] = None
        self._picked: Optional[Tuple[str, int]] = None  # replay determinism
        self._arch_order: Optional[List[str]] = None

    def _singleton_resources(
        self, solution: Solution
    ) -> List[Tuple[str, Optional[int]]]:
        """Removable resources: hosting exactly one task (paired with
        that task) or none at all (paired with ``None``).  Empty
        resources are removable directly — without this, a resource
        drained by m2 moves could never leave the system and
        architecture exploration would only ever grow."""
        arch = solution.architecture
        found: List[Tuple[str, Optional[int]]] = []
        keep_processor = len(arch.processors()) <= 1
        for proc in arch.processors():
            order = solution.software_order(proc.name)
            if len(order) == 0 and not keep_processor:
                found.append((proc.name, None))
            elif len(order) == 1 and not keep_processor:
                found.append((proc.name, order[0]))
        for rc in arch.reconfigurable_circuits():
            tasks = [t for ctx in solution.contexts(rc.name) for t in ctx]
            if len(tasks) == 0:
                found.append((rc.name, None))
            elif len(tasks) == 1:
                found.append((rc.name, tasks[0]))
        for asic in arch.asics():
            tasks = solution.asic_tasks(asic.name)
            if len(tasks) == 0:
                found.append((asic.name, None))
            elif len(tasks) == 1:
                found.append((asic.name, tasks[0]))
        return found

    def _realize(self, solution: Solution) -> None:
        candidates = self._singleton_resources(solution)
        candidates = [
            (name, task)
            for name, task in candidates
            if solution.resource_name_of(self.dest_task) != name
        ]
        if not candidates:
            raise InfeasibleMoveError("m3 found no removable resource")
        if self._picked is None or self._picked not in candidates:
            self._picked = candidates[self._rng.randrange(len(candidates))]
        name, task = self._picked
        self._arch_order = solution.architecture.resource_names()
        if task is not None:
            _place_on_destination(solution, task, self.dest_task, self._rng)
        self._removed = solution.detach_resource(name)

    def undo(self, solution: Solution) -> None:
        if self._removed is not None:
            solution.architecture.add_resource(self._removed)
            self._removed = None
            # Resource enumeration order is observable (proposal draws
            # iterate it): put the restored resource back where it was,
            # so apply + undo is side-effect-free — a rejected move and
            # every tabu candidate probed then undone rely on that.
            if self._arch_order is not None:
                solution.architecture.restore_resource_order(self._arch_order)
        super().undo(solution)


class CreateResourceMove(Move):
    """m4: instantiate a catalog resource and move the task onto it.

    The new resource's name is drawn from the move's own RNG on first
    realization and cached, so apply/undo/apply replays the exact same
    mutation (tabu re-applies its winning candidate after probing it)
    and a rejected creation leaves **no trace** in the architecture —
    unlike a shared counter, whose advance by rejected or probed
    candidates would leak into every later name.  Names stay unique
    across a run (different moves draw different tokens), which the
    delta-patching engines' caches assume.  Without an RNG the move
    falls back to the architecture's counter-based ``fresh_name``.
    """

    name = "m4_create_resource"

    def __init__(
        self,
        task: int,
        factory: Callable[[str], Resource],
        prefix: str = "res",
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__()
        self.task = task
        self.factory = factory
        self.prefix = prefix
        self._rng = rng
        self._name: Optional[str] = None
        self._created: Optional[str] = None

    def _pick_name(self, solution: Solution) -> str:
        arch = solution.architecture
        if self._name is not None and self._name not in arch:
            return self._name
        if self._rng is None:
            self._name = arch.fresh_name(self.prefix)
            return self._name
        while True:
            candidate = f"{self.prefix}_{self._rng.getrandbits(48):012x}"
            if candidate not in arch:
                self._name = candidate
                return candidate

    def _realize(self, solution: Solution) -> None:
        arch = solution.architecture
        resource = self.factory(self._pick_name(solution))
        task = solution.application.task(self.task)
        if not isinstance(resource, Processor) and not task.hardware_capable:
            raise InfeasibleMoveError(
                f"task {task.name!r} cannot run on hardware resource"
            )
        solution.attach_resource(resource)
        self._created = resource.name
        if isinstance(resource, Processor):
            solution.unassign(self.task)
            solution.assign_to_processor(self.task, resource.name)
        elif isinstance(resource, ReconfigurableCircuit):
            if not resource.fits(0, solution.task_clbs(self.task)):
                raise InfeasibleMoveError(
                    f"task {task.name!r} does not fit new device {resource.name!r}"
                )
            solution.unassign(self.task)
            solution.spawn_context(self.task, resource.name)
        elif isinstance(resource, Asic):
            solution.unassign(self.task)
            solution.assign_to_asic(self.task, resource.name)
        else:  # pragma: no cover - defensive
            raise InfeasibleMoveError(
                f"catalog produced unsupported resource {type(resource).__name__}"
            )

    def apply(self, solution: Solution) -> None:
        try:
            super().apply(solution)
        except (InfeasibleMoveError, CapacityError):
            # The snapshot restore does not undo the architecture change.
            if self._created is not None and self._created in solution.architecture:
                solution.architecture.remove_resource(self._created)
            self._created = None
            raise

    def undo(self, solution: Solution) -> None:
        super().undo(solution)
        if self._created is not None:
            solution.architecture.remove_resource(self._created)
            self._created = None


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------
class MoveStats:
    """Per-move-type proposal/acceptance counters."""

    def __init__(self) -> None:
        self.proposed: Dict[str, int] = {}
        self.infeasible: Dict[str, int] = {}
        self.accepted: Dict[str, int] = {}
        self.rejected: Dict[str, int] = {}

    def _bump(self, table: Dict[str, int], name: str) -> None:
        table[name] = table.get(name, 0) + 1

    def record_proposed(self, name: str) -> None:
        self._bump(self.proposed, name)

    def record_infeasible(self, name: str) -> None:
        self._bump(self.infeasible, name)

    def record_accepted(self, name: str) -> None:
        self._bump(self.accepted, name)

    def record_rejected(self, name: str) -> None:
        self._bump(self.rejected, name)

    def summary(self) -> str:
        names = sorted(
            set(self.proposed) | set(self.infeasible)
            | set(self.accepted) | set(self.rejected)
        )
        parts = []
        for name in names:
            parts.append(
                f"{name}: proposed={self.proposed.get(name, 0)} "
                f"infeasible={self.infeasible.get(name, 0)} "
                f"accepted={self.accepted.get(name, 0)} "
                f"rejected={self.rejected.get(name, 0)}"
            )
        return "\n".join(parts)


class MoveGenerator:
    """Draws moves following the paper's selection rule.

    ``p_zero`` is the probability of drawing the special index 0 for
    the source (m3) or destination (m4); the paper sets it to 0 when the
    architecture is fixed.  ``p_impl`` is the probability of proposing
    an implementation re-draw instead of a task move.
    """

    def __init__(
        self,
        application: Application,
        p_zero: float = 0.0,
        p_impl: float = 0.15,
        p_offload: float = 0.10,
        catalog: Optional[Sequence[Callable[[str], Resource]]] = None,
    ) -> None:
        if not 0.0 <= p_zero < 1.0:
            raise ConfigurationError("p_zero must lie in [0, 1)")
        if not 0.0 <= p_impl < 1.0:
            raise ConfigurationError("p_impl must lie in [0, 1)")
        if not 0.0 <= p_offload < 1.0:
            raise ConfigurationError("p_offload must lie in [0, 1)")
        if p_zero > 0.0 and not catalog:
            raise ConfigurationError(
                "architecture moves (p_zero > 0) need a resource catalog"
            )
        self.application = application
        self.p_zero = p_zero
        self.p_impl = p_impl
        self.p_offload = p_offload
        self.catalog = list(catalog) if catalog else []
        self._tasks = sorted(application.task_indices())
        self._hw_capable = [
            t.index for t in application.tasks() if t.hardware_capable
        ]

    # ------------------------------------------------------------------
    def propose(self, solution: Solution, rng: random.Random) -> Move:
        """Draw one move; raises :class:`InfeasibleMoveError` when the
        draw denotes "no move" (e.g. both tasks in one context)."""
        special = rng.random()
        if special < self.p_impl:
            return self._propose_impl(solution, rng)
        if special < self.p_impl + self.p_offload:
            return self._propose_offload(solution, rng)

        source = 0 if rng.random() < self.p_zero else self._draw_task(rng)
        dest = 0 if rng.random() < self.p_zero else self._draw_task(rng)

        if source == 0 and dest == 0:
            raise InfeasibleMoveError("drew 0 for both source and destination")
        if source == 0:
            return RemoveResourceMove(dest_task=dest - 1, rng=rng)
        if dest == 0:
            factory = self.catalog[rng.randrange(len(self.catalog))]
            return CreateResourceMove(task=source - 1, factory=factory, rng=rng)

        vs, vd = source - 1, dest - 1
        if vs == vd:
            raise InfeasibleMoveError("source equals destination")
        src_name = solution.resource_name_of(vs)
        dst_name = solution.resource_name_of(vd)
        if src_name == dst_name:
            src_ctx = solution.context_of(vs)
            if src_ctx is None and isinstance(
                solution.architecture.resource(src_name), Processor
            ):
                return ReorderMove(task=vs, dest_task=vd)
            if src_ctx is not None and src_ctx != solution.context_of(vd):
                return ReassignMove(task=vs, dest_task=vd, rng=rng)
            # Same context or same ASIC: the paper performs no move.
            raise InfeasibleMoveError("tasks share a partial-order resource")
        return ReassignMove(task=vs, dest_task=vd, rng=rng)

    def _draw_task(self, rng: random.Random) -> int:
        """1-based task draw (0 is reserved for resource moves)."""
        return 1 + self._tasks[rng.randrange(len(self._tasks))]

    def _propose_offload(self, solution: Solution, rng: random.Random) -> Move:
        rcs = solution.architecture.reconfigurable_circuits()
        if not rcs or not self._hw_capable:
            raise InfeasibleMoveError("no DRLC or no hardware-capable task")
        task = self._hw_capable[rng.randrange(len(self._hw_capable))]
        rc = rcs[rng.randrange(len(rcs))]
        return OffloadMove(task=task, rc_name=rc.name, rng=rng)

    def _propose_impl(self, solution: Solution, rng: random.Random) -> Move:
        hw_tasks = [
            t for t in self._hw_capable
            if solution.context_of(t) is not None
            or isinstance(solution.resource_of(t), Asic)
        ]
        if not hw_tasks:
            raise InfeasibleMoveError("no hardware task for mImpl")
        task_index = hw_tasks[rng.randrange(len(hw_tasks))]
        task = self.application.task(task_index)
        if task.num_implementations < 2:
            raise InfeasibleMoveError("task has a single implementation")
        current = solution.implementation_choice(task_index)
        choice = rng.randrange(task.num_implementations - 1)
        if choice >= current:
            choice += 1
        return ImplementationMove(task=task_index, new_choice=choice)
