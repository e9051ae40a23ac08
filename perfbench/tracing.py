"""Layer spans recorded from outside the program.

:func:`install` wraps the public functions of each layer module and
patches every wrapper in at the site where the caller looks the name up
(``repro.mapping.engine.compile_instance``, ``Evaluator.evaluate`` on the
class, ...).  Each call records a span: name, start, end, parent span
and request id.  Spans stay in memory (flat arrays) and are written out
when the run ends.  A span's self time is its duration minus the part
its child spans cover; a layer's busy time is the sum of its spans' self
times.  :func:`layer_metrics` turns one traced run into the per-layer
metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: One clock for every process: CLOCK_MONOTONIC is system-wide, so a
#: CLI child's spans land on the parent's timeline.
clock = time.monotonic

#: Name of the benchmark's own root span around each request.
REQUEST = "request"


class Tracer:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        #: Per-span values a hook attached (submit status, job key, ...).
        self.tags: Dict[int, Any] = {}
        #: Counts the hooks read off return values (move stats, engine
        #: counters, envelope bytes, ...).
        self.counters: Dict[str, float] = {}
        self.request_id = -1
        #: Wrappers record nothing while False (see :func:`paused`).
        self.active = True
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    # -- recording -----------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.start.append(clock())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = clock()
        self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def absorb(self, other: "Tracer", parent: int) -> None:
        """Append another process's spans under span ``parent``."""
        offset = len(self.names)
        request = self.request[parent]
        self.names.extend(other.names)
        self.start.extend(other.start)
        self.end.extend(other.end)
        for index in range(len(other.names)):
            up = other.parent[index]
            self.parent.append(parent if up < 0 else up + offset)
            self.request.append(request)
        for index, tag in other.tags.items():
            self.tags[index + offset] = tag
        for name, value in other.counters.items():
            self.count(name, value)

    # -- persistence ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "names": self.names,
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "request": self.request.tolist(),
            "tags": {str(k): v for k, v in self.tags.items()},
            "counters": self.counters,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Tracer":
        tracer = cls()
        tracer.names = list(data["names"])
        tracer.start = array("d", data["start"])
        tracer.end = array("d", data["end"])
        tracer.parent = array("q", data["parent"])
        tracer.request = array("q", data["request"])
        tracer.tags = {int(k): v for k, v in data["tags"].items()}
        tracer.counters = dict(data["counters"])
        return tracer

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)

    @classmethod
    def read(cls, path: str) -> "Tracer":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    # -- analysis ------------------------------------------------------
    def duration(self, index: int) -> float:
        return self.end[index] - self.start[index]

    def self_times(self) -> List[float]:
        own = [self.end[i] - self.start[i] for i in range(len(self.names))]
        for index in range(len(self.names)):
            up = self.parent[index]
            if up >= 0:
                own[up] -= self.end[index] - self.start[index]
        return own


@contextlib.contextmanager
def paused(tracer: Optional[Tracer]):
    """Run the benchmark's own work (the gate) without recording."""
    if tracer is None:
        yield
        return
    tracer.active = False
    try:
        yield
    finally:
        tracer.active = True


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------
STORE_OPS = (
    "cache_key_info", "write_record", "create_record", "load_record",
    "response_text", "put_response", "put_instance", "near_keys",
)
JOB_OPS = ("enqueue", "claim", "complete", "execute")

#: (module, attribute path, span name).  Module-level functions are
#: patched in the module their callers read them from.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.api.specs", "ExplorationRequest.from_json", "api.specs:from_json"),
    ("repro.api.specs", "ExplorationRequest.from_dict", "api.specs:from_dict"),
    ("repro.api.specs", "ExplorationRequest.validate", "api.specs:validate"),
    ("repro.api.specs", "ExplorationRequest.content_hash",
     "api.specs:content_hash"),
    ("repro.api.facade", "resolve_request", "api.resolve:resolve_request"),
    # resolve_request and the store's instance_info_for both read these
    # from repro.api.resolve at call time.
    ("repro.api.resolve", "resolve_application",
     "api.resolve:resolve_application"),
    ("repro.api.resolve", "resolve_architecture",
     "api.resolve:resolve_architecture"),
    ("repro.mapping.engine", "compile_instance",
     "mapping.compiled:compile_instance"),
    ("repro.sa.moves", "MoveGenerator.propose", "sa.moves:propose"),
    ("repro.mapping.evaluator", "Evaluator.evaluate",
     "mapping.evaluator:evaluate"),
    ("repro.mapping.evaluator", "Evaluator.evaluate_batch",
     "mapping.evaluator:evaluate_batch"),
    ("repro.mapping.evaluator", "Evaluator.makespan_ms",
     "mapping.evaluator:makespan_ms"),
    ("repro.mapping.engine", "CrossChainEvaluator.evaluate",
     "mapping.engine:evaluate"),
    ("repro.mapping.engine", "CrossChainEvaluator.propose_moves",
     "mapping.engine:propose_moves"),
    ("repro.mapping.engine", "CrossChainEvaluator.resolve",
     "mapping.engine:resolve"),
    ("repro.mapping.engine", "CrossChainEvaluator.evaluate_moves",
     "mapping.engine:evaluate_moves"),
    ("repro.sa.annealer", "SimulatedAnnealing.search", "sa.annealer:search"),
    ("repro.sa.population", "PopulationAnnealer.search",
     "sa.population:search"),
    ("repro.api.facade", "run_search_jobs", "search.runner:run_search_jobs"),
    ("repro.search.portfolio", "run_search_jobs",
     "search.runner:run_search_jobs"),
    ("repro.api.facade", "explore", "api.facade:explore"),
    ("repro.cli", "explore", "api.facade:explore"),
    ("repro.service.jobs", "explore", "api.facade:explore"),
    ("repro.api.facade", "ExplorationResponse.to_json", "api.facade:to_json"),
    ("repro.api.facade", "ExplorationResponse.from_json",
     "api.facade:from_json"),
    ("repro.service.service", "ExplorationService.submit",
     "service.service:submit"),
    ("repro.service.service", "ExplorationService.run_local",
     "service.service:run_local"),
    ("repro.mapping.seed", "seed_solution", "mapping.seed:seed_solution"),
    ("repro.cli", "main", "cli:main"),
) + tuple(
    ("repro.service.store", f"ResultStore.{op}", f"service.store:{op}")
    for op in STORE_OPS
) + tuple(
    ("repro.service.jobs", f"JobQueue.{op}", f"service.jobs:{op}")
    for op in JOB_OPS
)


# -- hooks: read what a span's return value tells -----------------------
def _on_search(tracer: Tracer, span: int, args, result) -> None:
    strategy = args[0]
    if tracer.names[span] == "sa.population:search":
        tracer.count("tempering.evaluations", result.evaluations)
    stats = result.move_stats
    for field in ("proposed", "infeasible", "accepted", "rejected"):
        tracer.count(f"moves.{field}", sum(getattr(stats, field).values()))
    for name, value in strategy.evaluator.telemetry_counters().items():
        tracer.count(f"engine.{name}", value)


def _on_evaluate_batch(tracer: Tracer, span: int, args, result) -> None:
    tracer.count("batch_evals", len(args[2]))


def _on_to_json(tracer: Tracer, span: int, args, result) -> None:
    tracer.count("envelope_bytes", len(result.encode("utf-8")))


def _on_submit(tracer: Tracer, span: int, args, result) -> None:
    tracer.tags[span] = result.status


def _on_write_record(tracer: Tracer, span: int, args, result) -> None:
    store, record = args[0], args[1]
    tracer.count("record_bytes", os.path.getsize(store.record_path(record.key)))


def _on_enqueue(tracer: Tracer, span: int, args, result) -> None:
    tracer.tags[span] = args[1]


def _on_claim(tracer: Tracer, span: int, args, result) -> None:
    if result is not None:
        tracer.tags[span] = result


def _on_seed(tracer: Tracer, span: int, args, result) -> None:
    tracer.count("seed.repairs", result[1])


HOOKS: Dict[str, Callable] = {
    "sa.annealer:search": _on_search,
    "sa.population:search": _on_search,
    "mapping.evaluator:evaluate_batch": _on_evaluate_batch,
    "api.facade:to_json": _on_to_json,
    "service.service:submit": _on_submit,
    "service.store:write_record": _on_write_record,
    "service.jobs:enqueue": _on_enqueue,
    "service.jobs:claim": _on_claim,
    "mapping.seed:seed_solution": _on_seed,
}


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    open_, close = tracer.open, tracer.close
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = open_(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(span)
        if hook is not None:
            hook(tracer, span, args, result)
        return result

    return wrapper


def _targets() -> List[Tuple[Any, str, str]]:
    """(owner, attribute, span name) for every patch site, including
    each move class that overrides ``apply``/``undo``."""
    sites = []
    for module_name, path, name in TARGETS:
        owner: Any = importlib.import_module(module_name)
        *outer, attribute = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        sites.append((owner, attribute, name))
    from repro.sa import moves

    for value in vars(moves).values():
        if isinstance(value, type) and issubclass(value, moves.Move):
            for attribute in ("apply", "undo"):
                if attribute in vars(value):
                    sites.append((value, attribute, f"sa.moves:{attribute}"))
    return sites


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every target; returns the function that restores them."""
    saved = []
    for owner, attribute, name in _targets():
        original = vars(owner)[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        if isinstance(original, classmethod):
            patched: Any = classmethod(_wrap(tracer, name, original.__func__))
        else:
            patched = _wrap(tracer, name, original)
        setattr(owner, attribute, patched)
        saved.append((owner, attribute, original))

    def uninstall() -> None:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)

    return uninstall


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
_HIT = "hit_latency_p50_s on serve_mixed"
_SA = "sa_evals_per_s on search_long"
_TEMPER = "tempering_evals_per_s on search_long"
_CLI = "latency_p50_s on cli_cold"
_NONE = "diagnostic; moves no end-to-end metric by itself"

#: Per-layer metrics of a traced run: (name, unit, better, the
#: end-to-end metric and workload it should move).  Calls, busy (self)
#: times and counts are per request.
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("startup.import_s", "s", "lower",
     "setup_s and latency_p50_s on cli_cold; about 0 on search_long rates"),
    ("startup.numpy_imported", "count", "lower", "setup_s on cli_cold"),
    ("startup.busy_s", "s", "lower", _CLI),
    ("cli.calls", "count", "lower", _CLI),
    ("cli.busy_s", "s", "lower", _CLI),
    ("cli.main_s", "s", "lower", _CLI),
    ("cli.process_s", "s", "lower", _CLI),
    ("api.specs.calls", "count", "lower", f"{_HIT}; {_CLI}"),
    ("api.specs.busy_s", "s", "lower", f"{_HIT}; {_CLI}"),
    ("api.resolve.calls", "count", "lower", _HIT),
    ("api.resolve.busy_s", "s", "lower", _HIT),
    ("mapping.compiled.calls", "count", "lower",
     "miss_latency_p50_s on serve_mixed and latency_p50_s on cli_cold; "
     "about 0 on search_long"),
    ("mapping.compiled.busy_s", "s", "lower",
     "miss_latency_p50_s on serve_mixed and latency_p50_s on cli_cold; "
     "about 0 on search_long"),
    ("sa.moves.proposed", "count", "higher", _SA),
    ("sa.moves.propose_busy_s", "s", "lower", _SA),
    ("sa.moves.apply_busy_s", "s", "lower", _SA),
    ("sa.moves.undo_busy_s", "s", "lower", _SA),
    ("sa.moves.infeasible_ratio", "ratio", "lower", _SA),
    ("sa.moves.accept_ratio", "ratio", "higher", _SA),
    ("mapping.evaluator.evals", "count", "higher", _SA),
    ("mapping.evaluator.busy_s", "s", "lower", _SA),
    ("mapping.evaluator.us_per_eval", "us", "lower", _SA),
    ("mapping.engine.evals", "count", "higher", _TEMPER),
    ("mapping.engine.busy_s", "s", "lower", _TEMPER),
    ("mapping.engine.us_per_eval", "us", "lower", _TEMPER),
    ("mapping.engine.ctx_hit_ratio", "ratio", "higher", f"{_SA}; {_TEMPER}"),
    ("mapping.engine.rc_rebuilds", "count", "lower", f"{_SA}; {_TEMPER}"),
    ("mapping.engine.order_repairs", "count", "lower", _TEMPER),
    ("mapping.engine.order_rebuilds", "count", "lower", _TEMPER),
    ("mapping.engine.kernel_batches", "count", "higher", _TEMPER),
    ("mapping.engine.kernel_lanes", "count", "higher", _TEMPER),
    ("sa.annealer.self_s", "s", "lower", _SA),
    ("sa.population.self_s", "s", "lower", _TEMPER),
    ("search.runner.calls", "count", "lower", _NONE),
    ("search.runner.busy_s", "s", "lower", f"{_SA}; {_TEMPER}"),
    ("api.facade.calls", "count", "lower", _NONE),
    ("api.facade.busy_s", "s", "lower",
     f"{_CLI} and miss_latency_p50_s on serve_mixed"),
    ("api.facade.serialize_s", "s", "lower",
     f"{_CLI} and miss_latency_p50_s on serve_mixed"),
    ("api.facade.parse_s", "s", "lower", _HIT),
    ("api.facade.envelope_bytes", "bytes", "lower",
     f"{_CLI} and miss_latency_p50_s on serve_mixed"),
    ("service.service.calls", "count", "lower", _NONE),
    ("service.service.busy_s", "s", "lower", _HIT),
    ("service.service.submit_hit_s", "s", "lower", _HIT),
    ("service.service.submit_miss_s", "s", "lower",
     "miss_latency_p50_s on serve_mixed"),
    ("service.service.hit_ratio", "ratio", "higher", _NONE),
    ("service.service.warm_start_ratio", "ratio", "higher",
     "warm_latency_p50_s on serve_mixed"),
    ("service.store.calls", "count", "lower", _HIT),
    ("service.store.busy_s", "s", "lower",
     f"{_HIT}; about 0 on search_long"),
) + tuple(
    (f"service.store.{op}.{what}", unit, "lower", _HIT)
    for op in STORE_OPS
    for what, unit in (("calls", "count"), ("busy_s", "s"))
) + (
    ("service.store.record_bytes", "bytes", "lower", _HIT),
    ("service.jobs.calls", "count", "lower", _NONE),
    ("service.jobs.busy_s", "s", "lower",
     "miss_latency_p50_s on serve_mixed"),
) + tuple(
    (f"service.jobs.{op}.{what}", unit, "lower",
     "miss_latency_p50_s on serve_mixed")
    for op in JOB_OPS
    for what, unit in (("calls", "count"), ("busy_s", "s"))
) + (
    ("service.jobs.queue_wait_s", "s", "lower",
     "miss_latency_p50_s on serve_mixed"),
    ("mapping.seed.calls", "count", "lower", _NONE),
    ("mapping.seed.busy_s", "s", "lower", "warm_latency_p50_s on serve_mixed"),
    ("mapping.seed.repairs", "count", "lower",
     "warm_latency_p50_s on serve_mixed"),
    ("trace.requests", "count", "higher", _NONE),
    ("trace.uncovered_s", "s", "lower", _NONE),
    ("trace.core_share", "ratio", "higher", _SA),
    ("trace.hit_store_resolve_share", "ratio", "lower", _HIT),
    ("trace.overhead_ratio", "ratio", "lower", _NONE),
)

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    startup: Dict[str, float],
    service_stats: Optional[Dict[str, Any]] = None,
) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    Calls, busy times and counts are means per request (the traced run
    serves whole rounds of its stream, so the mix per request is fixed);
    ratios and per-evaluation times are taken over the whole run.
    """
    own = tracer.self_times()
    roots = [i for i, n in enumerate(tracer.names) if n == REQUEST]
    per = 1.0 / max(1, len(roots))
    busy: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for index, name in enumerate(tracer.names):
        for key in (name, layer_of(name)):
            busy[key] = busy.get(key, 0.0) + own[index]
            calls[key] = calls.get(key, 0) + 1
    c = tracer.counters
    out: Dict[str, float] = {
        "startup.import_s": startup["import_s"],
        "startup.numpy_imported": startup["numpy_imported"],
        # import repro.cli inside each traced CLI process
        "startup.busy_s": busy.get("startup", 0.0) * per,
    }

    def layer(key: str) -> None:
        out[f"{key}.calls"] = calls.get(key, 0) * per
        out[f"{key}.busy_s"] = busy.get(key, 0.0) * per

    layer("cli")
    out["cli.main_s"] = sum(
        tracer.duration(i) for i, n in enumerate(tracer.names)
        if n == "cli:main"
    ) * per
    out["cli.process_s"] = c.get("cli.process_s", 0.0) * per
    layer("api.specs")
    layer("api.resolve")
    layer("mapping.compiled")

    moves = {f: c.get(f"moves.{f}", 0)
             for f in ("proposed", "infeasible", "accepted", "rejected")}
    out["sa.moves.proposed"] = moves["proposed"] * per
    for op in ("propose", "apply", "undo"):
        out[f"sa.moves.{op}_busy_s"] = busy.get(f"sa.moves:{op}", 0.0) * per
    out["sa.moves.infeasible_ratio"] = _ratio(
        moves["infeasible"],
        moves["infeasible"] + moves["accepted"] + moves["rejected"],
    )
    out["sa.moves.accept_ratio"] = _ratio(
        moves["accepted"], moves["accepted"] + moves["rejected"]
    )

    evaluator_evals = calls.get("mapping.evaluator:evaluate", 0) + calls.get(
        "mapping.evaluator:makespan_ms", 0) + c.get("batch_evals", 0)
    out["mapping.evaluator.evals"] = evaluator_evals * per
    out["mapping.evaluator.busy_s"] = busy.get("mapping.evaluator", 0.0) * per
    out["mapping.evaluator.us_per_eval"] = 1e6 * _ratio(
        busy.get("mapping.evaluator", 0.0), evaluator_evals)

    engine_evals = c.get("tempering.evaluations", 0)
    out["mapping.engine.evals"] = engine_evals * per
    out["mapping.engine.busy_s"] = busy.get("mapping.engine", 0.0) * per
    out["mapping.engine.us_per_eval"] = 1e6 * _ratio(
        busy.get("mapping.engine", 0.0), engine_evals)
    out["mapping.engine.ctx_hit_ratio"] = _ratio(
        c.get("engine.ctx_hits", 0),
        c.get("engine.ctx_hits", 0) + c.get("engine.ctx_misses", 0),
    )
    for name in ("rc_rebuilds", "order_repairs", "order_rebuilds",
                 "kernel_batches", "kernel_lanes"):
        out[f"mapping.engine.{name}"] = c.get(f"engine.{name}", 0) * per

    out["sa.annealer.self_s"] = busy.get("sa.annealer", 0.0) * per
    out["sa.population.self_s"] = busy.get("sa.population", 0.0) * per
    layer("search.runner")
    layer("api.facade")
    out["api.facade.serialize_s"] = busy.get("api.facade:to_json", 0.0) * per
    out["api.facade.parse_s"] = busy.get("api.facade:from_json", 0.0) * per
    out["api.facade.envelope_bytes"] = c.get("envelope_bytes", 0) * per

    layer("service.service")
    submits: Dict[str, List[float]] = {"hit": [], "miss": []}
    for index, name in enumerate(tracer.names):
        if name == "service.service:submit":
            kind = "hit" if tracer.tags.get(index) == "hit" else "miss"
            submits[kind].append(tracer.duration(index))
    out["service.service.submit_hit_s"] = _mean(submits["hit"])
    out["service.service.submit_miss_s"] = _mean(submits["miss"])
    stats = service_stats or {}
    created = stats.get("records", {}).get("total", 0)
    hits = stats.get("hits", 0)
    out["service.service.hit_ratio"] = _ratio(hits, hits + created)
    out["service.service.warm_start_ratio"] = _ratio(
        stats.get("warm_start_hits", 0), created)

    layer("service.store")
    for op in STORE_OPS:
        layer(f"service.store:{op}")
    out["service.store.record_bytes"] = _ratio(
        c.get("record_bytes", 0), calls.get("service.store:write_record", 0))
    layer("service.jobs")
    for op in JOB_OPS:
        layer(f"service.jobs:{op}")
    out["service.jobs.queue_wait_s"] = _queue_wait(tracer) * per

    layer("mapping.seed")
    out["mapping.seed.repairs"] = c.get("seed.repairs", 0) * per

    out["trace.requests"] = float(len(roots))
    out["trace.uncovered_s"] = sum(own[i] for i in roots) * per
    out.update(_shares(tracer, own, roots))
    # Store-level op names use ':'; report them with '.' like the rest.
    return {key.replace(":", "."): value for key, value in out.items()}


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _queue_wait(tracer: Tracer) -> float:
    """Total time from a job's enqueue to the claim that took it."""
    enqueued: Dict[str, float] = {}
    total = 0.0
    for index, name in enumerate(tracer.names):
        key = tracer.tags.get(index)
        if name == "service.jobs:enqueue" and key is not None:
            enqueued[key] = tracer.end[index]
        elif name == "service.jobs:claim" and key in enqueued:
            total += tracer.end[index] - enqueued.pop(key)
    return total


def _shares(
    tracer: Tracer, own: List[float], roots: List[int]
) -> Dict[str, float]:
    """Shares of request wall time behind two acceptance claims: engine
    work (moves + evaluator + engine self time) over all requests, and
    store + resolve self time over service cache hits."""
    hit_roots = set()
    for index, name in enumerate(tracer.names):
        if name == "service.service:submit" and tracer.tags.get(index) == "hit":
            hit_roots.add(tracer.request[index])
    core = hit = 0.0
    for index, name in enumerate(tracer.names):
        layer = layer_of(name)
        if layer in ("sa.moves", "mapping.evaluator", "mapping.engine"):
            core += own[index]
        elif layer in ("service.store", "api.resolve") and \
                tracer.request[index] in hit_roots:
            hit += own[index]
    wall = sum(tracer.duration(i) for i in roots)
    hit_wall = sum(tracer.duration(i) for i in roots
                   if tracer.request[i] in hit_roots)
    return {
        "trace.core_share": _ratio(core, wall),
        "trace.hit_store_resolve_share": _ratio(hit, hit_wall),
    }
