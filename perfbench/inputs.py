"""Seeded request streams for the three benchmark workloads.

Every input is built here, in the benchmark process, before it is sent:
problem instances come from the public family builders
(``repro.bench.corpus.FAMILIES``) with instance seeds drawn from the
workload seed, and each request is a plain ``ExplorationRequest`` JSON
document carrying its instance as a bundled document.  The program under
test only ever receives that text (as a spec file for the CLI, as a
string parsed with ``ExplorationRequest.from_json`` otherwise).

A stream is a sequence of *rounds*.  Every round has the same slot
layout (request kind, strategy, engine, family and size); the seed only
moves instance seeds, search seeds and which earlier request a service
repeat or near-duplicate refers to.  Runs measure whole rounds, so the
request mix, and with it every median, is the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Rounds whose results every run covers: the result digest and
#: ``best_cost_mean`` are taken over them, so both repeat exactly at a
#: fixed seed however many rounds the run's time allows.
WINDOW_ROUNDS = 3


@dataclass(frozen=True)
class Request:
    """One request of a stream, as the client sends it."""

    index: int
    round: int
    label: str
    kind: str
    strategy: str
    text: str
    #: ``serve_mixed`` only: ``fresh``, ``warm`` (near-duplicate of an
    #: earlier miss) or ``hit`` (exact repeat of an earlier miss).
    mode: str = "fresh"

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def _instance(family: str, seed: int, **params: Any) -> Dict[str, Any]:
    from repro.bench.corpus import FAMILIES
    from repro.io import instance_to_dict

    return instance_to_dict(FAMILIES[family](seed, **params))


def _request(
    document: Dict[str, Any],
    *,
    kind: str = "single",
    strategy: str = "sa",
    options: Optional[Dict[str, Any]] = None,
    iterations: int,
    warmup: Optional[int] = None,
    engine: str = "incremental",
    seed: int,
    **extra: Any,
) -> Dict[str, Any]:
    budget: Dict[str, Any] = {"iterations": iterations}
    if warmup is not None:
        budget["warmup_iterations"] = warmup
    body = {
        "schema_version": 1,
        "kind": kind,
        "application": {"kind": "bundled", "document": document},
        "strategy": {
            "kind": strategy,
            "options": dict(options or {}, keep_trace=False),
        },
        "budget": budget,
        "engine": {"kind": engine},
        "seed": seed,
    }
    body.update(extra)
    return body


def _text(body: Dict[str, Any]) -> str:
    return json.dumps(body, indent=2)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _draw(rng: random.Random) -> int:
    """A fresh instance or search seed."""
    return rng.randrange(1, 10**6)


# ----------------------------------------------------------------------
# cli_cold: small specs of every request kind, one CLI process each
# ----------------------------------------------------------------------
def _budget(full: int, tiny: bool) -> int:
    return max(5, full // 60) if tiny else full


def cli_cold(seed: int, tiny: bool = False) -> Iterator[Request]:
    rng = _rng("cli_cold", seed)
    size = 12 if tiny else None
    index = 0
    for rnd in range(10**6):
        motion = _instance("motion", 0, n_clbs=rng.choice((1500, 2000, 2500)))
        slots: List[Tuple[str, Dict[str, Any]]] = [
            ("single/sa/motion", _request(
                motion, iterations=_budget(600, tiny),
                warmup=_budget(150, tiny), seed=_draw(rng))),
            ("single/sa/tgff", _request(
                _instance("tgff", _draw(rng),
                          num_tasks=size or (24, 36)[rnd % 2]),
                iterations=_budget(500, tiny), seed=_draw(rng))),
            ("batch/sa/layered", _request(
                _instance("layered", _draw(rng), num_tasks=size or 24),
                kind="batch", runs=3, iterations=_budget(300, tiny),
                seed=_draw(rng))),
            ("sweep/sa/motion", _request(
                motion, kind="sweep", sizes=[400, 2000],
                iterations=_budget(300, tiny), seed=_draw(rng))),
            ("portfolio/motion", _request(
                motion, kind="portfolio", iterations=_budget(200, tiny),
                seed=_draw(rng))),
            ("single/tempering/fork_join", _request(
                _instance("fork_join", _draw(rng), num_tasks=size or 24),
                strategy="tempering", options={"chains": 4},
                iterations=_budget(100, tiny), engine="array",
                seed=_draw(rng))),
        ]
        for label, body in slots:
            yield Request(
                index=index, round=rnd, label=label, kind=body["kind"],
                strategy=_strategy_of(body), text=_text(body),
            )
            index += 1


def _strategy_of(body: Dict[str, Any]) -> str:
    return "portfolio" if body["kind"] == "portfolio" else \
        body["strategy"]["kind"]


# ----------------------------------------------------------------------
# search_long: long searches on the largest generated instances
# ----------------------------------------------------------------------
#: Every round sends the same nine (family, size, strategy, engine)
#: requests; only instance and search seeds change.  Each strategy and
#: engine pair gets one mid-size and one large instance.  An odd count
#: whose middle latencies lie close together keeps the latency median
#: inside one request class instead of in a gap between two.
SEARCH_SLOTS = (
    ("tgff", 120, "sa", "incremental"),
    ("tgff", 240, "sa", "array"),
    ("layered", 96, "tempering", "array"),
    ("layered", 192, "tempering", "incremental"),
    ("fork_join", 96, "sa", "array"),
    ("fork_join", 192, "tempering", "array"),
    ("series_parallel", 96, "tempering", "incremental"),
    ("series_parallel", 192, "sa", "incremental"),
    ("tgff", 120, "tempering", "array"),
)


def search_long(seed: int, tiny: bool = False) -> Iterator[Request]:
    rng = _rng("search_long", seed)
    index = 0
    for rnd in range(10**6):
        for family, size, strategy, engine in SEARCH_SLOTS:
            document = _instance(family, _draw(rng),
                                 num_tasks=16 if tiny else size)
            if strategy == "sa":
                body = _request(document, iterations=20 if tiny else 600,
                                engine=engine, seed=_draw(rng))
            else:
                # 8 chains x 60 rounds
                body = _request(
                    document, strategy="tempering",
                    options={"chains": 8}, iterations=5 if tiny else 60,
                    engine=engine, seed=_draw(rng),
                )
            yield Request(
                index=index, round=rnd,
                label=f"{strategy}/{engine}/{family}-{size}",
                kind="single", strategy=strategy, text=_text(body),
            )
            index += 1


# ----------------------------------------------------------------------
# serve_mixed: repeats, near-duplicates and fresh requests to the service
# ----------------------------------------------------------------------
#: Slot layout of one round: (mode, family group).  Seven of twelve
#: requests are exact repeats, two near-duplicates, three fresh.  A
#: repeat or near-duplicate refers to an earlier miss of its group, so
#: the size mix of hits (whose cost grows with instance size) is fixed.
#: Hits are a clear majority so that the latency median falls inside
#: the hit latencies, not in the gap between hits and misses.
SERVE_SLOTS = (
    ("fresh", "motion"), ("hit", "motion"),
    ("fresh", "tgff"), ("hit", "tgff"),
    ("fresh", "layered"), ("warm", "tgff"),
    ("hit", "layered"), ("hit", "tgff"),
    ("warm", "layered"), ("hit", "motion"),
    ("hit", "layered"), ("hit", "tgff"),
)


def _serve_fresh(group: str, rng: random.Random, tiny: bool) -> Dict[str, Any]:
    seed = _draw(rng)
    iterations = 20 if tiny else 400
    if group == "motion":
        document = _instance(
            "motion", 0, n_clbs=rng.choice((1200, 1600, 2000, 2400))
        )
        return _request(document, iterations=iterations, seed=seed)
    if group == "tgff":
        document = _instance("tgff", _draw(rng),
                             num_tasks=16 if tiny else 120)
        # 4 chains x 100 rounds: the same ~400-evaluation budget.
        return _request(
            document, strategy="tempering", options={"chains": 4},
            iterations=iterations // 4, engine="array", seed=seed,
        )
    document = _instance("layered", _draw(rng),
                         num_tasks=16 if tiny else 48)
    return _request(document, iterations=iterations, seed=seed)


def perturb(body: Dict[str, Any], rng: random.Random) -> Dict[str, Any]:
    """A near-duplicate: one task's software duration scaled by 10%,
    structure untouched (what the service's warm-start index matches).
    Modifies ``body`` in place and returns it."""
    tasks = body["application"]["document"]["application"]["tasks"]
    task = tasks[rng.randrange(len(tasks))]
    task["sw_time_ms"] = round(task["sw_time_ms"] * 1.1, 9)
    body["seed"] = _draw(rng)
    return body


def serve_mixed(seed: int, tiny: bool = False) -> Iterator[Request]:
    rng = _rng("serve_mixed", seed)
    # Texts of earlier misses per group (texts, not parsed documents,
    # keep the benchmark's own memory small next to the service's).
    misses: Dict[str, List[str]] = {}
    index = 0
    for rnd in range(10**6):
        for mode, group in SERVE_SLOTS:
            if mode == "fresh":
                text = _text(_serve_fresh(group, rng, tiny))
            else:
                earlier = misses[group]
                text = earlier[rng.randrange(len(earlier))]
                if mode == "warm":
                    text = _text(perturb(json.loads(text), rng))
            if mode != "hit":
                misses.setdefault(group, []).append(text)
            body = json.loads(text)
            yield Request(
                index=index, round=rnd, label=f"{mode}/{group}",
                kind=body["kind"], strategy=_strategy_of(body), text=text,
                mode=mode,
            )
            index += 1


STREAMS = {
    "cli_cold": cli_cold,
    "search_long": search_long,
    "serve_mixed": serve_mixed,
}
