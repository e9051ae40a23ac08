"""Correctness gate and result digests.

Every response envelope the benchmark receives is checked against the
reference engine: the envelope's best solution is decoded onto the
instance its run used and re-evaluated with ``engine="full"``; the cost
breakdown must equal ``best.evaluation`` exactly.  A service cache hit
must return the very bytes its miss produced.

The result digest covers envelopes with ``environment`` and every
``*_s`` field (wall-clock times) removed, so two runs that served the
same work with the same results share it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable

#: The ``Evaluation`` fields an envelope's ``best.evaluation`` carries.
EVALUATION_FIELDS = (
    "makespan_ms", "feasible", "num_contexts", "hw_tasks", "sw_tasks",
    "initial_reconfig_ms", "dynamic_reconfig_ms", "comm_ms", "clbs_used",
)


class GateError(Exception):
    """A response failed the correctness gate."""


def strip_volatile(value: Any) -> Any:
    """``value`` without ``environment`` keys and ``*_s`` fields."""
    if isinstance(value, dict):
        return {
            key: strip_volatile(item)
            for key, item in value.items()
            if key != "environment" and not key.endswith("_s")
        }
    if isinstance(value, list):
        return [strip_volatile(item) for item in value]
    return value


def envelope_digest(text: str) -> str:
    """SHA-256 of the envelope without its volatile fields."""
    stripped = strip_volatile(json.loads(text))
    return hashlib.sha256(
        json.dumps(stripped, sort_keys=True, separators=(",", ":"))
        .encode("utf-8")
    ).hexdigest()


def result_digest(envelope_digests: Iterable[str]) -> str:
    """One digest over per-envelope digests, in order."""
    digest = hashlib.sha256()
    for item in envelope_digests:
        digest.update(item.encode("ascii"))
    return digest.hexdigest()


def _instance_of(request: Dict[str, Any], best: Dict[str, Any]):
    """The application and architecture the winning run searched."""
    from repro.arch.architecture import epicure_architecture
    from repro.io import instance_from_dict

    instance = instance_from_dict(request["application"]["document"])
    if request["kind"] == "sweep":
        # A sweep cell runs on the EPICURE platform at the cell's size;
        # the run's tag is [n_clbs, run].
        return instance.application, epicure_architecture(
            n_clbs=best["tag"][0]
        )
    return instance.application, instance.architecture


def check_envelope(request_text: str, envelope_text: str) -> float:
    """Re-evaluate the envelope's best solution with the reference
    engine; returns the best cost, raises :class:`GateError` on any
    mismatch."""
    from repro.errors import ReproError
    from repro.io import solution_from_dict
    from repro.mapping.evaluator import Evaluator

    request = json.loads(request_text)
    try:
        envelope = json.loads(envelope_text)
        best = envelope["best"]
        application, architecture = _instance_of(request, best)
        solution = solution_from_dict(
            best["solution"], application, architecture
        )
    except (ValueError, KeyError, TypeError, ReproError) as exc:
        raise GateError(f"malformed envelope: {exc!r}") from None
    evaluation = Evaluator(application, architecture, engine="full") \
        .evaluate(solution)
    expected = {name: getattr(evaluation, name) for name in EVALUATION_FIELDS}
    if best["evaluation"] != expected:
        raise GateError(
            f"best.evaluation {best['evaluation']} differs from the "
            f"reference engine's {expected}"
        )
    if envelope["kind"] != request["kind"]:
        raise GateError(
            f"envelope kind {envelope['kind']!r} != {request['kind']!r}"
        )
    return float(best["cost"])


def check_hit(miss_sha256: str, hit_text: str) -> None:
    """A cache hit must serve the bytes its miss wrote (compared by
    SHA-256, so the benchmark keeps no envelope text in memory)."""
    if hashlib.sha256(hit_text.encode("utf-8")).hexdigest() != miss_sha256:
        raise GateError("cache hit body differs from the bytes its miss wrote")


class Gate:
    """Checks each response as it arrives and keeps only what the
    metrics need, dropping the envelope text."""

    def __init__(self) -> None:
        #: Cache key -> SHA-256 of the bytes its miss returned.
        self._written: Dict[str, str] = {}

    def check(self, sample) -> None:
        text, sample.envelope = sample.envelope, None
        if sample.error is not None:
            return
        try:
            if sample.status == "hit":
                check_hit(self._written[sample.key], text)
            else:
                sample.cost = check_envelope(sample.request.text, text)
                if sample.key:
                    self._written[sample.key] = hashlib.sha256(
                        text.encode("utf-8")).hexdigest()
            envelope = json.loads(text)
            sample.evaluations = sum(
                r["evaluations"] for r in envelope["results"]
            )
            sample.digest = envelope_digest(text)
        except (GateError, KeyError) as exc:
            sample.error = f"gate: {exc!r}"
