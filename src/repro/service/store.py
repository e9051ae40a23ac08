"""Content-addressed result store: persisted envelopes + record rows.

The store is the persistence layer of the exploration service.  Its
unit of identity is the **cache key**

    sha256(request.content_hash() + ":" + instance_hash)

where :meth:`~repro.api.specs.ExplorationRequest.content_hash` is the
SHA-256 of the canonical request JSON and ``instance_hash`` is the
SHA-256 of the *resolved* problem instance's canonical bundled document
(the same digest :func:`repro.bench.corpus.scenario_hash` assigns to
corpus scenarios).  The request hash alone would miss path-referencing
specs whose file content changed underneath the path; composing it with
the materialized instance binds the key to what would actually run.

On-disk layout (JSON files + atomic rename, no external database)::

    <root>/
      records/<key>.json    one JobRecord row per key (status, probe
                            history, timestamps, attempts, environment)
      results/<key>.json    the ExplorationResponse envelope, written
                            once when a job completes
      queue/<key>.ticket    pending work (claiming renames it away)
      claims/<key>.ticket   work owned by a worker (crash-safe: a stale
                            claim is renamed back into queue/)

No file is ever written in place.  New content goes to a temp file
(``<name>.tmp.<pid>.<thread>``) in the same directory and is fsynced
before it becomes visible: an update is ``os.replace``-d over the
target, and a *new* file (a record row, a queue ticket) is published
with ``os.link``, which fails with ``EEXIST`` atomically when the target
exists.  A reader therefore sees a whole file or none: the previous
version or the new one, never a partial write.  Publishing by link is
the store's one point of mutual exclusion — exactly one of N racing
submitters creates the row, everyone else reads the winner's complete
row (the dedupe guarantee of the service).  A writer that crashes
between the temp write and the publish leaves a ``*.tmp.*`` file
behind; :meth:`repro.service.service.ExplorationService.gc` sweeps
those.  The record/probe-history idiom follows the persistent mirror
records of Launchpad's ``distributionmirror.py`` (see SNIPPETS.md #3):
each row keeps its full state-transition history next to the current
freshness state.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.api.facade import ExplorationResponse, environment_stamp
from repro.api.specs import ExplorationRequest
from repro.errors import ConfigurationError, ServiceError

__all__ = [
    "RECORD_FORMAT",
    "RECORD_SCHEMA_VERSION",
    "RECORD_STATES",
    "InstanceInfo",
    "JobRecord",
    "ResultStore",
    "compose_cache_key",
    "instance_hash_for",
    "instance_info_for",
]

RECORD_FORMAT = "exploration-record"
RECORD_SCHEMA_VERSION = 1

#: Record lifecycle: ``pending`` (queued, unclaimed) → ``running``
#: (claimed by a worker) → ``done`` (envelope persisted) or ``failed``
#: (error captured).  A stale ``running`` record is requeued back to
#: ``pending`` by :meth:`repro.service.jobs.JobQueue.requeue_stale`.
RECORD_STATES = ("pending", "running", "done", "failed")


@dataclass(frozen=True)
class InstanceInfo:
    """Everything one resolution of a request's problem instance yields:
    the content digest (cache-key component), the structure-only digest
    (warm-start near-index key) and the canonical bundled document."""

    instance_hash: str
    structure_hash: str
    document: Dict[str, Any]


def instance_info_for(request: ExplorationRequest) -> InstanceInfo:
    """Resolve the request's problem instance once and digest it twice.

    ``instance_hash`` is the canonical-document SHA-256 of
    :func:`repro.bench.corpus.scenario_hash` (service cache keys and
    bench corpus identities share one digest vocabulary);
    ``structure_hash`` is :func:`repro.io.structure_digest` — topology
    plus resource kinds only, ignoring every numeric field — the key of
    the warm-start ``near/`` secondary index.  For sweep requests (whose
    per-cell platforms are derived from ``sizes``) both bind the base
    problem; the grid itself is covered by the request hash.
    """
    from repro.api.resolve import resolve_application, resolve_architecture
    from repro.bench.corpus import scenario_hash
    from repro.io import ProblemInstance, instance_to_dict, structure_digest

    problem = resolve_application(request.application)
    architecture = resolve_architecture(
        request.architecture, bundled=problem.architecture
    )
    deadline = request.deadline_ms
    if deadline is None:
        deadline = problem.deadline_ms
    instance = ProblemInstance(
        application=problem.application,
        architecture=architecture,
        deadline_ms=deadline,
    )
    document = instance_to_dict(instance)
    return InstanceInfo(
        instance_hash=scenario_hash(instance),
        structure_hash=structure_digest(document),
        document=document,
    )


def instance_hash_for(request: ExplorationRequest) -> str:
    """SHA-256 of the request's *resolved* problem instance (the
    cache-key component; see :func:`instance_info_for`)."""
    return instance_info_for(request).instance_hash


def compose_cache_key(request_hash: str, instance_hash: str) -> str:
    """The store key: SHA-256 over both component digests."""
    return hashlib.sha256(
        f"{request_hash}:{instance_hash}".encode("ascii")
    ).hexdigest()


# ----------------------------------------------------------------------
# the record row
# ----------------------------------------------------------------------
@dataclass
class JobRecord:
    """One persisted row per cache key: state, provenance, history.

    ``history`` is the append-only probe log — every transition appends
    ``{"ts", "status", "worker"?, "error"?}``, so a record tells the
    whole story of its job (submitted, claimed, requeued after a crash,
    completed) without consulting any other file.
    """

    key: str
    request_hash: str
    instance_hash: str
    request: Dict[str, Any]
    status: str = "pending"
    created_ts: float = 0.0
    claimed_ts: Optional[float] = None
    completed_ts: Optional[float] = None
    attempts: int = 0
    hits: int = 0
    worker: Optional[str] = None
    error: Optional[str] = None
    environment: Dict[str, Any] = field(default_factory=environment_stamp)
    #: Counters/timers snapshot of the job's own telemetry recorder,
    #: absorbed at completion (``None`` until then).
    telemetry: Optional[Dict[str, Any]] = None
    #: Structure-only digest of the resolved instance (the ``near/``
    #: secondary-index key this record is filed under).
    structure_hash: Optional[str] = None
    #: Warm-start provenance, set when submit seeded this job from a
    #: donor record: ``{"donor", "delta", "repairs"}``.
    warm_start: Optional[Dict[str, Any]] = None
    history: List[Dict[str, Any]] = field(default_factory=list)

    def transition(
        self,
        status: str,
        worker: Optional[str] = None,
        error: Optional[str] = None,
        now: Optional[float] = None,
    ) -> None:
        """Move to ``status`` and append the probe-history entry."""
        if status not in RECORD_STATES:
            raise ConfigurationError(
                f"unknown record status {status!r}; "
                f"known: {list(RECORD_STATES)}"
            )
        now = time.time() if now is None else now
        self.status = status
        if status == "running":
            self.claimed_ts = now
            self.attempts += 1
            self.worker = worker
            self.error = None
        elif status in ("done", "failed"):
            self.completed_ts = now
            self.error = error
        else:  # pending (initial creation or requeue)
            self.worker = None
            self.error = error
        entry: Dict[str, Any] = {"ts": now, "status": status}
        if worker is not None:
            entry["worker"] = worker
        if error is not None:
            entry["error"] = error
        self.history.append(entry)

    # -- (de)serialization ---------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": RECORD_FORMAT,
            "schema_version": RECORD_SCHEMA_VERSION,
            "key": self.key,
            "request_hash": self.request_hash,
            "instance_hash": self.instance_hash,
            "status": self.status,
            "created_ts": self.created_ts,
            "claimed_ts": self.claimed_ts,
            "completed_ts": self.completed_ts,
            "attempts": self.attempts,
            "hits": self.hits,
            "worker": self.worker,
            "error": self.error,
            "environment": dict(self.environment),
            "telemetry": self.telemetry,
            "structure_hash": self.structure_hash,
            "warm_start": self.warm_start,
            "history": list(self.history),
            "request": self.request,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        if data.get("format") != RECORD_FORMAT:
            raise ServiceError(
                f"expected a {RECORD_FORMAT!r} document, "
                f"got {data.get('format')!r}"
            )
        version = data.get("schema_version")
        if not isinstance(version, int) or version > RECORD_SCHEMA_VERSION:
            raise ServiceError(
                f"unsupported record schema_version {version!r} "
                f"(this library understands <= {RECORD_SCHEMA_VERSION})"
            )
        status = data.get("status")
        if status not in RECORD_STATES:
            raise ServiceError(
                f"record {data.get('key')!r} has unknown status {status!r}"
            )
        return cls(
            key=data["key"],
            request_hash=data["request_hash"],
            instance_hash=data["instance_hash"],
            request=dict(data["request"]),
            status=status,
            created_ts=data.get("created_ts", 0.0),
            claimed_ts=data.get("claimed_ts"),
            completed_ts=data.get("completed_ts"),
            attempts=data.get("attempts", 0),
            hits=data.get("hits", 0),
            worker=data.get("worker"),
            error=data.get("error"),
            environment=dict(data.get("environment", {})),
            telemetry=data.get("telemetry"),
            structure_hash=data.get("structure_hash"),
            warm_start=data.get("warm_start"),
            history=list(data.get("history", [])),
        )


# ----------------------------------------------------------------------
# file publishing
# ----------------------------------------------------------------------
#: Marker in the name of a file not yet published (see :func:`is_temp`).
_TEMP_MARKER = ".tmp."


def is_temp(name: str) -> bool:
    """Whether a store file name is an unpublished temp file."""
    return _TEMP_MARKER in name


def _write_temp(path: str, text: str) -> str:
    """Write ``text`` to a temp file next to ``path`` and fsync it;
    returns the temp path.  The name is unique per process and thread,
    so concurrent writers of one target never share a temp file."""
    tmp = f"{path}{_TEMP_MARKER}{os.getpid()}.{threading.get_ident()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    return tmp


def publish_new(path: str, text: str) -> bool:
    """Create ``path`` holding ``text`` unless it exists; False when
    another writer got there first.

    The whole content is written and fsynced to a temp file, then
    ``os.link``-ed to ``path``.  The link fails with ``EEXIST``
    atomically, so a reader never sees ``path`` empty or partial, and
    of N racing writers exactly one wins.  The temp file is unlinked
    either way.
    """
    tmp = _write_temp(path, text)
    try:
        os.link(tmp, path)
    except FileExistsError:
        return False
    finally:
        os.unlink(tmp)
    return True


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class ResultStore:
    """Filesystem-backed content-addressed store (records + envelopes).

    All methods are safe to call from any number of processes sharing
    ``root``: reads parse whole files (writes are published by rename
    or link, never in place), record creation is exclusive (first
    ``link`` wins), and queue/claim ticket moves are single ``rename``
    calls with exactly one winner.
    """

    RECORDS_DIR = "records"
    RESULTS_DIR = "results"
    QUEUE_DIR = "queue"
    CLAIMS_DIR = "claims"
    #: Warm-start support: ``instances/<instance_hash>.json`` holds the
    #: resolved instance document; ``near/<structure_hash>/<key>``
    #: marker files index records by structure-only digest, so a submit
    #: can find completed runs on structurally-identical instances
    #: without scanning every record.
    INSTANCES_DIR = "instances"
    NEAR_DIR = "near"

    def __init__(self, root: str, create: bool = True) -> None:
        self.root = os.path.abspath(root)
        if create:
            for name in (
                self.RECORDS_DIR, self.RESULTS_DIR,
                self.QUEUE_DIR, self.CLAIMS_DIR,
                self.INSTANCES_DIR, self.NEAR_DIR,
            ):
                os.makedirs(os.path.join(self.root, name), exist_ok=True)
        elif not os.path.isdir(os.path.join(self.root, self.RECORDS_DIR)):
            raise ServiceError(
                f"no exploration store at {self.root!r} "
                f"(missing {self.RECORDS_DIR}/)"
            )

    # -- paths ---------------------------------------------------------
    def record_path(self, key: str) -> str:
        return os.path.join(self.root, self.RECORDS_DIR, f"{key}.json")

    def result_path(self, key: str) -> str:
        return os.path.join(self.root, self.RESULTS_DIR, f"{key}.json")

    def queue_ticket(self, key: str) -> str:
        return os.path.join(self.root, self.QUEUE_DIR, f"{key}.ticket")

    def claim_ticket(self, key: str) -> str:
        return os.path.join(self.root, self.CLAIMS_DIR, f"{key}.ticket")

    def instance_path(self, instance_hash: str) -> str:
        return os.path.join(
            self.root, self.INSTANCES_DIR, f"{instance_hash}.json"
        )

    def near_marker(self, structure_hash: str, key: str) -> str:
        return os.path.join(self.root, self.NEAR_DIR, structure_hash, key)

    # -- keys ----------------------------------------------------------
    def cache_key_info(
        self, request: ExplorationRequest
    ) -> Tuple[str, str, InstanceInfo]:
        """``(key, request_hash, instance info)`` — one resolution pass
        yields the cache key *and* the warm-start index inputs."""
        request_hash = request.content_hash()
        info = instance_info_for(request)
        return (
            compose_cache_key(request_hash, info.instance_hash),
            request_hash,
            info,
        )

    def cache_key(self, request: ExplorationRequest) -> Tuple[str, str, str]:
        """``(key, request_hash, instance_hash)`` for a request."""
        key, request_hash, info = self.cache_key_info(request)
        return key, request_hash, info.instance_hash

    # -- atomic write --------------------------------------------------
    def _atomic_write(self, path: str, text: str) -> None:
        os.replace(_write_temp(path, text), path)

    # -- records -------------------------------------------------------
    def create_record(
        self, key: str, request_hash: str, instance_hash: str,
        request_document: Dict[str, Any],
    ) -> Tuple[JobRecord, bool]:
        """Create the row for ``key`` if absent; ``(record, created)``.

        The row is published with :func:`publish_new`, so exactly one
        of N racing creators wins and the losers re-read the winner's
        complete row.  The row is born ``pending`` with its first
        probe-history entry.  An existing row is read straight away:
        cache hits and in-flight dedupes, the common submits, write
        (and fsync) nothing here.
        """
        if self.has_record(key):
            return self.load_record(key), False
        record = JobRecord(
            key=key,
            request_hash=request_hash,
            instance_hash=instance_hash,
            request=request_document,
            created_ts=time.time(),
        )
        record.transition("pending", now=record.created_ts)
        text = json.dumps(record.to_dict(), indent=2)
        if not publish_new(self.record_path(key), text):
            return self.load_record(key), False
        return record, True

    def load_record(self, key: str) -> JobRecord:
        path = self.record_path(key)
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            raise ServiceError(f"no record for key {key!r}") from None
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"record {path!r} is not valid JSON: {exc}"
            ) from None
        return JobRecord.from_dict(data)

    def has_record(self, key: str) -> bool:
        return os.path.exists(self.record_path(key))

    def write_record(self, record: JobRecord) -> None:
        self._atomic_write(
            self.record_path(record.key),
            json.dumps(record.to_dict(), indent=2),
        )

    def list_keys(self) -> List[str]:
        directory = os.path.join(self.root, self.RECORDS_DIR)
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(directory)
            if name.endswith(".json")
        )

    def iter_records(self) -> Iterator[JobRecord]:
        for key in self.list_keys():
            yield self.load_record(key)

    def delete_record(self, key: str) -> None:
        structure_hash = None
        try:
            structure_hash = self.load_record(key).structure_hash
        except ServiceError:
            pass
        paths = [
            self.record_path(key), self.result_path(key),
            self.queue_ticket(key), self.claim_ticket(key),
        ]
        if structure_hash is not None:
            paths.append(self.near_marker(structure_hash, key))
        for path in paths:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass

    # -- warm-start index ----------------------------------------------
    def put_instance(
        self, instance_hash: str, document: Dict[str, Any]
    ) -> None:
        """Persist the resolved instance document (content-addressed:
        an existing file is already byte-equivalent, skip the write)."""
        path = self.instance_path(instance_hash)
        if os.path.exists(path):
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self._atomic_write(
            path, json.dumps(document, sort_keys=True, indent=2)
        )

    def instance_document(self, instance_hash: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self.instance_path(instance_hash), encoding="utf-8") as handle:
                return json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def index_near(self, structure_hash: str, key: str) -> None:
        """File ``key`` under the structure-only digest (idempotent)."""
        marker = self.near_marker(structure_hash, key)
        os.makedirs(os.path.dirname(marker), exist_ok=True)
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(fd)

    def near_keys(self, structure_hash: str) -> List[str]:
        """Record keys filed under ``structure_hash``, sorted."""
        directory = os.path.join(self.root, self.NEAR_DIR, structure_hash)
        try:
            return sorted(os.listdir(directory))
        except FileNotFoundError:
            return []

    # -- envelopes -----------------------------------------------------
    def put_response(self, key: str, response: ExplorationResponse) -> str:
        """Persist the envelope; returns the exact text written (the
        bytes a later cache hit serves back)."""
        text = response.to_json()
        self._atomic_write(self.result_path(key), text)
        return text

    def response_text(self, key: str) -> str:
        try:
            with open(self.result_path(key), encoding="utf-8") as handle:
                return handle.read()
        except FileNotFoundError:
            raise ServiceError(f"no result envelope for key {key!r}") from None

    def get_response(self, key: str) -> ExplorationResponse:
        return ExplorationResponse.from_json(self.response_text(key))

    def has_response(self, key: str) -> bool:
        return os.path.exists(self.result_path(key))
