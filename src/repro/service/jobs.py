"""Job queue and worker pool over the result store.

Lifecycle (all state lives in :class:`~repro.service.store.ResultStore`
files; no broker, no database):

* **submit** (done by the service front door) creates the ``pending``
  record row and drops ``queue/<key>.ticket``;
* **claim** renames the ticket into ``claims/`` — a single ``rename``
  with exactly one winner among racing workers — then stamps the record
  ``running`` (attempt count + worker + claimed timestamp);
* **complete** persists the envelope, stamps the record ``done`` with
  the job's telemetry snapshot absorbed, and removes the claim ticket;
  **fail** stamps ``failed`` with the error message;
* **requeue_stale** is the crash-safety pass: a worker that died
  mid-job leaves a ``running`` record and a stranded claim ticket;
  once ``stale_after_s`` has elapsed the ticket is renamed back into
  the queue and the record returns to ``pending`` for the next worker.
  It also heals the two half-states a crash between renames can leave
  (a pending record with no ticket at all, or with only a claim
  ticket).

Workers execute claimed requests through the one public façade
(:func:`repro.api.facade.explore`), which runs them on the PR 2 search
runner — the service adds persistence and record-keeping, never a
second execution path.  :func:`run_workers` fans N drain-loop workers
across spawn-safe processes, mirroring the runner's pool idiom, and
absorbs each worker's telemetry into the caller's recorder in worker
order.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro.api.facade import ExplorationResponse, explore
from repro.api.specs import ExplorationRequest
from repro.errors import ConfigurationError, ReproError, ServiceError
from repro.obs.telemetry import NULL, Telemetry
from repro.service.store import ResultStore, publish_new

__all__ = [
    "DEFAULT_STALE_AFTER_S",
    "JobQueue",
    "run_workers",
]

#: Default age after which a ``running`` record counts as abandoned.
#: Wide enough that live siblings in a worker pool are never robbed of
#: jobs they are still computing; crash-safety tests pass 0 to requeue
#: immediately.
DEFAULT_STALE_AFTER_S = 600.0


class JobQueue:
    """Submit/claim/complete lifecycle over one store.

    ``telemetry`` receives the service-level counters
    (``job_claimed`` / ``job_completed`` / ``job_failed`` /
    ``job_requeued``) and the ``job_execute`` phase timer; per-job
    search telemetry is recorded by a job-scoped recorder whose
    counters/timers snapshot is absorbed into the record row.
    """

    def __init__(self, store: ResultStore, telemetry=NULL) -> None:
        self.store = store
        self.telemetry = telemetry

    # -- submit side ---------------------------------------------------
    def enqueue(self, key: str) -> bool:
        """Drop the work ticket for ``key``; False if already queued."""
        if not self.store.has_record(key):
            raise ServiceError(f"cannot enqueue {key!r}: no record row")
        return publish_new(self.store.queue_ticket(key), key)

    def pending_keys(self) -> List[str]:
        """Queued keys, oldest ticket first (FIFO-ish claim order)."""
        directory = os.path.join(self.store.root, self.store.QUEUE_DIR)
        entries = []
        for name in os.listdir(directory):
            if not name.endswith(".ticket"):
                continue
            path = os.path.join(directory, name)
            try:
                mtime = os.path.getmtime(path)
            except OSError:
                continue  # claimed between listdir and stat
            entries.append((mtime, name[: -len(".ticket")]))
        return [key for _, key in sorted(entries)]

    def claimed_keys(self) -> List[str]:
        directory = os.path.join(self.store.root, self.store.CLAIMS_DIR)
        return sorted(
            name[: -len(".ticket")]
            for name in os.listdir(directory)
            if name.endswith(".ticket")
        )

    # -- worker side ---------------------------------------------------
    def claim(self, worker: str) -> Optional[str]:
        """Claim one pending job; ``None`` when the queue is empty.

        The rename is the atomic hand-off: among N racing workers
        exactly one succeeds per ticket, everyone else gets
        ``FileNotFoundError`` and moves to the next ticket.
        """
        for key in self.pending_keys():
            try:
                os.rename(
                    self.store.queue_ticket(key),
                    self.store.claim_ticket(key),
                )
            except FileNotFoundError:
                continue  # lost the race for this ticket
            record = self.store.load_record(key)
            record.transition("running", worker=worker)
            self.store.write_record(record)
            self.telemetry.count("job_claimed")
            if self.telemetry.enabled:
                self.telemetry.event("job_claimed", key=key, worker=worker)
            return key
        return None

    def complete(
        self,
        key: str,
        response: ExplorationResponse,
        job_telemetry: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Persist the envelope, stamp ``done``; returns the envelope
        text written (the bytes later cache hits serve back)."""
        text = self.store.put_response(key, response)
        record = self.store.load_record(key)
        record.telemetry = job_telemetry
        record.transition("done", worker=record.worker)
        self.store.write_record(record)
        self._drop_claim(key)
        self.telemetry.count("job_completed")
        if self.telemetry.enabled:
            self.telemetry.event("job_completed", key=key)
        return text

    def fail(self, key: str, error: str) -> None:
        record = self.store.load_record(key)
        record.transition("failed", worker=record.worker, error=error)
        self.store.write_record(record)
        self._drop_claim(key)
        self.telemetry.count("job_failed")
        if self.telemetry.enabled:
            self.telemetry.event("job_failed", key=key, error=error)

    def _drop_claim(self, key: str) -> None:
        try:
            os.unlink(self.store.claim_ticket(key))
        except FileNotFoundError:
            pass

    # -- crash safety --------------------------------------------------
    def requeue_stale(
        self,
        stale_after_s: float = DEFAULT_STALE_AFTER_S,
        now: Optional[float] = None,
    ) -> List[str]:
        """Return abandoned jobs to the queue; lists the keys requeued.

        A ``running`` record whose claim is older than ``stale_after_s``
        is assumed dead (its worker crashed mid-job): the claim ticket
        is renamed back into the queue (or recreated if the crash ate
        it) and the record transitions back to ``pending``, keeping its
        attempt count and probe history.  Pending records that lost
        their ticket to a crash between renames are re-ticketed too.
        """
        now = time.time() if now is None else now
        requeued: List[str] = []
        for record in self.store.iter_records():
            if record.status == "running":
                anchor = record.claimed_ts or record.created_ts
                if now - anchor < stale_after_s:
                    continue
                self._restore_ticket(record.key)
                record.transition(
                    "pending",
                    error=f"requeued: stale claim by {record.worker!r}",
                    now=now,
                )
                self.store.write_record(record)
                requeued.append(record.key)
                self.telemetry.count("job_requeued")
                if self.telemetry.enabled:
                    self.telemetry.event("job_requeued", key=record.key)
            elif record.status == "pending":
                if now - record.created_ts < stale_after_s:
                    continue
                if not os.path.exists(self.store.queue_ticket(record.key)):
                    self._restore_ticket(record.key)
        return requeued

    def _restore_ticket(self, key: str) -> None:
        """Claim ticket back to the queue, or a fresh ticket if lost."""
        try:
            os.rename(
                self.store.claim_ticket(key), self.store.queue_ticket(key)
            )
        except FileNotFoundError:
            publish_new(self.store.queue_ticket(key), key)

    # -- execution -----------------------------------------------------
    def execute(self, key: str, jobs: int = 1) -> ExplorationResponse:
        """Run the claimed request through the façade and complete it.

        The job gets its own :class:`Telemetry` recorder; its
        counters/gauges/timers snapshot is absorbed into the record row
        so ``repro serve status`` shows the run's internals without a
        separate stream file.  A :class:`~repro.errors.ReproError`
        marks the record ``failed`` and re-raises.
        """
        record = self.store.load_record(key)
        if record.status != "running":
            raise ServiceError(
                f"cannot execute {key!r}: record is {record.status!r}, "
                f"not 'running' (claim it first)"
            )
        job_telemetry = Telemetry(label=f"job:{key[:12]}")
        try:
            request = ExplorationRequest.from_dict(record.request)
            with self.telemetry.phase("job_execute"):
                response = explore(
                    request, jobs=jobs, telemetry=job_telemetry
                )
        except ReproError as exc:
            self.fail(key, f"{type(exc).__name__}: {exc}")
            raise
        except Exception as exc:  # unexpected: capture the traceback
            self.fail(key, traceback.format_exc())
            raise ServiceError(
                f"job {key!r} crashed: {type(exc).__name__}: {exc}"
            ) from exc
        block = job_telemetry.snapshot()
        block["label"] = job_telemetry.label
        block["events"] = len(job_telemetry.events)
        self.complete(key, response, job_telemetry=block)
        return response

    def drain(
        self,
        worker: str = "local",
        jobs: int = 1,
        max_jobs: Optional[int] = None,
    ) -> int:
        """Claim-and-execute until the queue is empty; jobs executed.

        A failed job is recorded (``failed`` row, ``job_failed``
        counter) and the drain moves on — one poisoned request must not
        wedge the worker.
        """
        executed = 0
        while max_jobs is None or executed < max_jobs:
            key = self.claim(worker)
            if key is None:
                return executed
            try:
                self.execute(key, jobs=jobs)
            except ReproError:
                continue  # recorded as failed; keep draining
            executed += 1
        return executed


# ----------------------------------------------------------------------
# the worker pool
# ----------------------------------------------------------------------
def _worker_main(
    root: str,
    worker: str,
    jobs: int,
    max_jobs: Optional[int],
) -> Tuple[int, Dict[str, Any]]:
    """Worker entry point (top-level, hence spawn-picklable)."""
    telemetry = Telemetry(label=worker)
    queue = JobQueue(ResultStore(root, create=False), telemetry=telemetry)
    executed = queue.drain(worker=worker, jobs=jobs, max_jobs=max_jobs)
    return executed, telemetry.export()


def run_workers(
    root: str,
    workers: int = 2,
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
    jobs: int = 1,
    max_jobs: Optional[int] = None,
    telemetry=NULL,
    start_method: str = "spawn",
) -> int:
    """Drain the store's queue with ``workers`` processes; jobs executed.

    Stale ``running`` records are requeued once, here, before any
    worker starts (crash recovery) — doing it per worker would let a
    late-starting worker rob a live sibling's fresh claim under small
    ``stale_after_s`` values.  Then the workers drain until the queue
    is empty.  ``workers=1`` runs inline — no pool, easiest to debug.
    Worker telemetry (service counters, ``job_execute`` timers, job
    events) is absorbed into ``telemetry`` in worker-index order, the
    runner's deterministic merge idiom.
    """
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    JobQueue(
        ResultStore(root, create=False), telemetry=telemetry
    ).requeue_stale(stale_after_s)
    if workers == 1:
        executed, payload = _worker_main(
            root, "worker-0", jobs, max_jobs
        )
        if telemetry.enabled:
            telemetry.absorb(0, "worker-0", payload)
        return executed
    import multiprocessing

    context = multiprocessing.get_context(start_method)
    executed = 0
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=context
    ) as pool:
        futures = [
            pool.submit(
                _worker_main,
                root, f"worker-{index}", jobs, max_jobs,
            )
            for index in range(workers)
        ]
        for index, future in enumerate(futures):
            count, payload = future.result()
            executed += count
            if telemetry.enabled:
                telemetry.absorb(index, f"worker-{index}", payload)
    return executed
