"""The three workloads: closed loops with one client each.

Each workload is a *client* object with ``send(request) -> Sample``:
it times one request from issuing it to holding the response envelope
bytes, and notes what the correctness gate needs afterwards.  Input
preparation (writing a spec file, picking the request) happens before
the clock starts; checking happens after the loop.

* ``cli_cold``: one ``python -m repro explore --spec F --json`` child
  process per request (traced: ``perfbench/child.py cli``);
* ``search_long``: ``repro.api.facade.explore(jobs=1)`` in this process;
* ``serve_mixed``: ``ExplorationService.submit`` on a fresh store; a miss
  is followed by ``run_local()`` and a read of the result bytes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from inputs import WINDOW_ROUNDS, Request
from tracing import REQUEST, Tracer, clock, paused

HERE = os.path.dirname(os.path.abspath(__file__))
#: The checkout the benchmark runs in, and the sources it measures.
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


@dataclass
class Sample:
    """One served request."""

    request: Request
    latency: float
    #: The response bytes, until the gate has checked them.
    envelope: Optional[str] = None
    #: ``serve_mixed``: the submit outcome status and the cache key.
    status: str = ""
    key: str = ""
    error: Optional[str] = None
    #: Filled in by the gate: best cost, summed ``results[].evaluations``
    #: and the envelope's digest without volatile fields.
    cost: float = 0.0
    evaluations: int = 0
    digest: str = ""


class Client:
    """Base client: ``send`` wraps ``_serve`` in the request span."""

    def __init__(self, workdir: str, tracer: Optional[Tracer] = None):
        self.workdir = workdir
        self.tracer = tracer

    def send(self, request: Request) -> Sample:
        self._prepare(request)
        tracer = self.tracer
        span = -1
        if tracer is not None:
            tracer.request_id = request.index
            span = tracer.open(REQUEST)
        start = clock()
        try:
            sample = self._serve(request)
        finally:
            latency = clock() - start
            if tracer is not None:
                tracer.close(span)
        sample.latency = latency
        if tracer is not None:
            self._after_trace(request, span)
        return sample

    def _prepare(self, request: Request) -> None:
        pass

    def _after_trace(self, request: Request, span: int) -> None:
        pass


# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    """Environment for child interpreters: this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class CliClient(Client):
    """One CLI process per request."""

    def __init__(self, workdir: str, tracer: Optional[Tracer] = None):
        super().__init__(workdir, tracer)
        self.env = child_env()

    def _paths(self, request: Request):
        base = os.path.join(self.workdir, f"req{request.index}")
        return base + ".json", base + ".spans"

    def _prepare(self, request: Request) -> None:
        spec, _ = self._paths(request)
        with open(spec, "w", encoding="utf-8") as handle:
            handle.write(request.text)

    def _serve(self, request: Request) -> Sample:
        spec, spans = self._paths(request)
        args = ["explore", "--spec", spec, "--json"]
        if self.tracer is None:
            argv = [sys.executable, "-m", "repro"] + args
        else:
            argv = [sys.executable, os.path.join(HERE, "child.py"), "cli",
                    spans] + args
        start = clock()
        with subprocess.Popen(argv, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=self.env) as proc:
            try:
                out, err = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if self.tracer is not None:
            self.tracer.count("cli.process_s", clock() - start)
        if proc.returncode != 0:
            raise RuntimeError(
                f"CLI exited {proc.returncode}: {err.decode()[-500:]}"
            )
        return Sample(request, 0.0, envelope=out.decode("utf-8"))

    def _after_trace(self, request: Request, span: int) -> None:
        _, spans = self._paths(request)
        self.tracer.absorb(Tracer.read(spans), parent=span)
        os.unlink(spans)


class SearchClient(Client):
    """``repro.api.facade.explore`` in this process."""

    def _serve(self, request: Request) -> Sample:
        from repro.api import facade
        from repro.api.specs import ExplorationRequest

        response = facade.explore(
            ExplorationRequest.from_json(request.text), jobs=1
        )
        return Sample(request, 0.0, envelope=response.to_json())


class ServeClient(Client):
    """``ExplorationService`` on a fresh store under ``workdir``."""

    def __init__(self, workdir: str, tracer: Optional[Tracer] = None):
        super().__init__(workdir, tracer)
        from repro.service.service import ExplorationService

        self.service = ExplorationService(os.path.join(workdir, "store"))

    def _serve(self, request: Request) -> Sample:
        from repro.api.specs import ExplorationRequest

        outcome = self.service.submit(ExplorationRequest.from_json(request.text))
        if outcome.status == "hit":
            text = outcome.response_text
        else:
            self.service.run_local()
            text = self.service.store.response_text(outcome.key)
        expected = "hit" if request.mode == "hit" else "queued"
        error = None
        if outcome.status != expected:
            error = f"submit returned {outcome.status!r}, expected {expected!r}"
        return Sample(request, 0.0, envelope=text, status=outcome.status,
                      key=outcome.key, error=error)


CLIENTS = {
    "cli_cold": CliClient,
    "search_long": SearchClient,
    "serve_mixed": ServeClient,
}


# ----------------------------------------------------------------------
def run_loop(
    client: Client,
    stream: Iterator[Request],
    seconds: float,
    check: Callable[[Sample], None],
    hard_limit_s: float = 140.0,
) -> List[Sample]:
    """Closed loop over whole rounds: at least :data:`WINDOW_ROUNDS`,
    then more until ``seconds`` have passed.  ``check`` (the gate) runs
    after each request, off the clock and untraced.  ``hard_limit_s``
    cuts a round short only on a machine far slower than the sizing
    assumes."""
    samples: List[Sample] = []
    start = clock()
    for request in stream:
        if request.round >= WINDOW_ROUNDS:
            elapsed = clock() - start
            new_round = request.round != samples[-1].request.round
            if (new_round and elapsed >= seconds) or elapsed > hard_limit_s:
                break
        try:
            sample = client.send(request)
        except Exception as exc:  # a failed request is counted, not fatal
            sample = Sample(request, 0.0, error=f"{type(exc).__name__}: {exc}")
        with paused(client.tracer):
            check(sample)
        samples.append(sample)
    return samples


def replay(client: Client, requests: List[Request]) -> List[float]:
    """Latencies of ``requests`` sent in order (no time bound)."""
    return [client.send(request).latency for request in requests]


def setup_probe(workload: str, store_dir: str) -> Dict[str, float]:
    """One fresh interpreter made ready for ``workload``: wall time from
    spawn to its ready line, plus what it measured inside."""
    argv = [sys.executable, os.path.join(HERE, "child.py"), "setup",
            workload, store_dir]
    start = clock()
    with subprocess.Popen(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=child_env()) as proc:
        try:
            line = proc.stdout.readline()
            ready = clock() - start
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"setup probe failed: {err.decode()[-500:]}")
    probe = json.loads(line)
    probe["setup_s"] = ready
    return probe
