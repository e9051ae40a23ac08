"""Self-tests of the benchmark, at a tiny size per workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import gate
import inputs
import tracing
import workloads

ROOT = workloads.ROOT
WORKLOADS = ("cli_cold", "search_long", "serve_mixed")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


# ----------------------------------------------------------------------
# every metric is emitted by name with its unit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_emitted_with_unit(workload, trace):
    spec = _benchmark()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    result, lines = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        assert any(line.startswith(f"metric {m['name']} ") and
                   line.endswith(f" {m['unit']}") for line in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_file_matches_the_code():
    spec = _benchmark()
    from run import END_TO_END

    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in tracing.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_same_seed_same_digests():
    digests = []
    for _ in range(2):
        _, lines = _run("serve_mixed", 0, seed=5)
        digests.append([l for l in lines if "_sha256 " in l])
    assert len(digests[0]) == 2 and digests[0] == digests[1]


# ----------------------------------------------------------------------
# the correctness gate
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served():
    request = next(inputs.search_long(1, tiny=True))
    client = workloads.SearchClient(workdir="")
    return request.text, client.send(request).envelope


def test_gate_accepts_a_correct_envelope(served):
    text, envelope = served
    cost = gate.check_envelope(text, envelope)
    assert cost == json.loads(envelope)["best"]["cost"]


def test_gate_rejects_tampered_makespan(served):
    text, envelope = served
    doc = json.loads(envelope)
    doc["best"]["evaluation"]["makespan_ms"] *= 0.5
    with pytest.raises(gate.GateError):
        gate.check_envelope(text, json.dumps(doc, indent=2))


def test_gate_rejects_tampered_hit_body(served):
    import hashlib

    _, envelope = served
    written = hashlib.sha256(envelope.encode("utf-8")).hexdigest()
    gate.check_hit(written, envelope)
    with pytest.raises(gate.GateError):
        gate.check_hit(written, envelope.replace('"best"', '"best" ', 1))


def test_gate_counts_failures_on_samples(served):
    text, envelope = served
    request = inputs.Request(0, 0, "x", "single", "sa", text)
    checker = gate.Gate()
    good = workloads.Sample(request, 1.0, envelope=envelope, key="k")
    checker.check(good)
    assert good.error is None and good.envelope is None
    assert good.evaluations > 0 and good.digest
    tampered = json.loads(envelope)
    tampered["best"]["evaluation"]["makespan_ms"] += 1.0
    bad = workloads.Sample(request, 1.0, envelope=json.dumps(tampered))
    checker.check(bad)
    assert bad.error is not None
    hit = workloads.Sample(request, 1.0, envelope=envelope + " ",
                           status="hit", key="k")
    checker.check(hit)
    assert hit.error is not None


def test_digest_ignores_times_and_environment(served):
    _, envelope = served
    doc = json.loads(envelope)
    doc["environment"]["platform"] = "elsewhere"
    doc["results"][0]["runtime_s"] += 1.0
    assert gate.envelope_digest(envelope) == \
        gate.envelope_digest(json.dumps(doc))
    doc["best"]["cost"] += 1.0
    assert gate.envelope_digest(envelope) != \
        gate.envelope_digest(json.dumps(doc))


# ----------------------------------------------------------------------
# traced spans nest
# ----------------------------------------------------------------------
def _assert_nested(tracer: tracing.Tracer) -> None:
    assert len(tracer) > 0
    for index in range(len(tracer)):
        assert tracer.end[index] >= tracer.start[index]
        up = tracer.parent[index]
        if up >= 0:
            assert tracer.start[up] <= tracer.start[index]
            assert tracer.end[index] <= tracer.end[up]
            assert tracer.request[index] == tracer.request[up]
    assert min(tracer.self_times()) >= -1e-9


@pytest.mark.parametrize("workload", ("search_long", "serve_mixed"))
def test_spans_nest_in_process(workload, tmp_path):
    tracer = tracing.Tracer()
    client = workloads.CLIENTS[workload](str(tmp_path), tracer)
    uninstall = tracing.install(tracer)
    try:
        stream = inputs.STREAMS[workload](2, tiny=True)
        samples = workloads.run_loop(client, stream, 0, gate.Gate().check)
    finally:
        uninstall()
    assert all(s.error is None for s in samples)
    _assert_nested(tracer)
    roots = [i for i, n in enumerate(tracer.names) if n == tracing.REQUEST]
    assert len(roots) == len(samples)
    assert all(tracer.parent[i] == -1 for i in roots)
    layers = {tracing.layer_of(n) for n in tracer.names}
    assert {"api.specs", "api.resolve", "sa.moves",
            "mapping.evaluator"} <= layers


def test_spans_nest_across_the_cli_process(tmp_path):
    tracer = tracing.Tracer()
    client = workloads.CliClient(str(tmp_path), tracer)
    request = next(inputs.cli_cold(2, tiny=True))
    sample = client.send(request)
    gate.check_envelope(request.text, sample.envelope)
    _assert_nested(tracer)
    names = set(tracer.names)
    assert {"request", "startup:import", "cli:main",
            "api.facade:explore"} <= names


def test_install_restores_every_target():
    from repro.mapping.evaluator import Evaluator

    original = Evaluator.evaluate
    uninstall = tracing.install(tracing.Tracer())
    assert Evaluator.evaluate is not original
    uninstall()
    assert Evaluator.evaluate is original
