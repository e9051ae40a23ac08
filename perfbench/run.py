"""End-to-end exploration benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the same inputs with layer wrappers installed and
reports the per-layer metrics (``perfbench/README.md`` lists both, and
which end-to-end metric each layer should move).  Every response is
checked against the reference engine.  The human-readable report goes to
stdout; its last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 0 only when every request
succeeded and passed the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from typing import Dict, List, Tuple

from workloads import ROOT, SRC

#: End-to-end metrics: (name, unit).  Emitted by every untraced run.
END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("sa_evals_per_s", "evals/s"),
    ("tempering_evals_per_s", "evals/s"),
    ("best_cost_mean", "cost"),
    ("peak_rss_mb", "MB"),
)

#: Set-up probes per run, half before and half after the loop so that
#: their median spans the run; ``setup_s`` is that median.
SETUP_PROBES = 8

#: Where runs keep their scratch files and span/record outputs.
OUT_DIR = os.path.join(ROOT, ".perfbench")


def _import_repro() -> None:
    """Import the checkout's ``repro``; exit 2 if it is missing."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) \
            != os.path.abspath(SRC):
        print(f"error: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail(values: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, but
    not below the median: ``(value, percentile)``."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _rate(samples, strategy: str) -> float:
    """Summed ``results[].evaluations`` over the wall time of the
    requests that ran ``strategy`` (service hits run nothing)."""
    ran = [s for s in samples
           if s.request.strategy == strategy and s.status != "hit"]
    wall = sum(s.latency for s in ran)
    return sum(s.evaluations for s in ran) / wall if wall else 0.0


def _window(samples):
    from inputs import WINDOW_ROUNDS

    return [s for s in samples if s.request.round < WINDOW_ROUNDS]


def _digests(samples) -> Dict[str, str]:
    from gate import result_digest

    window = _window(samples)
    return {
        "inputs_sha256": result_digest(s.request.sha256 for s in window),
        "results_sha256": result_digest(s.digest for s in window),
    }


def end_to_end(workload: str, samples, setup: List[float]) -> Dict[str, float]:
    ok = [s for s in samples if s.error is None]
    latencies = [s.latency for s in ok]
    distinct = [s for s in _window(ok) if s.status != "hit"]
    if workload == "cli_cold":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": _median(setup),
        "requests_per_s": len(ok) / sum(latencies) if latencies else 0.0,
        "latency_p50_s": _median(latencies),
        "latency_tail_s": tail(latencies)[0] if latencies else 0.0,
        "sa_evals_per_s": _rate(ok, "sa"),
        "tempering_evals_per_s": _rate(ok, "tempering"),
        "best_cost_mean": statistics.fmean(s.cost for s in distinct)
        if distinct else 0.0,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def report_lines(workload: str, samples) -> List[str]:
    """Context printed above the metrics: the tail's percentile, the
    failure share, service latencies by kind, digests."""
    ok = [s for s in samples if s.error is None]
    lines = []
    if ok:
        value, pct = tail([s.latency for s in ok])
        lines.append(f"latency_tail_s is p{pct:.1f} of {len(ok)} samples")
    lines.append(f"failed_fraction {len(samples) - len(ok)}/{len(samples)}"
                 f" = {(len(samples) - len(ok)) / max(1, len(samples)):.6f}"
                 " ratio")
    if workload == "serve_mixed":
        for mode, name in (("hit", "hit"), ("fresh", "miss"),
                           ("warm", "warm")):
            values = [s.latency for s in ok if s.request.mode == mode]
            lines.append(f"{name}_latency_p50_s {_median(values):.6f} s "
                         f"(n={len(values)})")
    for name, value in _digests(samples).items():
        lines.append(f"{name} {value} (first {len(_window(samples))} requests)")
    return lines


# ----------------------------------------------------------------------
def run(args) -> int:
    _import_repro()
    import gate
    import inputs
    import tracing
    import workloads

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        def probe_setup(count: int) -> List[Dict[str, float]]:
            return [
                workloads.setup_probe(
                    args.workload, os.path.join(workdir, f"probe{i}-{count}")
                )
                for i in range(count)
            ]

        probes = probe_setup(SETUP_PROBES // 2)
        stream = inputs.STREAMS[args.workload](args.seed, tiny=args.tiny)
        tracer = tracing.Tracer() if args.trace else None
        checker = gate.Gate()
        client = workloads.CLIENTS[args.workload](
            os.path.join(workdir, "main"), tracer
        )
        os.makedirs(client.workdir, exist_ok=True)
        uninstall = None
        if args.trace and args.workload != "cli_cold":
            uninstall = tracing.install(tracer)
        try:
            samples = workloads.run_loop(
                client, stream, args.seconds, checker.check,
                hard_limit_s=90.0 if args.trace else 140.0,
            )
        finally:
            if uninstall is not None:
                uninstall()
        probes += probe_setup(SETUP_PROBES - len(probes))
        failures = [
            f"request {s.request.index} ({s.request.label}): {s.error}"
            for s in samples if s.error is not None
        ]
        for line in report_lines(args.workload, samples):
            print(line)
        for failure in failures:
            print(f"FAILED {failure}")
        if args.trace:
            stats = client.service.stats() \
                if args.workload == "serve_mixed" else None
            metrics = _traced(args, tracer, samples, probes, stats, workdir)
            units = {name: unit for name, unit, _, _ in tracing.PER_LAYER}
        else:
            metrics = end_to_end(
                args.workload, samples, [p["setup_s"] for p in probes]
            )
            units = dict(END_TO_END)
        for name, value in metrics.items():
            print(f"metric {name} {value:.6g} {units[name]}")
        _write_record(args, samples, metrics)
        print(json.dumps({
            "correct": not failures,
            "attempted": len(samples),
            "failed": len(failures),
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }))
        return 1 if failures else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(args, tracer, samples, probes, stats, workdir) -> Dict[str, float]:
    """Per-layer metrics, plus the tracing overhead measured by sending
    the first round's requests again untraced (a fresh store for the
    service)."""
    import tracing
    import workloads

    window = [s for s in samples if s.request.round == 0]
    untraced = workloads.CLIENTS[args.workload](
        os.path.join(workdir, "replay"), None
    )
    os.makedirs(untraced.workdir, exist_ok=True)
    plain = sum(workloads.replay(untraced, [s.request for s in window]))
    startup = {
        "import_s": _median([p["import_s"] for p in probes]),
        "numpy_imported": max(p["numpy_imported"] for p in probes),
    }
    metrics = tracing.layer_metrics(tracer, startup, stats)
    metrics["trace.overhead_ratio"] = (
        sum(s.latency for s in window) / plain if plain else 0.0
    )
    tracer.write(os.path.join(
        OUT_DIR, f"spans-{args.workload}-{args.seed}.json"
    ))
    return metrics


def _write_record(args, samples, metrics: Dict[str, float]) -> None:
    """Every input's SHA-256 and outcome, beside the run's metrics."""
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digests": _digests(samples),
        "metrics": metrics,
        "requests": [
            {
                "index": s.request.index,
                "label": s.request.label,
                "input_sha256": s.request.sha256,
                "latency_s": s.latency,
                "status": s.status,
                "result_digest": s.digest,
                "error": s.error,
            }
            for s in samples
        ],
    }
    path = os.path.join(
        OUT_DIR, f"record-{args.workload}-{args.seed}-{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_cold", "search_long", "serve_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny instances and budgets (self-tests)")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
