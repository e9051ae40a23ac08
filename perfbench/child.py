"""Benchmark-owned child process.

``python perfbench/child.py setup WORKLOAD STORE_DIR``
    A fresh interpreter gets ready to issue the workload's first
    request: ``import repro`` (timed on its own), the entry point the
    workload calls, and for ``serve_mixed`` an ``ExplorationService`` on
    the empty store directory.  Prints one JSON line when ready.

``python perfbench/child.py cli SPAN_FILE ARG...``
    Times ``import repro.cli``, installs the layer wrappers, calls
    ``repro.cli.main(ARG...)`` (its output goes to this process's
    stdout) and writes the recorded spans to SPAN_FILE.

Both expect ``repro`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import sys
import time


def setup(workload: str, store_dir: str) -> int:
    start = time.monotonic()
    import repro  # noqa: F401

    import_s = time.monotonic() - start
    numpy_imported = int("numpy" in sys.modules)
    if workload == "cli_cold":
        import repro.cli  # noqa: F401
    elif workload == "search_long":
        import repro.api.facade  # noqa: F401
    else:
        from repro.service.service import ExplorationService

        ExplorationService(store_dir)
    print(json.dumps({"import_s": import_s, "numpy_imported": numpy_imported}),
          flush=True)
    return 0


def cli(span_file: str, argv: list) -> int:
    from tracing import Tracer, install

    tracer = Tracer()
    span = tracer.open("startup:import")
    import repro.cli

    tracer.close(span)
    install(tracer)
    try:
        return repro.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.write(span_file)


def main(argv: list) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        return setup(argv[1], argv[2])
    if argv[:1] == ["cli"] and len(argv) >= 3:
        return cli(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
