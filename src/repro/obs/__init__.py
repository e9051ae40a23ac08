"""Observability layer: run-scoped telemetry recorders and stream tools.

See :mod:`repro.obs.telemetry` for the recorder, the ``NULL`` disabled
singleton, and the JSONL load/validate/summarize helpers.
"""

from repro._lazy import lazy_exports

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "NULL",
    "NullTelemetry",
    "Telemetry",
    "canonical_stream",
    "format_summary_table",
    "load_events",
    "strip_times",
    "summarize_events",
    "validate_events",
]

lazy_exports(globals(), {
    "repro.obs.telemetry": (
        "EVENT_SCHEMA_VERSION", "NULL", "NullTelemetry", "Telemetry",
        "canonical_stream", "format_summary_table", "load_events",
        "strip_times", "summarize_events", "validate_events",
    ),
})
