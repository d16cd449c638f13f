"""Telemetry: decision traces and logging.

Two pieces, one import surface:

* :mod:`repro.telemetry.trace` — byte-deterministic scheduler decision
  traces, stored next to each cached run under ``<cache_key>-trace``.
* :mod:`repro.telemetry.logs` — stdlib-``logging`` wiring for the CLI
  (``--log-level`` / ``REPRO_LOG_LEVEL``).

Rendering of stored traces lives in :mod:`repro.telemetry.report`, which
is deliberately *not* re-exported here (it imports the store layer's
public API and is a CLI concern).
"""

from repro.telemetry.logs import LOG_LEVELS, setup_logging
from repro.telemetry.trace import (
    PHASE_FIELDS,
    TRACE_FORMAT_VERSION,
    TraceRecorder,
    load_trace,
    publish_trace,
    trace_key,
    trace_manifest_name,
)

__all__ = [
    "LOG_LEVELS",
    "PHASE_FIELDS",
    "TRACE_FORMAT_VERSION",
    "TraceRecorder",
    "load_trace",
    "publish_trace",
    "setup_logging",
    "trace_key",
    "trace_manifest_name",
]
