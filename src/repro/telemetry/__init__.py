"""Telemetry: decision traces, instrumented stores, and logging.

Three pieces, one import surface:

* :mod:`repro.telemetry.core` — :class:`InstrumentedStore`, the
  per-request counting/timing wrapper over any
  :class:`~repro.store.ResultStore`, and its snapshot layout.
* :mod:`repro.telemetry.trace` — byte-deterministic scheduler decision
  traces, stored as the :data:`TRACE` run attachment
  (:mod:`repro.store.attachments`).
* :mod:`repro.telemetry.logs` — stdlib-``logging`` wiring for the CLI
  (``--log-level`` / ``REPRO_LOG_LEVEL``).

Rendering of stored traces lives in :mod:`repro.telemetry.report`, which
is deliberately *not* re-exported here (it imports the store layer's
public API and is a CLI concern).
"""

from repro.telemetry.core import InstrumentedStore
from repro.telemetry.logs import LOG_LEVELS, setup_logging
from repro.telemetry.trace import (
    PHASE_FIELDS,
    TRACE,
    TRACE_FORMAT_VERSION,
    TraceRecorder,
    load_trace,
    publish_trace,
)

__all__ = [
    "LOG_LEVELS",
    "PHASE_FIELDS",
    "TRACE",
    "TRACE_FORMAT_VERSION",
    "InstrumentedStore",
    "TraceRecorder",
    "load_trace",
    "publish_trace",
    "setup_logging",
]
