"""Telemetry: counters/timers, decision traces, and instrumented stores.

Four pieces, one import surface:

* :mod:`repro.telemetry.core` — the :class:`Telemetry` counter/gauge/timer
  registry behind :class:`InstrumentedStore`.
* :mod:`repro.telemetry.trace` — byte-deterministic scheduler decision
  traces stored under ``<cache_key>-trace`` with integrity envelopes.
* :mod:`repro.telemetry.instrument` — per-request counting/timing
  wrapper over any :class:`~repro.store.ResultStore`.
* :mod:`repro.telemetry.logs` — stdlib-``logging`` wiring for the CLI
  (``--log-level`` / ``REPRO_LOG_LEVEL``).

Rendering of stored traces lives in :mod:`repro.telemetry.report`, which
is deliberately *not* re-exported here (it imports the store layer's
public API and is a CLI concern).
"""

from repro.telemetry.core import Telemetry
from repro.telemetry.instrument import InstrumentedStore
from repro.telemetry.logs import LOG_LEVELS, setup_logging
from repro.telemetry.trace import (
    PHASE_FIELDS,
    TRACE_FORMAT_VERSION,
    TraceError,
    TraceRecorder,
    iter_trace_manifests,
    load_trace,
    publish_trace,
    trace_key,
    trace_manifest_name,
)

__all__ = [
    "LOG_LEVELS",
    "PHASE_FIELDS",
    "TRACE_FORMAT_VERSION",
    "InstrumentedStore",
    "Telemetry",
    "TraceError",
    "TraceRecorder",
    "iter_trace_manifests",
    "load_trace",
    "publish_trace",
    "setup_logging",
    "trace_key",
    "trace_manifest_name",
]
