"""Structured scheduler decision traces, stored like any other artifact.

A trace is a JSONL document: one header line followed by one line per
decision event, each a canonical JSON object (sorted keys, no whitespace,
non-finite floats mapped to the string tokens ``"inf"``/``"-inf"``/
``"nan"``).  Canonical encoding plus the rule that **only simulation-time
facts go into the blob** (wall-clock phase timings live in the trace
manifest) makes a trace byte-deterministic: the same spec and seed yield
the identical blob from serial, sharded, and ``retain_jobs=False`` runs.

Storage is the :data:`TRACE` run attachment (:mod:`repro.store.attachments`),
so tracing never splits or invalidates the run cache.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Tuple

from repro.store.attachments import (
    AttachmentError,
    AttachmentKind,
    load_attachment,
    publish_attachment,
)
from repro.store.base import ResultStore

__all__ = [
    "MATE_REJECTED_REASONS",
    "PHASE_FIELDS",
    "TRACE",
    "TRACE_EVENT_FIELDS",
    "TRACE_FORMAT_VERSION",
    "TRACE_MANIFEST_FIELDS",
    "TraceRecorder",
    "load_trace",
    "parse_trace",
    "publish_trace",
]

#: Version of the trace blob + manifest layout (bump on shape changes).
TRACE_FORMAT_VERSION = 1

#: Decision traces are a run attachment: ``<cache_key>-trace`` blobs
#: discovered through ``trace-*`` manifests.
TRACE = AttachmentKind("trace", "trace", TRACE_FORMAT_VERSION, "--trace")

#: Declared event vocabulary, ``"<event>:<field,field,…>"`` per entry.
#: ``repro.devtools.formats`` fingerprints this into ``formats.lock``:
#: changing an event's shape without bumping :data:`TRACE_FORMAT_VERSION`
#: fails CI.  Every event also carries ``event`` and ``t`` (sim time).
TRACE_EVENT_FIELDS = (
    "job_submit:job,nodes,cpus,malleable",
    "job_start:job,kind,nodes,mates",
    "job_end:job,wait",
    "backfill_hole:job,nodes,ahead,est_start",
    "mate_candidate:guest,mate,penalty,admitted",
    "mate_rejected:guest,reason,static_end,mall_end",
    "mate_selected:guest,mates,penalty,free_nodes,est_runtime",
    "reconfigure:job,direction,cpus_before,cpus_after",
)

#: Typed vocabulary of the ``mate_rejected`` ``reason`` field, also
#: fingerprinted into ``formats.lock``: ``estimate`` (the malleable end
#: estimate did not beat the static one), ``no_mates`` (no feasible mate
#: combination existed), ``bandwidth`` (UB-Policy refused every candidate
#: because the pairing would oversubscribe a node's memory bandwidth).
#: Extending this tuple without bumping :data:`TRACE_FORMAT_VERSION` fails
#: CI, so readers can rely on the value set per format version.
MATE_REJECTED_REASONS = ("estimate", "no_mates", "bandwidth")

#: Declared key layout of a trace manifest (:func:`publish_trace`).
TRACE_MANIFEST_FIELDS = TRACE.manifest_fields("events", "counts", "meta", "phases")

#: Phase-timer names surfaced in ``SweepEntry.phases`` / trace manifests,
#: in pipeline order: simulate → metrics fold → cache serialize → store put.
PHASE_FIELDS = ("simulate", "metrics", "serialize", "store_put")


def _json_safe(value: Any) -> Any:
    """Map non-finite floats to string tokens; leave everything else alone.

    ``est_start``/``static_end`` are legitimately ``inf`` for jobs with no
    reservation horizon; raw JSON has no spelling for them and ad-hoc ones
    (``Infinity``) are not portable, so they become explicit tokens.
    """
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    return value


def _canonical_line(record: Dict[str, Any]) -> str:
    return json.dumps(
        _json_safe(record), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


class TraceRecorder:
    """Accumulates decision events as canonical JSONL lines.

    Plain lists/dicts of primitives only — recorders cross the process
    boundary from sweep workers back to the parent via pickle.
    """

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.counts: Dict[str, int] = {}
        #: Run identity (workload/policy/label/seed) stamped by the runner;
        #: simulation-time determined, so it is safe inside the blob header.
        self.meta: Dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self.lines)

    def emit(self, event: str, t: float, **fields: Any) -> None:
        record: Dict[str, Any] = {"event": event, "t": t}
        record.update(fields)
        self.lines.append(_canonical_line(record))
        self.counts[event] = self.counts.get(event, 0) + 1

    def to_bytes(self) -> bytes:
        header = _canonical_line(
            {
                "event": "trace_header",
                "format": TRACE_FORMAT_VERSION,
                "meta": self.meta,
            }
        )
        return "\n".join([header] + self.lines).encode("utf-8") + b"\n"


def parse_trace(payload: bytes) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Split a trace blob into its header meta and decoded event records."""
    lines = payload.decode("utf-8").splitlines()
    if not lines:
        raise AttachmentError("trace blob is empty")
    try:
        header = json.loads(lines[0])
        events = [json.loads(line) for line in lines[1:] if line]
    except json.JSONDecodeError as exc:
        raise AttachmentError(f"trace blob is not valid JSONL: {exc}") from exc
    if header.get("event") != "trace_header":
        raise AttachmentError("trace blob does not start with a trace_header line")
    if header.get("format") != TRACE_FORMAT_VERSION:
        raise AttachmentError(
            f"trace format {header.get('format')!r} is not supported "
            f"(expected {TRACE_FORMAT_VERSION})"
        )
    return header.get("meta") or {}, events


def publish_trace(
    store: ResultStore,
    cache_key: str,
    recorder: TraceRecorder,
    run_digest: Optional[str] = None,
    phases: Optional[Dict[str, float]] = None,
) -> str:
    """Publish one run's trace blob + trace manifest; returns the digest."""
    # Wall-clock phase timings stay out of the blob so the blob is
    # byte-deterministic; the manifest is the nondeterministic side.
    return publish_attachment(
        store, TRACE, cache_key, recorder.to_bytes(), run_digest,
        events=len(recorder),
        counts=dict(sorted(recorder.counts.items())),
        meta=dict(recorder.meta),
        phases=dict(phases or {}),
    )


def load_trace(
    store: ResultStore, cache_key: str
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Load + verify one run's trace; ``(meta, events)``.

    :class:`~repro.store.attachments.AttachmentError` if absent,
    quarantined, unreadable, or failing its integrity envelope.
    """
    return parse_trace(load_attachment(store, TRACE, cache_key))
