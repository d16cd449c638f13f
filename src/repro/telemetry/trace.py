"""Structured scheduler decision traces, stored like any other artifact.

A trace is a JSONL document: one header line followed by one line per
decision event, each a canonical JSON object (sorted keys, no whitespace,
non-finite floats mapped to the string tokens ``"inf"``/``"-inf"``/
``"nan"``).  Canonical encoding plus the rule that **only simulation-time
facts go into the blob** (wall-clock phase timings live in the trace
manifest) makes a trace byte-deterministic: the same spec and seed yield
the identical blob from serial and sharded runs.

Storage sits next to the cached run, so tracing never splits or
invalidates the run cache.  The blob lives under ``<cache_key>-trace`` in
the integrity envelope, so ``store verify`` covers it.  A
``trace-<cache_key[:24]>`` manifest holds the run's metadata for
discovery, and its ``"tasks"`` list names the run blob and the trace blob
so :func:`~repro.store.lifecycle.collect_references` keeps both through
``store gc``.  The pointer lives only in the manifest: the cached run blob
is byte-identical with or without a trace.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.store.base import ResultStore
from repro.store.lifecycle import BlobIntegrityError, unwrap_blob, wrap_blob

__all__ = [
    "AttachmentError",
    "MATE_REJECTED_REASONS",
    "PHASE_FIELDS",
    "TRACE_EVENT_FIELDS",
    "TRACE_FORMAT_VERSION",
    "TRACE_MANIFEST_FIELDS",
    "TraceRecorder",
    "iter_trace_manifests",
    "load_trace",
    "parse_trace",
    "publish_trace",
    "trace_header",
    "trace_key",
    "trace_manifest_name",
]

#: Version of the trace blob + manifest layout (bump on shape changes).
#: v2: the manifest's phase timers lost ``metrics`` (see PHASE_FIELDS).
#: v3: no ``mate_candidate`` events (a mate search is traced by its
#: outcome alone) and no ``counts`` in the manifest.
TRACE_FORMAT_VERSION = 3

#: Declared event vocabulary, ``"<event>:<field,field,…>"`` per entry.
#: ``repro.devtools.formats`` fingerprints this into ``formats.lock``:
#: changing an event's shape without bumping :data:`TRACE_FORMAT_VERSION`
#: fails CI.  Every event also carries ``event`` and ``t`` (sim time).
TRACE_EVENT_FIELDS = (
    "job_submit:job,nodes,cpus,malleable",
    "job_start:job,kind,nodes,mates",
    "job_end:job,wait",
    "backfill_hole:job,nodes,ahead,est_start",
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
TRACE_MANIFEST_FIELDS = (
    "kind",
    "schema",
    "cache_key",
    "trace_key",
    "trace_digest",
    "events",
    "meta",
    "phases",
    "tasks",
)

#: Phase-timer names surfaced in ``SweepEntry.phases`` / trace manifests,
#: in pipeline order: simulate (the whole task) → encode the run blob →
#: store put.
PHASE_FIELDS = ("simulate", "serialize", "store_put")


class AttachmentError(RuntimeError):
    """A stored decision trace is missing or unreadable."""


def trace_key(cache_key: str) -> str:
    """Store key of the trace blob of a cached run."""
    return f"{cache_key}-trace"


def trace_manifest_name(cache_key: str) -> str:
    """Deterministic name of the trace manifest of a cached run."""
    return f"trace-{cache_key[:24]}"


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
        #: Run identity (workload/policy/label/seed) stamped by the runner;
        #: simulation-time determined, so it is safe inside the blob header.
        self.meta: Dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self.lines)

    def emit(self, event: str, t: float, **fields: Any) -> None:
        record: Dict[str, Any] = {"event": event, "t": t}
        record.update(fields)
        self.lines.append(_canonical_line(record))

    def to_bytes(self) -> bytes:
        header = _canonical_line(
            {
                "event": "trace_header",
                "format": TRACE_FORMAT_VERSION,
                "meta": self.meta,
            }
        )
        return "\n".join([header] + self.lines).encode("utf-8") + b"\n"


def _decode_line(line: bytes) -> Any:
    try:
        return json.loads(line)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise AttachmentError(f"trace blob is not valid JSONL: {exc}") from exc


def trace_header(payload: bytes) -> Dict[str, Any]:
    """The decoded header line of a trace blob, read from its first line
    alone; :class:`AttachmentError` when the blob does not start with one."""
    if not payload:
        raise AttachmentError("trace blob is empty")
    header = _decode_line(payload.split(b"\n", 1)[0])
    if not isinstance(header, dict) or header.get("event") != "trace_header":
        raise AttachmentError("trace blob does not start with a trace_header line")
    return header


def parse_trace(payload: bytes) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Split a trace blob into its header meta and decoded event records.

    A blob of another format is an :class:`AttachmentError` that names the
    rerun which replaces it.
    """
    header = trace_header(payload)
    if header.get("format") != TRACE_FORMAT_VERSION:
        raise AttachmentError(
            f"trace format {header.get('format')!r} is not supported (expected "
            f"{TRACE_FORMAT_VERSION}); re-run the sweep with --trace to record it again"
        )
    events = [_decode_line(line) for line in payload.split(b"\n")[1:] if line]
    return header.get("meta") or {}, events


def publish_trace(
    store: ResultStore,
    cache_key: str,
    recorder: TraceRecorder,
    run_digest: Optional[str] = None,
    phases: Optional[Dict[str, float]] = None,
) -> str:
    """Publish one run's trace blob + trace manifest; returns the digest."""
    key = trace_key(cache_key)
    enveloped, digest = wrap_blob(recorder.to_bytes())
    store.put(key, enveloped)
    run_ref: Dict[str, Any] = {"cache_key": cache_key}
    if run_digest:
        run_ref["digest"] = run_digest
    manifest = {
        "kind": "trace",
        "schema": TRACE_FORMAT_VERSION,
        "cache_key": cache_key,
        "trace_key": key,
        "trace_digest": digest,
        "events": len(recorder),
        "meta": dict(recorder.meta),
        # Wall-clock phase timings stay out of the blob so the blob is
        # byte-deterministic; the manifest is the nondeterministic side.
        "phases": dict(phases or {}),
        # gc pinning: collect_references keeps every "cache_key" listed
        # under "tasks", covering both the run blob and the trace blob.
        "tasks": [run_ref, {"cache_key": key, "digest": digest}],
    }
    store.write_manifest(trace_manifest_name(cache_key), manifest)
    return digest


def load_trace(
    store: ResultStore, cache_key: str
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Load + verify one run's trace; ``(meta, events)``.

    :class:`AttachmentError` if it was never published, was deleted, or
    fails its integrity envelope.  Each error names the rerun that
    publishes the trace again.
    """
    data = store.get(trace_key(cache_key))
    short = cache_key[:24]
    rerun = "re-run the sweep with --trace to "
    if data is None:
        if store.read_manifest(trace_manifest_name(cache_key)) is not None:
            raise AttachmentError(
                f"the trace blob of cache key {short}… was deleted (its trace "
                f"manifest remains); {rerun}regenerate it"
            )
        raise AttachmentError(
            f"no trace for cache key {short}… — the run was executed "
            f"without --trace; {rerun}publish the trace"
        )
    try:
        payload, _digest = unwrap_blob(data)
    except BlobIntegrityError as exc:
        raise AttachmentError(
            f"the trace blob of cache key {short}… fails its integrity "
            f"envelope ({exc}); {rerun}overwrite it, or drop it with "
            "'store verify --delete'"
        ) from exc
    return parse_trace(payload)


def iter_trace_manifests(store: ResultStore) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Yield ``(manifest_name, manifest)`` for every trace manifest."""
    for name in store.list_manifests("trace-"):
        manifest = store.read_manifest(name)
        if (
            manifest
            and manifest.get("kind") == "trace"
            and manifest.get("schema") == TRACE_FORMAT_VERSION
        ):
            yield name, manifest
