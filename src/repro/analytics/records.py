"""Columnar per-job records: the sink, the schema, (de)serialization, storage.

The analytics layer keeps what :func:`repro.metrics.aggregates
.compute_metrics` throws away: one fixed-width row per completed job, in
completion order, in a NumPy structured array (~100 bytes/job).  A
:class:`JobRecordSink` is attached to the simulation's job-completion
dispatch (``Simulation(..., sinks=[sink])``) and folds each job exactly
once, computing the derived metric columns (response, wait, slowdown,
bounded slowdown, runtime, CPU-seconds) with the *same arithmetic, in the
same order* as :class:`repro.metrics.streaming.StreamingMetrics.fold`.

Storing the derived ``float64`` values verbatim is what makes
:func:`metrics_from_records` bit-identical to both ``StreamingMetrics``
and batch ``compute_metrics``: the NumPy reductions
(``np.mean``/``np.median``/``np.percentile``) see the same values in the
same order, so pairwise summation reproduces exactly.  Recomputing the
columns at query time from submit/start/end would *also* reproduce (the
formulas are single IEEE-754 operations) but storing them keeps the query
layer honest and cheap.

Serialized form (one blob per run)::

    8-byte big-endian header length
    JSON header  {"schema": 1, "rows": N, "meta": {...}}
    the structured array, ``np.save`` format (``allow_pickle=False``)

``meta`` carries the run-level scalars a row-wise schema cannot: the
run's first submit and energy (needed to rebuild
:class:`~repro.metrics.aggregates.WorkloadMetrics` exactly), plus the
sweep coordinates (workload, policy, task key/label, seed, canonical
kwargs) so a store-wide query can filter and group without touching the
cached run blobs.

Each blob is stored as the :data:`RECORDS` run attachment.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.metrics.aggregates import WorkloadMetrics
from repro.simulator.job import Job
from repro.store.attachments import (
    AttachmentError,
    AttachmentKind,
    load_attachment,
    publish_attachment,
)
from repro.store.base import ResultStore

__all__ = [
    "ANALYTICS_MANIFEST_FIELDS",
    "JOB_RECORD_DTYPE",
    "RECORDS",
    "RECORD_SCHEMA_VERSION",
    "JobRecordSink",
    "RunRecords",
    "load_run_records",
    "metrics_from_records",
    "publish_run_records",
]

#: Bump when the row layout changes; readers reject unknown schemas.
RECORD_SCHEMA_VERSION = 1

#: Per-job records are a run attachment: ``<cache_key>-records`` blobs
#: discovered through ``analytics-*`` manifests (:mod:`repro.store.attachments`).
RECORDS = AttachmentKind("analytics", "records", RECORD_SCHEMA_VERSION, "--analytics")

#: Declared key layout of an analytics manifest (:func:`publish_run_records`).
#: ``repro.devtools.formats`` fingerprints this into ``formats.lock``:
#: changing the manifest shape without bumping ``RECORD_SCHEMA_VERSION``
#: fails CI.
ANALYTICS_MANIFEST_FIELDS = RECORDS.manifest_fields("rows", "meta")

#: One row per completed job.  Derived metric columns hold the exact
#: ``float64`` values ``StreamingMetrics.fold`` computes (see module doc).
JOB_RECORD_DTYPE = np.dtype(
    [
        ("job_id", np.int64),
        ("user", np.int32),
        ("group", np.int32),
        ("submit", np.float64),
        ("start", np.float64),
        ("end", np.float64),
        ("requested_nodes", np.int32),
        ("requested_cpus", np.int32),
        ("requested_time", np.float64),
        ("static_runtime", np.float64),
        ("response", np.float64),
        ("wait", np.float64),
        ("runtime", np.float64),
        ("slowdown", np.float64),
        ("bounded_slowdown", np.float64),
        ("cpu_seconds", np.float64),
        ("malleable", np.int8),
        ("scheduled_malleable", np.int8),
        ("was_mate", np.int8),
    ]
)

#: Bounded-slowdown threshold, matching ``StreamingMetrics``/``compute_metrics``.
_BOUNDED_SLOWDOWN_TAU = 10.0

_HEADER_LEN = struct.Struct(">Q")


class JobRecordSink:
    """A job sink that buffers one structured-array row per completed job.

    Rows are appended into chunks that double from ``min_chunk`` up to
    ``max_chunk`` entries (the :class:`~repro.metrics.streaming
    .ChunkedFloatBuffer` allocation strategy), so a 100-job smoke run costs
    one small chunk while a million-job replay amortises allocation.
    """

    __slots__ = ("_chunks", "_current", "_fill", "_min_chunk", "_max_chunk")

    def __init__(self, min_chunk: int = 1024, max_chunk: int = 65536) -> None:
        if min_chunk <= 0 or max_chunk < min_chunk:
            raise ValueError(f"invalid chunk sizes {min_chunk}/{max_chunk}")
        self._chunks: List[np.ndarray] = []
        self._current: Optional[np.ndarray] = None
        self._fill = 0
        self._min_chunk = min_chunk
        self._max_chunk = max_chunk

    def __len__(self) -> int:
        return sum(len(c) for c in self._chunks) + self._fill

    def fold(self, job: Job) -> None:
        """Record one *completed* job (same contract as ``StreamingMetrics``)."""
        if job.end_time is None or job.start_time is None:
            raise ValueError(f"job {job.job_id} is not completed; cannot fold")
        response = job.end_time - job.submit_time
        wait = job.start_time - job.submit_time
        slowdown = response / job.static_runtime
        bounded = max(
            1.0, response / max(job.static_runtime, _BOUNDED_SLOWDOWN_TAU)
        )
        cpu_seconds = 0.0
        for slot in job.resource_history:
            duration = slot.duration
            if duration > 0 and math.isfinite(duration):
                cpu_seconds += slot.total_cpus * duration
        current = self._current
        if current is None or self._fill == len(current):
            if current is not None:
                self._chunks.append(current)
            size = (
                self._min_chunk
                if current is None
                else min(self._max_chunk, 2 * len(current))
            )
            current = self._current = np.empty(size, dtype=JOB_RECORD_DTYPE)
            self._fill = 0
        current[self._fill] = (
            job.job_id,
            int(job.user),
            int(job.group),
            job.submit_time,
            job.start_time,
            job.end_time,
            job.requested_nodes,
            job.requested_cpus,
            job.requested_time,
            job.static_runtime,
            response,
            wait,
            job.end_time - job.start_time,
            slowdown,
            bounded,
            cpu_seconds,
            1 if job.malleable else 0,
            1 if job.scheduled_malleable else 0,
            1 if job.was_mate else 0,
        )
        self._fill += 1

    def to_array(self) -> np.ndarray:
        """The recorded rows, in completion order, as one structured array."""
        parts = list(self._chunks)
        if self._current is not None and self._fill:
            parts.append(self._current[: self._fill])
        if not parts:
            return np.empty(0, dtype=JOB_RECORD_DTYPE)
        if len(parts) == 1:
            return np.ascontiguousarray(parts[0])
        return np.concatenate(parts)

    @property
    def nbytes(self) -> int:
        """Bytes currently allocated (including unfilled chunk headroom)."""
        total = sum(c.nbytes for c in self._chunks)
        if self._current is not None:
            total += self._current.nbytes
        return total


@dataclass
class RunRecords:
    """The per-job records of one run plus its run-level metadata."""

    array: np.ndarray
    meta: Dict[str, Any] = field(default_factory=dict)
    schema: int = RECORD_SCHEMA_VERSION

    def __len__(self) -> int:
        return len(self.array)

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        """Serialize: length-prefixed JSON header + ``np.save`` payload."""
        buf = io.BytesIO()
        np.save(buf, np.ascontiguousarray(self.array), allow_pickle=False)
        header = json.dumps(
            {"schema": self.schema, "rows": len(self.array), "meta": self.meta},
            sort_keys=True,
        ).encode("utf-8")
        return _HEADER_LEN.pack(len(header)) + header + buf.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "RunRecords":
        if len(data) < _HEADER_LEN.size:
            raise ValueError("truncated run-records blob")
        (header_len,) = _HEADER_LEN.unpack_from(data)
        end = _HEADER_LEN.size + header_len
        if len(data) < end:
            raise ValueError("truncated run-records header")
        header = json.loads(data[_HEADER_LEN.size : end].decode("utf-8"))
        schema = int(header.get("schema", -1))
        if schema != RECORD_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported run-records schema {schema} "
                f"(this version reads schema {RECORD_SCHEMA_VERSION})"
            )
        array = np.load(io.BytesIO(data[end:]), allow_pickle=False)
        if array.dtype != JOB_RECORD_DTYPE:
            raise ValueError("run-records array has an unexpected dtype")
        rows = int(header.get("rows", -1))
        if rows != len(array):
            raise ValueError(
                f"run-records header promises {rows} rows, array has {len(array)}"
            )
        return cls(array=array, meta=dict(header.get("meta", {})), schema=schema)

    # ------------------------------------------------------------------ #
    def metrics(self) -> WorkloadMetrics:
        return metrics_from_records(self)


def publish_run_records(
    store: ResultStore,
    cache_key: str,
    records: RunRecords,
    run_digest: Optional[str] = None,
) -> str:
    """Publish one run's records blob + analytics manifest; returns digest."""
    return publish_attachment(
        store, RECORDS, cache_key, records.to_bytes(), run_digest,
        rows=len(records), meta=records.meta,
    )


def load_run_records(store: ResultStore, cache_key: str) -> RunRecords:
    """Load the records of one cached run; :class:`AttachmentError` if absent."""
    payload = load_attachment(store, RECORDS, cache_key)
    try:
        return RunRecords.from_bytes(payload)
    except ValueError as exc:
        raise AttachmentError(
            f"records blob for cache key {cache_key[:24]}… is unreadable: {exc}"
        ) from exc


def metrics_from_records(records: RunRecords) -> WorkloadMetrics:
    """Rebuild the run's :class:`WorkloadMetrics` from persisted records.

    Bit-identical to ``StreamingMetrics.workload_metrics`` (and hence to
    batch ``compute_metrics``) for the same run: the derived columns hold
    the exact folded values in completion order, and
    :meth:`WorkloadMetrics.reduce` sees them as contiguous ``float64``
    copies.  The run-level makespan origin and energy come from
    ``records.meta`` (``first_submit``, ``energy_joules``) because they
    are not derivable from completed-job rows alone.
    """
    arr = records.array
    makespan = 0.0
    if len(arr):
        first_submit = records.meta.get("first_submit")
        origin = float(np.min(arr["submit"])) if first_submit is None else float(first_submit)
        makespan = max(0.0, float(np.max(arr["end"])) - origin)

    def column(name: str) -> np.ndarray:
        return np.ascontiguousarray(arr[name])

    return WorkloadMetrics.reduce(
        makespan,
        column("response"),
        column("wait"),
        column("slowdown"),
        column("bounded_slowdown"),
        column("runtime"),
        int(np.count_nonzero(arr["scheduled_malleable"])),
        int(np.count_nonzero(arr["was_mate"])),
        float(records.meta.get("energy_joules", 0.0)),
    )
