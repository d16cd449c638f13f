"""Per-job records: the persisted form of a run's fold, and their storage.

The analytics layer keeps what :class:`~repro.metrics.aggregates
.WorkloadMetrics` throws away: one fixed-width :data:`JOB_RECORD_DTYPE` row
per completed job, in completion order (~115 bytes/job).  Every simulation
already builds these rows in its one per-job fold
(:class:`repro.metrics.streaming.StreamingMetrics`); a :class:`RunRecords`
wraps them with the run-level metadata for publication.

Storing the derived ``float64`` values verbatim is what makes
:func:`metrics_from_records` bit-identical to the run's own metrics and to
batch ``compute_metrics``: both reduce through
:meth:`WorkloadMetrics.from_records`, which sees the same values in the
same order, so NumPy's pairwise summation reproduces exactly.

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
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.metrics.aggregates import WorkloadMetrics
from repro.metrics.streaming import JOB_RECORD_DTYPE
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

_HEADER_LEN = struct.Struct(">Q")


@dataclass
class RunRecords:
    """The per-job records of one run plus its run-level metadata."""

    array: np.ndarray
    meta: Dict[str, Any] = field(default_factory=dict)
    schema: int = RECORD_SCHEMA_VERSION

    def __len__(self) -> int:
        return len(self.array)

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

    Bit-identical to the run's own metrics: the same rows go through the
    same :meth:`WorkloadMetrics.from_records`.  The run-level makespan
    origin and energy come from ``records.meta`` (``first_submit``,
    ``energy_joules``) because completed-job rows alone do not carry them.
    """
    first_submit = records.meta.get("first_submit")
    return WorkloadMetrics.from_records(
        records.array,
        None if first_submit is None else float(first_submit),
        float(records.meta.get("energy_joules", 0.0)),
    )
