"""Job-level analytics: per-job records, queried across sweeps.

``records`` wraps the per-job rows every simulation folds
(:class:`repro.metrics.streaming.StreamingMetrics`) in :class:`RunRecords`;
they are stored once, as raw bytes inside each cached run blob.  ``query`` (imported explicitly — it pulls in the experiments
layer) implements the ``repro-sdpolicy query`` filter/group-by/report
engine over those blobs.
"""

from repro.analytics.records import (
    JOB_RECORD_DTYPE,
    RunRecords,
)

__all__ = [
    "JOB_RECORD_DTYPE",
    "RunRecords",
]
