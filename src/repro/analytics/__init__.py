"""Job-level analytics: persist per-job records, query them across sweeps.

``records`` defines the columnar schema, the :class:`JobRecordSink` that
captures rows at job completion, the bit-identical
:func:`metrics_from_records` rebuild, and the :data:`RECORDS` run
attachment through which record blobs are published to and loaded from
any :class:`repro.store.ResultStore`; ``query`` (imported explicitly — it
pulls in the experiments layer) implements the ``repro-sdpolicy query``
filter/group-by/report engine.
"""

from repro.analytics.records import (
    JOB_RECORD_DTYPE,
    RECORD_SCHEMA_VERSION,
    RECORDS,
    JobRecordSink,
    RunRecords,
    load_run_records,
    metrics_from_records,
    publish_run_records,
)

__all__ = [
    "JOB_RECORD_DTYPE",
    "JobRecordSink",
    "RECORDS",
    "RECORD_SCHEMA_VERSION",
    "RunRecords",
    "load_run_records",
    "metrics_from_records",
    "publish_run_records",
]
