"""Per-job records: the kept form of a run's fold.

The analytics layer keeps what :class:`~repro.metrics.aggregates
.WorkloadMetrics` throws away: one fixed-width :data:`JOB_RECORD_DTYPE` row
per completed job, in completion order (~115 bytes/job).  Every simulation
already builds these rows in its one per-job fold
(:class:`repro.metrics.streaming.StreamingMetrics`); a :class:`RunRecords`
wraps them for the run.

The rows are stored once, as the raw bytes that follow the JSON header of
the cached run blob (:mod:`repro.experiments.sweep`); ``query`` reads them
from there (:func:`repro.experiments.sweep.iter_cached_runs`), read-only.
Storing the derived ``float64`` values verbatim is what makes
:meth:`WorkloadMetrics.from_records` over stored rows bit-identical to the
run's own metrics: it sees the same values in the same order, so NumPy's
pairwise summation reproduces exactly.  The run-level scalars a row-wise
schema cannot hold (first submit, energy, workload, policy, label, seed)
live in that blob header.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics.streaming import JOB_RECORD_DTYPE

__all__ = [
    "JOB_RECORD_DTYPE",
    "RunRecords",
]


@dataclass
class RunRecords:
    """The per-job record rows of one run (read-only when loaded from a store)."""

    array: np.ndarray

    def __len__(self) -> int:
        return len(self.array)
