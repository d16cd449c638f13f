"""Per-job records: the kept form of a run's fold.

The analytics layer keeps what :class:`~repro.metrics.aggregates
.WorkloadMetrics` throws away: one fixed-width :data:`JOB_RECORD_DTYPE` row
per completed job, in completion order (~115 bytes/job).  Every simulation
already builds these rows in its one per-job fold
(:class:`repro.metrics.streaming.StreamingMetrics`); a :class:`RunRecords`
wraps them with the run-level metadata.

The rows are stored once, inside the cached run blob that pickles the
whole :class:`~repro.experiments.runner.PolicyRun`; ``query`` reads them
from there (:func:`repro.experiments.sweep.iter_cached_runs`).  Storing
the derived ``float64`` values verbatim is what makes
:meth:`WorkloadMetrics.from_records` over stored rows bit-identical to the
run's own metrics: it sees the same values in the same order, so NumPy's
pairwise summation reproduces exactly.

``meta`` carries the run-level scalars a row-wise schema cannot: the
run's first submit and energy (needed to rebuild
:class:`~repro.metrics.aggregates.WorkloadMetrics` exactly), plus the
run's workload, policy, label and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

from repro.metrics.streaming import JOB_RECORD_DTYPE

__all__ = [
    "JOB_RECORD_DTYPE",
    "RECORD_SCHEMA_VERSION",
    "RunRecords",
]

#: Bump when the row layout changes; ``formats.lock`` pins
#: :data:`JOB_RECORD_DTYPE` to it.
RECORD_SCHEMA_VERSION = 1


@dataclass
class RunRecords:
    """The per-job records of one run plus its run-level metadata."""

    array: np.ndarray
    meta: Dict[str, Any] = field(default_factory=dict)
    schema: int = RECORD_SCHEMA_VERSION

    def __len__(self) -> int:
        return len(self.array)
