"""Streaming (online) aggregation of the paper's metrics: the one per-job fold.

:class:`StreamingMetrics` folds each job *once, at completion time* into

* O(1) scalar state — sequential sums for the mean response/wait/slowdown
  (exactly the summation order
  :meth:`repro.simulator.simulation.Simulation.result` uses),
  malleable/mate counters, and the CPU-second integral behind the energy
  figure — and
* one fixed-width :data:`JOB_RECORD_DTYPE` row per job (~115 bytes, where
  a :class:`~repro.simulator.job.Job` object holds its resource history and
  per-node CPU maps), in completion order, in a chunked buffer.

The rows hold the derived metric values (response, wait, slowdown, bounded
slowdown, runtime, CPU-seconds) as exact ``float64`` numbers.  That is what
makes :meth:`WorkloadMetrics.from_records
<repro.metrics.aggregates.WorkloadMetrics.from_records>` bit-identical to
the batch oracle :func:`repro.metrics.aggregates.compute_metrics`: NumPy's
pairwise summation is *not* reproducible from a running scalar sum, but the
same NumPy calls over the same values in the same order are.  The property
suite asserts this on every workload preset.

The rows are the only per-job result of a run: the simulation drops each
job after its fold, :class:`repro.analytics.records.RunRecords` wraps
:meth:`records` for the run, the run blob stores their raw bytes, and the
per-job reports (Figures 4-7 and 9) read them.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.metrics.aggregates import WorkloadMetrics
from repro.simulator.job import Job

__all__ = ["JOB_RECORD_DTYPE", "ChunkedFloatBuffer", "StreamingMetrics"]

#: One row per completed job.  Derived metric columns hold the exact
#: ``float64`` values :meth:`StreamingMetrics.fold` computes.  Every cached
#: run blob stores these rows' raw bytes after its JSON header
#: (``repro.experiments.sweep``), so the layout is fingerprinted in
#: ``formats.lock``: a change needs a bump of ``CACHE_FORMAT_VERSION``.
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


class ChunkedFloatBuffer:
    """An append-only NumPy buffer allocated in growing chunks.

    Chunks double from ``min_chunk`` up to ``max_chunk`` entries, so tiny
    runs stay tiny while million-entry runs amortise allocation; the full
    array (for NumPy reductions) is materialised only on request, and then
    replaces the chunks.  Entries are ``float64`` unless ``dtype`` says
    otherwise (a structured dtype takes one tuple per entry).
    """

    __slots__ = ("_chunks", "_current", "_fill", "_min_chunk", "_max_chunk", "_dtype")

    def __init__(
        self, min_chunk: int = 1024, max_chunk: int = 65536, dtype=np.float64
    ) -> None:
        if min_chunk <= 0 or max_chunk < min_chunk:
            raise ValueError(f"invalid chunk sizes {min_chunk}/{max_chunk}")
        self._chunks: List[np.ndarray] = []
        self._current: Optional[np.ndarray] = None
        self._fill = 0
        self._min_chunk = min_chunk
        self._max_chunk = max_chunk
        self._dtype = np.dtype(dtype)

    def __len__(self) -> int:
        return sum(len(c) for c in self._chunks) + self._fill

    def append(self, value) -> None:
        current = self._current
        if current is None or self._fill == len(current):
            if current is not None:
                self._chunks.append(current)
            size = (
                self._min_chunk
                if current is None
                else min(self._max_chunk, 2 * len(current))
            )
            current = self._current = np.empty(size, dtype=self._dtype)
            self._fill = 0
        current[self._fill] = value
        self._fill += 1

    def as_array(self) -> np.ndarray:
        """The buffered values, in append order, as one contiguous array.

        The chunks are folded into the returned array, which becomes the
        buffer's only chunk: later calls return the same object until the
        next append, and the unused tail of the last chunk is freed.
        """
        chunks = self._chunks
        if self._current is not None and self._fill:
            chunks.append(self._current[: self._fill])
        self._current = None
        self._fill = 0
        if len(chunks) != 1 or chunks[0].base is not None:
            # A lone chunk that is a view of a partly filled one is copied.
            chunks[:] = [
                np.concatenate(chunks) if chunks else np.empty(0, dtype=self._dtype)
            ]
        return chunks[0]


class StreamingMetrics:
    """Online accumulator of every aggregate the paper reports.

    ``fold(job)`` must be called exactly once per completed job, in
    completion order; all derived quantities are then available without
    the job objects.
    """

    #: Bounded-slowdown threshold, matching ``compute_metrics``.
    BOUNDED_SLOWDOWN_TAU = 10.0

    __slots__ = (
        "count",
        "sum_response",
        "sum_slowdown",
        "sum_wait",
        "malleable_scheduled",
        "mate_jobs",
        "dynamic_cpu_seconds",
        "_rows",
    )

    def __init__(self) -> None:
        self.count = 0
        # Sequential scalar sums — the summation order of Simulation.result().
        self.sum_response = 0.0
        self.sum_slowdown = 0.0
        self.sum_wait = 0.0
        self.malleable_scheduled = 0
        self.mate_jobs = 0
        # CPU-second integral of the resource histories, in (job, slot) order.
        self.dynamic_cpu_seconds = 0.0
        self._rows = ChunkedFloatBuffer(dtype=JOB_RECORD_DTYPE)

    # ------------------------------------------------------------------ #
    def fold(self, job: Job) -> None:
        """Fold one *completed* job into the accumulator."""
        if job.end_time is None or job.start_time is None:
            raise ValueError(f"job {job.job_id} is not completed; cannot fold")
        response = job.end_time - job.submit_time
        wait = job.start_time - job.submit_time
        slowdown = response / job.static_runtime
        self.count += 1
        self.sum_response += response
        self.sum_slowdown += slowdown
        self.sum_wait += wait
        if job.scheduled_malleable:
            self.malleable_scheduled += 1
        if job.was_mate:
            self.mate_jobs += 1
        cpu_seconds = 0.0
        for slot in job.resource_history:
            duration = slot.duration
            if duration > 0 and math.isfinite(duration):
                slot_cpu_seconds = slot.total_cpus * duration
                cpu_seconds += slot_cpu_seconds
                self.dynamic_cpu_seconds += slot_cpu_seconds
        self._rows.append(
            (
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
                max(1.0, response / max(job.static_runtime, self.BOUNDED_SLOWDOWN_TAU)),
                cpu_seconds,
                1 if job.malleable else 0,
                1 if job.scheduled_malleable else 0,
                1 if job.was_mate else 0,
            )
        )

    # ------------------------------------------------------------------ #
    def records(self) -> np.ndarray:
        """One :data:`JOB_RECORD_DTYPE` row per folded job, in fold order."""
        return self._rows.as_array()

    def energy_joules(
        self,
        num_nodes: int,
        cpus_per_node: int,
        idle_watts: float,
        peak_watts: float,
        first_submit: float,
        last_end: float,
    ) -> float:
        """Workload energy: idle power of every node over the run window
        plus the dynamic power of every folded CPU-second."""
        if not self.count or last_end <= first_submit:
            return 0.0
        idle_energy = num_nodes * idle_watts * (last_end - first_submit)
        per_cpu = (peak_watts - idle_watts) / cpus_per_node
        return idle_energy + per_cpu * self.dynamic_cpu_seconds

    def workload_metrics(
        self, energy_joules: float = 0.0, first_submit: Optional[float] = None
    ) -> WorkloadMetrics:
        """The full :class:`WorkloadMetrics`, bit-identical to
        :func:`repro.metrics.aggregates.compute_metrics` over the same jobs
        in the same order."""
        return WorkloadMetrics.from_records(self.records(), first_submit, energy_joules)
