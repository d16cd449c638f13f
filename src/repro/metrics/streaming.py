"""Streaming (online) aggregation of the paper's metrics.

:class:`StreamingMetrics` folds each job *once, at completion time* into

* O(1) scalar state per headline aggregate — sequential sums for the mean
  response/wait/slowdown (exactly the summation order
  :meth:`repro.simulator.simulation.Simulation.result` uses), first-submit /
  last-end extrema for the makespan, malleable/mate counters, and the
  CPU-second integral behind the energy figure — and
* compact chunked ``float64`` buffers of the per-job metric values (8 bytes
  per job per metric instead of a retained :class:`~repro.simulator.job.Job`
  object), from which the :class:`~repro.metrics.aggregates.WorkloadMetrics`
  means and the exact slowdown median/p95 are computed.

The buffers exist for bit-identity: :func:`repro.metrics.aggregates
.compute_metrics` takes ``np.mean``/``np.median``/``np.percentile`` over
per-job arrays, and NumPy's pairwise summation is *not* reproducible from a
single running scalar sum.  Folding the same values in the same (completion)
order into a ``float64`` buffer and reducing with the same NumPy calls is
reproducible — ``StreamingMetrics.workload_metrics`` matches
``compute_metrics`` bit for bit, which the property suite asserts on every
workload preset.

With ``Simulation(..., retain_jobs=False)`` the driver folds each job here
and then discards it, so a million-job replay holds the metric buffers
(~40 bytes/job) instead of the full per-job state (resource histories,
per-node CPU maps — kilobytes per job).
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.metrics.aggregates import WorkloadMetrics
from repro.simulator.job import Job

__all__ = ["ChunkedFloatBuffer", "StreamingMetrics"]


class ChunkedFloatBuffer:
    """An append-only ``float64`` buffer allocated in growing chunks.

    Chunks double from ``min_chunk`` up to ``max_chunk`` entries, so tiny
    runs stay tiny while million-entry runs amortise allocation; the full
    array (for NumPy reductions) is materialised only on request.
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

    def append(self, value: float) -> None:
        current = self._current
        if current is None or self._fill == len(current):
            if current is not None:
                self._chunks.append(current)
            size = (
                self._min_chunk
                if current is None
                else min(self._max_chunk, 2 * len(current))
            )
            current = self._current = np.empty(size, dtype=np.float64)
            self._fill = 0
        current[self._fill] = value
        self._fill += 1

    def as_array(self) -> np.ndarray:
        """The buffered values, in append order, as one ``float64`` array."""
        parts = list(self._chunks)
        if self._current is not None and self._fill:
            parts.append(self._current[: self._fill])
        if not parts:
            return np.empty(0, dtype=np.float64)
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    @property
    def nbytes(self) -> int:
        """Bytes currently allocated (including unfilled chunk headroom)."""
        total = sum(c.nbytes for c in self._chunks)
        if self._current is not None:
            total += self._current.nbytes
        return total


class StreamingMetrics:
    """Online accumulator of every aggregate the paper reports.

    ``fold(job)`` must be called exactly once per completed job, in
    completion order (the order ``Simulation.completed`` would have); all
    derived quantities are then available without the job objects.
    """

    #: Bounded-slowdown threshold, matching ``compute_metrics``.
    BOUNDED_SLOWDOWN_TAU = 10.0

    __slots__ = (
        "count",
        "sum_response",
        "sum_slowdown",
        "sum_wait",
        "min_submit",
        "max_end",
        "malleable_scheduled",
        "mate_jobs",
        "dynamic_cpu_seconds",
        "_response",
        "_wait",
        "_slowdown",
        "_bounded",
        "_runtime",
    )

    def __init__(self) -> None:
        self.count = 0
        # Sequential scalar sums — the summation order of Simulation.result().
        self.sum_response = 0.0
        self.sum_slowdown = 0.0
        self.sum_wait = 0.0
        # Extrema over the *folded* jobs (the run-level first submit, which
        # also covers jobs that never complete, is the simulation's).
        self.min_submit = math.inf
        self.max_end = 0.0
        self.malleable_scheduled = 0
        self.mate_jobs = 0
        # CPU-second integral of the resource histories, in (job, slot) order.
        self.dynamic_cpu_seconds = 0.0
        self._response = ChunkedFloatBuffer()
        self._wait = ChunkedFloatBuffer()
        self._slowdown = ChunkedFloatBuffer()
        self._bounded = ChunkedFloatBuffer()
        self._runtime = ChunkedFloatBuffer()

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
        if job.submit_time < self.min_submit:
            self.min_submit = job.submit_time
        if job.end_time > self.max_end:
            self.max_end = job.end_time
        if job.scheduled_malleable:
            self.malleable_scheduled += 1
        if job.was_mate:
            self.mate_jobs += 1
        self._response.append(response)
        self._wait.append(wait)
        self._slowdown.append(slowdown)
        self._bounded.append(
            max(1.0, response / max(job.static_runtime, self.BOUNDED_SLOWDOWN_TAU))
        )
        self._runtime.append(job.end_time - job.start_time)
        for slot in job.resource_history:
            duration = slot.duration
            if duration > 0 and math.isfinite(duration):
                self.dynamic_cpu_seconds += slot.total_cpus * duration

    # ------------------------------------------------------------------ #
    def makespan(self, first_submit: Optional[float] = None) -> float:
        """Last end minus the run origin (the folded minimum by default)."""
        if not self.count:
            return 0.0
        origin = self.min_submit if first_submit is None else first_submit
        return max(0.0, self.max_end - origin)

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
        return WorkloadMetrics.reduce(
            self.makespan(first_submit),
            self._response.as_array(),
            self._wait.as_array(),
            self._slowdown.as_array(),
            self._bounded.as_array(),
            self._runtime.as_array(),
            self.malleable_scheduled,
            self.mate_jobs,
            energy_joules,
        )

    @property
    def buffer_bytes(self) -> int:
        """Bytes held by the metric buffers (the streaming mode's O(n) part)."""
        return (
            self._response.nbytes
            + self._wait.nbytes
            + self._slowdown.nbytes
            + self._bounded.nbytes
            + self._runtime.nbytes
        )
