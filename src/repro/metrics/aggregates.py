"""Aggregate scheduling metrics (Section 4 of the paper).

The paper evaluates every experiment with four metrics:

* **Makespan** — last job end time minus first job arrival time.
* **Average response time** — mean of (end − submit) over all jobs.
* **Average slowdown** — mean of (response time / static execution time).
* **Energy consumption** — handled by :mod:`repro.metrics.energy`.

A simulation folds these online (:mod:`repro.metrics.streaming`);
:func:`compute_metrics` recomputes them from a plain sequence of completed
:class:`repro.simulator.job.Job` objects and is the batch oracle the
streaming fold is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.simulator.job import Job


@dataclass
class WorkloadMetrics:
    """All aggregate metrics of one run, plus a few useful extras."""

    num_jobs: int
    makespan: float
    avg_response_time: float
    avg_wait_time: float
    avg_slowdown: float
    avg_bounded_slowdown: float
    median_slowdown: float
    p95_slowdown: float
    avg_runtime: float
    malleable_scheduled: int
    mate_jobs: int
    energy_joules: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary form (used by the report/figure helpers)."""
        out = {
            "num_jobs": self.num_jobs,
            "makespan": self.makespan,
            "avg_response_time": self.avg_response_time,
            "avg_wait_time": self.avg_wait_time,
            "avg_slowdown": self.avg_slowdown,
            "avg_bounded_slowdown": self.avg_bounded_slowdown,
            "median_slowdown": self.median_slowdown,
            "p95_slowdown": self.p95_slowdown,
            "avg_runtime": self.avg_runtime,
            "malleable_scheduled": self.malleable_scheduled,
            "mate_jobs": self.mate_jobs,
            "energy_joules": self.energy_joules,
        }
        out.update(self.extra)
        return out

    @classmethod
    def from_records(
        cls,
        records: np.ndarray,
        first_submit: Optional[float] = None,
        energy_joules: float = 0.0,
    ) -> "WorkloadMetrics":
        """Reduce per-job record rows (``JOB_RECORD_DTYPE``), in completion order.

        The one reduction behind a simulation's fold and the persisted
        records: each derived column is reduced as a contiguous ``float64``
        copy with the NumPy calls :func:`compute_metrics` makes, so both are
        bit-identical to it.  The makespan runs from ``first_submit`` (the
        earliest folded submit when ``None``) to the last folded end.
        """
        if not len(records):
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, energy_joules)

        def column(name: str) -> np.ndarray:
            return np.ascontiguousarray(records[name])

        origin = float(np.min(records["submit"])) if first_submit is None else first_submit
        slowdown = column("slowdown")
        return cls(
            num_jobs=len(records),
            makespan=max(0.0, float(np.max(records["end"])) - origin),
            avg_response_time=float(np.mean(column("response"))),
            avg_wait_time=float(np.mean(column("wait"))),
            avg_slowdown=float(np.mean(slowdown)),
            avg_bounded_slowdown=float(np.mean(column("bounded_slowdown"))),
            median_slowdown=float(np.median(slowdown)),
            p95_slowdown=float(np.percentile(slowdown, 95)),
            avg_runtime=float(np.mean(column("runtime"))),
            malleable_scheduled=int(np.count_nonzero(records["scheduled_malleable"])),
            mate_jobs=int(np.count_nonzero(records["was_mate"])),
            energy_joules=energy_joules,
        )


def compute_metrics(
    jobs: Iterable[Job],
    energy_joules: float = 0.0,
    first_submit: Optional[float] = None,
) -> WorkloadMetrics:
    """Compute the full :class:`WorkloadMetrics` for a set of completed jobs.

    One pass over the jobs collects every per-metric series and counter;
    the NumPy reductions then see the same values in the same order as the
    previous per-metric passes, so the outputs are bit-identical.
    ``first_submit`` anchors the makespan at the run-level first submission.
    Without it the origin is the earliest submit among the completed jobs,
    which drifts late whenever the earliest-submitted job never finished.
    """
    responses: List[float] = []
    waits: List[float] = []
    slowdowns_list: List[float] = []
    bounded: List[float] = []
    runtimes: List[float] = []
    malleable_scheduled = 0
    mate_jobs = 0
    min_submit = math.inf
    max_end = -math.inf
    for job in jobs:
        if job.end_time is None:
            continue
        responses.append(job.response_time)
        waits.append(job.wait_time)
        slowdowns_list.append(job.slowdown)
        bounded.append(job.bounded_slowdown(10.0))
        runtimes.append(job.actual_runtime)
        if job.scheduled_malleable:
            malleable_scheduled += 1
        if job.was_mate:
            mate_jobs += 1
        if job.submit_time < min_submit:
            min_submit = job.submit_time
        if job.end_time > max_end:
            max_end = job.end_time
    if not responses:
        return WorkloadMetrics(
            num_jobs=0,
            makespan=0.0,
            avg_response_time=0.0,
            avg_wait_time=0.0,
            avg_slowdown=0.0,
            avg_bounded_slowdown=0.0,
            median_slowdown=0.0,
            p95_slowdown=0.0,
            avg_runtime=0.0,
            malleable_scheduled=0,
            mate_jobs=0,
            energy_joules=energy_joules,
        )
    origin = min_submit if first_submit is None else first_submit
    slowdowns = np.asarray(slowdowns_list, dtype=np.float64)
    return WorkloadMetrics(
        num_jobs=len(responses),
        makespan=max(0.0, max_end - origin),
        avg_response_time=float(np.mean(responses)),
        avg_wait_time=float(np.mean(waits)),
        avg_slowdown=float(np.mean(slowdowns)),
        avg_bounded_slowdown=float(np.mean(bounded)),
        median_slowdown=float(np.median(slowdowns)),
        p95_slowdown=float(np.percentile(slowdowns, 95)),
        avg_runtime=float(np.mean(runtimes)),
        malleable_scheduled=malleable_scheduled,
        mate_jobs=mate_jobs,
        energy_joules=energy_joules,
    )
