"""Pending-job queue.

SLURM keeps submitted-but-not-started jobs in a priority queue; the paper's
workloads use FIFO priority (priority = submission order) with backfill
allowed to start lower-priority jobs out of order when they do not delay the
highest-priority waiting job.  This module provides that queue: FIFO by
submit time, then job id, with O(1) membership checks.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterator, List, Optional

from repro.simulator.job import Job


class PendingQueue:
    """FIFO-ordered collection of pending jobs: by ``(submit_time, job_id)``."""

    def __init__(self) -> None:
        self._jobs: Dict[int, Job] = {}
        # Fast path: with time-ordered insertion, the dict's insertion order
        # already is the scheduling order, so ``ordered()`` can skip the
        # sort.  The flag is cleared the moment the invariant stops holding:
        # an insertion behind the current tail (a tied submit time arriving
        # in falling id order, or a ``remove()`` + re-``add()`` of an
        # earlier-submitted job, which appends it at the end of the dict).
        self._fifo_only = True

    def __len__(self) -> int:
        return len(self._jobs)

    def __bool__(self) -> bool:
        return bool(self._jobs)

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._jobs

    def add(self, job: Job) -> None:
        """Insert a job; re-inserting the same job id is an error."""
        if job.job_id in self._jobs:
            raise ValueError(f"job {job.job_id} already pending")
        if self._fifo_only and self._jobs:
            # Appending behind a later-submitted tail breaks "insertion
            # order == FIFO order"; fall back to sorting from here on.
            tail = self._jobs[next(reversed(self._jobs))]
            if (job.submit_time, job.job_id) < (tail.submit_time, tail.job_id):
                self._fifo_only = False
        self._jobs[job.job_id] = job

    def remove(self, job_id: int) -> Job:
        """Remove and return the job with the given id."""
        return self._jobs.pop(job_id)

    def get(self, job_id: int) -> Optional[Job]:
        """Return the pending job with the given id, or ``None``."""
        return self._jobs.get(job_id)

    def ordered(self, limit: Optional[int] = None) -> List[Job]:
        """Jobs in scheduling priority order (highest priority first).

        With ``limit`` only the first ``limit`` jobs of that order are
        returned, so a backfill pass that examines a bounded window does not
        copy the whole queue.
        """
        if self._fifo_only:
            return list(islice(self._jobs.values(), limit))
        order = sorted(self._jobs.values(), key=lambda j: (j.submit_time, j.job_id))
        return order if limit is None else order[:limit]

    def __iter__(self) -> Iterator[Job]:
        return iter(self.ordered())

    def head(self) -> Optional[Job]:
        """The highest-priority pending job, or ``None`` if empty."""
        order = self.ordered(1)
        return order[0] if order else None
