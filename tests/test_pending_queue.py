"""Unit tests for the pending-job queue."""

from __future__ import annotations

import pytest

from repro.simulator.pending_queue import PendingQueue
from tests.conftest import make_job


class TestPendingQueue:
    def test_add_and_contains(self):
        q = PendingQueue()
        q.add(make_job(job_id=1))
        assert 1 in q
        assert len(q) == 1
        assert bool(q)

    def test_duplicate_add_rejected(self):
        q = PendingQueue()
        q.add(make_job(job_id=1))
        with pytest.raises(ValueError):
            q.add(make_job(job_id=1))

    def test_remove(self):
        q = PendingQueue()
        q.add(make_job(job_id=1))
        job = q.remove(1)
        assert job.job_id == 1
        assert 1 not in q
        assert not q

    def test_get_returns_none_for_missing(self):
        assert PendingQueue().get(99) is None

    def test_fifo_order(self):
        q = PendingQueue()
        for i, submit in enumerate([0.0, 10.0, 20.0], start=1):
            q.add(make_job(job_id=i, submit=submit))
        assert [j.job_id for j in q.ordered()] == [1, 2, 3]
        assert q.head().job_id == 1

    def test_iteration_follows_order(self):
        q = PendingQueue()
        q.add(make_job(job_id=3, submit=5.0))
        q.add(make_job(job_id=4, submit=6.0))
        assert [j.job_id for j in q] == [3, 4]

    def test_head_of_empty_queue(self):
        assert PendingQueue().head() is None

    def test_remove_and_readd_preserves_fifo_order(self):
        """Regression: re-adding an earlier-submitted job after remove()
        appends it at the dict's end, so the FIFO fast path must not trust
        insertion order any more."""
        q = PendingQueue()
        for i, submit in enumerate([0.0, 10.0, 20.0], start=1):
            q.add(make_job(job_id=i, submit=submit))
        q.remove(1)
        q.add(make_job(job_id=1, submit=0.0))  # now last in insertion order
        assert [j.job_id for j in q.ordered()] == [1, 2, 3]
        assert q.head().job_id == 1

    def test_out_of_order_submit_times_are_sorted(self):
        q = PendingQueue()
        q.add(make_job(job_id=1, submit=50.0))
        q.add(make_job(job_id=2, submit=10.0))
        q.add(make_job(job_id=3, submit=30.0))
        assert [j.job_id for j in q.ordered()] == [2, 3, 1]

    def test_same_submit_time_ties_break_on_job_id(self):
        q = PendingQueue()
        q.add(make_job(job_id=5, submit=10.0))
        q.add(make_job(job_id=2, submit=10.0))
        assert [j.job_id for j in q.ordered()] == [2, 5]

    def test_in_order_insertion_keeps_fast_path(self):
        q = PendingQueue()
        for i in range(1, 5):
            q.add(make_job(job_id=i, submit=float(i)))
        assert q._fifo_only
        q.remove(4)
        q.add(make_job(job_id=6, submit=6.0))  # still behind the tail: fine
        assert q._fifo_only
        assert [j.job_id for j in q.ordered()] == [1, 2, 3, 6]

    def test_ordered_limit_takes_the_first_jobs_of_either_path(self):
        q = PendingQueue()
        for i, submit in enumerate([0.0, 10.0, 20.0], start=1):
            q.add(make_job(job_id=i, submit=submit))
        assert [j.job_id for j in q.ordered(2)] == [1, 2]
        q.add(make_job(job_id=4, submit=5.0))  # behind the tail: leaves the FIFO path
        assert not q._fifo_only
        assert [j.job_id for j in q.ordered(2)] == [1, 4]
        assert [j.job_id for j in q.ordered(10)] == [1, 4, 2, 3]
