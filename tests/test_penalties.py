"""Tests for slowdown penalties (Eq. 4) and the MAX_SLOWDOWN cut-offs."""

from __future__ import annotations

import math

import pytest

from repro.core.penalties import (
    DynamicAverageMaxSlowdown,
    StaticMaxSlowdown,
    mate_penalty,
    predicted_running_slowdown,
)
from repro.schedulers.fcfs import FCFSScheduler
from repro.simulator.cluster import Cluster
from repro.simulator.simulation import Simulation
from tests.conftest import make_job


def _running_job(job_id=1, submit=0.0, start=100.0, req_time=1000.0, runtime=500.0):
    job = make_job(job_id=job_id, submit=submit, req_time=req_time, runtime=runtime)
    job.mark_started(start)
    job.reconfigure(start, {0: 8}, speed=1.0)
    return job


class TestPredictedRunningSlowdown:
    def test_no_wait_slowdown_is_one(self):
        job = _running_job(submit=0.0, start=0.0)
        assert predicted_running_slowdown(job) == pytest.approx(1.0)

    def test_wait_increases_slowdown(self):
        job = _running_job(submit=0.0, start=1000.0, req_time=1000.0)
        assert predicted_running_slowdown(job) == pytest.approx(2.0)

    def test_not_started_raises(self):
        with pytest.raises(ValueError):
            predicted_running_slowdown(make_job())


class TestMatePenalty:
    def test_equation_four(self):
        # p = (wait + increase + req) / req
        mate = _running_job(submit=0.0, start=200.0, req_time=1000.0)
        assert mate_penalty(mate, increase=300.0) == pytest.approx((200 + 300 + 1000) / 1000)

    def test_zero_increase(self):
        mate = _running_job(submit=0.0, start=0.0, req_time=1000.0)
        assert mate_penalty(mate, increase=0.0) == pytest.approx(1.0)

    def test_penalty_grows_with_wait(self):
        short_wait = _running_job(submit=0.0, start=10.0)
        long_wait = _running_job(submit=0.0, start=500.0)
        assert mate_penalty(long_wait, 100.0) > mate_penalty(short_wait, 100.0)

    def test_penalty_smaller_for_longer_requests(self):
        # Longer jobs absorb the same increase with less relative impact —
        # exactly why the heuristic prefers them as mates.
        short_req = _running_job(req_time=500.0)
        long_req = _running_job(req_time=5000.0)
        assert mate_penalty(long_req, 100.0) < mate_penalty(short_req, 100.0)

    def test_negative_increase_rejected(self):
        with pytest.raises(ValueError):
            mate_penalty(_running_job(), increase=-1.0)

    def test_unstarted_mate_rejected(self):
        with pytest.raises(ValueError):
            mate_penalty(make_job(), increase=0.0)


class TestStaticCutoff:
    def test_admits_below_threshold(self):
        cutoff = StaticMaxSlowdown(10.0)
        assert cutoff.admits(9.99)
        assert not cutoff.admits(10.0)
        assert not cutoff.admits(50.0)

    def test_infinite_threshold_admits_everything(self):
        cutoff = StaticMaxSlowdown(math.inf)
        assert cutoff.admits(1e12)
        assert cutoff.label == "MAXSD inf"

    def test_label(self):
        assert StaticMaxSlowdown(10).label == "MAXSD 10"

    def test_non_positive_value_rejected(self):
        with pytest.raises(ValueError):
            StaticMaxSlowdown(0.0)


class TestDynamicCutoff:
    def _sim_with_running(self, waits):
        cluster = Cluster(num_nodes=len(waits), sockets=2, cores_per_socket=4)
        sim = Simulation(cluster, FCFSScheduler())
        for i, wait in enumerate(waits, start=1):
            job = make_job(job_id=i, submit=0.0, req_time=1000.0)
            sim.jobs[job.job_id] = job
            sim.pending.add(job)
            sim.now = wait
            sim.start_job_static(job)
        return sim

    def test_threshold_is_running_average(self):
        sim = self._sim_with_running([0.0, 1000.0])  # slowdowns 1.0 and 2.0
        cutoff = DynamicAverageMaxSlowdown()
        cutoff.update(sim)
        assert cutoff.threshold() == pytest.approx(1.5)

    def test_empty_system_threshold_is_infinite(self):
        cluster = Cluster(num_nodes=2, sockets=2, cores_per_socket=4)
        sim = Simulation(cluster, FCFSScheduler())
        cutoff = DynamicAverageMaxSlowdown()
        cutoff.update(sim)
        assert math.isinf(cutoff.threshold())

    def test_label(self):
        assert DynamicAverageMaxSlowdown().label == "DynAVGSD"
