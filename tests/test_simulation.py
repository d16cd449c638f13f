"""Tests for the simulation driver (event flow, allocation primitives, energy)."""

from __future__ import annotations


import pytest

from repro.schedulers.backfill import BackfillScheduler
from repro.schedulers.fcfs import FCFSScheduler
from repro.simulator.cluster import Cluster
from repro.simulator.job import JobState
from repro.simulator.simulation import Simulation
from tests.conftest import make_job


def _sim(cluster=None, scheduler=None, **kwargs):
    cluster = cluster or Cluster(num_nodes=4, sockets=2, cores_per_socket=4)
    scheduler = scheduler or FCFSScheduler()
    return Simulation(cluster, scheduler, **kwargs)


class TestSubmission:
    def test_duplicate_job_id_rejected(self):
        sim = _sim()
        sim.submit_jobs([make_job(job_id=1)])
        with pytest.raises(ValueError):
            sim.submit_jobs([make_job(job_id=1)])

    def test_oversized_job_rejected(self):
        sim = _sim()
        with pytest.raises(ValueError):
            sim.submit_jobs([make_job(job_id=1, nodes=100)])

    def test_empty_run(self):
        result = _sim().run()
        assert result.num_jobs == 0
        assert result.makespan == 0.0


class TestSingleJob:
    def test_single_job_timing(self):
        sim = _sim()
        job = make_job(job_id=1, submit=100.0, runtime=500.0, req_time=900.0)
        sim.submit_jobs([job])
        result = sim.run()
        assert job.state is JobState.COMPLETED
        assert job.start_time == 100.0
        assert job.end_time == 600.0
        assert result.makespan == 500.0
        assert result.avg_slowdown == pytest.approx(1.0)

    def test_job_runs_its_static_runtime_not_its_request(self):
        sim = _sim()
        job = make_job(job_id=1, runtime=300.0, req_time=7200.0)
        sim.submit_jobs([job])
        sim.run()
        assert job.actual_runtime == pytest.approx(300.0)


class TestSequencing:
    def test_fcfs_queueing_when_cluster_full(self):
        sim = _sim()
        jobs = {
            1: make_job(job_id=1, submit=0.0, nodes=4, runtime=100.0, req_time=200.0),
            2: make_job(job_id=2, submit=10.0, nodes=4, runtime=50.0, req_time=100.0),
        }
        sim.submit_jobs(jobs.values())
        sim.run()
        assert jobs[1].start_time == 0.0
        assert jobs[2].start_time == pytest.approx(100.0)
        assert jobs[2].wait_time == pytest.approx(90.0)

    def test_simultaneous_end_and_submit(self):
        # A job ending exactly when another is submitted frees the nodes for it.
        sim = _sim()
        jobs = {
            1: make_job(job_id=1, submit=0.0, nodes=4, runtime=100.0, req_time=100.0),
            2: make_job(job_id=2, submit=100.0, nodes=4, runtime=10.0, req_time=20.0),
        }
        sim.submit_jobs(jobs.values())
        sim.run()
        assert jobs[2].start_time == pytest.approx(100.0)
        assert jobs[2].wait_time == 0.0

    def test_all_jobs_complete(self, tiny_workload):
        cluster = Cluster(num_nodes=16, sockets=2, cores_per_socket=4)
        sim = Simulation(cluster, BackfillScheduler())
        jobs = tiny_workload.to_jobs(cpus_per_node=8)
        sim.submit_jobs(jobs)
        result = sim.run()
        assert result.num_jobs == len(tiny_workload)
        assert all(j.state is JobState.COMPLETED for j in jobs)
        cluster.validate()


class TestAllocationPrimitives:
    def test_start_static_requires_pending(self):
        sim = _sim()
        job = make_job(job_id=1)
        with pytest.raises(RuntimeError):
            sim.start_job_static(job)

    def test_reconfigure_requires_running(self):
        sim = _sim()
        job = make_job(job_id=1)
        with pytest.raises(RuntimeError):
            sim.reconfigure_job(job, {0: 4})

    def test_reconfigure_changes_speed_and_end(self):
        cluster = Cluster(num_nodes=1, sockets=2, cores_per_socket=4)
        sim = Simulation(cluster, FCFSScheduler())
        job = make_job(job_id=1, nodes=1, runtime=100.0, req_time=200.0)
        sim.submit_jobs([job])
        sim.step()  # submit + start at t=0
        assert job.state is JobState.RUNNING
        sim.reconfigure_job(job, {0: 4})  # shrink to half the node
        assert job.current_speed == pytest.approx(0.5)
        sim.run()
        assert job.end_time == pytest.approx(200.0)

    def test_stale_end_in_same_batch_not_counted_as_processed(self):
        """A job reconfigured by an on_job_end hook while its own end event
        sits later in the same batch: the stale event is skipped AND excluded
        from total_events (it did no work).  Regression: the old loop counted
        every popped event, inflating the pin below to 5."""

        class ReconfOnEnd(FCFSScheduler):
            def on_job_end(self, sim, job):
                for other in list(sim.running.values()):
                    slot = other.resource_history[-1]
                    sim.reconfigure_job(other, dict(slot.cpus_per_node))

        cluster = Cluster(num_nodes=2, sockets=2, cores_per_socket=4)
        sim = Simulation(cluster, ReconfOnEnd())
        jobs = [
            make_job(job_id=1, nodes=1, runtime=100.0, req_time=200.0),
            make_job(job_id=2, nodes=1, runtime=100.0, req_time=200.0),
        ]
        sim.submit_jobs(jobs)
        result = sim.run()
        assert result.num_jobs == 2
        assert {j.end_time for j in jobs} == {100.0}
        # 2 submits + job 1's end + job 2's reissued end; job 2's original
        # (staled in-batch by the reconfiguration) must not be counted.
        assert result.total_events == 4

    def test_partial_run_makespan_agrees_with_compute_metrics(self):
        """Satellite bugfix: with the run-level first submit threaded through,
        compute_metrics agrees with Simulation.result() even when the
        earliest-submitted job never completed."""
        from repro.metrics.aggregates import compute_metrics

        cluster = Cluster(num_nodes=2, sockets=2, cores_per_socket=4)
        sim = Simulation(cluster, FCFSScheduler())
        jobs = [
            make_job(job_id=1, submit=0.0, nodes=1, runtime=10000.0, req_time=20000.0),
            make_job(job_id=2, submit=5.0, nodes=1, runtime=10.0, req_time=20.0),
        ]
        sim.submit_jobs(jobs)
        result = sim.run(until=100.0)
        assert result.num_jobs == 1  # job 2 only; job 1 still running
        assert result.first_submit == 0.0
        assert result.makespan == 15.0
        # compute_metrics skips the unfinished job 1.
        metrics = compute_metrics(jobs, first_submit=result.first_submit)
        assert metrics.makespan == result.makespan
        # Without the run context the origin drifts to job 2's submit.
        assert compute_metrics(jobs).makespan == 10.0

    def test_stale_end_events_are_ignored(self):
        cluster = Cluster(num_nodes=1, sockets=2, cores_per_socket=4)
        sim = Simulation(cluster, FCFSScheduler())
        job = make_job(job_id=1, nodes=1, runtime=100.0, req_time=400.0)
        sim.submit_jobs([job])
        sim.step()
        sim.reconfigure_job(job, {0: 4})   # end moves from 100 to 200
        sim.reconfigure_job(job, {0: 8})   # back to full speed, end ~100 again
        result = sim.run()
        assert result.num_jobs == 1
        assert job.end_time == pytest.approx(100.0)
        # The job is folded once: one record row.
        assert sim.streaming.records()["job_id"].tolist() == [1]


class TestEnergyAccounting:
    def test_energy_zero_without_power_model(self):
        sim = _sim(power_model=None)
        sim.submit_jobs([make_job(job_id=1)])
        result = sim.run()
        assert result.energy_joules == 0.0

    def test_energy_matches_linear_model_single_job(self):
        cluster = Cluster(num_nodes=2, sockets=2, cores_per_socket=4)
        sim = Simulation(cluster, FCFSScheduler())
        sim.submit_jobs([make_job(job_id=1, nodes=1, runtime=1000.0, req_time=2000.0)])
        result = sim.run()
        # 2 nodes idle power over the 1000s makespan + dynamic part of one
        # fully-used 8-cpu node for 1000s.
        idle = 2 * 120.0 * 1000.0
        dynamic = (400.0 - 120.0) * 1000.0
        assert result.energy_joules == pytest.approx(idle + dynamic)

    def test_energy_increases_with_makespan(self):
        def run(runtime):
            cluster = Cluster(num_nodes=2, sockets=2, cores_per_socket=4)
            sim = Simulation(cluster, FCFSScheduler())
            sim.submit_jobs([make_job(job_id=1, nodes=1, runtime=runtime, req_time=2 * runtime)])
            return sim.run().energy_joules

        assert run(2000.0) > run(1000.0)


class TestResultSummary:
    def test_result_counts_malleable_flags(self):
        sim = _sim()
        sim.submit_jobs([make_job(job_id=1)])
        result = sim.run()
        assert result.malleable_scheduled_jobs == 0
        assert result.mate_jobs == 0
        assert result.scheduler_name == "fcfs"
        assert result.total_events >= 2  # submit + end


class TestAvailabilityProfileIsolation:
    def _busy_sim(self):
        sim = _sim()
        sim.submit_jobs([
            make_job(job_id=1, nodes=2, runtime=100.0, req_time=300.0),
            make_job(job_id=2, nodes=1, runtime=100.0, req_time=600.0),
        ])
        sim.step()  # submit + start both at t=0
        assert len(sim.running) == 2
        return sim

    def test_reservations_on_a_profile_leave_the_cache_untouched(self):
        sim = self._busy_sim()
        first = sim.availability_profile()
        base = sim._base_profile
        expected = [(0.0, 1), (300.0, 3), (600.0, 4)]
        assert first.profile() == expected
        first.add_reservation(0.0, 1000.0, 1)
        first.add_reservation(300.0, 100.0, 2)
        first.add_release(50.0, 1)
        assert first.profile() != expected
        second = sim.availability_profile()
        assert sim._base_profile is base  # served from the cache
        assert second.profile() == expected
        assert base.profile() == expected

    def test_mutated_copy_leaves_its_source_unchanged(self):
        sim = self._busy_sim()
        source = sim.availability_profile()
        expected = source.profile()
        clone = source.copy()
        clone.add_reservation(100.0, 250.0, 3)
        clone.add_release(700.0, 2)
        assert clone.profile() != expected
        assert source.profile() == expected
        assert source.earliest_start(4, 10.0) == 600.0
