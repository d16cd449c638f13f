"""Tests for FCFS and the static (conservative) backfill baseline."""

from __future__ import annotations

import pytest

from repro.schedulers.backfill import BackfillScheduler
from repro.schedulers.fcfs import FCFSScheduler
from repro.simulator.cluster import Cluster
from repro.simulator.simulation import Simulation
from tests.conftest import make_job


def _run(scheduler, jobs, nodes=4, cpus=8):
    cluster = Cluster(num_nodes=nodes, sockets=2, cores_per_socket=cpus // 2)
    sim = Simulation(cluster, scheduler)
    sim.submit_jobs(jobs)
    result = sim.run()
    cluster.validate()
    return {j.job_id: j for j in jobs}, result


class TestFCFS:
    def test_starts_in_submission_order(self):
        jobs = [
            make_job(job_id=1, submit=0.0, nodes=3, runtime=100.0, req_time=100.0),
            make_job(job_id=2, submit=1.0, nodes=3, runtime=100.0, req_time=100.0),
            make_job(job_id=3, submit=2.0, nodes=1, runtime=10.0, req_time=10.0),
        ]
        by_id, _ = _run(FCFSScheduler(), jobs)
        # Strict FCFS: job 3 cannot jump ahead of job 2 even though a node is free.
        assert by_id[2].start_time == pytest.approx(100.0)
        assert by_id[3].start_time >= by_id[2].start_time

    def test_invalid_max_job_test(self):
        with pytest.raises(ValueError):
            BackfillScheduler(max_job_test=0)


class TestBackfill:
    def test_small_job_backfills_into_hole(self):
        # Job1 occupies 3 nodes for 100s; job2 needs 4 nodes and must wait;
        # job3 needs 1 node for 50s and fits in the hole without delaying job2.
        jobs = [
            make_job(job_id=1, submit=0.0, nodes=3, runtime=100.0, req_time=100.0),
            make_job(job_id=2, submit=1.0, nodes=4, runtime=100.0, req_time=100.0),
            make_job(job_id=3, submit=2.0, nodes=1, runtime=50.0, req_time=50.0),
        ]
        by_id, _ = _run(BackfillScheduler(), jobs)
        assert by_id[3].start_time == pytest.approx(2.0)      # backfilled immediately
        assert by_id[2].start_time == pytest.approx(100.0)    # not delayed

    def test_backfill_does_not_delay_reserved_job(self):
        # A long job that would overlap the reservation must NOT be backfilled.
        jobs = [
            make_job(job_id=1, submit=0.0, nodes=3, runtime=100.0, req_time=100.0),
            make_job(job_id=2, submit=1.0, nodes=4, runtime=100.0, req_time=100.0),
            make_job(job_id=3, submit=2.0, nodes=1, runtime=500.0, req_time=500.0),
        ]
        by_id, _ = _run(BackfillScheduler(), jobs)
        assert by_id[2].start_time == pytest.approx(100.0)
        # Job3 overlaps job2's reservation on its node, so it waits for job2.
        assert by_id[3].start_time >= by_id[2].start_time

    def test_uses_requested_time_for_reservations(self):
        # Job1 occupies 3 nodes: it really runs 50s but requested 1000s, so
        # job2's (4-node) reservation is placed at t=1000.  Job3 (1 node,
        # 200s) therefore backfills immediately on the free node — and ends
        # up delaying job2, which could have started at t=50 with perfect
        # runtime knowledge.  This is exactly SLURM's requested-time
        # behaviour that the paper's estimates inherit.
        jobs = [
            make_job(job_id=1, submit=0.0, nodes=3, runtime=50.0, req_time=1000.0),
            make_job(job_id=2, submit=1.0, nodes=4, runtime=100.0, req_time=100.0),
            make_job(job_id=3, submit=2.0, nodes=1, runtime=200.0, req_time=200.0),
        ]
        by_id, _ = _run(BackfillScheduler(), jobs)
        assert by_id[3].start_time == pytest.approx(2.0)
        assert by_id[2].start_time == pytest.approx(202.0)

    def test_priority_respected_under_equal_conditions(self):
        jobs = [
            make_job(job_id=1, submit=0.0, nodes=2, runtime=100.0, req_time=100.0),
            make_job(job_id=2, submit=1.0, nodes=2, runtime=100.0, req_time=100.0),
            make_job(job_id=3, submit=2.0, nodes=2, runtime=100.0, req_time=100.0),
        ]
        by_id, _ = _run(BackfillScheduler(), jobs)
        assert by_id[1].start_time <= by_id[2].start_time <= by_id[3].start_time

    def test_max_job_test_limits_examination(self):
        # With max_job_test=1 only the head job is examined per pass, so the
        # backfillable job 3 cannot start early.  Fresh job objects are built
        # per run because Job instances are stateful.
        def jobs():
            return [
                make_job(job_id=1, submit=0.0, nodes=3, runtime=100.0, req_time=100.0),
                make_job(job_id=2, submit=1.0, nodes=4, runtime=100.0, req_time=100.0),
                make_job(job_id=3, submit=2.0, nodes=1, runtime=50.0, req_time=50.0),
            ]

        by_id_deep, _ = _run(BackfillScheduler(max_job_test=100), jobs())
        by_id_shallow, _ = _run(BackfillScheduler(max_job_test=1), jobs())
        assert by_id_deep[3].start_time < by_id_shallow[3].start_time

    def test_makespan_never_worse_than_fcfs(self, tiny_workload):
        def run_policy(scheduler):
            cluster = Cluster(num_nodes=16, sockets=2, cores_per_socket=4)
            sim = Simulation(cluster, scheduler)
            sim.submit_jobs(tiny_workload.to_jobs(cpus_per_node=8))
            return sim.run()

        fcfs = run_policy(FCFSScheduler())
        backfill = run_policy(BackfillScheduler())
        assert backfill.num_jobs == fcfs.num_jobs
        # Backfill should not increase the average wait time of the workload.
        assert backfill.avg_wait_time <= fcfs.avg_wait_time * 1.001

    def test_all_allocations_whole_node_and_exclusive(self, tiny_workload):
        cluster = Cluster(num_nodes=16, sockets=2, cores_per_socket=4)
        sim = Simulation(cluster, BackfillScheduler())
        jobs = tiny_workload.to_jobs(cpus_per_node=8)
        sim.submit_jobs(jobs)
        sim.run()
        for job in jobs:
            for slot in job.resource_history:
                assert all(cpus == 8 for cpus in slot.cpus_per_node.values())
