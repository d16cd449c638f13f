"""Tests for the mate-selection heuristic (Listing 2, Eq. 1-3)."""

from __future__ import annotations

import math

import pytest

from repro.core.mate_selection import MAX_CANDIDATES, MateSelector
from repro.core.penalties import StaticMaxSlowdown
from repro.schedulers.fcfs import FCFSScheduler
from repro.simulator.cluster import Cluster
from repro.simulator.simulation import Simulation
from tests.conftest import make_job


def build_sim(num_nodes=4, cpus=8):
    cluster = Cluster(num_nodes=num_nodes, sockets=2, cores_per_socket=cpus // 2)
    return Simulation(cluster, FCFSScheduler())


def add_running(sim, job_id, nodes, req_time=10000.0, runtime=None, submit=0.0,
                malleable=True, tasks_per_node=1):
    job = make_job(
        job_id=job_id, submit=submit, nodes=nodes, req_time=req_time,
        runtime=runtime or req_time * 0.8, malleable=malleable,
        tasks_per_node=tasks_per_node,
        cpus_per_node=sim.cluster.cpus_per_node,
    )
    sim.jobs[job_id] = job
    sim.pending.add(job)
    sim.start_job_static(job)
    return job


def pending_guest(sim, job_id=100, nodes=1, req_time=500.0, submit=None):
    job = make_job(
        job_id=job_id, submit=sim.now if submit is None else submit, nodes=nodes,
        req_time=req_time, runtime=req_time * 0.8,
        cpus_per_node=sim.cluster.cpus_per_node,
    )
    sim.jobs[job_id] = job
    sim.pending.add(job)
    return job


ADMIT_ALL = StaticMaxSlowdown(math.inf)


class TestCandidateFiltering:
    def test_single_node_mate_found(self):
        sim = build_sim()
        add_running(sim, 1, nodes=1)
        guest = pending_guest(sim, nodes=1)
        selector = MateSelector()
        candidates = selector.candidate_mates(sim, guest, ADMIT_ALL)
        assert [c.job.job_id for c in candidates] == [1]
        assert candidates[0].weight == 1

    def test_non_malleable_job_excluded(self):
        sim = build_sim()
        add_running(sim, 1, nodes=1, malleable=False)
        guest = pending_guest(sim)
        assert MateSelector().candidate_mates(sim, guest, ADMIT_ALL) == []

    def test_mate_must_outlast_guest(self):
        sim = build_sim()
        add_running(sim, 1, nodes=1, req_time=100.0)      # too short to host
        guest = pending_guest(sim, req_time=500.0)        # needs 1000s shrunk
        assert MateSelector().candidate_mates(sim, guest, ADMIT_ALL) == []

    def test_cutoff_filters_high_penalty_mates(self):
        sim = build_sim()
        # A mate that waited a long time has a high predicted slowdown.
        job = make_job(job_id=1, submit=0.0, nodes=1, req_time=1000.0, runtime=900.0,
                       cpus_per_node=8)
        sim.jobs[1] = job
        sim.pending.add(job)
        sim.now = 50000.0
        sim.start_job_static(job)
        guest = pending_guest(sim, req_time=100.0)
        assert MateSelector().candidate_mates(sim, guest, StaticMaxSlowdown(5.0)) == []
        assert MateSelector().candidate_mates(sim, guest, ADMIT_ALL) != []

    def test_already_sharing_mate_excluded(self):
        sim = build_sim()
        mate = add_running(sim, 1, nodes=1)
        # Shrink the mate and co-schedule a guest on its node.
        sim.reconfigure_job(mate, {mate.allocated_nodes[0]: 4})
        first_guest = pending_guest(sim, job_id=50, nodes=1)
        sim.start_job_shared(first_guest, {mate.allocated_nodes[0]: 4}, mates=[mate])
        second_guest = pending_guest(sim, job_id=51, nodes=1)
        selector = MateSelector()
        assert selector.candidate_mates(sim, second_guest, ADMIT_ALL) == []

    def test_candidates_sorted_by_penalty(self):
        sim = build_sim()
        add_running(sim, 1, nodes=1, submit=0.0)
        long_waiter = make_job(job_id=2, submit=0.0, nodes=1, req_time=10000.0,
                               runtime=8000.0, cpus_per_node=8)
        sim.jobs[2] = long_waiter
        sim.pending.add(long_waiter)
        sim.now = 3000.0
        sim.start_job_static(long_waiter)
        guest = pending_guest(sim, job_id=100)
        candidates = MateSelector().candidate_mates(sim, guest, ADMIT_ALL)
        assert [c.job.job_id for c in candidates] == [1, 2]

    def test_max_candidates_truncation(self):
        sim = build_sim(num_nodes=MAX_CANDIDATES + 2)
        for i in range(1, MAX_CANDIDATES + 3):
            add_running(sim, i, nodes=1)
        guest = pending_guest(sim)
        candidates = MateSelector().candidate_mates(sim, guest, ADMIT_ALL)
        assert len(candidates) == MAX_CANDIDATES


class TestSelection:
    def test_exact_single_mate_match(self):
        sim = build_sim()
        add_running(sim, 1, nodes=1)
        guest = pending_guest(sim, nodes=1)
        selection = MateSelector().select(sim, guest, ADMIT_ALL)
        assert selection is not None
        assert [m.job_id for m in selection.mates] == [1]
        assert sum(selection.guest_cpus_per_node.values()) == 4
        assert selection.estimated_guest_runtime == pytest.approx(guest.requested_time * 2)

    def test_two_mates_combined(self):
        sim = build_sim()
        add_running(sim, 1, nodes=1)
        add_running(sim, 2, nodes=1)
        guest = pending_guest(sim, nodes=2)
        selection = MateSelector(max_mates=2).select(sim, guest, ADMIT_ALL)
        assert selection is not None
        assert sorted(m.job_id for m in selection.mates) == [1, 2]
        assert len(selection.guest_cpus_per_node) == 2

    def test_max_mates_one_cannot_combine(self):
        sim = build_sim()
        add_running(sim, 1, nodes=1)
        add_running(sim, 2, nodes=1)
        guest = pending_guest(sim, nodes=2)
        assert MateSelector(max_mates=1).select(sim, guest, ADMIT_ALL) is None

    def test_exact_weight_constraint(self):
        # A 2-node mate cannot host a 1-node guest (constraint 3 equality).
        sim = build_sim()
        add_running(sim, 1, nodes=2)
        guest = pending_guest(sim, nodes=1)
        assert MateSelector().select(sim, guest, ADMIT_ALL) is None

    def test_minimum_penalty_combination_chosen(self):
        sim = build_sim(num_nodes=6)
        add_running(sim, 1, nodes=1, req_time=20000.0, submit=0.0)
        # Job 2 waited longer -> higher penalty.
        late = make_job(job_id=2, submit=0.0, nodes=1, req_time=20000.0, runtime=15000.0,
                        cpus_per_node=8)
        sim.jobs[2] = late
        sim.pending.add(late)
        sim.now = 5000.0
        sim.start_job_static(late)
        guest = pending_guest(sim, job_id=100, nodes=1)
        selection = MateSelector().select(sim, guest, ADMIT_ALL)
        assert [m.job_id for m in selection.mates] == [1]

    def test_selection_respects_rank_minimums(self):
        sim = build_sim()
        add_running(sim, 1, nodes=1, tasks_per_node=8)  # cannot shrink at all
        guest = pending_guest(sim, nodes=1)
        assert MateSelector().select(sim, guest, ADMIT_ALL) is None

    def test_no_candidates_returns_none(self):
        sim = build_sim()
        guest = pending_guest(sim, nodes=1)
        assert MateSelector().select(sim, guest, ADMIT_ALL) is None

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MateSelector(sharing_factor=0.0)
        with pytest.raises(ValueError):
            MateSelector(max_mates=0)
