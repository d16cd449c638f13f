"""Unit tests for the Cluster whole-node allocation layer."""

from __future__ import annotations

import pytest

from repro.simulator.cluster import Cluster
from repro.simulator.node import NodeAllocationError
from tests.conftest import make_job


class TestClusterBasics:
    def test_geometry(self, small_cluster):
        assert small_cluster.num_nodes == 4
        assert small_cluster.cpus_per_node == 8
        assert small_cluster.total_cpus == 32

    def test_initially_all_free(self, small_cluster):
        assert small_cluster.num_free_nodes == 4
        assert small_cluster.free_node_ids == [0, 1, 2, 3]
        assert small_cluster.used_cpus == 0
        assert small_cluster.utilization == 0.0

    def test_requires_at_least_one_node(self):
        with pytest.raises(ValueError):
            Cluster(num_nodes=0)


class TestStaticAllocation:
    def test_allocate_lowest_ids_first(self, small_cluster):
        job = make_job(nodes=2)
        nodes = small_cluster.allocate_static(job)
        assert nodes == [0, 1]
        assert small_cluster.num_free_nodes == 2
        assert small_cluster.used_cpus == 16

    def test_can_allocate(self, small_cluster):
        assert small_cluster.can_allocate(make_job(nodes=4))
        assert not small_cluster.can_allocate(make_job(nodes=5))

    def test_explicit_node_list(self, small_cluster):
        job = make_job(nodes=2)
        nodes = small_cluster.allocate_static(job, node_ids=[2, 3])
        assert nodes == [2, 3]
        assert small_cluster.free_node_ids == [0, 1]

    def test_wrong_node_count_rejected(self, small_cluster):
        with pytest.raises(NodeAllocationError):
            small_cluster.allocate_static(make_job(nodes=2), node_ids=[0])

    def test_allocating_busy_node_rejected(self, small_cluster):
        small_cluster.allocate_static(make_job(job_id=1, nodes=1), node_ids=[0])
        with pytest.raises(NodeAllocationError):
            small_cluster.allocate_static(make_job(job_id=2, nodes=1), node_ids=[0])

    def test_pick_free_nodes_insufficient(self, small_cluster):
        small_cluster.allocate_static(make_job(nodes=3))
        with pytest.raises(NodeAllocationError):
            small_cluster.pick_free_nodes(2)

    def test_validate_after_allocations(self, small_cluster):
        small_cluster.allocate_static(make_job(job_id=1, nodes=2))
        small_cluster.allocate_static(make_job(job_id=2, nodes=1))
        small_cluster.validate()


class TestSharedAllocation:
    def test_shared_allocation_on_occupied_node(self, small_cluster):
        owner = make_job(job_id=1, nodes=1)
        small_cluster.allocate_static(owner, node_ids=[0])
        small_cluster.shrink_job_on_node(1, 0, 4)
        guest = make_job(job_id=2, nodes=1)
        nodes = small_cluster.allocate_shared(guest, {0: 4})
        assert nodes == [0]
        assert small_cluster.node(0).is_shared
        assert small_cluster.node(0).free_cpus == 0
        small_cluster.validate()

    def test_shared_allocation_needs_free_cpus(self, small_cluster):
        small_cluster.allocate_static(make_job(job_id=1, nodes=1), node_ids=[0])
        with pytest.raises(NodeAllocationError):
            small_cluster.allocate_shared(make_job(job_id=2, nodes=1), {0: 4})

    def test_shared_allocation_on_free_node_becomes_owner(self, small_cluster):
        guest = make_job(job_id=2, nodes=1)
        small_cluster.allocate_shared(guest, {1: 8})
        assert small_cluster.node(1).owner == 2


class TestReconfigureAndRelease:
    def test_release_job_frees_nodes(self, small_cluster):
        job = make_job(job_id=1, nodes=2)
        small_cluster.allocate_static(job)
        job.assigned_cpus = {0: 8, 1: 8}
        small_cluster.release_job(job)
        assert small_cluster.num_free_nodes == 4
        assert small_cluster.used_cpus == 0
        small_cluster.validate()

    def test_release_shared_node_stays_occupied(self, small_cluster):
        owner = make_job(job_id=1, nodes=1)
        small_cluster.allocate_static(owner, node_ids=[0])
        owner.assigned_cpus = {0: 8}
        small_cluster.shrink_job_on_node(1, 0, 4)
        guest = make_job(job_id=2, nodes=1)
        small_cluster.allocate_shared(guest, {0: 4})
        guest.assigned_cpus = {0: 4}
        small_cluster.release_job(guest)
        assert 0 not in small_cluster.free_node_ids
        assert small_cluster.node(0).cpus_of(1) == 4
        small_cluster.validate()

    def test_reconfigure_allocation_shrink_and_expand(self, small_cluster):
        small_cluster.allocate_static(make_job(job_id=1, nodes=2))
        small_cluster.reconfigure_allocation(1, {0: 4, 1: 4})
        assert small_cluster.used_cpus == 8
        small_cluster.reconfigure_allocation(1, {0: 8, 1: 8})
        assert small_cluster.used_cpus == 16
        small_cluster.validate()

    def test_reconfigure_allocation_releases_dropped_nodes(self, small_cluster):
        small_cluster.allocate_static(make_job(job_id=1, nodes=2))
        small_cluster.reconfigure_allocation(1, {0: 8})
        assert small_cluster.free_node_ids == [1, 2, 3]
        small_cluster.validate()

    def test_reconfigure_allocation_empty_map_rejected(self, small_cluster):
        small_cluster.allocate_static(make_job(job_id=1, nodes=1))
        with pytest.raises(NodeAllocationError):
            small_cluster.reconfigure_allocation(1, {})
