"""Unit tests for the Cluster whole-node allocation layer."""

from __future__ import annotations

import pytest

from repro.simulator.cluster import Cluster
from repro.simulator.node import NodeAllocationError
from tests.conftest import make_job


def start(cluster, job):
    """Allocate whole free nodes to ``job`` and record them on the job."""
    nodes = cluster.allocate_static(job)
    job.mark_started(0.0)
    job.reconfigure(0.0, dict.fromkeys(nodes, cluster.cpus_per_node), speed=1.0)
    return job


def reconfigure(cluster, job, cpus_per_node):
    """Move ``job`` to a new CPU map on the cluster and on the job."""
    cluster.reconfigure_allocation(job, cpus_per_node)
    job.reconfigure(0.0, cpus_per_node, speed=1.0)


def used_cpus(cluster):
    return sum(node.used_cpus for node in cluster.nodes.values())


class TestClusterBasics:
    def test_geometry(self, small_cluster):
        assert small_cluster.num_nodes == 4
        assert small_cluster.cpus_per_node == 8
        assert small_cluster.total_cpus == 32

    def test_geometry_fixed_while_allocations_change(self, small_cluster):
        small_cluster.allocate_static(make_job(job_id=1, nodes=4))
        assert (small_cluster.cpus_per_node, small_cluster.total_cpus) == (8, 32)
        with pytest.raises(AttributeError):
            small_cluster.total_cpus = 64

    def test_initially_all_free(self, small_cluster):
        assert small_cluster.num_free_nodes == 4
        assert small_cluster.free_node_ids == [0, 1, 2, 3]
        assert used_cpus(small_cluster) == 0

    def test_requires_at_least_one_node(self):
        with pytest.raises(ValueError):
            Cluster(num_nodes=0)


class TestStaticAllocation:
    def test_allocate_lowest_ids_first(self, small_cluster):
        job = make_job(nodes=2)
        nodes = small_cluster.allocate_static(job)
        assert nodes == [0, 1]
        assert small_cluster.num_free_nodes == 2
        assert used_cpus(small_cluster) == 16

    def test_can_allocate(self, small_cluster):
        assert small_cluster.can_allocate(make_job(nodes=4))
        assert not small_cluster.can_allocate(make_job(nodes=5))

    def test_allocate_skips_occupied_nodes(self, small_cluster):
        small_cluster.allocate_shared(make_job(job_id=1, nodes=1), {1: 2})
        assert small_cluster.allocate_static(make_job(job_id=2, nodes=2)) == [0, 2]
        assert small_cluster.free_node_ids == [3]

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
        mate = start(small_cluster, make_job(job_id=1, nodes=1))
        reconfigure(small_cluster, mate, {0: 4})
        guest = make_job(job_id=2, nodes=1)
        nodes = small_cluster.allocate_shared(guest, {0: 4})
        assert nodes == [0]
        assert small_cluster.node(0).is_shared
        assert small_cluster.node(0).free_cpus == 0
        small_cluster.validate()

    def test_shared_allocation_needs_free_cpus(self, small_cluster):
        small_cluster.allocate_static(make_job(job_id=1, nodes=1))
        with pytest.raises(NodeAllocationError):
            small_cluster.allocate_shared(make_job(job_id=2, nodes=1), {0: 4})

    def test_shared_allocation_on_free_node_takes_it(self, small_cluster):
        small_cluster.allocate_shared(make_job(job_id=2, nodes=1), {1: 8})
        assert small_cluster.free_node_ids == [0, 2, 3]
        assert small_cluster.node(1).cpus_of(2) == 8


class TestReconfigureAndRelease:
    def test_release_job_frees_nodes(self, small_cluster):
        job = start(small_cluster, make_job(job_id=1, nodes=2))
        small_cluster.release_job(job)
        assert small_cluster.num_free_nodes == 4
        assert used_cpus(small_cluster) == 0
        small_cluster.validate()

    def test_release_shared_node_stays_occupied(self, small_cluster):
        mate = start(small_cluster, make_job(job_id=1, nodes=1))
        reconfigure(small_cluster, mate, {0: 4})
        guest = make_job(job_id=2, nodes=1)
        small_cluster.allocate_shared(guest, {0: 4})
        guest.mark_started(0.0)
        guest.reconfigure(0.0, {0: 4}, speed=1.0)
        small_cluster.release_job(guest)
        assert 0 not in small_cluster.free_node_ids
        assert small_cluster.node(0).cpus_of(1) == 4
        small_cluster.validate()

    def test_reconfigure_allocation_shrink_and_expand(self, small_cluster):
        job = start(small_cluster, make_job(job_id=1, nodes=2))
        reconfigure(small_cluster, job, {0: 4, 1: 4})
        assert used_cpus(small_cluster) == 8
        reconfigure(small_cluster, job, {0: 8, 1: 8})
        assert used_cpus(small_cluster) == 16
        small_cluster.validate()

    def test_reconfigure_allocation_releases_dropped_nodes(self, small_cluster):
        job = start(small_cluster, make_job(job_id=1, nodes=2))
        reconfigure(small_cluster, job, {0: 8})
        assert small_cluster.free_node_ids == [1, 2, 3]
        small_cluster.validate()

    def test_reconfigure_allocation_empty_map_rejected(self, small_cluster):
        job = start(small_cluster, make_job(job_id=1, nodes=1))
        with pytest.raises(NodeAllocationError):
            small_cluster.reconfigure_allocation(job, {})

    def test_reconfigure_allocation_reads_only_the_jobs_nodes(self, small_cluster):
        job = start(small_cluster, make_job(job_id=1, nodes=2))  # nodes 0, 1
        start(small_cluster, make_job(job_id=2, nodes=1))  # node 2

        class ReadRecorder(dict):
            def __init__(self, table):
                super().__init__(table)
                self.read = set()

            def __getitem__(self, nid):
                self.read.add(nid)
                return super().__getitem__(nid)

            def items(self):  # a scan of the table reads every node
                self.read.update(self)
                return super().items()

        small_cluster.nodes = table = ReadRecorder(small_cluster.nodes)
        reconfigure(small_cluster, job, {1: 4, 3: 8})
        assert table.read == {0, 1, 3}
        assert small_cluster.free_node_ids == [0]
        small_cluster.validate()
