"""Unit tests for the Node allocation model."""

from __future__ import annotations

import pytest

from repro.simulator.node import Node, NodeAllocationError


@pytest.fixture
def node() -> Node:
    return Node(0, sockets=2, cores_per_socket=4)


class TestNodeBasics:
    def test_total_cpus(self, node):
        assert node.total_cpus == 8

    def test_initially_free(self, node):
        assert node.is_free
        assert node.free_cpus == 8
        assert node.used_cpus == 0

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            Node(0, sockets=0, cores_per_socket=4)


class TestAllocate:
    def test_allocate_holds_cpus(self, node):
        node.allocate(1, 8)
        assert node.used_cpus == 8
        assert not node.is_free

    def test_second_job_shares_the_node(self, node):
        node.allocate(1, 4)
        node.allocate(2, 4)
        assert node.is_shared
        assert sorted(node.jobs) == [1, 2]

    def test_over_allocation_rejected(self, node):
        node.allocate(1, 6)
        with pytest.raises(NodeAllocationError):
            node.allocate(2, 4)

    def test_double_allocation_same_job_rejected(self, node):
        node.allocate(1, 4)
        with pytest.raises(NodeAllocationError):
            node.allocate(1, 2)

    def test_zero_cpus_rejected(self, node):
        with pytest.raises(NodeAllocationError):
            node.allocate(1, 0)


class TestResize:
    def test_shrink(self, node):
        node.allocate(1, 8)
        node.resize(1, 4)
        assert node.cpus_of(1) == 4
        assert node.free_cpus == 4

    def test_expand_within_capacity(self, node):
        node.allocate(1, 4)
        node.resize(1, 8)
        assert node.cpus_of(1) == 8

    def test_expand_beyond_capacity_rejected(self, node):
        node.allocate(1, 4)
        node.allocate(2, 2)
        with pytest.raises(NodeAllocationError):
            node.resize(1, 7)

    def test_resize_unknown_job_rejected(self, node):
        with pytest.raises(NodeAllocationError):
            node.resize(99, 4)

    def test_resize_to_zero_rejected(self, node):
        node.allocate(1, 4)
        with pytest.raises(NodeAllocationError):
            node.resize(1, 0)


class TestRelease:
    def test_release_returns_cpus(self, node):
        node.allocate(1, 6)
        assert node.release(1) == 6
        assert node.is_free

    def test_release_guest_keeps_mate(self, node):
        node.allocate(1, 4)
        node.allocate(2, 4)
        node.release(2)
        assert node.jobs == [1]
        assert node.cpus_of(1) == 4

    def test_release_unknown_job_rejected(self, node):
        with pytest.raises(NodeAllocationError):
            node.release(42)

    def test_cpus_of_missing_job_is_zero(self, node):
        assert node.cpus_of(3) == 0
