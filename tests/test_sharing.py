"""Tests for the SharingFactor node-splitting rules."""

from __future__ import annotations

import pytest

from repro.core.contention import ContentionModel
from repro.core.sharing import (
    guest_share_of_node,
    plan_node_sharing,
)
from repro.simulator.node import Node
from tests.conftest import make_job


@pytest.fixture
def node():
    return Node(0, sockets=2, cores_per_socket=24)  # 48-core MN4-like node


class TestGuestShare:
    def test_half_of_node(self):
        assert guest_share_of_node(48, 0.5) == 24

    def test_quarter_of_node(self):
        assert guest_share_of_node(48, 0.25) == 12

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            guest_share_of_node(48, 0.0)
        with pytest.raises(ValueError):
            guest_share_of_node(48, 1.0)


class TestPlanNodeSharing:
    def test_even_split_at_half(self, node):
        mate = make_job(job_id=1, nodes=1, cpus_per_node=48)
        guest = make_job(job_id=2, nodes=1, cpus_per_node=48)
        node.allocate(1, 48)
        plan = plan_node_sharing(node, mate, guest, 0.5)
        assert plan is not None
        assert plan.mate_cpus == 24
        assert plan.guest_cpus == 24
        assert plan.total == 48

    def test_sharing_factor_limits_take(self, node):
        mate = make_job(job_id=1, nodes=1, cpus_per_node=48)
        guest = make_job(job_id=2, nodes=1, cpus_per_node=48)
        node.allocate(1, 48)
        plan = plan_node_sharing(node, mate, guest, 0.25)
        assert plan.guest_cpus == 12
        assert plan.mate_cpus == 36

    def test_mate_keeps_one_cpu_per_rank(self, node):
        mate = make_job(job_id=1, nodes=1, cpus_per_node=48, tasks_per_node=30)
        guest = make_job(job_id=2, nodes=1, cpus_per_node=48)
        node.allocate(1, 48)
        plan = plan_node_sharing(node, mate, guest, 0.5)
        # The mate can only give up 18 CPUs (48 - 30 ranks).
        assert plan.mate_cpus == 30
        assert plan.guest_cpus == 18

    def test_infeasible_when_mate_cannot_shrink(self, node):
        mate = make_job(job_id=1, nodes=1, cpus_per_node=48, tasks_per_node=48)
        guest = make_job(job_id=2, nodes=1, cpus_per_node=48)
        node.allocate(1, 48)
        assert plan_node_sharing(node, mate, guest, 0.5) is None

    def test_infeasible_when_mate_not_on_node(self, node):
        mate = make_job(job_id=1, nodes=1, cpus_per_node=48)
        guest = make_job(job_id=2, nodes=1, cpus_per_node=48)
        assert plan_node_sharing(node, mate, guest, 0.5) is None

    def test_free_cpus_top_up_guest(self, node):
        # The mate only holds half the node; the free half also goes to the guest.
        mate = make_job(job_id=1, nodes=1, cpus_per_node=48)
        guest = make_job(job_id=2, nodes=1, cpus_per_node=48)
        node.allocate(1, 24)
        plan = plan_node_sharing(node, mate, guest, 0.5)
        assert plan.guest_cpus == 24 + 23  # 23 taken from mate (keeps 1 rank) + 24 free
        assert plan.mate_cpus == 1

    def test_guest_rank_minimum_respected(self, node):
        mate = make_job(job_id=1, nodes=1, cpus_per_node=48, tasks_per_node=47)
        guest = make_job(job_id=2, nodes=1, cpus_per_node=48, tasks_per_node=8)
        node.allocate(1, 48)
        # Mate can give only 1 CPU, guest needs at least 8.
        assert plan_node_sharing(node, mate, guest, 0.5) is None


class TestPlanNodeSharingEdges:
    def test_zero_cpu_guest_share_infeasible(self, node):
        # A factor small enough that the guest's share truncates to zero
        # CPUs: with the node fully owned there is nothing to top up from,
        # so no plan exists.
        mate = make_job(job_id=1, nodes=1, cpus_per_node=48)
        guest = make_job(job_id=2, nodes=1, cpus_per_node=48)
        node.allocate(1, 48)
        assert guest_share_of_node(48, 0.02) == 0
        assert plan_node_sharing(node, mate, guest, 0.02) is None

    def test_sharing_factor_bounds_rejected(self, node):
        # The open interval (0, 1) is enforced at the bounds themselves.
        mate = make_job(job_id=1, nodes=1, cpus_per_node=48)
        guest = make_job(job_id=2, nodes=1, cpus_per_node=48)
        node.allocate(1, 48)
        for factor in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                plan_node_sharing(node, mate, guest, factor)


class TestBandwidthFeasibility:
    def test_oversubscribed_pair_rejected(self, node):
        # STREAM + CoreNeuron demand 0.95 + 0.55 = 1.5 > 1.4 capacity.
        mate = make_job(job_id=1, nodes=1, cpus_per_node=48, application="STREAM")
        guest = make_job(
            job_id=2, nodes=1, cpus_per_node=48, application="CoreNeuron"
        )
        node.allocate(1, 48)
        assert plan_node_sharing(node, mate, guest, 0.5) is not None
        assert (
            plan_node_sharing(node, mate, guest, 0.5, contention=ContentionModel())
            is None
        )

    def test_feasible_pair_matches_no_contention_plan(self, node):
        # STREAM + PILS demand 0.95 + 0.10 = 1.05 <= 1.4: the plan must be
        # identical to the historical no-contention split.
        mate = make_job(job_id=1, nodes=1, cpus_per_node=48, application="STREAM")
        guest = make_job(job_id=2, nodes=1, cpus_per_node=48, application="PILS")
        node.allocate(1, 48)
        plain = plan_node_sharing(node, mate, guest, 0.5)
        checked = plan_node_sharing(node, mate, guest, 0.5, contention=ContentionModel())
        assert checked == plain
        assert checked.mate_cpus == 24 and checked.guest_cpus == 24

    def test_capacity_override_admits_pair(self, node):
        # STREAM + STREAM (1.9) fits a node with 2.0 bandwidth capacity.
        mate = make_job(job_id=1, nodes=1, cpus_per_node=48, application="STREAM")
        guest = make_job(job_id=2, nodes=1, cpus_per_node=48, application="STREAM")
        node.allocate(1, 48)
        roomy = ContentionModel(node_bandwidth_capacity=2.0)
        assert plan_node_sharing(node, mate, guest, 0.5, contention=ContentionModel()) is None
        assert plan_node_sharing(node, mate, guest, 0.5, contention=roomy) is not None

    def test_unknown_application_uses_default_profile(self, node):
        # Jobs with no (or unknown) application fall back to the generic
        # profile (memory_intensity 0.3): 0.6 combined, always feasible.
        mate = make_job(job_id=1, nodes=1, cpus_per_node=48)
        guest = make_job(job_id=2, nodes=1, cpus_per_node=48, application="mystery")
        node.allocate(1, 48)
        assert (
            plan_node_sharing(node, mate, guest, 0.5, contention=ContentionModel())
            is not None
        )
