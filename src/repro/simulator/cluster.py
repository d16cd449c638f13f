"""Cluster model: a homogeneous collection of compute nodes.

The cluster tracks which nodes are free, which are exclusively allocated and
which are shared, and provides the whole-node allocation primitives the
schedulers use (the paper's SLURM *select/linear* plug-in allocates whole
nodes; CPU-level splitting within a node is decided by the node manager).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.simulator.job import Job
from repro.simulator.node import Node, NodeAllocationError


class Cluster:
    """A homogeneous cluster of :class:`Node` objects.

    Parameters
    ----------
    num_nodes:
        Number of compute nodes.
    sockets / cores_per_socket / memory_gb:
        Per-node hardware description (defaults model MareNostrum4).
    """

    def __init__(
        self,
        num_nodes: int,
        sockets: int = 2,
        cores_per_socket: int = 24,
        memory_gb: float = 96.0,
    ) -> None:
        if num_nodes <= 0:
            raise ValueError("cluster must have at least one node")
        self.nodes: Dict[int, Node] = {
            i: Node(i, sockets=sockets, cores_per_socket=cores_per_socket, memory_gb=memory_gb)
            for i in range(num_nodes)
        }
        self._free_nodes: Set[int] = set(self.nodes)
        self._used_cpus: int = 0

    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the cluster."""
        return len(self.nodes)

    @property
    def cpus_per_node(self) -> int:
        """CPUs per node (homogeneous cluster)."""
        return next(iter(self.nodes.values())).total_cpus

    @property
    def total_cpus(self) -> int:
        """Total CPU count of the cluster."""
        return self.num_nodes * self.cpus_per_node

    @property
    def free_node_ids(self) -> List[int]:
        """Ids of completely free nodes, in ascending order."""
        return sorted(self._free_nodes)

    @property
    def num_free_nodes(self) -> int:
        """Number of completely free nodes."""
        return len(self._free_nodes)

    @property
    def used_cpus(self) -> int:
        """CPUs currently assigned to jobs across the whole cluster.

        Maintained incrementally so the per-event energy integration stays
        O(1) even for large clusters.
        """
        return self._used_cpus

    @property
    def utilization(self) -> float:
        """Cluster-wide fraction of assigned CPUs."""
        return self.used_cpus / self.total_cpus

    def node(self, node_id: int) -> Node:
        """Return the node with the given id."""
        return self.nodes[node_id]

    # ------------------------------------------------------------------ #
    # Whole-node (select/linear style) allocation
    # ------------------------------------------------------------------ #
    def can_allocate(self, job: Job) -> bool:
        """True if enough free nodes exist for a static allocation."""
        return len(self._free_nodes) >= job.requested_nodes

    def pick_free_nodes(self, count: int) -> List[int]:
        """Choose ``count`` free nodes (lowest ids first, SLURM-like)."""
        if count > len(self._free_nodes):
            raise NodeAllocationError(
                f"requested {count} free nodes, only {len(self._free_nodes)} available"
            )
        return sorted(self._free_nodes)[:count]

    def allocate_static(self, job: Job, node_ids: Optional[Sequence[int]] = None) -> List[int]:
        """Give the job an exclusive, whole-node allocation.

        Returns the list of node ids used.  If ``node_ids`` is omitted the
        lowest-id free nodes are chosen.
        """
        if node_ids is None:
            node_ids = self.pick_free_nodes(job.requested_nodes)
        node_ids = list(node_ids)
        if len(node_ids) != job.requested_nodes:
            raise NodeAllocationError(
                f"job {job.job_id}: expected {job.requested_nodes} nodes, got {len(node_ids)}"
            )
        for nid in node_ids:
            node = self.nodes[nid]
            if not node.is_free:
                raise NodeAllocationError(
                    f"job {job.job_id}: node {nid} is not free for static allocation"
                )
        for nid in node_ids:
            node = self.nodes[nid]
            node.allocate(job.job_id, node.total_cpus, owner=True)
            self._used_cpus += node.total_cpus
            self._free_nodes.discard(nid)
        return node_ids

    def allocate_shared(
        self,
        job: Job,
        cpus_per_node: Dict[int, int],
    ) -> List[int]:
        """Co-schedule the job on already-occupied (or free) nodes.

        ``cpus_per_node`` maps node id to the CPU count the guest receives on
        that node; the CPUs must already have been freed by shrinking the
        owner jobs (or be free CPUs of an idle node).
        """
        for nid, cpus in cpus_per_node.items():
            node = self.nodes[nid]
            if cpus > node.free_cpus:
                raise NodeAllocationError(
                    f"job {job.job_id}: node {nid} has {node.free_cpus} free cpus, "
                    f"needs {cpus}"
                )
        for nid, cpus in cpus_per_node.items():
            node = self.nodes[nid]
            owner = node.is_free
            node.allocate(job.job_id, cpus, owner=owner)
            self._used_cpus += cpus
            self._free_nodes.discard(nid)
        return sorted(cpus_per_node)

    def shrink_job_on_node(self, job_id: int, node_id: int, new_cpus: int) -> None:
        """Reduce (or grow) the CPUs a job holds on one node."""
        node = self.nodes[node_id]
        old = node.cpus_of(job_id)
        node.resize(job_id, new_cpus)
        self._used_cpus += new_cpus - old

    def reconfigure_allocation(self, job_id: int, cpus_per_node: Dict[int, int]) -> None:
        """Replace a job's allocation with a new per-node CPU map.

        Nodes absent from the new map are released, nodes present are
        resized, and new nodes are acquired (their CPUs must be free).  The
        free-node set and the used-CPU counter are kept consistent.
        """
        if not cpus_per_node:
            raise NodeAllocationError(f"job {job_id}: empty allocation map")
        current_nodes = [nid for nid, node in self.nodes.items() if job_id in node.allocations]
        for nid in current_nodes:
            if nid not in cpus_per_node:
                node = self.nodes[nid]
                self._used_cpus -= node.release(job_id)
                if node.is_free:
                    self._free_nodes.add(nid)
        for nid, cpus in cpus_per_node.items():
            node = self.nodes[nid]
            if job_id in node.allocations:
                self.shrink_job_on_node(job_id, nid, cpus)
            else:
                node.allocate(job_id, cpus, owner=node.is_free)
                self._used_cpus += cpus
                self._free_nodes.discard(nid)

    def release_job(self, job: Job) -> None:
        """Release every allocation the job holds and free emptied nodes."""
        for nid in list(job.assigned_cpus):
            node = self.nodes[nid]
            if job.job_id in node.allocations:
                self._used_cpus -= node.release(job.job_id)
            if node.is_free:
                self._free_nodes.add(nid)

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Internal-consistency check used by tests and property checks."""
        total_used = 0
        for nid, node in self.nodes.items():
            if node.used_cpus > node.total_cpus:
                raise AssertionError(f"node {nid} over-allocated: {node.used_cpus}")
            if node.is_free and nid not in self._free_nodes:
                raise AssertionError(f"node {nid} free but not in free set")
            if not node.is_free and nid in self._free_nodes:
                raise AssertionError(f"node {nid} allocated but in free set")
            total_used += node.used_cpus
        if total_used != self._used_cpus:
            raise AssertionError(
                f"cluster used-cpu counter {self._used_cpus} != actual {total_used}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(nodes={self.num_nodes}, cpus_per_node={self.cpus_per_node}, "
            f"free_nodes={self.num_free_nodes})"
        )
