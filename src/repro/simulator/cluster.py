"""Cluster model: a homogeneous collection of compute nodes.

The cluster tracks which nodes are free, which are exclusively allocated and
which are shared, and provides the whole-node allocation primitives the
schedulers use (the paper's SLURM *select/linear* plug-in allocates whole
nodes; CPU-level splitting within a node is decided by the node manager).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.simulator.job import Job
from repro.simulator.node import Node, NodeAllocationError


class Cluster:
    """A homogeneous cluster of :class:`Node` objects.

    The node table records which job holds how many CPUs on each node; a
    job's own open :class:`~repro.simulator.job.ResourceSlot` records the
    same map from the job's side.  The cluster keeps no other allocation
    state than the set of completely free nodes.

    Parameters
    ----------
    num_nodes:
        Number of compute nodes.
    sockets / cores_per_socket:
        Per-node hardware description (defaults model MareNostrum4).
    """

    def __init__(self, num_nodes: int, sockets: int = 2, cores_per_socket: int = 24) -> None:
        if num_nodes <= 0:
            raise ValueError("cluster must have at least one node")
        self.nodes: Dict[int, Node] = {
            i: Node(i, sockets=sockets, cores_per_socket=cores_per_socket)
            for i in range(num_nodes)
        }
        self._free_nodes: Set[int] = set(self.nodes)
        # Homogeneous and fixed, so read on every malleable attempt without
        # walking the node table.
        self._cpus_per_node: int = self.nodes[0].total_cpus
        self._total_cpus: int = num_nodes * self._cpus_per_node

    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the cluster."""
        return len(self.nodes)

    @property
    def cpus_per_node(self) -> int:
        """CPUs per node (homogeneous cluster)."""
        return self._cpus_per_node

    @property
    def total_cpus(self) -> int:
        """Total CPU count of the cluster."""
        return self._total_cpus

    @property
    def free_node_ids(self) -> List[int]:
        """Ids of completely free nodes, in ascending order."""
        return sorted(self._free_nodes)

    @property
    def num_free_nodes(self) -> int:
        """Number of completely free nodes."""
        return len(self._free_nodes)

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

    def allocate_static(self, job: Job) -> List[int]:
        """Give the job the lowest-id free nodes, whole and exclusively.

        Returns the list of node ids used.
        """
        nodes = self.pick_free_nodes(job.requested_nodes)
        for nid in nodes:
            node = self.nodes[nid]
            node.allocate(job.job_id, node.total_cpus)
            self._free_nodes.discard(nid)
        return nodes

    def allocate_shared(
        self,
        job: Job,
        cpus_per_node: Dict[int, int],
    ) -> List[int]:
        """Co-schedule the job on already-occupied (or free) nodes.

        ``cpus_per_node`` maps node id to the CPU count the guest receives on
        that node; the CPUs must already have been freed by shrinking the
        mate jobs (or be free CPUs of an idle node).
        """
        for nid, cpus in cpus_per_node.items():
            node = self.nodes[nid]
            if cpus > node.free_cpus:
                raise NodeAllocationError(
                    f"job {job.job_id}: node {nid} has {node.free_cpus} free cpus, "
                    f"needs {cpus}"
                )
        for nid, cpus in cpus_per_node.items():
            self.nodes[nid].allocate(job.job_id, cpus)
            self._free_nodes.discard(nid)
        return sorted(cpus_per_node)

    def reconfigure_allocation(self, job: Job, cpus_per_node: Dict[int, int]) -> None:
        """Replace a running job's allocation with a new per-node CPU map.

        Walks the job's current map (``job.assigned_cpus``, not yet
        replaced): nodes absent from the new map are released, nodes present
        are resized, and new nodes are acquired (their CPUs must be free).
        No node the job does not hold or gain is read.
        """
        if not cpus_per_node:
            raise NodeAllocationError(f"job {job.job_id}: empty allocation map")
        job_id = job.job_id
        current = job.assigned_cpus
        for nid in current:
            if nid not in cpus_per_node:
                node = self.nodes[nid]
                node.release(job_id)
                if node.is_free:
                    self._free_nodes.add(nid)
        for nid, cpus in cpus_per_node.items():
            node = self.nodes[nid]
            if nid in current:
                node.resize(job_id, cpus)
            else:
                node.allocate(job_id, cpus)
                self._free_nodes.discard(nid)

    def release_job(self, job: Job) -> None:
        """Release every allocation the job holds and free emptied nodes."""
        for nid in job.allocated_nodes:
            node = self.nodes[nid]
            node.release(job.job_id)
            if node.is_free:
                self._free_nodes.add(nid)

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Internal-consistency check used by tests and property checks."""
        for nid, node in self.nodes.items():
            if node.used_cpus > node.total_cpus:
                raise AssertionError(f"node {nid} over-allocated: {node.used_cpus}")
            if node.is_free and nid not in self._free_nodes:
                raise AssertionError(f"node {nid} free but not in free set")
            if not node.is_free and nid in self._free_nodes:
                raise AssertionError(f"node {nid} allocated but in free set")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(nodes={self.num_nodes}, cpus_per_node={self.cpus_per_node}, "
            f"free_nodes={self.num_free_nodes})"
        )
