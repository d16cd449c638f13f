"""Compute-node model.

A :class:`Node` mirrors a MareNostrum4-style node: two (configurable)
sockets, a fixed number of cores per socket, and a set of per-job CPU
allocations.  In the *static* scheduling baseline a node is either free or
held whole by a single job.  Under SD-Policy a node may be *shared* between
a shrunk "mate" job and a guest; the node tracks how many CPUs each job
currently holds.

The node table is the cluster-side record of every allocation: it tracks
CPU counts per job only, not which exact core indices belong to which job.
"""

from __future__ import annotations

from typing import Dict, List


class NodeAllocationError(RuntimeError):
    """Raised when an allocation request cannot be satisfied on a node."""


class Node:
    """A single compute node.

    Parameters
    ----------
    node_id:
        Unique integer identifier within the cluster.
    sockets:
        Number of CPU sockets (MareNostrum4 nodes have 2).
    cores_per_socket:
        Cores per socket (MareNostrum4: 24, for 48 cores per node).
    """

    __slots__ = ("node_id", "sockets", "cores_per_socket", "allocations")

    def __init__(self, node_id: int, sockets: int = 2, cores_per_socket: int = 24) -> None:
        if sockets <= 0 or cores_per_socket <= 0:
            raise ValueError("sockets and cores_per_socket must be positive")
        self.node_id = node_id
        self.sockets = sockets
        self.cores_per_socket = cores_per_socket
        # job_id -> number of CPUs held on this node.
        self.allocations: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    @property
    def total_cpus(self) -> int:
        """Total CPU count of the node."""
        return self.sockets * self.cores_per_socket

    @property
    def used_cpus(self) -> int:
        """CPUs currently assigned to jobs on this node."""
        return sum(self.allocations.values())

    @property
    def free_cpus(self) -> int:
        """CPUs not assigned to any job."""
        return self.total_cpus - self.used_cpus

    @property
    def is_free(self) -> bool:
        """True when no job holds any CPUs on the node."""
        return not self.allocations

    @property
    def is_shared(self) -> bool:
        """True when more than one job holds CPUs on the node."""
        return len(self.allocations) > 1

    @property
    def jobs(self) -> List[int]:
        """Ids of the jobs currently holding CPUs on this node."""
        return list(self.allocations)

    # ------------------------------------------------------------------ #
    def allocate(self, job_id: int, cpus: int) -> None:
        """Assign ``cpus`` CPUs of this node to ``job_id``."""
        if cpus <= 0:
            raise NodeAllocationError(f"node {self.node_id}: cannot allocate {cpus} cpus")
        if job_id in self.allocations:
            raise NodeAllocationError(
                f"node {self.node_id}: job {job_id} already allocated here"
            )
        if cpus > self.free_cpus:
            raise NodeAllocationError(
                f"node {self.node_id}: requested {cpus} cpus but only "
                f"{self.free_cpus} free"
            )
        self.allocations[job_id] = cpus

    def resize(self, job_id: int, cpus: int) -> None:
        """Change the CPU count held by ``job_id`` (shrink or expand)."""
        if job_id not in self.allocations:
            raise NodeAllocationError(
                f"node {self.node_id}: job {job_id} has no allocation to resize"
            )
        if cpus <= 0:
            raise NodeAllocationError(f"node {self.node_id}: cannot resize to {cpus} cpus")
        delta = cpus - self.allocations[job_id]
        if delta > self.free_cpus:
            raise NodeAllocationError(
                f"node {self.node_id}: resize of job {job_id} to {cpus} cpus "
                f"needs {delta} more cpus but only {self.free_cpus} free"
            )
        self.allocations[job_id] = cpus

    def release(self, job_id: int) -> int:
        """Remove the job's allocation and return the CPUs it held."""
        if job_id not in self.allocations:
            raise NodeAllocationError(
                f"node {self.node_id}: job {job_id} has no allocation to release"
            )
        return self.allocations.pop(job_id)

    def cpus_of(self, job_id: int) -> int:
        """CPUs currently held by ``job_id`` (0 if none)."""
        return self.allocations.get(job_id, 0)

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Node(id={self.node_id}, cpus={self.total_cpus}, "
            f"used={self.used_cpus}, jobs={list(self.allocations)})"
        )
