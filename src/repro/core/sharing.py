"""SharingFactor: how a node's CPUs are split between a mate and a guest.

Section 3.3 of the paper defines the ``SharingFactor`` as the limit on the
computational resources that can be taken from a running job on a node when
it is shrunk.  On MareNostrum4 the best overall performance was obtained
when co-scheduled applications run isolated on separate sockets, so the
paper sets ``SharingFactor = 0.5`` (one of the two sockets).

This module computes the concrete per-node CPU split, honouring:

* the SharingFactor upper bound on how much is taken from the mate,
* the mate's minimum of one CPU per MPI rank (it can never shrink below
  ``tasks_per_node``), and
* the guest's minimum of one CPU per rank,
* and, when a :class:`repro.core.contention.ContentionModel` is supplied,
  the node's memory-bandwidth capacity (Uberun-style: a split is infeasible
  when the pair's combined bandwidth demand oversubscribes the node).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.simulator.job import Job
from repro.simulator.node import Node

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.contention import ContentionModel


@dataclass(frozen=True)
class SharingPlan:
    """CPU split of one node between its owner (mate) and a guest job."""

    node_id: int
    mate_cpus: int
    guest_cpus: int

    @property
    def total(self) -> int:
        """Total CPUs covered by the plan."""
        return self.mate_cpus + self.guest_cpus


def guest_share_of_node(node_total_cpus: int, sharing_factor: float) -> int:
    """CPUs the guest may take from a fully-owned node under the factor."""
    if not 0.0 < sharing_factor < 1.0:
        raise ValueError("sharing_factor must be in (0, 1)")
    return int(node_total_cpus * sharing_factor)


def plan_node_sharing(
    node: Node,
    mate: Job,
    guest: Job,
    sharing_factor: float,
    contention: Optional["ContentionModel"] = None,
) -> Optional[SharingPlan]:
    """Compute the CPU split of ``node`` between ``mate`` and ``guest``.

    Returns ``None`` when no feasible split exists (the guest cannot get at
    least one CPU per rank without pushing the mate below one CPU per rank,
    or the mate does not actually hold CPUs on the node).  With a
    ``contention`` model the split must additionally fit the node's
    memory-bandwidth capacity: a pair whose combined bandwidth demand
    oversubscribes the node is rejected outright, independent of the CPU
    arithmetic.  The default ``contention=None`` skips the check and is
    byte-identical to the historical behaviour.
    """
    mate_current = node.cpus_of(mate.job_id)
    if mate_current <= 0:
        return None
    if contention is not None and not contention.allows_pairing(mate, guest):
        return None
    take = guest_share_of_node(node.total_cpus, sharing_factor)
    # Never take more than the mate can give while keeping one CPU per rank.
    take = min(take, mate_current - mate.min_cpus_per_node)
    # The guest also needs at least one CPU per rank on the node; free CPUs
    # on the node (if any) can top it up.
    guest_cpus = take + node.free_cpus
    if guest_cpus < guest.min_cpus_per_node:
        return None
    mate_cpus = mate_current - take
    if mate_cpus < mate.min_cpus_per_node:
        return None
    return SharingPlan(node_id=node.node_id, mate_cpus=mate_cpus, guest_cpus=guest_cpus)
