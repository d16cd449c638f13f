"""Memory-bandwidth contention as a first-class simulator concept.

When a policy co-schedules two applications on one node, the node manager
keeps them on separate sockets (Section 3.3), so the remaining interference
is essentially memory-bandwidth contention.  :func:`co_run_slowdown` models
that contention from the applications' memory intensity/sensitivity;
:class:`ContentionModel` packages it together with a node bandwidth-capacity
feasibility check (Uberun-style: refuse pairings whose combined demand
oversubscribes the memory subsystem) and a profile-set lookup, so schedulers
(:class:`repro.core.ub_policy.UBPolicyScheduler`), the mate-selection
heuristic and the sharing planner can all consult one object.

:class:`ApplicationAwareRuntimeModel` combines the contention term with each
application's shrink-scaling curve to produce the speed the simulator
integrates, playing the role that real hardware played in the paper's
Section 4.4 run.  The ideal/worst-case models keep ``contention = None`` —
the no-contention default path — so every existing golden stays
byte-identical.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from repro.core.profiles import (
    ApplicationModel,
    get_profile_set,
    lookup_application,
)
from repro.core.runtime_model import RuntimeModel
from repro.simulator.cluster import Cluster
from repro.simulator.job import Job

#: Strength of the memory-bandwidth contention term when two socket-isolated
#: applications share a node.  0.15 means a fully memory-bound application
#: co-running with another fully memory-bound application loses ~13% speed
#: (1/1.15), in line with the socket-isolated measurements reported for DROM.
DEFAULT_CONTENTION_COEFFICIENT = 0.15

#: Per-node memory-bandwidth capacity in units of one application's maximum
#: demand (``memory_intensity`` = 1 saturates the node's bandwidth on its
#: own).  Memory-bound codes keep their bandwidth demand even when shrunk to
#: one socket — STREAM saturates the memory subsystem from half the cores —
#: so demands add up un-scaled.  1.4 admits a memory-bound application next
#: to a compute-bound one (0.95 + 0.10) but refuses two memory-intensive
#: co-runners (0.95 + 0.55), matching Uberun's pairing rules.
DEFAULT_NODE_BANDWIDTH_CAPACITY = 1.4


def co_run_slowdown(
    app: ApplicationModel,
    co_runner_intensities: Iterable[float],
    contention_coefficient: float = DEFAULT_CONTENTION_COEFFICIENT,
) -> float:
    """Multiplicative slowdown (>= 1.0) caused by co-runners on the node.

    The dominant co-runner (highest memory intensity) determines the
    contention; the job's own sensitivity scales how much it suffers.
    """
    worst = 0.0
    for intensity in co_runner_intensities:
        worst = max(worst, intensity)
    return 1.0 + contention_coefficient * app.memory_sensitivity * worst


class ContentionModel:
    """Profile-driven interference and bandwidth feasibility for one node.

    A single consultable object bundling the three profile-driven questions
    the scheduling stack asks:

    * ``slowdown(app, intensities)`` — how much does this application suffer
      from its co-runners (the runtime-model view)?
    * ``bandwidth_feasible(apps)`` — may these applications share a node at
      all, or does their combined demand oversubscribe the memory subsystem
      (the UB-Policy admission view)?
    * ``application(name)`` — profile lookup within the configured set.
    """

    def __init__(
        self,
        contention_coefficient: float = DEFAULT_CONTENTION_COEFFICIENT,
        node_bandwidth_capacity: float = DEFAULT_NODE_BANDWIDTH_CAPACITY,
        profiles: str = "table2",
    ) -> None:
        if node_bandwidth_capacity <= 0:
            raise ValueError("node_bandwidth_capacity must be positive")
        self.contention_coefficient = float(contention_coefficient)
        self.node_bandwidth_capacity = float(node_bandwidth_capacity)
        self.profiles = profiles
        self._profile_set = get_profile_set(profiles)

    # ------------------------------------------------------------------ #
    def application(self, name: Optional[str]) -> ApplicationModel:
        """Profile of an application label under the configured set."""
        return lookup_application(name, self._profile_set)

    def bandwidth_demand(self, app: ApplicationModel) -> float:
        """Bandwidth demand of one application, in units of node capacity 1.0."""
        return app.memory_intensity

    def bandwidth_feasible(self, apps: Iterable[ApplicationModel]) -> bool:
        """Whether the applications' combined demand fits the node."""
        demand = sum(self.bandwidth_demand(app) for app in apps)
        return demand <= self.node_bandwidth_capacity

    def allows_pairing(self, *jobs: Job) -> bool:
        """Whether the jobs may share a node without oversubscribing it."""
        return self.bandwidth_feasible(
            self.application(job.application) for job in jobs
        )

    def slowdown(
        self, app: ApplicationModel, co_runner_intensities: Iterable[float]
    ) -> float:
        """Co-run slowdown of ``app`` under this model's coefficient."""
        return co_run_slowdown(app, co_runner_intensities, self.contention_coefficient)


class ApplicationAwareRuntimeModel(RuntimeModel):
    """Runtime model that honours application scaling and co-run interference.

    Implements the same ``speed(job, cpus_per_node)`` protocol as the
    ideal/worst-case models, so it can be plugged into the simulation driver
    directly.  It needs to see the cluster to know which jobs share nodes;
    attach it with :meth:`bind_cluster` (the simulation driver does this
    for you).
    """

    name = "application_aware"

    def __init__(
        self,
        cluster: Optional[Cluster] = None,
        job_lookup: Optional[Mapping[int, Job]] = None,
        contention: Optional[ContentionModel] = None,
    ) -> None:
        self.contention = contention if contention is not None else ContentionModel()
        self.cluster = cluster
        self._job_lookup = job_lookup or {}

    def bind_cluster(self, cluster: Cluster, job_lookup: Mapping[int, Job]) -> None:
        """Attach the cluster and the job table used to resolve co-runners."""
        self.cluster = cluster
        self._job_lookup = job_lookup

    # ------------------------------------------------------------------ #
    def _co_runner_intensities(self, job: Job, nodes: Iterable[int]) -> list:
        intensities = []
        if self.cluster is None:
            return intensities
        for nid in nodes:
            node = self.cluster.node(nid)
            for other_id in node.jobs:
                if other_id == job.job_id:
                    continue
                other = self._job_lookup.get(other_id)
                other_app = self.contention.application(
                    other.application if other else None
                )
                intensities.append(other_app.memory_intensity)
        return intensities

    def speed(self, job: Job, cpus_per_node: Dict[int, int]) -> float:
        """Relative progress rate of the job under the given allocation."""
        if not cpus_per_node:
            return 0.0
        app = self.contention.application(job.application)
        # Statically balanced multi-node applications are limited by their
        # most-shrunk node (worst-case structure), but the per-fraction cost
        # follows the application's own scaling curve.
        per_node_request = job.requested_cpus / max(1, job.requested_nodes)
        worst_fraction = min(cpus_per_node.values()) / per_node_request
        worst_fraction = min(1.0, worst_fraction)
        base = app.shrink_speed(worst_fraction)
        interference = self.contention.slowdown(
            app, self._co_runner_intensities(job, cpus_per_node.keys())
        )
        return max(0.0, base / interference)
