"""Figure 9 per-job statistics of the real-run emulation.

The plain simulator charges every assigned CPU at full dynamic power.  The
real-run applications differ: STREAM keeps cores stalled on memory (low
effective CPU utilisation), PILS saturates them, and so on.  Energy is
therefore recomputed from each job's resource history weighted by its
application's ``cpu_utilization``, on top of the idle power of the 49-node
system over the makespan — the same structure as the paper's "energy
reported by system software".  :func:`better_runtime_jobs` reads the same
resource histories for the paper's "jobs that used resources more
efficiently than the static execution" count.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.profiles import get_application
from repro.metrics.energy import workload_energy
from repro.simulator.job import Job


def real_run_energy(
    jobs: Iterable[Job],
    num_nodes: int,
    cpus_per_node: int,
) -> float:
    """Energy (joules) of a real-run workload execution."""
    return workload_energy(
        jobs,
        num_nodes=num_nodes,
        cpus_per_node=cpus_per_node,
        utilization_of=lambda job: get_application(job.application).cpu_utilization,
    )


def better_runtime_jobs(jobs: Iterable[Job]) -> int:
    """Count malleable-scheduled jobs whose runtime, proportioned to the
    resources they actually used, beats the static execution.

    This is the paper's "449 jobs out of 539 scheduled with malleability
    have a better runtime compared to the static execution, if we
    proportionate it to the number of used resources" statistic.
    """
    better = 0
    for job in jobs:
        if not job.scheduled_malleable or job.actual_runtime is None:
            continue
        # CPU-seconds actually consumed versus the static execution.
        consumed = sum(
            slot.total_cpus * slot.duration
            for slot in job.resource_history
            if slot.duration > 0 and slot.duration != float("inf")
        )
        if consumed < job.static_runtime * job.requested_cpus:
            better += 1
    return better
