"""Energy accounting (the Figure 9 energy metric).

The paper reports the energy consumed to run the whole workload, as
measured by the system software of MareNostrum4, and shows a ~6% reduction
under SD-Policy driven by better node utilisation and a shorter makespan.

In the reproduction energy is integrated from a node power model.  The
default is the standard linear model

    P_node(u) = P_idle + (P_peak − P_idle) · u

with ``u`` the fraction of the node's CPUs doing useful work.  The
simulator integrates it online from assigned CPUs
(:meth:`repro.metrics.streaming.StreamingMetrics.energy_joules`);
:func:`workload_energy` recomputes it post hoc for the real-run emulation,
weighting ``u`` by each application's CPU utilisation
(:mod:`repro.core.profiles`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.simulator.job import Job


@dataclass
class LinearPowerModel:
    """Linear node power model, in watts.

    Default figures approximate a two-socket Xeon Platinum 8160 node
    (MareNostrum4): ~120 W idle, ~400 W at full load.  Absolute values only
    scale the energy numbers; the relative savings the paper reports depend
    on the idle/peak *ratio*, which is the realistic part of the model.
    """

    idle_watts: float = 120.0
    peak_watts: float = 400.0

    def __post_init__(self) -> None:
        if self.peak_watts < self.idle_watts:
            raise ValueError("peak_watts must be >= idle_watts")
        if self.idle_watts < 0:
            raise ValueError("idle_watts must be non-negative")


def workload_energy(
    jobs: Iterable[Job],
    num_nodes: int,
    cpus_per_node: int,
    power_model: Optional[LinearPowerModel] = None,
    utilization_of: Optional[callable] = None,
) -> float:
    """Recompute a run's energy from the completed jobs' resource histories.

    Used for the real-run emulation, where a job's *effective* CPU
    utilisation depends on its application model (pass
    ``utilization_of(job) -> float`` to scale the assigned CPUs
    accordingly).

    Energy = idle power of all nodes over the makespan + the dynamic part
    integrated from every job's per-slot CPU assignment.
    """
    model = power_model or LinearPowerModel()
    done = [j for j in jobs if j.end_time is not None and j.start_time is not None]
    if not done:
        return 0.0
    first = min(j.submit_time for j in done)
    last = max(j.end_time for j in done)
    span = max(0.0, last - first)
    idle_energy = num_nodes * model.idle_watts * span
    per_cpu_dynamic = (model.peak_watts - model.idle_watts) / cpus_per_node
    dynamic_energy = 0.0
    for job in done:
        factor = 1.0 if utilization_of is None else max(0.0, min(1.0, utilization_of(job)))
        for slot in job.resource_history:
            duration = slot.duration
            if duration <= 0 or duration != duration or duration == float("inf"):
                continue
            dynamic_energy += per_cpu_dynamic * slot.total_cpus * duration * factor
    return idle_energy + dynamic_energy
