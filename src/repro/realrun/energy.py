"""Figure 9 per-job statistics of the real-run emulation.

The plain simulator charges every assigned CPU at full dynamic power.  The
real-run applications differ: STREAM keeps cores stalled on memory (low
effective CPU utilisation), PILS saturates them, and so on.  Energy is
therefore recomputed from each job's consumed CPU-seconds weighted by its
application's ``cpu_utilization``, on top of the idle power of the 49-node
system over the makespan — the same structure as the paper's "energy
reported by system software".  :func:`better_runtime_jobs` reads the same
CPU-seconds for the paper's "jobs that used resources more efficiently
than the static execution" count.  Both take a run's
:data:`~repro.metrics.streaming.JOB_RECORD_DTYPE` rows.
"""

from __future__ import annotations

import numpy as np

from repro.core.profiles import get_application
from repro.metrics.energy import LinearPowerModel
from repro.workloads.job_record import Workload


def real_run_energy(rows: np.ndarray, workload: Workload) -> float:
    """Energy (joules) of a real-run workload execution.

    Idle power of every node of ``workload``'s system from the first
    submission to the last end, plus the dynamic power of each job's
    CPU-seconds scaled by its application's CPU utilisation (clamped to
    [0, 1]); each job's application is looked up by id in ``workload``.
    """
    if not len(rows):
        return 0.0
    model = LinearPowerModel()
    span = max(0.0, float(rows["end"].max()) - float(rows["submit"].min()))
    idle_energy = workload.system_nodes * model.idle_watts * span
    per_cpu_dynamic = (model.peak_watts - model.idle_watts) / workload.cpus_per_node
    utilization = {
        record.job_id: min(1.0, max(0.0, get_application(record.application).cpu_utilization))
        for record in workload.records
    }
    factors = np.array([utilization[job_id] for job_id in rows["job_id"].tolist()])
    return idle_energy + per_cpu_dynamic * float(np.dot(rows["cpu_seconds"], factors))


def better_runtime_jobs(rows: np.ndarray) -> int:
    """Count malleable-scheduled jobs whose runtime, proportioned to the
    resources they actually used, beats the static execution.

    This is the paper's "449 jobs out of 539 scheduled with malleability
    have a better runtime compared to the static execution, if we
    proportionate it to the number of used resources" statistic.
    """
    malleable = rows[rows["scheduled_malleable"] == 1]
    static_work = malleable["static_runtime"] * malleable["requested_cpus"]
    return int(np.count_nonzero(malleable["cpu_seconds"] < static_work))
