#!/usr/bin/env python3
"""Mixed malleable/static workloads and custom cluster assembly.

The paper stresses that SD-Policy "supports mixed workloads with malleable,
moldable and static applications, ideal for being used in transition to a
malleable environment".  This example uses the lower-level API directly
(cluster, jobs, simulation) instead of the experiment harness:

1. builds a MareNostrum4-like cluster by hand;
2. constructs jobs explicitly, marking only a fraction of them malleable;
3. runs SD-Policy and shows how the gains grow with the malleable share;
4. inspects individual malleable jobs' resource histories (shrink/expand)
   on the ``Job`` objects it submitted (the simulation itself keeps only a
   record row per completed job).

Run with::

    python examples/mixed_workload_cluster.py
"""

from __future__ import annotations

import math

from repro.analysis.tables import format_table
from repro.core.runtime_model import IdealRuntimeModel
from repro.core.sd_policy import SDPolicyConfig, SDPolicyScheduler
from repro.simulator.cluster import Cluster
from repro.simulator.simulation import Simulation
from repro.workloads.cirne import CirneWorkloadModel


def run_with_malleable_fraction(fraction: float, seed: int = 123):
    """Run the same workload with a given fraction of malleable jobs."""
    workload = CirneWorkloadModel(
        num_jobs=300, system_nodes=32, cpus_per_node=48, max_job_nodes=8,
        target_load=1.1, seed=7, name="mixed",
    ).generate()
    # MareNostrum4-like nodes: 2 sockets x 24 cores.
    cluster = Cluster(num_nodes=32, sockets=2, cores_per_socket=24)
    scheduler = SDPolicyScheduler(SDPolicyConfig(max_slowdown="dynamic", sharing_factor=0.5))
    sim = Simulation(cluster, scheduler, runtime_model=IdealRuntimeModel())
    jobs = workload.to_jobs(cpus_per_node=48, malleable_fraction=fraction, seed=seed)
    sim.submit_jobs(jobs)
    result = sim.run()
    metrics = sim.streaming.workload_metrics(
        energy_joules=result.energy_joules, first_submit=result.first_submit
    )
    return jobs, metrics


def main() -> None:
    rows = []
    last_jobs = []
    for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
        last_jobs, metrics = run_with_malleable_fraction(fraction)
        rows.append([
            f"{fraction:.0%}",
            metrics.avg_slowdown,
            metrics.avg_response_time,
            metrics.makespan,
            metrics.malleable_scheduled,
            metrics.mate_jobs,
        ])
    print(format_table(
        ["malleable share", "avg slowdown", "avg response (s)", "makespan (s)",
         "malleable-scheduled", "mates"],
        rows,
        precision=1,
        title="SD-Policy on a mixed workload (DynAVGSD, SharingFactor 0.5)",
    ))

    # Inspect a few malleable jobs' shrink/expand histories from the last run.
    print("\nResource histories of the first three co-scheduled guests:")
    shown = 0
    for job in last_jobs:
        if not job.scheduled_malleable:
            continue
        segments = ", ".join(
            f"[{slot.start:.0f}s-{slot.end:.0f}s: {slot.total_cpus} cpus @ x{slot.speed:.2f}]"
            for slot in job.resource_history
            if math.isfinite(slot.end)
        )
        print(f"  job {job.job_id} ({job.requested_nodes} nodes, "
              f"static {job.static_runtime:.0f}s, actual {job.actual_runtime:.0f}s): {segments}")
        shown += 1
        if shown == 3:
            break


if __name__ == "__main__":
    main()
