"""repro — reproduction of the ICPP 2019 SD-Policy paper.

"Holistic Slowdown Driven Scheduling and Resource Management for Malleable
Jobs" (D'Amico, Jokanovic, Corbalan).

The package provides:

* a discrete-event HPC cluster simulator (:mod:`repro.simulator`) standing
  in for the BSC SLURM simulator;
* the static backfill baseline and FCFS (:mod:`repro.schedulers`);
* SD-Policy itself — malleable backfill, mate selection, slowdown penalties
  and runtime models (:mod:`repro.core`);
* workload infrastructure: SWF parsing, the Cirne model, RICC/CEA-Curie-like
  synthetic generators (:mod:`repro.workloads`);
* metrics, analysis, and figure/table regeneration helpers
  (:mod:`repro.metrics`, :mod:`repro.analysis`);
* the emulated MareNostrum4 "real run" with application performance models
  (:mod:`repro.realrun`);
* a command-line driver (:mod:`repro.cli`) and the experiment harness used
  by the benchmarks (:mod:`repro.experiments`).

Quickstart::

    from repro import (
        Cluster, Simulation, BackfillScheduler, SDPolicyScheduler, SDPolicyConfig,
    )
    from repro.workloads import CirneWorkloadModel

    workload = CirneWorkloadModel(num_jobs=500, system_nodes=128, seed=1).generate()
    cluster = Cluster(num_nodes=128, sockets=2, cores_per_socket=24)
    sim = Simulation(cluster, SDPolicyScheduler(SDPolicyConfig(max_slowdown=10)))
    sim.submit_jobs(workload.to_jobs(cpus_per_node=cluster.cpus_per_node))
    result = sim.run()
    print(result.avg_slowdown)
"""

from repro.core import (
    DynamicAverageMaxSlowdown,
    IdealRuntimeModel,
    MateSelection,
    MateSelector,
    SDPolicyConfig,
    SDPolicyScheduler,
    StaticMaxSlowdown,
    WorstCaseRuntimeModel,
)
from repro.schedulers import BackfillScheduler, FCFSScheduler, Scheduler
from repro.simulator import Cluster, Job, JobState, Node, Simulation, SimulationResult

__version__ = "1.0.0"

__all__ = [
    "BackfillScheduler",
    "Cluster",
    "DynamicAverageMaxSlowdown",
    "FCFSScheduler",
    "IdealRuntimeModel",
    "Job",
    "JobState",
    "MateSelection",
    "MateSelector",
    "Node",
    "SDPolicyConfig",
    "SDPolicyScheduler",
    "Scheduler",
    "Simulation",
    "SimulationResult",
    "StaticMaxSlowdown",
    "WorstCaseRuntimeModel",
    "__version__",
]
