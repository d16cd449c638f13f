"""Run one workload under one policy and collect its metrics.

A run's per-job result is its record rows (:class:`PolicyRun.records`),
one :data:`~repro.metrics.streaming.JOB_RECORD_DTYPE` row per completed
job, folded by the simulation as each job ends; no ``Job`` object
outlives the simulation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

from repro.analytics.records import RunRecords
from repro.core.policy import make_policy, policy_accepts_profiles
from repro.core.runtime_model import RuntimeModel
from repro.metrics.aggregates import WorkloadMetrics
from repro.metrics.energy import LinearPowerModel
from repro.schedulers.base import Scheduler
from repro.simulator.cluster import Cluster
from repro.simulator.simulation import Simulation, SimulationResult
from repro.telemetry.trace import TraceRecorder
from repro.workloads.job_record import Workload


def cluster_for(workload: Workload, sockets: int = 2) -> Cluster:
    """Build the cluster described by a workload's system fields."""
    cores_per_socket = max(1, workload.cpus_per_node // sockets)
    # If the node width is not divisible by the socket count, fall back to a
    # single socket so the CPU count stays exact.
    if cores_per_socket * sockets != workload.cpus_per_node:
        sockets, cores_per_socket = 1, workload.cpus_per_node
    return Cluster(
        num_nodes=workload.system_nodes,
        sockets=sockets,
        cores_per_socket=cores_per_socket,
    )


def make_scheduler(policy: Union[str, Scheduler, Callable[[], Scheduler]], **kwargs) -> Scheduler:
    """Build a scheduler from a name, an instance, or a zero-arg factory.

    Names resolve through the co-scheduling policy registry
    (:mod:`repro.core.policy`): ``"fcfs"``, ``"static_backfill"``
    (``"backfill"``), ``"sd_policy"`` and ``"ub_policy"`` by default, plus
    anything registered via :func:`repro.core.policy.register_policy`;
    keyword arguments are forwarded to the policy's config (e.g.
    :class:`repro.core.sd_policy.SDPolicyConfig`).  An unknown name raises
    a ``ValueError`` listing the available policies.
    """
    if isinstance(policy, Scheduler):
        return policy
    if callable(policy) and not isinstance(policy, str):
        return policy()
    return make_policy(policy, **kwargs)


#: ``run_workload`` keywords that reach neither the policy nor the runtime
#: model, so :func:`resolve_run` never sees them.
RUNNER_ONLY_KWARGS = frozenset(
    {"malleable_fraction", "tasks_per_node", "power_model", "label", "seed", "trace"}
)


def resolve_run(
    policy: Union[str, Scheduler, Callable[[], Scheduler]],
    runtime_model: Optional[Union[str, RuntimeModel]] = None,
    contention_coefficient: Optional[float] = None,
    profiles: Optional[str] = None,
    **policy_kwargs,
) -> Tuple[Scheduler, Optional[RuntimeModel]]:
    """Build the scheduler and runtime model a :func:`run_workload` call uses.

    Raises ``ValueError`` for an unknown policy, runtime model or policy
    parameter value and ``TypeError`` for a parameter the policy does not
    take, without simulating anything (scenario loading checks specs
    with it).
    """
    if (
        profiles is not None
        and isinstance(policy, str)
        and policy_accepts_profiles(policy)
    ):
        policy_kwargs.setdefault("profiles", profiles)
    scheduler = make_scheduler(policy, **policy_kwargs)
    if isinstance(runtime_model, str):
        if runtime_model == "application_aware":
            from repro.core.contention import (
                DEFAULT_CONTENTION_COEFFICIENT,
                ApplicationAwareRuntimeModel,
                ContentionModel,
            )

            runtime_model = ApplicationAwareRuntimeModel(
                contention=ContentionModel(
                    contention_coefficient=(
                        DEFAULT_CONTENTION_COEFFICIENT
                        if contention_coefficient is None
                        else contention_coefficient
                    ),
                    profiles=profiles if profiles is not None else "table2",
                )
            )
        else:
            from repro.core.runtime_model import get_model

            runtime_model = get_model(runtime_model)
    return scheduler, runtime_model


@dataclass
class PolicyRun:
    """The outcome of running one workload under one policy."""

    label: str
    workload_name: str
    result: SimulationResult
    metrics: WorkloadMetrics
    wall_clock_seconds: float
    #: The run's per-job record rows with its metadata; pickled with the
    #: run into the result cache, their only stored copy.
    records: RunRecords
    scheduler_stats: Dict[str, int] = field(default_factory=dict)
    #: Decision-trace recorder (``trace=True``); stripped before the run is
    #: pickled into the result cache — the trace is published as its own
    #: blob under ``<cache_key>-trace``.
    trace: Optional[TraceRecorder] = None
    #: Wall-clock phase timers of the run (``"simulate"``, ``"metrics"``),
    #: populated unconditionally so the cached payload is byte-identical
    #: with and without ``--trace``.
    phases: Dict[str, float] = field(default_factory=dict)


def run_workload(
    workload: Workload,
    policy: Union[str, Scheduler, Callable[[], Scheduler]] = "static_backfill",
    runtime_model: Optional[Union[str, RuntimeModel]] = None,
    malleable_fraction: float = 1.0,
    tasks_per_node: int = 1,
    power_model: Optional[LinearPowerModel] = Simulation._DEFAULT_POWER_MODEL,
    contention_coefficient: Optional[float] = None,
    profiles: Optional[str] = None,
    label: Optional[str] = None,
    seed: int = 0,
    retain_jobs: bool = True,  # ignored; benchmarks/simbench/harness.py still passes it
    analytics: bool = False,  # ignored; benchmarks/simbench/harness.py still passes it
    trace: bool = False,
    **policy_kwargs,
) -> PolicyRun:
    """Simulate a workload under a policy and return metrics.

    Parameters mirror the knobs the paper varies: the policy (static
    backfill vs SD-Policy with a MAX_SLOWDOWN setting), the runtime model
    (ideal vs worst case, Figure 8; ``"application_aware"`` selects the
    contention-aware interference model, with an optional
    ``contention_coefficient``), and the malleable fraction of the workload
    (all-malleable in the paper's simulations).  ``profiles`` selects a
    named application-profile set (:data:`repro.core.profiles.PROFILE_SETS`)
    for profile-aware policies (UB-Policy) and the application-aware model;
    the default ``None`` leaves both at their own defaults and keeps legacy
    cache keys unchanged.

    Jobs are submitted as a lazy stream, folded once at completion into
    the simulation's aggregates and per-job record rows, and then
    dropped, so memory holds one ~115-byte record row per completed job.
    ``PolicyRun.records`` wraps those rows (one per job, in completion
    order) with the run's metadata; ``PolicyRun.metrics`` and every
    per-job report (heatmaps, daily series, real-run statistics) are
    computed from them.

    With ``trace=True`` a :class:`repro.telemetry.TraceRecorder` rides the
    simulation and ``PolicyRun.trace`` carries the scheduler's decision
    events (submit/start/end, backfill holes, mate selection).  Traces are
    byte-deterministic: only simulation-time facts are recorded, so the
    same spec and seed yield identical bytes regardless of sharding.
    """
    scheduler, runtime_model = resolve_run(
        policy, runtime_model, contention_coefficient, profiles, **policy_kwargs
    )
    cluster = cluster_for(workload)
    recorder = TraceRecorder() if trace else None
    sim = Simulation(
        cluster,
        scheduler,
        runtime_model=runtime_model,
        power_model=power_model,
        trace=recorder,
    )
    if hasattr(runtime_model, "bind_cluster"):
        runtime_model.bind_cluster(cluster, sim.jobs)
    sim.submit_stream(
        workload.iter_jobs(
            cpus_per_node=cluster.cpus_per_node,
            malleable_fraction=malleable_fraction,
            tasks_per_node=tasks_per_node,
            seed=seed,
        )
    )
    started = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - started
    metrics_started = time.perf_counter()
    metrics = sim.streaming.workload_metrics(
        energy_joules=result.energy_joules,
        first_submit=result.first_submit,
    )
    phases = {
        "simulate": elapsed,
        "metrics": time.perf_counter() - metrics_started,
    }
    stats = scheduler.stats() if hasattr(scheduler, "stats") else {}
    run_label = label or result.scheduler_name
    records = RunRecords(
        array=sim.streaming.records(),
        meta={
            "workload": workload.name,
            "policy": policy if isinstance(policy, str) else result.scheduler_name,
            "label": run_label,
            "seed": int(seed),
            "first_submit": result.first_submit,
            "energy_joules": result.energy_joules,
            "num_jobs": result.num_jobs,
        },
    )
    if recorder is not None:
        # Simulation-time-determined identity only — wall-clock facts would
        # break the trace blob's byte determinism.
        recorder.meta.update(
            {
                "workload": workload.name,
                "policy": policy if isinstance(policy, str) else result.scheduler_name,
                "scheduler": result.scheduler_name,
                "label": run_label,
                "seed": int(seed),
                "num_jobs": result.num_jobs,
            }
        )
    return PolicyRun(
        label=run_label,
        workload_name=workload.name,
        result=result,
        metrics=metrics,
        wall_clock_seconds=elapsed,
        scheduler_stats=stats,
        records=records,
        trace=recorder,
        phases=phases,
    )
