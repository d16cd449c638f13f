"""Run one workload under one policy and collect its metrics."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.analytics.records import JobRecordSink, RunRecords
from repro.core.policy import make_policy, policy_accepts_profiles
from repro.core.runtime_model import RuntimeModel
from repro.metrics.aggregates import WorkloadMetrics
from repro.metrics.energy import LinearPowerModel
from repro.schedulers.base import Scheduler
from repro.simulator.cluster import Cluster
from repro.simulator.job import Job
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


@dataclass
class PolicyRun:
    """The outcome of running one workload under one policy."""

    label: str
    workload_name: str
    result: SimulationResult
    metrics: WorkloadMetrics
    wall_clock_seconds: float
    scheduler_stats: Dict[str, int] = field(default_factory=dict)
    #: Per-job records captured by the analytics sink (``analytics=True``);
    #: stripped before the run is pickled into the result cache — the
    #: records are published as their own blob.
    records: Optional[RunRecords] = None
    #: Decision-trace recorder (``trace=True``); stripped before the run is
    #: pickled into the result cache — the trace is published as its own
    #: blob under ``<cache_key>-trace``.
    trace: Optional[TraceRecorder] = None
    #: Wall-clock phase timers of the run (``"simulate"``, ``"metrics"``),
    #: populated unconditionally so the cached payload is byte-identical
    #: with and without ``--trace``.
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def jobs(self) -> List[Job]:
        """The completed jobs of the run."""
        return self.result.jobs


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
    retain_jobs: bool = True,
    analytics: bool = False,
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

    With ``retain_jobs=False`` the run streams: jobs are materialised
    lazily, folded into aggregates at completion and discarded, so memory
    stays near-constant in the job count.  ``PolicyRun.metrics`` comes from
    the same streaming fold either way, but ``PolicyRun.jobs`` is empty, so
    per-job reports (heatmaps, daily series, real-run tables) need the
    default retained mode.

    With ``analytics=True`` a :class:`repro.analytics.JobRecordSink` rides
    the completion dispatch and ``PolicyRun.records`` carries one columnar
    row per job (~100 bytes each — compatible with streaming mode), from
    which every aggregate is reconstructible bit-identically.

    With ``trace=True`` a :class:`repro.telemetry.TraceRecorder` rides the
    simulation and ``PolicyRun.trace`` carries the scheduler's decision
    events (submit/start/end, backfill holes, mate selection).  Traces are
    byte-deterministic: only simulation-time facts are recorded, so the
    same spec and seed yield identical bytes regardless of sharding or
    ``retain_jobs``.
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
    cluster = cluster_for(workload)
    record_sink = JobRecordSink() if analytics else None
    recorder = TraceRecorder() if trace else None
    sim = Simulation(
        cluster,
        scheduler,
        runtime_model=runtime_model,
        power_model=power_model,
        retain_jobs=retain_jobs,
        sinks=(record_sink,) if record_sink is not None else (),
        trace=recorder,
    )
    if hasattr(runtime_model, "bind_cluster"):
        runtime_model.bind_cluster(cluster, sim.jobs)
    job_stream = workload.iter_jobs(
        cpus_per_node=cluster.cpus_per_node,
        malleable_fraction=malleable_fraction,
        tasks_per_node=tasks_per_node,
        seed=seed,
    )
    if retain_jobs:
        sim.submit_jobs(job_stream)
    else:
        sim.submit_stream(job_stream)
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
    records: Optional[RunRecords] = None
    if record_sink is not None:
        records = RunRecords(
            array=record_sink.to_array(),
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
