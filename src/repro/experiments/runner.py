"""Run one workload under one policy and collect its metrics.

A run's per-job result is its record rows (:class:`PolicyRun.records`),
one :data:`~repro.metrics.streaming.JOB_RECORD_DTYPE` row per completed
job, folded by the simulation as each job ends; no ``Job`` object
outlives the simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple, Union

from repro.analytics.records import RunRecords
from repro.core.penalties import parse_max_slowdown
from repro.core.policy import make_policy, policy_accepts_profiles
from repro.core.profiles import get_profile_set
from repro.core.runtime_model import RuntimeModel, canonical_model_name, get_model
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

    Names resolve through the policy registry (:mod:`repro.core.policy`),
    which forwards the keywords to the policy's config and raises a
    ``ValueError`` listing the policies for an unknown name.
    """
    if isinstance(policy, Scheduler):
        return policy
    if callable(policy) and not isinstance(policy, str):
        return policy()
    return make_policy(policy, **kwargs)


class Kind(NamedTuple):
    """The JSON values a run parameter accepts.  ``accepts`` may raise a
    ``ValueError`` itself (a lookup naming its choices); ``parse`` reads
    command-line text."""

    expected: str
    accepts: Callable[[Any], Any]
    parse: Callable[[str], Any] = str
    nullable: bool = False

    def check(self, value: Any) -> None:
        """Raise a ``ValueError`` unless ``value`` is of this kind."""
        if not ((value is None and self.nullable) or self.accepts(value)):
            null = " or null" if self.nullable else ""
            raise ValueError(f"must be {self.expected}{null}, got {value!r}")


def _number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _named(lookup: Callable[[str], Any]) -> Callable[[Any], bool]:
    """A string with choices; ``lookup`` names them on a miss."""
    return lambda value: isinstance(value, str) and lookup(value) is not None


INTEGER = Kind("an integer", lambda v: _number(v) and isinstance(v, int), int)
NUMBER = Kind("a number", _number, float)


class RunParam(NamedTuple):
    """A ``run_workload`` keyword (its default stays in the signature that
    consumes it); ``runner_sets`` names where a spec sets a keyword the
    runner passes itself."""

    kind: Optional[Kind]
    layer: str
    runner_sets: Optional[str] = None


#: The layers a run parameter reaches.
STREAM, MODEL, POLICY, SIMULATION = "workload stream", "runtime model", "policy", "simulation"

#: Every keyword a scenario spec may hand ``run_workload``, plus the ones
#: the runner sets itself.  Ranges are checked by the constructors that
#: consume a value; a kind carries one only where no constructor runs
#: before the simulation does.
RUN_PARAMS: Dict[str, RunParam] = {
    "runtime_model": RunParam(
        Kind("a runtime model name", _named(get_model), nullable=True), MODEL
    ),
    "contention_coefficient": RunParam(
        Kind("a non-negative finite number", lambda v: _number(v) and 0 <= v < math.inf,
             float, nullable=True),
        MODEL,
    ),
    # Also handed to profile-aware policies (resolve_run).
    "profiles": RunParam(
        Kind("a profile set name", _named(get_profile_set), nullable=True), MODEL
    ),
    "sharing_factor": RunParam(NUMBER, POLICY),
    "max_mates": RunParam(INTEGER, POLICY),
    "max_slowdown": RunParam(
        Kind("a number, 'inf' or 'dynamic'", lambda v: parse_max_slowdown(v) is not None,
             parse_max_slowdown),
        POLICY,
    ),
    "max_job_test": RunParam(INTEGER, POLICY),
    "node_bandwidth_capacity": RunParam(NUMBER, POLICY),
    "malleable_fraction": RunParam(
        Kind("a number in [0, 1]", lambda v: _number(v) and 0 <= v <= 1, float), STREAM
    ),
    "tasks_per_node": RunParam(
        Kind("a positive integer", lambda v: INTEGER.accepts(v) and v > 0, int), STREAM
    ),
    "power_model": RunParam(Kind("null (no energy accounting)", lambda v: v is None), SIMULATION),
    "seed": RunParam(None, STREAM, "the spec's top-level 'seed'"),
    "trace": RunParam(None, SIMULATION, "the --trace flag"),
    "label": RunParam(None, SIMULATION, "the grid's cell labels"),
}


def resolve_run(
    policy: Union[str, Scheduler, Callable[[], Scheduler]], **params: Any
) -> Tuple[Scheduler, Optional[RuntimeModel]]:
    """Build the scheduler and runtime model a :func:`run_workload` call uses.

    Keywords split by their :data:`RUN_PARAMS` layer: the runtime model
    takes its own (``None`` keeps the constructor default; ``profiles``
    also reaches profile-aware policies), the policy takes its own and any
    the table lacks.  Raises the constructors' ``ValueError``/``TypeError``
    without simulating anything.
    """
    layer = {name: RUN_PARAMS[name].layer if name in RUN_PARAMS else POLICY for name in params}
    model = {name: v for name, v in params.items() if layer[name] == MODEL and v is not None}
    policy_kwargs = {name: v for name, v in params.items() if layer[name] == POLICY}
    runtime_model = model.pop("runtime_model", None)
    if "profiles" in model and isinstance(policy, str) and policy_accepts_profiles(policy):
        policy_kwargs["profiles"] = model["profiles"]
    scheduler = make_scheduler(policy, **policy_kwargs)
    if isinstance(runtime_model, str):
        runtime_model = canonical_model_name(runtime_model)
    if runtime_model == "application_aware":
        from repro.core.contention import ApplicationAwareRuntimeModel, ContentionModel

        runtime_model = ApplicationAwareRuntimeModel(contention=ContentionModel(**model))
    elif isinstance(runtime_model, str):
        runtime_model = get_model(runtime_model)
    return scheduler, runtime_model


@dataclass
class PolicyRun:
    """The outcome of running one workload under one policy."""

    label: str
    workload_name: str
    result: SimulationResult
    metrics: WorkloadMetrics
    #: The run's per-job record rows; the run blob stores their raw bytes,
    #: their only stored copy.
    records: RunRecords
    scheduler_stats: Dict[str, int] = field(default_factory=dict)
    #: Decision-trace recorder (``trace=True``); never part of the run
    #: blob — the trace is published as its own blob under
    #: ``<cache_key>-trace``.
    trace: Optional[TraceRecorder] = None


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

    The keywords are the :data:`RUN_PARAMS`, the knobs the paper varies
    among them: the policy's ``max_slowdown``, the ``runtime_model``
    (Figure 8) and the ``malleable_fraction``.  A ``None`` leaves the
    consuming constructor's default.

    Jobs are submitted as a lazy stream, folded once at completion into
    the simulation's aggregates and per-job record rows, and then
    dropped, so memory holds one ~115-byte record row per completed job.
    ``PolicyRun.records`` wraps those rows (one per job, in completion
    order); ``PolicyRun.metrics`` and every
    per-job report (heatmaps, daily series, real-run statistics) are
    computed from them.

    With ``trace=True`` a :class:`repro.telemetry.TraceRecorder` rides the
    simulation and ``PolicyRun.trace`` carries the scheduler's decision
    events (submit/start/end, backfill holes, mate selection).  Traces are
    byte-deterministic: only simulation-time facts are recorded, so the
    same spec and seed yield identical bytes regardless of sharding.
    """
    scheduler, runtime_model = resolve_run(
        policy,
        runtime_model=runtime_model,
        contention_coefficient=contention_coefficient,
        profiles=profiles,
        **policy_kwargs,
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
    result = sim.run()
    metrics = sim.streaming.workload_metrics(
        energy_joules=result.energy_joules,
        first_submit=result.first_submit,
    )
    stats = scheduler.stats() if hasattr(scheduler, "stats") else {}
    run_label = label or result.scheduler_name
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
        scheduler_stats=stats,
        records=RunRecords(sim.streaming.records()),
        trace=recorder,
    )
