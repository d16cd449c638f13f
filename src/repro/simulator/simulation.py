"""Simulation driver: couples workload, cluster, scheduler and metrics.

The driver mirrors the structure of the BSC SLURM simulator used by the
paper: job submission and job end events drive the clock; after every batch
of events at an instant the scheduler (the "controller") runs one scheduling
pass over the pending queue; the scheduler starts jobs through the driver's
allocation primitives, which also maintain each job's resource history and
the cluster-wide energy integration.

The driver is policy-agnostic.  The static backfill baseline and the
malleable co-scheduling family (SD-Policy, UB-Policy) are plugged in
through the :class:`repro.schedulers.base.Scheduler` interface; malleable
execution speeds come from the attached
:class:`repro.core.runtime_model.RuntimeModel`, whose optional
``contention`` model (:class:`repro.core.contention.ContentionModel`)
accounts for memory-bandwidth interference between co-scheduled jobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.metrics.energy import LinearPowerModel
from repro.metrics.streaming import StreamingMetrics
from repro.simulator.cluster import Cluster
from repro.simulator.engine import EventQueue, EventType
from repro.simulator.job import Job, JobState
from repro.simulator.pending_queue import PendingQueue
from repro.simulator.reservation import ReservationMap

try:  # Protocol is structural-typing sugar; degrade gracefully without it.
    from typing import Protocol
except ImportError:  # pragma: no cover - Python < 3.8
    Protocol = object  # type: ignore[assignment]


class JobSink(Protocol):
    """Consumer of completed jobs, invoked once per job at completion time.

    The simulation dispatches every finished :class:`Job` — in completion
    order, while its resource history and CPU maps are still attached — to
    each registered sink.  Aggregation (:class:`StreamingMetrics`), job
    retention (:class:`RetainedJobsSink`) and per-job record capture
    (:class:`repro.analytics.JobRecordSink`) are all sinks behind this one
    dispatch point.  A sink must not mutate the job: later sinks in the
    chain (and the scheduler's ``on_job_end`` hook) see the same object.
    """

    def fold(self, job: Job) -> None:  # pragma: no cover - protocol stub
        ...


class RetainedJobsSink:
    """The ``retain_jobs=True`` mode as a sink: keep every completed job."""

    __slots__ = ("completed",)

    def __init__(self, completed: List[Job]) -> None:
        self.completed = completed

    def fold(self, job: Job) -> None:
        self.completed.append(job)


@dataclass
class SimulationResult:
    """Summary of one simulation run.

    The headline aggregates the paper reports (makespan, average response
    time, average slowdown, energy) come from the simulation's
    :class:`~repro.metrics.streaming.StreamingMetrics` fold, so they are
    the same whether or not the per-job detail in :attr:`jobs` was retained.
    """

    jobs: List[Job]
    makespan: float
    avg_response_time: float
    avg_slowdown: float
    avg_wait_time: float
    energy_joules: float
    malleable_scheduled_jobs: int
    mate_jobs: int
    scheduler_name: str
    total_events: int
    # Run-level first submission time — the makespan origin.  Downstream
    # metrics must anchor at this value rather than re-deriving it from
    # ``jobs`` (which drifts when the earliest-submitted job never finished).
    first_submit: float = 0.0
    # Completed-job count, independent of whether jobs were retained.  With
    # ``retain_jobs=False`` the :attr:`jobs` list is empty but this still
    # reports the true count.
    completed_jobs: Optional[int] = None
    extra: dict = field(default_factory=dict)

    @property
    def num_jobs(self) -> int:
        """Number of completed jobs in the run."""
        if self.completed_jobs is not None:
            return self.completed_jobs
        return len(self.jobs)


class Simulation:
    """Event-driven simulation of a workload on a cluster under a scheduler.

    Parameters
    ----------
    cluster:
        The cluster to schedule onto.
    scheduler:
        Any object implementing the :class:`repro.schedulers.base.Scheduler`
        protocol.
    runtime_model:
        Object with ``speed(job, cpus_per_node) -> float`` used to translate
        resource configurations into execution speed.  Defaults to the
        paper's worst-case model; pass
        :class:`repro.core.runtime_model.IdealRuntimeModel` for the ideal
        model of Eq. 5.
    power_model:
        Object with ``idle_watts`` and ``peak_watts`` attributes (default
        :class:`repro.metrics.energy.LinearPowerModel`); energy is idle
        power over the makespan plus dynamic power per assigned CPU-second.
        Pass ``None`` to disable energy accounting.
    use_requested_time_for_predictions:
        If True (default, like SLURM) the availability profile used for wait
        time estimation predicts running jobs to end at
        ``start + requested_time``; if False the simulator's exact end times
        are used (oracle predictions).
    retain_jobs:
        If True (default) completed :class:`Job` objects are kept in
        :attr:`completed` and returned in ``result().jobs``.  If False each
        job is folded into :attr:`streaming` at completion and then
        discarded, so memory stays near-constant in the job count; the
        aggregate fields of the result are unchanged, but per-job
        post-processing (heatmaps, daily series) is unavailable.
    sinks:
        Extra :class:`JobSink` consumers of completed jobs.  Every job is
        dispatched once, at completion, to :attr:`streaming`, then (when
        retaining) to the retention sink, then to these — so an analytics
        sink observes exactly the jobs, in exactly the order, that the
        metrics fold.
    trace:
        Optional :class:`repro.telemetry.TraceRecorder`.  When set, the
        driver (and the schedulers, via ``sim.trace``) emit typed decision
        events — submit/start/end, backfill holes, mate selection,
        reconfigurations.  ``None`` (the default) keeps the hot loop at a
        single attribute check per potential emission site, so disabled
        tracing costs nothing on million-job runs.  Only simulation-time
        facts are emitted, keeping traces byte-deterministic.
    """

    #: Sentinel so ``power_model=None`` (disable energy accounting) stays
    #: distinguishable from "use the default model".  The default model is
    #: constructed per instance — never share a mutable default across runs.
    _DEFAULT_POWER_MODEL = object()

    def __init__(
        self,
        cluster: Cluster,
        scheduler,
        runtime_model=None,
        power_model=_DEFAULT_POWER_MODEL,
        use_requested_time_for_predictions: bool = True,
        retain_jobs: bool = True,
        sinks: Iterable["JobSink"] = (),
        trace=None,
    ) -> None:
        self.cluster = cluster
        self.scheduler = scheduler
        self.trace = trace
        if runtime_model is None:
            # Imported here: repro.core imports this module via repro/__init__.
            from repro.core.runtime_model import WorstCaseRuntimeModel

            runtime_model = WorstCaseRuntimeModel()
        self.runtime_model = runtime_model
        if power_model is Simulation._DEFAULT_POWER_MODEL:
            power_model = LinearPowerModel()
        self.power_model = power_model
        self.use_requested_time_for_predictions = use_requested_time_for_predictions
        self.retain_jobs = retain_jobs

        self.events = EventQueue()
        self.pending = PendingQueue()
        self.jobs: Dict[int, Job] = {}
        self.running: Dict[int, Job] = {}
        self.completed: List[Job] = []
        #: Online aggregates, folded per job at completion (always kept in
        #: sync with :attr:`completed`, and the only record when
        #: ``retain_jobs=False``).
        self.streaming = StreamingMetrics()
        # The job-completion dispatch chain: metrics first, retention next,
        # extra sinks (analytics, user-supplied) last.  The bound ``fold``
        # methods are cached so the hot loop skips attribute lookups.
        self._sinks: List[JobSink] = [self.streaming]
        if retain_jobs:
            self._sinks.append(RetainedJobsSink(self.completed))
        self._sinks.extend(sinks)
        self._sink_folds = [sink.fold for sink in self._sinks]

        self.now: float = 0.0
        self._total_events: int = 0
        self._first_submit: Optional[float] = None
        self._last_end: float = 0.0
        # Lazy submission stream (see submit_stream): the iterator plus a
        # one-job lookahead, so jobs materialise just before their submit
        # instant instead of all upfront.
        self._submit_source: Optional[Iterator[Job]] = None
        self._next_stream_job: Optional[Job] = None
        self._last_stream_submit: float = -math.inf

        # Availability-profile cache: the base profile derived from the
        # running set is rebuilt only when the allocation state changes
        # (version bump) or time advances; schedulers receive copies.
        self._avail_version: int = 0
        self._profile_cache: Optional[Tuple[float, int, int, ReservationMap]] = None

        if hasattr(self.scheduler, "bind"):
            self.scheduler.bind(self)

    def add_sink(self, sink: "JobSink") -> None:
        """Register an extra completed-job sink (appended to the chain)."""
        self._sinks.append(sink)
        self._sink_folds = [s.fold for s in self._sinks]

    # ------------------------------------------------------------------ #
    # Workload loading
    # ------------------------------------------------------------------ #
    def _register_job(self, job: Job) -> None:
        """Validate one job, record it and queue its submission event."""
        if job.job_id in self.jobs:
            raise ValueError(f"duplicate job id {job.job_id}")
        if job.requested_nodes > self.cluster.num_nodes:
            raise ValueError(
                f"job {job.job_id} requests {job.requested_nodes} nodes but the "
                f"cluster only has {self.cluster.num_nodes}"
            )
        self.jobs[job.job_id] = job
        self.events.push(job.submit_time, EventType.JOB_SUBMIT, payload=job.job_id)
        if self._first_submit is None or job.submit_time < self._first_submit:
            self._first_submit = job.submit_time

    def submit_jobs(self, jobs: Iterable[Job]) -> None:
        """Register jobs and queue their submission events."""
        for job in jobs:
            self._register_job(job)

    def submit_stream(self, jobs: Iterable[Job]) -> None:
        """Attach a lazy submission stream (jobs sorted by submit time).

        Jobs are pulled from the iterator just in time: before each event
        batch, every job whose submit time is at or before the next batch
        instant is registered, so batch composition is identical to an
        upfront :meth:`submit_jobs` of the same sequence while only a
        one-job lookahead is held in memory.  The stream must yield jobs in
        nondecreasing submit-time order (``Workload.iter_jobs`` does).
        """
        if self._submit_source is not None or self._next_stream_job is not None:
            raise RuntimeError("a submission stream is already attached")
        self._submit_source = iter(jobs)
        self._advance_submissions()

    def _pull_stream_job(self) -> Optional[Job]:
        if self._next_stream_job is not None:
            job, self._next_stream_job = self._next_stream_job, None
            return job
        source = self._submit_source
        if source is None:
            return None
        job = next(source, None)
        if job is None:
            self._submit_source = None
            return None
        if job.submit_time < self._last_stream_submit:
            raise ValueError(
                f"job {job.job_id}: submission stream is not sorted "
                f"({job.submit_time} after {self._last_stream_submit})"
            )
        self._last_stream_submit = job.submit_time
        return job

    def _advance_submissions(self) -> None:
        """Register every streamed job due at or before the next batch instant.

        Keeps the invariant that when a batch at time *t* is popped, all
        submissions with ``submit_time <= t`` are already in the heap —
        exactly the state eager submission would be in.
        """
        if self._submit_source is None and self._next_stream_job is None:
            return
        while True:
            job = self._pull_stream_job()
            if job is None:
                return
            front = self.events.peek()
            if front is not None and front.time < job.submit_time:
                self._next_stream_job = job  # not due yet; keep as lookahead
                return
            self._register_job(job)

    # ------------------------------------------------------------------ #
    # Primitives used by schedulers
    # ------------------------------------------------------------------ #
    def availability_profile(self, extra_running: Iterable[Job] = ()) -> ReservationMap:
        """Build the future free-node profile from the running jobs.

        The profile of the plain running set is cached and invalidated when a
        job starts, ends or is reconfigured (or when time advances), so the
        many profile requests issued within one instant — one per submit hook
        plus one per scheduling pass — rebuild it only once.  Callers always
        receive a private copy they may add reservations to.
        """
        extra = list(extra_running)
        if extra:
            return ReservationMap.from_running_jobs(
                total_nodes=self.cluster.num_nodes,
                now=self.now,
                free_now=self.cluster.num_free_nodes,
                running_jobs=list(self.running.values()) + extra,
                use_requested_time=self.use_requested_time_for_predictions,
            )
        cached = self._profile_cache
        if (
            cached is not None
            and cached[0] == self.now
            and cached[1] == self.cluster.num_free_nodes
            and cached[2] == self._avail_version
        ):
            return cached[3].copy()
        base = ReservationMap.from_running_jobs(
            total_nodes=self.cluster.num_nodes,
            now=self.now,
            free_now=self.cluster.num_free_nodes,
            running_jobs=self.running.values(),
            use_requested_time=self.use_requested_time_for_predictions,
        )
        # Materialise the step-function arrays on the cached instance so
        # every copy shares them instead of each recomputing from scratch.
        base._arrays()
        self._profile_cache = (self.now, self.cluster.num_free_nodes, self._avail_version, base)
        return base.copy()

    def _invalidate_profile(self) -> None:
        """Invalidate the cached availability profile (allocation changed)."""
        self._avail_version += 1

    def start_job_static(self, job: Job, node_ids: Optional[Sequence[int]] = None) -> List[int]:
        """Start a job on an exclusive whole-node allocation."""
        if job.job_id not in self.pending:
            raise RuntimeError(f"job {job.job_id} is not pending")
        nodes = self.cluster.allocate_static(job, node_ids)
        self._invalidate_profile()
        self.pending.remove(job.job_id)
        job.mark_started(self.now, nodes)
        cpus = {nid: self.cluster.node(nid).total_cpus for nid in nodes}
        speed = self.runtime_model.speed(job, cpus)
        job.reconfigure(self.now, cpus, speed)
        self.running[job.job_id] = job
        self._push_end_event(job)
        if self.trace is not None:
            self.trace.emit(
                "job_start",
                self.now,
                job=job.job_id,
                kind="static",
                nodes=len(nodes),
                mates=[],
            )
        return nodes

    def start_job_shared(
        self,
        job: Job,
        cpus_per_node: Dict[int, int],
        mates: Sequence[Job] = (),
    ) -> List[int]:
        """Start a malleable job co-scheduled on (partially) shared nodes.

        The CPUs in ``cpus_per_node`` must already be free — the caller is
        responsible for shrinking the mate jobs first (see
        :meth:`reconfigure_job`).
        """
        if job.job_id not in self.pending:
            raise RuntimeError(f"job {job.job_id} is not pending")
        nodes = self.cluster.allocate_shared(job, cpus_per_node)
        self._invalidate_profile()
        self.pending.remove(job.job_id)
        job.mark_started(self.now, nodes)
        speed = self.runtime_model.speed(job, cpus_per_node)
        job.reconfigure(self.now, cpus_per_node, speed)
        job.scheduled_malleable = True
        job.guest_of = [m.job_id for m in mates]
        for mate in mates:
            if job.job_id not in mate.mates:
                mate.mates.append(job.job_id)
            mate.was_mate = True
        self.running[job.job_id] = job
        self._push_end_event(job)
        if self.trace is not None:
            self.trace.emit(
                "job_start",
                self.now,
                job=job.job_id,
                kind="shared",
                nodes=len(nodes),
                mates=[m.job_id for m in mates],
            )
        return nodes

    def reconfigure_job(self, job: Job, cpus_per_node: Dict[int, int]) -> None:
        """Shrink or expand a running job to a new per-node CPU map.

        The map is the *complete* new allocation of the job: nodes missing
        from the map are released, nodes present are resized (or newly
        acquired if the CPUs are free).
        """
        if job.state is not JobState.RUNNING:
            raise RuntimeError(f"job {job.job_id} is not running")
        if not cpus_per_node:
            raise ValueError(f"job {job.job_id}: cannot reconfigure to an empty allocation")
        trace = self.trace
        cpus_before = sum(job.assigned_cpus.values()) if trace is not None else 0
        self.cluster.reconfigure_allocation(job.job_id, cpus_per_node)
        self._invalidate_profile()
        job.allocated_nodes = sorted(cpus_per_node)
        speed = self.runtime_model.speed(job, cpus_per_node)
        job.reconfigure(self.now, cpus_per_node, speed)
        self._push_end_event(job)
        if trace is not None:
            cpus_after = sum(cpus_per_node.values())
            if cpus_after > cpus_before:
                direction = "grow"
            elif cpus_after < cpus_before:
                direction = "shrink"
            else:
                direction = "same"
            trace.emit(
                "reconfigure",
                self.now,
                job=job.job_id,
                direction=direction,
                cpus_before=cpus_before,
                cpus_after=cpus_after,
            )

    # ------------------------------------------------------------------ #
    # Event processing
    # ------------------------------------------------------------------ #
    def _push_end_event(self, job: Job) -> None:
        end = job.predicted_end_time(self.now)
        if not math.isfinite(end):
            raise RuntimeError(
                f"job {job.job_id}: non-finite predicted end (speed={job.current_speed})"
            )
        self.events.push(
            end, EventType.JOB_END, payload=job.job_id, validity_token=job.end_event_serial
        )

    def _handle_submit(self, job_id: int) -> None:
        job = self.jobs[job_id]
        self.pending.add(job)
        if self.trace is not None:
            self.trace.emit(
                "job_submit",
                self.now,
                job=job.job_id,
                nodes=job.requested_nodes,
                cpus=job.requested_cpus,
                malleable=bool(job.malleable),
            )
        if hasattr(self.scheduler, "on_job_submit"):
            self.scheduler.on_job_submit(self, job)

    def _handle_end(self, job_id: int) -> None:
        job = self.jobs[job_id]
        job.mark_finished(self.now)
        self.cluster.release_job(job)
        self._invalidate_profile()
        self.running.pop(job_id, None)
        self._last_end = max(self._last_end, self.now)
        if self.trace is not None:
            wait = (
                job.start_time - job.submit_time
                if job.start_time is not None
                else None
            )
            self.trace.emit("job_end", self.now, job=job.job_id, wait=wait)
        for fold in self._sink_folds:
            fold(job)
        if hasattr(self.scheduler, "on_job_end"):
            self.scheduler.on_job_end(self, job)
        if not self.retain_jobs:
            # Folded into every sink; drop the per-job state (resource
            # history, CPU maps).
            del self.jobs[job_id]

    def step(self) -> bool:
        """Process the next batch of simultaneous events; returns False when done."""
        self._advance_submissions()
        # The heap yields (time, type priority, serial) order, so the batch
        # arrives already sorted: ends, then submits, then schedule markers.
        batch = self.events.pop_batch()
        if not batch:
            return False
        self.now = batch[0].time
        need_schedule = False
        for event in batch:
            if event.event_type is EventType.JOB_END:
                job = self.jobs.get(event.payload)
                if (
                    job is None
                    or job.state is not JobState.RUNNING
                    or event.validity_token != job.end_event_serial
                ):
                    # Stale end event (job reconfigured earlier in this very
                    # batch) — skipped, and *not* counted as processed.
                    continue
                self._total_events += 1
                self._handle_end(event.payload)
                need_schedule = True
            elif event.event_type is EventType.JOB_SUBMIT:
                self._total_events += 1
                self._handle_submit(event.payload)
                need_schedule = True
            elif event.event_type is EventType.SCHEDULE:
                self._total_events += 1
                need_schedule = True
        if need_schedule and self.pending:
            self.scheduler.schedule(self)
        return True

    def run(self, until: Optional[float] = None) -> SimulationResult:
        """Run the simulation to completion (or until ``until``)."""
        while True:
            self._advance_submissions()
            nxt = self.events.peek()
            if nxt is None:
                break
            if until is not None and nxt.time > until:
                break
            self.step()
        return self.result()

    # ------------------------------------------------------------------ #
    @property
    def energy_joules(self) -> float:
        """Energy of the workload executed so far (0 without a power model).

        Idle power of every node over the makespan window plus the dynamic
        power of every assigned CPU-second, integrated by :attr:`streaming`
        from the completed jobs' resource histories.  It is therefore
        unaffected by stale end events left in the heap after
        reconfigurations, and identical with and without ``retain_jobs``.
        """
        if self.power_model is None:
            return 0.0
        return self.streaming.energy_joules(
            num_nodes=self.cluster.num_nodes,
            cpus_per_node=self.cluster.cpus_per_node,
            idle_watts=self.power_model.idle_watts,
            peak_watts=self.power_model.peak_watts,
            first_submit=self._first_submit if self._first_submit is not None else 0.0,
            last_end=self._last_end,
        )

    def result(self) -> SimulationResult:
        """Build the :class:`SimulationResult` for the jobs completed so far.

        With ``retain_jobs=False`` the aggregates come from the streaming
        accumulator — same values, same summation order — and ``jobs`` is
        empty (``completed_jobs`` still carries the true count).
        """
        first_submit = self._first_submit if self._first_submit is not None else 0.0
        scheduler_name = getattr(self.scheduler, "name", type(self.scheduler).__name__)
        s = self.streaming
        n = s.count
        makespan = max(0.0, self._last_end - first_submit) if n else 0.0
        if n:
            avg_resp = s.sum_response / n
            avg_sd = s.sum_slowdown / n
            avg_wait = s.sum_wait / n
        else:
            avg_resp = avg_sd = avg_wait = 0.0
        return SimulationResult(
            jobs=list(self.completed),
            makespan=makespan,
            avg_response_time=avg_resp,
            avg_slowdown=avg_sd,
            avg_wait_time=avg_wait,
            energy_joules=self.energy_joules,
            malleable_scheduled_jobs=s.malleable_scheduled,
            mate_jobs=s.mate_jobs,
            scheduler_name=scheduler_name,
            total_events=self._total_events,
            first_submit=first_submit,
            completed_jobs=n,
        )
