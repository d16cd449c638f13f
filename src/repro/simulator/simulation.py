"""Simulation driver: couples workload, cluster, scheduler and metrics.

The driver mirrors the structure of the BSC SLURM simulator used by the
paper: job submission and job end events drive the clock; after every batch
of events at an instant the scheduler (the "controller") runs one scheduling
pass over the pending queue; the scheduler starts jobs through the driver's
allocation primitives, which update the cluster's node table and each job's
resource history together.  Each job that ends is folded once
into :class:`repro.metrics.streaming.StreamingMetrics` (the run's
aggregates and its per-job record rows) and then dropped: the record rows
are the only per-job result of a run.

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
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.metrics.energy import LinearPowerModel
from repro.metrics.streaming import StreamingMetrics
from repro.simulator.cluster import Cluster
from repro.simulator.engine import Event, EventQueue, EventType
from repro.simulator.job import Job, JobState
from repro.simulator.pending_queue import PendingQueue
from repro.simulator.reservation import ReservationMap

@dataclass
class SimulationResult:
    """Summary of one simulation run.

    The headline aggregates the paper reports (makespan, average response
    time, average slowdown, energy) come from the simulation's
    :class:`~repro.metrics.streaming.StreamingMetrics` fold; the per-job
    detail is in that fold's record rows.
    """

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
    # metrics must anchor at this value rather than re-deriving it from the
    # completed jobs (which drifts when the earliest-submitted job never
    # finished).
    first_submit: float = 0.0
    completed_jobs: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def num_jobs(self) -> int:
        """Number of completed jobs in the run."""
        return self.completed_jobs


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

        self.events = EventQueue(is_stale=self.is_stale_end)
        self.pending = PendingQueue()
        #: Submitted jobs that have not completed yet, by id.
        self.jobs: Dict[int, Job] = {}
        self.running: Dict[int, Job] = {}
        #: The one per-job fold: aggregates and record rows, folded at
        #: completion, in completion order.
        self.streaming = StreamingMetrics()

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

        #: Bumped on every job start, end and reconfiguration: the running
        #: set, node sharing, guest links and running jobs' predicted ends
        #: change only with it.  Caches derived from the allocation state
        #: (the availability profile below, the mate pool and its ends of
        #: :class:`repro.core.mate_selection.MateSelector`) compare it to
        #: know when to rebuild.
        self.allocation_version: int = 0
        # Release ledger: every running job's predicted end
        # ``(start_time + requested_time, len(allocated_nodes))``, kept
        # sorted, plus each job's current entry so an end can remove it.
        # Both terms change only with a start or a reconfiguration (which
        # sets any new requested time itself), so an entry is re-keyed at
        # once and a running job's predicted end is fixed within one
        # allocation version.
        self._releases: List[Tuple[float, int]] = []
        self._release_of: Dict[int, Tuple[float, int]] = {}
        # Base availability profile built from the ledger, valid while
        # ``(allocation_version, free nodes)`` is unchanged; schedulers
        # receive copies.
        self._base_profile: Optional[ReservationMap] = None
        self._base_key: Tuple[int, int] = (-1, -1)
        #: What the scheduler's last backfill pass left for the next one
        #: (:class:`repro.schedulers.backfill.PassCarry`): kept here so it
        #: lives exactly as long as the run.
        self.pass_carry = None

        if hasattr(self.scheduler, "bind"):
            self.scheduler.bind(self)

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
        exactly the state eager submission would be in.  The heap is peeked
        once: a registered job is due, so its submit event becomes the
        front.
        """
        if self._submit_source is None and self._next_stream_job is None:
            return
        front = self.events.peek()
        front_time = math.inf if front is None else front.time
        while True:
            job = self._pull_stream_job()
            if job is None:
                return
            if front_time < job.submit_time:
                self._next_stream_job = job  # not due yet; keep as lookahead
                return
            self._register_job(job)
            front_time = job.submit_time

    # ------------------------------------------------------------------ #
    # Primitives used by schedulers
    # ------------------------------------------------------------------ #
    def availability_profile(self) -> ReservationMap:
        """The future free-node profile of the running jobs.

        Each running job is predicted to release its nodes at
        ``start_time + requested_time``.  The base profile is built from
        the release ledger in one pass when a job has started, ended or
        been reconfigured since the last request; when only time has
        advanced, the cached base is trimmed to the new ``now`` instead.
        Callers always receive a private copy they may add reservations to.

        A backfill pass asks for it only at the first job the cluster
        refuses: until then its profile never decreases, so
        ``cluster.can_allocate`` alone decides a start.  When the pass
        before it left a reusable profile in :attr:`pass_carry` (same
        :attr:`allocation_version`, no malleable start, its reserved jobs a
        prefix of the window, each reserved start after ``now``), the pass
        advances that one instead and asks for none.
        """
        free_now = self.cluster.num_free_nodes
        base = self._base_profile
        key = (self.allocation_version, free_now)
        if base is None or self._base_key != key:
            base = ReservationMap.from_sorted_releases(
                self.cluster.num_nodes, self.now, free_now, self._releases
            )
            self._base_profile = base
            self._base_key = key
        elif base.now != self.now:
            base.advance(self.now)
        return base.copy()

    def _add_release(self, job: Job) -> None:
        entry = (job.start_time + job.requested_time, len(job.allocated_nodes))
        self._release_of[job.job_id] = entry
        insort(self._releases, entry)

    def _drop_release(self, job_id: int) -> None:
        # Equal entries are interchangeable, so any match may go.
        releases = self._releases
        del releases[bisect_left(releases, self._release_of.pop(job_id))]

    def _invalidate_profile(self) -> None:
        """Record an allocation change (bumps :attr:`allocation_version`)."""
        self.allocation_version += 1

    def start_job_static(self, job: Job) -> List[int]:
        """Start a job on an exclusive allocation of the lowest-id free nodes."""
        return self._start(job, None, ())

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
        return self._start(job, cpus_per_node, mates)

    def _start(
        self, job: Job, cpus_per_node: Optional[Dict[int, int]], mates: Sequence[Job]
    ) -> List[int]:
        """Start a pending job: on whole free nodes when ``cpus_per_node``
        is ``None``, else as a guest of ``mates`` on the given CPUs."""
        if job.job_id not in self.pending:
            raise RuntimeError(f"job {job.job_id} is not pending")
        shared = cpus_per_node is not None
        if shared:
            nodes = self.cluster.allocate_shared(job, cpus_per_node)
        else:
            nodes = self.cluster.allocate_static(job)
            cpus_per_node = dict.fromkeys(nodes, self.cluster.cpus_per_node)
        self._invalidate_profile()
        self.pending.remove(job.job_id)
        job.mark_started(self.now)
        job.reconfigure(self.now, cpus_per_node, self.runtime_model.speed(job, cpus_per_node))
        if shared:
            job.scheduled_malleable = True
            job.guest_of = [m.job_id for m in mates]
            for mate in mates:
                if job.job_id not in mate.mates:
                    mate.mates.append(job.job_id)
                mate.was_mate = True
        self.running[job.job_id] = job
        self._add_release(job)
        self._push_end_event(job)
        if self.trace is not None:
            self.trace.emit(
                "job_start",
                self.now,
                job=job.job_id,
                kind="shared" if shared else "static",
                nodes=len(nodes),
                mates=[m.job_id for m in mates],
            )
        return nodes

    def reconfigure_job(
        self,
        job: Job,
        cpus_per_node: Dict[int, int],
        requested_time: Optional[float] = None,
    ) -> None:
        """Shrink or expand a running job to a new per-node CPU map.

        The map is the *complete* new allocation of the job: nodes missing
        from the map are released, nodes present are resized (or newly
        acquired if the CPUs are free).  A ``requested_time`` replaces the
        job's wall limit (SD-Policy extends a shrunk mate's) before
        :attr:`allocation_version` moves, and the job's release-ledger entry
        is re-keyed at once: a running job's predicted end
        ``start_time + requested_time`` changes only with the version.
        """
        if job.state is not JobState.RUNNING:
            raise RuntimeError(f"job {job.job_id} is not running")
        if not cpus_per_node:
            raise ValueError(f"job {job.job_id}: cannot reconfigure to an empty allocation")
        trace = self.trace
        cpus_before = sum(job.assigned_cpus.values()) if trace is not None else 0
        self.cluster.reconfigure_allocation(job, cpus_per_node)
        if requested_time is not None:
            job.requested_time = requested_time
        self._invalidate_profile()
        speed = self.runtime_model.speed(job, cpus_per_node)
        job.reconfigure(self.now, cpus_per_node, speed)
        self._drop_release(job.job_id)
        self._add_release(job)
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
        self._drop_release(job_id)
        self._last_end = max(self._last_end, self.now)
        if self.trace is not None:
            wait = (
                job.start_time - job.submit_time
                if job.start_time is not None
                else None
            )
            self.trace.emit("job_end", self.now, job=job.job_id, wait=wait)
        self.streaming.fold(job)
        if hasattr(self.scheduler, "on_job_end"):
            self.scheduler.on_job_end(self, job)
        # Folded; drop the per-job state (resource history, CPU maps).
        del self.jobs[job_id]

    def is_stale_end(self, event: Event) -> bool:
        """Whether ``event`` ends a job that has ended already or was
        reconfigured after the event was pushed: the one stale-end rule."""
        if event.event_type is not EventType.JOB_END:
            return False
        job = self.jobs.get(event.payload)
        return (
            job is None
            or job.state is not JobState.RUNNING
            or event.validity_token != job.end_event_serial
        )

    def step(self, until: Optional[float] = None) -> bool:
        """Process the next batch of simultaneous events; returns False when
        none is left (at or before ``until``, when given)."""
        self._advance_submissions()
        # The heap yields (time, type priority, serial) order, so the batch
        # arrives already sorted: ends, then submits, then schedule markers.
        batch = self.events.pop_batch(until)
        if not batch:
            return False
        self.now = batch[0].time
        need_schedule = False
        for event in batch:
            if event.event_type is EventType.JOB_END:
                if self.is_stale_end(event):
                    # The job was reconfigured earlier in this very batch:
                    # skipped, and *not* counted as processed.
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
        while self.step(until):
            pass
        return self.result()

    # ------------------------------------------------------------------ #
    @property
    def energy_joules(self) -> float:
        """Energy of the workload executed so far (0 without a power model).

        Idle power of every node over the makespan window plus the dynamic
        power of every assigned CPU-second, integrated by :attr:`streaming`
        from the completed jobs' resource histories.  It is therefore
        unaffected by stale end events left in the heap after
        reconfigurations.
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
        """Build the :class:`SimulationResult` for the jobs completed so far."""
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
