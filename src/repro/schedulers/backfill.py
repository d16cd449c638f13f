"""Static backfill baseline (SLURM ``sched/backfill`` style).

This is the paper's comparison point ("static backfill"): whole-node,
exclusive allocations, jobs examined in priority order, and *conservative*
backfill — every examined job that cannot start immediately gets a
reservation in the future-availability profile, and lower-priority jobs may
only start now if doing so does not push any of those reservations back.
This mirrors how the SLURM backfill plug-in builds its reservation map up to
``bf_max_job_test`` jobs deep.

A pass does only work that can change a decision:

* *Stop early (static).*  A static start needs as many free nodes as the
  job requests, and free nodes only fall during a pass, so a static pass
  ends once they are fewer than any job left in the window asks for: the
  probes and reservations it would still make could only guard starts that
  cannot happen.
* *Lazy profile.*  Until a pass refuses its first job, its profile would be
  the running jobs' releases plus the jobs it started, which never
  decreases over time; so a probe finds a start at ``now`` exactly when
  ``cluster.can_allocate(job)`` holds, overdue releases included.  Those
  jobs start without a probe, and the pass asks
  :meth:`~repro.simulator.simulation.Simulation.availability_profile` for
  its profile at the first job the cluster refuses.
* *Resume from the previous pass.*  A pass leaves its final profile, the
  jobs it reserved (in window order, with their reserved slots) and the
  ``allocation_version`` at its end in ``sim.pass_carry``, which lives and
  dies with the run.  The next pass takes them over when the version is
  unchanged, the pass made no malleable start (that start's mates and guest
  are missing from its profile), the reserved jobs are a prefix of the new
  window and every saved start lies after the new ``now`` (``inf``
  included).  The saved profile then equals the one a fresh pass would
  have after probing and reserving that prefix, once
  :meth:`~repro.simulator.reservation.ReservationMap.advance` moves it to
  ``now``, and every saved start equals the one a probe would find.  A
  static pass resumes after the prefix.  A malleable pass first repeats
  each prefix job's :meth:`~BackfillScheduler.try_malleable_start` with its
  saved start, since penalties and the cut-off depend on ``now``; if one
  succeeds, it gives back the reservations of that job and of the rest of
  the prefix, which restores the counts exactly, and carries on from there
  as a fresh pass would.
* *Lazy work ahead.*  The work-ahead sum, which only the malleable attempt
  reads, is taken when a pass first calls
  :meth:`~BackfillScheduler.try_malleable_start`, so a static pass, and a
  malleable pass that starts or reserves every job before that, never pays
  it.

The SD-Policy scheduler (:mod:`repro.core.sd_policy`) extends this class by
adding the malleable scheduling attempt right after the static trial of each
job fails, exactly as in Listing 1 of the paper.
"""

from __future__ import annotations

import math
from itertools import accumulate, islice
from typing import TYPE_CHECKING, Iterable, List, NamedTuple, Optional, Tuple

from repro.schedulers.base import Scheduler
from repro.simulator.reservation import ReservationMap

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.job import Job
    from repro.simulator.simulation import Simulation


class PassCarry(NamedTuple):
    """What a backfill pass leaves for the next pass of the same run."""

    #: ``sim.allocation_version`` at the end of the pass.
    version: int
    #: The pass's final profile, reservations included.
    profile: ReservationMap
    #: The jobs the pass reserved a slot for, in window order.
    blocked: List["Job"]
    #: Their slots as reserved, ``(start, duration, nodes)``; the start is
    #: ``inf``, and nothing reserved, for a job that never fits.
    slots: List[Tuple[float, float, int]]

    def resumes(self, sim: "Simulation", window: List["Job"]) -> bool:
        """Whether a pass over ``window`` may start from this carry."""
        blocked = self.blocked
        return (
            self.version == sim.allocation_version
            and min(start for start, _, _ in self.slots) > sim.now
            and window[: len(blocked)] == blocked
        )

    def give_back(self, first: int) -> None:
        """Remove the slots of ``blocked[first:]`` from the profile."""
        for start, duration, nodes in self.slots[first:]:
            if start != math.inf:
                self.profile.remove_reservation(start, duration, nodes)


class BackfillScheduler(Scheduler):
    """Conservative backfill over exclusive whole-node allocations.

    Parameters
    ----------
    max_job_test:
        Maximum number of pending jobs examined per scheduling pass
        (SLURM's ``bf_max_job_test``).  Jobs beyond this depth simply wait
        for a later pass.
    """

    name = "static_backfill"

    #: False means "this policy starts jobs only on free nodes": a pass
    #: ends as soon as the free nodes are fewer than any job left in the
    #: window asks for (and is skipped when that holds from the start), and
    #: it never calls :meth:`try_malleable_start`, so never sums the work
    #: ahead.
    #: SD-Policy sets it because malleable co-scheduling works precisely
    #: when no free nodes are left.
    schedule_when_saturated = False

    def __init__(self, max_job_test: int = 100) -> None:
        if max_job_test <= 0:
            raise ValueError("max_job_test must be positive")
        self.max_job_test = max_job_test

    # ------------------------------------------------------------------ #
    # Hooks for subclasses (SD-Policy overrides ``try_malleable_start``)
    # ------------------------------------------------------------------ #
    def try_malleable_start(
        self,
        sim: "Simulation",
        job: "Job",
        profile: ReservationMap,
        estimated_start: float,
        work_ahead_cpu_seconds: float = 0.0,
    ) -> bool:
        """Attempt a non-static start for a job whose static trial failed.

        The base (static) policy never does; SD-Policy overrides this with
        the slowdown-driven malleable co-scheduling attempt.  Must return
        True if the job was started.  A pass calls it only when
        :attr:`schedule_when_saturated` is True.

        ``work_ahead_cpu_seconds`` is the total requested work (CPU·seconds)
        of the running jobs plus the higher-priority pending jobs — a cheap
        lower bound on how long this job must wait that stays meaningful
        even for queue positions beyond the reservation depth
        (``max_job_test``).  A pass sums it at its first call, over the jobs
        that were running when the pass began, then folds in the window
        jobs ahead in window order: the same float operations, in the same
        order, as a sum taken at the start of the pass.
        """
        return False

    def on_pass_start(self, sim: "Simulation") -> None:
        """Hook called at the beginning of every scheduling pass."""

    @staticmethod
    def running_requested_work(
        sim: "Simulation", jobs: Optional[Iterable["Job"]] = None
    ) -> float:
        """Remaining requested work (CPU·seconds) of the running jobs.

        ``jobs`` defaults to ``sim.running``; a pass hands in the prefix of
        it that was running when the pass began.  Jobs past their requested
        end add nothing (adding ``0.0`` leaves the sum unchanged).
        """
        now = sim.now
        total = 0.0
        for job in sim.running.values() if jobs is None else jobs:
            if job.start_time is None:
                continue
            remaining = job.start_time + job.requested_time - now
            if remaining > 0.0:
                total += remaining * job.requested_cpus
        return total

    # ------------------------------------------------------------------ #
    def schedule(self, sim: "Simulation") -> None:
        cluster = sim.cluster
        window = sim.pending.ordered(self.max_job_test)
        static_only = not self.schedule_when_saturated
        if static_only:
            # fewest[i]: the fewest nodes any job in window[i:] asks for.  A
            # static start needs that many free nodes, and free nodes only
            # fall during a pass, so once they drop below it nothing left in
            # the window can start: the pass ends there (or never begins).
            fewest = list(accumulate(reversed([job.requested_nodes for job in window]), min))
            fewest.reverse()
            if not window or cluster.num_free_nodes < fewest[0]:
                return
        self.on_pass_start(sim)
        now = sim.now
        trace = sim.trace
        # The work ahead only feeds the malleable attempt: it is summed at
        # the pass's first attempt, over the jobs running at pass start.
        # Until then nothing has reconfigured a job or extended a requested
        # time, and starts only append to ``sim.running``.
        num_running = len(sim.running)
        work_ahead: Optional[float] = None
        # Built at the first job the cluster refuses (see the module notes).
        profile: Optional[ReservationMap] = None
        # The jobs this pass could not start, in window order, and their
        # reserved slots: higher-priority jobs a backfilled start jumps.
        blocked: List["Job"] = []
        slots: List[Tuple[float, float, int]] = []
        malleable_start = False
        first = 0
        carry, sim.pass_carry = sim.pass_carry, None
        if carry is not None and carry.resumes(sim, window):
            profile = carry.profile
            profile.advance(now)
            blocked, slots = carry.blocked, carry.slots
            first = len(blocked)
            if not static_only:
                work_ahead = self.running_requested_work(sim)
                for idx, job in enumerate(carry.blocked):
                    malleable_start = self.try_malleable_start(
                        sim, job, profile, slots[idx][0], work_ahead
                    )
                    work_ahead += job.requested_cpus * job.requested_time
                    if malleable_start:
                        # A fresh pass would not have reserved this job or
                        # any later one yet.
                        carry.give_back(idx)
                        blocked, slots = blocked[:idx], slots[:idx]
                        first = idx + 1
                        break
        for idx in range(first, len(window)):
            job = window[idx]
            if static_only and cluster.num_free_nodes < fewest[idx]:
                break
            if profile is None:
                if cluster.can_allocate(job):
                    # Nothing refused yet, so nothing reserved ahead and no
                    # work ahead summed: a plain start.
                    sim.start_job_static(job)
                    continue
                profile = sim.availability_profile()
            # Static trial: can the job start right now on free nodes without
            # delaying any reservation made earlier in this pass?
            est_start = profile.earliest_start(job.requested_nodes, job.requested_time)
            if est_start <= now and cluster.can_allocate(job):
                sim.start_job_static(job)
                profile.add_reservation(now, job.requested_time, job.requested_nodes)
                if trace is not None and blocked:
                    # Started out of priority order: the job slipped into a
                    # hole ahead of blocked higher-priority jobs — backfill.
                    trace.emit(
                        "backfill_hole",
                        now,
                        job=job.job_id,
                        nodes=job.requested_nodes,
                        ahead=len(blocked),
                        est_start=est_start,
                    )
            # Static start not possible now: give the subclass a chance to
            # start the job through malleability, else reserve its earliest
            # slot so later jobs cannot delay it (conservative backfill).
            else:
                if not static_only and work_ahead is None:
                    work_ahead = self.running_requested_work(
                        sim, islice(sim.running.values(), num_running)
                    )
                    for ahead in window[:idx]:
                        work_ahead += ahead.requested_cpus * ahead.requested_time
                if not static_only and self.try_malleable_start(
                    sim, job, profile, est_start, work_ahead
                ):
                    malleable_start = True
                else:
                    if est_start != math.inf:
                        profile.add_reservation(
                            est_start, job.requested_time, job.requested_nodes
                        )
                    blocked.append(job)
                    slots.append((est_start, job.requested_time, job.requested_nodes))
            if work_ahead is not None:
                work_ahead += job.requested_cpus * job.requested_time
        if blocked and not malleable_start:
            sim.pass_carry = PassCarry(sim.allocation_version, profile, blocked, slots)
