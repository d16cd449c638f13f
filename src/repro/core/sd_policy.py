"""The Slowdown-Driven scheduling policy (Listing 1 of the paper).

``SDPolicyScheduler`` extends the static backfill baseline: whenever the
static trial of a pending job fails, and the job is malleable, the policy

1. estimates the job's end time under static scheduling
   (``static_end = estimated wait + requested time``) and under malleable
   co-scheduling (``mall_end = requested time + worst-case increase``,
   starting immediately);
2. only if the malleable estimate improves on the static one, asks the
   mate-selection heuristic for the cheapest set of running jobs to shrink
   (minimum Performance Impact, Eq. 1) subject to the MAX_SLOWDOWN cut-off;
3. if a feasible selection exists, shrinks the mates, starts the guest on
   the freed CPUs, and records the mate relationship so that the guest's
   completion expands the mates back (and, symmetrically, a mate finishing
   early donates its cores to the jobs remaining on its nodes —
   Listing 3's node-management behaviour).

The policy supports mixed workloads: non-malleable jobs simply follow the
static backfill path.  Its knobs are the ones the paper varies
(:class:`SDPolicyConfig`): the SharingFactor, the mate bound, the
MAX_SLOWDOWN cut-off and the backfill depth; both estimates are worst-case
closed forms over requested times (:mod:`repro.core.runtime_model`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.mate_selection import MateSelection, MateSelector
from repro.core.penalties import (
    DynamicAverageMaxSlowdown,
    MaxSlowdownCutoff,
    StaticMaxSlowdown,
    parse_max_slowdown,
)
from repro.core.runtime_model import mate_increase
from repro.schedulers.backfill import BackfillScheduler
from repro.simulator.job import Job, JobState
from repro.simulator.reservation import ReservationMap

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.simulation import Simulation


@dataclass
class SDPolicyConfig:
    """Tunable parameters of SD-Policy.

    Attributes
    ----------
    sharing_factor:
        Fraction of a node that may be taken from a mate (paper: 0.5).
    max_mates:
        Maximum mates combined per guest (paper: 2).
    max_slowdown:
        The MAX_SLOWDOWN cut-off: a number (static MAXSD), ``math.inf``
        (MAXSD infinite), or ``"dynamic"`` for DynAVGSD (see ``parse_max_slowdown``).
    max_job_test:
        Backfill depth (inherited from the static baseline).

    The selector always runs the configuration the paper evaluates:
    worst-case estimates from requested times, exact node-count matching
    and the ``nm`` candidate cap (:mod:`repro.core.mate_selection`).
    """

    sharing_factor: float = 0.5
    max_mates: int = 2
    max_slowdown: float | str = math.inf
    max_job_test: int = 100

    def build_cutoff(self) -> MaxSlowdownCutoff:
        """Instantiate the MAX_SLOWDOWN cut-off described by this config."""
        value = parse_max_slowdown(self.max_slowdown)
        if value == "dynamic":
            return DynamicAverageMaxSlowdown()
        return StaticMaxSlowdown(value)

    def build_contention(self):
        """Contention model consulted by the selector (base policy: none)."""
        return None

    def build_selector(self) -> MateSelector:
        """Instantiate the mate selector described by this config."""
        return MateSelector(
            sharing_factor=self.sharing_factor,
            max_mates=self.max_mates,
            contention=self.build_contention(),
        )


class SDPolicyScheduler(BackfillScheduler):
    """Slowdown-Driven malleable backfill (the paper's SD-Policy)."""

    name = "sd_policy"
    # Malleable co-scheduling is exactly what makes a pass useful when the
    # cluster has no free nodes left.
    schedule_when_saturated = True

    def __init__(self, config: Optional[SDPolicyConfig] = None) -> None:
        self.config = config or SDPolicyConfig()
        super().__init__(max_job_test=self.config.max_job_test)
        self.selector = self.config.build_selector()
        self.cutoff = self.config.build_cutoff()
        self.name = f"sd_policy[{self.cutoff.label},SF={self.config.sharing_factor:g}]"
        # Per-run counters (reset in bind()).
        self.malleable_starts = 0
        self.rejected_by_estimate = 0
        self.rejected_no_mates = 0

    # ------------------------------------------------------------------ #
    def bind(self, sim: "Simulation") -> None:
        self.malleable_starts = 0
        self.rejected_by_estimate = 0
        self.rejected_no_mates = 0
        self.selector.reset()
        # Rebuild the cut-off so dynamic state never leaks across runs.
        self.cutoff = self.config.build_cutoff()

    def on_pass_start(self, sim: "Simulation") -> None:
        # The paper refreshes the dynamic cut-off whenever the controller is
        # not busy scheduling; here that is the start of every pass.
        self.cutoff.update(sim)

    def _no_selection_reason(self) -> str:
        """Typed reason for a failed mate selection (``mate_rejected`` trace).

        The base policy only knows "no mates existed"; contention-aware
        subclasses refine this (e.g. UB-Policy reports ``"bandwidth"`` when
        every candidate was dropped by the capacity check).  Must return a
        member of :data:`repro.telemetry.trace.MATE_REJECTED_REASONS`.
        """
        return "no_mates"

    # ------------------------------------------------------------------ #
    # Listing 1: the malleable scheduling attempt
    # ------------------------------------------------------------------ #
    def try_malleable_start(
        self,
        sim: "Simulation",
        job: Job,
        profile: ReservationMap,
        estimated_start: float,
        work_ahead_cpu_seconds: float = 0.0,
    ) -> bool:
        """Listing 1's malleable attempt: estimate, then select mates.

        The backfill pass sums ``work_ahead_cpu_seconds`` only when it first
        calls this method, with the same float operations as an eager sum
        at pass start.  A malleable end estimate that does not beat the
        static one rejects the job before any mate is looked at; after
        that, :meth:`MateSelector.select` turns down a guest whose node
        count no one or two mates in its time window can match before it
        computes a single penalty (without a contention model).

        The static start is the later of the reservation-map estimate
        (exact for the jobs within the backfill depth) and an aggregate
        work-ahead bound, which keeps it meaningful for jobs far beyond
        the reservation depth: the paper's implementation builds the full
        reservation map, and the bound is the scalable stand-in.
        """
        if not job.malleable:
            return False
        # End-time estimates (both measured as absolute times).
        now = sim.now
        total_cpus = sim.cluster.total_cpus
        static_start = now + work_ahead_cpu_seconds / total_cpus if total_cpus > 0 else now
        if math.isfinite(estimated_start):
            static_start = max(static_start, estimated_start)
        static_end = static_start + job.requested_time
        mall_runtime = self.selector.estimated_guest_runtime(job)
        mall_end = now + mall_runtime
        trace = sim.trace
        if static_end <= mall_end:
            self.rejected_by_estimate += 1
            if trace is not None:
                trace.emit(
                    "mate_rejected",
                    now,
                    guest=job.job_id,
                    reason="estimate",
                    static_end=static_end,
                    mall_end=mall_end,
                )
            return False
        selection = self.selector.select(sim, job, self.cutoff, mall_runtime)
        if selection is None:
            # The reason is resolved unconditionally so subclass counters
            # (e.g. UB-Policy's bandwidth refusals) are trace-independent:
            # cached payloads must be byte-identical with and without
            # ``--trace``.
            reason = self._no_selection_reason()
            self.rejected_no_mates += 1
            if trace is not None:
                trace.emit(
                    "mate_rejected",
                    now,
                    guest=job.job_id,
                    reason=reason,
                    static_end=static_end,
                    mall_end=mall_end,
                )
            return False
        self._apply_selection(sim, job, selection)
        self.malleable_starts += 1
        if trace is not None:
            trace.emit(
                "mate_selected",
                now,
                guest=job.job_id,
                mates=[mate.job_id for mate in selection.mates],
                penalty=selection.total_penalty,
                # Guests take no free nodes; the field stays in the
                # event format, pinned by trace fingerprints.
                free_nodes=0,
                est_runtime=selection.estimated_guest_runtime,
            )
        return True

    # ------------------------------------------------------------------ #
    # Listing 1's ``schedule(new_job)`` entry point: evaluate every arriving
    # job immediately, before the periodic queue pass reaches it.
    # ------------------------------------------------------------------ #
    def on_job_submit(self, sim: "Simulation", job: Job) -> None:
        """Attempt malleable co-scheduling of a newly submitted job.

        The paper's algorithm is invoked per arriving job: the static trial
        first, then the malleable trial.  Here the static trial is left to
        the regular backfill pass (which runs right after this hook and
        respects queue priority); the malleable trial, which does not
        consume free nodes and therefore cannot delay the queued jobs, is
        attempted immediately so that short jobs arriving into a congested
        system can be placed on shrunk mates without waiting to come within
        the backfill depth.  The work ahead is the whole queue's: every
        other pending job plus the running jobs' remaining requested work.
        """
        if not job.malleable:
            return
        if sim.cluster.can_allocate(job):
            # Free nodes exist: let the normal (static) path decide.
            return
        self.cutoff.update(sim)
        profile = sim.availability_profile()
        est_start = profile.earliest_start(job.requested_nodes, job.requested_time)
        work_ahead = self.running_requested_work(sim)
        for other in sim.pending.ordered():
            if other.job_id != job.job_id:
                work_ahead += other.requested_cpus * other.requested_time
        self.try_malleable_start(sim, job, profile, est_start, work_ahead)

    def _apply_selection(self, sim: "Simulation", guest: Job, selection: MateSelection) -> None:
        """Shrink the mates and start the guest on the freed CPUs.

        Following Listing 1's ``update_stats``, the requested (wall-limit)
        times of the mates and of the guest are extended by the estimated
        runtime increase, so the scheduler's future wait-time predictions
        account for the dilation caused by the shrink.
        """
        increase = mate_increase(
            selection.estimated_guest_runtime, 1.0 - self.config.sharing_factor
        )
        for mate in selection.mates:
            sim.reconfigure_job(
                mate,
                selection.mate_new_cpus[mate.job_id],
                requested_time=mate.requested_time + increase,
            )
        guest.requested_time = max(guest.requested_time, selection.estimated_guest_runtime)
        sim.start_job_shared(guest, selection.guest_cpus_per_node, selection.mates)

    # ------------------------------------------------------------------ #
    # Listing 3 (scheduler-visible part): expand / redistribute on job end
    # ------------------------------------------------------------------ #
    def on_job_end(self, sim: "Simulation", job: Job) -> None:
        """Return the ended job's cores to the jobs remaining on its nodes.

        * guest ends → its mates expand back to the full nodes they own;
        * mate ends before its guest → the guest takes over the freed cores
          of the nodes it shares with that mate (Listing 3's
          ``distribute_cpu`` behaviour).
        """
        affected: Dict[int, Job] = {}
        for other_id in list(job.guest_of) + list(job.mates):
            other = sim.jobs.get(other_id)
            if other is not None and other.state is JobState.RUNNING:
                affected[other_id] = other
            # Unlink the finished job from its peers' bookkeeping.
            if other is not None:
                if job.job_id in other.mates:
                    other.mates.remove(job.job_id)
                if job.job_id in other.guest_of:
                    other.guest_of.remove(job.job_id)
        for other in affected.values():
            new_map = self._expanded_map(sim, other)
            if new_map != other.assigned_cpus:
                sim.reconfigure_job(other, new_map)

    @staticmethod
    def _expanded_map(sim: "Simulation", job: Job) -> Dict[int, int]:
        """Give the job every free CPU on the nodes it occupies."""
        new_map: Dict[int, int] = {}
        for nid in job.allocated_nodes:
            node = sim.cluster.node(nid)
            new_map[nid] = node.cpus_of(job.job_id) + node.free_cpus
        return new_map

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """Per-run decision counters (useful for analysis and tests)."""
        return {
            "malleable_starts": self.malleable_starts,
            "rejected_by_estimate": self.rejected_by_estimate,
            "rejected_no_mates": self.rejected_no_mates,
        }
