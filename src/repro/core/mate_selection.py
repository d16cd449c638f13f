"""Mate selection: the resource-selection level of SD-Policy (Section 3.2).

When a malleable job cannot start statically, SD-Policy looks for *mates* —
running jobs that will shrink their per-node CPU allocation so the new job
(the *guest*) can be co-scheduled on their nodes.  Selecting the mates is a
knapsack-like NP-complete problem; the paper solves it with a bounded
heuristic:

* each candidate mate ``i`` gets a penalty ``p_i`` — its estimated slowdown
  after the shrink (Eq. 4, :func:`repro.core.penalties.mate_penalty`);
* candidates with ``p_i ≥ MAX_SLOWDOWN`` are filtered out (constraint 2);
* the remaining candidates are sorted by penalty and only the first
  :data:`MAX_CANDIDATES` (the paper's ``nm``) are kept;
* combinations of at most ``max_mates`` mates (the paper finds no benefit
  beyond 2) whose node counts sum exactly to the guest's requested node
  count ``W`` (constraint 3) are enumerated, and the combination minimising
  the total Performance Impact ``PI = Σ p_i`` (Eq. 1) is chosen;
* a further constraint requires the guest to finish (by its worst-case
  estimate) within every selected mate's remaining requested time, so a
  mate never ends while still hosting the guest *according to the
  scheduler's information*.

This is the configuration the paper evaluates: worst-case estimates from
requested times, a guest placed on its mates' nodes only, and every mate
shrunk on all of its nodes.

Eligibility is checked in two parts.  The *structural* part — the job is
malleable, is not itself a guest and hosts no guest — changes only when a
job starts, ends or is reconfigured, so the selector caches the running
jobs that pass it (:meth:`MateSelector.mate_pool`) and rebuilds the list
only when :attr:`Simulation.allocation_version` moves.  A rebuild reads the
jobs' guest links, not their nodes: a malleable job that is no guest holds
a shared node exactly when it hosts one.  A mate's predicted end
``start_time + requested_time`` is fixed within one version too
(:meth:`Simulation.reconfigure_job` sets an extended requested time before
the version moves), so the same pass keeps the two latest ends of each node
count.  Everything that depends on the guest or on the clock runs on every
scan: the time window, the contention pairing and the penalty against the
cut-off.

Most selections fail on node counts alone: no mate in the time window, or
no one or two of them holding exactly the guest's node count.  Candidates
are a subset of the window mates and the combination search needs an exact
sum, so :meth:`MateSelector.select` first asks
:meth:`MateSelector.node_counts_can_match`, and builds no candidate when it
says no combination can exist.  That check is one lookup: per node count
``n`` and version, the latest end that one mate of ``n`` nodes, or two
distinct mates whose node counts sum to ``n``, both reach; the guest fits
when its worst-case end is no later.  The check holds for any cut-off.
It is skipped, and every candidate built, when a contention model is set
(its bandwidth refusals are counted from the scan) and beyond two mates.
A traced run takes the same path: the trace records the outcome of each
search (``mate_selected`` or ``mate_rejected``), not its candidates.
"""

from __future__ import annotations

import itertools
import math
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.penalties import MaxSlowdownCutoff, mate_penalty
from repro.core.runtime_model import dilated_runtime, mate_increase
from repro.core.sharing import plan_node_sharing
from repro.simulator.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.contention import ContentionModel
    from repro.simulator.simulation import Simulation


#: Length cap of the penalty-sorted candidate list (the paper's ``nm``).
MAX_CANDIDATES = 50


@dataclass(frozen=True)
class MateCandidate:
    """A running job eligible to be shrunk for a given guest."""

    job: Job
    penalty: float
    weight: int  # number of nodes the mate holds (w_i in the paper)


@dataclass
class MateSelection:
    """The outcome of a successful mate selection.

    Attributes
    ----------
    mates:
        The selected mate jobs.
    guest_cpus_per_node:
        Per-node CPUs the guest will receive.
    mate_new_cpus:
        For every mate, its complete new per-node CPU map after shrinking.
    total_penalty:
        The Performance Impact ``PI = Σ p_i`` of the selection.
    estimated_guest_runtime:
        Worst-case runtime estimate of the guest under the plan (seconds).
    """

    mates: List[Job]
    guest_cpus_per_node: Dict[int, int]
    mate_new_cpus: Dict[int, Dict[int, int]]
    total_penalty: float = 0.0
    estimated_guest_runtime: float = 0.0


class MateSelector:
    """Heuristic mate selection (Listing 2 + Eq. 1–4).

    Parameters
    ----------
    sharing_factor:
        Fraction of a node's CPUs that may be taken from a mate
        (paper default 0.5 — one socket of a two-socket node).
    max_mates:
        Maximum number of mates combined for one guest (paper: 2).
    contention:
        Optional :class:`repro.core.contention.ContentionModel`.  When set,
        candidates whose pairing with the guest would oversubscribe a node's
        memory bandwidth are rejected up front (counted in
        ``bandwidth_rejections``), the survivors are ordered
        complementarity-first (lowest bandwidth demand, then penalty), and
        every per-node split is re-checked through
        :func:`repro.core.sharing.plan_node_sharing`.  ``None`` (the
        default) preserves the paper's penalty-only ordering byte-for-byte.
    """

    def __init__(
        self,
        sharing_factor: float = 0.5,
        max_mates: int = 2,
        contention: Optional["ContentionModel"] = None,
    ) -> None:
        if not 0.0 < sharing_factor < 1.0:
            raise ValueError("sharing_factor must be in (0, 1)")
        if max_mates <= 0:
            raise ValueError("max_mates must be positive")
        self.sharing_factor = sharing_factor
        self.max_mates = max_mates
        self.contention = contention
        #: Candidates dropped by the bandwidth-capacity check during the
        #: most recent :meth:`candidate_mates` call (0 on the default path);
        #: schedulers read it to type their ``mate_rejected`` trace events.
        self.bandwidth_rejections = 0
        self.reset()

    def reset(self) -> None:
        """Forget the cached mate pool and zero the work counters (new run)."""
        #: Pool jobs examined by :meth:`candidate_mates`, summed over the run
        #: (a deterministic work counter).
        self.mates_scanned = 0
        #: Mate-pool rebuilds over the run: at most one per allocation
        #: version (a deterministic work counter).
        self.pool_builds = 0
        self._pool: List[Job] = []
        # Per node count in the pool, its two latest predicted ends (the
        # second -inf for a single mate); and, filled per node count on
        # demand, the latest end one or two mates covering it reach.  Both
        # live exactly as long as the pool.
        self._top_ends: Dict[int, Tuple[float, float]] = {}
        self._reach: Dict[int, float] = {}
        # The simulation the pool was built from, compared by identity.  Held
        # weakly: a strong reference would close the cycle simulation ->
        # scheduler -> selector -> simulation and keep every finished run
        # alive until the cyclic garbage collector runs.  Never dereferenced
        # while the version is -1, which no simulation reports.
        self._pool_sim: Optional["weakref.ReferenceType[Simulation]"] = None
        self._pool_version = -1

    # ------------------------------------------------------------------ #
    # Guest-side estimates
    # ------------------------------------------------------------------ #
    def estimated_guest_runtime(self, guest: Job) -> float:
        """Worst-case runtime of the guest when co-scheduled under the factor.

        With the worst-case model any shared node limits progress, so the
        guest's effective fraction is the SharingFactor.
        """
        return dilated_runtime(guest.requested_time, self.sharing_factor)

    # ------------------------------------------------------------------ #
    # Candidate construction
    # ------------------------------------------------------------------ #
    def mate_pool(self, sim: "Simulation") -> List[Job]:
        """Running jobs structurally able to host a guest, in ``sim.running`` order.

        A job qualifies when it is malleable, was not itself co-scheduled as
        a guest and hosts no guest, so it holds no node shared with another
        job (one guest per node set).  None of that, nor any running job's
        predicted end, changes between allocation changes, so the list and
        the latest ends per node count are rebuilt only when the simulation
        or its allocation version differs from the last call.
        """
        version = sim.allocation_version
        if self._pool_version == version and self._pool_sim() is sim:
            return self._pool
        pool: List[Job] = []
        top_ends: Dict[int, Tuple[float, float]] = {}
        no_end = (-math.inf, -math.inf)
        for job in sim.running.values():
            if not job.malleable or job.guest_of or job.mates:
                continue
            pool.append(job)
            end = job.start_time + job.requested_time
            weight = len(job.allocated_nodes)
            first, second = top_ends.get(weight, no_end)
            if end > first:
                top_ends[weight] = (end, first)
            elif end > second:
                top_ends[weight] = (first, end)
        self._pool, self._pool_sim, self._pool_version = pool, weakref.ref(sim), version
        self._top_ends, self._reach = top_ends, {}
        self.pool_builds += 1
        return pool

    def candidate_mates(
        self,
        sim: "Simulation",
        guest: Job,
        cutoff: MaxSlowdownCutoff,
    ) -> List[MateCandidate]:
        """Build, filter and sort the list of candidate mates for a guest."""
        guest_runtime = self.estimated_guest_runtime(guest)
        increase = mate_increase(guest_runtime, 1.0 - self.sharing_factor)
        guest_end = sim.now + guest_runtime
        guest_id = guest.job_id
        contention = self.contention
        candidates: List[MateCandidate] = []
        self.bandwidth_rejections = 0
        pool = self.mate_pool(sim)
        self.mates_scanned += len(pool)
        for mate in pool:
            # The guest must finish (by its worst-case estimate) inside the
            # mate's remaining requested allocation.
            if mate.start_time + mate.requested_time < guest_end or mate.job_id == guest_id:
                continue
            if contention is not None and not contention.allows_pairing(mate, guest):
                # Profile-driven rejection: the pair would oversubscribe the
                # node's memory bandwidth regardless of the CPU split.
                self.bandwidth_rejections += 1
                continue
            penalty = mate_penalty(mate, increase)
            if not cutoff.admits(penalty):
                continue
            weight = len(mate.allocated_nodes)
            if weight <= 0:
                continue
            candidates.append(MateCandidate(job=mate, penalty=penalty, weight=weight))
        if contention is None:
            candidates.sort(key=lambda c: (c.penalty, c.job.job_id))
        else:
            # Profile-driven ordering: prefer complementary (low bandwidth
            # demand) mates, breaking ties by the paper's penalty order.
            candidates.sort(
                key=lambda c: (
                    contention.bandwidth_demand(
                        contention.application(c.job.application)
                    ),
                    c.penalty,
                    c.job.job_id,
                )
            )
        return candidates[:MAX_CANDIDATES]

    def node_counts_can_match(
        self, sim: "Simulation", guest: Job, guest_runtime: Optional[float] = None
    ) -> bool:
        """Whether mates in the guest's time window can sum to its node count.

        True when one window mate holds exactly the guest's
        ``requested_nodes`` or, with ``max_mates`` of two, when two distinct
        window mates sum to it; a mate is in the window when its predicted
        end is no earlier than the guest's worst-case end, the test of
        :meth:`candidate_mates`.  Candidates are a subset of the window
        mates, so False means :meth:`select` finds nothing, whatever the
        penalties.  Combinations of three or more mates are not checked:
        beyond two mates this is always True.

        The answer is one comparison against :meth:`_reach_of`, kept per
        node count for the pool's allocation version.  ``guest_runtime``,
        when given, is :meth:`estimated_guest_runtime` of the guest, already
        computed by the caller.
        """
        if self.max_mates > 2:
            return True
        self.mate_pool(sim)
        nodes_needed = guest.requested_nodes
        reach = self._reach.get(nodes_needed)
        if reach is None:
            reach = self._reach[nodes_needed] = self._reach_of(nodes_needed)
        if guest_runtime is None:
            guest_runtime = self.estimated_guest_runtime(guest)
        return sim.now + guest_runtime <= reach

    def _reach_of(self, nodes_needed: int) -> float:
        """The latest guest end that ≤ ``max_mates`` (one or two) distinct
        pool mates holding ``nodes_needed`` nodes together all cover
        (``-inf`` when no such mates exist)."""
        top_ends = self._top_ends
        reach = top_ends.get(nodes_needed, (-math.inf,))[0]
        if self.max_mates == 2:
            for weight, (first, second) in top_ends.items():
                other = nodes_needed - weight
                if other == weight:
                    reach = max(reach, second)
                elif other in top_ends:
                    reach = max(reach, min(first, top_ends[other][0]))
        return reach

    # ------------------------------------------------------------------ #
    # Combination search
    # ------------------------------------------------------------------ #
    def _best_combination(
        self,
        candidates: Sequence[MateCandidate],
        nodes_needed: int,
    ) -> Optional[List[MateCandidate]]:
        """Minimum-PI combination of ≤ ``max_mates`` mates summing to the target."""
        best: Optional[List[MateCandidate]] = None
        best_pi = math.inf
        # Sizes are tried in increasing order and, within a size, in
        # lexicographic index order; only a strictly lower PI replaces the
        # best so far.
        for c in candidates:
            if c.weight == nodes_needed and c.penalty < best_pi:
                best, best_pi = [c], c.penalty
        if self.max_mates >= 2:
            # r = 2: pair each i only with the later indices j holding the
            # complementary weight, instead of enumerating every pair.
            by_weight: Dict[int, List[int]] = {}
            for j, c in enumerate(candidates):
                by_weight.setdefault(c.weight, []).append(j)
            for i, first in enumerate(candidates):
                partners = by_weight.get(nodes_needed - first.weight)
                if partners is None:
                    continue
                for j in partners[bisect_right(partners, i):]:
                    second = candidates[j]
                    pi = first.penalty + second.penalty
                    if pi < best_pi:
                        best, best_pi = [first, second], pi
        # r >= 3 (beyond the paper's bound; ablations only): enumerate.
        for r in range(3, min(self.max_mates, len(candidates)) + 1):
            for combo in itertools.combinations(candidates, r):
                pi = sum(c.penalty for c in combo)
                if pi < best_pi and sum(c.weight for c in combo) == nodes_needed:
                    best, best_pi = list(combo), pi
        return best

    def _build_plan(
        self,
        sim: "Simulation",
        guest: Job,
        picks: Sequence[MateCandidate],
    ) -> Optional[MateSelection]:
        """Turn a combination into a concrete per-node CPU plan.

        The picks hold disjoint node sets whose sizes sum to the guest's
        node count, so the plan covers exactly the guest's request.
        """
        guest_cpus: Dict[int, int] = {}
        mate_new: Dict[int, Dict[int, int]] = {}
        mates: List[Job] = []
        for candidate in picks:
            mate = candidate.job
            mate_map = dict(mate.assigned_cpus)
            for nid in sorted(mate.allocated_nodes):
                plan = plan_node_sharing(
                    sim.cluster.node(nid),
                    mate,
                    guest,
                    self.sharing_factor,
                    contention=self.contention,
                )
                if plan is None:
                    return None
                guest_cpus[nid] = plan.guest_cpus
                mate_map[nid] = plan.mate_cpus
            mate_new[mate.job_id] = mate_map
            mates.append(mate)
        # The worst-case runtime of the concrete plan is governed by the
        # most-shrunk node.
        per_node_request = guest.requested_cpus / guest.requested_nodes
        worst_fraction = min(1.0, min(guest_cpus.values()) / per_node_request)
        return MateSelection(
            mates=mates,
            guest_cpus_per_node=guest_cpus,
            mate_new_cpus=mate_new,
            total_penalty=sum(c.penalty for c in picks),
            estimated_guest_runtime=dilated_runtime(guest.requested_time, worst_fraction),
        )

    # ------------------------------------------------------------------ #
    def select(
        self,
        sim: "Simulation",
        guest: Job,
        cutoff: MaxSlowdownCutoff,
        guest_runtime: Optional[float] = None,
    ) -> Optional[MateSelection]:
        """Select the best mates for a guest, or ``None`` if no set exists.

        Without a contention model, a guest whose node count no one or two
        window mates can match is turned down by
        :meth:`node_counts_can_match` before any penalty is computed, traced
        or not.  ``guest_runtime`` is passed on to that check.
        """
        if guest.requested_nodes <= 0:
            return None
        if self.contention is None and not self.node_counts_can_match(
            sim, guest, guest_runtime
        ):
            return None
        candidates = self.candidate_mates(sim, guest, cutoff)
        picks = self._best_combination(candidates, guest.requested_nodes)
        if picks is None:
            return None
        return self._build_plan(sim, guest, picks)
