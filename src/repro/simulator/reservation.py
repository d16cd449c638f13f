"""Future-availability profile ("reservation map").

The scheduler needs two forward-looking quantities:

* ``estimate_start_time`` — when would a job of ``W`` nodes be able to start,
  given the *predicted* end times of the jobs currently running (SLURM, like
  the paper, predicts with the user-requested wall time)?  SD-Policy uses
  this to compute ``static_end`` (Listing 1).
* a *shadow* reservation for every waiting job examined by the backfill
  pass, so lower-priority jobs can only start now when they do not delay a
  higher-priority one (conservative backfill, SLURM ``sched/backfill``
  style).

Both are answered by :class:`ReservationMap`, a step-function profile of
free-node counts over future time built from the running jobs plus any
explicit reservations added during a backfill pass.

The step function is two parallel Python lists: ``_times``, the distinct
change points in increasing order (the first is always :attr:`now`), and
``_free``, the free-node count from each point up to the next.  A release or
reservation splits the profile at its start (and end) with a bisect and adds
its delta over that index range in place, so a backfill pass that alternates
``earliest_start`` probes with ``add_reservation`` calls never rebuilds the
profile.

The running jobs' part of the profile is built in one pass, without a
sort: the simulation keeps a release ledger, the running jobs' predicted
ends in time order, and builds its base profile from it with
:meth:`ReservationMap.from_sorted_releases` when the running set changes.
When only time advances it trims the cached base with
:meth:`ReservationMap.advance`.  :meth:`ReservationMap.from_running_jobs`
rebuilds the same profile from the jobs themselves and is the reference the
ledger is tested against.

A backfill pass reserves right where its probe landed: a successful
:meth:`ReservationMap.earliest_start` remembers the index of the start it
found, always an existing change point, and of the first point at or after
the slot's end, and an :meth:`ReservationMap.add_reservation` of that same
slot, with no update in between, splits and subtracts at those indices
without bisecting for either point again.

A pass may also carry its final profile over to the next pass of the same
run (see :meth:`repro.schedulers.backfill.BackfillScheduler.schedule`).
When the running set has not changed, :meth:`ReservationMap.advance`
moves that profile to the new ``now``, which equals a fresh build plus the
same reservations; and since an earliest start always falls on a change
point, a reservation found before still lands where a probe would find it
now, as long as it starts after the new ``now``.

``_free`` holds *unclipped* counts: over-reservation may drive them below 0
and releases may push them above ``total_nodes``.  Keeping the raw sums makes
every update a plain addition that later updates can undo exactly:
:meth:`ReservationMap.remove_reservation` gives a reservation back.  Only the
readers that report a count (:meth:`free_nodes_at`, :meth:`profile`) clip it
to ``[0, total_nodes]``.  :meth:`earliest_start` compares the raw counts,
which gives the same answer: it only compares against a ``nodes_needed`` in
``1..total_nodes``, and for such a threshold ``clip(x) >= nodes_needed``
holds exactly when ``x >= nodes_needed``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterable, List, Optional, Tuple

from repro.simulator.job import Job, JobState


class ReservationMap:
    """Step-function profile of future node availability.

    Parameters
    ----------
    total_nodes:
        Number of nodes in the cluster.
    now:
        Current simulation time; the profile starts at this instant.
    free_now:
        Number of nodes free at ``now``.
    releases:
        Iterable of ``(time, nodes)`` pairs: at ``time``, ``nodes`` nodes are
        expected to become free (a running job's predicted end).
    """

    __slots__ = ("total_nodes", "now", "_times", "_free", "_landing")

    def __init__(
        self,
        total_nodes: int,
        now: float,
        free_now: int,
        releases: Iterable[Tuple[float, int]] = (),
    ) -> None:
        self._fill(total_nodes, now, free_now, sorted(releases))

    @classmethod
    def from_sorted_releases(
        cls,
        total_nodes: int,
        now: float,
        free_now: int,
        releases: Iterable[Tuple[float, int]],
    ) -> "ReservationMap":
        """Build the profile from ``(time, nodes)`` releases already in time
        order, without sorting them: the simulation's release ledger is kept
        sorted as jobs start and end."""
        profile = cls.__new__(cls)
        profile._fill(total_nodes, now, free_now, releases)
        return profile

    @classmethod
    def from_running_jobs(
        cls,
        total_nodes: int,
        now: float,
        free_now: int,
        running_jobs: Iterable[Job],
    ) -> "ReservationMap":
        """Build the profile from scratch from the currently running jobs.

        Each running job is predicted to end at ``start + requested_time``
        (what a real scheduler can know).  The simulation serves its
        profiles from a release ledger instead; this rebuild is the
        reference that ledger is checked against.
        """
        releases = [
            (job.start_time + job.requested_time, len(job.allocated_nodes))
            for job in running_jobs
            if job.state is JobState.RUNNING and job.start_time is not None
        ]
        return cls(total_nodes, now, free_now, releases)

    def _fill(
        self,
        total_nodes: int,
        now: float,
        free_now: int,
        releases: Iterable[Tuple[float, int]],
    ) -> None:
        """Set up the step function from time-ordered releases in one pass.

        Releases at or before ``now`` clip into the first point, and
        releases at the same instant collapse into one change point.
        """
        if free_now < 0 or free_now > total_nodes:
            raise ValueError(f"free_now={free_now} out of range 0..{total_nodes}")
        self.total_nodes = total_nodes
        self.now = now
        times: List[float] = [now]
        free: List[int] = [free_now]
        level = free_now
        for time, nodes in releases:
            if nodes <= 0:
                continue
            level += nodes
            if time > times[-1]:
                times.append(time)
                free.append(level)
            else:
                free[-1] = level
        self._times = times
        self._free = free
        self._landing: Optional[Tuple[int, int, float]] = None

    # ------------------------------------------------------------------ #
    def copy(self) -> "ReservationMap":
        """Independent copy: the simulation driver caches the base profile
        built from the running jobs and hands each scheduling pass a copy to
        add its own reservations to."""
        clone = ReservationMap.__new__(ReservationMap)
        clone.total_nodes = self.total_nodes
        clone.now = self.now
        clone._times = self._times[:]
        clone._free = self._free[:]
        clone._landing = None
        return clone

    def advance(self, now: float) -> None:
        """Move the start of the profile forward to ``now``, in place.

        Change points at or before ``now`` fold into the first point, so the
        result equals a fresh build at ``now`` from the same releases: the
        simulation trims its cached base profile this way when time advances
        but the running set has not changed.
        """
        if now < self.now:
            raise ValueError(f"cannot move the profile back from {self.now} to {now}")
        idx = bisect_right(self._times, now) - 1
        del self._times[:idx]
        del self._free[:idx]
        self._times[0] = now
        self.now = now
        self._landing = None

    def _split(self, time: float) -> int:
        """Index of the change point at ``time`` (``>= now``), inserting one
        that carries the count in force there if it is not yet present."""
        times = self._times
        idx = bisect_left(times, time)
        if idx == len(times) or times[idx] != time:
            times.insert(idx, time)
            self._free.insert(idx, self._free[idx - 1])
        return idx

    def add_release(self, time: float, nodes: int) -> None:
        """Record that ``nodes`` nodes become free at ``time``."""
        if nodes <= 0:
            return
        self._landing = None
        free = self._free
        idx = self._split(max(time, self.now))
        free[idx:] = [f + nodes for f in free[idx:]]

    def add_reservation(self, start: float, duration: float, nodes: int) -> None:
        """Reserve ``nodes`` nodes in ``[start, start+duration)``.

        Used during a backfill pass to account for jobs the current pass has
        already decided to start (or reserved a future slot for), so later
        candidates in the same pass see a consistent picture.  A non-finite
        ``duration`` reserves the nodes for good.  The slot the last
        :meth:`earliest_start` found is placed at the indices that probe
        already holds.
        """
        if nodes > 0:
            self._shift(start, duration, -nodes)

    def remove_reservation(self, start: float, duration: float, nodes: int) -> None:
        """Give back a reservation made with the same arguments.

        The counts are plain sums, so the free-node counts return exactly to
        what they were before :meth:`add_reservation`; only the change
        points it split stay, carrying equal counts.
        """
        if nodes > 0:
            self._shift(start, duration, nodes)

    def _shift(self, start: float, duration: float, delta: int) -> None:
        """Add ``delta`` to the free count over ``[start, start+duration)``."""
        if duration < 0:
            raise ValueError(f"negative reservation duration {duration}")
        free = self._free
        start = max(start, self.now)
        landing, self._landing = self._landing, None
        if landing is not None and landing[2] == duration and self._times[landing[0]] == start:
            lo, hi = landing[0], landing[1]
            times = self._times
            end = start + duration
            if hi == len(times) or times[hi] != end:
                times.insert(hi, end)
                free.insert(hi, free[hi - 1])
        else:
            lo = self._split(start)
            hi = self._split(start + duration) if math.isfinite(duration) else len(free)
        free[lo:hi] = [f + delta for f in free[lo:hi]]

    # ------------------------------------------------------------------ #
    def _clip(self, free: int) -> int:
        return int(min(max(free, 0), self.total_nodes))

    def free_nodes_at(self, time: float) -> int:
        """Free-node count at a given future time (according to the profile)."""
        idx = max(0, bisect_right(self._times, time) - 1)
        return self._clip(self._free[idx])

    def profile(self) -> List[Tuple[float, int]]:
        """The availability step function as ``[(time, free_nodes), ...]``.

        The first entry is at :attr:`now`; subsequent entries are change
        points in increasing time order.
        """
        return [(float(t), self._clip(f)) for t, f in zip(self._times, self._free)]

    def earliest_start(self, nodes_needed: int, duration: Optional[float] = None) -> float:
        """Earliest time at which ``nodes_needed`` nodes are simultaneously free.

        If ``duration`` is given, the availability must hold for the whole
        interval ``[t, t + duration)`` (needed to honour reservations that
        temporarily take nodes away).  Returns ``math.inf`` when the request
        can never be satisfied (more nodes than the cluster has, or the
        profile never frees enough).

        A start found for a finite ``duration`` is remembered, with the
        first change point at or after its end, for a following
        :meth:`add_reservation` of that slot.
        """
        if nodes_needed > self.total_nodes:
            return math.inf
        if nodes_needed <= 0:
            return self.now
        times, free = self._times, self._free
        n = len(times)
        if duration is None or not math.isfinite(duration):
            for idx in range(n):
                if free[idx] >= nodes_needed:
                    return float(times[idx])
            return math.inf
        idx = 0
        while idx < n:
            if free[idx] < nodes_needed:
                idx += 1
                continue
            end = times[idx] + duration
            probe = idx + 1
            while probe < n and times[probe] < end:
                if free[probe] < nodes_needed:
                    break
                probe += 1
            else:
                # ``probe`` is the first point at or after a nonempty slot's end.
                self._landing = (idx, probe if end > times[idx] else idx, duration)
                return float(times[idx])
            # Every start up to the violation also fails; jump past it.
            idx = probe + 1
        return math.inf
