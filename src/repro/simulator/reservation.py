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

``_free`` holds *unclipped* counts: over-reservation may drive them below 0
and releases may push them above ``total_nodes``.  Keeping the raw sums makes
every update a plain addition that later updates can undo exactly.  Only the
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

    __slots__ = ("total_nodes", "now", "_times", "_free")

    def __init__(
        self,
        total_nodes: int,
        now: float,
        free_now: int,
        releases: Iterable[Tuple[float, int]] = (),
    ) -> None:
        if free_now < 0 or free_now > total_nodes:
            raise ValueError(f"free_now={free_now} out of range 0..{total_nodes}")
        self.total_nodes = total_nodes
        self.now = now
        # Build both lists in one pass over the sorted releases; releases at
        # the same instant collapse into one change point.
        times: List[float] = [now]
        free: List[int] = [free_now]
        level = free_now
        for time, nodes in sorted((max(t, now), n) for t, n in releases if n > 0):
            level += nodes
            if time == times[-1]:
                free[-1] = level
            else:
                times.append(time)
                free.append(level)
        self._times = times
        self._free = free

    # ------------------------------------------------------------------ #
    @classmethod
    def from_running_jobs(
        cls,
        total_nodes: int,
        now: float,
        free_now: int,
        running_jobs: Iterable[Job],
        use_requested_time: bool = True,
    ) -> "ReservationMap":
        """Build the profile from the currently running jobs.

        ``use_requested_time=True`` predicts each running job's end as
        ``start + requested_time`` (what a real scheduler can know);
        ``False`` uses the simulator's exact predicted end (oracle mode,
        useful for experiments on prediction accuracy such as the paper's
        Workload 2).
        """
        releases: List[Tuple[float, int]] = []
        for job in running_jobs:
            if job.state is not JobState.RUNNING or job.start_time is None:
                continue
            if use_requested_time:
                end = job.start_time + job.requested_time
            else:
                end = job.predicted_end_time(now)
            if not math.isfinite(end):
                end = job.start_time + job.requested_time
            releases.append((end, len(job.allocated_nodes)))
        return cls(total_nodes, now, free_now, releases)

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
        return clone

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
        free = self._free
        idx = self._split(max(time, self.now))
        free[idx:] = [f + nodes for f in free[idx:]]

    def add_reservation(self, start: float, duration: float, nodes: int) -> None:
        """Reserve ``nodes`` nodes in ``[start, start+duration)``.

        Used during a backfill pass to account for jobs the current pass has
        already decided to start (or reserved a future slot for), so later
        candidates in the same pass see a consistent picture.  A non-finite
        ``duration`` reserves the nodes for good.
        """
        if nodes <= 0:
            return
        if duration < 0:
            raise ValueError(f"negative reservation duration {duration}")
        free = self._free
        start = max(start, self.now)
        lo = self._split(start)
        hi = self._split(start + duration) if math.isfinite(duration) else len(free)
        free[lo:hi] = [f - nodes for f in free[lo:hi]]

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
                return float(times[idx])
            # Every start up to the violation also fails; jump past it.
            idx = probe + 1
        return math.inf
