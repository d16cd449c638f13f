"""Job model for the cluster simulator.

A :class:`Job` carries both the *static* description of a job (what the user
submitted: node count, requested wall-clock time, malleability flag) and the
*dynamic* execution state maintained by the simulator (the per-interval
resource history used by the runtime models of Section 3.4 of the paper,
progress accounting, and the timing fields from which slowdown and response
time are derived).

A configuration is stored once, in the open (last, unended) slot of the
resource history: :attr:`Job.assigned_cpus` and :attr:`Job.current_speed`
read it, and :meth:`Job.reconfigure` is the only writer of both the slot
and :attr:`Job.allocated_nodes`, the sorted ids of the nodes it names.

Progress accounting
-------------------

The paper's runtime models (Eq. 5 ideal, Eq. 6 worst case) express the
*increase* in runtime of a job whose per-node CPU allocation changes over
time.  We implement the equivalent progress formulation: a job carries an
amount of remaining *work* expressed in seconds-at-full-allocation
("static seconds").  While the job runs at ``speed`` (1.0 = the speed of the
original static allocation) the work decreases at that rate.  The speed of a
given resource configuration is computed by the runtime model
(:mod:`repro.core.runtime_model`); the job object only integrates it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional


class JobState(enum.Enum):
    """Lifecycle states of a job inside the simulator."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"


@dataclass(frozen=True, slots=True)
class ResourceSlot:
    """One interval of a job's resource history.

    Attributes
    ----------
    start:
        Simulation time at which this configuration became active.
    end:
        Simulation time at which it stopped being active (``math.inf`` while
        it is the current configuration).
    cpus_per_node:
        Mapping ``node_id -> number of CPUs`` assigned in this interval.
    speed:
        Relative progress rate of the job in this interval (1.0 = static
        allocation speed), as computed by the active runtime model.
    """

    start: float
    end: float
    cpus_per_node: Dict[int, int]
    speed: float

    @property
    def total_cpus(self) -> int:
        """Total CPUs assigned across all nodes in this interval."""
        return sum(self.cpus_per_node.values())

    @property
    def duration(self) -> float:
        """Wall-clock length of the interval (may be ``inf`` if open)."""
        return self.end - self.start


class Job:
    """A single job submitted to the simulated cluster.

    Parameters
    ----------
    job_id:
        Unique integer identifier.
    submit_time:
        Simulation time (seconds) at which the job enters the system.
    requested_nodes:
        Number of whole nodes the job asks for (the paper's ``W`` /
        ``req_nodes``).  Node-exclusive allocation is the static baseline.
    requested_time:
        User-requested wall-clock limit in seconds (``req_time``).  The
        scheduler only ever sees this value.
    static_runtime:
        The *actual* runtime the job would take on its full static
        allocation.  Only the simulator uses it; scheduling estimates use
        ``requested_time``.
    cpus_per_node:
        CPUs per node of the target system (defines the full allocation
        width ``requested_cpus = requested_nodes * cpus_per_node``).
    malleable:
        Whether the job can shrink/expand at runtime (DROM-enabled).
    tasks_per_node:
        Number of MPI ranks per node; a malleable job can never shrink below
        one CPU per rank (Section 3.3 of the paper).
    user / group / application:
        Optional fields carried through from workload logs.
    """

    __slots__ = (
        "job_id",
        "submit_time",
        "requested_nodes",
        "requested_time",
        "static_runtime",
        "cpus_per_node",
        "malleable",
        "tasks_per_node",
        "user",
        "group",
        "application",
        "state",
        "start_time",
        "end_time",
        "allocated_nodes",
        "work_remaining",
        "last_progress_update",
        "resource_history",
        "guest_of",
        "mates",
        "scheduled_malleable",
        "was_mate",
        "end_event_serial",
    )

    def __init__(
        self,
        job_id: int,
        submit_time: float,
        requested_nodes: int,
        requested_time: float,
        static_runtime: float,
        cpus_per_node: int = 48,
        malleable: bool = True,
        tasks_per_node: int = 1,
        user: int = 0,
        group: int = 0,
        application: Optional[str] = None,
    ) -> None:
        if requested_nodes <= 0:
            raise ValueError(f"job {job_id}: requested_nodes must be > 0")
        if requested_time <= 0:
            raise ValueError(f"job {job_id}: requested_time must be > 0")
        if static_runtime <= 0:
            raise ValueError(f"job {job_id}: static_runtime must be > 0")
        if cpus_per_node <= 0:
            raise ValueError(f"job {job_id}: cpus_per_node must be > 0")
        if tasks_per_node <= 0:
            raise ValueError(f"job {job_id}: tasks_per_node must be > 0")

        self.job_id = job_id
        self.submit_time = float(submit_time)
        self.requested_nodes = int(requested_nodes)
        self.requested_time = float(requested_time)
        self.static_runtime = float(static_runtime)
        self.cpus_per_node = int(cpus_per_node)
        self.malleable = bool(malleable)
        self.tasks_per_node = int(tasks_per_node)
        self.user = user
        self.group = group
        self.application = application

        # Dynamic state.
        self.state = JobState.PENDING
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        # Ids of the nodes of the latest configuration (kept after the job
        # ends, so the cluster can release them).
        self.allocated_nodes: List[int] = []
        # Remaining work in "static seconds".
        self.work_remaining: float = float(static_runtime)
        self.last_progress_update: float = float(submit_time)
        self.resource_history: List[ResourceSlot] = []
        # Malleable bookkeeping: if this job was started as a guest on shrunk
        # mates, ``guest_of`` lists the mate job ids; conversely ``mates``
        # is unused for guests.  For a mate, ``mates`` lists the guests it
        # currently hosts.
        self.guest_of: List[int] = []
        self.mates: List[int] = []
        self.scheduled_malleable: bool = False
        self.was_mate: bool = False
        # Serial number used to invalidate stale end events after
        # reconfiguration.
        self.end_event_serial: int = 0

    # ------------------------------------------------------------------ #
    # Derived request quantities
    # ------------------------------------------------------------------ #
    @property
    def requested_cpus(self) -> int:
        """Total CPUs of the full static allocation."""
        return self.requested_nodes * self.cpus_per_node

    @property
    def min_cpus_per_node(self) -> int:
        """Smallest CPU count per node the job can shrink to.

        The paper assigns a minimum of one computing resource per MPI rank
        (Section 3.3), so a job with ``tasks_per_node`` ranks per node can
        never hold fewer CPUs than that on any of its nodes.
        """
        return max(1, self.tasks_per_node)

    # ------------------------------------------------------------------ #
    # Timing metrics
    # ------------------------------------------------------------------ #
    @property
    def wait_time(self) -> Optional[float]:
        """Seconds spent in the queue, or ``None`` if not yet started."""
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def response_time(self) -> Optional[float]:
        """End minus submit time, or ``None`` if not yet finished."""
        if self.end_time is None:
            return None
        return self.end_time - self.submit_time

    @property
    def actual_runtime(self) -> Optional[float]:
        """Wall-clock execution time, or ``None`` if not yet finished."""
        if self.end_time is None or self.start_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def slowdown(self) -> Optional[float]:
        """Response time normalised by the *static* execution time.

        This follows the paper's definition (Section 4): ``slowdown =
        response_time / static execution time``, i.e. the denominator is the
        runtime the job would have had on its exclusive static allocation,
        not the possibly-dilated malleable runtime.
        """
        if self.end_time is None:
            return None
        return (self.end_time - self.submit_time) / self.static_runtime

    def bounded_slowdown(self, tau: float = 10.0) -> Optional[float]:
        """Bounded slowdown with threshold ``tau`` seconds.

        ``max(1, response / max(static_runtime, tau))`` — the classic
        Feitelson bounded-slowdown metric, provided for completeness of the
        metrics suite (not used by the paper's headline numbers).
        """
        if self.end_time is None:
            return None
        resp = self.end_time - self.submit_time
        return max(1.0, resp / max(self.static_runtime, tau))

    # ------------------------------------------------------------------ #
    # The current configuration: views of the open resource slot
    # ------------------------------------------------------------------ #
    def _open_slot(self) -> Optional[ResourceSlot]:
        history = self.resource_history
        if history and math.isinf(history[-1].end):
            return history[-1]
        return None

    @property
    def assigned_cpus(self) -> Dict[int, int]:
        """``node_id -> CPUs`` of the current configuration (empty when the
        job holds none).  Read it only: :meth:`reconfigure` replaces it."""
        slot = self._open_slot()
        return slot.cpus_per_node if slot is not None else {}

    @property
    def current_speed(self) -> float:
        """Progress rate of the current configuration (0.0 when none)."""
        slot = self._open_slot()
        return slot.speed if slot is not None else 0.0

    def _close_open_slot(self, now: float) -> None:
        slot = self._open_slot()
        if slot is not None:
            self.resource_history[-1] = ResourceSlot(
                start=slot.start, end=now, cpus_per_node=slot.cpus_per_node, speed=slot.speed
            )

    # ------------------------------------------------------------------ #
    # Progress accounting
    # ------------------------------------------------------------------ #
    def advance_progress(self, now: float) -> None:
        """Integrate work done since the last update at the current speed."""
        if self.state is not JobState.RUNNING:
            self.last_progress_update = now
            return
        elapsed = now - self.last_progress_update
        if elapsed < 0:
            raise ValueError(
                f"job {self.job_id}: time went backwards "
                f"({self.last_progress_update} -> {now})"
            )
        self.work_remaining = max(0.0, self.work_remaining - elapsed * self.current_speed)
        self.last_progress_update = now

    def reconfigure(
        self,
        now: float,
        cpus_per_node: Dict[int, int],
        speed: float,
    ) -> None:
        """Switch to a new resource configuration at time ``now``.

        Progress under the previous configuration is integrated first, then
        the open interval of the resource history is closed and a new one is
        opened with the given per-node CPU map and speed.
        """
        if speed < 0:
            raise ValueError(f"job {self.job_id}: negative speed {speed}")
        self.advance_progress(now)
        self._close_open_slot(now)
        self.resource_history.append(
            ResourceSlot(
                start=now, end=math.inf, cpus_per_node=dict(cpus_per_node), speed=float(speed)
            )
        )
        self.allocated_nodes = sorted(cpus_per_node)
        self.end_event_serial += 1

    def predicted_end_time(self, now: Optional[float] = None) -> float:
        """Completion time if the current configuration persists.

        Returns ``inf`` for a running job whose current speed is zero and for
        jobs that have not started.
        """
        if self.state is not JobState.RUNNING:
            return math.inf
        speed = self.current_speed
        ref = self.last_progress_update if now is None else now
        if now is not None and now > self.last_progress_update:
            remaining = max(0.0, self.work_remaining - (now - self.last_progress_update) * speed)
        else:
            remaining = self.work_remaining
        if remaining <= 0:
            return ref
        if speed <= 0:
            return math.inf
        return ref + remaining / speed

    # ------------------------------------------------------------------ #
    # Lifecycle helpers used by the simulation driver
    # ------------------------------------------------------------------ #
    def mark_started(self, now: float) -> None:
        """Transition PENDING -> RUNNING; :meth:`reconfigure` then sets the
        first configuration."""
        if self.state is not JobState.PENDING:
            raise RuntimeError(f"job {self.job_id}: cannot start from state {self.state}")
        self.state = JobState.RUNNING
        self.start_time = now
        self.last_progress_update = now

    def mark_finished(self, now: float) -> None:
        """Transition RUNNING -> COMPLETED and close the resource history."""
        if self.state is not JobState.RUNNING:
            raise RuntimeError(f"job {self.job_id}: cannot finish from state {self.state}")
        self.advance_progress(now)
        self.state = JobState.COMPLETED
        self.end_time = now
        self._close_open_slot(now)

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job(id={self.job_id}, state={self.state.value}, "
            f"nodes={self.requested_nodes}, req_time={self.requested_time}, "
            f"runtime={self.static_runtime}, malleable={self.malleable})"
        )
