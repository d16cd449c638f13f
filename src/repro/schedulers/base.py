"""Scheduler interface.

A scheduler is the simulator-side equivalent of the SLURM controller
(``slurmctld``) plug-ins the paper modifies.  The simulation driver invokes
:meth:`Scheduler.schedule` once per event instant (after submissions and
completions at that instant have been processed) and the two optional hooks
on individual submit/end events.

Malleable co-scheduling policies (SD-Policy, UB-Policy) extend
:class:`repro.schedulers.backfill.BackfillScheduler`, whose
``try_malleable_start`` and ``schedule_when_saturated`` they override; the
registry in :mod:`repro.core.policy` resolves policy names to instances.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.simulator.job import Job
    from repro.simulator.simulation import Simulation


class Scheduler(abc.ABC):
    """Abstract scheduling policy."""

    #: Human-readable policy name used in results and reports.
    name: str = "abstract"

    def bind(self, sim: "Simulation") -> None:
        """Called once when the scheduler is attached to a simulation.

        Policies that keep per-run state (e.g. the dynamic MAX_SLOWDOWN
        cut-off) reset it here so a scheduler instance can be reused across
        runs.
        """

    def on_job_submit(self, sim: "Simulation", job: "Job") -> None:
        """Hook invoked when a job enters the pending queue."""

    def on_job_end(self, sim: "Simulation", job: "Job") -> None:
        """Hook invoked when a job finishes (resources already released)."""

    @abc.abstractmethod
    def schedule(self, sim: "Simulation") -> None:
        """Run one scheduling pass over the pending queue."""
