"""Slowdown penalties and the MAX_SLOWDOWN cut-off (Section 3.2.2).

Every candidate *mate* — a running job that could be shrunk to make room for
a new malleable job — receives a penalty equal to its estimated slowdown
after the shrink (Eq. 4):

    p_i = (wait_time + increase + req_time) / req_time

where ``increase`` is the estimated runtime increase caused by hosting the
guest, computed with the worst-case runtime model.  Mates whose penalty
exceeds the ``MAX_SLOWDOWN`` cut-off ``P`` are excluded (constraint 2) —
both to bound the combinatorial search and to avoid penalising jobs whose
slowdown is already high.

The paper evaluates two cut-off flavours (Section 3.2.2, Figures 1–3):

* a **static** value chosen by the administrator (MAXSD 5 / 10 / 50 / ∞);
* a **dynamic** value — the current average predicted slowdown of the
  running jobs (``DynAVGSD``), refreshed whenever the controller is idle
  (here: at the start of every scheduling pass).
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING, Union

from repro.simulator.job import Job, JobState

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.simulation import Simulation


def predicted_running_slowdown(job: Job) -> float:
    """Predicted slowdown of a *running* job: ``(wait + req_time) / req_time``.

    Requested times are the only information a real scheduler has; with
    exact runtimes (the paper's Workload 2, where the requested time equals
    the real duration) the same expression is exact.
    """
    if job.start_time is None:
        raise ValueError(f"job {job.job_id} has not started")
    wait = job.start_time - job.submit_time
    return (wait + job.requested_time) / job.requested_time


def mate_penalty(mate: Job, increase: float) -> float:
    """Eq. 4: estimated slowdown of a mate after applying malleability.

    Parameters
    ----------
    mate:
        The running candidate mate.
    increase:
        Estimated increase of its runtime caused by the shrink (seconds).
    """
    if mate.start_time is None:
        raise ValueError(f"mate {mate.job_id} has not started")
    if increase < 0:
        raise ValueError("increase must be non-negative")
    wait = mate.start_time - mate.submit_time
    req = mate.requested_time
    return (wait + increase + req) / req


class MaxSlowdownCutoff(abc.ABC):
    """Abstract MAX_SLOWDOWN cut-off ``P`` (constraint 2)."""

    #: Label used in experiment reports ("MAXSD 10", "DynAVGSD", ...).
    label: str = "abstract"

    def update(self, sim: "Simulation") -> None:
        """Refresh the cut-off from system state (no-op for static values)."""

    @abc.abstractmethod
    def threshold(self) -> float:
        """Current cut-off value; mates with penalty >= threshold are excluded."""

    def admits(self, penalty: float) -> bool:
        """True when a mate with the given penalty may be selected."""
        return penalty < self.threshold()


def parse_max_slowdown(value: Union[float, str]) -> Union[float, str]:
    """The MAX_SLOWDOWN a number, its text or a spelling below names:
    ``"dynamic"`` (DynAVGSD) or a float (``math.inf`` for MAXSD infinite).
    Raises ``ValueError`` for anything else, ``bool`` included; positivity
    is :class:`StaticMaxSlowdown`'s check."""
    key = value.lower() if isinstance(value, str) else value
    if key in ("dynamic", "dynavgsd", "dyn", "avg"):
        return "dynamic"
    if key in ("inf", "+inf", "infinite", "infinity"):
        return math.inf
    if isinstance(key, (int, float, str)) and not isinstance(key, bool):
        try:
            return float(key)
        except ValueError:
            pass
    raise ValueError(f"unknown max_slowdown spec {value!r}")


class StaticMaxSlowdown(MaxSlowdownCutoff):
    """Administrator-chosen static cut-off (``MAXSD <value>``).

    ``value=math.inf`` reproduces the paper's "MAXSD infinite" setting where
    no mate is filtered by slowdown.
    """

    def __init__(self, value: float) -> None:
        if not value > 0:  # also refuses NaN
            raise ValueError("MAX_SLOWDOWN must be positive")
        self.value = float(value)
        self.label = "MAXSD inf" if math.isinf(self.value) else f"MAXSD {value:g}"

    def threshold(self) -> float:
        return self.value


class DynamicAverageMaxSlowdown(MaxSlowdownCutoff):
    """Dynamic cut-off: average predicted slowdown of the running jobs.

    Jobs whose predicted slowdown already exceeds the running-set average are
    not considered for malleability, spreading the slowdown evenly across
    running jobs (Section 3.2.2, option 2 — ``DynAVGSD``).  The threshold
    never falls below 1.0, a running job's minimum possible slowdown, so
    the policy is never completely disabled.
    """

    label = "DynAVGSD"

    def __init__(self) -> None:
        self._value = math.inf

    def update(self, sim: "Simulation") -> None:
        running = [j for j in sim.running.values() if j.state is JobState.RUNNING]
        if not running:
            self._value = math.inf
            return
        total = 0.0
        for job in running:
            total += predicted_running_slowdown(job)
        self._value = max(1.0, total / len(running))

    def threshold(self) -> float:
        return self._value
