"""Runtime models for malleable jobs (Section 3.4 of the paper).

The paper partitions a job's execution into time slots ``t``, one per
resource configuration, and estimates the runtime *increase* caused by
running with fewer CPUs than the static request:

* **Ideal model** (Eq. 5) — the application redistributes its load
  perfectly, so progress is proportional to the *total* number of assigned
  CPUs: ``increase = Σ_t (req_cpus / used_cpus_t) · time_t − Σ_t time_t``
  (expressed here through the equivalent *speed* formulation).
* **Worst-case model** (Eq. 6) — the application is statically balanced, so
  progress is limited by the node on which it holds the fewest CPUs:
  the per-slot speed is ``min_n(cpus_per_node_n) / (req_cpus / req_nodes)``.

Both models implement ``speed(job, cpus_per_node)``: the relative
progress rate of a configuration (1.0 = full static allocation), which the
simulation driver integrates to execute malleable jobs.

The SD-Policy scheduler estimates at decision time with two closed forms,
:func:`dilated_runtime` and :func:`mate_increase` (Listing 1 computes
``mall_end = req_time + runtime_increase``).  The paper takes them from the
worst-case model (to guarantee correct completion estimates); for the
uniform shrink SD-Policy applies the two models coincide, so the estimates
depend on no model.  Both models are evaluated in the simulator (Figure 8).
"""

from __future__ import annotations

import abc
import math
from typing import Mapping, Sequence

from repro.simulator.job import Job, ResourceSlot


class RuntimeModel(abc.ABC):
    """Common interface of the ideal and worst-case runtime models."""

    #: Short name used in reports ("ideal" / "worst_case").
    name: str = "abstract"

    #: Contention model consulted by contention-aware subclasses (see
    #: :mod:`repro.core.contention`).  ``None`` — the default for the
    #: ideal/worst-case models — is the no-contention path: speeds depend
    #: only on the CPU allocation, never on co-runners, which keeps every
    #: legacy golden byte-identical.
    contention = None

    @abc.abstractmethod
    def speed(self, job: Job, cpus_per_node: Mapping[int, int]) -> float:
        """Relative progress rate (1.0 = static allocation) of a configuration."""


class IdealRuntimeModel(RuntimeModel):
    """Eq. 5 — load perfectly rebalanced over the assigned CPUs."""

    name = "ideal"

    def speed(self, job: Job, cpus_per_node: Mapping[int, int]) -> float:
        if not cpus_per_node:
            return 0.0
        total = sum(cpus_per_node.values())
        return min(1.0, total / job.requested_cpus)


class WorstCaseRuntimeModel(RuntimeModel):
    """Eq. 6 — statically balanced job limited by its most-shrunk node.

    The speed is additionally capped by the ideal (total-CPU) speed so the
    worst-case model can never be *faster* than the ideal one, even for
    degenerate allocations covering fewer nodes than the request (which the
    scheduler never produces, but tests and external callers may).
    """

    name = "worst_case"

    def speed(self, job: Job, cpus_per_node: Mapping[int, int]) -> float:
        if not cpus_per_node:
            return 0.0
        per_node_request = job.requested_cpus / max(1, job.requested_nodes)
        if per_node_request <= 0:
            return 1.0
        ideal_cap = sum(cpus_per_node.values()) / job.requested_cpus
        worst = min(cpus_per_node.values()) / per_node_request
        return min(1.0, worst, ideal_cap)


def dilated_runtime(base_runtime: float, fraction: float) -> float:
    """Runtime of a job that keeps ``fraction`` of its request throughout.

    For a *uniform* shrink (the SD-Policy case: the same SharingFactor is
    applied on every node) the ideal and worst-case models coincide:
    running with fraction ``f`` of the CPUs takes ``base / f``.
    """
    if fraction <= 0:
        return math.inf
    return base_runtime / min(1.0, fraction)


def mate_increase(shared_duration: float, kept_fraction: float) -> float:
    """Runtime increase of a *mate* shrunk to ``kept_fraction`` of its
    request for ``shared_duration`` seconds and then expanded back.

    While shrunk the mate progresses at ``kept_fraction``; the work it
    falls behind by, ``shared_duration · (1 − kept_fraction)``, is then
    recovered at full speed after the guest leaves, which is exactly the
    increase in its completion time.
    """
    if shared_duration < 0:
        raise ValueError("shared_duration must be non-negative")
    kept = min(1.0, max(0.0, kept_fraction))
    return shared_duration * (1.0 - kept)


def runtime_increase_from_history(
    job: Job,
    history: Sequence[ResourceSlot] | None = None,
    model: RuntimeModel | None = None,
) -> float:
    """Runtime increase of a finished job computed from its resource history.

    This is the literal form of Eq. 5/6: the job's actual wall-clock runtime
    minus the runtime it would have had on its static allocation, recomputed
    from the recorded per-slot configurations.  Used by the analysis layer
    and by tests that cross-check the simulator's progress integration
    against the closed-form equations.
    """
    slots = list(history if history is not None else job.resource_history)
    if not slots:
        return 0.0
    wall = 0.0
    work = 0.0
    for slot in slots:
        duration = slot.duration
        if not math.isfinite(duration):
            continue
        wall += duration
        if model is None:
            speed = slot.speed
        else:
            speed = model.speed(job, slot.cpus_per_node)
        work += duration * speed
    if work <= 0:
        return 0.0
    # ``work`` is measured in static seconds; the static runtime of that
    # amount of work is ``work`` itself, so the increase is wall − work.
    return max(0.0, wall - work)


#: Canonical model names and their accepted aliases (for lookups and for
#: the error message naming the candidates).
MODEL_ALIASES = {
    "ideal": ("ideal", "eq5"),
    "worst_case": ("worst_case", "worst", "eq6"),
    "application_aware": ("application_aware", "app_aware", "contention"),
}


def canonical_model_name(name: str) -> str:
    """The canonical name behind a runtime-model name or alias, in any case.

    An unknown name comes back unchanged, for :func:`get_model` to reject.
    """
    key = name.lower()
    for canonical, aliases in MODEL_ALIASES.items():
        if key in aliases:
            return canonical
    return name


def get_model(name: str) -> RuntimeModel:
    """Look up a runtime model by canonical name or alias.

    Raises a ``ValueError`` (``ScenarioError``-compatible: scenario loading
    catches it) that names every available model, so a typo in a spec or on
    the CLI points straight at the valid choices.
    """
    canonical = canonical_model_name(name)
    if canonical == "ideal":
        return IdealRuntimeModel()
    if canonical == "worst_case":
        return WorstCaseRuntimeModel()
    if canonical == "application_aware":
        # Local import: the contention module itself imports this one.
        from repro.core.contention import ApplicationAwareRuntimeModel

        return ApplicationAwareRuntimeModel()
    candidates = "; ".join(
        f"{canonical} (aliases: {', '.join(a for a in aliases if a != canonical)})"
        for canonical, aliases in sorted(MODEL_ALIASES.items())
    )
    raise ValueError(
        f"unknown runtime model {name!r}; available: {candidates}"
    )
