"""Energy accounting (the Figure 9 energy metric).

The paper reports the energy consumed to run the whole workload, as
measured by the system software of MareNostrum4, and shows a ~6% reduction
under SD-Policy driven by better node utilisation and a shorter makespan.

In the reproduction energy is integrated from a node power model.  The
default is the standard linear model

    P_node(u) = P_idle + (P_peak − P_idle) · u

with ``u`` the fraction of the node's CPUs doing useful work.  The
simulator integrates it online from assigned CPUs
(:meth:`repro.metrics.streaming.StreamingMetrics.energy_joules`);
:func:`repro.realrun.energy.real_run_energy` recomputes it from a run's
record rows for the real-run emulation, weighting each job's CPU-seconds
by its application's CPU utilisation (:mod:`repro.core.profiles`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LinearPowerModel:
    """Linear node power model, in watts.

    Default figures approximate a two-socket Xeon Platinum 8160 node
    (MareNostrum4): ~120 W idle, ~400 W at full load.  Absolute values only
    scale the energy numbers; the relative savings the paper reports depend
    on the idle/peak *ratio*, which is the realistic part of the model.
    """

    idle_watts: float = 120.0
    peak_watts: float = 400.0

    def __post_init__(self) -> None:
        if self.peak_watts < self.idle_watts:
            raise ValueError("peak_watts must be >= idle_watts")
        if self.idle_watts < 0:
            raise ValueError("idle_watts must be non-negative")
