"""UB-Policy: Uberun-style contention-aware malleable co-scheduling.

UB-Policy keeps SD-Policy's slowdown-driven skeleton (Listing 1: static
estimate vs malleable estimate, mate selection, shrink + start) but
allocates from per-application profiles (:mod:`repro.core.profiles`)
through a :class:`repro.core.contention.ContentionModel`:

* candidate mates are ordered complementarity-first — a compute-bound mate
  is preferred over an equally-penalised memory-bound one, because the
  guest will suffer less interference next to it;
* pairings whose combined memory-bandwidth demand oversubscribes a node are
  refused outright, both at candidate construction and again for every
  per-node CPU split (``plan_node_sharing``'s capacity check);
* a refusal caused by the capacity check is reported as a ``mate_rejected``
  trace event with the typed reason ``"bandwidth"`` and counted in
  ``stats()["rejected_bandwidth"]``.

This mirrors Uberun's admission rule (refuse co-schedules that oversubscribe
memory bandwidth; pair complementary applications) on top of the paper's
malleability machinery, so the two philosophies can be compared head-to-head
in the ``policy_faceoff`` scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.contention import DEFAULT_NODE_BANDWIDTH_CAPACITY, ContentionModel
from repro.core.sd_policy import SDPolicyConfig, SDPolicyScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.simulation import Simulation


@dataclass
class UBPolicyConfig(SDPolicyConfig):
    """Tunable parameters of UB-Policy (SD-Policy's knobs plus contention).

    Attributes
    ----------
    node_bandwidth_capacity:
        Per-node bandwidth budget the admission check enforces (in units of
        one fully memory-bound application's demand).
    profiles:
        Named profile set (:data:`repro.core.profiles.PROFILE_SETS`) the
        policy allocates from; ``"uniform"`` neutralises all
        profile-driven behaviour and reduces UB-Policy to SD-Policy.
    """

    node_bandwidth_capacity: float = DEFAULT_NODE_BANDWIDTH_CAPACITY
    profiles: str = "table2"

    def build_contention(self) -> ContentionModel:
        """Contention model the selector and sharing planner consult."""
        return ContentionModel(
            node_bandwidth_capacity=self.node_bandwidth_capacity, profiles=self.profiles
        )


class UBPolicyScheduler(SDPolicyScheduler):
    """Uberun-style profile-driven malleable backfill (UB-Policy)."""

    def __init__(self, config: Optional[UBPolicyConfig] = None) -> None:
        super().__init__(config or UBPolicyConfig())
        self.name = (
            f"ub_policy[{self.cutoff.label},SF={self.config.sharing_factor:g},"
            f"BW={self.config.node_bandwidth_capacity:g}]"
        )
        self.rejected_bandwidth = 0

    def bind(self, sim: "Simulation") -> None:
        super().bind(sim)
        self.rejected_bandwidth = 0

    def _no_selection_reason(self) -> str:
        """Refine the rejection reason when the capacity check did the work.

        If the selector dropped at least one otherwise-eligible candidate
        for oversubscribing a node's bandwidth and still found no selection,
        the refusal is an Uberun-style admission decision, not a lack of
        mates — report it as such.
        """
        if self.selector.bandwidth_rejections > 0:
            self.rejected_bandwidth += 1
            return "bandwidth"
        return "no_mates"

    def stats(self) -> Dict[str, int]:
        stats = dict(super().stats())
        stats["rejected_bandwidth"] = self.rejected_bandwidth
        return stats
