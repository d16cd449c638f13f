"""The co-scheduling policy family built around the paper's SD-Policy.

The package implements the three layers described in Section 3 of the
paper, plus the profile/contention layer that turns them into a pluggable
policy family:

* the *scheduling level* (:mod:`repro.core.sd_policy`,
  :mod:`repro.core.ub_policy`, :mod:`repro.core.policy`) — the malleable
  backfill variant of Listing 1, the Uberun-style contention-aware
  UB-Policy, and the policy registry that makes the family pluggable;
* the *resource selection level* (:mod:`repro.core.mate_selection`,
  :mod:`repro.core.penalties`) — the slowdown-penalty-driven mate selection
  heuristic of Listing 2 and Eq. 1–4, with the static and dynamic
  ``MAX_SLOWDOWN`` cut-offs;
* the shared *runtime models* (:mod:`repro.core.runtime_model`) — the
  ideal (Eq. 5) and worst-case (Eq. 6) models that simulate malleable
  execution, and the closed-form worst-case estimates SD-Policy decides
  with; the
  :mod:`repro.core.sharing` rules that decide how a node's CPUs are split
  between a shrunk mate and a co-scheduled guest (``SharingFactor``); and
  the application profiles (:mod:`repro.core.profiles`) and
  memory-bandwidth contention model (:mod:`repro.core.contention`) that
  profile-aware policies and the application-aware runtime model consult.
"""

from repro.core.contention import (
    DEFAULT_CONTENTION_COEFFICIENT,
    DEFAULT_NODE_BANDWIDTH_CAPACITY,
    ApplicationAwareRuntimeModel,
    ContentionModel,
    co_run_slowdown,
)
from repro.core.mate_selection import MateSelection, MateSelector
from repro.core.penalties import (
    DynamicAverageMaxSlowdown,
    MaxSlowdownCutoff,
    StaticMaxSlowdown,
    mate_penalty,
)
from repro.core.policy import (
    available_policies,
    make_policy,
    register_policy,
    resolve_policy_name,
)
from repro.core.profiles import (
    APPLICATIONS,
    DEFAULT_APPLICATION,
    PROFILE_SCHEMA_VERSION,
    PROFILE_SETS,
    ApplicationModel,
    get_application,
    get_profile_set,
)
from repro.core.runtime_model import (
    IdealRuntimeModel,
    RuntimeModel,
    WorstCaseRuntimeModel,
    runtime_increase_from_history,
)
from repro.core.sd_policy import SDPolicyConfig, SDPolicyScheduler
from repro.core.sharing import SharingPlan, plan_node_sharing
from repro.core.ub_policy import UBPolicyConfig, UBPolicyScheduler

__all__ = [
    "APPLICATIONS",
    "ApplicationAwareRuntimeModel",
    "ApplicationModel",
    "ContentionModel",
    "DEFAULT_APPLICATION",
    "DEFAULT_CONTENTION_COEFFICIENT",
    "DEFAULT_NODE_BANDWIDTH_CAPACITY",
    "DynamicAverageMaxSlowdown",
    "IdealRuntimeModel",
    "MateSelection",
    "MateSelector",
    "MaxSlowdownCutoff",
    "PROFILE_SCHEMA_VERSION",
    "PROFILE_SETS",
    "RuntimeModel",
    "SDPolicyConfig",
    "SDPolicyScheduler",
    "SharingPlan",
    "StaticMaxSlowdown",
    "UBPolicyConfig",
    "UBPolicyScheduler",
    "WorstCaseRuntimeModel",
    "available_policies",
    "co_run_slowdown",
    "get_application",
    "get_profile_set",
    "make_policy",
    "mate_penalty",
    "plan_node_sharing",
    "register_policy",
    "resolve_policy_name",
    "runtime_increase_from_history",
]
