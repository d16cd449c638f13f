"""The co-scheduling policy family: the policy registry.

The registry maps policy names (and their historical aliases) to factories,
so ``run_workload``, scenario specs and the CLI resolve ``--policy`` through
one table; unknown names raise a ``ValueError`` (``ScenarioError``-
compatible) naming every available policy.  Register your own policy with::

    from repro.core.policy import register_policy

    register_policy("my_policy", lambda **kw: MyScheduler(**kw),
                    aliases=("mine",))

and it becomes selectable everywhere a policy name is accepted, including
``ScenarioSpec`` grids and the ``policy_faceoff`` scenario.

Factories import their scheduler classes lazily so this module stays free
of import cycles (the scheduler classes themselves import core modules).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Sequence, Tuple

# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
_FACTORIES: Dict[str, Callable[..., Any]] = {}
_ALIASES: Dict[str, str] = {}
#: Canonical names of policies that accept a ``profiles`` keyword (profile
#: set selection); ``run_workload`` uses this to forward ``--profiles``.
_PROFILE_AWARE: set = set()


def register_policy(
    name: str,
    factory: Callable[..., Any],
    aliases: Sequence[str] = (),
    accepts_profiles: bool = False,
) -> None:
    """Register a policy factory under a canonical name plus aliases.

    The factory receives the policy keyword arguments of ``run_workload``
    and must return a scheduler instance.  Re-registering a name replaces
    the previous factory (latest wins), so tests can shadow built-ins.
    """
    canonical = name.lower()
    _FACTORIES[canonical] = factory
    _ALIASES[canonical] = canonical
    for alias in aliases:
        _ALIASES[alias.lower()] = canonical
    if accepts_profiles:
        _PROFILE_AWARE.add(canonical)


def available_policies() -> Tuple[str, ...]:
    """Sorted canonical names of every registered policy."""
    return tuple(sorted(_FACTORIES))


def resolve_policy_name(name: str) -> str:
    """Canonical name for a policy name or alias, with a naming error."""
    canonical = _ALIASES.get(name.lower())
    if canonical is None:
        raise ValueError(
            f"unknown policy {name!r}; available: "
            + ", ".join(available_policies())
        )
    return canonical


def policy_accepts_profiles(name: str) -> bool:
    """Whether the named policy takes a ``profiles`` keyword argument."""
    return resolve_policy_name(name) in _PROFILE_AWARE


def make_policy(name: str, **kwargs: Any) -> Any:
    """Instantiate a registered policy by name or alias."""
    return _FACTORIES[resolve_policy_name(name)](**kwargs)


# --------------------------------------------------------------------- #
# Built-in family (lazy imports keep the module cycle-free)
# --------------------------------------------------------------------- #
def _make_fcfs(**kwargs: Any) -> Any:
    from repro.schedulers.fcfs import FCFSScheduler

    # FCFS has no options; stray kwargs are ignored (historical behaviour,
    # which lets one sweep grid drive policies with different knobs).
    return FCFSScheduler()


def _make_backfill(**kwargs: Any) -> Any:
    from repro.schedulers.backfill import BackfillScheduler

    return BackfillScheduler(**kwargs)


def _make_sd_policy(**kwargs: Any) -> Any:
    from repro.core.sd_policy import SDPolicyConfig, SDPolicyScheduler

    return SDPolicyScheduler(SDPolicyConfig(**kwargs))


def _make_ub_policy(**kwargs: Any) -> Any:
    from repro.core.ub_policy import UBPolicyConfig, UBPolicyScheduler

    return UBPolicyScheduler(UBPolicyConfig(**kwargs))


register_policy("fcfs", _make_fcfs)
register_policy("static_backfill", _make_backfill, aliases=("backfill", "static"))
register_policy("sd_policy", _make_sd_policy, aliases=("sd", "sdpolicy"))
register_policy(
    "ub_policy",
    _make_ub_policy,
    aliases=("ub", "ubpolicy", "uberun"),
    accepts_profiles=True,
)
