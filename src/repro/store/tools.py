"""Age-based store maintenance behind ``repro-sdpolicy store prune``.

``prune`` clears quarantined entries, then runs :func:`repro.store.lifecycle.gc`
with the age cutoff as its grace period: blobs older than the cutoff go,
never ones a shard manifest still references, and so does stale ``*.tmp``
debris.  Only the :class:`repro.store.base.ResultStore` protocol is used,
so it works on every backend.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.store.base import ResultStore
from repro.store.lifecycle import gc

_AGE_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([smhdw]?)\s*$", re.IGNORECASE)

_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def parse_age(value: str) -> float:
    """Parse a human age (``90s``, ``45m``, ``12h``, ``30d``, ``2w``) to seconds.

    A bare number means days — ``--older-than 30`` is thirty days, the
    natural unit for cache retention.
    """
    match = _AGE_RE.match(str(value))
    if not match:
        raise ValueError(
            f"invalid age {value!r}: expected <number>[s|m|h|d|w], e.g. 30d"
        )
    number, unit = match.groups()
    return float(number) * _AGE_UNITS[unit.lower() or "d"]


@dataclass
class PruneStats:
    """Outcome of one :func:`prune` call."""

    blobs_removed: int = 0
    blob_bytes_freed: int = 0
    quarantined_removed: int = 0
    kept: int = 0
    kept_referenced: int = 0


def prune(
    store: ResultStore,
    older_than_seconds: float,
    now: Optional[float] = None,
    dry_run: bool = False,
) -> PruneStats:
    """Clear quarantined entries, then delete *unreferenced* blobs older
    than the cutoff.

    The blob pass is :func:`~repro.store.lifecycle.gc` with
    ``grace_seconds=older_than_seconds``, so blobs a shard manifest still
    references are never evicted, whatever their age — deleting one would
    break the sweep's ``merge``/resume — and stale ``*.tmp`` debris is
    swept too.  An *unreadable* manifest therefore aborts the blob pass
    with :class:`~repro.store.base.StoreError` (pruning must not guess
    what it was pinning); quarantined entries — corrupt by definition,
    removed regardless of age and independent of any reference — are
    cleared first, so that cleanup still happens.  Manifests are left
    alone: they are tiny, and deleting a manifest is the deliberate act
    that releases its blobs.
    """
    quarantined = store.list_quarantined()
    if not dry_run:
        for key in quarantined:
            store.delete_quarantined(key)
    swept = gc(store, grace_seconds=older_than_seconds, now=now, dry_run=dry_run)
    return PruneStats(
        blobs_removed=swept.blobs_deleted,
        blob_bytes_freed=swept.blob_bytes_freed,
        quarantined_removed=len(quarantined),
        kept=swept.kept_young,
        kept_referenced=swept.kept_referenced,
    )
