"""Store lifecycle: blob integrity envelopes, manifest-aware gc, verify, repair.

The sweep cache has no intrinsic notion of "still needed": blobs are
content-addressed and shard manifests (:mod:`repro.experiments.executors`)
are the only record of which blobs a resumable ``sweep merge`` still
depends on.  This module is the lifecycle layer on top of the
:class:`~repro.store.base.ResultStore` protocol:

* **Envelopes** — :func:`wrap_blob`/:func:`unwrap_blob` frame a cache
  payload with a versioned header carrying a SHA-256 content digest, so a
  truncated or bit-rotted blob is detected on every read instead of
  silently skewing a reproduced figure.  A blob without the envelope is
  corrupt: reads quarantine and recompute it, and verify reports it.
* **References** — :func:`collect_references` walks every shard manifest
  in a store (format v2 records already carry ``cache_key``; v3 adds the
  blob ``digest``) and returns the *live* blob set.
* **gc** — :func:`gc` deletes only blobs no manifest references, with a
  ``grace`` age floor protecting in-flight writes, and sweeps ``*.tmp``
  debris a crashed atomic write left behind.  Unlike ``prune`` it trusts
  manifests, not age: blobs of purely unsharded sweeps (which write no
  manifest) count as unreferenced, so use ``prune`` for age-based
  retention of those.
* **verify** — :func:`verify` re-hashes every blob, quarantines envelope
  mismatches, and reports drift between stored blobs and the digests shard
  manifests recorded (informational: a legitimately recomputed blob may
  differ byte-wise through nondeterministic timing fields).
* **repair** — :func:`repair` re-fetches quarantined blobs from a mirror
  store, verifies their integrity, and republishes them.

Everything here is backend-agnostic; like :mod:`repro.store.tools` this is
a friend module of :mod:`repro.store.base` and may use the object-name
primitives directly (the temp-debris sweep has no blob-level spelling).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.store.base import BLOB_SUFFIX, TMP_SUFFIX, ResultStore

#: Leading bytes of an enveloped blob.  Pickles start with ``\x80``, so a
#: bare payload can never be mistaken for an envelope.
ENVELOPE_MAGIC = b"repro-blob/"

#: Bump when the envelope *header* layout changes.  The header is
#: self-describing (``repro-blob/<version> …``), so readers reject
#: envelopes from the future instead of misparsing them.
ENVELOPE_VERSION = 1


class BlobIntegrityError(ValueError):
    """An enveloped blob failed its integrity check (digest/size/header).

    Deliberately *not* a :class:`~repro.store.base.StoreError`: transport
    failures must propagate out of cache probes, while integrity failures
    mean the bytes arrived fine but are wrong — the caller quarantines
    them like any other corrupt entry.
    """


def blob_digest(payload: bytes) -> str:
    """SHA-256 content digest (hex) of an unwrapped blob payload."""
    return hashlib.sha256(payload).hexdigest()


def wrap_blob(payload: bytes) -> Tuple[bytes, str]:
    """Frame a payload in the integrity envelope; returns ``(blob, digest)``.

    Layout: one ASCII header line —
    ``repro-blob/1 sha256=<hex> size=<bytes>\\n`` — followed by the raw
    payload.  The recorded size detects truncation even when the torn tail
    happens to re-hash consistently (it cannot, but the check is free and
    fails faster).
    """
    digest = blob_digest(payload)
    header = f"repro-blob/{ENVELOPE_VERSION} sha256={digest} size={len(payload)}\n"
    return header.encode("ascii") + payload, digest


def unwrap_blob(data: bytes) -> Tuple[bytes, str]:
    """Unframe a blob; returns ``(payload, digest)`` — digest verified.

    The recorded size and SHA-256 are checked against the actual payload,
    and :class:`BlobIntegrityError` is raised on any mismatch, truncation,
    unparsable/future header, or a blob without the envelope at all.
    """
    if not data.startswith(ENVELOPE_MAGIC):
        raise BlobIntegrityError(
            f"blob has no {ENVELOPE_MAGIC.decode()}{ENVELOPE_VERSION} integrity "
            "envelope (written before envelopes existed, or not a cache blob)"
        )
    newline = data.find(b"\n")
    if newline < 0:
        raise BlobIntegrityError("truncated blob envelope: no header terminator")
    try:
        header = data[:newline].decode("ascii")
    except UnicodeDecodeError as exc:
        raise BlobIntegrityError(f"undecodable blob envelope header: {exc}") from exc
    fields = header.split()
    version_text = fields[0][len(ENVELOPE_MAGIC) :]
    try:
        version = int(version_text)
    except ValueError as exc:
        raise BlobIntegrityError(
            f"unparsable blob envelope version {version_text!r}"
        ) from exc
    if version != ENVELOPE_VERSION:
        raise BlobIntegrityError(
            f"blob envelope version {version} is not supported "
            f"(this build reads version {ENVELOPE_VERSION})"
        )
    attrs = dict(
        part.split("=", 1) for part in fields[1:] if "=" in part
    )
    digest = attrs.get("sha256", "")
    if len(digest) != 64:
        raise BlobIntegrityError(f"blob envelope carries no sha256 digest: {header!r}")
    payload = data[newline + 1 :]
    size_text = attrs.get("size")
    if size_text is not None:
        try:
            size = int(size_text)
        except ValueError as exc:
            raise BlobIntegrityError(
                f"unparsable blob envelope size {size_text!r}"
            ) from exc
        if size != len(payload):
            raise BlobIntegrityError(
                f"blob truncated: envelope records {size} payload bytes, "
                f"got {len(payload)}"
            )
    actual = blob_digest(payload)
    if actual != digest:
        raise BlobIntegrityError(
            f"blob digest mismatch: envelope records sha256 {digest}, "
            f"payload hashes to {actual}"
        )
    return payload, digest


# --------------------------------------------------------------------- #
# Manifest reference tracking
# --------------------------------------------------------------------- #
@dataclass
class ManifestReferences:
    """The live blob set one store's shard manifests pin.

    ``digests`` maps a referenced cache key to the blob digest the
    owning manifest recorded (v3 manifests only); ``manifests`` counts the
    shard manifests walked (documents without a task list — not shard
    manifests — contribute no references and are not counted).
    """

    live_keys: Set[str] = field(default_factory=set)
    digests: Dict[str, str] = field(default_factory=dict)
    manifests: int = 0


def collect_references(store: ResultStore) -> ManifestReferences:
    """Walk every shard manifest of ``store`` and return the live blob set.

    An unreadable manifest raises :class:`StoreError` — a lifecycle
    operation must not guess which blobs a manifest it cannot parse was
    pinning.  Delete the bad manifest (``delete_manifest``) to proceed.
    """
    refs = ManifestReferences()
    for name in store.list_manifests():
        manifest = store.read_manifest(name)  # StoreError on bad JSON
        if manifest is None:  # deleted between list and read
            continue
        tasks = manifest.get("tasks")
        if not isinstance(tasks, list):
            continue  # not a shard manifest: pins nothing
        refs.manifests += 1
        for record in tasks:
            if not isinstance(record, dict):
                continue
            key = record.get("cache_key")
            if not isinstance(key, str) or not key:
                continue
            refs.live_keys.add(key)
            digest = record.get("digest")
            if isinstance(digest, str) and digest:
                refs.digests[key] = digest
    return refs


# --------------------------------------------------------------------- #
# gc
# --------------------------------------------------------------------- #
@dataclass
class GCStats:
    """Outcome of one :func:`gc` call."""

    blobs_deleted: int = 0
    blob_bytes_freed: int = 0
    kept_referenced: int = 0
    kept_young: int = 0
    unknown_age: int = 0
    temp_deleted: int = 0
    manifests_walked: int = 0


#: Default gc/--grace age floor: young enough to protect a sweep that
#: published a blob but has not yet (re)written its manifest.
DEFAULT_GRACE_SECONDS = 3600.0


def gc(
    store: ResultStore,
    grace_seconds: float = DEFAULT_GRACE_SECONDS,
    now: Optional[float] = None,
    dry_run: bool = False,
) -> GCStats:
    """Delete blobs no shard manifest references, plus stale temp debris.

    Manifest-referenced blobs are never deleted, whatever their age — a
    half-finished sharded sweep keeps every completed result until its
    manifests are deleted.  Unreferenced blobs younger than
    ``grace_seconds`` are kept (a racing sweep publishes the blob before
    the manifest naming it), as are blobs whose age the backend cannot
    report.  Stray ``*.tmp`` objects from crashed atomic writes are swept
    once they are older than the grace period.  Quarantined entries are
    corruption *evidence* and left alone (``prune`` clears them).
    """
    if grace_seconds < 0:
        raise ValueError(f"grace_seconds must be >= 0, got {grace_seconds}")
    refs = collect_references(store)
    cutoff = (time.time() if now is None else now) - grace_seconds
    stats = GCStats(manifests_walked=refs.manifests)
    # One bulk enumeration feeds both the blob and the temp-debris pass —
    # on the HTTP backend a second full paginated listing would double the
    # round-trips the _entries() API exists to avoid.
    for name, stat in store._entries():
        if name.endswith(BLOB_SUFFIX) and "/" not in name:
            key = name[: -len(BLOB_SUFFIX)]
            if key in refs.live_keys:
                stats.kept_referenced += 1
                continue
            if stat is None or stat.mtime is None:
                stats.unknown_age += 1
                continue
            if stat.mtime >= cutoff:
                stats.kept_young += 1
                continue
            if not dry_run:
                store.delete(key)
            stats.blobs_deleted += 1
            stats.blob_bytes_freed += stat.size or 0
        elif name.endswith(TMP_SUFFIX):
            if stat is None or stat.mtime is None or stat.mtime >= cutoff:
                continue
            if not dry_run:
                store._delete(name)
            stats.temp_deleted += 1
    return stats


# --------------------------------------------------------------------- #
# verify
# --------------------------------------------------------------------- #
@dataclass
class VerifyReport:
    """Outcome of one :func:`verify` pass (machine-readable via ``as_dict``).

    ``corrupt`` entries failed their own envelope check and were
    quarantined (unless ``dry_run``); ``drift`` entries verify against
    their envelope but differ from the digest a shard manifest recorded
    (informational — a re-computed blob legitimately differs through its
    embedded timing field); ``missing_referenced`` are manifest-pinned
    keys with no blob behind them (a pruned or foreign store).
    """

    store: str
    checked: int = 0
    ok: int = 0
    corrupt: List[Dict[str, str]] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    drift: List[Dict[str, str]] = field(default_factory=list)
    missing_referenced: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No integrity failures (drift does not count)."""
        return not self.corrupt

    def as_dict(self) -> Dict[str, Any]:
        return {
            "store": self.store,
            "checked": self.checked,
            "ok": self.ok,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
            "drift": self.drift,
            "missing_referenced": self.missing_referenced,
            "clean": self.clean,
        }


def verify(store: ResultStore, dry_run: bool = False) -> VerifyReport:
    """Re-hash every blob of ``store``; quarantine integrity failures.

    Every blob is checked against its envelope's recorded SHA-256 and
    size; failures (an envelope-less blob among them) are quarantined
    (kept live under ``dry_run``) and listed in the report.  Digests
    recorded by v3 shard manifests are cross-checked where available —
    mismatches are reported as ``drift``, never quarantined, because a
    legitimately re-computed blob differs byte-wise from what the manifest
    saw.
    """
    refs = collect_references(store)
    report = VerifyReport(store=store.url)
    seen: Set[str] = set()
    for key in store.list():
        data = store.get(key)
        if data is None:  # deleted between list and get
            continue
        report.checked += 1
        seen.add(key)
        try:
            _, digest = unwrap_blob(data)
        except BlobIntegrityError as exc:
            report.corrupt.append({"key": key, "error": str(exc)})
            if not dry_run:
                store.quarantine(key)
                report.quarantined.append(key)
            continue
        report.ok += 1
        recorded = refs.digests.get(key)
        if recorded is not None and recorded != digest:
            report.drift.append(
                {"key": key, "manifest": recorded, "blob": digest}
            )
    report.missing_referenced = sorted(refs.live_keys - seen)
    return report


# --------------------------------------------------------------------- #
# repair
# --------------------------------------------------------------------- #
@dataclass
class RepairStats:
    """Outcome of one :func:`repair` call."""

    repaired: int = 0
    missing_in_source: int = 0
    still_corrupt: int = 0
    repaired_keys: List[str] = field(default_factory=list)


def repair(
    store: ResultStore,
    source: ResultStore,
    dry_run: bool = False,
) -> RepairStats:
    """Re-fetch every quarantined blob of ``store`` from a mirror.

    For each quarantined key, the mirror's copy is fetched, its envelope
    verified, republished under the live key, and the quarantined entry
    dropped.  Keys the mirror lacks, or whose mirror
    copy fails its own integrity check, are left quarantined.
    """
    stats = RepairStats()
    for key in store.list_quarantined():
        data = source.get(key)
        if data is None:
            stats.missing_in_source += 1
            continue
        try:
            unwrap_blob(data)
        except BlobIntegrityError:
            stats.still_corrupt += 1
            continue
        if not dry_run:
            store.put(key, data)
            store.delete_quarantined(key)
        stats.repaired += 1
        stats.repaired_keys.append(key)
    return stats
