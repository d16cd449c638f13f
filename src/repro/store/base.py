"""The :class:`ResultStore` protocol shared by every cache backend.

A result store holds two kinds of typed objects for the sweep subsystem
(:mod:`repro.experiments.sweep` / :mod:`repro.experiments.executors`):

* **blobs** — opaque bytes addressed by a content-hash key: run blobs
  (a :class:`~repro.experiments.runner.PolicyRun` as a JSON header plus
  raw record rows, under the task cache key) and decision traces;
* **manifests** — small JSON documents (shard progress manifests), addressed
  by name and written atomically so a concurrent reader never observes a
  torn document.

Backends implement five *object-name* primitives (``_read`` / ``_write`` /
``_delete`` / ``_stat`` / ``_entries``); the typed public
API — ``get`` / ``put`` / ``exists`` / ``list`` / ``delete`` over blob
keys and the manifest helpers — is defined once here in terms of the
object-name layout of the historical on-disk cache (``<key>.pkl``,
``manifests/<name>.json``), so every backend is byte-compatible with every
other and :class:`~repro.store.localfs.LocalFSStore` is byte-compatible
with caches written before stores existed.

The store is a memo: a blob that cannot be served is a miss, and the
rerun's ``put`` overwrites it.  There is no second namespace for bad
blobs.
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Object-name suffix of a result blob.
BLOB_SUFFIX = ".pkl"

#: Object-name prefix of the manifest namespace.
MANIFEST_PREFIX = "manifests/"

#: Object-name suffix of a manifest document.
MANIFEST_SUFFIX = ".json"

#: Suffix of stray temporary objects left behind by a crashed atomic write
#: (``LocalFSStore._write``'s mkstemp files); ``store gc`` sweeps them.
TMP_SUFFIX = ".tmp"


class StoreError(RuntimeError):
    """A result-store operation failed (I/O, transport, bad document…)."""


@dataclass(frozen=True)
class ObjectStat:
    """Size (bytes) and modification time (epoch seconds) of one object."""

    size: int
    mtime: float


@dataclass(frozen=True)
class StoreStats:
    """Aggregate contents of a store (the ``store stats`` command)."""

    blobs: int
    blob_bytes: int
    manifests: int
    manifest_bytes: int


def _check_key(key: str, what: str = "key") -> str:
    if not key or "/" in key:
        raise StoreError(f"invalid store {what} {key!r}: must be non-empty, no '/'")
    return key


class ResultStore(abc.ABC):
    """Abstract result store: blobs + atomic JSON manifests over opaque keys.

    Subclasses provide the five object-name primitives; everything public is
    implemented here on top of them.  ``_write`` must publish atomically —
    a concurrent ``_read`` of the same name sees either the old bytes, the
    new bytes, or absence, never a torn object.
    """

    #: Human-readable URL identifying this store (``file://…`` or
    #: ``memory://…``).
    url: str = ""

    # ------------------------------------------------------------------ #
    # Object-name primitives (implemented per backend)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _read(self, name: str) -> Optional[bytes]:
        """Bytes of one object, or ``None`` when it does not exist."""

    @abc.abstractmethod
    def _write(self, name: str, data: bytes) -> None:
        """Atomically create or replace one object."""

    @abc.abstractmethod
    def _delete(self, name: str) -> bool:
        """Delete one object; ``False`` when it did not exist."""

    @abc.abstractmethod
    def _stat(self, name: str) -> Optional[ObjectStat]:
        """Size/mtime of one object, or ``None`` when it does not exist."""

    @abc.abstractmethod
    def _entries(self, prefix: str = "") -> List[Tuple[str, ObjectStat]]:
        """Name + stat of every object starting with ``prefix``, sorted.

        The one listing primitive: every ``list*`` call and every
        aggregate (``stats``, ``gc``) is one pass over it, so nothing
        stats objects one by one.
        """

    # ------------------------------------------------------------------ #
    # Blobs
    # ------------------------------------------------------------------ #
    @staticmethod
    def _blob_name(key: str) -> str:
        return _check_key(key, "blob key") + BLOB_SUFFIX

    def get(self, key: str) -> Optional[bytes]:
        """The blob stored under ``key``, or ``None`` on a miss."""
        return self._read(self._blob_name(key))

    def put(self, key: str, data: bytes) -> None:
        """Atomically publish a blob under ``key``."""
        self._write(self._blob_name(key), data)

    def exists(self, key: str) -> bool:
        return self._stat(self._blob_name(key)) is not None

    def delete(self, key: str) -> bool:
        return self._delete(self._blob_name(key))

    def list(self, prefix: str = "") -> List[str]:
        """All blob keys starting with ``prefix``, sorted."""
        return [
            name[: -len(BLOB_SUFFIX)]
            for name, _ in self._entries(prefix)
            if name.endswith(BLOB_SUFFIX) and "/" not in name
        ]

    def stat(self, key: str) -> Optional[ObjectStat]:
        return self._stat(self._blob_name(key))

    # ------------------------------------------------------------------ #
    # Manifests (atomic JSON documents)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _manifest_object(name: str) -> str:
        return MANIFEST_PREFIX + _check_key(name, "manifest name") + MANIFEST_SUFFIX

    def read_manifest(self, name: str) -> Optional[Dict[str, Any]]:
        """Parse one manifest; ``None`` on a miss, StoreError on bad JSON."""
        data = self._read(self._manifest_object(name))
        if data is None:
            return None
        try:
            payload = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise StoreError(f"unreadable manifest {name!r} in {self.url}: {exc}") from exc
        if not isinstance(payload, dict):
            raise StoreError(
                f"manifest {name!r} in {self.url} is {type(payload).__name__}, not an object"
            )
        return payload

    def write_manifest(self, name: str, payload: Dict[str, Any]) -> None:
        """Atomically publish one manifest as canonical indented JSON."""
        data = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
        self._write(self._manifest_object(name), data)

    def delete_manifest(self, name: str) -> bool:
        return self._delete(self._manifest_object(name))

    def list_manifests(self, prefix: str = "") -> List[str]:
        """All manifest names starting with ``prefix``, sorted."""
        start = MANIFEST_PREFIX + prefix
        return [
            name[len(MANIFEST_PREFIX) : -len(MANIFEST_SUFFIX)]
            for name, _ in self._entries(start)
            if name.endswith(MANIFEST_SUFFIX)
            and "/" not in name[len(MANIFEST_PREFIX) :]
        ]

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    def stats(self) -> StoreStats:
        """Count blobs and manifests and their sizes, in one ``_entries`` pass."""
        blobs = blob_bytes = manifests = manifest_bytes = 0
        for name, stat in self._entries():
            if name.startswith(MANIFEST_PREFIX) and name.endswith(MANIFEST_SUFFIX):
                manifests += 1
                manifest_bytes += stat.size
            elif name.endswith(BLOB_SUFFIX) and "/" not in name:
                blobs += 1
                blob_bytes += stat.size
        return StoreStats(
            blobs=blobs,
            blob_bytes=blob_bytes,
            manifests=manifests,
            manifest_bytes=manifest_bytes,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.url!r})"
