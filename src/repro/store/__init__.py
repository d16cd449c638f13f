"""Pluggable result stores for the sweep subsystem.

A :class:`ResultStore` holds the sweep cache's *blobs* (run blobs — a
JSON header plus raw record rows — and decision traces, addressed by
content-hash key) and *manifests* (atomic JSON shard state,
always in the store's own ``manifests/`` namespace), and lists both
through one primitive, ``_entries``.  Two backends ship:

* :class:`LocalFSStore` — a local/shared directory, byte-compatible with
  the pre-store ``<cache-dir>/*.pkl`` + ``manifests/`` layout
  (``file:///shared/cache`` or a bare path);
* :class:`MemoryStore` — process-local, for tests and dry runs
  (``memory://name``).

:func:`open_store` dispatches a URL or a directory path to its backend;
:func:`resolve_store` adds the ``SweepRunner`` default, the
``REPRO_STORE_URL`` environment variable.  :mod:`repro.store.lifecycle`
adds the lifecycle layer — blob integrity envelopes, manifest-aware
``gc`` (the one eviction pass) and a read-only ``verify``.  The store is a
memo: a blob that fails its envelope is a miss, and the rerun overwrites
it with the same bytes a clean run stores.  ``repro-sdpolicy store``
exposes stats / gc / verify from the shell.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

from repro.store.base import (
    BLOB_SUFFIX,
    MANIFEST_PREFIX,
    MANIFEST_SUFFIX,
    ObjectStat,
    ResultStore,
    StoreError,
    StoreStats,
)
from repro.store.lifecycle import (
    BlobIntegrityError,
    GCStats,
    ManifestReferences,
    VerifyReport,
    blob_digest,
    collect_references,
    gc,
    parse_age,
    unwrap_blob,
    verify,
    wrap_blob,
)
from repro.store.localfs import LocalFSStore, default_cache_dir
from repro.store.memory import MemoryStore

__all__ = [
    "BLOB_SUFFIX",
    "MANIFEST_PREFIX",
    "MANIFEST_SUFFIX",
    "BlobIntegrityError",
    "GCStats",
    "LocalFSStore",
    "ManifestReferences",
    "MemoryStore",
    "ObjectStat",
    "ResultStore",
    "StoreError",
    "StoreStats",
    "VerifyReport",
    "blob_digest",
    "collect_references",
    "default_cache_dir",
    "gc",
    "open_store",
    "parse_age",
    "resolve_store",
    "unwrap_blob",
    "verify",
    "wrap_blob",
]

#: URL schemes accepted by :func:`open_store` (a bare path is file://).
STORE_SCHEMES = ("file://", "memory://")


def open_store(url: Union[str, os.PathLike]) -> ResultStore:
    """Open a result store by URL (``file://`` or ``memory://``).

    A plain path (no scheme) is a local directory, so ``--store`` accepts
    everything ``--cache-dir`` did.  ``file://auto`` and the bare string
    ``auto`` select :func:`default_cache_dir`.
    """
    text = os.fspath(url)
    if text.startswith("memory://"):
        return MemoryStore.named(text[len("memory://") :].strip("/") or "default")
    if text.startswith("file://"):
        text = text[len("file://") :] or "/"
    elif "://" in text:
        scheme = text.split("://", 1)[0]
        raise StoreError(
            f"unknown store scheme {scheme!r}; expected one of {STORE_SCHEMES} "
            "or a plain directory path"
        )
    if text == "auto":
        return LocalFSStore(default_cache_dir())
    return LocalFSStore(Path(text))


def resolve_store(
    store: Optional[Union[str, os.PathLike, ResultStore]] = None,
) -> Optional[ResultStore]:
    """Resolve ``SweepRunner``'s ``store`` to a backend.

    An explicit ``store`` (instance, URL or directory path) wins; unset,
    the ``REPRO_STORE_URL`` environment variable applies.  Both unset means
    caching is disabled (``None``).
    """
    if isinstance(store, ResultStore):
        return store
    if store is not None:
        return open_store(store)
    env = os.environ.get("REPRO_STORE_URL")
    if env:
        return open_store(env)
    return None
