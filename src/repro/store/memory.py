"""In-memory result store (tests, dry runs).

``memory://<name>`` URLs resolve to one shared process-wide instance per
name, so two :class:`~repro.experiments.sweep.SweepRunner` invocations in
the same process (a shard and a merge in one test, say) see the same
objects, as two processes would share a cache directory.  The store
vanishes with the process and is never visible to pool *workers* (cache I/O
happens in the parent), which is exactly what the sweep runner needs.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.store.base import ObjectStat, ResultStore


class MemoryStore(ResultStore):
    """A dict-backed result store with the full protocol semantics."""

    _registry: Dict[str, "MemoryStore"] = {}
    _registry_lock = threading.Lock()

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.url = f"memory://{name}"
        self._objects: Dict[str, Tuple[bytes, float]] = {}
        self._lock = threading.Lock()

    @classmethod
    def named(cls, name: str) -> "MemoryStore":
        """The shared instance behind ``memory://<name>`` (process-wide)."""
        with cls._registry_lock:
            store = cls._registry.get(name)
            if store is None:
                store = cls._registry[name] = cls(name)
            return store

    @classmethod
    def reset(cls, name: Optional[str] = None) -> None:
        """Drop one named instance (or all of them); test isolation."""
        with cls._registry_lock:
            if name is None:
                cls._registry.clear()
            else:
                cls._registry.pop(name, None)

    # ------------------------------------------------------------------ #
    def _read(self, name: str) -> Optional[bytes]:
        with self._lock:
            entry = self._objects.get(name)
        return entry[0] if entry is not None else None

    def _write(self, name: str, data: bytes) -> None:
        with self._lock:
            self._objects[name] = (bytes(data), time.time())

    def _delete(self, name: str) -> bool:
        with self._lock:
            return self._objects.pop(name, None) is not None

    def _stat(self, name: str) -> Optional[ObjectStat]:
        with self._lock:
            entry = self._objects.get(name)
        if entry is None:
            return None
        return ObjectStat(size=len(entry[0]), mtime=entry[1])

    def _entries(self, prefix: str = "") -> List[Tuple[str, ObjectStat]]:
        with self._lock:
            return [
                (name, ObjectStat(size=len(data), mtime=mtime))
                for name, (data, mtime) in sorted(self._objects.items())
                if name.startswith(prefix)
            ]
