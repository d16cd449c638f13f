"""Local-filesystem result store: the historical ``<cache-dir>`` layout.

``LocalFSStore(root)`` is byte-compatible with caches written before the
store subsystem existed: blobs live as ``<root>/<key>.pkl`` and shard
manifests as ``<root>/manifests/<name>.json``.  Writes publish atomically
(``mkstemp`` + ``os.replace``), so concurrent sweeps sharing one directory
never observe a torn entry, and a rerun overwrites an unreadable blob in
one rename.  ``*.pkl.corrupt`` files that older versions moved bad blobs
to are inert: nothing lists or reads them, and they can be deleted by hand.
"""

from __future__ import annotations

import os
import stat
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.store.base import (
    BLOB_SUFFIX,
    MANIFEST_PREFIX,
    ObjectStat,
    ResultStore,
    StoreError,
)


def default_cache_dir() -> Path:
    """Default on-disk cache location.

    ``REPRO_SWEEP_CACHE_DIR`` wins outright; otherwise the XDG base
    directory spec is honoured (``$XDG_CACHE_HOME/repro/sweeps``) before
    falling back to ``~/.cache/repro/sweeps``.
    """
    env = os.environ.get("REPRO_SWEEP_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg).expanduser() / "repro" / "sweeps"
    return Path.home() / ".cache" / "repro" / "sweeps"


class LocalFSStore(ResultStore):
    """Result store over a local directory (or any mounted shared FS).

    ``root`` is the cache directory, created lazily on first write; shard
    manifests live in its ``manifests/`` subdirectory (``manifest_dir``).
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root).expanduser()
        self.manifest_dir = self.root / MANIFEST_PREFIX.rstrip("/")
        self.url = f"file://{self.root}"

    # ------------------------------------------------------------------ #
    def blob_path(self, key: str) -> Path:
        """Local path of one blob (introspection/tests; LocalFS only)."""
        return self.root / (key + BLOB_SUFFIX)

    # ------------------------------------------------------------------ #
    def _read(self, name: str) -> Optional[bytes]:
        try:
            return (self.root / name).read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StoreError(f"cannot read {name!r} from {self.url}: {exc}") from exc

    def _write(self, name: str, data: bytes) -> None:
        path = self.root / name
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        except OSError as exc:
            raise StoreError(f"cannot write {name!r} to {self.url}: {exc}") from exc
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp_name, path)
        except BaseException as exc:
            try:
                os.unlink(tmp_name)
            # repro: allow[exc-swallow] best-effort tmp cleanup; the
            # original write failure re-raises just below
            except OSError:
                pass
            if isinstance(exc, OSError):  # ENOSPC, EACCES… keep the contract
                raise StoreError(
                    f"cannot write {name!r} to {self.url}: {exc}"
                ) from exc
            raise

    def _delete(self, name: str) -> bool:
        try:
            (self.root / name).unlink()
            return True
        except FileNotFoundError:
            return False
        except OSError as exc:
            raise StoreError(f"cannot delete {name!r} from {self.url}: {exc}") from exc

    def _stat(self, name: str) -> Optional[ObjectStat]:
        try:
            st = (self.root / name).stat()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StoreError(f"cannot stat {name!r} in {self.url}: {exc}") from exc
        return ObjectStat(size=st.st_size, mtime=st.st_mtime)

    def _entries(self, prefix: str = "") -> List[Tuple[str, ObjectStat]]:
        entries: List[Tuple[str, ObjectStat]] = []

        def scan(directory: Path, name_prefix: str) -> None:
            if not directory.is_dir():
                return
            for path in directory.iterdir():
                name = name_prefix + path.name
                if not name.startswith(prefix):
                    continue
                try:
                    st = path.stat()
                # repro: allow[exc-swallow] entry vanished between iterdir
                # and stat (concurrent gc); skipping it is correct
                except OSError:
                    continue
                if not stat.S_ISREG(st.st_mode):
                    continue
                entries.append((name, ObjectStat(size=st.st_size, mtime=st.st_mtime)))

        scan(self.root, "")
        scan(self.manifest_dir, MANIFEST_PREFIX)
        return sorted(entries, key=lambda entry: entry[0])
