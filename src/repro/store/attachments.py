"""Run attachments: side artifacts published next to a cached run.

Per-job records (``--analytics``) and decision traces (``--trace``) are
each declared once as an :class:`AttachmentKind` and stored, found,
loaded and pinned through this one code path.  The blob lives under
``<cache_key>-<noun>`` in the integrity envelope, so ``store
verify``/``repair`` cover it.  A ``<kind>-<cache_key[:24]>`` manifest
holds the run's metadata for discovery, and its ``"tasks"`` list names
the run blob and the attachment blob so
:func:`~repro.store.lifecycle.collect_references` keeps both through
``store gc``.  The pointer lives only in the manifest: the cached run blob
is byte-identical with or without attachments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.store.base import ResultStore
from repro.store.lifecycle import BlobIntegrityError, unwrap_blob, wrap_blob

__all__ = [
    "AttachmentError",
    "AttachmentKind",
    "iter_attachments",
    "load_attachment",
    "publish_attachment",
]


@dataclass(frozen=True)
class AttachmentKind:
    """One kind of run attachment: manifest namespace ``kind``, blob-key
    suffix ``noun``, manifest ``schema`` version, and publishing CLI ``flag``."""

    kind: str
    noun: str
    schema: int
    flag: str

    def key(self, cache_key: str) -> str:
        """Store key of this attachment's blob for a cached run."""
        return f"{cache_key}-{self.noun}"

    def manifest_name(self, cache_key: str) -> str:
        """Deterministic name of this attachment's manifest for a run."""
        return f"{self.kind}-{cache_key[:24]}"

    def manifest_fields(self, *own: str) -> Tuple[str, ...]:
        """Key layout of this kind's manifest, given the kind's own fields."""
        noun = self.noun
        return ("kind", "schema", "cache_key", f"{noun}_key", f"{noun}_digest", *own, "tasks")


class AttachmentError(RuntimeError):
    """A run attachment is missing, quarantined or unreadable."""


def publish_attachment(
    store: ResultStore,
    kind: AttachmentKind,
    cache_key: str,
    payload: bytes,
    run_digest: Optional[str] = None,
    **fields: Any,
) -> str:
    """Publish one attachment blob plus its manifest (with the kind's own
    ``fields``); returns the blob digest."""
    key = kind.key(cache_key)
    enveloped, digest = wrap_blob(payload)
    store.put(key, enveloped)
    run_ref: Dict[str, Any] = {"cache_key": cache_key}
    if run_digest:
        run_ref["digest"] = run_digest
    manifest = {
        "kind": kind.kind,
        "schema": kind.schema,
        "cache_key": cache_key,
        f"{kind.noun}_key": key,
        f"{kind.noun}_digest": digest,
        **fields,
        # gc pinning: collect_references keeps every "cache_key" listed
        # under "tasks", covering both the run blob and the attachment.
        "tasks": [run_ref, {"cache_key": key, "digest": digest}],
    }
    store.write_manifest(kind.manifest_name(cache_key), manifest)
    return digest


def load_attachment(store: ResultStore, kind: AttachmentKind, cache_key: str) -> bytes:
    """The verified payload of one run's attachment; :class:`AttachmentError`
    if it was never published, was quarantined or deleted, or is corrupt."""
    data = store.get(kind.key(cache_key))
    short = cache_key[:24]
    if data is None:
        if store.read_manifest(kind.manifest_name(cache_key)) is not None:
            raise AttachmentError(
                f"the {kind.noun} blob of cache key {short}… was quarantined "
                f"or deleted (its {kind.kind} manifest remains); restore it "
                "with 'store repair --from MIRROR', or re-run the sweep with "
                f"{kind.flag} to regenerate it"
            )
        raise AttachmentError(
            f"no {kind.noun} for cache key {short}… — the run was executed "
            f"without {kind.flag}; re-run the sweep with {kind.flag} to "
            f"publish the {kind.noun}"
        )
    try:
        payload, _digest = unwrap_blob(data)
    except BlobIntegrityError as exc:
        raise AttachmentError(
            f"the {kind.noun} blob of cache key {short}… fails its integrity "
            f"envelope ({exc}); run 'store verify' to quarantine it, then "
            f"'store repair --from MIRROR' or re-run the sweep with {kind.flag}"
        ) from exc
    return payload


def iter_attachments(
    store: ResultStore, kind: AttachmentKind
) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Yield ``(manifest_name, manifest)`` for every manifest of ``kind``."""
    for name in store.list_manifests(f"{kind.kind}-"):
        manifest = store.read_manifest(name)
        if manifest and manifest.get("kind") == kind.kind and manifest.get("schema") == kind.schema:
            yield name, manifest
