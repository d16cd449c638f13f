"""Format-discipline checker: schema fingerprints vs. ``formats.lock``.

Every byte this repository persists — run-blob headers and their per-job
record rows, shard manifests, decision traces — has a
declared schema and a paired format-version constant
(``CACHE_FORMAT_VERSION``, ``MANIFEST_FORMAT_VERSION``,
``TRACE_FORMAT_VERSION``, ``PROFILE_SCHEMA_VERSION``).  The version gate
is what lets a reader reject bytes it cannot decode; an un-bumped version
next to a changed schema silently poisons every shared cache.

This tool fingerprints the *field layout* of each registered schema
(dataclass fields with annotations, numpy dtype descriptors, declared
manifest key tuples) into a committed ``formats.lock``.  ``--check`` (the
default, run by CI) fails when the current layout disagrees with the lock:

* same version, different fingerprint — the schema changed without a
  version bump: **bump the paired constant**, then refresh the lock;
* different version — the lock is stale: **run ``--update``** and commit
  the refreshed lock alongside the bump.

Usage::

    python -m repro.devtools.formats            # check (exit 1 on drift)
    python -m repro.devtools.formats --update   # rewrite formats.lock
    python -m repro.devtools.formats --json     # machine-readable report
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "LOCK_FORMAT_VERSION",
    "SCHEMAS",
    "FormatsError",
    "SchemaSpec",
    "check_lock",
    "default_lock_path",
    "fingerprint_schema",
    "load_lock",
    "main",
    "snapshot",
    "write_lock",
]

#: Version of the lock-file layout itself.
LOCK_FORMAT_VERSION = 1


class FormatsError(Exception):
    """A user-fixable formats-tool problem (missing lock, bad target)."""


@dataclass(frozen=True)
class SchemaSpec:
    """One fingerprinted schema and its paired format-version constant.

    ``target``/``version`` are ``"module:attribute"`` references resolved
    lazily, so importing this module never drags in numpy.  ``kind``
    selects the layout extractor: a ``dataclass`` (ordered field names and
    annotations), a numpy ``dtype`` (its descr), or a declared ``fields``
    tuple (manifest/payload key layouts).
    """

    name: str
    kind: str
    target: str
    version: str


#: Every persisted schema of the repository.  Adding a format?  Register
#: it here and commit the refreshed lock.
SCHEMAS: Tuple[SchemaSpec, ...] = (
    # The run-blob header: its field layout plus the two dataclasses it
    # stores field by field.  All are guarded by CACHE_FORMAT_VERSION
    # (repro/experiments/sweep.py).
    SchemaSpec(
        name="cache/payload-fields",
        kind="fields",
        target="repro.experiments.sweep:CACHE_PAYLOAD_FIELDS",
        version="repro.experiments.sweep:CACHE_FORMAT_VERSION",
    ),
    SchemaSpec(
        name="cache/SimulationResult",
        kind="dataclass",
        target="repro.simulator.simulation:SimulationResult",
        version="repro.experiments.sweep:CACHE_FORMAT_VERSION",
    ),
    SchemaSpec(
        name="cache/WorkloadMetrics",
        kind="dataclass",
        target="repro.metrics.aggregates:WorkloadMetrics",
        version="repro.experiments.sweep:CACHE_FORMAT_VERSION",
    ),
    # The shard manifest (repro/experiments/executors.py).
    SchemaSpec(
        name="manifest/shard-fields",
        kind="fields",
        target="repro.experiments.executors:MANIFEST_FIELDS",
        version="repro.experiments.executors:MANIFEST_FORMAT_VERSION",
    ),
    SchemaSpec(
        name="manifest/shard-task-fields",
        kind="fields",
        target="repro.experiments.executors:MANIFEST_TASK_FIELDS",
        version="repro.experiments.executors:MANIFEST_FORMAT_VERSION",
    ),
    # The per-job record rows stored raw after every run-blob header
    # (repro/analytics/records.py), so part of the cache format.
    SchemaSpec(
        name="records/JOB_RECORD_DTYPE",
        kind="dtype",
        target="repro.analytics.records:JOB_RECORD_DTYPE",
        version="repro.experiments.sweep:CACHE_FORMAT_VERSION",
    ),
    # Decision-trace JSONL events and their discovery manifest
    # (repro/telemetry/trace.py).
    SchemaSpec(
        name="trace/event-fields",
        kind="fields",
        target="repro.telemetry.trace:TRACE_EVENT_FIELDS",
        version="repro.telemetry.trace:TRACE_FORMAT_VERSION",
    ),
    SchemaSpec(
        name="trace/manifest-fields",
        kind="fields",
        target="repro.telemetry.trace:TRACE_MANIFEST_FIELDS",
        version="repro.telemetry.trace:TRACE_FORMAT_VERSION",
    ),
    SchemaSpec(
        name="trace/mate-rejected-reasons",
        kind="fields",
        target="repro.telemetry.trace:MATE_REJECTED_REASONS",
        version="repro.telemetry.trace:TRACE_FORMAT_VERSION",
    ),
    # Application profiles consumed by the contention-aware policies and
    # the application-aware runtime model (repro/core/profiles.py).
    SchemaSpec(
        name="profiles/ApplicationModel",
        kind="dataclass",
        target="repro.core.profiles:ApplicationModel",
        version="repro.core.profiles:PROFILE_SCHEMA_VERSION",
    ),
    SchemaSpec(
        name="profiles/profile-set-names",
        kind="fields",
        target="repro.core.profiles:PROFILE_SET_NAMES",
        version="repro.core.profiles:PROFILE_SCHEMA_VERSION",
    ),
    # Phase-timer keys stored in every trace manifest (repro/telemetry/trace.py).
    SchemaSpec(
        name="telemetry/phase-fields",
        kind="fields",
        target="repro.telemetry.trace:PHASE_FIELDS",
        version="repro.telemetry.trace:TRACE_FORMAT_VERSION",
    ),
)


def _resolve(reference: str) -> Any:
    module_name, _, attribute = reference.partition(":")
    if not attribute:
        raise FormatsError(f"bad target {reference!r} (want 'module:attribute')")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise FormatsError(f"cannot import {module_name!r}: {exc}") from exc
    try:
        return getattr(module, attribute)
    except AttributeError as exc:
        raise FormatsError(
            f"{module_name!r} has no attribute {attribute!r}"
        ) from exc


def _layout(kind: str, obj: Any) -> List[List[str]]:
    """The canonical, JSON-stable field layout of a schema object."""
    if kind == "dataclass":
        if not dataclasses.is_dataclass(obj):
            raise FormatsError(f"{obj!r} is not a dataclass")
        # With ``from __future__ import annotations`` field types are the
        # annotation strings — exactly the stable text we want to pin.
        return [[f.name, str(f.type)] for f in dataclasses.fields(obj)]
    if kind == "dtype":
        return [[name, fmt] for name, fmt in obj.descr]
    if kind == "fields":
        return [[name, ""] for name in obj]
    raise FormatsError(f"unknown schema kind {kind!r}")


def fingerprint_schema(kind: str, obj: Any) -> str:
    """Stable fingerprint of a schema object's field layout."""
    canonical = json.dumps(_layout(kind, obj), separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()[:16]


def snapshot(
    schemas: Sequence[SchemaSpec] = SCHEMAS,
) -> Dict[str, Dict[str, Any]]:
    """Current fingerprint + version of every registered schema."""
    result: Dict[str, Dict[str, Any]] = {}
    for spec in schemas:
        result[spec.name] = {
            "fingerprint": fingerprint_schema(spec.kind, _resolve(spec.target)),
            "version": _resolve(spec.version),
            "version_constant": spec.version,
        }
    return result


# --------------------------------------------------------------------- #
# Lock file I/O
# --------------------------------------------------------------------- #
def default_lock_path() -> Path:
    """``formats.lock`` of the working tree (cwd, walking up to a repo root)."""
    current = Path.cwd()
    for candidate in (current, *current.parents):
        lock = candidate / "formats.lock"
        if lock.exists():
            return lock
    return current / "formats.lock"


def load_lock(path: Path) -> Dict[str, Dict[str, Any]]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise FormatsError(
            f"cannot read lock file {path}: {exc} "
            "(generate it with --update)"
        ) from exc
    except json.JSONDecodeError as exc:
        raise FormatsError(f"lock file {path} is not valid JSON: {exc}") from exc
    if payload.get("format") != LOCK_FORMAT_VERSION:
        raise FormatsError(
            f"lock file {path} has format {payload.get('format')!r}; this "
            f"tool reads format {LOCK_FORMAT_VERSION}"
        )
    return payload.get("schemas", {})


def write_lock(path: Path, current: Mapping[str, Mapping[str, Any]]) -> None:
    payload = {
        "format": LOCK_FORMAT_VERSION,
        "comment": "Schema fingerprints; regenerate with "
                   "`python -m repro.devtools.formats --update`.",
        "schemas": {name: dict(entry) for name, entry in sorted(current.items())},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


# --------------------------------------------------------------------- #
# The check
# --------------------------------------------------------------------- #
def check_lock(
    locked: Mapping[str, Mapping[str, Any]],
    current: Mapping[str, Mapping[str, Any]],
) -> List[Dict[str, str]]:
    """Compare a lock against the current snapshot; returns problem dicts.

    Problem kinds: ``changed-no-bump`` (schema drifted, version did not —
    the bug this tool exists for), ``stale-lock`` (schema and/or version
    moved together; refresh with ``--update``), ``new-schema`` and
    ``removed-schema`` (registry/lock disagree about what exists).
    """
    problems: List[Dict[str, str]] = []
    for name in sorted(set(locked) | set(current)):
        if name not in current:
            problems.append(
                {
                    "schema": name,
                    "kind": "removed-schema",
                    "message": f"{name}: in formats.lock but no longer "
                               "registered — run --update",
                }
            )
            continue
        if name not in locked:
            problems.append(
                {
                    "schema": name,
                    "kind": "new-schema",
                    "message": f"{name}: registered but missing from "
                               "formats.lock — run --update",
                }
            )
            continue
        lock_entry, now = locked[name], current[name]
        same_print = lock_entry.get("fingerprint") == now["fingerprint"]
        same_version = lock_entry.get("version") == now["version"]
        if same_print and same_version:
            continue
        if not same_print and same_version:
            problems.append(
                {
                    "schema": name,
                    "kind": "changed-no-bump",
                    "message": f"{name}: field layout changed but "
                               f"{now['version_constant']} is still "
                               f"{now['version']} — bump the version "
                               "constant, then run --update",
                }
            )
        else:
            problems.append(
                {
                    "schema": name,
                    "kind": "stale-lock",
                    "message": f"{name}: formats.lock records version "
                               f"{lock_entry.get('version')}, tree has "
                               f"{now['version']} — run --update and commit "
                               "the refreshed lock",
                }
            )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.formats",
        description="check persisted-schema fingerprints against formats.lock",
    )
    parser.add_argument(
        "--lock", type=Path, default=None, metavar="PATH",
        help="lock file (default: formats.lock of the working tree)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the lock from the current tree instead of checking",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit the check report as JSON")
    args = parser.parse_args(argv)
    lock_path = args.lock if args.lock is not None else default_lock_path()
    try:
        current = snapshot()
        if args.update:
            write_lock(lock_path, current)
            print(f"wrote {len(current)} schema fingerprint(s) to {lock_path}")
            return 0
        problems = check_lock(load_lock(lock_path), current)
    except FormatsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(
            {"ok": not problems, "lock": str(lock_path), "problems": problems},
            indent=2, sort_keys=True,
        ))
    else:
        for problem in problems:
            print(problem["message"])
        print(
            f"{len(current)} schema(s) checked against {lock_path}: "
            + ("ok" if not problems else f"{len(problems)} problem(s)")
        )
    return 0 if not problems else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
