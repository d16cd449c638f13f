"""Parallel experiment sweeps.

Every figure and table of the paper is a sweep — MAX_SLOWDOWN values ×
workloads × runtime models — and each point is one independent
:func:`repro.experiments.runner.run_workload` call.  :class:`SweepRunner`
probes the cache, decides which misses run and hands them to
:func:`repro.experiments.executors.run_tasks` (in process or over a fork
pool), with

* a configurable worker count (``REPRO_SWEEP_WORKERS`` or the CPU count),
* deterministic per-task seeds, so serial, parallel and sharded execution
  produce bit-identical metrics,
* an optional result cache keyed by a content hash of the workload and the
  policy configuration, held in a pluggable :class:`repro.store.ResultStore`
  (a local directory or an in-memory store), so re-running a sweep is free
  on any machine sharing the directory,
* sharded execution (``executor=ShardedExecutor(i, n)``) that runs one
  deterministic slice per invocation, records a resumable manifest and is
  merged back into a full result by ``executor=MergeExecutor()``,
* progress callbacks, and
* worker failures that surface the *original* traceback in the parent.

A cached run blob is the one stored form of a run: one canonical JSON
header line (the task's identity, the run's label, scheduler stats,
:class:`~repro.simulator.simulation.SimulationResult` and
:class:`~repro.metrics.aggregates.WorkloadMetrics`, and the row count),
then the raw :data:`~repro.metrics.streaming.JOB_RECORD_DTYPE` bytes of
the per-job record rows.  It holds no wall-clock timing, so the same task
stores the same bytes whether it ran serially, in a pool, in a shard or
again.  :func:`iter_cached_runs` serves every cached run to the read-only
``query`` engine (:mod:`repro.analytics.query`).

The scenario layer (:mod:`repro.experiments.scenario`) expands declarative
specs into task lists for this runner; every paper table and figure, and
the CLI's ``scenario`` command, runs through it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
import time
from dataclasses import asdict, dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.analytics.records import RunRecords
from repro.core.runtime_model import canonical_model_name
from repro.experiments.executors import (
    ExecutorError,
    MergeExecutor,
    ShardedExecutor,
    SweepError,
    resolve_worker_count,
    run_tasks,
)
from repro.experiments.runner import PolicyRun
from repro.metrics.aggregates import WorkloadMetrics
from repro.metrics.streaming import JOB_RECORD_DTYPE
from repro.simulator.simulation import SimulationResult
from repro.store import (
    BlobIntegrityError,
    ResultStore,
    StoreError,
    default_cache_dir,
    resolve_store,
    unwrap_blob,
    wrap_blob,
)
from repro.telemetry.trace import (
    TRACE_FORMAT_VERSION,
    AttachmentError,
    publish_trace,
    trace_header,
    trace_key,
)
from repro.workloads.job_record import Workload

_log = logging.getLogger(__name__)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CACHE_KEY_VERSION",
    "ExecutorError",
    "MergeExecutor",
    "ResultStore",
    "ShardedExecutor",
    "StoreError",
    "SweepEntry",
    "SweepError",
    "SweepResult",
    "SweepRunner",
    "SweepTask",
    "default_cache_dir",
    "fingerprint_workload",
    "iter_cached_runs",
    "read_cached_run",
    "task_cache_key",
    "task_cache_keys",
]

#: Version written into new cache payloads.  Bump when the payload layout
#: changes.  v2: non-finite kwarg floats canonicalised.  v3:
#: SimulationResult gained first_submit/completed_jobs fields and
#: compute_metrics is anchored at the run-level first submit.  v4:
#: PolicyRun gained a ``records`` field (always pickled as ``None``; the
#: records were then published as their own blob, so the run payload
#: itself was unchanged and v3 blobs stayed readable).  v5: PolicyRun
#: gained ``trace`` (always pickled as ``None`` — traces are published as
#: their own blob) and ``phases`` (populated whether or not
#: tracing is on, so a cached blob is byte-identical either way).  v6:
#: PolicyRun is pickled with its ``records`` (the per-job rows, the only
#: stored copy), and SimulationResult no longer carries a list of ``Job``
#: objects.  v7: the payload is a canonical JSON header line plus the raw
#: record rows (no pickle, no wall-clock fields), so a task's blob is
#: byte-identical however and whenever it ran.
CACHE_FORMAT_VERSION = 7

#: Version folded into :func:`task_cache_key`.  Kept at 3 through the
#: v4-v6 payload bumps *on purpose*: the key encoding did not change, so
#: sweeps keep hitting cache entries written by pre-analytics/pre-telemetry
#: versions.  Bump only when the key inputs themselves change meaning.
CACHE_KEY_VERSION = 3

#: The JSON type of each field of a run blob's header, in declared order.
#: ``result`` and ``metrics`` hold every field of their dataclass, and
#: ``rows`` counts the record rows after the header.
_HEADER_TYPES = {
    "format": int,
    "key": str,
    "policy": str,
    "seed": int,
    "kwargs": str,
    "workload": str,
    "label": str,
    "scheduler_stats": dict,
    "result": dict,
    "metrics": dict,
    "rows": int,
}

#: Declared layout of the run-blob header.  ``repro.devtools.formats``
#: fingerprints this into ``formats.lock``: changing the header without
#: bumping ``CACHE_FORMAT_VERSION`` fails CI.
CACHE_PAYLOAD_FIELDS = tuple(_HEADER_TYPES)

#: A run blob's store key: a bare SHA-256 hex digest (:func:`task_cache_key`).
_CACHE_KEY_RE = re.compile(r"[0-9a-f]{64}")


@dataclass
class SweepTask:
    """One point of a sweep: a workload simulated under one configuration.

    ``kwargs`` are forwarded verbatim to
    :func:`repro.experiments.runner.run_workload` (runtime model, malleable
    fraction, policy parameters such as ``max_slowdown`` …).  The ``seed`` is
    explicit so every task is reproducible no matter which worker runs it;
    when ``None`` it is derived deterministically from the task key.
    """

    workload: Workload
    policy: str = "static_backfill"
    key: Optional[str] = None
    label: Optional[str] = None
    seed: Optional[int] = None
    kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Publish this task's scheduler decision trace next to its run blob
    #: (set by the runner's ``trace`` flag).  Deliberately *not* part of the
    #: cache key: the simulated run is identical either way, and a cached
    #: run whose store lacks the trace is re-executed to publish it.
    trace: bool = False

    def resolved_key(self) -> str:
        return self.key or self.label or self.policy

    def resolved_seed(self) -> int:
        if self.seed is not None:
            return int(self.seed)
        digest = hashlib.sha256(self.resolved_key().encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big") % (2**31)


@dataclass
class SweepEntry:
    """The outcome of one sweep task."""

    key: str
    run: PolicyRun
    from_cache: bool
    #: Wall-clock seconds of the work this invocation did for the task
    #: (``simulate`` / ``serialize`` / ``store_put``, the last two only
    #: with a store).  Empty for cache hits: no work was done here.
    phases: Dict[str, float] = field(default_factory=dict)


@dataclass
class SweepResult:
    """All completed entries of one sweep, in task order.

    ``complete`` is ``False`` for a sharded invocation that deliberately
    executed only its own slice — ``entries`` then holds the tasks finished
    so far (this shard's plus any served from the shared cache) and
    ``total_tasks`` the size of the full sweep.
    """

    entries: List[SweepEntry]
    total_wall_clock_seconds: float
    workers: int
    complete: bool = True
    total_tasks: Optional[int] = None

    def __post_init__(self) -> None:
        if self.total_tasks is None:
            self.total_tasks = len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[SweepEntry]:
        return iter(self.entries)

    def __getitem__(self, key: str) -> PolicyRun:
        for entry in self.entries:
            if entry.key == key:
                return entry.run
        raise KeyError(key)

    @property
    def runs(self) -> Dict[str, PolicyRun]:
        """Mapping of task key to its :class:`PolicyRun`."""
        return {entry.key: entry.run for entry in self.entries}

    @property
    def cache_hits(self) -> int:
        """Number of entries served from the on-disk cache."""
        return sum(1 for entry in self.entries if entry.from_cache)


# --------------------------------------------------------------------- #
# Cache keys
# --------------------------------------------------------------------- #
def fingerprint_workload(workload: Workload) -> str:
    """Content hash of a workload: system geometry plus every job record.

    It walks every record, so :func:`task_cache_keys` hashes each workload
    object once per batch of keys.  That memo is keyed by object identity
    for the one call and never attached to the mutable :class:`Workload`:
    a record edited between two batches changes the next batch's keys.
    """
    rows = "".join(
        f"{r.job_id},{r.submit_time!r},{r.run_time!r},{r.requested_time!r},"
        f"{r.requested_procs},{r.user_id},{r.group_id},{r.application}\n"
        for r in workload.records
    )
    header = f"{workload.name}|{workload.system_nodes}|{workload.cpus_per_node}|"
    return hashlib.sha256((header + rows).encode()).hexdigest()


_ADDRESS_RE = re.compile(r" at 0x[0-9a-fA-F]+")


def _canonical_value(obj: Any) -> Any:
    """Stable JSON stand-in for a non-JSON kwarg value.

    Objects are rendered as their class plus their (sorted) instance state,
    so two identically-configured model instances produce the same cache key
    and two differently-configured ones do not; memory addresses from
    default reprs are stripped because they change every run.
    """
    state = getattr(obj, "__dict__", None)
    if state:
        return {
            "__class__": f"{type(obj).__module__}.{type(obj).__qualname__}",
            "state": {k: _ADDRESS_RE.sub("", repr(v)) for k, v in sorted(state.items())},
        }
    return _ADDRESS_RE.sub("", repr(obj))


def _canonical_nonfinite(value: Any) -> Any:
    """Replace non-finite floats with stable tokens, recursively.

    Bare ``json.dumps`` would emit the non-standard ``Infinity``/``NaN``
    tokens (and NaN compares unequal even to itself), which strict parsers
    reject and which can diverge from the scenario layer's explicit ``inf``
    encoding — splitting cache keys for the same configuration.  The tokens
    here are namespaced so they cannot collide with a legitimate string
    parameter value like ``"inf"``.
    """
    if isinstance(value, float):
        if math.isnan(value):
            return "__float:nan__"
        if math.isinf(value):
            return "__float:inf__" if value > 0 else "__float:-inf__"
        return value
    if isinstance(value, dict):
        return {k: _canonical_nonfinite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_nonfinite(v) for v in value]
    return value


def _canonical_kwargs(kwargs: Mapping[str, Any]) -> str:
    """Stable text form of the run kwargs (handles inf/NaN, model objects…).

    A runtime-model alias is written as its canonical name, so an alias
    task shares the canonical task's cache key.
    """
    kwargs = dict(kwargs)
    if isinstance(kwargs.get("runtime_model"), str):
        kwargs["runtime_model"] = canonical_model_name(kwargs["runtime_model"])
    return json.dumps(
        _canonical_nonfinite(kwargs),
        sort_keys=True,
        default=_canonical_value,
        allow_nan=False,
    )


def task_cache_key(
    task: SweepTask, workload_digests: Optional[Dict[int, str]] = None
) -> str:
    """Cache key of a task: workload content + full run configuration.

    ``workload_digests`` is a batch's memo of :func:`fingerprint_workload`
    digests keyed by ``id(workload)``: a batch (:func:`task_cache_keys`)
    passes one dict to every call, so each workload object is hashed once
    however many tasks share it.  Without it the workload is hashed here.
    The key bytes are the same either way.

    The package version is part of the key so a released behaviour change
    invalidates old entries; local (unreleased) simulator edits are *not*
    detected — delete the cache directory after hacking on the scheduler.
    """
    import repro

    memo = {} if workload_digests is None else workload_digests
    digest = memo.get(id(task.workload))
    if digest is None:
        digest = memo[id(task.workload)] = fingerprint_workload(task.workload)
    h = hashlib.sha256()
    h.update(
        f"v{CACHE_KEY_VERSION}|repro{getattr(repro, '__version__', '0')}|".encode()
    )
    h.update(digest.encode())
    h.update(
        (
            f"|{task.policy}|{task.label}|{task.resolved_seed()}|"
            f"{_canonical_kwargs(task.kwargs)}"
        ).encode()
    )
    return h.hexdigest()


def task_cache_keys(tasks: Sequence[SweepTask]) -> List[str]:
    """:func:`task_cache_key` of every task, hashing each workload once.

    Sweep tasks share their workload objects (a grid runs many
    configurations over each), so the workload digests are memoised by
    object identity for this one call; the tasks keep every workload alive
    meanwhile, so no id is reused.  Nothing is stored on the mutable
    :class:`Workload`.
    """
    digests: Dict[int, str] = {}
    return [task_cache_key(task, digests) for task in tasks]


# --------------------------------------------------------------------- #
# Cached runs
# --------------------------------------------------------------------- #
def encode_run(task: SweepTask, run: PolicyRun) -> bytes:
    """The payload of ``task``'s run blob: a canonical JSON header (sorted
    keys, compact separators, then a newline) and the raw record rows."""
    rows = run.records.array
    header = {
        "format": CACHE_FORMAT_VERSION,
        "key": task.resolved_key(),
        "policy": task.policy,
        "seed": task.resolved_seed(),
        "kwargs": _canonical_kwargs(task.kwargs),
        "workload": task.workload.name,
        "label": run.label,
        "scheduler_stats": run.scheduler_stats,
        "result": asdict(run.result),
        "metrics": asdict(run.metrics),
        "rows": len(rows),
    }
    text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return text.encode() + b"\n" + rows.tobytes()


def _header_dataclass(header: Dict[str, Any], name: str, cls: type) -> Any:
    try:
        return cls(**header[name])
    except TypeError as exc:
        raise ValueError(f"header field {name!r} is not a {cls.__name__} ({exc})") from None


def _decode_run_blob(data: bytes) -> Tuple[Optional[Dict[str, Any]], str]:
    """Unwrap and decode one run blob: ``(payload, digest)``.

    ``payload`` is the header with ``"run"``, the rebuilt
    :class:`PolicyRun` whose record rows are a read-only view of the blob.
    It is ``None`` for a payload of another format: a header with another
    ``format``, or a payload that is no JSON header at all (every pickled
    payload before v7, never unpickled).  A header that does not decode
    raises a ``ValueError`` naming the field.
    """
    payload, digest = unwrap_blob(data)
    if not payload.startswith(b"{"):
        return None, digest
    end = payload.find(b"\n")
    if end < 0:
        raise ValueError("header has no closing newline")
    try:
        header = json.loads(payload[:end])
    except ValueError as exc:
        raise ValueError(f"header is not one JSON object line ({exc})") from None
    if header.get("format") != CACHE_FORMAT_VERSION:
        return None, digest
    for name, kind in _HEADER_TYPES.items():
        value = header.get(name)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"header field {name!r} is {value!r}, not {kind.__name__}")
    rows = header["rows"]
    size = len(payload) - end - 1
    if rows < 0 or size != rows * JOB_RECORD_DTYPE.itemsize:
        raise ValueError(f"header field 'rows' is {rows}, but {size} row bytes follow")
    header["run"] = PolicyRun(
        label=header["label"],
        workload_name=header["workload"],
        result=_header_dataclass(header, "result", SimulationResult),
        metrics=_header_dataclass(header, "metrics", WorkloadMetrics),
        records=RunRecords(
            np.frombuffer(payload, JOB_RECORD_DTYPE, count=rows, offset=end + 1)
        ),
        scheduler_stats=header["scheduler_stats"],
    )
    return header, digest


def read_cached_run(store: ResultStore, key: str) -> Optional[Dict[str, Any]]:
    """The payload of one run blob (``payload["run"]`` is the
    :class:`PolicyRun`), or ``None`` if the store lacks it or holds it at
    another format version.

    Read-only: a corrupt blob raises :class:`repro.store.StoreError`
    naming the key, and is left in place for the sweep that reruns it.
    """
    data = store.get(key)
    if data is None:
        return None
    try:
        return _decode_run_blob(data)[0]
    except ValueError as exc:  # the envelope or the header does not decode
        raise StoreError(
            f"cache blob {key} in {store.url} is corrupt ({exc}); re-run the "
            "sweep to overwrite it, or drop it with 'store verify --delete'"
        ) from exc


def iter_cached_runs(store: ResultStore) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Yield ``(cache_key, payload)`` for every current-format run blob.

    Blobs whose key is not a bare cache key (``<key>-trace``) are skipped,
    and so are payloads of another format, which a sweep re-executes.
    """
    for key in store.list():
        if _CACHE_KEY_RE.fullmatch(key):
            payload = read_cached_run(store, key)
            if payload is not None:
                yield key, payload


# --------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------- #
class SweepRunner:
    """Run a batch of :class:`SweepTask` points, serving hits from the cache.

    Parameters
    ----------
    max_workers:
        Process count.  ``None`` reads ``REPRO_SWEEP_WORKERS``; unset, it
        defaults to ``os.cpu_count()`` on Linux (where the pool forks and a
        library call stays safe in any script) and to ``1`` on spawn
        platforms (macOS/Windows), where a process pool inside a library
        call would re-import unguarded caller scripts — opt in explicitly
        there.  ``1`` runs everything in-process (no pool).  An explicit
        value always beats the environment variable.
    progress:
        Optional callback ``progress(done, total, entry)`` invoked after
        every completed task (cache hits included).
    executor:
        ``None`` runs every cache miss.  A
        :class:`~repro.experiments.executors.ShardedExecutor` runs only one
        shard's slice of them; a
        :class:`~repro.experiments.executors.MergeExecutor` runs none and
        assembles the full result from completed shard manifests.
    store:
        Result-store backend: a :class:`repro.store.ResultStore` instance,
        a URL (``file://…`` or ``memory://…``) or a directory path
        (``"auto"`` selects :func:`repro.store.default_cache_dir`).  Unset,
        the ``REPRO_STORE_URL`` environment variable applies, and with
        nothing configured caching is disabled.
    trace:
        Publish every task's decision trace next to its run blob (see
        :mod:`repro.telemetry.trace`).  Requires a store.  A cached run
        whose trace is missing, of another trace format or unreadable is a
        miss and re-executes, except under a ``MergeExecutor``, which executes
        nothing.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        progress: Optional[Callable[[int, int, SweepEntry], None]] = None,
        executor: Optional[Union[ShardedExecutor, MergeExecutor]] = None,
        store: Optional[Union[str, os.PathLike, ResultStore]] = None,
        trace: bool = False,
    ) -> None:
        self.max_workers = resolve_worker_count(max_workers)
        self.store = resolve_store(store)
        self.progress = progress
        self.executor = executor
        self.trace = trace
        if trace and self.store is None:
            raise ValueError(
                "trace=True needs a result store to publish trace "
                "(pass store=…)"
            )

    # ------------------------------------------------------------------ #
    # Cache plumbing (all blob/manifest I/O goes through ``self.store``)
    # ------------------------------------------------------------------ #
    def _cache_load(self, key: Optional[str]) -> Tuple[Optional[PolicyRun], Optional[str]]:
        """Load one cache entry; returns ``(run, digest)``, ``(None, None)``
        on a miss.

        Blobs written by this runner carry an integrity envelope
        (:func:`repro.store.wrap_blob`) whose SHA-256 content digest is
        verified here on every read.  A blob that cannot be served is a
        miss: one of another format version silently, and a corrupt one
        (torn write, truncation, digest mismatch, no envelope, a header
        that does not decode) with a warning naming the key.  The rerun's
        ``put`` overwrites it atomically with the bytes a clean run stores.
        Transport failures (:class:`repro.store.StoreError`) propagate: an
        unreachable store is not a cache miss.
        """
        if key is None or self.store is None:
            return None, None
        data = self.store.get(key)
        if data is None:
            return None, None
        try:
            payload, digest = _decode_run_blob(data)
        except ValueError as exc:
            self._warn_unreadable("cache", key, exc)
            return None, None
        if payload is None:  # another format version: an ordinary miss
            return None, None
        return payload["run"], digest

    def _cache_store(
        self, key: Optional[str], task: SweepTask, run: PolicyRun, phases: Dict[str, float]
    ) -> Optional[str]:
        """Publish one cache entry and return its blob digest; the encode
        and put times are added to ``phases``."""
        if key is None or self.store is None:
            return None
        # The envelope records a SHA-256 over the payload, so a truncated
        # or bit-rotted blob is detected on read (`store verify` re-checks
        # at rest); stores publish atomically, so concurrent sweeps sharing
        # one backend never observe a torn entry.
        serialize_started = time.perf_counter()
        enveloped, digest = wrap_blob(encode_run(task, run))
        phases["serialize"] = time.perf_counter() - serialize_started
        put_started = time.perf_counter()
        self.store.put(key, enveloped)
        phases["store_put"] = time.perf_counter() - put_started
        if run.trace is not None:
            publish_trace(self.store, key, run.trace, run_digest=digest, phases=phases)
        return digest

    def _lacks_trace(self, task: SweepTask, key: str) -> bool:
        """Whether ``task`` asks for a trace the store cannot serve: absent,
        of another trace format, or failing its envelope or header (warned
        like a corrupt run blob)."""
        if not task.trace:
            return False
        data = self.store.get(trace_key(key))
        if data is None:
            return True
        try:
            found = trace_header(unwrap_blob(data)[0]).get("format")
        except (BlobIntegrityError, AttachmentError) as exc:
            self._warn_unreadable("trace", trace_key(key), exc)
            return True
        return found != TRACE_FORMAT_VERSION

    def _warn_unreadable(self, kind: str, key: str, exc: Exception) -> None:
        _log.warning(
            "unreadable %s blob %s in %s (%s); a miss, the rerun overwrites it",
            kind, key, self.store.url, exc,
        )

    # ------------------------------------------------------------------ #
    def run(self, tasks: Sequence[SweepTask]) -> SweepResult:
        """Execute every task and return their results in task order.

        Under a :class:`ShardedExecutor` only the tasks finished so far are
        returned and ``result.complete`` is ``False``; a
        :class:`MergeExecutor` raises unless the cache served every task.
        """
        tasks = list(tasks)
        if self.trace:
            tasks = [replace(task, trace=True) for task in tasks]
        keys = [task.resolved_key() for task in tasks]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate sweep task keys: {dupes}")

        started = time.perf_counter()
        total = len(tasks)
        done = 0
        entries: List[Optional[SweepEntry]] = [None] * total
        misses: List[int] = []
        cache_keys: List[Optional[str]] = (
            [None] * total if self.store is None else task_cache_keys(tasks)
        )
        digests: Dict[int, Optional[str]] = {}

        # A merge executes nothing, so a run lacking its trace stays a hit.
        probe_traces = not isinstance(self.executor, MergeExecutor)
        for index, task in enumerate(tasks):
            cached, digest = self._cache_load(cache_keys[index])
            if (
                cached is not None
                and probe_traces
                and self._lacks_trace(task, cache_keys[index])
            ):
                _log.debug("task %s lacks its requested trace; re-running", keys[index])
                cached = None
            if cached is not None:
                _log.debug("cache hit for task %s", keys[index])
                digests[index] = digest
                entries[index] = SweepEntry(key=keys[index], run=cached, from_cache=True)
                done += 1
                if self.progress is not None:
                    self.progress(done, total, entries[index])
            else:
                misses.append(index)

        workers = min(self.max_workers, max(1, len(misses)))

        def complete(index: int, run: PolicyRun, elapsed: float) -> None:
            nonlocal done
            phases = {"simulate": elapsed}
            digests[index] = self._cache_store(cache_keys[index], tasks[index], run, phases)
            entry = SweepEntry(key=keys[index], run=run, from_cache=False, phases=phases)
            entries[index] = entry
            done += 1
            if self.progress is not None:
                self.progress(done, total, entry)

        executor = self.executor
        if executor is None:
            run_tasks(tasks, keys, misses, self.max_workers, complete)
        elif isinstance(executor, MergeExecutor):
            executor.check(self.store, keys, cache_keys, misses)
        else:
            executor.run(
                self.store, tasks, keys, cache_keys, misses,
                digests, self.max_workers, complete,
            )

        finished = [entry for entry in entries if entry is not None]
        return SweepResult(
            entries=finished,
            total_wall_clock_seconds=time.perf_counter() - started,
            workers=workers,
            complete=len(finished) == total,
            total_tasks=total,
        )
