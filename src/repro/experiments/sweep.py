"""Parallel experiment sweeps.

Every figure and table of the paper is a sweep — MAX_SLOWDOWN values ×
workloads × runtime models — and each point is one independent
:func:`repro.experiments.runner.run_workload` call.  :class:`SweepRunner`
fans those calls out through a pluggable execution backend
(:mod:`repro.experiments.executors`) with

* a configurable worker count (``REPRO_SWEEP_WORKERS`` or the CPU count),
* deterministic per-task seeds, so serial, parallel and sharded execution
  produce bit-identical metrics,
* an optional result cache keyed by a content hash of the workload and the
  policy configuration, held in a pluggable :class:`repro.store.ResultStore`
  (a local directory, an in-memory store, or a remote S3-compatible object
  endpoint), so re-running a sweep is free on any machine sharing the store,
* sharded execution (``executor=ShardedExecutor(i, n)``) that runs one
  deterministic slice per invocation, records a resumable manifest and is
  merged back into a full result by ``executor=MergeExecutor()``,
* progress callbacks, and
* worker failures that surface the *original* traceback in the parent.

The scenario layer (:mod:`repro.experiments.scenario`) expands declarative
specs into task lists for this runner; every paper table and figure, and
every sweep-backed CLI subcommand, runs through it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import pickle
import re
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
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

from repro.analytics.records import RECORDS, publish_run_records
from repro.experiments.executors import (
    ExecutionPlan,
    Executor,
    ExecutorError,
    MergeExecutor,
    ProcessPoolExecutor,
    SerialExecutor,
    ShardedExecutor,
    SweepError,
    default_executor,
    resolve_worker_count,
)
from repro.experiments.runner import PolicyRun
from repro.store import (
    LocalFSStore,
    ResultStore,
    StoreError,
    default_cache_dir,
    resolve_store,
    unwrap_blob,
    wrap_blob,
)
from repro.telemetry.trace import TRACE, publish_trace
from repro.workloads.job_record import Workload

_log = logging.getLogger(__name__)

__all__ = [
    "ATTACHMENT_FLAGS",
    "CACHE_FORMAT_VERSION",
    "CACHE_KEY_VERSION",
    "ExecutionPlan",
    "Executor",
    "ExecutorError",
    "MergeExecutor",
    "ProcessPoolExecutor",
    "ResultStore",
    "SerialExecutor",
    "ShardedExecutor",
    "StoreError",
    "SweepEntry",
    "SweepError",
    "SweepResult",
    "SweepRunner",
    "SweepTask",
    "default_cache_dir",
    "fingerprint_workload",
    "task_cache_key",
]

#: Version written into new cache payloads.  Bump when the payload layout
#: changes.  v2: non-finite kwarg floats canonicalised.  v3:
#: SimulationResult gained first_submit/completed_jobs fields and
#: compute_metrics is anchored at the run-level first submit.  v4:
#: PolicyRun gained a ``records`` field (always pickled as ``None`` — the
#: analytics records are published as their own blob, so the run payload
#: itself is unchanged and v3 blobs stay fully readable).  v5: PolicyRun
#: gained ``trace`` (always pickled as ``None`` — traces are published as
#: their own blob, like records) and ``phases`` (populated whether or not
#: tracing is on, so a cached blob is byte-identical either way).
CACHE_FORMAT_VERSION = 5

#: Version folded into :func:`task_cache_key`.  Kept at 3 through the
#: v4/v5 payload bumps *on purpose*: the key encoding did not change, so
#: sweeps keep hitting cache entries written by pre-analytics/pre-telemetry
#: versions.  Bump only when the key inputs themselves change meaning.
CACHE_KEY_VERSION = 3

#: Declared key layout of the pickled cache payload ``_cache_store``
#: publishes.  ``repro.devtools.formats`` fingerprints this into
#: ``formats.lock``: changing the payload shape without bumping
#: ``CACHE_FORMAT_VERSION`` fails CI.
CACHE_PAYLOAD_FIELDS = (
    "format",
    "key",
    "policy",
    "seed",
    "kwargs",
    "workload",
    "run",
)


#: The run attachments a sweep can publish, keyed by the flag that turns
#: each on: the ``SweepTask`` field, the ``SweepRunner`` parameter and the
#: CLI option share the name.
ATTACHMENT_FLAGS = (("analytics", RECORDS), ("trace", TRACE))


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
    #: Publish this task's per-job records as a run attachment (set by the
    #: runner's ``analytics`` flag).  Deliberately *not* part of the cache
    #: key: the simulated run is identical either way, and a cached run
    #: whose store lacks the records is re-executed to publish them.
    analytics: bool = False
    #: Publish this task's scheduler decision trace as a run attachment
    #: (set by the runner's ``trace`` flag); otherwise as ``analytics``.
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
    wall_clock_seconds: float
    #: Phase-timer breakdown of the work this invocation actually did for
    #: the task (``simulate`` / ``metrics`` / ``serialize`` / ``store_put``
    #: seconds).  Empty for cache hits — no work was performed here; the
    #: executing run's own timings stay available as ``run.phases``.
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
    #: Corrupt cache entries evicted (quarantined) — this invocation's cache
    #: probe plus, for a merge, the counts every shard manifest reported.
    cache_corruptions: int = 0

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
    """Content hash of a workload: system geometry plus every job record."""
    h = hashlib.sha256()
    h.update(
        f"{workload.name}|{workload.system_nodes}|{workload.cpus_per_node}|".encode()
    )
    for r in workload.records:
        h.update(
            (
                f"{r.job_id},{r.submit_time!r},{r.run_time!r},{r.requested_time!r},"
                f"{r.requested_procs},{r.user_id},{r.group_id},{r.application}\n"
            ).encode()
        )
    return h.hexdigest()


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
    """Stable text form of the run kwargs (handles inf/NaN, model objects…)."""
    return json.dumps(
        _canonical_nonfinite(dict(kwargs)),
        sort_keys=True,
        default=_canonical_value,
        allow_nan=False,
    )


def task_cache_key(task: SweepTask) -> str:
    """Cache key of a task: workload content + full run configuration.

    The package version is part of the key so a released behaviour change
    invalidates old entries; local (unreleased) simulator edits are *not*
    detected — delete the cache directory after hacking on the scheduler.
    """
    import repro

    h = hashlib.sha256()
    h.update(
        f"v{CACHE_KEY_VERSION}|repro{getattr(repro, '__version__', '0')}|".encode()
    )
    h.update(fingerprint_workload(task.workload).encode())
    h.update(
        (
            f"|{task.policy}|{task.label}|{task.resolved_seed()}|"
            f"{_canonical_kwargs(task.kwargs)}"
        ).encode()
    )
    return h.hexdigest()


# --------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------- #
class SweepRunner:
    """Run a batch of :class:`SweepTask` points through an execution backend.

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
    cache_dir:
        Back-compat spelling for a local-directory result store.  ``None``
        disables caching; the string ``"auto"`` selects
        :func:`repro.store.default_cache_dir`.
    progress:
        Optional callback ``progress(done, total, entry)`` invoked after
        every completed task (cache hits included).
    executor:
        Execution backend override.  ``None`` picks
        :class:`repro.experiments.executors.SerialExecutor` or
        :class:`~repro.experiments.executors.ProcessPoolExecutor` from
        ``max_workers``; pass a
        :class:`~repro.experiments.executors.ShardedExecutor` to run one
        shard of the sweep, or a
        :class:`~repro.experiments.executors.MergeExecutor` to assemble the
        full result from completed shard manifests.
    store:
        Result-store backend: a :class:`repro.store.ResultStore` instance
        or a URL (``file://…``, ``memory://…``, ``s3+http(s)://…``).  An
        explicit ``store`` beats ``cache_dir``; with neither set the
        ``REPRO_STORE_URL`` environment variable applies, and with nothing
        configured caching is disabled.
    analytics:
        Publish every task's per-job records as a run attachment (see
        :mod:`repro.analytics`).  Requires a store.  A cached run whose
        records are missing (never published, or quarantined since) is a
        miss and re-executes, except under a ``MergeExecutor``, which
        executes nothing.
    trace:
        Publish every task's decision trace as a run attachment (see
        :mod:`repro.telemetry.trace`); otherwise as ``analytics``.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        progress: Optional[Callable[[int, int, SweepEntry], None]] = None,
        executor: Optional[Executor] = None,
        store: Optional[Union[str, ResultStore]] = None,
        analytics: bool = False,
        trace: bool = False,
    ) -> None:
        self.max_workers = resolve_worker_count(max_workers)
        self.store = resolve_store(store, cache_dir)
        self.progress = progress
        self.executor = executor
        self.analytics = analytics
        self.trace = trace
        for flag, kind in ATTACHMENT_FLAGS:
            if getattr(self, flag) and self.store is None:
                raise ValueError(
                    f"{flag}=True needs a result store to publish {kind.noun} "
                    "(pass store=… or cache_dir=…)"
                )

    @property
    def cache_dir(self) -> Optional[Path]:
        """Root directory of a local-FS store (``None`` for other backends)."""
        return self.store.root if isinstance(self.store, LocalFSStore) else None

    # ------------------------------------------------------------------ #
    # Cache plumbing (all blob/manifest I/O goes through ``self.store``)
    # ------------------------------------------------------------------ #
    def _cache_key(self, task: SweepTask) -> Optional[str]:
        if self.store is None:
            return None
        return task_cache_key(task)

    def _cache_load(
        self, key: Optional[str]
    ) -> Tuple[Optional[PolicyRun], bool, Optional[str]]:
        """Load one cache entry; returns ``(run, was_corrupt, digest)``.

        Blobs written by this runner carry an integrity envelope
        (:func:`repro.store.wrap_blob`) whose SHA-256 content digest is
        verified here on every read.  A payload of another format version
        is an ordinary miss: it is re-executed and overwritten.  A corrupt
        blob (torn write, truncation, digest mismatch, no envelope,
        unpicklable garbage) is quarantined in the store so it is never
        retried — one bad entry must not poison every subsequent (sharded)
        run — and reported distinctly from an ordinary miss.  Transport failures
        (:class:`repro.store.StoreError`) propagate: an unreachable store
        is not a cache miss.
        """
        if key is None or self.store is None:
            return None, False, None
        data = self.store.get(key)
        if data is None:
            return None, False, None
        try:
            payload_bytes, digest = unwrap_blob(data)
            # repro: allow[store-pickle] the cache codec itself — the bytes
            # only ever travel inside ResultStore integrity envelopes
            payload = pickle.loads(payload_bytes)
            if not isinstance(payload, dict):
                raise TypeError(f"cache payload is {type(payload).__name__}, not dict")
            if payload.get("format") != CACHE_FORMAT_VERSION:
                return None, False, None  # stale but well-formed: an ordinary miss
            return payload["run"], False, digest
        except StoreError:
            raise
        # repro: allow[exc-broad] any decode failure here means a corrupt
        # blob (torn write, bit rot, unpicklable garbage) — quarantined
        # below and reported distinctly as a corruption, never re-raised
        except Exception:
            _log.warning(
                "corrupt cache blob %s… in %s; quarantining and re-running",
                key[:24],
                self.store.url,
            )
            try:
                self.store.quarantine(key)
            # repro: allow[exc-swallow] quarantine is best-effort — the
            # corruption is already counted and this load stays a miss
            except StoreError:
                pass
            return None, True, None

    def _cache_store(
        self, key: Optional[str], task: SweepTask, run: PolicyRun
    ) -> Tuple[Optional[str], Dict[str, float]]:
        """Publish one cache entry; ``(blob digest, store-phase timings)``."""
        if key is None or self.store is None:
            return None, {}
        records = run.records
        recorder = run.trace
        if records is not None or recorder is not None:
            # Records and traces are published as their own blobs (below);
            # the run payload is pickled without them so a cached run blob
            # stays byte-identical whether or not analytics/trace was on.
            run = replace(run, records=None, trace=None)
        payload = {
            "format": CACHE_FORMAT_VERSION,
            "key": task.resolved_key(),
            "policy": task.policy,
            "seed": task.resolved_seed(),
            "kwargs": _canonical_kwargs(task.kwargs),
            "workload": task.workload.name,
            "run": run,
        }
        phases: Dict[str, float] = {}
        # The envelope records a SHA-256 over the pickled payload, so a
        # truncated or bit-rotted blob is detected on read (`store verify`
        # re-checks at rest); stores publish atomically, so concurrent
        # sweeps sharing one backend never observe a torn entry.  Readers
        # predating the envelope quarantine enveloped blobs as corrupt —
        # clients sharing a store must run the same version (the shard
        # manifest format bump enforces this for sharded fan-outs).
        serialize_started = time.perf_counter()
        enveloped, digest = wrap_blob(
            # repro: allow[store-pickle] the cache codec itself — wrapped in
            # the integrity envelope and published through ResultStore
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )
        phases["serialize"] = time.perf_counter() - serialize_started
        put_started = time.perf_counter()
        self.store.put(key, enveloped)
        phases["store_put"] = time.perf_counter() - put_started
        if records is not None:
            records.meta.setdefault("task_key", task.resolved_key())
            records.meta.setdefault("kwargs", _canonical_kwargs(task.kwargs))
            publish_run_records(self.store, key, records, run_digest=digest)
        if recorder is not None:
            publish_trace(
                self.store,
                key,
                recorder,
                run_digest=digest,
                phases={**run.phases, **phases},
            )
        return digest, phases

    def _lacks_attachment(self, task: SweepTask, key: str) -> bool:
        """Whether the store lacks an attachment ``task`` asks for."""
        return any(
            getattr(task, flag) and not self.store.exists(kind.key(key))
            for flag, kind in ATTACHMENT_FLAGS
        )

    # ------------------------------------------------------------------ #
    def run(self, tasks: Sequence[SweepTask]) -> SweepResult:
        """Execute every task and return their results in task order.

        With a partial executor (a shard), only the tasks finished so far
        are returned and ``result.complete`` is ``False``; any other
        executor must finish the whole plan.
        """
        tasks = list(tasks)
        flags = {flag: True for flag, _kind in ATTACHMENT_FLAGS if getattr(self, flag)}
        if flags:
            tasks = [replace(task, **flags) for task in tasks]
        keys = [task.resolved_key() for task in tasks]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate sweep task keys: {dupes}")

        started = time.perf_counter()
        total = len(tasks)
        done = 0
        entries: List[Optional[SweepEntry]] = [None] * total
        misses: List[int] = []
        corrupt_indices: List[int] = []
        shard_corruptions: List[int] = [0]
        cache_keys = [self._cache_key(task) for task in tasks]
        digests: Dict[int, Optional[str]] = {}

        # A merge executes nothing, so a run lacking an attachment stays a hit.
        probe_attachments = not isinstance(self.executor, MergeExecutor)
        for index, task in enumerate(tasks):
            cached, was_corrupt, digest = self._cache_load(cache_keys[index])
            if was_corrupt:
                corrupt_indices.append(index)
            if (
                cached is not None
                and probe_attachments
                and self._lacks_attachment(task, cache_keys[index])
            ):
                _log.debug("task %s lacks a requested attachment; re-running", keys[index])
                cached = None
            if cached is not None:
                _log.debug("cache hit for task %s", keys[index])
                digests[index] = digest
                entries[index] = SweepEntry(
                    key=keys[index], run=cached, from_cache=True, wall_clock_seconds=0.0
                )
                done += 1
                if self.progress is not None:
                    self.progress(done, total, entries[index])
            else:
                misses.append(index)

        workers = min(self.max_workers, max(1, len(misses)))

        def complete(index: int, run: PolicyRun, elapsed: float) -> None:
            nonlocal done
            digest, store_phases = self._cache_store(
                cache_keys[index], tasks[index], run
            )
            digests[index] = digest
            phases = dict(run.phases)
            phases.update(store_phases)
            entry = SweepEntry(
                key=keys[index],
                run=run,
                from_cache=False,
                wall_clock_seconds=elapsed,
                phases=phases,
            )
            entries[index] = entry
            done += 1
            if self.progress is not None:
                self.progress(done, total, entry)

        def note_corruptions(count: int) -> None:
            shard_corruptions[0] += count

        executor = self.executor or default_executor(self.max_workers, len(misses))
        executor.execute(
            ExecutionPlan(
                tasks=tasks,
                keys=keys,
                cache_keys=cache_keys,
                store=self.store,
                pending=misses,
                complete=complete,
                max_workers=self.max_workers,
                corrupt=corrupt_indices,
                note_corruptions=note_corruptions,
                digests=digests,
            )
        )

        finished = [entry for entry in entries if entry is not None]
        if len(finished) != total and not executor.partial:
            unfinished = [keys[i] for i, e in enumerate(entries) if e is None]
            raise ExecutorError(
                f"executor {type(executor).__name__} left task(s) unfinished: "
                f"{unfinished}"
            )
        return SweepResult(
            entries=finished,
            total_wall_clock_seconds=time.perf_counter() - started,
            workers=workers,
            complete=len(finished) == total,
            total_tasks=total,
            cache_corruptions=len(corrupt_indices) + shard_corruptions[0],
        )
