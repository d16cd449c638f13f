"""How a sweep's cache misses run, and how a sweep is split into shards.

:class:`repro.experiments.sweep.SweepRunner` probes the cache and decides
which misses run; this module runs them:

* :func:`run_tasks` — runs a list of tasks, in process with one worker or
  over a fork pool with more, and reports every completion to the runner;
* :class:`ShardedExecutor` — runs only a deterministic ``1/N`` slice of
  the misses (through :func:`run_tasks`) and records progress in a
  resumable JSON *shard manifest* inside the result store, so one sweep
  can be split across machines (or cron ticks) and resumed after a kill;
* :class:`MergeExecutor` — runs nothing: it validates that every shard
  manifest of the sweep is complete and lets the runner assemble the full
  result from the shared cache, bit-identical to a single-process run.

Sharded execution relies on the runner's result store
(:mod:`repro.store` — a local or shared directory) as
the transport between invocations: every completed task is published
atomically to the store, the manifest records its key, cache key and
status, and a resumed or merging invocation turns completed tasks into
cache hits.  The manifest is advisory for resume (the cache probe is what
skips finished work) and authoritative for merge (a merge refuses to run
until all shards report ``done``).  Shards on different machines share
the store through a shared filesystem.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing
import os
import re
import sys
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures import ProcessPoolExecutor as _FuturesProcessPool
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.store import ResultStore, StoreError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.experiments.runner import PolicyRun
    from repro.experiments.sweep import SweepTask

_log = logging.getLogger(__name__)

#: Bump when the shard manifest layout changes; old manifests are rejected.
#: v2: manifests live in the result store, records carry ``cache_key``
#: (``cache_path`` only for local-FS stores) and the shard reports how many
#: corrupt entries it evicted.  v3: done records also carry ``digest``,
#: the SHA-256 content digest of the published cache blob (what ``store
#: verify`` cross-checks).  v4: a
#: top-level ``analytics`` flag recorded whether executed tasks published
#: a second copy of their per-job records.  v5: a top-level ``trace`` flag
#: records whether the shard records decision traces (executed tasks then
#: have traces published under ``trace-*`` manifests next to the cache).
#: v6: the ``analytics`` flag is gone — the run blob is the only stored
#: copy of a run's records, so every shard stores them.  v7: the corrupt
#: entry count is gone — an unreadable blob is an ordinary miss that the
#: rerun overwrites, so there is nothing to count.
MANIFEST_FORMAT_VERSION = 7

#: Declared field layout of a shard manifest and of each of its ``tasks``
#: records.  ``repro.devtools.formats`` fingerprints these into
#: ``formats.lock`` and fails CI when the layout changes without a
#: ``MANIFEST_FORMAT_VERSION`` bump; the manifest-layout tests pin them to
#: what ``ShardedExecutor`` actually writes.  ``cache_path`` is the one
#: optional record field (local-FS stores only).
MANIFEST_FIELDS = (
    "format",
    "sweep_id",
    "shard_index",
    "shard_count",
    "total_tasks",
    "store",
    "trace",
    "tasks",
)
MANIFEST_TASK_FIELDS = (
    "index",
    "key",
    "cache_key",
    "status",
    "from_cache",
    "wall_clock_seconds",
    "digest",
    "cache_path",
)



class SweepError(RuntimeError):
    """A sweep task failed in a worker.

    The worker's original traceback is preserved in :attr:`worker_traceback`
    and included in the exception message, so failures in a process pool are
    as debuggable as failures in the parent.
    """

    def __init__(self, key: str, message: str, worker_traceback: str = "") -> None:
        self.key = key
        self.worker_traceback = worker_traceback
        detail = f"sweep task {key!r} failed: {message}"
        if worker_traceback:
            detail += f"\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(detail)


class ExecutorError(RuntimeError):
    """Sharded execution state is unusable (missing cache, bad manifest…)."""


def resolve_worker_count(max_workers: Optional[int]) -> int:
    """Resolve an explicit/None worker count to a concrete value.

    An explicit value always wins; ``None`` reads ``REPRO_SWEEP_WORKERS``
    and falls back to the CPU count on Linux (fork) or ``1`` on spawn
    platforms, where a process pool inside a library call would re-import
    unguarded caller scripts.
    """
    if max_workers is None:
        env = os.environ.get("REPRO_SWEEP_WORKERS")
        if env:
            max_workers = int(env)
        elif sys.platform == "linux":
            max_workers = os.cpu_count() or 1
        else:
            max_workers = 1
    if max_workers < 1:
        raise ValueError("max_workers must be >= 1")
    return int(max_workers)


# --------------------------------------------------------------------- #
# Worker entry points (module level: must be picklable)
# --------------------------------------------------------------------- #
def _execute_task(task: "SweepTask") -> "PolicyRun":
    from repro.experiments.runner import run_workload

    return run_workload(
        task.workload,
        task.policy,
        label=task.label,
        seed=task.resolved_seed(),
        trace=getattr(task, "trace", False),
        **task.kwargs,
    )


def _worker(indexed_task: Tuple[int, "SweepTask"]) -> Tuple[int, str, Any]:
    index, task = indexed_task
    t0 = time.perf_counter()
    try:
        run = _execute_task(task)
        return index, "ok", (run, time.perf_counter() - t0)
    # repro: allow[exc-broad] worker failures must cross the process
    # boundary as data; the parent re-raises with the original traceback
    except Exception as exc:
        return index, "error", (f"{type(exc).__name__}: {exc}", traceback.format_exc())


def run_tasks(
    tasks: Sequence["SweepTask"],
    keys: Sequence[str],
    indices: Sequence[int],
    max_workers: int,
    complete: Callable[[int, "PolicyRun", float], None],
) -> None:
    """Run ``tasks[i]`` for every ``i`` in ``indices``.

    ``complete(index, run, elapsed)`` is called in the parent for every
    finished task.  With one worker (or at most one task) everything runs
    in-process, in order; otherwise the tasks fan out over a process pool.
    Fork shares the already-built workload objects cheaply, but is only
    safe on Linux (macOS frameworks may abort in forked children); the
    platform default start method is used everywhere else.  A failure
    raises :class:`SweepError` with the original traceback and cancels
    the queued remainder.
    """
    workers = min(max_workers, len(indices))
    if workers <= 1:
        for index in indices:
            t0 = time.perf_counter()
            try:
                run = _execute_task(tasks[index])
            except Exception as exc:
                raise SweepError(
                    keys[index], f"{type(exc).__name__}: {exc}", traceback.format_exc()
                ) from exc
            complete(index, run, time.perf_counter() - t0)
        return
    if sys.platform == "linux":
        context = multiprocessing.get_context("fork")
    else:
        context = multiprocessing.get_context()
    with _FuturesProcessPool(max_workers=workers, mp_context=context) as pool:
        try:
            futures = {
                pool.submit(_worker, (index, tasks[index])): index for index in indices
            }
            pending = set(futures)
            while pending:
                # _worker never raises, so wait for completions one batch at
                # a time: progress streams and failures cancel the remainder
                # as soon as they are observed.
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    index = futures[future]
                    exc = future.exception()
                    if exc is not None:
                        # Pool infrastructure failure (a killed worker…).
                        raise SweepError(keys[index], f"{type(exc).__name__}: {exc}")
                    got_index, status, payload = future.result()
                    if status == "error":
                        message, worker_tb = payload
                        _log.error(
                            "worker failed on task %s: %s", keys[got_index], message
                        )
                        raise SweepError(keys[got_index], message, worker_tb)
                    run, elapsed = payload
                    complete(got_index, run, elapsed)
        except BaseException:
            # Task failure or interrupt: drop everything still queued so the
            # pool winds down promptly and no orphaned work keeps writing
            # cache entries behind our back.
            pool.shutdown(wait=True, cancel_futures=True)
            raise


# --------------------------------------------------------------------- #
# Shard manifests
# --------------------------------------------------------------------- #
def parse_shard(value: str) -> Tuple[int, int]:
    """Parse a human ``I/N`` shard selector into ``(index, count)``.

    ``I`` is 1-based on the command line (``--shard 1/4`` … ``--shard
    4/4``); the returned index is 0-based.
    """
    match = re.fullmatch(r"(\d+)/(\d+)", value.strip())
    if not match:
        raise ValueError(f"shard must look like I/N (e.g. 1/4), got {value!r}")
    index, count = int(match.group(1)), int(match.group(2))
    if count < 1 or not 1 <= index <= count:
        raise ValueError(f"shard index must be within 1..{count}, got {value!r}")
    return index - 1, count


def sweep_id(cache_keys: Sequence[Optional[str]]) -> str:
    """Stable identifier of one sweep: a hash over its ordered cache keys.

    Cache keys are content hashes of workload + full run configuration, so
    two invocations that expand the same task list agree on the id without
    sharing any state but the result store.
    """
    h = hashlib.sha256()
    for key in cache_keys:
        if key is None:
            raise ExecutorError("sweep_id needs cache keys (enable a result store)")
        h.update(key.encode("utf-8"))
        h.update(b"|")
    return h.hexdigest()[:16]


def manifest_name(sweep: str, shard_index: int, shard_count: int) -> str:
    """Canonical manifest name for one shard of one sweep."""
    return f"{sweep}.shard-{shard_index + 1}-of-{shard_count}"


def _require_store(store: Optional[ResultStore], what: str) -> ResultStore:
    if store is None:
        raise ExecutorError(
            f"{what} requires a result store (pass store=, --cache-dir or "
            "--store): the store is the transport between shard invocations"
        )
    return store


class ShardedExecutor:
    """Execute one deterministic ``1/N`` slice of a sweep, resumably.

    Tasks are partitioned round-robin by task index (task ``i`` belongs to
    shard ``i % N``), so every invocation — any machine, any time — agrees
    on the split without coordination.  Completed tasks publish to the
    shared result store; the shard's manifest (an atomic JSON document in
    the same store) records each owned task's key, cache key and status
    after every completion, so a killed shard can simply be re-invoked:
    finished tasks come back as cache hits and only unfinished ones re-run.
    """

    def __init__(self, shard_index: int, shard_count: int) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if not 0 <= shard_index < shard_count:
            raise ValueError(
                f"shard_index must be within 0..{shard_count - 1}, got {shard_index}"
            )
        self.shard_index = shard_index
        self.shard_count = shard_count

    def owns(self, index: int) -> bool:
        return index % self.shard_count == self.shard_index

    # ------------------------------------------------------------------ #
    def run(
        self,
        store: Optional[ResultStore],
        tasks: Sequence["SweepTask"],
        keys: Sequence[str],
        cache_keys: Sequence[Optional[str]],
        misses: Sequence[int],
        digests: Dict[int, Optional[str]],
        max_workers: int,
        complete: Callable[[int, "PolicyRun", float], None],
    ) -> None:
        """Run the owned ``misses`` through :func:`run_tasks`.

        ``tasks``/``keys``/``cache_keys`` cover the whole sweep in task
        order.  ``digests`` is the runner's live map of task
        index to cache-blob digest — filled for cache hits up front and by
        ``complete`` for every finished task — recorded in the manifest.
        """
        if not tasks:
            return
        store = _require_store(store, "sharded execution")
        sweep = sweep_id(cache_keys)
        name = manifest_name(sweep, self.shard_index, self.shard_count)

        owned = [i for i in range(len(tasks)) if self.owns(i)]
        pending = [i for i in misses if self.owns(i)]
        pending_set = set(pending)
        records: Dict[int, Dict[str, Any]] = {}
        blob_path = getattr(store, "blob_path", None)
        for i in owned:
            records[i] = {
                "index": i,
                "key": keys[i],
                "cache_key": cache_keys[i],
                "status": "pending" if i in pending_set else "done",
                "from_cache": i not in pending_set,
                "wall_clock_seconds": 0.0,
                # Blob content digest (v3) — known up front for cache hits,
                # filled in on completion for freshly-executed tasks.
                "digest": digests.get(i),
            }
            if blob_path is not None:  # local-FS convenience for humans
                records[i]["cache_path"] = str(blob_path(cache_keys[i]))

        def write_manifest() -> None:
            store.write_manifest(
                name,
                {
                    "format": MANIFEST_FORMAT_VERSION,
                    "sweep_id": sweep,
                    "shard_index": self.shard_index,
                    "shard_count": self.shard_count,
                    "total_tasks": len(tasks),
                    "store": store.url,
                    # v5: whether this shard records decision traces
                    # (published as trace-* manifests next to the cache).
                    "trace": any(getattr(t, "trace", False) for t in tasks),
                    "tasks": [records[i] for i in owned],
                },
            )
            _log.debug("wrote shard manifest %s to %s", name, store.url)

        write_manifest()

        def complete_owned(index: int, run: "PolicyRun", elapsed: float) -> None:
            complete(index, run, elapsed)
            records[index].update(
                status="done",
                wall_clock_seconds=elapsed,
                digest=digests.get(index),
            )
            write_manifest()

        try:
            run_tasks(tasks, keys, pending, max_workers, complete_owned)
        except SweepError as err:
            for record in records.values():
                if record["key"] == err.key and record["status"] == "pending":
                    record["status"] = "failed"
            write_manifest()
            raise


class MergeExecutor:
    """Assemble a sharded sweep: validate every shard manifest, run nothing.

    A merge succeeds only when (a) the store's manifests hold one manifest
    per shard of this sweep, (b) every manifest reports every owned task
    ``done``, and (c) the cache already served every task (the runner found
    no misses, absent or unreadable).  The runner then returns the full
    :class:`SweepResult` straight from the cache — through the exact same
    assembly code as a single-process run, so the merged result is
    bit-identical to it.
    """

    def _load_manifests(self, store: ResultStore, sweep: str) -> List[Dict[str, Any]]:
        names = store.list_manifests(prefix=f"{sweep}.shard-")
        if not names:
            raise ExecutorError(
                f"no shard manifests for sweep {sweep} in {store.url}; "
                "run the shards first (--shard I/N with the same task list "
                "and result store)"
            )
        manifests = []
        for name in names:
            try:
                manifest = store.read_manifest(name)
            except StoreError as exc:
                raise ExecutorError(f"unreadable shard manifest {name}: {exc}") from exc
            if manifest is None:  # deleted between list and read
                continue
            if manifest.get("format") != MANIFEST_FORMAT_VERSION:
                raise ExecutorError(
                    f"shard manifest {name} has format "
                    f"{manifest.get('format')!r}; expected "
                    f"{MANIFEST_FORMAT_VERSION} (re-run the shards with this "
                    "version — completed tasks come back as cache hits)"
                )
            if manifest.get("sweep_id") != sweep:
                raise ExecutorError(f"shard manifest {name} is for another sweep")
            _check_manifest_fields(name, manifest)
            manifests.append(manifest)
        if not manifests:
            raise ExecutorError(
                f"no shard manifests for sweep {sweep} in {store.url}"
            )
        return manifests

    def check(
        self,
        store: Optional[ResultStore],
        keys: Sequence[str],
        cache_keys: Sequence[Optional[str]],
        misses: Sequence[int],
    ) -> None:
        """Validate the shard manifests against the runner's cache probe.

        ``misses`` are the task indices the cache did not serve, whether
        the blob is absent or unreadable; each is named with the shard
        that owns it, whose rerun recomputes it.
        """
        if not keys:
            return
        store = _require_store(store, "merging a sharded sweep")
        sweep = sweep_id(cache_keys)
        manifests = self._load_manifests(store, sweep)

        counts = {m["shard_count"] for m in manifests}
        if len(counts) != 1:
            raise ExecutorError(
                f"shard manifests disagree on the shard count: {sorted(counts)}"
            )
        count = counts.pop()
        seen = {m["shard_index"] for m in manifests}
        missing_shards = sorted(set(range(count)) - seen)
        if missing_shards:
            human = [f"{i + 1}/{count}" for i in missing_shards]
            raise ExecutorError(f"shard(s) {', '.join(human)} have not run yet")

        unfinished: List[str] = []
        covered: set = set()
        for manifest in manifests:
            for record in manifest["tasks"]:
                covered.add(record["key"])
                if record["status"] != "done":
                    unfinished.append(
                        f"{record['key']} ({record['status']}, "
                        f"shard {manifest['shard_index'] + 1}/{count})"
                    )
        if unfinished:
            raise ExecutorError(
                "cannot merge: unfinished shard tasks: " + "; ".join(sorted(unfinished))
            )
        uncovered = sorted(set(keys) - covered)
        if uncovered:
            raise ExecutorError(
                f"shard manifests do not cover task(s) {uncovered}; were the "
                "shards run with a different task list?"
            )
        if misses:
            owners = [
                f"{keys[i]} (cache key {cache_keys[i]}): re-run shard "
                f"{i % count + 1}/{count}"
                for i in misses
            ]
            raise ExecutorError(
                "cannot merge: manifests report every shard done but the store "
                "holds no readable blob for " + "; ".join(owners)
                + "; then merge again"
            )


def _check_manifest_fields(name: str, manifest: Dict[str, Any]) -> None:
    """Reject a shard manifest lacking a field the merge reads."""
    for field in ("shard_index", "shard_count", "tasks"):
        if field not in manifest:
            raise ExecutorError(f"shard manifest {name} lacks the {field!r} field")
    if not isinstance(manifest["tasks"], list):
        raise ExecutorError(f"shard manifest {name}: 'tasks' is not a list")
    for position, record in enumerate(manifest["tasks"]):
        for field in ("key", "status"):
            if not isinstance(record, dict) or field not in record:
                raise ExecutorError(
                    f"shard manifest {name}: task record {position} lacks "
                    f"the {field!r} field"
                )
