"""Tests for the pluggable result-store subsystem (:mod:`repro.store`).

The heart of this module is a backend-interchangeability suite: every test
parametrised over ``store_url`` runs identically against a local directory
(:class:`LocalFSStore`) and the in-process :class:`MemoryStore` — the same
sweep must yield byte-identical results through both, including
shard → merge round-trips and the rerun that overwrites a corrupt blob.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import re
import time

import pytest

from repro.cli import main
from repro.experiments.executors import ExecutorError, MergeExecutor, ShardedExecutor
from repro.experiments.sweep import SweepRunner, SweepTask, encode_run, task_cache_key
from repro.store import (
    BlobIntegrityError,
    LocalFSStore,
    MemoryStore,
    StoreError,
    default_cache_dir,
    gc,
    open_store,
    parse_age,
    resolve_store,
    unwrap_blob,
    verify,
    wrap_blob,
)
from repro.telemetry.trace import trace_key
from repro.workloads.cirne import CirneWorkloadModel

BACKENDS = ("localfs", "memory")


def _slug(text: str) -> str:
    return re.sub(r"\W+", "-", text).strip("-")[-80:]


@pytest.fixture(params=BACKENDS)
def store_url(request, tmp_path):
    """A fresh store URL per test, for every backend."""
    if request.param == "localfs":
        yield f"file://{tmp_path / 'store'}"
    else:
        slug = _slug(request.node.nodeid)
        yield f"memory://{slug}"
        MemoryStore.reset(slug)


@pytest.fixture(scope="module")
def workload():
    return CirneWorkloadModel(
        num_jobs=40, system_nodes=16, cpus_per_node=8, max_job_nodes=8,
        target_load=1.0, median_runtime_s=1800.0, seed=11, name="store_test",
    ).generate()


@pytest.fixture(scope="module")
def tasks(workload):
    """Five tasks so a 2-way shard split is uneven (3 + 2)."""
    maxsd = [
        SweepTask(
            workload=workload, policy="sd_policy", key=f"MAXSD {m}", seed=0,
            kwargs={"runtime_model": "ideal", "max_slowdown": float(m),
                    "sharing_factor": 0.5},
        )
        for m in (5, 10, 50, 100)
    ]
    return [
        SweepTask(workload=workload, policy="static_backfill", key="static",
                  seed=0, kwargs={"runtime_model": "ideal"})
    ] + maxsd


@pytest.fixture(scope="module")
def golden(tasks):
    """The uncached single-process result every backend must reproduce."""
    return SweepRunner(max_workers=1).run(tasks)


@pytest.fixture(scope="module")
def golden_blobs(tasks, golden):
    """The run blob every execution path must store for each task."""
    return {key: wrap_blob(payload)[0] for key, payload in _run_bytes(golden, tasks).items()}


def _run_bytes(result, tasks):
    """Each entry's run blob payload, as the sweep stores it."""
    by_key = {task.resolved_key(): task for task in tasks}
    return {entry.key: encode_run(by_key[entry.key], entry.run) for entry in result.entries}


def _stored_blobs(store, tasks):
    """The stored bytes of each task's run blob."""
    return {task.resolved_key(): store.get(task_cache_key(task)) for task in tasks}


# --------------------------------------------------------------------- #
# Protocol semantics, per backend
# --------------------------------------------------------------------- #
class TestProtocol:
    def test_blob_roundtrip(self, store_url):
        store = open_store(store_url)
        assert store.get("k1") is None
        assert not store.exists("k1")
        store.put("k1", b"payload")
        assert store.get("k1") == b"payload"
        assert store.exists("k1")
        store.put("k1", b"replaced")  # overwrite is an atomic replace
        assert store.get("k1") == b"replaced"
        assert store.list() == ["k1"]
        assert store.delete("k1") is True
        assert store.delete("k1") is False
        assert store.list() == []

    def test_list_filters_by_prefix(self, store_url):
        store = open_store(store_url)
        for key in ("aa1", "aa2", "bb1"):
            store.put(key, b"x")
        assert store.list("aa") == ["aa1", "aa2"]
        assert store.list() == ["aa1", "aa2", "bb1"]

    def test_manifest_roundtrip(self, store_url):
        store = open_store(store_url)
        assert store.read_manifest("m1") is None
        store.write_manifest("m1", {"shard": 1, "tasks": ["a", "b"]})
        assert store.read_manifest("m1") == {"shard": 1, "tasks": ["a", "b"]}
        store.write_manifest("m2", {"shard": 2})
        assert store.list_manifests() == ["m1", "m2"]
        assert store.list_manifests("m1") == ["m1"]
        assert store.delete_manifest("m1") is True
        assert store.list_manifests() == ["m2"]

    def test_manifests_do_not_leak_into_blob_namespace(self, store_url):
        store = open_store(store_url)
        store.put("blob", b"x")
        store.write_manifest("doc", {"a": 1})
        assert store.list() == ["blob"]
        assert store.list_manifests() == ["doc"]

    def test_stat_and_stats(self, store_url):
        store = open_store(store_url)
        store.put("k", b"12345")
        store.write_manifest("m", {"a": 1})
        stat = store.stat("k")
        assert stat is not None and stat.size == 5
        assert store.stat("missing") is None
        stats = store.stats()
        assert stats.blobs == 1 and stats.blob_bytes == 5
        assert stats.manifests == 1 and stats.manifest_bytes > 0

    def test_same_url_sees_same_objects(self, store_url):
        open_store(store_url).put("shared", b"v")
        assert open_store(store_url).get("shared") == b"v"

    def test_stats_uses_listing_metadata_not_per_object_stats(self, store_url):
        """``stats()`` over N objects takes one ``_entries`` pass, never N
        ``_stat`` probes."""
        store = open_store(store_url)
        for key in ("s1", "s2", "s3"):
            store.put(key, b"12345")
        store.write_manifest("m", {"a": 1})

        def banned(name):  # pragma: no cover - only fires on regression
            raise AssertionError(f"per-object _stat({name!r}) during stats()")

        store._stat = banned
        stats = store.stats()
        assert stats.blobs == 3 and stats.blob_bytes == 15
        assert stats.manifests == 1

    def test_listings_skip_other_namespaces(self, store_url):
        """``list``/``list_manifests`` each see only their own namespace:
        stray ``*.tmp`` debris and the ``*.pkl.corrupt`` files older
        versions moved bad blobs to are never listed or counted."""
        store = open_store(store_url)
        for key in ("aa1", "bb2"):
            store.put(key, b"x")
        store._write("gone.pkl.corrupt", b"left by an older version")
        store.write_manifest("m1", {"tasks": []})
        store.write_manifest("trace-x", {"a": 1})
        store._write("stray.tmp", b"crashed write")
        store._write("manifests/stray.tmp", b"crashed write")
        assert store.list() == ["aa1", "bb2"]
        assert store.list("a") == ["aa1"]
        assert store.stats().blobs == 2
        assert store.list_manifests() == ["m1", "trace-x"]
        assert store.list_manifests("trace-") == ["trace-x"]

    def test_put_overwrites_in_place(self, store_url):
        """A rerun's ``put`` replaces a bad blob whole, under its key: one
        object holding the new bytes, and no temp debris beside it."""
        store = open_store(store_url)
        store.put("k", b"torn")
        store.put("k", b"recomputed")
        assert store.get("k") == b"recomputed"
        assert [name for name, _ in store._entries()] == ["k.pkl"]
        stats = store.stats()
        assert stats.blobs == 1 and stats.blob_bytes == len(b"recomputed")

    def test_failed_overwrite_keeps_the_old_blob(self, tmp_path, monkeypatch):
        """An overwrite that fails before its rename (a full disk) raises a
        StoreError and leaves the old blob whole, with no temp debris: a
        reader sees the old bytes or the new, never a torn mix."""
        store = LocalFSStore(tmp_path)
        store.put("k", b"old bytes")

        def full_disk(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(StoreError, match="cannot write 'k.pkl'"):
            store.put("k", b"new bytes")
        monkeypatch.undo()
        assert store.get("k") == b"old bytes"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["k.pkl"]


# --------------------------------------------------------------------- #
# Backend interchangeability for sweeps
# --------------------------------------------------------------------- #
class TestSweepInterchangeability:
    def test_sweep_is_byte_identical_through_every_backend(
        self, store_url, tasks, golden, golden_blobs
    ):
        first = SweepRunner(max_workers=1, store=store_url).run(tasks)
        assert first.cache_hits == 0
        assert _stored_blobs(open_store(store_url), tasks) == golden_blobs
        second = SweepRunner(max_workers=1, store=store_url).run(tasks)
        assert second.cache_hits == len(tasks)
        assert _run_bytes(first, tasks) == _run_bytes(golden, tasks)
        # A cache hit decodes to a run that encodes back to the stored bytes.
        assert _run_bytes(second, tasks) == _run_bytes(golden, tasks)

    def test_every_execution_path_stores_the_same_blob_sha256(
        self, tmp_path, tasks, golden_blobs, caplog
    ):
        """Two fresh runs, one and two workers, a serial run and a 2-shard
        run plus merge, and a fresh run and a re-run all store blobs with
        the same SHA-256: a blob holds no timing and no pickle memo.  So a
        flipped byte is a miss on every path, and the rerun stores the
        same SHA-256 again; a flipped trace blob likewise, under a trace."""

        def digests(store):
            return {
                key: hashlib.sha256(blob).hexdigest()
                for key, blob in _stored_blobs(store, tasks).items()
            }

        def flip(store, key):
            data = store.get(key)
            store.put(key, data[:-1] + bytes([data[-1] ^ 0xFF]))

        def shard_then_merge(store):
            shards = [
                SweepRunner(max_workers=1, store=store, executor=ShardedExecutor(i, 2)).run(tasks)
                for i in range(2)
            ]
            assert SweepRunner(max_workers=1, store=store, executor=MergeExecutor()).run(
                tasks
            ).complete
            return shards

        serial, again, rerun = MemoryStore(), MemoryStore(), MemoryStore()
        pooled = LocalFSStore(tmp_path / "pooled")
        sharded = LocalFSStore(tmp_path / "sharded")
        paths = [
            (serial, lambda: [SweepRunner(max_workers=1, store=serial).run(tasks)]),
            (again, lambda: [SweepRunner(max_workers=1, store=again).run(tasks)]),
            (pooled, lambda: [SweepRunner(max_workers=2, store=pooled).run(tasks)]),
            (sharded, lambda: shard_then_merge(sharded)),
            # A traced sweep re-executes every cached run that lacks its
            # trace and overwrites its blob.
            (rerun, lambda: [SweepRunner(max_workers=1, store=rerun, trace=True).run(tasks)]),
        ]
        SweepRunner(max_workers=1, store=rerun).run(tasks)
        for _store, path in paths:
            path()
        expected = {key: hashlib.sha256(blob).hexdigest() for key, blob in golden_blobs.items()}
        for store, _path in paths:
            assert digests(store) == expected, store.url

        victims = [task_cache_key(task) for task in tasks[:2]]  # one per shard
        for store, path in paths:
            for key in victims:
                flip(store, key)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="repro.experiments.sweep"):
                results = path()
            executed = sum(not e.from_cache for result in results for e in result.entries)
            assert executed == len(victims), store.url
            assert digests(store) == expected, store.url
            warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
            assert all(any(key in line for line in warned) for key in victims), warned

        traced = trace_key(task_cache_key(tasks[2]))
        trace_sha256 = hashlib.sha256(rerun.get(traced)).hexdigest()
        flip(rerun, traced)
        assert SweepRunner(max_workers=1, store=rerun, trace=True).run(tasks).cache_hits == (
            len(tasks) - 1
        )
        assert hashlib.sha256(rerun.get(traced)).hexdigest() == trace_sha256
        assert digests(rerun) == expected

    def test_shard_merge_round_trip_is_byte_identical(
        self, store_url, tasks, golden
    ):
        for i in range(2):
            partial = SweepRunner(
                max_workers=1, store=store_url, executor=ShardedExecutor(i, 2)
            ).run(tasks)
            assert not partial.complete or i == 1
        merged = SweepRunner(
            max_workers=1, store=store_url, executor=MergeExecutor()
        ).run(tasks)
        assert merged.complete
        assert [e.key for e in merged.entries] == [t.resolved_key() for t in tasks]
        assert _run_bytes(merged, tasks) == _run_bytes(golden, tasks)
        store = open_store(store_url)
        assert len(store.list()) == len(tasks)
        assert len(store.list_manifests()) == 2

    def test_corrupt_blob_is_a_miss_the_rerun_overwrites(
        self, store_url, tasks, golden, golden_blobs
    ):
        SweepRunner(max_workers=1, store=store_url).run(tasks)
        store = open_store(store_url)
        victim = task_cache_key(tasks[0])
        store.put(victim, b"\x80\x04 torn write")
        result = SweepRunner(max_workers=1, store=store_url).run(tasks)
        assert result.cache_hits == len(tasks) - 1
        assert store.get(victim) == golden_blobs[tasks[0].resolved_key()]
        assert _run_bytes(result, tasks) == _run_bytes(golden, tasks)
        # The rewrite healed the entry: the next pass is all hits.
        third = SweepRunner(max_workers=1, store=store_url).run(tasks)
        assert third.cache_hits == len(tasks)

    def test_undecodable_header_is_a_miss_the_rerun_overwrites(
        self, store_url, tasks, golden, golden_blobs, caplog
    ):
        """A blob whose envelope verifies but whose header does not decode
        (a row count that disagrees with the row bytes) is a miss like a
        failed digest: warned by its key, then overwritten by the rerun."""
        SweepRunner(max_workers=1, store=store_url).run(tasks)
        store = open_store(store_url)
        victim = task_cache_key(tasks[1])
        payload, _ = unwrap_blob(store.get(victim))
        end = payload.index(b"\n")
        header = json.loads(payload[:end])
        header["rows"] += 1
        store.put(victim, wrap_blob(json.dumps(header).encode() + payload[end:])[0])
        with caplog.at_level(logging.WARNING, logger="repro.experiments.sweep"):
            result = SweepRunner(max_workers=1, store=store_url).run(tasks)
        assert result.cache_hits == len(tasks) - 1
        warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warned) == 1 and victim in warned[0] and "'rows'" in warned[0]
        assert store.get(victim) == golden_blobs[tasks[1].resolved_key()]
        assert _run_bytes(result, tasks) == _run_bytes(golden, tasks)

    def test_rerun_of_the_owning_shard_heals_a_corrupt_blob(
        self, store_url, tasks, golden
    ):
        """A merge over a corrupt blob names the shard that owns it; that
        shard's rerun overwrites the blob and the merge then succeeds."""
        for i in range(2):
            SweepRunner(
                max_workers=1, store=store_url, executor=ShardedExecutor(i, 2)
            ).run(tasks)
        store = open_store(store_url)
        victim = task_cache_key(tasks[0])  # owned by shard 1/2
        store.put(victim, b"not a run blob")
        merge = SweepRunner(max_workers=1, store=store_url, executor=MergeExecutor())
        with pytest.raises(ExecutorError, match=f"cache key {victim}\\): re-run shard 1/2"):
            merge.run(tasks)
        rerun = SweepRunner(
            max_workers=1, store=store_url, executor=ShardedExecutor(0, 2)
        ).run(tasks)
        assert [e.key for e in rerun.entries if not e.from_cache] == [tasks[0].resolved_key()]
        merged = merge.run(tasks)
        assert merged.complete
        assert _run_bytes(merged, tasks) == _run_bytes(golden, tasks)

    def test_other_shards_leave_a_corrupt_blob_to_its_owner(
        self, store_url, tasks, golden_blobs, caplog
    ):
        """Every shard probes the whole sweep but executes only its own
        tasks: a shard that does not own a corrupt blob warns and leaves
        it, and only the owner's rerun overwrites it."""
        for i in range(2):
            SweepRunner(
                max_workers=1, store=store_url, executor=ShardedExecutor(i, 2)
            ).run(tasks)
        store = open_store(store_url)
        victim = task_cache_key(tasks[1])  # owned by shard 2/2
        torn = store.get(victim)[:-1]
        store.put(victim, torn)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.sweep"):
            other = SweepRunner(
                max_workers=1, store=store_url, executor=ShardedExecutor(0, 2)
            ).run(tasks)
        assert all(e.from_cache for e in other.entries)
        assert any(victim in r.getMessage() for r in caplog.records)
        assert store.get(victim) == torn
        owner = SweepRunner(
            max_workers=1, store=store_url, executor=ShardedExecutor(1, 2)
        ).run(tasks)
        assert [e.key for e in owner.entries if not e.from_cache] == [tasks[1].resolved_key()]
        assert store.get(victim) == golden_blobs[tasks[1].resolved_key()]

    def test_resume_after_lost_blob_reruns_only_that_task(self, store_url, tasks):
        runner = SweepRunner(
            max_workers=1, store=store_url, executor=ShardedExecutor(0, 2)
        )
        runner.run(tasks)
        store = open_store(store_url)
        owned = [t for i, t in enumerate(tasks) if i % 2 == 0]
        lost = owned[1]
        assert store.delete(task_cache_key(lost))
        events = []
        SweepRunner(
            max_workers=1, store=store_url, executor=ShardedExecutor(0, 2),
            progress=lambda done, total, e: events.append(e),
        ).run(tasks)
        executed = [e.key for e in events if not e.from_cache]
        assert executed == [lost.resolved_key()]


# --------------------------------------------------------------------- #
# URL dispatch and runner resolution
# --------------------------------------------------------------------- #
class TestOpenStore:
    def test_file_scheme_and_bare_path(self, tmp_path):
        for url in (f"file://{tmp_path}", str(tmp_path)):
            store = open_store(url)
            assert isinstance(store, LocalFSStore)
            assert store.root == tmp_path

    def test_memory_scheme_is_shared_per_name(self):
        try:
            a = open_store("memory://shared-test")
            b = open_store("memory://shared-test")
            c = open_store("memory://other-test")
            assert a is b and a is not c
        finally:
            MemoryStore.reset("shared-test")
            MemoryStore.reset("other-test")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(StoreError, match="unknown store scheme"):
            open_store("ftp://host/path")

    def test_auto_selects_default_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path / "auto"))
        store = open_store("auto")
        assert store.root == tmp_path / "auto"

    def test_resolve_precedence(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_URL", f"file://{tmp_path / 'env'}")
        try:
            explicit = resolve_store(store="memory://precedence")
            assert isinstance(explicit, MemoryStore)
            via_path = resolve_store(store=tmp_path / "dir")
            assert via_path.root == tmp_path / "dir"
            via_env = resolve_store()
            assert via_env.root == tmp_path / "env"
            monkeypatch.delenv("REPRO_STORE_URL")
            assert resolve_store() is None
        finally:
            MemoryStore.reset("precedence")

    def test_runner_picks_up_store_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_URL", f"file://{tmp_path / 'envcache'}")
        runner = SweepRunner(max_workers=1)
        assert isinstance(runner.store, LocalFSStore)
        assert runner.store.root == tmp_path / "envcache"

    def test_store_instance_passes_through(self, tmp_path):
        store = LocalFSStore(tmp_path)
        assert resolve_store(store=store) is store
        assert SweepRunner(max_workers=1, store=store).store is store


class TestDefaultCacheDir:
    def test_explicit_env_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path / "explicit"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "explicit"

    def test_xdg_cache_home_honoured(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro" / "sweeps"

    def test_home_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / ".cache" / "repro" / "sweeps"


# --------------------------------------------------------------------- #
# Ages: the gc grace period
# --------------------------------------------------------------------- #
class TestParseAge:
    @pytest.mark.parametrize(
        "text,seconds",
        [("90s", 90.0), ("45m", 2700.0), ("12h", 43200.0), ("30d", 2592000.0),
         ("2w", 1209600.0), ("7", 604800.0), ("1.5h", 5400.0)],
    )
    def test_parse_age(self, text, seconds):
        assert parse_age(text) == seconds

    @pytest.mark.parametrize("bad", ["", "x", "-3d", "3y", "d"])
    def test_parse_age_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_age(bad)


# --------------------------------------------------------------------- #
# Blob integrity envelopes
# --------------------------------------------------------------------- #
class TestEnvelope:
    def test_roundtrip(self):
        data, digest = wrap_blob(b"payload")
        payload, got = unwrap_blob(data)
        assert payload == b"payload"
        assert got == digest == hashlib.sha256(b"payload").hexdigest()

    def test_legacy_blob_is_rejected(self):
        """A blob without the envelope (the layout before envelopes) no
        longer passes through: it fails, naming the missing envelope."""
        raw = pickle.dumps({"format": 2})
        with pytest.raises(BlobIntegrityError, match="no repro-blob/1 integrity envelope"):
            unwrap_blob(raw)

    def test_flipped_payload_byte_rejected(self):
        enveloped, _ = wrap_blob(b"payload")
        tampered = enveloped[:-1] + bytes([enveloped[-1] ^ 0xFF])
        with pytest.raises(BlobIntegrityError, match="digest mismatch"):
            unwrap_blob(tampered)

    def test_truncation_rejected(self):
        with pytest.raises(BlobIntegrityError, match="truncated"):
            unwrap_blob(wrap_blob(b"payload")[0][:-2])

    def test_missing_header_terminator_rejected(self):
        with pytest.raises(BlobIntegrityError, match="no header terminator"):
            unwrap_blob(b"repro-blob/1 sha256=" + b"0" * 64)

    def test_future_envelope_version_rejected(self):
        data = b"repro-blob/99 sha256=" + b"0" * 64 + b" size=1\nx"
        with pytest.raises(BlobIntegrityError, match="version 99"):
            unwrap_blob(data)

    def test_forged_digest_rejected_even_when_payload_parses(self):
        payload = pickle.dumps({"format": 2})
        forged = (
            b"repro-blob/1 sha256=" + b"0" * 64
            + f" size={len(payload)}\n".encode() + payload
        )
        with pytest.raises(BlobIntegrityError, match="digest mismatch"):
            unwrap_blob(forged)


# --------------------------------------------------------------------- #
# Lifecycle: gc / verify, across every backend
# --------------------------------------------------------------------- #
class TestLifecycle:
    def test_gc_never_deletes_manifest_referenced_blobs(
        self, store_url, tasks, golden
    ):
        """The acceptance path: gc on a half-finished sharded sweep deletes
        zero referenced blobs and the later merge is byte-identical."""
        SweepRunner(
            max_workers=1, store=store_url, executor=ShardedExecutor(0, 2)
        ).run(tasks)
        store = open_store(store_url)
        store.put("orphan", b"unreferenced bytes")
        owned = sorted(
            task_cache_key(t) for i, t in enumerate(tasks) if i % 2 == 0
        )
        stats = gc(store, grace_seconds=0.0, now=time.time() + 86400)
        assert stats.blobs_deleted == 1  # just the orphan, despite its age
        assert stats.kept_referenced == len(owned)
        assert stats.manifests_walked == 1
        assert store.list() == owned
        SweepRunner(
            max_workers=1, store=store_url, executor=ShardedExecutor(1, 2)
        ).run(tasks)
        merged = SweepRunner(
            max_workers=1, store=store_url, executor=MergeExecutor()
        ).run(tasks)
        assert merged.complete
        assert _run_bytes(merged, tasks) == _run_bytes(golden, tasks)

    def test_gc_dry_run_mutates_nothing(self, store_url, tasks):
        SweepRunner(
            max_workers=1, store=store_url, executor=ShardedExecutor(0, 2)
        ).run(tasks)
        store = open_store(store_url)
        store.put("orphan", b"unreferenced bytes")
        before = store._entries()
        stats = gc(store, grace_seconds=0.0, now=time.time() + 86400, dry_run=True)
        assert stats.blobs_deleted == 1
        assert store._entries() == before

    def test_gc_grace_protects_young_unreferenced_blobs(self, store_url):
        store = open_store(store_url)
        store.put("young", b"just written")
        stats = gc(store, grace_seconds=3600.0)
        assert stats.blobs_deleted == 0 and stats.kept_young == 1
        stats = gc(store, grace_seconds=0.0, now=time.time() + 10)
        assert stats.blobs_deleted == 1
        assert store.list() == []

    def test_gc_grace_is_an_age_cutoff(self, tmp_path):
        """In one pass, unreferenced blobs older than the grace period go
        and younger ones stay (a file store, where an age can be set)."""
        store = LocalFSStore(tmp_path)
        store.put("young", b"just written")
        store.put("old", b"x")
        stale = time.time() - 10 * 86400
        os.utime(store.blob_path("old"), (stale, stale))
        stats = gc(store, grace_seconds=parse_age("7d"))
        assert (stats.blobs_deleted, stats.kept_young) == (1, 1)
        assert store.list() == ["young"]

    def test_gc_leaves_files_of_older_versions_alone(self, store_url):
        """``*.pkl.corrupt`` files older versions moved bad blobs to are
        inert: gc does not touch them, and they can be deleted by hand."""
        store = open_store(store_url)
        store._write("bad.pkl.corrupt", b"left by an older version")
        gc(store, grace_seconds=0.0, now=time.time() + 86400)
        assert store._read("bad.pkl.corrupt") == b"left by an older version"

    def test_gc_treats_a_corrupt_blob_like_any_other(self, store_url, tasks):
        """gc neither hunts nor spares bad blobs: a corrupt blob a manifest
        references is kept for its shard's rerun to overwrite, and an
        unreferenced corrupt one goes like any unreferenced blob."""
        SweepRunner(
            max_workers=1, store=store_url, executor=ShardedExecutor(0, 2)
        ).run(tasks)
        store = open_store(store_url)
        referenced = task_cache_key(tasks[0])
        store.put(referenced, store.get(referenced)[:-1])
        store.put("orphan12", b"unreferenced and no envelope")
        stats = gc(store, grace_seconds=0.0, now=time.time() + 86400)
        assert stats.blobs_deleted == 1 and not store.exists("orphan12")
        assert store.exists(referenced)
        assert [entry["key"] for entry in verify(store).corrupt] == [referenced]

    def test_gc_sweeps_stale_tmp_files(self, tmp_path):
        """Crashed ``_write``s leak ``*.tmp`` files forever; gc reaps the
        ones older than the grace period (blob and manifest namespaces)."""
        store = LocalFSStore(tmp_path)
        store.put("young", b"x")
        store.write_manifest("m", {"tasks": []})
        stale = time.time() - 7200
        for leak in (tmp_path / "tmpleak1.tmp", store.manifest_dir / "tmpleak2.tmp"):
            leak.write_bytes(b"crashed write")
            os.utime(leak, (stale, stale))
        fresh = tmp_path / "tmpfresh.tmp"  # an in-flight write: must survive
        fresh.write_bytes(b"in flight")
        stats = gc(store)  # default 1h grace
        assert stats.temp_deleted == 2
        assert not (tmp_path / "tmpleak1.tmp").exists()
        assert not (store.manifest_dir / "tmpleak2.tmp").exists()
        assert fresh.exists()
        assert store.get("young") == b"x"

    def test_gc_refuses_unreadable_manifest(self, tmp_path):
        store = LocalFSStore(tmp_path)
        store.put("blob", b"x")
        (store.manifest_dir).mkdir(parents=True, exist_ok=True)
        (store.manifest_dir / "torn.json").write_bytes(b"{not json")
        with pytest.raises(StoreError, match="unreadable manifest"):
            gc(store, grace_seconds=0.0, now=time.time() + 86400)
        assert store.exists("blob")

    # ------------------------------------------------------------------ #
    def test_verify_reports_flipped_byte_blob_and_changes_nothing(self, store_url, tasks):
        SweepRunner(max_workers=1, store=store_url).run(tasks)
        store = open_store(store_url)
        victim = task_cache_key(tasks[0])
        data = store.get(victim)
        store.put(victim, data[:-1] + bytes([data[-1] ^ 0xFF]))
        before = store._entries()
        report = verify(store)
        assert not report.clean
        assert [entry["key"] for entry in report.corrupt] == [victim]
        assert report.ok == len(tasks) - 1
        assert store._entries() == before
        assert store.get(victim) == data[:-1] + bytes([data[-1] ^ 0xFF])
        deleting = verify(store, delete=True)
        assert [entry["key"] for entry in deleting.corrupt] == [victim]
        assert store.get(victim) is None
        again = verify(store)
        assert again.clean and again.checked == len(tasks) - 1

    def test_verify_delete_removes_only_bad_blobs(self, store_url, tasks, golden_blobs):
        """``verify(delete=True)`` removes each blob failing its envelope and
        nothing else, manifests included; the next sweep reruns exactly
        those tasks and stores their clean bytes again."""
        for i in range(2):
            SweepRunner(
                max_workers=1, store=store_url, executor=ShardedExecutor(i, 2)
            ).run(tasks)
        store = open_store(store_url)
        truncated, bare = task_cache_key(tasks[1]), task_cache_key(tasks[2])
        store.put(truncated, store.get(truncated)[:-3])
        store.put(bare, unwrap_blob(store.get(bare))[0])  # no envelope
        manifests = {name: store.read_manifest(name) for name in store.list_manifests()}
        report = verify(store, delete=True)
        assert sorted(entry["key"] for entry in report.corrupt) == sorted([truncated, bare])
        assert report.ok == len(tasks) - 2
        assert store.get(truncated) is None and store.get(bare) is None
        assert {name: store.read_manifest(name) for name in store.list_manifests()} == manifests
        assert verify(store).missing_referenced == sorted([truncated, bare])
        rerun = SweepRunner(max_workers=1, store=store_url).run(tasks)
        assert sorted(e.key for e in rerun.entries if not e.from_cache) == sorted(
            task.resolved_key() for task in tasks[1:3]
        )
        assert _stored_blobs(store, tasks) == golden_blobs
        assert verify(store).clean

    def test_cache_load_verifies_digest_on_read(self, store_url, tasks, golden):
        """A forged digest is caught by the read path even when the
        payload itself still decodes — the sweep recomputes the task."""
        SweepRunner(max_workers=1, store=store_url).run(tasks)
        store = open_store(store_url)
        victim = task_cache_key(tasks[2])
        payload, _ = unwrap_blob(store.get(victim))
        forged = (
            b"repro-blob/1 sha256=" + b"0" * 64
            + f" size={len(payload)}\n".encode() + payload
        )
        store.put(victim, forged)
        result = SweepRunner(max_workers=1, store=store_url).run(tasks)
        assert result.cache_hits == len(tasks) - 1
        assert unwrap_blob(store.get(victim))[0] == payload
        assert _run_bytes(result, tasks) == _run_bytes(golden, tasks)

    def test_pre_envelope_blobs_are_misses(self, store_url, tasks, golden):
        """Blobs written before the envelope existed no longer load: verify
        reports them as corrupt, and a sweep reads every one as a miss and
        recomputes it, byte-identical to the uncached golden run."""
        SweepRunner(max_workers=1, store=store_url).run(tasks)
        store = open_store(store_url)
        keys = sorted(store.list())
        for key in keys:
            payload, _ = unwrap_blob(store.get(key))
            store.put(key, payload)  # the pre-envelope on-disk layout
        report = verify(store)
        assert not report.clean and report.ok == 0
        assert sorted(entry["key"] for entry in report.corrupt) == keys
        assert all("integrity envelope" in entry["error"] for entry in report.corrupt)
        result = SweepRunner(max_workers=1, store=store_url).run(tasks)
        assert result.cache_hits == 0
        assert _run_bytes(result, tasks) == _run_bytes(golden, tasks)
        assert verify(store).clean

    def test_verify_reports_drift_against_manifest_digest(self, tmp_path):
        store = LocalFSStore(tmp_path)
        key = "a" * 8
        blob, digest = wrap_blob(b"original payload")
        store.put(key, blob)
        store.write_manifest(
            "sweep.shard-1-of-1",
            {"tasks": [{"cache_key": key, "digest": digest, "status": "done"}]},
        )
        replacement, other_digest = wrap_blob(b"recomputed payload")
        store.put(key, replacement)
        report = verify(store)
        assert report.clean  # drift is informational, never deleted
        assert report.drift == [
            {"key": key, "manifest": digest, "blob": other_digest}
        ]
        assert store.get(key) == replacement

    def test_verify_reports_missing_referenced_blobs(self, tmp_path):
        store = LocalFSStore(tmp_path)
        store.write_manifest(
            "sweep.shard-1-of-1",
            {"tasks": [{"cache_key": "gone" * 2, "status": "done"}]},
        )
        report = verify(store)
        assert report.missing_referenced == ["gone" * 2]


# --------------------------------------------------------------------- #
# CLI: --store threading and the store command group
# --------------------------------------------------------------------- #
class TestStoreCLI:
    def test_sweep_shard_merge_through_object_store(self, tmp_path, capsys):
        """The acceptance path: shard 0/2 + 1/2 against a ``file://`` store
        URL, merged with ``scenario figure1-3 --merge --store file://…``, byte-identical to
        a single-process run, with ``store stats`` seeing the blobs."""
        url = f"file://{tmp_path / 'shared'}"
        assert main(["scenario", "figure1-3", "--workload", "3", "--scale", "0.01",
                     "--workers", "1"]) == 0
        golden = capsys.readouterr().out
        for shard in ("1/2", "2/2"):
            assert main(["scenario", "figure1-3", "--workload", "3", "--scale", "0.01",
                         "--store", url, "--shard", shard]) == 0
            capsys.readouterr()
        assert main(["scenario", "figure1-3", "--workload", "3", "--scale", "0.01",
                     "--store", url, "--merge"]) == 0
        merged = capsys.readouterr().out
        assert merged == golden, "merged store-URL output diverged"
        assert main(["store", "stats", url]) == 0
        stats_out = capsys.readouterr().out
        assert "blobs:       6" in stats_out
        assert "manifests:   2" in stats_out

    def test_store_and_cache_dir_are_mutually_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "figure1-3", "--workload", "3", "--scale", "0.01",
                  "--store", "memory://x", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_shard_accepts_store_env(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("REPRO_STORE_URL", f"file://{tmp_path / 'env'}")
        assert main(["scenario", "figure1-3", "--workload", "3", "--scale", "0.01",
                     "--shard", "1/2"]) == 0
        assert "shard run finished" in capsys.readouterr().out
        assert (tmp_path / "env" / "manifests").is_dir()

    def test_gc_cli_dry_run_then_delete(self, tmp_path, capsys):
        store = LocalFSStore(tmp_path)
        store.put("orphan99", b"xx")
        stale = time.time() - 7200
        os.utime(store.blob_path("orphan99"), (stale, stale))
        assert main(["store", "gc", str(tmp_path), "--grace", "30d"]) == 0
        assert "deleted 0 unreferenced blob(s)" in capsys.readouterr().out
        assert main(["store", "gc", str(tmp_path), "--dry-run"]) == 0
        assert "would delete 1 unreferenced blob(s)" in capsys.readouterr().out
        assert store.exists("orphan99")
        assert main(["store", "gc", str(tmp_path)]) == 0
        assert "deleted 1 unreferenced blob(s)" in capsys.readouterr().out
        assert not store.exists("orphan99")

    def test_gc_cli_bad_grace_is_clean_error(self, tmp_path, capsys):
        assert main(["store", "gc", str(tmp_path), "--grace", "soon"]) == 2
        assert "invalid age" in capsys.readouterr().err

    def test_verify_cli_json_exit_code_and_delete(self, tmp_path, capsys):
        store = LocalFSStore(tmp_path)
        good, _ = wrap_blob(b"payload")
        store.put("goodblob", good)
        store.put("badblob1", good[:-1])  # truncated
        before = store._entries()
        assert main(["store", "verify", str(tmp_path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is False
        assert [entry["key"] for entry in report["corrupt"]] == ["badblob1"]
        assert report["ok"] == 1
        assert store._entries() == before  # verify alone changes nothing
        assert main(["store", "verify", str(tmp_path), "--delete"]) == 1
        assert "deleted badblob1" in capsys.readouterr().out
        assert store.list() == ["goodblob"]
        assert main(["store", "verify", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "corrupt:  0" in out and "ok:       1" in out

    def test_verify_cli_changes_no_byte_of_the_store(self, tmp_path, capsys, tasks):
        """Plain ``store verify`` is read-only: over a sharded store with a
        flipped byte it exits 1 naming the key, and every file, manifests
        included, keeps its bytes and its mtime."""
        SweepRunner(max_workers=1, store=tmp_path, executor=ShardedExecutor(0, 1)).run(tasks)
        store = LocalFSStore(tmp_path)
        victim = task_cache_key(tasks[0])
        data = store.get(victim)
        store.put(victim, data[:-1] + bytes([data[-1] ^ 0xFF]))

        def snapshot():
            return {
                str(path.relative_to(tmp_path)): (path.read_bytes(), path.stat().st_mtime_ns)
                for path in tmp_path.rglob("*")
                if path.is_file()
            }

        before = snapshot()
        assert main(["store", "verify", str(tmp_path)]) == 1
        assert f"  corrupt {victim}: " in capsys.readouterr().out
        assert snapshot() == before

    @pytest.mark.parametrize(
        "argv",
        [["repair", "--from", "mirror"], ["prune", "--older-than", "0s"],
         ["verify", "--dry-run"]],
        ids=["repair", "prune", "verify-dry-run"],
    )
    def test_removed_store_commands_are_usage_errors(self, tmp_path, capsys, argv):
        """``store repair`` and ``store prune`` are gone (a rerun heals a bad
        blob, and gc is the one eviction pass), and verify's ``--dry-run``
        became ``--delete``: each is a usage error that changes nothing."""
        store = LocalFSStore(tmp_path)
        store.put("k", b"x")
        before = store._entries()
        with pytest.raises(SystemExit) as excinfo:
            main(["store", argv[0], str(tmp_path), *argv[1:]])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments" in err
        assert store._entries() == before

    def test_merge_cli_over_a_corrupt_blob_names_the_key_and_shard(self, tmp_path, capsys):
        """``--merge`` executes nothing: over a flipped blob it exits 2
        naming the key and the shard that owns it, and changes no file.
        Re-running that shard heals the blob and the merge then matches a
        single-process run."""
        args = ["scenario", "figure1-3", "--workload", "3", "--scale", "0.01"]
        assert main(args + ["--workers", "1"]) == 0
        golden = capsys.readouterr().out
        root = tmp_path / "shared"
        args += ["--store", f"file://{root}"]
        for shard in ("1/2", "2/2"):
            assert main(args + ["--shard", shard]) == 0
        capsys.readouterr()
        store = LocalFSStore(root)
        victim = store.list()[0]
        clean = store.get(victim)
        store.put(victim, clean[:-1] + bytes([clean[-1] ^ 0xFF]))
        owner = next(
            manifest["shard_index"] + 1
            for manifest in map(store.read_manifest, store.list_manifests())
            if any(record.get("cache_key") == victim for record in manifest["tasks"])
        )
        before = {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}
        assert main(args + ["--merge"]) == 2
        err = capsys.readouterr().err
        assert f"(cache key {victim}): re-run shard {owner}/2" in err
        assert {path: path.read_bytes() for path in root.rglob("*") if path.is_file()} == before
        assert main(args + ["--shard", f"{owner}/2"]) == 0
        capsys.readouterr()
        assert store.get(victim) == clean
        assert main(args + ["--merge"]) == 0
        assert capsys.readouterr().out == golden

    def test_missing_url_is_clean_error(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_STORE_URL", raising=False)
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "stats"])
        assert excinfo.value.code == 2
        assert "REPRO_STORE_URL" in capsys.readouterr().err

    def test_unknown_scheme_is_clean_error(self, capsys):
        assert main(["store", "stats", "gopher://x"]) == 2
        assert "unknown store scheme" in capsys.readouterr().err

    def test_s3_scheme_is_rejected_cleanly(self, capsys):
        """Only local stores ship: an object-store URL is an unknown scheme,
        from the API and from the CLI alike (exit 2, no traceback)."""
        with pytest.raises(StoreError, match="unknown store scheme 's3\\+http'"):
            open_store("s3+http://h/p")
        assert main(["scenario", "figure1-3", "--workload", "3", "--scale", "0.01",
                     "--store", "s3+https://h/p"]) == 2
        captured = capsys.readouterr()
        assert "unknown store scheme 's3+https'" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
