"""Tests for the pluggable result-store subsystem (:mod:`repro.store`).

The heart of this module is a backend-interchangeability suite: every test
parametrised over ``store_url`` runs identically against a local directory
(:class:`LocalFSStore`), the in-process :class:`MemoryStore` and an
:class:`HTTPObjectStore` talking to the in-process S3-compatible fake — the
same sweep must yield byte-identical results through all three, including
shard → merge round-trips and corrupt-blob quarantine.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import time

import pytest

from repro.cli import main
from repro.experiments.executors import MergeExecutor, ShardedExecutor
from repro.experiments.sweep import SweepRunner, SweepTask, task_cache_key
from repro.store import (
    BlobIntegrityError,
    HTTPObjectStore,
    LocalFSStore,
    MemoryStore,
    StoreError,
    default_cache_dir,
    gc,
    mirror,
    open_store,
    parse_age,
    prune,
    repair,
    resolve_store,
    unwrap_blob,
    verify,
    wrap_blob,
)
from repro.store.fake import ObjectStoreServer
from repro.workloads.cirne import CirneWorkloadModel

BACKENDS = ("localfs", "memory", "http")


@pytest.fixture(scope="module")
def server():
    with ObjectStoreServer() as srv:
        yield srv


def _slug(text: str) -> str:
    return re.sub(r"\W+", "-", text).strip("-")[-80:]


@pytest.fixture(params=BACKENDS)
def store_url(request, tmp_path, server):
    """A fresh store URL per test, for every backend."""
    slug = _slug(request.node.nodeid)
    if request.param == "localfs":
        yield f"file://{tmp_path / 'store'}"
    elif request.param == "memory":
        yield f"memory://{slug}"
        MemoryStore.reset(slug)
    else:
        yield server.store_url(slug)


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


def _run_bytes(result):
    """Canonical pickle bytes per run, with the legitimately
    non-deterministic fields (the run's own wall-clock timings) zeroed."""
    out = {}
    for entry in result.entries:
        clone = pickle.loads(pickle.dumps(entry.run))
        clone.wall_clock_seconds = 0.0
        clone.phases = {}
        out[entry.key] = pickle.dumps(clone)
    return out


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

    def test_quarantine_moves_blob_aside(self, store_url):
        store = open_store(store_url)
        store.put("bad", b"garbage")
        store.quarantine("bad")
        assert store.get("bad") is None
        assert store.list() == []
        assert store.list_quarantined() == ["bad"]
        assert store.delete_quarantined("bad") is True
        assert store.list_quarantined() == []

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
        assert stats.quarantined == 0

    def test_same_url_sees_same_objects(self, store_url):
        open_store(store_url).put("shared", b"v")
        assert open_store(store_url).get("shared") == b"v"

    def test_stats_uses_listing_metadata_not_per_object_stats(self, store_url):
        """``stats()`` over N objects must not fan out N ``_stat`` probes —
        on the HTTP backend that was one HEAD round-trip per object."""
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

    def test_interrupted_quarantine_is_idempotent(self):
        """A failed delete must not double-count the blob or lose the first
        evidence capture; re-quarantining finishes the job."""

        class FlakyDeleteStore(MemoryStore):
            fail_deletes = False

            def _delete(self, name):
                if self.fail_deletes:
                    raise StoreError(f"cannot delete {name!r}: injected")
                return super()._delete(name)

        store = FlakyDeleteStore("flaky-quarantine")
        store.put("bad", b"original evidence")
        store.fail_deletes = True
        with pytest.raises(StoreError, match="stays visible to readers"):
            store.quarantine("bad")
        # Half-quarantined: evidence captured, original still live…
        assert store.get("bad") == b"original evidence"
        assert store.list_quarantined() == ["bad"]
        # …but stats counts it once, as quarantined, not as a live blob too.
        stats = store.stats()
        assert stats.quarantined == 1 and stats.blobs == 0
        # A retry completes the move without rewriting the first capture.
        store.fail_deletes = False
        store.put("bad", b"rewritten by a racing reader")
        store.quarantine("bad")
        assert store.get("bad") is None
        assert store.get_quarantined("bad") == b"original evidence"

    def test_quarantine_of_missing_blob_is_noop(self, store_url):
        store = open_store(store_url)
        store.quarantine("never-existed")
        assert store.list_quarantined() == []

    def test_quarantine_never_rewrites_existing_evidence(self, store_url):
        """Contract shared by every backend (LocalFS renames, the default
        copies): the first evidence capture wins across re-quarantines."""
        store = open_store(store_url)
        store.put_quarantined("bad", b"first capture")
        store.put("bad", b"later corruption")
        store.quarantine("bad")
        assert store.get("bad") is None
        assert store.get_quarantined("bad") == b"first capture"


# --------------------------------------------------------------------- #
# Backend interchangeability for sweeps
# --------------------------------------------------------------------- #
class TestSweepInterchangeability:
    def test_sweep_is_byte_identical_through_every_backend(
        self, store_url, tasks, golden
    ):
        first = SweepRunner(max_workers=1, store=store_url).run(tasks)
        assert first.cache_hits == 0
        second = SweepRunner(max_workers=1, store=store_url).run(tasks)
        assert second.cache_hits == len(tasks)
        assert _run_bytes(first) == _run_bytes(golden)
        assert _run_bytes(second) == _run_bytes(golden)

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
        assert _run_bytes(merged) == _run_bytes(golden)
        store = open_store(store_url)
        assert len(store.list()) == len(tasks)
        assert len(store.list_manifests()) == 2

    def test_corrupt_blob_is_quarantined_and_recomputed(
        self, store_url, tasks, golden
    ):
        SweepRunner(max_workers=1, store=store_url).run(tasks)
        store = open_store(store_url)
        victim = task_cache_key(tasks[0])
        store.put(victim, b"\x80\x04 torn write")
        result = SweepRunner(max_workers=1, store=store_url).run(tasks)
        assert result.cache_hits == len(tasks) - 1
        assert result.cache_corruptions == 1
        assert store.list_quarantined() == [victim]
        assert _run_bytes(result) == _run_bytes(golden)
        # The rewrite healed the entry: no corruption on the next pass.
        third = SweepRunner(max_workers=1, store=store_url).run(tasks)
        assert third.cache_hits == len(tasks)
        assert third.cache_corruptions == 0

    def test_merge_reports_corruptions_quarantined_by_shards(
        self, store_url, tasks
    ):
        """A merged result's ``cache_corruptions`` covers what *any* shard
        evicted, not just the merging process's own (clean) probe."""
        for i in range(2):
            SweepRunner(
                max_workers=1, store=store_url, executor=ShardedExecutor(i, 2)
            ).run(tasks)
        store = open_store(store_url)
        victim = task_cache_key(tasks[0])  # owned by shard 0
        store.put(victim, b"not a pickle")
        # Shard 0 reruns: quarantines the torn entry, recomputes the task
        # and records the eviction in its manifest.
        rerun = SweepRunner(
            max_workers=1, store=store_url, executor=ShardedExecutor(0, 2)
        ).run(tasks)
        assert rerun.cache_corruptions == 1
        merged = SweepRunner(
            max_workers=1, store=store_url, executor=MergeExecutor()
        ).run(tasks)
        assert merged.complete
        assert merged.cache_corruptions == 1

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

    def test_s3_scheme(self):
        store = open_store("s3+http://example.invalid:9000/bucket/prefix")
        assert isinstance(store, HTTPObjectStore)
        assert store.base == "http://example.invalid:9000"
        assert store.prefix == "bucket/prefix/"

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
            via_cache_dir = resolve_store(cache_dir=tmp_path / "dir")
            assert via_cache_dir.root == tmp_path / "dir"
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
        assert runner.cache_dir == tmp_path / "envcache"

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
# Tools: parse_age / mirror / prune
# --------------------------------------------------------------------- #
class TestTools:
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

    def test_mirror_copies_blobs_and_manifests(self, tmp_path):
        src = LocalFSStore(tmp_path / "src")
        dst = LocalFSStore(tmp_path / "dst")
        src.put("a", b"1")
        src.put("b", b"22")
        src.write_manifest("m", {"x": 1})
        dst.put("a", b"1")  # already present: skipped
        stats = mirror(src, dst)
        assert stats.blobs_copied == 1 and stats.blobs_skipped == 1
        assert stats.manifests_copied == 1
        assert dst.get("b") == b"22"
        assert dst.read_manifest("m") == {"x": 1}

    def test_prune_respects_age_and_clears_quarantine(self, tmp_path):
        store = LocalFSStore(tmp_path)
        store.put("old", b"x")
        store.put("new", b"y")
        old_path = store.blob_path("old")
        stale = time.time() - 10 * 86400
        os.utime(old_path, (stale, stale))
        store.put("corrupt", b"z")
        store.quarantine("corrupt")
        stats = prune(store, parse_age("7d"))
        assert stats.blobs_removed == 1 and stats.kept == 1
        assert stats.quarantined_removed == 1
        assert store.list() == ["new"]
        assert store.list_quarantined() == []

    def test_prune_dry_run_deletes_nothing(self, tmp_path):
        store = LocalFSStore(tmp_path)
        store.put("k", b"x")
        stats = prune(store, 0.0, now=time.time() + 10, dry_run=True)
        assert stats.blobs_removed == 1
        assert store.exists("k")

    def test_prune_never_evicts_manifest_referenced_blobs(self, store_url, tasks):
        """Age-only eviction must not break a live sharded sweep: blobs a
        shard manifest references survive any --older-than cutoff."""
        SweepRunner(
            max_workers=1, store=store_url, executor=ShardedExecutor(0, 2)
        ).run(tasks)
        store = open_store(store_url)
        store.put("orphan", b"unreferenced")
        referenced = sorted(
            task_cache_key(t) for i, t in enumerate(tasks) if i % 2 == 0
        )
        stats = prune(store, parse_age("7d"), now=time.time() + 30 * 86400)
        assert stats.blobs_removed == 1  # the orphan only
        assert stats.kept_referenced == len(referenced)
        assert store.list() == referenced
        merged = SweepRunner(
            max_workers=1, store=store_url, executor=ShardedExecutor(1, 2)
        ).run(tasks)
        assert len(merged) == len(tasks)

    def test_prune_clears_quarantine_even_with_unreadable_manifest(self, tmp_path):
        """An unreadable manifest aborts the blob pass (pruning must not
        guess what it pinned) but quarantine cleanup is independent of
        references and happens first."""
        store = LocalFSStore(tmp_path)
        store.put("blob1234", b"x")
        store.put("bad12345", b"corrupt")
        store.quarantine("bad12345")
        store.manifest_dir.mkdir(parents=True, exist_ok=True)
        (store.manifest_dir / "torn.json").write_bytes(b"{not json")
        with pytest.raises(StoreError, match="unreadable manifest"):
            prune(store, 0.0, now=time.time() + 10)
        assert store.list_quarantined() == []  # cleared before the abort
        assert store.exists("blob1234")  # blob pass never ran

    def test_mirror_copies_quarantined_evidence(self, tmp_path):
        """``store push`` must not launder a corrupt cache: quarantined
        entries travel with the blobs."""
        src = LocalFSStore(tmp_path / "src")
        dst = LocalFSStore(tmp_path / "dst")
        src.put("bad12345", b"the corrupt bytes")
        src.quarantine("bad12345")
        src.put("good1234", b"fine")
        stats = mirror(src, dst)
        assert stats.blobs_copied == 1
        assert stats.quarantined_copied == 1 and stats.quarantined_skipped == 0
        assert dst.list_quarantined() == ["bad12345"]
        assert dst.get_quarantined("bad12345") == b"the corrupt bytes"
        again = mirror(src, dst)
        assert again.quarantined_copied == 0 and again.quarantined_skipped == 1


# --------------------------------------------------------------------- #
# Blob integrity envelopes
# --------------------------------------------------------------------- #
class TestEnvelope:
    def test_roundtrip(self):
        data, digest = wrap_blob(b"payload")
        payload, got = unwrap_blob(data)
        assert payload == b"payload"
        assert got == digest == hashlib.sha256(b"payload").hexdigest()

    def test_legacy_blob_passes_through(self):
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
# Lifecycle: gc / verify / repair, across every backend
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
        assert _run_bytes(merged) == _run_bytes(golden)

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

    def test_gc_leaves_quarantined_evidence_alone(self, store_url):
        store = open_store(store_url)
        store.put("bad", b"evidence")
        store.quarantine("bad")
        gc(store, grace_seconds=0.0, now=time.time() + 86400)
        assert store.list_quarantined() == ["bad"]

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
    def test_verify_quarantines_flipped_byte_blob(self, store_url, tasks):
        SweepRunner(max_workers=1, store=store_url).run(tasks)
        store = open_store(store_url)
        victim = task_cache_key(tasks[0])
        data = store.get(victim)
        store.put(victim, data[:-1] + bytes([data[-1] ^ 0xFF]))
        report = verify(store)
        assert not report.clean
        assert [entry["key"] for entry in report.corrupt] == [victim]
        assert report.quarantined == [victim]
        assert report.ok == len(tasks) - 1
        assert store.get(victim) is None
        assert store.list_quarantined() == [victim]
        again = verify(store)
        assert again.clean and again.checked == len(tasks) - 1

    def test_verify_dry_run_reports_without_quarantining(self, store_url, tasks):
        SweepRunner(max_workers=1, store=store_url).run(tasks)
        store = open_store(store_url)
        victim = task_cache_key(tasks[1])
        tampered = store.get(victim)[:-1]
        store.put(victim, tampered)
        report = verify(store, dry_run=True)
        assert [entry["key"] for entry in report.corrupt] == [victim]
        assert report.quarantined == []
        assert store.get(victim) == tampered

    def test_cache_load_verifies_digest_on_read(self, store_url, tasks, golden):
        """A forged digest is caught by the read path even when the pickled
        payload itself still loads — the sweep recomputes the task."""
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
        assert result.cache_corruptions == 1
        assert store.list_quarantined() == [victim]
        assert _run_bytes(result) == _run_bytes(golden)

    def test_pre_envelope_blobs_still_load(self, store_url, tasks, golden):
        """Blobs written before the envelope existed no longer load: verify
        reports them as corrupt, and a sweep quarantines and recomputes
        every one, byte-identical to the uncached golden run."""
        SweepRunner(max_workers=1, store=store_url).run(tasks)
        store = open_store(store_url)
        keys = sorted(store.list())
        for key in keys:
            payload, _ = unwrap_blob(store.get(key))
            store.put(key, payload)  # the pre-envelope on-disk layout
        report = verify(store, dry_run=True)
        assert not report.clean and report.ok == 0
        assert sorted(entry["key"] for entry in report.corrupt) == keys
        assert all("integrity envelope" in entry["error"] for entry in report.corrupt)
        result = SweepRunner(max_workers=1, store=store_url).run(tasks)
        assert result.cache_hits == 0
        assert result.cache_corruptions == len(tasks)
        assert _run_bytes(result) == _run_bytes(golden)
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
        assert report.clean  # drift is informational, never quarantined
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

    # ------------------------------------------------------------------ #
    def test_repair_refetches_quarantined_blobs_from_mirror(
        self, store_url, tasks, tmp_path
    ):
        SweepRunner(max_workers=1, store=store_url).run(tasks)
        store = open_store(store_url)
        mirror_store = LocalFSStore(tmp_path / "mirror")
        mirror(store, mirror_store)
        victim = task_cache_key(tasks[0])
        good = store.get(victim)
        store.put(victim, good[:-3])  # truncate: size check fails
        assert verify(store).quarantined == [victim]
        stats = repair(store, mirror_store)
        assert stats.repaired == 1 and stats.repaired_keys == [victim]
        assert stats.missing_in_source == 0 and stats.still_corrupt == 0
        assert store.get(victim) == good
        assert store.list_quarantined() == []
        rerun = SweepRunner(max_workers=1, store=store_url).run(tasks)
        assert rerun.cache_hits == len(tasks)

    def test_repair_leaves_unfixable_keys_quarantined(self, tmp_path):
        store = LocalFSStore(tmp_path / "store")
        source = LocalFSStore(tmp_path / "mirror")
        for key, mirrored in (("missing1", None), ("badcopy1", b"x")):
            store.put(key, b"corrupt")
            store.quarantine(key)
            if mirrored is not None:
                source.put(key, wrap_blob(mirrored)[0][:-1])  # corrupt there too
        stats = repair(store, source)
        assert stats.repaired == 0
        assert stats.missing_in_source == 1 and stats.still_corrupt == 1
        assert store.list_quarantined() == ["badcopy1", "missing1"]

    def test_repair_dry_run_changes_nothing(self, tmp_path):
        store = LocalFSStore(tmp_path / "store")
        source = LocalFSStore(tmp_path / "mirror")
        blob, _ = wrap_blob(b"payload")
        source.put("fixme12", blob)
        store.put("fixme12", blob[:-1])
        store.quarantine("fixme12")
        stats = repair(store, source, dry_run=True)
        assert stats.repaired == 1
        assert store.get("fixme12") is None
        assert store.list_quarantined() == ["fixme12"]


# --------------------------------------------------------------------- #
# HTTP specifics
# --------------------------------------------------------------------- #
class TestHTTPStore:
    def test_prefixes_are_isolated(self, server):
        a = open_store(server.store_url("iso-a"))
        b = open_store(server.store_url("iso-b"))
        a.put("k", b"a")
        b.put("k", b"b")
        assert a.get("k") == b"a"
        assert b.get("k") == b"b"
        assert a.list() == ["k"] and b.list() == ["k"]

    def test_stat_reports_mtime(self, server):
        store = open_store(server.store_url("stat-test"))
        store.put("k", b"abc")
        stat = store.stat("k")
        assert stat.size == 3
        assert stat.mtime is not None and abs(stat.mtime - time.time()) < 120

    def test_listing_paginates_past_one_page(self):
        """Real S3 truncates listings at 1000 keys; the client must follow
        IsTruncated/NextContinuationToken to a complete enumeration."""
        with ObjectStoreServer(page_size=3) as tiny_pages:
            store = open_store(tiny_pages.store_url("paged"))
            keys = [f"k{i:02d}" for i in range(8)]
            for key in keys:
                store.put(key, b"x")
            assert store.list() == keys
            stats = store.stats()
            assert stats.blobs == 8

    def test_missing_content_length_is_unknown_size(self, monkeypatch):
        """A HEAD without a usable Content-Length must report the size as
        unknown (None), not 0 — 0 corrupts prune/stats byte totals."""
        store = HTTPObjectStore("s3+http://example.invalid/bucket")
        for headers in (
            {"Last-Modified": "Wed, 21 Oct 2015 07:28:00 GMT"},
            {"Content-Length": "garbage"},
            {"Content-Length": "-1"},
        ):
            monkeypatch.setattr(
                store, "_request", lambda method, url, data=None, h=headers: (b"", h)
            )
            stat = store._stat("k")
            assert stat is not None
            assert stat.size is None, f"size not unknown for {headers}"

    def test_listing_carries_size_and_mtime(self, server):
        store = open_store(server.store_url("entries-meta"))
        store.put("k", b"12345")
        entries = store._entries()
        assert len(entries) == 1
        name, stat = entries[0]
        assert name == "k.pkl"
        assert stat is not None and stat.size == 5
        assert stat.mtime is not None and abs(stat.mtime - time.time()) < 120

    def test_unreachable_endpoint_is_store_error(self):
        store = HTTPObjectStore("s3+http://127.0.0.1:1/nothing", timeout=0.2, retries=0)
        with pytest.raises(StoreError):
            store.get("k")

    def test_bad_url_rejected(self):
        with pytest.raises(StoreError, match="s3\\+http"):
            HTTPObjectStore("http://host/bucket")
        with pytest.raises(StoreError, match="no host"):
            HTTPObjectStore("s3+http://")


# --------------------------------------------------------------------- #
# CLI: --store threading and the store command group
# --------------------------------------------------------------------- #
class TestStoreCLI:
    def test_sweep_shard_merge_through_object_store(self, server, capsys):
        """The acceptance path: shard 0/2 + 1/2 against the HTTP fake,
        merged with ``sweep merge --store s3+http://…``, byte-identical to
        a single-process run, with ``store stats`` seeing the blobs."""
        url = server.store_url("cli-acceptance")
        assert main(["sweep", "--workload", "3", "--scale", "0.01",
                     "--workers", "1"]) == 0
        golden = capsys.readouterr().out
        for shard in ("1/2", "2/2"):
            assert main(["sweep", "--workload", "3", "--scale", "0.01",
                         "--store", url, "--shard", shard]) == 0
            capsys.readouterr()
        assert main(["sweep", "merge", "--workload", "3", "--scale", "0.01",
                     "--store", url]) == 0
        merged = capsys.readouterr().out
        assert merged == golden, "merged remote-store output diverged"
        assert main(["store", "stats", url]) == 0
        stats_out = capsys.readouterr().out
        assert "blobs:       6" in stats_out
        assert "manifests:   2" in stats_out

    def test_store_and_cache_dir_are_mutually_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--workload", "3", "--scale", "0.01",
                  "--store", "memory://x", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_shard_accepts_store_env(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("REPRO_STORE_URL", f"file://{tmp_path / 'env'}")
        assert main(["sweep", "--workload", "3", "--scale", "0.01",
                     "--shard", "1/2"]) == 0
        assert "shard run finished" in capsys.readouterr().out
        assert (tmp_path / "env" / "manifests").is_dir()

    def test_push_pull_round_trip(self, tmp_path, server, capsys):
        local = tmp_path / "local"
        url = server.store_url("pushpull")
        store = LocalFSStore(local)
        store.put("deadbeef", b"blob")
        store.write_manifest("m", {"x": 1})
        assert main(["store", "push", str(local), url]) == 0
        assert "copied 1 blob(s)" in capsys.readouterr().out
        pulled = tmp_path / "pulled"
        assert main(["store", "pull", url, str(pulled)]) == 0
        capsys.readouterr()
        mirrored = LocalFSStore(pulled)
        assert mirrored.get("deadbeef") == b"blob"
        assert mirrored.read_manifest("m") == {"x": 1}

    def test_prune_cli(self, tmp_path, capsys):
        store = LocalFSStore(tmp_path)
        store.put("k", b"x")
        assert main(["store", "prune", str(tmp_path), "--older-than", "30d"]) == 0
        assert "removed 0 blob(s)" in capsys.readouterr().out
        assert main(["store", "prune", str(tmp_path), "--older-than", "0s"]) == 0
        capsys.readouterr()
        assert store.list() == []

    def test_bad_age_is_clean_error(self, tmp_path, capsys):
        assert main(["store", "prune", str(tmp_path), "--older-than", "soon"]) == 2
        assert "invalid age" in capsys.readouterr().err

    def test_gc_cli_dry_run_then_delete(self, tmp_path, capsys):
        store = LocalFSStore(tmp_path)
        store.put("orphan99", b"xx")
        stale = time.time() - 7200
        os.utime(store.blob_path("orphan99"), (stale, stale))
        assert main(["store", "gc", str(tmp_path), "--dry-run"]) == 0
        assert "would delete 1 unreferenced blob(s)" in capsys.readouterr().out
        assert store.exists("orphan99")
        assert main(["store", "gc", str(tmp_path)]) == 0
        assert "deleted 1 unreferenced blob(s)" in capsys.readouterr().out
        assert not store.exists("orphan99")

    def test_gc_cli_bad_grace_is_clean_error(self, tmp_path, capsys):
        assert main(["store", "gc", str(tmp_path), "--grace", "soon"]) == 2
        assert "invalid age" in capsys.readouterr().err

    def test_verify_cli_json_exit_code_and_quarantine(self, tmp_path, capsys):
        store = LocalFSStore(tmp_path)
        good, _ = wrap_blob(b"payload")
        store.put("goodblob", good)
        store.put("badblob1", good[:-1])  # truncated
        assert main(["store", "verify", str(tmp_path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is False
        assert [entry["key"] for entry in report["corrupt"]] == ["badblob1"]
        assert report["ok"] == 1
        assert store.list_quarantined() == ["badblob1"]
        store.delete_quarantined("badblob1")
        assert main(["store", "verify", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "corrupt:  0" in out and "ok:       1" in out

    def test_repair_cli_round_trip(self, tmp_path, capsys):
        store = LocalFSStore(tmp_path / "store")
        source = LocalFSStore(tmp_path / "mirror")
        blob, _ = wrap_blob(b"payload")
        source.put("fixme123", blob)
        store.put("fixme123", blob[:-1])
        store.quarantine("fixme123")
        assert main(["store", "repair", str(tmp_path / "store"),
                     "--from", str(tmp_path / "mirror")]) == 0
        assert "repaired 1 quarantined blob(s)" in capsys.readouterr().out
        assert store.get("fixme123") == blob
        assert store.list_quarantined() == []
        # A mirror that cannot supply the key leaves it quarantined, exit 1.
        store.put("lost1234", b"corrupt")
        store.quarantine("lost1234")
        assert main(["store", "repair", str(tmp_path / "store"),
                     "--from", str(tmp_path / "mirror")]) == 1
        assert "1 missing in the mirror" in capsys.readouterr().out

    def test_missing_url_is_clean_error(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_STORE_URL", raising=False)
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "stats"])
        assert excinfo.value.code == 2
        assert "REPRO_STORE_URL" in capsys.readouterr().err

    def test_unknown_scheme_is_clean_error(self, capsys):
        assert main(["store", "stats", "gopher://x"]) == 2
        assert "unknown store scheme" in capsys.readouterr().err

    def test_serve_on_busy_port_is_clean_error(self, server, capsys):
        assert main(["store", "serve", "--host", server.host,
                     "--port", str(server.port)]) == 2
        assert "cannot bind" in capsys.readouterr().err
