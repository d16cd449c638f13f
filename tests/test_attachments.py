"""Tests for run attachments (``repro.store.attachments``).

Per-job records (``--analytics``) and decision traces (``--trace``) are
both run attachments, stored, found, loaded and gc-pinned through one
code path; every storage property is therefore checked once per kind.
The sweep-level tests cover the recovery contract: a cached run whose
store lacks a requested attachment (never published, or quarantined
since) is re-executed to publish it — except by a merge, which executes
nothing.
"""

from __future__ import annotations

import pytest

from repro.analytics.records import ANALYTICS_MANIFEST_FIELDS, RECORDS
from repro.experiments.executors import MergeExecutor, ShardedExecutor
from repro.experiments.sweep import SweepRunner, SweepTask, task_cache_key
from repro.store import MemoryStore, gc, verify
from repro.store.attachments import (
    AttachmentError,
    iter_attachments,
    load_attachment,
    publish_attachment,
)
from repro.telemetry.trace import TRACE, TRACE_MANIFEST_FIELDS
from repro.workloads.cirne import CirneWorkloadModel

KINDS = [pytest.param(RECORDS, id="records"), pytest.param(TRACE, id="trace")]

MANIFEST_FIELDS = {RECORDS: ANALYTICS_MANIFEST_FIELDS, TRACE: TRACE_MANIFEST_FIELDS}

CACHE_KEY = "c" * 64


@pytest.fixture(scope="module")
def workload():
    return CirneWorkloadModel(
        num_jobs=30, system_nodes=8, cpus_per_node=8, max_job_nodes=4,
        target_load=1.0, median_runtime_s=1800.0, seed=5, name="attachment_test",
    ).generate()


def _tasks(workload):
    return [
        SweepTask(workload=workload, policy="static_backfill", key="static", seed=0),
        SweepTask(workload=workload, policy="sd_policy", key="sd", seed=0,
                  kwargs={"max_slowdown": 10.0}),
    ]


@pytest.fixture(scope="module")
def attached_sweep(workload):
    """A store filled by one sweep that published both attachment kinds."""
    store = MemoryStore()
    task = _tasks(workload)[1]
    SweepRunner(max_workers=1, store=store, analytics=True, trace=True).run([task])
    return store, task_cache_key(task)


def _flip_last_byte(store, key):
    blob = bytearray(store.get(key))
    blob[-1] ^= 0xFF
    store.put(key, bytes(blob))


# --------------------------------------------------------------------- #
# Storage, once per kind
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", KINDS)
class TestAttachmentStorage:
    def test_round_trip(self, kind):
        store = MemoryStore()
        digest = publish_attachment(
            store, kind, CACHE_KEY, b"payload\x00", run_digest="d" * 64, rows=1
        )
        assert load_attachment(store, kind, CACHE_KEY) == b"payload\x00"
        name = kind.manifest_name(CACHE_KEY)
        manifest = store.read_manifest(name)
        assert manifest["kind"] == kind.kind
        assert manifest["schema"] == kind.schema
        assert manifest[f"{kind.noun}_digest"] == digest
        assert manifest["rows"] == 1
        assert manifest["tasks"] == [
            {"cache_key": CACHE_KEY, "digest": "d" * 64},
            {"cache_key": kind.key(CACHE_KEY), "digest": digest},
        ]
        assert list(iter_attachments(store, kind)) == [(name, manifest)]
        other = TRACE if kind is RECORDS else RECORDS
        assert list(iter_attachments(store, other)) == []

    def test_missing_error_names_the_flag(self, kind):
        with pytest.raises(AttachmentError, match=f"executed without {kind.flag}"):
            load_attachment(MemoryStore(), kind, CACHE_KEY)

    def test_corrupt_blob_fails_integrity_envelope(self, kind):
        store = MemoryStore()
        publish_attachment(store, kind, CACHE_KEY, b"payload")
        _flip_last_byte(store, kind.key(CACHE_KEY))
        with pytest.raises(AttachmentError, match="integrity envelope"):
            load_attachment(store, kind, CACHE_KEY)

    def test_quarantined_blob_points_to_repair(self, kind):
        store = MemoryStore()
        publish_attachment(store, kind, CACHE_KEY, b"payload")
        _flip_last_byte(store, kind.key(CACHE_KEY))
        assert verify(store).quarantined == [kind.key(CACHE_KEY)]
        with pytest.raises(AttachmentError) as excinfo:
            load_attachment(store, kind, CACHE_KEY)
        assert "store repair" in str(excinfo.value)
        assert "executed without" not in str(excinfo.value)

    def test_gc_keeps_run_and_attachment_blobs(self, kind, attached_sweep):
        store, key = attached_sweep
        gc(store, grace_seconds=0.0)
        assert store.get(key) is not None
        assert store.get(kind.key(key)) is not None

    def test_manifest_fields_match_real_manifest(self, kind, attached_sweep):
        store, key = attached_sweep
        manifest = store.read_manifest(kind.manifest_name(key))
        assert set(manifest) == set(MANIFEST_FIELDS[kind])


# --------------------------------------------------------------------- #
# Sweeps publish what cached runs lack
# --------------------------------------------------------------------- #
class TestSweepRepublishes:
    def test_flagged_sweep_over_plain_cache_publishes_attachments(self, workload):
        store, tasks = MemoryStore(), _tasks(workload)
        assert SweepRunner(max_workers=1, store=store).run(tasks).cache_hits == 0
        flagged = SweepRunner(max_workers=1, store=store, analytics=True, trace=True)
        assert flagged.run(tasks).cache_hits == 0
        for task in tasks:
            for kind in (RECORDS, TRACE):
                assert load_attachment(store, kind, task_cache_key(task))
        assert flagged.run(tasks).cache_hits == len(tasks)

    @pytest.mark.parametrize("kind", KINDS)
    def test_quarantined_attachment_is_republished(self, workload, kind):
        store, tasks = MemoryStore(), _tasks(workload)
        flag = "analytics" if kind is RECORDS else "trace"
        runner = SweepRunner(max_workers=1, store=store, **{flag: True})
        runner.run(tasks)
        key = task_cache_key(tasks[0])
        _flip_last_byte(store, kind.key(key))
        verify(store)
        assert runner.run(tasks).cache_hits == len(tasks) - 1
        assert load_attachment(store, kind, key)

    def test_merge_serves_runs_lacking_attachments(self, workload):
        store, tasks = MemoryStore(), _tasks(workload)
        SweepRunner(max_workers=1, store=store, executor=ShardedExecutor(0, 1)).run(tasks)
        merged = SweepRunner(
            max_workers=1, store=store, analytics=True, trace=True,
            executor=MergeExecutor(),
        ).run(tasks)
        assert merged.cache_hits == len(tasks)
        with pytest.raises(AttachmentError, match="--trace"):
            load_attachment(store, TRACE, task_cache_key(tasks[0]))
