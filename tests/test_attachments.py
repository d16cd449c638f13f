"""Tests for decision traces stored next to a cached run.

The trace is the one side artifact a sweep publishes beside its run blob
(``--trace``): stored, found, loaded and gc-pinned by
``repro.telemetry.trace``.  The sweep-level tests cover the recovery
contract: a cached run whose store lacks its requested trace (never
published, of another trace format, or unreadable since) is re-executed
to publish it — except by a merge, which executes nothing.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.experiments.executors import MergeExecutor, ShardedExecutor
from repro.experiments.sweep import SweepRunner, SweepTask, task_cache_key
from repro.store import MemoryStore, gc, unwrap_blob, verify, wrap_blob
from repro.telemetry.trace import (
    TRACE_FORMAT_VERSION,
    TRACE_MANIFEST_FIELDS,
    AttachmentError,
    TraceRecorder,
    iter_trace_manifests,
    load_trace,
    publish_trace,
    trace_key,
    trace_manifest_name,
)
from repro.workloads.cirne import CirneWorkloadModel

#: The stored side artifacts; the id keeps each test's name stable.
KINDS = [pytest.param("trace", id="trace")]

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
    """A store filled by one sweep that published a trace."""
    store = MemoryStore()
    task = _tasks(workload)[1]
    SweepRunner(max_workers=1, store=store, trace=True).run([task])
    return store, task_cache_key(task)


def _recorder():
    recorder = TraceRecorder()
    recorder.emit("job_submit", 0.0, job=1, nodes=1, cpus=8, malleable=True)
    return recorder


def _flip_last_byte(store, key):
    blob = bytearray(store.get(key))
    blob[-1] ^= 0xFF
    store.put(key, bytes(blob))


def _store_as_previous_format(store, key, manifest=True):
    """Rewrite a published trace (and, with ``manifest``, its manifest) as
    the previous trace format's code stored it: another header version."""
    payload, _digest = unwrap_blob(store.get(trace_key(key)))
    header, events = payload.split(b"\n", 1)
    header = json.loads(header)
    header["format"] = TRACE_FORMAT_VERSION - 1
    store.put(trace_key(key), wrap_blob(json.dumps(header).encode() + b"\n" + events)[0])
    if manifest:
        name = trace_manifest_name(key)
        stale = store.read_manifest(name)
        stale["schema"] = TRACE_FORMAT_VERSION - 1
        store.write_manifest(name, stale)


# --------------------------------------------------------------------- #
# Storage
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", KINDS)
class TestAttachmentStorage:
    def test_round_trip(self, kind):
        store = MemoryStore()
        digest = publish_trace(store, CACHE_KEY, _recorder(), run_digest="d" * 64)
        meta, events = load_trace(store, CACHE_KEY)
        assert meta == {}
        assert [event["event"] for event in events] == ["job_submit"]
        name = trace_manifest_name(CACHE_KEY)
        manifest = store.read_manifest(name)
        assert manifest["kind"] == kind
        assert manifest["schema"] == TRACE_FORMAT_VERSION
        assert manifest["trace_digest"] == digest
        assert manifest["events"] == 1
        assert manifest["tasks"] == [
            {"cache_key": CACHE_KEY, "digest": "d" * 64},
            {"cache_key": trace_key(CACHE_KEY), "digest": digest},
        ]
        assert list(iter_trace_manifests(store)) == [(name, manifest)]

    def test_missing_error_names_the_flag(self, kind):
        with pytest.raises(AttachmentError, match="executed without --trace"):
            load_trace(MemoryStore(), CACHE_KEY)

    def test_corrupt_blob_fails_integrity_envelope(self, kind):
        store = MemoryStore()
        publish_trace(store, CACHE_KEY, _recorder())
        _flip_last_byte(store, trace_key(CACHE_KEY))
        with pytest.raises(AttachmentError, match="integrity envelope"):
            load_trace(store, CACHE_KEY)

    def test_corrupt_blob_error_names_the_rerun(self, kind):
        store = MemoryStore()
        publish_trace(store, CACHE_KEY, _recorder())
        _flip_last_byte(store, trace_key(CACHE_KEY))
        before = store._entries()
        assert [entry["key"] for entry in verify(store).corrupt] == [trace_key(CACHE_KEY)]
        assert store._entries() == before  # verify is read-only
        for deleted in (False, True):
            if deleted:
                verify(store, delete=True)
                assert store.get(trace_key(CACHE_KEY)) is None
            with pytest.raises(AttachmentError) as excinfo:
                load_trace(store, CACHE_KEY)
            assert "re-run the sweep with --trace" in str(excinfo.value)
            assert "executed without" not in str(excinfo.value)

    def test_gc_keeps_run_and_attachment_blobs(self, kind, attached_sweep):
        store, key = attached_sweep
        gc(store, grace_seconds=0.0)
        assert store.get(key) is not None
        assert store.get(trace_key(key)) is not None

    def test_manifest_fields_match_real_manifest(self, kind, attached_sweep):
        store, key = attached_sweep
        manifest = store.read_manifest(trace_manifest_name(key))
        assert set(manifest) == set(TRACE_MANIFEST_FIELDS)


# --------------------------------------------------------------------- #
# Sweeps publish what cached runs lack
# --------------------------------------------------------------------- #
class TestSweepRepublishes:
    def test_flagged_sweep_over_plain_cache_publishes_attachments(self, workload):
        store, tasks = MemoryStore(), _tasks(workload)
        assert SweepRunner(max_workers=1, store=store).run(tasks).cache_hits == 0
        flagged = SweepRunner(max_workers=1, store=store, trace=True)
        assert flagged.run(tasks).cache_hits == 0
        for task in tasks:
            assert load_trace(store, task_cache_key(task))
        assert flagged.run(tasks).cache_hits == len(tasks)

    @pytest.mark.parametrize("kind", KINDS)
    def test_corrupt_attachment_is_republished(self, workload, kind):
        store, tasks = MemoryStore(), _tasks(workload)
        runner = SweepRunner(max_workers=1, store=store, trace=True)
        runner.run(tasks)
        key = task_cache_key(tasks[0])
        clean = store.get(trace_key(key))
        _flip_last_byte(store, trace_key(key))
        assert runner.run(tasks).cache_hits == len(tasks) - 1
        assert store.get(trace_key(key)) == clean
        assert load_trace(store, key)

    def test_trace_of_another_format_is_republished(
        self, workload, tmp_path, caplog, capsys
    ):
        """A trace stored by another format's code is a silent miss: the
        traced rerun re-executes the run and overwrites it, and ``trace
        summary``, which finds no current trace before, reads it after."""
        tasks = _tasks(workload)
        runner = SweepRunner(max_workers=1, store=str(tmp_path), trace=True)
        store = runner.store
        runner.run(tasks)
        key = task_cache_key(tasks[1])
        clean = store.get(trace_key(key))
        _store_as_previous_format(store, key)
        with pytest.raises(AttachmentError, match="re-run the sweep with --trace"):
            load_trace(store, key)
        summary = ["trace", "summary", "--cache-dir", str(tmp_path)]
        assert cli_main(summary) == 0
        assert "decision traces (1 runs" in capsys.readouterr().out
        with caplog.at_level("WARNING", logger="repro.experiments.sweep"):
            assert runner.run(tasks).cache_hits == len(tasks) - 1
        assert not caplog.records
        assert store.get(trace_key(key)) == clean
        assert cli_main(summary) == 0
        assert "decision traces (2 runs" in capsys.readouterr().out

    def test_trace_summary_names_the_rerun_for_another_format(
        self, workload, tmp_path, capsys
    ):
        tasks = _tasks(workload)
        runner = SweepRunner(max_workers=1, store=str(tmp_path), trace=True)
        runner.run(tasks)
        _store_as_previous_format(runner.store, task_cache_key(tasks[0]), manifest=False)
        summary = ["trace", "summary", "--cache-dir", str(tmp_path)]
        assert cli_main(summary) == 2
        assert "re-run the sweep with --trace" in capsys.readouterr().err
        assert runner.run(tasks).cache_hits == len(tasks) - 1
        assert cli_main(summary) == 0

    def test_corrupt_attachment_warns_naming_its_key(self, workload, caplog):
        store, tasks = MemoryStore(), _tasks(workload)
        runner = SweepRunner(max_workers=1, store=store, trace=True)
        runner.run(tasks)
        victim = trace_key(task_cache_key(tasks[1]))
        _flip_last_byte(store, victim)
        with caplog.at_level("WARNING", logger="repro.experiments.sweep"):
            runner.run(tasks)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1
        assert f"unreadable trace blob {victim} in {store.url}" in messages[0]

    def test_untraced_sweep_never_reads_trace_blobs(self, workload, caplog):
        """Only a traced probe unwraps the trace blob: an untraced sweep
        over a store with a corrupt trace is all hits, reads no trace and
        leaves the bad blob for a traced rerun to overwrite."""
        store, tasks = MemoryStore(), _tasks(workload)
        SweepRunner(max_workers=1, store=store, trace=True).run(tasks)
        victim = trace_key(task_cache_key(tasks[0]))
        _flip_last_byte(store, victim)
        torn = store.get(victim)
        reads = []
        real_get = store.get

        def recording_get(key):
            reads.append(key)
            return real_get(key)

        store.get = recording_get
        with caplog.at_level("WARNING", logger="repro.experiments.sweep"):
            plain = SweepRunner(max_workers=1, store=store).run(tasks)
        assert plain.cache_hits == len(tasks)
        assert sorted(reads) == sorted(task_cache_key(task) for task in tasks)
        assert not caplog.records
        assert real_get(victim) == torn

    def test_merge_leaves_a_corrupt_attachment_alone(self, workload):
        """A merge executes nothing, so a corrupt trace is not healed there:
        the runs are served, the bad blob stays, and loading it names the
        rerun that fixes it."""
        store, tasks = MemoryStore(), _tasks(workload)
        SweepRunner(
            max_workers=1, store=store, trace=True, executor=ShardedExecutor(0, 1)
        ).run(tasks)
        key = task_cache_key(tasks[0])
        _flip_last_byte(store, trace_key(key))
        torn = store.get(trace_key(key))
        merged = SweepRunner(
            max_workers=1, store=store, trace=True, executor=MergeExecutor(),
        ).run(tasks)
        assert merged.complete and merged.cache_hits == len(tasks)
        assert store.get(trace_key(key)) == torn
        with pytest.raises(AttachmentError, match="re-run the sweep with --trace"):
            load_trace(store, key)

    def test_merge_serves_runs_lacking_attachments(self, workload):
        store, tasks = MemoryStore(), _tasks(workload)
        SweepRunner(max_workers=1, store=store, executor=ShardedExecutor(0, 1)).run(tasks)
        merged = SweepRunner(
            max_workers=1, store=store, trace=True, executor=MergeExecutor(),
        ).run(tasks)
        assert merged.cache_hits == len(tasks)
        with pytest.raises(AttachmentError, match="--trace"):
            load_trace(store, task_cache_key(tasks[0]))
