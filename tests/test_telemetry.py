"""Tests for the telemetry subsystem.

Covers the nearest-rank percentile, the decision trace recorder and its
canonical JSONL encoding, the acceptance property that traces are
byte-deterministic across serial, sharded, and streaming executions,
trace publication/loading through the integrity envelope, the
instrumented store wrapper (request counts, byte totals, latency
percentiles, snapshot layout, retry observation), the ``--log-level``
logging wiring, and the ``repro-sdpolicy trace`` CLI surface.  The
storage mechanism shared with analytics records is covered in
``tests/test_attachments.py``.
"""

from __future__ import annotations

import logging
import pickle

import pytest

from repro.cli import main as cli_main
from repro.experiments.runner import run_workload
from repro.experiments.sweep import (
    ShardedExecutor,
    SweepRunner,
    SweepTask,
    task_cache_key,
)
from repro.store import MemoryStore, StoreError, open_store, unwrap_blob
from repro.store.attachments import AttachmentError, iter_attachments
from repro.store.http_store import HTTPObjectStore
from repro.telemetry import (
    TRACE,
    InstrumentedStore,
    TraceRecorder,
    load_trace,
    publish_trace,
    setup_logging,
)
from repro.telemetry.core import TELEMETRY_SNAPSHOT_FIELDS, TIMER_STAT_FIELDS, percentile
from repro.telemetry.logs import ENV_LOG_LEVEL
from repro.telemetry.trace import PHASE_FIELDS, parse_trace
from repro.workloads.cirne import CirneWorkloadModel


@pytest.fixture(scope="module")
def workload():
    return CirneWorkloadModel(
        num_jobs=60, system_nodes=16, cpus_per_node=8, max_job_nodes=8,
        target_load=1.0, median_runtime_s=1800.0, seed=7, name="telemetry_test",
    ).generate()


# --------------------------------------------------------------------- #
# Snapshot percentiles
# --------------------------------------------------------------------- #
class TestTelemetryRegistry:
    def test_percentile_nearest_rank(self):
        values = sorted(float(v) for v in range(1, 101))
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 99) == 99.0
        assert percentile([1.0], 99) == 1.0
        with pytest.raises(ValueError):
            percentile([], 50)


# --------------------------------------------------------------------- #
# Recorder + canonical encoding
# --------------------------------------------------------------------- #
class TestTraceRecorder:
    def test_canonical_lines_and_counts(self):
        recorder = TraceRecorder()
        recorder.emit("job_submit", 1.5, job=3, nodes=2, cpus=16, malleable=True)
        recorder.emit("job_end", 9.0, job=3, wait=0.0)
        assert len(recorder) == 2
        assert recorder.counts == {"job_submit": 1, "job_end": 1}
        # sorted keys, no whitespace
        assert recorder.lines[0] == (
            '{"cpus":16,"event":"job_submit","job":3,'
            '"malleable":true,"nodes":2,"t":1.5}'
        )

    def test_non_finite_floats_become_tokens(self):
        recorder = TraceRecorder()
        recorder.emit("backfill_hole", 0.0, job=1, nodes=2, ahead=1,
                      est_start=float("inf"))
        recorder.emit("mate_rejected", 0.0, guest=2, reason="estimate",
                      static_end=float("-inf"), mall_end=float("nan"))
        assert '"est_start":"inf"' in recorder.lines[0]
        assert '"static_end":"-inf"' in recorder.lines[1]
        assert '"mall_end":"nan"' in recorder.lines[1]

    def test_round_trip_through_parse(self):
        recorder = TraceRecorder()
        recorder.meta["label"] = "x"
        recorder.emit("job_end", 2.0, job=1, wait=None)
        meta, events = parse_trace(recorder.to_bytes())
        assert meta == {"label": "x"}
        assert events == [{"event": "job_end", "t": 2.0, "job": 1, "wait": None}]

    def test_parse_rejects_bad_blobs(self):
        with pytest.raises(AttachmentError, match="empty"):
            parse_trace(b"")
        with pytest.raises(AttachmentError, match="trace_header"):
            parse_trace(b'{"event":"job_end"}\n')
        with pytest.raises(AttachmentError, match="not supported"):
            parse_trace(b'{"event":"trace_header","format":99}\n')
        with pytest.raises(AttachmentError, match="JSONL"):
            parse_trace(b"not json\n")

    def test_recorder_survives_pickle(self):
        recorder = TraceRecorder()
        recorder.emit("job_submit", 0.0, job=1, nodes=1, cpus=8, malleable=False)
        clone = pickle.loads(pickle.dumps(recorder))
        assert clone.to_bytes() == recorder.to_bytes()


# --------------------------------------------------------------------- #
# Emission sites
# --------------------------------------------------------------------- #
class TestTraceEmission:
    def test_lifecycle_events_cover_every_job(self, workload):
        run = run_workload(workload, "static_backfill", trace=True)
        counts = run.trace.counts
        jobs = run.result.num_jobs
        assert counts["job_submit"] == jobs
        assert counts["job_start"] == jobs
        assert counts["job_end"] == jobs

    def test_sd_policy_emits_mate_decisions(self, workload):
        run = run_workload(workload, "sd_policy", trace=True, max_slowdown=10.0)
        counts = run.trace.counts
        stats = run.scheduler_stats
        assert counts.get("mate_selected", 0) == stats["malleable_starts"]
        assert counts.get("mate_rejected", 0) == (
            stats["rejected_by_estimate"] + stats["rejected_no_mates"]
        )
        assert counts.get("mate_candidate", 0) > 0
        # shared starts name their mates
        shared = [
            event for event in parse_trace(run.trace.to_bytes())[1]
            if event["event"] == "job_start" and event["kind"] == "shared"
        ]
        assert shared and all(event["mates"] for event in shared)

    def test_trace_off_by_default(self, workload):
        run = run_workload(workload, "sd_policy", max_slowdown=10.0)
        assert run.trace is None

    def test_phases_populated_either_way(self, workload):
        traced = run_workload(workload, "static_backfill", trace=True)
        plain = run_workload(workload, "static_backfill")
        assert set(traced.phases) == set(plain.phases) == {"simulate", "metrics"}


# --------------------------------------------------------------------- #
# Acceptance: byte determinism across execution modes
# --------------------------------------------------------------------- #
class TestTraceDeterminism:
    def test_serial_sharded_and_streaming_traces_are_byte_identical(
        self, workload
    ):
        tasks = [
            SweepTask(workload=workload, policy="sd_policy", key="sd", seed=0,
                      kwargs={"max_slowdown": 10.0}),
            SweepTask(workload=workload, policy="static_backfill", key="static",
                      seed=0),
        ]
        serial_store = MemoryStore()
        SweepRunner(max_workers=1, store=serial_store, trace=True).run(tasks)
        sharded_store = MemoryStore()
        for i in range(2):
            SweepRunner(
                max_workers=1, store=sharded_store, trace=True,
                executor=ShardedExecutor(i, 2),
            ).run(tasks)
        streaming_store = MemoryStore()
        SweepRunner(max_workers=1, store=streaming_store, trace=True).run(
            [SweepTask(**{**task.__dict__, "kwargs": {**task.kwargs,
                                                      "retain_jobs": False}})
             for task in tasks]
        )
        for task in tasks:
            key = task_cache_key(task)
            serial = unwrap_blob(serial_store.get(TRACE.key(key)))[0]
            sharded = unwrap_blob(sharded_store.get(TRACE.key(key)))[0]
            assert serial == sharded
        # retain_jobs changes the cache key but must not change the trace
        # bytes: compare via each store's single manifest per policy label.
        by_label_default = _traces_by_label(serial_store)
        by_label_streaming = _traces_by_label(streaming_store)
        assert by_label_default == by_label_streaming

    def test_run_blob_is_byte_identical_with_and_without_trace(self, workload):
        task = SweepTask(workload=workload, policy="sd_policy", key="sd",
                         seed=0, kwargs={"max_slowdown": 10.0})
        plain_store, traced_store = MemoryStore(), MemoryStore()
        SweepRunner(max_workers=1, store=plain_store).run([task])
        SweepRunner(max_workers=1, store=traced_store, trace=True).run([task])
        key = task_cache_key(task)
        plain_run = pickle.loads(unwrap_blob(plain_store.get(key))[0])["run"]
        traced_run = pickle.loads(unwrap_blob(traced_store.get(key))[0])["run"]
        plain_run.wall_clock_seconds = traced_run.wall_clock_seconds = 0.0
        plain_run.phases = traced_run.phases = {}
        assert pickle.dumps(plain_run) == pickle.dumps(traced_run)
        assert traced_run.trace is None  # stripped before pickling
        # a plain runner consumes the traced runner's entry as a hit
        rerun = SweepRunner(max_workers=1, store=traced_store).run([task])
        assert rerun.cache_hits == 1


def _traces_by_label(store):
    out = {}
    for _name, manifest in iter_attachments(store, TRACE):
        payload = unwrap_blob(store.get(TRACE.key(manifest["cache_key"])))[0]
        out[manifest["meta"]["label"]] = payload
    return out


# --------------------------------------------------------------------- #
# Storage: envelopes, discovery, phases
# --------------------------------------------------------------------- #
class TestTraceStorage:
    def test_publish_and_load_round_trip(self):
        store = MemoryStore()
        recorder = TraceRecorder()
        recorder.meta["label"] = "x"
        recorder.emit("job_end", 1.0, job=1, wait=0.0)
        digest = publish_trace(store, "k" * 16, recorder,
                               phases={"simulate": 0.5})
        meta, events = load_trace(store, "k" * 16)
        assert meta == {"label": "x"}
        assert len(events) == 1
        manifest = store.read_manifest(TRACE.manifest_name("k" * 16))
        assert manifest["kind"] == "trace"
        assert manifest["events"] == 1
        assert manifest["trace_digest"] == digest
        assert manifest["phases"] == {"simulate": 0.5}

    def test_missing_trace_error_suggests_flag(self):
        with pytest.raises(AttachmentError, match="--trace"):
            load_trace(MemoryStore(), "m" * 16)

    def test_corrupt_trace_blob_is_a_trace_error(self):
        store = MemoryStore()
        recorder = TraceRecorder()
        recorder.emit("job_end", 1.0, job=1, wait=0.0)
        publish_trace(store, "c" * 16, recorder)
        blob = bytearray(store.get(TRACE.key("c" * 16)))
        blob[-1] ^= 0xFF
        store.put(TRACE.key("c" * 16), bytes(blob))
        with pytest.raises(AttachmentError, match="integrity envelope"):
            load_trace(store, "c" * 16)

    def test_sweep_entries_carry_phase_timers(self, workload):
        store = MemoryStore()
        task = SweepTask(workload=workload, policy="static_backfill",
                         key="phases", seed=0)
        result = SweepRunner(max_workers=1, store=store, trace=True).run([task])
        assert set(result.entries[0].phases) == set(PHASE_FIELDS)
        assert all(v >= 0.0 for v in result.entries[0].phases.values())
        # cache hits did no work: no phase timings for this invocation
        rerun = SweepRunner(max_workers=1, store=store).run([task])
        assert rerun.entries[0].phases == {}

    def test_trace_requires_store(self):
        with pytest.raises(ValueError, match="result store"):
            SweepRunner(max_workers=1, trace=True)


# --------------------------------------------------------------------- #
# Instrumented store wrapper
# --------------------------------------------------------------------- #
class TestInstrumentedStore:
    def test_counts_requests_bytes_and_latency(self):
        store = InstrumentedStore(MemoryStore())
        store.put("k" * 16, b"payload")
        store.get("k" * 16)
        store.get("k" * 16)
        store.list()
        snap = store.snapshot()
        assert tuple(snap) == TELEMETRY_SNAPSHOT_FIELDS
        assert snap["counters"]["requests"] == 4
        assert snap["counters"]["bytes_written"] == len(b"payload")
        assert snap["counters"]["bytes_read"] == 2 * len(b"payload")
        assert snap["gauges"] == {}
        assert {"read", "write", "list"} <= set(snap["timers"])
        for stats in snap["timers"].values():
            assert tuple(stats) == TIMER_STAT_FIELDS
        assert snap["timers"]["read"]["count"] == 2
        assert snap["timers"]["read"]["max"] >= snap["timers"]["read"]["p50"]

    def test_wrapper_preserves_store_semantics(self):
        inner = MemoryStore()
        store = InstrumentedStore(inner)
        assert store.url == inner.url
        store.put("k" * 16, b"x")
        assert store.exists("k" * 16)
        assert store.list() == ["k" * 16]
        stats = store.stats()
        assert stats.blobs == 1
        assert store.delete("k" * 16)
        assert store.get("k" * 16) is None

    def test_observes_http_retries(self):
        # Nothing listens on this port: every attempt fails, each retry is
        # observed through the on_retry hook before the backoff sleep.
        inner = HTTPObjectStore("s3+http://127.0.0.1:9/none", timeout=0.2,
                                retries=1)
        store = InstrumentedStore(inner)
        with pytest.raises(StoreError):
            store.get("k" * 16)
        assert store.snapshot()["counters"]["retries"] == 1


# --------------------------------------------------------------------- #
# Logging wiring
# --------------------------------------------------------------------- #
class TestLogging:
    def teardown_method(self):
        setup_logging("warning")

    def test_explicit_level_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_LOG_LEVEL, "error")
        assert setup_logging("debug") == logging.DEBUG
        assert setup_logging(None) == logging.ERROR
        monkeypatch.delenv(ENV_LOG_LEVEL)
        assert setup_logging(None) == logging.WARNING

    def test_unknown_level_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown log level"):
            setup_logging("loud")

    def test_reconfiguring_does_not_stack_handlers(self):
        setup_logging("info")
        setup_logging("info")
        root = logging.getLogger("repro")
        assert len(root.handlers) == 1
        assert not root.propagate

    def test_cache_hit_logged_at_debug(self, workload, capsys):
        store = MemoryStore()
        task = SweepTask(workload=workload, policy="static_backfill",
                         key="logged", seed=0)
        SweepRunner(max_workers=1, store=store).run([task])
        setup_logging("debug")
        SweepRunner(max_workers=1, store=store).run([task])
        assert "cache hit" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #
class TestTraceCLI:
    @pytest.fixture()
    def traced_store(self, workload):
        MemoryStore.reset("tracecli")
        store = open_store("memory://tracecli")
        tasks = [
            SweepTask(workload=workload, policy="sd_policy", key="sd", seed=0,
                      label="MAXSD 10", kwargs={"max_slowdown": 10.0}),
            SweepTask(workload=workload, policy="static_backfill",
                      key="static", seed=0, label="static_backfill"),
        ]
        SweepRunner(max_workers=1, store=store, trace=True).run(tasks)
        yield store
        MemoryStore.reset("tracecli")

    def test_summary_reports_decisions_and_phases(self, traced_store, capsys):
        assert cli_main(["trace", "summary", "--store", traced_store.url]) == 0
        out = capsys.readouterr().out
        assert "decision traces (2 runs" in out
        assert "malleable pairings" in out
        assert "simulate" in out and "store_put" in out

    def test_grep_filters_by_event_and_job(self, traced_store, capsys):
        assert cli_main(["trace", "grep", "--event", "mate_selected",
                         "--store", traced_store.url]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all('"event":"mate_selected"' in line for line in lines)

    def test_timeline_mentions_job(self, traced_store, capsys):
        assert cli_main(["trace", "timeline", "--job", "1",
                         "--store", traced_store.url]) == 0
        out = capsys.readouterr().out
        assert "job 1" in out
        assert "run " in out

    def test_query_phases_table(self, traced_store, capsys):
        assert cli_main(["query", "--phases",
                         "--store", traced_store.url]) == 0
        out = capsys.readouterr().out
        assert "phase timers (2 runs)" in out
        assert "simulate" in out

    def test_empty_store_is_a_clean_error(self, capsys):
        MemoryStore.reset("tracecli-empty")
        code = cli_main(["trace", "summary", "--store", "memory://tracecli-empty"])
        captured = capsys.readouterr()
        assert code == 2
        assert "no decision traces" in captured.err
        MemoryStore.reset("tracecli-empty")

    def test_store_stats_reports_requests(self, traced_store, capsys):
        assert cli_main(["store", "stats", traced_store.url]) == 0
        out = capsys.readouterr().out
        assert "requests:    1" in out
        assert "latency:     list" in out
