"""Tests for the telemetry subsystem.

Covers the decision trace recorder and its canonical JSONL encoding, the
acceptance property that traces are byte-deterministic across serial,
sharded, and streaming executions, trace publication/loading through the
integrity envelope, the ``--log-level`` logging wiring, and the
``repro-sdpolicy trace`` CLI surface.  Trace
storage recovery (gc pinning, republishing) is covered in
``tests/test_attachments.py``.
"""

from __future__ import annotations

import logging
import pickle
from collections import Counter

import pytest

from repro.cli import main as cli_main
from repro.experiments.runner import run_workload
from repro.experiments.sweep import (
    ShardedExecutor,
    SweepRunner,
    SweepTask,
    task_cache_key,
)
from repro.store import MemoryStore, open_store, unwrap_blob
from repro.telemetry import (
    TraceRecorder,
    load_trace,
    publish_trace,
    setup_logging,
    trace_key,
    trace_manifest_name,
)
from repro.telemetry.logs import ENV_LOG_LEVEL
from repro.telemetry.trace import (
    PHASE_FIELDS,
    TRACE_FORMAT_VERSION,
    AttachmentError,
    parse_trace,
)
from repro.workloads.cirne import CirneWorkloadModel


@pytest.fixture(scope="module")
def workload():
    return CirneWorkloadModel(
        num_jobs=60, system_nodes=16, cpus_per_node=8, max_job_nodes=8,
        target_load=1.0, median_runtime_s=1800.0, seed=7, name="telemetry_test",
    ).generate()


# --------------------------------------------------------------------- #
# Recorder + canonical encoding
# --------------------------------------------------------------------- #
class TestTraceRecorder:
    def test_canonical_lines(self):
        recorder = TraceRecorder()
        recorder.emit("job_submit", 1.5, job=3, nodes=2, cpus=16, malleable=True)
        recorder.emit("job_end", 9.0, job=3, wait=0.0)
        assert len(recorder) == 2
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
        with pytest.raises(AttachmentError, match="not supported.*re-run the sweep with --trace"):
            parse_trace(b'{"event":"trace_header","format":99}\n')
        with pytest.raises(AttachmentError, match="JSONL"):
            parse_trace(
                b'{"event":"trace_header","format":%d}\nnot json\n' % TRACE_FORMAT_VERSION
            )
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
def event_counts(recorder):
    """Events per type in a recorded trace, counted from its parsed bytes."""
    return Counter(event["event"] for event in parse_trace(recorder.to_bytes())[1])


class TestTraceEmission:
    def test_lifecycle_events_cover_every_job(self, workload):
        run = run_workload(workload, "static_backfill", trace=True)
        counts = event_counts(run.trace)
        jobs = run.result.num_jobs
        assert counts["job_submit"] == jobs
        assert counts["job_start"] == jobs
        assert counts["job_end"] == jobs

    def test_sd_policy_emits_mate_decisions(self, workload):
        run = run_workload(workload, "sd_policy", trace=True, max_slowdown=10.0)
        counts = event_counts(run.trace)
        stats = run.scheduler_stats
        assert counts["mate_selected"] == stats["malleable_starts"] > 0
        assert counts["mate_rejected"] == (
            stats["rejected_by_estimate"] + stats["rejected_no_mates"]
        ) > 0
        # A mate search is traced by its outcome, not by its candidates.
        assert "mate_candidate" not in counts
        # shared starts name their mates
        shared = [
            event for event in parse_trace(run.trace.to_bytes())[1]
            if event["event"] == "job_start" and event["kind"] == "shared"
        ]
        assert shared and all(event["mates"] for event in shared)

    def test_trace_off_by_default(self, workload):
        run = run_workload(workload, "sd_policy", max_slowdown=10.0)
        assert run.trace is None


# --------------------------------------------------------------------- #
# Acceptance: byte determinism across execution modes
# --------------------------------------------------------------------- #
class TestTraceDeterminism:
    def test_serial_sharded_and_streaming_traces_are_byte_identical(
        self, workload
    ):
        """Every run streams its jobs and drops them after their fold; the
        serial and the two-shard execution record the same trace bytes."""
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
        for task in tasks:
            key = task_cache_key(task)
            serial = unwrap_blob(serial_store.get(trace_key(key)))[0]
            sharded = unwrap_blob(sharded_store.get(trace_key(key)))[0]
            assert serial == sharded

    def test_run_blob_is_byte_identical_with_and_without_trace(self, workload):
        task = SweepTask(workload=workload, policy="sd_policy", key="sd",
                         seed=0, kwargs={"max_slowdown": 10.0})
        plain_store, traced_store = MemoryStore(), MemoryStore()
        SweepRunner(max_workers=1, store=plain_store).run([task])
        SweepRunner(max_workers=1, store=traced_store, trace=True).run([task])
        key = task_cache_key(task)
        assert plain_store.get(key) == traced_store.get(key)
        assert b"mate_selected" not in traced_store.get(key)  # the trace is its own blob
        # a plain runner consumes the traced runner's entry as a hit
        rerun = SweepRunner(max_workers=1, store=traced_store).run([task])
        assert rerun.cache_hits == 1


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
        manifest = store.read_manifest(trace_manifest_name("k" * 16))
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
        blob = bytearray(store.get(trace_key("c" * 16)))
        blob[-1] ^= 0xFF
        store.put(trace_key("c" * 16), bytes(blob))
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

    def test_cli_main_restores_the_repro_logger(self, tmp_path, caplog):
        # main() configures its own stderr handler; once it returns, library
        # warnings reach the caller's handlers (here caplog's) again.
        root = logging.getLogger("repro")
        before = root.handlers[:], root.level, root.propagate
        assert cli_main(["store", "stats", str(tmp_path)]) == 0
        assert (root.handlers, root.level, root.propagate) == before
        with caplog.at_level(logging.WARNING):
            logging.getLogger("repro.experiments.sweep").warning("after main")
        assert "after main" in caplog.text

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
