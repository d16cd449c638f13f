"""Tests for the job-level analytics layer.

Covers the full chain: the :class:`JobRecordSink` riding the simulator's
completion dispatch, columnar (de)serialisation, the bit-identity of
aggregates recomputed from persisted records, cache/manifest format
compatibility, and the cross-sweep ``query`` engine — including the
acceptance property that ``query --report`` regenerates Figures 1-3/7
byte-identically from stored records alone, across a two-shard merge.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.analytics.query import (
    QueryError,
    list_runs,
    outcome_from_records,
    render_stored_report,
    run_query,
)
from repro.analytics.records import (
    JOB_RECORD_DTYPE,
    RECORD_SCHEMA_VERSION,
    RECORDS,
    JobRecordSink,
    RunRecords,
    load_run_records,
    metrics_from_records,
    publish_run_records,
)
from repro.experiments.executors import (
    MANIFEST_FORMAT_VERSION,
    MergeExecutor,
    ShardedExecutor,
)
from repro.experiments.runner import run_workload
from repro.experiments.scenario import (
    WorkloadRef,
    builtin_scenario,
    render_report,
    run_scenario,
)
from repro.experiments.sweep import (
    CACHE_FORMAT_VERSION,
    CACHE_KEY_VERSION,
    SweepRunner,
    SweepTask,
    _canonical_kwargs,
    task_cache_key,
)
from repro.store import MemoryStore, unwrap_blob, wrap_blob
from repro.store.attachments import AttachmentError
from repro.workloads.cirne import CirneWorkloadModel
from repro.workloads.presets import build_workload


@pytest.fixture(scope="module")
def workload():
    return CirneWorkloadModel(
        num_jobs=80, system_nodes=16, cpus_per_node=8, max_job_nodes=8,
        target_load=1.0, median_runtime_s=1800.0, seed=13, name="analytics_test",
    ).generate()


def _run_on(workload, name, runner, **overrides):
    """Run built-in ``name`` on a prebuilt workload, as the CLI does."""
    spec = builtin_scenario(name, **overrides)
    spec.workloads = [WorkloadRef(name=workload.name)]
    return run_scenario(spec, runner=runner, workloads=workload)


# --------------------------------------------------------------------- #
# Sink + serialisation
# --------------------------------------------------------------------- #
class TestRecordsRoundTrip:
    def test_sink_captures_every_completed_job(self, workload):
        run = run_workload(workload, "sd_policy", analytics=True,
                           max_slowdown=10.0)
        assert run.records is not None
        assert len(run.records.array) == run.result.num_jobs
        assert run.records.array.dtype == JOB_RECORD_DTYPE

    def test_bytes_round_trip_is_exact(self, workload):
        run = run_workload(workload, "static_backfill", analytics=True)
        blob = run.records.to_bytes()
        back = RunRecords.from_bytes(blob)
        assert back.schema == RECORD_SCHEMA_VERSION
        assert back.meta == run.records.meta
        assert np.array_equal(back.array, run.records.array)

    def test_truncated_blob_rejected(self, workload):
        run = run_workload(workload, "static_backfill", analytics=True)
        blob = run.records.to_bytes()
        with pytest.raises(ValueError):
            RunRecords.from_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError):
            RunRecords.from_bytes(b"\x00" * 4)

    def test_streamed_and_retained_runs_record_identically(self, workload):
        kept = run_workload(workload, "sd_policy", analytics=True,
                            max_slowdown=10.0)
        streamed = run_workload(workload, "sd_policy", analytics=True,
                                retain_jobs=False, max_slowdown=10.0)
        assert np.array_equal(kept.records.array, streamed.records.array)


class TestAggregateBitIdentity:
    """Satellite: metrics recomputed from persisted records are bit-identical
    to both metric paths (``compute_metrics`` over retained jobs, and
    ``StreamingMetrics`` folds) for every paper preset."""

    @pytest.mark.parametrize("preset", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("retain_jobs", [True, False])
    def test_presets_round_trip_bit_identical(self, preset, retain_jobs):
        wl = build_workload(preset, scale=0.02, seed=preset)
        run = run_workload(wl, "sd_policy", analytics=True,
                           retain_jobs=retain_jobs, max_slowdown=10.0)
        revived = RunRecords.from_bytes(run.records.to_bytes())
        assert metrics_from_records(revived).as_dict() == run.metrics.as_dict()

    def test_empty_records_yield_zero_metrics(self):
        sink = JobRecordSink()
        records = RunRecords(array=sink.to_array(), meta={"energy_joules": 0.0})
        metrics = metrics_from_records(records)
        assert metrics.num_jobs == 0
        assert metrics.makespan == 0.0


# --------------------------------------------------------------------- #
# Store integration
# --------------------------------------------------------------------- #
class TestAnalyticsStore:
    def test_publish_and_load(self, workload):
        store = MemoryStore()
        run = run_workload(workload, "static_backfill", analytics=True)
        publish_run_records(store, "a" * 16, run.records)
        back = load_run_records(store, "a" * 16)
        assert np.array_equal(back.array, run.records.array)

    def test_missing_records_error_suggests_analytics(self):
        with pytest.raises(AttachmentError, match="--analytics"):
            load_run_records(MemoryStore(), "b" * 16)

    def test_sweep_publishes_records_and_run_blob_stays_plain(self, workload):
        """The cached run payload carries no records either way: they live
        in their own blob, so plain and analytics runners share entries."""
        task = SweepTask(workload=workload, policy="static_backfill",
                         key="plain", seed=0)
        plain_store, analytics_store = MemoryStore(), MemoryStore()
        SweepRunner(max_workers=1, store=plain_store).run([task])
        SweepRunner(max_workers=1, store=analytics_store, analytics=True).run([task])
        key = task_cache_key(task)
        for store in (plain_store, analytics_store):
            payload = pickle.loads(unwrap_blob(store.get(key))[0])
            assert payload["format"] == CACHE_FORMAT_VERSION
            assert getattr(payload["run"], "records", None) is None
        assert analytics_store.get(RECORDS.key(key)) is not None
        assert plain_store.get(RECORDS.key(key)) is None
        # A plain runner consumes the analytics runner's entry as a hit.
        rerun = SweepRunner(max_workers=1, store=analytics_store).run([task])
        assert rerun.cache_hits == 1

    def test_analytics_requires_store(self):
        with pytest.raises(ValueError, match="result store"):
            SweepRunner(max_workers=1, analytics=True)


class TestFormatCompatibility:
    """Only the current payload format is read: a v3 blob written before
    the analytics layer resolves under the same cache key but is an
    ordinary miss, re-executed and overwritten at the current format."""

    def test_version_constants(self):
        assert CACHE_FORMAT_VERSION == 5
        assert CACHE_KEY_VERSION == 3  # key encoding unchanged: old blobs resolve
        assert MANIFEST_FORMAT_VERSION == 5

    def test_pre_analytics_blob_still_hits(self, workload):
        """No longer a hit: the format-3 blob is a miss (not a corruption)
        and is rewritten at format 5."""
        task = SweepTask(workload=workload, policy="static_backfill",
                         key="legacy", seed=0)
        run = run_workload(workload, "static_backfill", seed=task.resolved_seed())
        # Emulate a pre-analytics pickle: format 3, and no `records`
        # attribute at all in the PolicyRun state.
        run.__dict__.pop("records", None)
        payload = {
            "format": 3,
            "key": task.resolved_key(),
            "policy": task.policy,
            "seed": task.resolved_seed(),
            "kwargs": _canonical_kwargs(task.kwargs),
            "workload": workload.name,
            "run": run,
        }
        enveloped, _ = wrap_blob(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )
        store = MemoryStore()
        key = task_cache_key(task)
        store.put(key, enveloped)
        result = SweepRunner(max_workers=1, store=store).run([task])
        assert result.cache_hits == 0
        assert result.cache_corruptions == 0
        assert result["legacy"].metrics.as_dict() == run.metrics.as_dict()
        rewritten = pickle.loads(unwrap_blob(store.get(key))[0])
        assert rewritten["format"] == CACHE_FORMAT_VERSION == 5


# --------------------------------------------------------------------- #
# Query engine
# --------------------------------------------------------------------- #
class TestQuery:
    @pytest.fixture(scope="class")
    def populated(self, workload):
        store = MemoryStore()
        runner = SweepRunner(max_workers=1, store=store, analytics=True)
        result = _run_on(workload, "figure1-3", runner)
        return store, result

    def test_list_runs(self, populated):
        store, _ = populated
        text = list_runs(store)
        assert "baseline" in text
        assert "DynAVGSD" in text

    def test_group_by_label(self, populated):
        store, _ = populated
        text = run_query(store, group_by="label",
                         metrics=[("slowdown", "mean"), ("job_id", "count")])
        assert "MAXSD 10" in text
        assert "static_backfill" in text  # the baseline run's label

    def test_row_filter_and_errors(self, populated):
        store, _ = populated
        text = run_query(store, where=[("malleable", "1")],
                         metrics=[("slowdown", "p99")])
        assert "job row(s)" in text
        with pytest.raises(QueryError, match="unknown"):
            run_query(store, metrics=[("not_a_column", "mean")])
        with pytest.raises(QueryError, match="unknown aggregation"):
            run_query(store, metrics=[("slowdown", "sum")])
        with pytest.raises(QueryError, match="no analytics runs"):
            run_query(MemoryStore())

    def test_fig1_to_3_report_is_byte_identical(self, populated, workload):
        store, result = populated
        assert render_stored_report(store, "fig1-3", workload=workload) == render_report(result)

    def test_single_figure_is_a_chart_of_the_full_report(self, populated, workload):
        store, result = populated
        fig2 = render_stored_report(store, "fig2", workload=workload)
        assert fig2 in render_report(result)
        assert fig2.startswith("Figure 2")

    def test_outcome_from_records_normalises_like_the_sweep(self, populated, workload):
        store, _ = populated
        spec = builtin_scenario("figure1-3")
        spec.workloads = [WorkloadRef(name=workload.name)]
        outcome = outcome_from_records(spec, workload, store)
        normalized = outcome.normalized()
        assert set(normalized) == {
            "MAXSD 5", "MAXSD 10", "MAXSD 50", "MAXSD inf", "DynAVGSD"
        }
        for vals in normalized.values():
            assert vals["makespan"] > 0

    def test_report_without_records_raises(self, workload):
        with pytest.raises(QueryError, match="--analytics"):
            render_stored_report(MemoryStore(), "fig1-3", workload=workload)

    def test_fig7_report_is_byte_identical(self, workload):
        store = MemoryStore()
        runner = SweepRunner(max_workers=1, store=store, analytics=True)
        result = _run_on(workload, "figure7", runner, max_slowdown=10.0)
        regenerated = render_stored_report(
            store, "fig7", workload=workload, max_slowdown=10.0
        )
        assert regenerated == render_report(result)

    def test_sharded_merge_then_query_is_byte_identical(self, workload):
        """Acceptance: two analytics shards through one shared store, merged,
        then regenerated from records alone — same bytes."""
        store = MemoryStore()
        for index in range(2):
            _run_on(
                workload,
                "figure1-3",
                SweepRunner(
                    max_workers=1, store=store, analytics=True,
                    executor=ShardedExecutor(index, 2),
                ),
            )
        merged = _run_on(
            workload,
            "figure1-3",
            SweepRunner(max_workers=1, store=store, executor=MergeExecutor()),
        )
        assert merged.complete
        assert (render_stored_report(store, "fig1-3", workload=workload)
                == render_report(merged))
