"""Tests for the job-level analytics layer.

Covers the full chain: the per-job record rows of the simulation's one
fold (pinned byte for byte on workload 4), columnar (de)serialisation, the
bit-identity of aggregates recomputed from persisted records,
cache/manifest format compatibility, and the cross-sweep ``query`` engine — including the
acceptance property that ``query --report`` regenerates Figures 1-3/7
byte-identically from stored records alone, across a two-shard merge.
"""

from __future__ import annotations

import hashlib
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
from repro.metrics.streaming import StreamingMetrics
from repro.simulator.simulation import Simulation
from repro.store import MemoryStore, unwrap_blob, wrap_blob
from repro.store.attachments import AttachmentError
from repro.workloads.applications import assign_applications
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
# Records + serialisation
# --------------------------------------------------------------------- #
class TestRecordsRoundTrip:
    def test_sink_captures_every_completed_job(self, workload):
        run = run_workload(workload, "sd_policy", max_slowdown=10.0)
        assert len(run.records.array) == run.result.num_jobs
        assert run.records.array.dtype == JOB_RECORD_DTYPE

    def test_bytes_round_trip_is_exact(self, workload):
        run = run_workload(workload, "static_backfill")
        blob = run.records.to_bytes()
        back = RunRecords.from_bytes(blob)
        assert back.schema == RECORD_SCHEMA_VERSION
        assert back.meta == run.records.meta
        assert np.array_equal(back.array, run.records.array)

    def test_truncated_blob_rejected(self, workload):
        run = run_workload(workload, "static_backfill")
        blob = run.records.to_bytes()
        with pytest.raises(ValueError):
            RunRecords.from_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError):
            RunRecords.from_bytes(b"\x00" * 4)


#: SHA-256 of ``RunRecords.to_bytes()`` for paper workload 4 at scale 0.005
#: (all malleable), recorded while the records were still built by a second
#: fold beside the metrics one, and while runs could still keep their
#: ``Job`` objects (each digest held with and without them).
RECORDS_DIGESTS = {
    "sd_maxsd10": "68dd3f238be090e3d33d43a4e189fcb4d7c2fa50ba05240eb1c0dd5d0429efe9",
    "sd_dynavgsd": "f4623fa0d2172ad7ef0f05d09c49ee2d907d47577e13627c15154f6989751dbd",
    "static_backfill": "c9aac1a8b533acd001413db92b2083eec06d9a63705e9148bafd0c68b646619f",
    "ub_application_aware": "13be6c4b866d0edb528c033b2915916e426e3260231b9f8fecf06ce43e8f88cb",
}


def _pinned_runs():
    workload = build_workload(4, scale=0.005)
    return {
        "sd_maxsd10": (workload, {"policy": "sd_policy", "max_slowdown": 10.0}),
        "sd_dynavgsd": (workload, {"policy": "sd_policy", "max_slowdown": "dynamic"}),
        "static_backfill": (workload, {"policy": "static_backfill"}),
        "ub_application_aware": (
            assign_applications(workload),
            {"policy": "ub_policy", "max_slowdown": 10.0,
             "runtime_model": "application_aware", "profiles": "table2"},
        ),
    }


def test_records_are_byte_identical_to_the_pinned_digests():
    for name, (workload, kwargs) in _pinned_runs().items():
        run = run_workload(workload, malleable_fraction=1.0, **kwargs)
        digest = hashlib.sha256(run.records.to_bytes()).hexdigest()
        assert digest == RECORDS_DIGESTS[name], name


def test_records_are_the_rows_the_metrics_read(monkeypatch):
    sims = []

    class Recorded(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    monkeypatch.setattr("repro.experiments.runner.Simulation", Recorded)
    workload, kwargs = _pinned_runs()["sd_maxsd10"]
    run = run_workload(workload, malleable_fraction=1.0, **kwargs)
    # One concatenation of the fold's rows serves the metrics and the records.
    assert run.records.array is sims[0].streaming.records()
    assert sims[0].jobs == {}  # no Job object outlives the simulation


class TestAggregateBitIdentity:
    """Satellite: metrics recomputed from persisted records are bit-identical
    to the run's own metrics (the ``StreamingMetrics`` fold, itself pinned
    to the ``compute_metrics`` oracle) for every paper preset, whether the
    records come from a fresh run or from the run a cache hit unpickles."""

    @pytest.mark.parametrize("preset", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("from_cache", [True, False])
    def test_presets_round_trip_bit_identical(self, preset, from_cache):
        wl = build_workload(preset, scale=0.02, seed=preset)
        task = SweepTask(workload=wl, policy="sd_policy", key="sd", seed=0,
                         kwargs={"max_slowdown": 10.0})
        store = MemoryStore()
        run = SweepRunner(max_workers=1, store=store).run([task])["sd"]
        if from_cache:
            cached = SweepRunner(max_workers=1, store=store).run([task])
            assert cached.cache_hits == 1
            assert np.array_equal(cached["sd"].records.array, run.records.array)
            run = cached["sd"]
        revived = RunRecords.from_bytes(run.records.to_bytes())
        assert metrics_from_records(revived).as_dict() == run.metrics.as_dict()

    def test_empty_records_yield_zero_metrics(self):
        records = RunRecords(array=StreamingMetrics().records(), meta={"energy_joules": 0.0})
        metrics = metrics_from_records(records)
        assert metrics.num_jobs == 0
        assert metrics.makespan == 0.0


# --------------------------------------------------------------------- #
# Store integration
# --------------------------------------------------------------------- #
class TestAnalyticsStore:
    def test_publish_and_load(self, workload):
        store = MemoryStore()
        run = run_workload(workload, "static_backfill")
        publish_run_records(store, "a" * 16, run.records)
        back = load_run_records(store, "a" * 16)
        assert np.array_equal(back.array, run.records.array)

    def test_missing_records_error_suggests_analytics(self):
        with pytest.raises(AttachmentError, match="--analytics"):
            load_run_records(MemoryStore(), "b" * 16)

    def test_sweep_publishes_records_and_run_blob_stays_plain(self, workload):
        """The cached run payload is the same either way: it carries the
        run's record rows, and an analytics runner also publishes them as
        their own blob, so plain and analytics runners share entries."""
        task = SweepTask(workload=workload, policy="static_backfill",
                         key="plain", seed=0)
        plain_store, analytics_store = MemoryStore(), MemoryStore()
        fresh = SweepRunner(max_workers=1, store=plain_store).run([task])["plain"]
        SweepRunner(max_workers=1, store=analytics_store, analytics=True).run([task])
        key = task_cache_key(task)
        for store in (plain_store, analytics_store):
            payload = pickle.loads(unwrap_blob(store.get(key))[0])
            assert payload["format"] == CACHE_FORMAT_VERSION
            assert np.array_equal(payload["run"].records.array, fresh.records.array)
        published = load_run_records(analytics_store, key)
        assert np.array_equal(published.array, fresh.records.array)
        assert plain_store.get(RECORDS.key(key)) is None
        # A plain runner consumes the analytics runner's entry as a hit.
        rerun = SweepRunner(max_workers=1, store=analytics_store).run([task])
        assert rerun.cache_hits == 1
        assert np.array_equal(rerun["plain"].records.array, fresh.records.array)

    def test_cached_run_blob_holds_no_job_objects(self, workload):
        task = SweepTask(workload=workload, policy="sd_policy", key="sd", seed=0,
                         kwargs={"max_slowdown": 10.0})
        store = MemoryStore()
        SweepRunner(max_workers=1, store=store).run([task])
        payload = unwrap_blob(store.get(task_cache_key(task)))[0]
        assert b"repro.simulator.job" not in payload
        assert b"repro.analytics.records" in payload

    def test_analytics_requires_store(self):
        with pytest.raises(ValueError, match="result store"):
            SweepRunner(max_workers=1, analytics=True)


class TestFormatCompatibility:
    """Only the current payload format is read: a v3 blob written before
    the analytics layer resolves under the same cache key but is an
    ordinary miss, re-executed and overwritten at the current format."""

    def test_version_constants(self):
        assert CACHE_FORMAT_VERSION == 6
        assert CACHE_KEY_VERSION == 3  # key encoding unchanged: old blobs resolve
        assert MANIFEST_FORMAT_VERSION == 5

    def test_pre_analytics_blob_still_hits(self, workload):
        """No longer a hit: the format-3 blob is a miss (not a corruption)
        and is rewritten at format 6."""
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
        assert rewritten["format"] == CACHE_FORMAT_VERSION == 6


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

    @pytest.mark.parametrize("name, scale", [("figure4-6", 0.005), ("figure9", 0.05)])
    def test_builtin_per_job_report_is_byte_identical(self, name, scale):
        """Figures 4-6 and 9 read per-job rows; query renders them from the
        stored records alone, from the spec ``scenario NAME`` builds."""
        store = MemoryStore()
        spec = builtin_scenario(name, scale=scale, seed=3)
        live = run_scenario(spec, runner=SweepRunner(max_workers=1, store=store,
                                                     analytics=True))
        regenerated = render_stored_report(store, name, scale=scale, seed=3)
        assert regenerated == render_report(live)

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
