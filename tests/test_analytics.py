"""Tests for the job-level analytics layer.

Covers the full chain: the per-job record rows of the simulation's one
fold (pinned byte for byte on workload 4), the cached run blob as their
one stored form, the bit-identity of aggregates recomputed from stored
records, cache/manifest format compatibility, and the cross-sweep
``query`` engine — including the acceptance property that ``query
--report`` regenerates Figures 1-3/7 byte-identically from stored runs
alone, across a two-shard merge.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
import struct

import numpy as np
import pytest

from repro.analytics.query import (
    QueryError,
    list_runs,
    outcome_from_records,
    run_query,
)
from repro.analytics.records import JOB_RECORD_DTYPE
from repro.cli import main
from repro.experiments.executors import (
    MANIFEST_FORMAT_VERSION,
    MergeExecutor,
    ShardedExecutor,
)
from repro.experiments.runner import run_workload
from repro.experiments.scenario import (
    BUILTIN_SCENARIOS,
    WorkloadRef,
    builtin_scenario,
    render_report,
    run_scenario,
)
from repro.experiments.sweep import (
    CACHE_FORMAT_VERSION,
    CACHE_KEY_VERSION,
    CACHE_PAYLOAD_FIELDS,
    SweepRunner,
    SweepTask,
    _canonical_kwargs,
    iter_cached_runs,
    read_cached_run,
    task_cache_key,
)
from repro.metrics.aggregates import WorkloadMetrics
from repro.metrics.streaming import StreamingMetrics
from repro.simulator.simulation import Simulation
from repro.store import MemoryStore, StoreError, unwrap_blob, wrap_blob
from repro.workloads.applications import assign_applications
from repro.workloads.cirne import CirneWorkloadModel
from repro.workloads.presets import build_workload


@pytest.fixture(scope="module")
def workload():
    return CirneWorkloadModel(
        num_jobs=80, system_nodes=16, cpus_per_node=8, max_job_nodes=8,
        target_load=1.0, median_runtime_s=1800.0, seed=13, name="analytics_test",
    ).generate()


def _spec_on(workload, name, **overrides):
    """Built-in ``name`` pointed at a prebuilt workload, as ``--swf`` does."""
    spec = builtin_scenario(name, **overrides)
    spec.workloads = [WorkloadRef(name=workload.name)]
    return spec


def _run_on(workload, name, runner, **overrides):
    return run_scenario(_spec_on(workload, name, **overrides), runner=runner, workloads=workload)


def _stored_report(store, workload, name, **overrides):
    """What ``query --report NAME`` prints for a prebuilt workload."""
    spec = _spec_on(workload, name, **overrides)
    return render_report(outcome_from_records(spec, workload, store))


def _static_task(workload, key="plain"):
    return SweepTask(workload=workload, policy="static_backfill", key=key, seed=0)


# --------------------------------------------------------------------- #
# Records and the run blob that stores them
# --------------------------------------------------------------------- #
class TestRecordsRoundTrip:
    def test_sink_captures_every_completed_job(self, workload):
        run = run_workload(workload, "sd_policy", max_slowdown=10.0)
        assert len(run.records.array) == run.result.num_jobs
        assert run.records.array.dtype == JOB_RECORD_DTYPE

    def test_bytes_round_trip_is_exact(self, workload):
        """The records come back from the cached run blob's bytes exactly,
        as a read-only view, next to the stored (not recomputed) metrics."""
        store = MemoryStore()
        run = SweepRunner(max_workers=1, store=store).run([_static_task(workload)])["plain"]
        [(_key, payload)] = iter_cached_runs(store)
        back = payload["run"]
        assert np.array_equal(back.records.array, run.records.array)
        assert back.records.array.dtype == JOB_RECORD_DTYPE
        assert not back.records.array.flags.writeable
        assert back.result == run.result
        assert back.metrics == run.metrics
        assert back.scheduler_stats == run.scheduler_stats

    def test_truncated_blob_rejected(self, workload):
        """``query`` is read-only: a corrupt run blob is an error naming its
        key and the commands that fix it, and nothing is rewritten."""
        store = MemoryStore()
        task = _static_task(workload)
        SweepRunner(max_workers=1, store=store).run([task])
        key = task_cache_key(task)
        truncated = store.get(key)[:-100]
        store.put(key, truncated)
        blobs = store.list()
        with pytest.raises(StoreError, match=f"cache blob {key} .*re-run the sweep"
                                             ".*'store verify --delete'"):
            run_query(store)
        assert store.list() == blobs
        assert store.get(key) == truncated


def _pinned_layout(run, policy) -> bytes:
    """The byte layout the digests below were recorded over: an 8-byte
    big-endian header length, the sorted JSON header (the record schema,
    the row count and the run's metadata), then the array in ``np.save``
    format."""
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(run.records.array), allow_pickle=False)
    meta = {
        "workload": run.workload_name,
        "policy": policy,
        "label": run.label,
        "seed": 0,
        "first_submit": run.result.first_submit,
        "energy_joules": run.result.energy_joules,
        "num_jobs": run.result.num_jobs,
    }
    header = json.dumps(
        {"schema": 1, "rows": len(run.records), "meta": meta},
        sort_keys=True,
    ).encode("utf-8")
    return struct.pack(">Q", len(header)) + header + buf.getvalue()


#: SHA-256 of :func:`_pinned_layout` for paper workload 4 at scale 0.005
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
        digest = hashlib.sha256(_pinned_layout(run, kwargs["policy"])).hexdigest()
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
    """Metrics recomputed from stored records are bit-identical
    to the run's own metrics (the ``StreamingMetrics`` fold, itself pinned
    to the ``compute_metrics`` oracle) for every paper preset, whether the
    records come from a fresh run or from the run a cache hit decodes."""

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
        rebuilt = WorkloadMetrics.from_records(
            run.records.array, run.result.first_submit, run.result.energy_joules
        )
        assert rebuilt.as_dict() == run.metrics.as_dict()

    def test_empty_records_yield_zero_metrics(self):
        metrics = WorkloadMetrics.from_records(StreamingMetrics().records(), None, 0.0)
        assert metrics.num_jobs == 0
        assert metrics.makespan == 0.0


# --------------------------------------------------------------------- #
# Store integration
# --------------------------------------------------------------------- #
class TestAnalyticsStore:
    def test_publish_and_load(self, workload):
        """A sweep publishes each run once, and ``iter_cached_runs`` loads
        it with the coordinates a query filters and groups by."""
        store = MemoryStore()
        task = SweepTask(workload=workload, policy="sd_policy", key="sd", seed=4,
                         kwargs={"max_slowdown": 10.0})
        run = SweepRunner(max_workers=1, store=store).run([task])["sd"]
        [(key, payload)] = iter_cached_runs(store)
        assert key == task_cache_key(task)
        assert (payload["key"], payload["policy"], payload["seed"], payload["workload"]) == (
            "sd", "sd_policy", 4, workload.name
        )
        assert payload["run"].label == run.label
        assert np.array_equal(payload["run"].records.array, run.records.array)

    def test_sweep_publishes_records_and_run_blob_stays_plain(self, workload):
        """A plain sweep stores the records inside the run blob and nowhere
        else, and every task it ran is queryable."""
        tasks = [_static_task(workload, "static"),
                 SweepTask(workload=workload, policy="sd_policy", key="sd", seed=0,
                           kwargs={"max_slowdown": 10.0})]
        store = MemoryStore()
        fresh = SweepRunner(max_workers=1, store=store).run(tasks)
        assert store.list() == sorted(task_cache_key(task) for task in tasks)
        assert not [key for key in store.list() if key.endswith("-records")]
        assert store.list_manifests("analytics-") == []
        for task in tasks:
            payload = read_cached_run(store, task_cache_key(task))
            assert payload["format"] == CACHE_FORMAT_VERSION
            assert np.array_equal(
                payload["run"].records.array, fresh[task.key].records.array
            )
        listing = list_runs(store)
        assert listing.startswith(f"stored runs ({len(tasks)})")
        for task in tasks:
            assert task.key in listing

    def test_rerun_is_all_cache_hits_and_stays_queryable(self, tmp_path, capsys):
        """Regression: a second run of the same sweep re-simulates nothing."""
        argv = ["scenario", "figure1-3", "--workload", "1", "--scale", "0.02",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "cache hits: 6" in second.err
        assert second.out == first.out
        assert main(["query", "--cache-dir", str(tmp_path), "--list"]) == 0
        assert "stored runs (6)" in capsys.readouterr().out

    def test_cached_run_blob_holds_no_job_objects(self, workload):
        """The payload is one canonical JSON header line, then the raw
        record rows and nothing else."""
        task = SweepTask(workload=workload, policy="sd_policy", key="sd", seed=0,
                         kwargs={"max_slowdown": 10.0})
        store = MemoryStore()
        run = SweepRunner(max_workers=1, store=store).run([task])["sd"]
        payload = unwrap_blob(store.get(task_cache_key(task)))[0]
        line, rows = payload.split(b"\n", 1)
        header = json.loads(line)
        assert sorted(header) == sorted(CACHE_PAYLOAD_FIELDS)
        assert line == json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        assert header["rows"] == run.result.num_jobs
        assert rows == run.records.array.tobytes()


class TestFormatCompatibility:
    """Only the current payload format is read: a pickled v6 blob resolves
    under the same cache key but is an ordinary miss, never unpickled,
    re-executed and overwritten at the current format."""

    def test_version_constants(self):
        assert CACHE_FORMAT_VERSION == 7
        assert CACHE_KEY_VERSION == 3  # key encoding unchanged: old blobs resolve
        assert MANIFEST_FORMAT_VERSION == 7

    @staticmethod
    def _format6_store(workload):
        """A store holding one digest-valid blob of the last pickled
        format, v6."""
        task = _static_task(workload, "legacy")
        run = run_workload(workload, "static_backfill", seed=task.resolved_seed())
        payload = {
            "format": 6,
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
        store.put(task_cache_key(task), enveloped)
        return store, task, run

    def test_pickled_blob_is_an_ordinary_miss(self, workload, monkeypatch, caplog):
        """The v6 blob is a miss (not a corruption: no warning), is never
        unpickled and is rewritten at the current format."""
        store, task, run = self._format6_store(workload)
        key = task_cache_key(task)
        assert read_cached_run(store, key) is None

        def refuse(*_args, **_kwargs):
            raise AssertionError("a cached payload was unpickled")

        monkeypatch.setattr(pickle, "loads", refuse)
        monkeypatch.setattr(pickle, "load", refuse)
        with caplog.at_level("WARNING", logger="repro.experiments.sweep"):
            result = SweepRunner(max_workers=1, store=store).run([task])
        assert result.cache_hits == 0
        assert not caplog.records
        assert result["legacy"].metrics.as_dict() == run.metrics.as_dict()
        assert read_cached_run(store, key)["format"] == CACHE_FORMAT_VERSION == 7

    def test_edited_or_truncated_header_names_the_key_and_the_field(self, workload):
        """A digest-valid payload whose header was edited or cut short is a
        corrupt blob: ``query`` raises naming the cache key and the header
        field, and a sweep reads it as a miss and overwrites it."""
        store = MemoryStore()
        task = _static_task(workload)
        SweepRunner(max_workers=1, store=store).run([task])
        key = task_cache_key(task)
        line, rows = unwrap_blob(store.get(key))[0].split(b"\n", 1)
        header = json.loads(line)
        edited = dict(header, rows=header["rows"] + 1)
        cut = {name: header[name] for name in CACHE_PAYLOAD_FIELDS[:6]}
        for bad, field in ((edited, "rows"), (cut, "label")):
            text = json.dumps(bad, sort_keys=True, separators=(",", ":")).encode()
            store.put(key, wrap_blob(text + b"\n" + rows)[0])
            with pytest.raises(StoreError, match=f"cache blob {key} .*header field '{field}'"):
                read_cached_run(store, key)
        store.put(key, wrap_blob(line[:40])[0])
        with pytest.raises(StoreError, match=f"cache blob {key} .*header"):
            read_cached_run(store, key)
        result = SweepRunner(max_workers=1, store=store).run([task])
        assert result.cache_hits == 0
        assert read_cached_run(store, key)["format"] == CACHE_FORMAT_VERSION

    def test_iter_cached_runs_skips_other_formats_and_traces(self, workload):
        store, legacy, _run = self._format6_store(workload)
        traced = SweepTask(workload=workload, policy="sd_policy", key="sd", seed=0,
                           kwargs={"max_slowdown": 10.0})
        SweepRunner(max_workers=1, store=store, trace=True).run([traced])
        assert store.exists(task_cache_key(legacy))
        assert store.exists(f"{task_cache_key(traced)}-trace")
        assert [key for key, _payload in iter_cached_runs(store)] == [task_cache_key(traced)]


# --------------------------------------------------------------------- #
# Query engine
# --------------------------------------------------------------------- #
class TestQuery:
    @pytest.fixture(scope="class")
    def populated(self, workload):
        store = MemoryStore()
        result = _run_on(workload, "figure1-3", SweepRunner(max_workers=1, store=store))
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
        with pytest.raises(QueryError, match="no stored runs"):
            run_query(MemoryStore())

    def test_fig1_to_3_report_is_byte_identical(self, populated, workload):
        store, result = populated
        assert _stored_report(store, workload, "figure1-3") == render_report(result)

    def test_outcome_from_records_normalises_like_the_sweep(self, populated, workload):
        store, _ = populated
        outcome = outcome_from_records(_spec_on(workload, "figure1-3"), workload, store)
        normalized = outcome.normalized()
        assert set(normalized) == {
            "MAXSD 5", "MAXSD 10", "MAXSD 50", "MAXSD inf", "DynAVGSD"
        }
        for vals in normalized.values():
            assert vals["makespan"] > 0

    def test_report_without_records_raises(self, workload):
        with pytest.raises(QueryError, match="run that scenario into this store") as excinfo:
            _stored_report(MemoryStore(), workload, "figure1-3")
        assert "--analytics" not in str(excinfo.value)

    def test_fig7_report_is_byte_identical(self, workload):
        store = MemoryStore()
        runner = SweepRunner(max_workers=1, store=store)
        result = _run_on(workload, "figure7", runner, max_slowdown=10.0)
        regenerated = _stored_report(store, workload, "figure7", max_slowdown=10.0)
        assert regenerated == render_report(result)

    @pytest.mark.parametrize(
        "argv",
        [pytest.param([name, "--scale", "0.005"], id=name) for name in sorted(BUILTIN_SCENARIOS)]
        + [pytest.param(["figure1-3", "--workload", "3", "--scale", "0.005", "--seed", "3"],
                        id="figure1-3-workload3")],
    )
    def test_builtin_report_is_byte_identical(self, tmp_path, capsys, argv):
        """``query --report NAME`` builds the spec ``scenario NAME`` builds
        and renders its report from the stored runs alone."""
        cache = ["--workers", "1", "--cache-dir", str(tmp_path)]
        assert main(["scenario", *argv, *cache]) == 0
        live = capsys.readouterr().out
        assert live
        assert main(["query", "--report", *argv, *cache[2:]]) == 0
        assert capsys.readouterr().out == live

    def test_cli_workload_hits_the_runs_of_the_builtin(self, tmp_path, capsys):
        """``--workload N`` builds the runs ``builtin_scenario(...,
        workload_id=N)`` builds: every one is a cache hit."""
        spec = builtin_scenario("figure1-3", workload_id=3, scale=0.01)
        run_scenario(spec, runner=SweepRunner(max_workers=1, store=tmp_path))
        assert main(["scenario", "figure1-3", "--workload", "3", "--scale", "0.01",
                     "--workers", "1", "--cache-dir", str(tmp_path)]) == 0
        assert "cache hits: 6" in capsys.readouterr().err

    def test_sharded_merge_then_query_is_byte_identical(self, workload):
        """Acceptance: two shards through one shared store, merged, then
        regenerated from the stored runs alone — same bytes."""
        store = MemoryStore()
        for index in range(2):
            _run_on(
                workload,
                "figure1-3",
                SweepRunner(
                    max_workers=1, store=store, executor=ShardedExecutor(index, 2)
                ),
            )
        merged = _run_on(
            workload,
            "figure1-3",
            SweepRunner(max_workers=1, store=store, executor=MergeExecutor()),
        )
        assert merged.complete
        assert _stored_report(store, workload, "figure1-3") == render_report(merged)
