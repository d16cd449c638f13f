"""Tests for the parallel sweep runner (:mod:`repro.experiments.sweep`)."""

from __future__ import annotations

import copy
import math
import pickle

import numpy as np
import pytest

from repro.analytics.query import outcome_from_records
from repro.experiments import sweep
from repro.experiments.runner import run_workload
from repro.experiments.scenario import builtin_scenario, run_scenario
from repro.experiments.sweep import (
    SweepError,
    SweepRunner,
    SweepTask,
    _canonical_kwargs,
    fingerprint_workload,
    task_cache_key,
    task_cache_keys,
)
from repro.store import MemoryStore
from repro.workloads.applications import assign_applications
from repro.workloads.cirne import CirneWorkloadModel
from repro.workloads.presets import build_workload


@pytest.fixture(scope="module")
def workload():
    return CirneWorkloadModel(
        num_jobs=60, system_nodes=16, cpus_per_node=8, max_job_nodes=8,
        target_load=1.0, median_runtime_s=1800.0, seed=7, name="sweep_test",
    ).generate()


@pytest.fixture(scope="module")
def tasks(workload):
    """A static baseline plus two SD-Policy MAX_SLOWDOWN points."""
    maxsd_tasks = [
        SweepTask(
            workload=workload, policy="sd_policy", key=label, label=label, seed=0,
            kwargs={"runtime_model": "ideal", "max_slowdown": setting,
                    "sharing_factor": 0.5},
        )
        for label, setting in {"MAXSD 10": 10.0, "MAXSD inf": math.inf}.items()
    ]
    return [
        SweepTask(workload=workload, policy="static_backfill", key="static_backfill",
                  seed=0, kwargs={"runtime_model": "ideal"})
    ] + maxsd_tasks


class TestSerialParallelEquivalence:
    def test_identical_metrics_for_same_seeds(self, tasks):
        serial = SweepRunner(max_workers=1).run(tasks)
        parallel = SweepRunner(max_workers=2).run(tasks)
        assert set(serial.runs) == set(parallel.runs)
        for key in serial.runs:
            assert (
                serial[key].metrics.as_dict() == parallel[key].metrics.as_dict()
            ), f"serial/parallel divergence for {key}"

    def test_parallel_preserves_per_job_results(self, tasks):
        serial = SweepRunner(max_workers=1).run(tasks)
        parallel = SweepRunner(max_workers=2).run(tasks)
        for key in serial.runs:
            assert np.array_equal(serial[key].records.array, parallel[key].records.array)

    def test_entries_preserve_task_order(self, tasks):
        result = SweepRunner(max_workers=2).run(tasks)
        assert [e.key for e in result.entries] == [t.resolved_key() for t in tasks]


class TestCache:
    def test_cache_hit_skips_resimulation(self, tasks, tmp_path):
        first = SweepRunner(max_workers=1, store=tmp_path).run(tasks)
        assert first.cache_hits == 0
        second = SweepRunner(max_workers=1, store=tmp_path).run(tasks)
        assert second.cache_hits == len(tasks)
        assert all(e.from_cache for e in second.entries)
        for key in first.runs:
            assert first[key].metrics.as_dict() == second[key].metrics.as_dict()

    def test_cache_key_sensitive_to_config_and_workload(self, workload):
        base = SweepTask(workload=workload, policy="sd_policy", key="a", seed=0,
                         kwargs={"max_slowdown": 10.0})
        other_cfg = SweepTask(workload=workload, policy="sd_policy", key="a", seed=0,
                              kwargs={"max_slowdown": 50.0})
        other_seed = SweepTask(workload=workload, policy="sd_policy", key="a", seed=1,
                               kwargs={"max_slowdown": 10.0})
        assert task_cache_key(base) != task_cache_key(other_cfg)
        assert task_cache_key(base) != task_cache_key(other_seed)
        other_workload = CirneWorkloadModel(
            num_jobs=50, system_nodes=16, cpus_per_node=8, max_job_nodes=8, seed=8,
            name="sweep_test_b",
        ).generate()
        assert task_cache_key(base) != task_cache_key(
            SweepTask(workload=other_workload, policy="sd_policy", key="a", seed=0,
                      kwargs={"max_slowdown": 10.0})
        )

    def test_fingerprint_is_deterministic(self, workload):
        assert fingerprint_workload(workload) == fingerprint_workload(workload)

    def test_cache_key_stable_for_equal_model_objects(self, workload):
        """Object-valued kwargs must not leak memory addresses into the key."""
        from repro.core.runtime_model import WorstCaseRuntimeModel

        def make():
            return SweepTask(
                workload=workload, policy="sd_policy", key="a", seed=0,
                kwargs={"max_slowdown": 10.0, "runtime_model": WorstCaseRuntimeModel()},
            )

        assert task_cache_key(make()) == task_cache_key(make())

    def test_corrupt_cache_entry_is_a_miss(self, tasks, tmp_path):
        runner = SweepRunner(max_workers=1, store=tmp_path)
        runner.run(tasks)
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        result = SweepRunner(max_workers=1, store=tmp_path).run(tasks)
        assert result.cache_hits == 0

    def test_corrupt_cache_entry_is_overwritten_by_the_rerun(self, tasks, tmp_path):
        """A torn blob is an ordinary miss: the rerun overwrites it with the
        bytes it held before, in place, and leaves nothing aside."""
        SweepRunner(max_workers=1, store=tmp_path).run(tasks)
        clean = {path.name: path.read_bytes() for path in tmp_path.glob("*.pkl")}
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"\x80\x04 torn write")
        second = SweepRunner(max_workers=1, store=tmp_path).run(tasks)
        assert second.cache_hits == 0
        assert {path.name: path.read_bytes() for path in tmp_path.glob("*.pkl")} == clean
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(clean)
        third = SweepRunner(max_workers=1, store=tmp_path).run(tasks)
        assert third.cache_hits == len(tasks)

    @pytest.mark.parametrize("damage", ["flipped", "truncated", "unenveloped"])
    def test_unreadable_blob_warns_naming_the_key(self, tasks, tmp_path, caplog, damage):
        """Each blob that fails its envelope logs one WARNING naming its key
        and the store, and is a miss; once rewritten it is silent again."""
        from repro.store import LocalFSStore, unwrap_blob

        SweepRunner(max_workers=1, store=tmp_path).run(tasks)
        store = LocalFSStore(tmp_path)
        victim = task_cache_key(tasks[0])
        data = store.get(victim)
        if damage == "flipped":
            data = data[:-1] + bytes([data[-1] ^ 0xFF])
        elif damage == "truncated":
            data = data[:-1]
        else:
            data = unwrap_blob(data)[0]
        store.put(victim, data)
        with caplog.at_level("WARNING", logger="repro.experiments.sweep"):
            result = SweepRunner(max_workers=1, store=tmp_path).run(tasks)
        assert result.cache_hits == len(tasks) - 1
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1
        assert f"unreadable cache blob {victim} in {store.url}" in messages[0]
        assert "the rerun overwrites it" in messages[0]
        caplog.clear()
        with caplog.at_level("WARNING", logger="repro.experiments.sweep"):
            again = SweepRunner(max_workers=1, store=tmp_path).run(tasks)
        assert again.cache_hits == len(tasks)
        assert not caplog.records

    def test_stale_format_is_miss_not_corruption(self, tasks, tmp_path, caplog):
        from repro.store import unwrap_blob, wrap_blob

        runner = SweepRunner(max_workers=1, store=tmp_path)
        runner.run(tasks)
        for path in tmp_path.glob("*.pkl"):
            payload = unwrap_blob(path.read_bytes())[0]
            assert payload.startswith(b'{"format":7,')
            path.write_bytes(wrap_blob(b'{"format":-1,' + payload[len(b'{"format":7,'):])[0])
        with caplog.at_level("WARNING", logger="repro.experiments.sweep"):
            result = SweepRunner(max_workers=1, store=tmp_path).run(tasks)
        assert result.cache_hits == 0
        assert not caplog.records  # a stale format is no corruption

    def test_progress_callback_reports_cache_hits(self, tasks, tmp_path):
        SweepRunner(max_workers=1, store=tmp_path).run(tasks)
        events = []
        SweepRunner(
            max_workers=1,
            store=tmp_path,
            progress=lambda done, total, entry: events.append(
                (done, total, entry.key, entry.from_cache)
            ),
        ).run(tasks)
        assert [e[0] for e in events] == list(range(1, len(tasks) + 1))
        assert all(total == len(tasks) for _, total, _, _ in events)
        assert all(hit for _, _, _, hit in events)


class TestWorkloadDigestMemo:
    """A batch of keys hashes each workload object once, for that call only."""

    @staticmethod
    def _count_fingerprints(monkeypatch):
        hashed = []

        def counting(workload):
            hashed.append(id(workload))
            return fingerprint_workload(workload)

        monkeypatch.setattr(sweep, "fingerprint_workload", counting)
        return hashed

    def test_faceoff_hashes_each_workload_once(self, monkeypatch):
        spec = builtin_scenario("policy_faceoff", scale=0.005, workload_ids=(1, 2, 3))
        workloads = {ref.key(): ref.build() for ref in spec.workloads}
        tasks = spec.tasks(workloads)
        distinct = sorted({id(task.workload) for task in tasks})
        assert (len(tasks), len(distinct)) == (15, 3)
        store = MemoryStore()

        hashed = self._count_fingerprints(monkeypatch)
        SweepRunner(max_workers=1, store=store).run(tasks)
        assert sorted(hashed) == distinct

        hashed.clear()
        outcome = outcome_from_records(spec, workloads, store)
        assert len(outcome.cells) == 12
        assert sorted(hashed) == distinct

    def test_batch_keys_equal_single_keys(self, tasks):
        assert task_cache_keys(tasks) == [task_cache_key(task) for task in tasks]

    def test_equal_content_workloads_get_equal_keys(self, workload):
        twin = copy.deepcopy(workload)
        tasks = [
            SweepTask(workload=w, policy="fcfs", key=key, label="same", seed=0)
            for key, w in (("a", workload), ("b", twin))
        ]
        first, second = task_cache_keys(tasks)
        assert first == second == task_cache_key(tasks[0])

    def test_record_edited_between_runs_is_a_miss(self, workload):
        edited = copy.deepcopy(workload)
        tasks = [
            SweepTask(workload=edited, policy=policy, key=policy, seed=0)
            for policy in ("fcfs", "static_backfill")
        ]
        store = MemoryStore()
        runner = SweepRunner(max_workers=1, store=store)
        before = task_cache_keys(tasks)
        assert runner.run(tasks).cache_hits == 0
        assert runner.run(tasks).cache_hits == 2

        edited.records[0].run_time += 60.0
        after = task_cache_keys(tasks)
        assert set(after).isdisjoint(before)
        assert runner.run(tasks).cache_hits == 0
        assert sorted(store.list()) == sorted(before + after)


class TestRuntimeModelAliases:
    """A runtime-model alias, in any case, is the canonical model: it takes
    the spec's contention coefficient and shares the canonical cache key."""

    ALIASES = ("contention", "app_aware", "Application_Aware")

    @pytest.fixture(scope="class")
    def app_workload(self):
        return assign_applications(build_workload(3, scale=0.01))

    @staticmethod
    def _metrics(workload, model, coefficient):
        return run_workload(
            workload, "sd_policy", runtime_model=model,
            contention_coefficient=coefficient, max_slowdown=10,
        ).metrics.as_dict()

    def test_alias_runs_the_configured_contention_model(self, app_workload):
        canonical = self._metrics(app_workload, "application_aware", 3.0)
        assert canonical != self._metrics(app_workload, "application_aware", 0.15)
        for alias in self.ALIASES:
            assert self._metrics(app_workload, alias, 3.0) == canonical, alias

    def test_alias_shares_the_canonical_cache_key(self, workload):
        def key(model):
            return task_cache_key(SweepTask(
                workload=workload, policy="sd_policy", key="k", label="aware", seed=0,
                kwargs={"runtime_model": model, "contention_coefficient": 3.0},
            ))

        canonical = key("application_aware")
        assert [key(alias) for alias in self.ALIASES] == [canonical] * len(self.ALIASES)
        assert key("EQ5") == key("ideal") != canonical


class TestCanonicalKwargs:
    """Cache keys must be stable for non-finite floats (NaN ≠ NaN and the
    non-standard ``Infinity``/``NaN`` JSON tokens used to leak into keys)."""

    def test_no_nonstandard_json_tokens(self):
        text = _canonical_kwargs(
            {"a": math.inf, "b": -math.inf, "c": math.nan, "d": [math.inf]}
        )
        assert "Infinity" not in text
        assert "NaN" not in text

    def test_nan_keys_are_stable(self, workload):
        def make():
            return SweepTask(
                workload=workload, policy="sd_policy", key="a", seed=0,
                kwargs={"max_slowdown": float("nan")},
            )

        assert task_cache_key(make()) == task_cache_key(make())

    def test_nonfinite_values_stay_distinct(self, workload):
        def key_for(value):
            return task_cache_key(
                SweepTask(workload=workload, policy="sd_policy", key="a", seed=0,
                          kwargs={"max_slowdown": value})
            )

        keys = [key_for(v) for v in (math.inf, -math.inf, math.nan, 10.0)]
        assert len(set(keys)) == len(keys)

    def test_nested_nonfinite_canonicalised(self):
        a = _canonical_kwargs({"grid": {"cut": [math.inf, 1.0]}, "w": (math.nan,)})
        b = _canonical_kwargs({"grid": {"cut": [float("inf"), 1.0]},
                               "w": [float("nan")]})
        assert a == b

    def test_inf_token_does_not_collide_with_string(self, workload):
        """A float inf and the *string* a spec would hold pre-decode must not
        share a cache key."""
        as_float = SweepTask(workload=workload, policy="sd_policy", key="a", seed=0,
                             kwargs={"max_slowdown": math.inf})
        as_string = SweepTask(workload=workload, policy="sd_policy", key="a", seed=0,
                              kwargs={"max_slowdown": "inf"})
        assert task_cache_key(as_float) != task_cache_key(as_string)

    def test_scenario_decoded_inf_matches_direct_inf(self, workload):
        """scenario.py's ``"inf"`` decoding and a directly-passed math.inf
        land on the same key, so sharded processes agree on cache paths."""
        from repro.experiments.scenario import decode_value

        direct = SweepTask(workload=workload, policy="sd_policy", key="a", seed=0,
                           kwargs={"max_slowdown": math.inf})
        decoded = SweepTask(workload=workload, policy="sd_policy", key="a", seed=0,
                            kwargs={"max_slowdown": decode_value("inf")})
        assert task_cache_key(direct) == task_cache_key(decoded)


class TestFailures:
    def test_serial_failure_surfaces_traceback(self, workload):
        bad = SweepTask(workload=workload, policy="no_such_policy", key="bad")
        with pytest.raises(SweepError) as excinfo:
            SweepRunner(max_workers=1).run([bad])
        message = str(excinfo.value)
        assert "bad" in message
        assert "unknown policy" in message
        assert "Traceback" in message  # the original traceback, not a bare repr

    def test_parallel_failure_surfaces_worker_traceback(self, workload):
        tasks = [
            SweepTask(workload=workload, policy="fcfs", key="ok"),
            SweepTask(workload=workload, policy="no_such_policy", key="bad"),
        ]
        with pytest.raises(SweepError) as excinfo:
            SweepRunner(max_workers=2).run(tasks)
        message = str(excinfo.value)
        assert "unknown policy" in message
        assert "worker traceback" in message
        assert "make_scheduler" in message  # frame from inside the worker

    def test_duplicate_keys_rejected(self, workload):
        tasks = [
            SweepTask(workload=workload, policy="fcfs", key="same"),
            SweepTask(workload=workload, policy="fcfs", key="same"),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            SweepRunner(max_workers=1).run(tasks)


class TestTaskDefaults:
    def test_derived_seed_is_deterministic(self, workload):
        a = SweepTask(workload=workload, policy="fcfs", key="k")
        b = SweepTask(workload=workload, policy="fcfs", key="k")
        assert a.resolved_seed() == b.resolved_seed()
        c = SweepTask(workload=workload, policy="fcfs", key="other")
        assert a.resolved_seed() != c.resolved_seed()

    def test_policy_run_is_picklable(self, workload):
        run = SweepRunner(max_workers=1).run(
            [SweepTask(workload=workload, policy="fcfs", key="p")]
        )["p"]
        clone = pickle.loads(pickle.dumps(run))
        assert clone.metrics.as_dict() == run.metrics.as_dict()


class TestPaperIntegration:
    def test_figure_1_to_3_accepts_runner(self, workload, tmp_path):
        runner = SweepRunner(max_workers=2, store=tmp_path)
        spec = builtin_scenario("figure1-3")
        spec.grid = {"max_slowdown": [
            p for p in spec.grid["max_slowdown"] if p.label == "MAXSD 10"
        ]}
        first = run_scenario(spec, runner=runner, workloads=workload)
        assert first.sweep_cache_hits == 0
        second = run_scenario(spec, runner=runner, workloads=workload)
        assert second.sweep_cache_hits == 2  # baseline + 1 setting
        assert first.normalized() == second.normalized()

    def test_table_1_accepts_runner(self, tmp_path):
        runner = SweepRunner(max_workers=2, store=tmp_path)
        spec = builtin_scenario("table1", scale=0.01, workload_ids=(3,))
        result = run_scenario(spec, runner=runner)
        assert "workload3" in result.baselines
        again = run_scenario(spec, runner=runner)
        assert (again.baselines["workload3"].metrics
                == result.baselines["workload3"].metrics)
