"""Tests for how a sweep's cache misses run.

Covers the :mod:`repro.experiments.executors` subsystem: serial and
process-pool execution, deterministic sharding with resumable manifests,
the merge step's bit-identity with a single-process run, and
interrupt/failure cleanup (no orphaned ``*.tmp`` cache files, no leftover
pool workers, resumed shards re-run only unfinished tasks).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.experiments.executors import (
    MANIFEST_FORMAT_VERSION,
    ExecutorError,
    MergeExecutor,
    ShardedExecutor,
    parse_shard,
    sweep_id,
)
from repro.experiments.sweep import SweepError, SweepRunner, SweepTask, task_cache_key
from repro.store import LocalFSStore, wrap_blob
from repro.workloads.cirne import CirneWorkloadModel

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def workload():
    return CirneWorkloadModel(
        num_jobs=50, system_nodes=16, cpus_per_node=8, max_job_nodes=8,
        target_load=1.0, median_runtime_s=1800.0, seed=7, name="executor_test",
    ).generate()


@pytest.fixture(scope="module")
def tasks(workload):
    """Five tasks so a 2-way split is uneven (3 + 2)."""
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


def _job_times(run):
    rows = run.records.array
    return list(zip(rows["job_id"].tolist(), rows["start"].tolist(), rows["end"].tolist()))


class TestParseShard:
    def test_valid(self):
        assert parse_shard("1/4") == (0, 4)
        assert parse_shard("4/4") == (3, 4)
        assert parse_shard(" 2/3 ") == (1, 3)

    @pytest.mark.parametrize("bad", ["0/4", "5/4", "1", "a/b", "1/0", "-1/2", "1/2/3"])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_shard(bad)


class TestExecutorSelection:
    def test_serial_and_pool_match(self, tasks):
        serial = SweepRunner(max_workers=1).run(tasks)
        pooled = SweepRunner(max_workers=2).run(tasks)
        assert serial.complete and pooled.complete
        for key in serial.runs:
            assert serial[key].metrics.as_dict() == pooled[key].metrics.as_dict()

    def test_sharding_requires_cache(self, tasks):
        runner = SweepRunner(max_workers=1, executor=ShardedExecutor(0, 2))
        with pytest.raises(ExecutorError, match="cache"):
            runner.run(tasks)


class TestShardedExecution:
    def test_round_robin_partition_is_deterministic(self):
        ex = ShardedExecutor(1, 3)
        assert [i for i in range(7) if ex.owns(i)] == [1, 4]

    def test_shard_runs_only_its_slice(self, tasks, tmp_path):
        cache = tmp_path / "cache"
        part = SweepRunner(
            max_workers=1, store=cache, executor=ShardedExecutor(0, 2)
        ).run(tasks)
        assert not part.complete
        assert part.total_tasks == len(tasks)
        assert [e.key for e in part.entries] == [
            t.resolved_key() for i, t in enumerate(tasks) if i % 2 == 0
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sharded_merge_is_bit_identical(self, tasks, tmp_path, workers):
        """Shards whose slice runs in process or over the pool both merge
        into the single-process result."""
        golden = SweepRunner(max_workers=1).run(tasks)
        cache = tmp_path / "cache"
        for i in range(2):
            SweepRunner(
                max_workers=workers, store=cache, executor=ShardedExecutor(i, 2)
            ).run(tasks)
        merged = SweepRunner(
            max_workers=1, store=cache, executor=MergeExecutor()
        ).run(tasks)
        assert merged.complete
        assert [e.key for e in merged.entries] == [t.resolved_key() for t in tasks]
        for key in golden.runs:
            assert golden[key].metrics.as_dict() == merged[key].metrics.as_dict()
            assert _job_times(golden[key]) == _job_times(merged[key])

    def test_manifest_layout(self, tasks, tmp_path):
        cache = tmp_path / "cache"
        SweepRunner(
            max_workers=1, store=cache, executor=ShardedExecutor(0, 2)
        ).run(tasks)
        manifest_dir = LocalFSStore(cache).manifest_dir
        files = sorted(manifest_dir.glob("*.json"))
        assert len(files) == 1
        manifest = json.loads(files[0].read_text(encoding="utf-8"))
        assert manifest["shard_index"] == 0
        assert manifest["shard_count"] == 2
        assert manifest["total_tasks"] == len(tasks)
        owned = [t for i, t in enumerate(tasks) if i % 2 == 0]
        assert [r["key"] for r in manifest["tasks"]] == [t.resolved_key() for t in owned]
        assert all(r["status"] == "done" for r in manifest["tasks"])
        assert all(Path(r["cache_path"]).exists() for r in manifest["tasks"])
        # v3: every done record carries the blob's SHA-256 content digest.
        assert all(
            isinstance(r["digest"], str) and len(r["digest"]) == 64
            for r in manifest["tasks"]
        )

    def test_shard_inherits_runner_worker_budget(self, tasks, tmp_path, monkeypatch):
        """A runner configured serial must not get a forked pool behind its
        back: a shard runs its slice with the runner's resolved budget."""
        import repro.experiments.executors as executors_mod

        budgets = []
        real = executors_mod.run_tasks

        def recording(tasks, keys, indices, max_workers, complete):
            budgets.append(max_workers)
            return real(tasks, keys, indices, max_workers, complete)

        monkeypatch.setattr(executors_mod, "run_tasks", recording)
        SweepRunner(
            max_workers=1, store=tmp_path / "a", executor=ShardedExecutor(0, 2)
        ).run(tasks)
        assert budgets == [1]

    def test_failed_task_marked_in_manifest(self, workload, tmp_path):
        cache = tmp_path / "cache"
        bad = [SweepTask(workload=workload, policy="no_such_policy", key="bad")]
        runner = SweepRunner(
            max_workers=1, store=cache, executor=ShardedExecutor(0, 1)
        )
        with pytest.raises(SweepError):
            runner.run(bad)
        manifest = json.loads(
            next(LocalFSStore(cache).manifest_dir.glob("*.json")).read_text(encoding="utf-8")
        )
        assert manifest["tasks"][0]["status"] == "failed"


class TestResume:
    def test_resumed_shard_reexecutes_only_unfinished(self, tasks, tmp_path):
        cache = tmp_path / "cache"

        def run_shard():
            events = []
            SweepRunner(
                max_workers=1, store=cache, executor=ShardedExecutor(0, 2),
                progress=lambda done, total, e: events.append(e),
            ).run(tasks)
            return events

        first = run_shard()
        assert all(not e.from_cache for e in first)
        owned_keys = [e.key for e in first]
        # Simulate a kill that lost one task's result but kept the others.
        lost = owned_keys[1]
        runner = SweepRunner(max_workers=1, store=cache)
        lost_index = [t.resolved_key() for t in tasks].index(lost)
        runner.store.blob_path(task_cache_key(tasks[lost_index])).unlink()

        resumed = run_shard()
        executed = [e.key for e in resumed if not e.from_cache]
        assert executed == [lost]
        assert sorted(e.key for e in resumed if e.from_cache) == sorted(
            k for k in owned_keys if k != lost
        )

    def test_merge_refuses_missing_shard(self, tasks, tmp_path):
        cache = tmp_path / "cache"
        SweepRunner(
            max_workers=1, store=cache, executor=ShardedExecutor(0, 2)
        ).run(tasks)
        runner = SweepRunner(max_workers=1, store=cache, executor=MergeExecutor())
        with pytest.raises(ExecutorError, match="2/2"):
            runner.run(tasks)

    def test_merge_refuses_without_manifests(self, tasks, tmp_path):
        runner = SweepRunner(
            max_workers=1, store=tmp_path / "cache", executor=MergeExecutor()
        )
        with pytest.raises(ExecutorError, match="no shard manifests"):
            runner.run(tasks)

    @pytest.mark.parametrize("damage", ["corrupt", "deleted", "header"])
    def test_merge_names_the_key_and_owning_shard_of_a_miss(self, tasks, tmp_path, damage):
        """A merge executes nothing: a corrupt blob, an absent one and one
        whose header does not decode are each a miss, named with its cache
        key and the shard to re-run."""
        cache = tmp_path / "cache"
        for i in range(2):
            SweepRunner(
                max_workers=1, store=cache, executor=ShardedExecutor(i, 2)
            ).run(tasks)
        victim = task_cache_key(tasks[1])  # owned by shard 2/2
        path = cache / f"{victim}.pkl"
        if damage == "corrupt":
            path.write_bytes(b"torn write")
        elif damage == "header":
            path.write_bytes(wrap_blob(b'{"format":7,"rows":"many"}\n')[0])
        else:
            path.unlink()
        runner = SweepRunner(max_workers=1, store=cache, executor=MergeExecutor())
        with pytest.raises(ExecutorError) as excinfo:
            runner.run(tasks)
        message = str(excinfo.value)
        assert f"{tasks[1].resolved_key()} (cache key {victim}): re-run shard 2/2" in message
        assert message.count("re-run shard") == 1

    def test_merge_refuses_a_manifest_of_the_previous_format(self, tasks, tmp_path):
        """A v6 manifest (it still counted quarantined blobs) is refused by
        name; re-running the shard rewrites it at the current format, its
        completed tasks come back as cache hits, and the merge succeeds."""
        cache = tmp_path / "cache"
        shard = SweepRunner(max_workers=1, store=cache, executor=ShardedExecutor(0, 1))
        shard.run(tasks)
        path = next(LocalFSStore(cache).manifest_dir.glob("*.json"))
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest["format"] == MANIFEST_FORMAT_VERSION == 7
        assert "cache_corruptions" not in manifest
        manifest.update(format=6, cache_corruptions=0)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        merge = SweepRunner(max_workers=1, store=cache, executor=MergeExecutor())
        with pytest.raises(ExecutorError, match=f"{path.stem} has format 6; expected 7"):
            merge.run(tasks)
        assert shard.run(tasks).cache_hits == len(tasks)
        assert json.loads(path.read_text(encoding="utf-8"))["format"] == 7
        assert merge.run(tasks).complete

    @pytest.mark.parametrize(
        "damage",
        ["shard_index", "shard_count", "tasks", "tasks-not-list",
         "task.key", "task.status"],
    )
    def test_merge_rejects_malformed_manifest(self, tasks, tmp_path, damage):
        """A manifest missing a field the merge reads is an ExecutorError
        naming the manifest and the field, not a bare KeyError."""
        cache = tmp_path / "cache"
        SweepRunner(
            max_workers=1, store=cache, executor=ShardedExecutor(0, 1)
        ).run(tasks)
        path = next(LocalFSStore(cache).manifest_dir.glob("*.json"))
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if damage == "tasks-not-list":
            manifest["tasks"], field = {}, "tasks"
        elif damage.startswith("task."):
            field = damage[len("task."):]
            del manifest["tasks"][0][field]
        else:
            field = damage
            del manifest[field]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        runner = SweepRunner(max_workers=1, store=cache, executor=MergeExecutor())
        with pytest.raises(ExecutorError, match=f"{path.stem}.*'{field}'"):
            runner.run(tasks)

    def test_sweep_id_is_order_sensitive_and_store_agnostic(self):
        keys = ["a", "b", "c"]
        assert sweep_id(keys) == sweep_id(list(keys))
        assert sweep_id(keys) != sweep_id(keys[::-1])
        with pytest.raises(ExecutorError, match="result store"):
            sweep_id(["a", None, "c"])


class TestInterruptAndFailureCleanup:
    def test_parallel_failure_leaves_no_tmp_and_no_workers(self, workload, tmp_path):
        tasks = [
            SweepTask(workload=workload, policy="fcfs", key="ok"),
            SweepTask(workload=workload, policy="no_such_policy", key="bad"),
            SweepTask(workload=workload, policy="fcfs", key="ok2"),
        ]
        runner = SweepRunner(max_workers=2, store=tmp_path)
        with pytest.raises(SweepError):
            runner.run(tasks)
        assert not list(tmp_path.glob("*.tmp")), "orphaned temp cache files"
        deadline = time.monotonic() + 10
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not multiprocessing.active_children(), "pool workers still alive"

    def test_sigint_mid_sweep_cleans_up(self, tmp_path):
        """A killed (SIGINT) parallel sweep leaves no ``*.tmp`` cache files
        and no live pool workers, and a rerun resumes from the cache."""
        cache = tmp_path / "cache"
        script = textwrap.dedent(
            """
            from repro.experiments.sweep import SweepRunner, SweepTask
            from repro.workloads.cirne import CirneWorkloadModel

            wl = CirneWorkloadModel(
                num_jobs=120, system_nodes=16, cpus_per_node=8, max_job_nodes=8,
                target_load=1.2, median_runtime_s=1800.0, seed=9, name="interrupt",
            ).generate()
            tasks = [
                SweepTask(workload=wl, policy="sd_policy", key=f"m{i}", seed=0,
                          kwargs={"runtime_model": "ideal",
                                  "max_slowdown": 5.0 + i})
                for i in range(12)
            ]
            SweepRunner(max_workers=2, store=%r).run(tasks)
            """
            % str(cache)
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 90
            while time.monotonic() < deadline:
                if list(cache.glob("*.pkl")):
                    break
                if child.poll() is not None:
                    pytest.fail("sweep child exited before producing results")
                time.sleep(0.05)
            else:
                pytest.fail("sweep child produced no cache entries in time")
            child.send_signal(signal.SIGINT)
            child.wait(timeout=90)
        finally:
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait(timeout=30)
        assert child.returncode != 0  # KeyboardInterrupt, not success
        assert not list(cache.glob("*.tmp")), "orphaned temp cache files"
        # The whole process group (pool workers included) must be gone.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(child.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        else:
            os.killpg(child.pid, signal.SIGKILL)
            pytest.fail("pool workers survived the interrupt")
        # Completed tasks are cache hits on resume; the pickles are intact.
        pickles = list(cache.glob("*.pkl"))
        assert pickles
        probe = SweepRunner(max_workers=1, store=cache)
        for path in pickles:
            run, digest = probe._cache_load(path.stem)
            assert run is not None, f"torn cache entry {path.name}"
            assert digest, f"cache entry {path.name} has no content digest"


class TestPartialOutcomeConsumers:
    def test_partial_figure9_outcome_rejected_by_report_and_statistics(self, tmp_path):
        """A shard's partial outcome has no cells: rendering it or reading
        its Figure 9 statistics names the progress instead of drawing
        empty figures."""
        from repro.experiments.scenario import (
            ScenarioError,
            builtin_scenario,
            realrun_improvements,
            render_report,
            run_scenario,
        )

        runner = SweepRunner(
            max_workers=1, store=tmp_path, executor=ShardedExecutor(0, 2)
        )
        outcome = run_scenario(
            builtin_scenario("figure9", scale=0.05, seed=77), runner=runner
        )
        assert not outcome.complete
        for consume in (render_report, realrun_improvements):
            with pytest.raises(ScenarioError, match=r"1/2 sweep tasks complete") as err:
                consume(outcome)
            assert "remaining shards" in str(err.value)


class TestPoolExecutorDirect:
    def test_pool_requires_positive_workers(self):
        with pytest.raises(ValueError):
            SweepRunner(max_workers=0)

    def test_sharded_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            ShardedExecutor(2, 2)
        with pytest.raises(ValueError):
            ShardedExecutor(-1, 2)
        with pytest.raises(ValueError):
            ShardedExecutor(0, 0)
