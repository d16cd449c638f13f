"""End-to-end integration tests: whole workloads through every policy,
checking cross-module invariants rather than individual units."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.runtime_model import IdealRuntimeModel, runtime_increase_from_history
from repro.core.sd_policy import SDPolicyConfig, SDPolicyScheduler
from repro.experiments.runner import cluster_for, run_workload
from repro.metrics.aggregates import compute_metrics
from repro.simulator.job import JobState
from repro.simulator.simulation import Simulation
from repro.workloads.cirne import CirneWorkloadModel
from tests.conftest import completed_jobs


@pytest.fixture(scope="module")
def workload():
    """A congested 150-job workload on a 16-node system."""
    return CirneWorkloadModel(
        num_jobs=150, system_nodes=16, cpus_per_node=8, max_job_nodes=8,
        target_load=1.1, median_runtime_s=2400.0, seed=31, name="integration",
    ).generate()


@pytest.fixture(scope="module")
def runs_and_jobs(workload):
    """Run the workload under FCFS, static backfill and SD-Policy once,
    keeping each run's completed jobs (in completion order) beside it."""
    out = {}
    for label, policy, kwargs in (
        ("fcfs", "fcfs", {}),
        ("static", "static_backfill", {}),
        ("sd_inf", "sd_policy", {"max_slowdown": math.inf}),
        ("sd_dyn", "sd_policy", {"max_slowdown": "dynamic"}),
    ):
        with completed_jobs() as jobs:
            run = run_workload(workload, policy, runtime_model="ideal", **kwargs)
        out[label] = (run, jobs)
    return out


@pytest.fixture(scope="module")
def runs(runs_and_jobs):
    return {label: run for label, (run, _) in runs_and_jobs.items()}


@pytest.fixture(scope="module")
def jobs(runs_and_jobs):
    return {label: jobs for label, (_, jobs) in runs_and_jobs.items()}


class TestCompleteness:
    def test_every_policy_completes_every_job(self, workload, runs, jobs):
        for label, run in runs.items():
            assert run.metrics.num_jobs == len(workload), label
            assert len(jobs[label]) == len(workload), label
            assert all(j.state is JobState.COMPLETED for j in jobs[label]), label

    def test_wait_times_non_negative(self, runs):
        for run in runs.values():
            assert (run.records.array["wait"] >= 0).all()

    def test_slowdowns_at_least_one(self, runs):
        for run in runs.values():
            assert (run.records.array["slowdown"] >= 0.999).all()

    def test_static_policies_never_dilate_runtimes(self, runs):
        for label in ("fcfs", "static"):
            rows = runs[label].records.array
            assert rows["runtime"] == pytest.approx(rows["static_runtime"], rel=1e-9)

    def test_runtime_dilation_only_for_shared_jobs(self, jobs):
        for job in jobs["sd_inf"]:
            if not job.scheduled_malleable and not job.was_mate:
                assert job.actual_runtime == pytest.approx(job.static_runtime, rel=1e-6)


class TestOrdering:
    def test_backfill_beats_fcfs_on_waits(self, runs):
        assert runs["static"].metrics.avg_wait_time <= runs["fcfs"].metrics.avg_wait_time * 1.01

    def test_sd_policy_improves_average_slowdown(self, runs):
        assert runs["sd_inf"].metrics.avg_slowdown < runs["static"].metrics.avg_slowdown

    def test_sd_policy_improves_average_response(self, runs):
        assert runs["sd_inf"].metrics.avg_response_time < runs["static"].metrics.avg_response_time

    def test_sd_policy_schedules_malleable_jobs(self, runs):
        assert runs["sd_inf"].metrics.malleable_scheduled > 0
        assert runs["sd_inf"].metrics.mate_jobs > 0

    def test_dynamic_cutoff_is_more_conservative_than_infinite(self, runs):
        assert (
            runs["sd_dyn"].metrics.malleable_scheduled
            <= runs["sd_inf"].metrics.malleable_scheduled
        )

    def test_makespan_within_reasonable_band_of_static(self, runs):
        ratio = runs["sd_inf"].metrics.makespan / runs["static"].metrics.makespan
        assert 0.85 <= ratio <= 1.15


class TestResourceConsistency:
    def test_cluster_never_overallocated(self, workload):
        cluster = cluster_for(workload)
        sim = Simulation(cluster, SDPolicyScheduler(SDPolicyConfig(max_slowdown=math.inf)),
                         runtime_model=IdealRuntimeModel())
        sim.submit_jobs(workload.to_jobs(cpus_per_node=cluster.cpus_per_node))
        # Validate the cluster invariants every 200 events while running.
        steps = 0
        while sim.step():
            steps += 1
            if steps % 200 == 0:
                cluster.validate()
        cluster.validate()
        assert sim.result().num_jobs == len(workload)

    def test_per_slot_allocations_within_node_capacity(self, jobs):
        for run_jobs in jobs.values():
            for job in run_jobs:
                for slot in job.resource_history:
                    assert all(0 < c <= 8 for c in slot.cpus_per_node.values())

    def test_ideal_model_conserves_cpu_seconds(self, runs):
        # Under the ideal execution model, a job's consumed CPU-seconds never
        # exceed its static work (assigned CPUs it cannot use are capped).
        rows = runs["sd_inf"].records.array
        static_work = rows["static_runtime"] * rows["requested_cpus"]
        assert (rows["cpu_seconds"] <= static_work * 1.001).all()

    def test_runtime_increase_matches_history_equations(self, jobs):
        # Cross-check the simulator's integration against Eq. 5 applied to
        # the recorded history: actual runtime == static + increase.
        for job in jobs["sd_inf"]:
            if not job.scheduled_malleable:
                continue
            increase = runtime_increase_from_history(job)
            assert job.actual_runtime == pytest.approx(
                job.static_runtime + increase, rel=1e-6, abs=1e-3
            )

    def test_energy_consistent_with_metrics_module(self, runs, jobs):
        run = runs["static"]
        recomputed = compute_metrics(jobs["static"], energy_joules=run.result.energy_joules)
        assert recomputed.avg_slowdown == pytest.approx(run.metrics.avg_slowdown)
        assert recomputed.makespan == pytest.approx(run.metrics.makespan)


class TestMixedWorkload:
    def test_partial_malleability_still_works(self, workload):
        run = run_workload(workload, "sd_policy", runtime_model="ideal",
                           malleable_fraction=0.5, max_slowdown=math.inf, seed=3)
        assert run.metrics.num_jobs == len(workload)
        rows = run.records.array
        assert not (rows["scheduled_malleable"] & (rows["malleable"] == 0)).any()


EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize("argv", [
    ["heatmap_analysis.py", "--scale", "0.005"],
    ["maxsd_parameter_sweep.py", "--workload", "3", "--scale", "0.01"],
    ["real_run_emulation.py", "--scale", "0.1"],
    ["swf_replay.py", "--max-jobs", "200"],
    ["quickstart.py"],
    ["mixed_workload_cluster.py"],
], ids=lambda argv: argv[0])
def test_example_script_runs(argv):
    """Every example runs end to end at a small size."""
    src = str(EXAMPLES_DIR.parent / "src")
    env = dict(os.environ, REPRO_SWEEP_WORKERS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
