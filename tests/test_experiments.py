"""Tests for the experiment harness (runner + per-figure experiments).

These run at a very small scale so the whole file stays within a few tens of
seconds; the benchmarks regenerate the figures at a more faithful scale.
"""

from __future__ import annotations

import math

import pytest

from repro.core.sd_policy import SDPolicyScheduler
from repro.experiments.runner import cluster_for, make_scheduler, run_workload
from repro.experiments.scenario import (
    MAXSD_GRID,
    WorkloadRef,
    builtin_scenario,
    render_report,
    run_scenario,
    scenario_daily_rows,
    scenario_heatmaps,
)
from repro.schedulers.backfill import BackfillScheduler
from repro.schedulers.fcfs import FCFSScheduler
from repro.workloads.cirne import CirneWorkloadModel


@pytest.fixture(scope="module")
def workload():
    return CirneWorkloadModel(
        num_jobs=120, system_nodes=24, cpus_per_node=8, max_job_nodes=8,
        target_load=1.05, median_runtime_s=1800.0, seed=17, name="exp_test",
    ).generate()


class TestRunner:
    def test_cluster_for_matches_workload(self, workload):
        cluster = cluster_for(workload)
        assert cluster.num_nodes == workload.system_nodes
        assert cluster.cpus_per_node == workload.cpus_per_node

    def test_cluster_for_odd_node_width(self, workload):
        workload_odd = CirneWorkloadModel(
            num_jobs=5, system_nodes=4, cpus_per_node=7, max_job_nodes=2, seed=1
        ).generate()
        assert cluster_for(workload_odd).cpus_per_node == 7

    def test_make_scheduler_by_name(self):
        assert isinstance(make_scheduler("fcfs"), FCFSScheduler)
        assert isinstance(make_scheduler("static_backfill"), BackfillScheduler)
        assert isinstance(make_scheduler("sd_policy", max_slowdown=5.0), SDPolicyScheduler)

    def test_make_scheduler_passthrough_and_factory(self):
        instance = BackfillScheduler()
        assert make_scheduler(instance) is instance
        assert isinstance(make_scheduler(lambda: FCFSScheduler()), FCFSScheduler)

    def test_make_scheduler_unknown(self):
        with pytest.raises(ValueError):
            make_scheduler("round_robin")

    def test_run_workload_returns_metrics(self, workload):
        run = run_workload(workload, "static_backfill")
        assert run.metrics.num_jobs == len(workload)
        assert run.metrics.makespan > 0
        assert run.workload_name == workload.name

    def test_run_workload_sd_policy_stats(self, workload):
        run = run_workload(workload, "sd_policy", max_slowdown=math.inf)
        assert "malleable_starts" in run.scheduler_stats
        assert run.metrics.num_jobs == len(workload)

    def test_runtime_model_by_name(self, workload):
        run = run_workload(workload, "sd_policy", runtime_model="worst_case",
                           max_slowdown=math.inf)
        assert run.metrics.num_jobs == len(workload)

    def test_malleable_fraction_zero_disables_malleability(self, workload):
        run = run_workload(workload, "sd_policy", malleable_fraction=0.0,
                           max_slowdown=math.inf)
        assert run.metrics.malleable_scheduled == 0


def _run_on(workload, name, **overrides):
    """Run built-in ``name`` on a prebuilt workload."""
    spec = builtin_scenario(name, **overrides)
    spec.workloads = [WorkloadRef(name=workload.name)]
    return run_scenario(spec, workloads=workload)


class TestFigureExperiments:
    def test_maxsd_sweep_structure(self, workload):
        spec = builtin_scenario("figure1-3")
        spec.grid = {"max_slowdown": [
            p for p in spec.grid["max_slowdown"] if p.label in ("MAXSD 10", "DynAVGSD")
        ]}
        outcome = run_scenario(spec, workloads=workload)
        assert set(outcome.normalized()) == {"MAXSD 10", "DynAVGSD"}
        for values in outcome.normalized().values():
            assert set(values) == {"makespan", "avg_response_time", "avg_slowdown"}
            assert values["avg_slowdown"] <= 1.05  # SD-Policy should not lose badly
        assert "Figure 3" in render_report(outcome)

    def test_heatmap_experiment(self, workload):
        outcome = _run_on(workload, "figure4-6", max_slowdown=10.0)
        grids = scenario_heatmaps(outcome)
        assert set(grids) == {"slowdown", "runtime", "wait"}
        assert "Figure 4" in render_report(outcome)

    def test_daily_series_experiment(self, workload):
        outcome = _run_on(workload, "figure7", max_slowdown=10.0)
        rows = scenario_daily_rows(outcome)
        assert rows, "expected at least one day of data"
        assert {"day", "static_slowdown", "sd_slowdown", "malleable_jobs"} <= set(rows[0])
        sd = outcome.cells[0].run
        assert 0.0 <= sd.metrics.malleable_scheduled / max(1, len(sd.records.array)) <= 1.0

    def test_runtime_model_experiment(self, workload):
        spec = builtin_scenario("figure8", max_slowdown="dynamic")
        spec.workloads = [WorkloadRef(name="wl")]
        entry = run_scenario(spec, workloads={"wl": workload}).normalized("wl")
        assert set(entry) == {"ideal", "worst_case"}
        # The worst-case model can only be slower or equal for each metric.
        assert entry["worst_case"]["avg_slowdown"] >= entry["ideal"]["avg_slowdown"] - 0.15

    def test_table_1(self):
        outcome = run_scenario(builtin_scenario("table1", scale=0.01, workload_ids=(3,)))
        assert "workload3" in outcome.baselines
        assert "Table 1" in render_report(outcome)

    def test_table_2(self):
        from repro.workloads.applications import application_shares

        outcome = run_scenario(builtin_scenario("table2", scale=0.2))
        shares = application_shares(outcome.workload)
        assert abs(sum(shares.values()) - 1.0) < 1e-6
        assert "PILS" in shares

    def test_maxsd_settings_match_paper_labels(self):
        assert {p["label"] for p in MAXSD_GRID} == {
            "MAXSD 5", "MAXSD 10", "MAXSD 50", "MAXSD inf", "DynAVGSD"
        }
