"""Table 1 — workload descriptions under static backfill.

Regenerates, for every paper workload (at benchmark scale), the number of
jobs, system size, maximum job size, and the average response time, average
slowdown and makespan measured with the static backfill simulation.
"""

from __future__ import annotations

from benchmarks.conftest import bench_scale, run_once, save_artifact
from repro.experiments.scenario import builtin_scenario, render_report, run_scenario


def _table_1(benchmark, scale, workload_ids):
    spec = builtin_scenario("table1", scale=scale, workload_ids=workload_ids)
    return run_once(benchmark, lambda: run_scenario(spec))


def test_table1_workload_descriptions(benchmark):
    outcome = _table_1(benchmark, bench_scale(3), (1, 2, 3, 5))
    save_artifact("table1_workloads", render_report(outcome))
    assert set(outcome.baselines) == {"workload1", "workload2", "workload3", "workload5"}
    for key, run in outcome.baselines.items():
        workload = outcome.workloads[key]
        # Every workload is congested enough for queueing to matter
        # (the paper's Table 1 slowdowns are in the thousands).
        assert run.metrics.avg_slowdown > 1.0
        assert run.metrics.makespan > 0
        assert workload.max_job_nodes <= workload.system_nodes
    # Workloads 1 and 2 share the size distribution; workload 2 has exact
    # requests, which the paper notes does not automatically improve the
    # static backfill slowdown.
    assert len(outcome.workloads["workload1"]) == len(outcome.workloads["workload2"])


def test_table1_big_workload_row(benchmark):
    """The CEA-Curie-like row is regenerated separately (it dominates cost)."""
    outcome = _table_1(benchmark, bench_scale(4), (4,))
    save_artifact("table1_workload4", render_report(outcome))
    assert outcome.baseline_run.metrics.avg_slowdown > 1.0
    assert len(outcome.workload) >= 1000
